//! `replicate` = distribution filters + merge tree (§V-C d, Fig. 8): a
//! filter per way picks threads by key, the body is instantiated once per
//! way (late unrolling), and a forward-merge tree gathers the results. With
//! allocator hoisting (§V-B b) the body's allocation happens before the
//! distribution and its pointer is the key (load balancing, Fig. 14); with
//! bufferization, values the body never reads wait in an SRAM indexed by
//! that pointer instead of riding through every way.
//!
//! Only the first way is lowered. Ways 1..n are *stamped*: what the first
//! way emitted (its links, any SRAM regions a nested replicate parked
//! values in, its contexts) is emitted again through the same emitters, in
//! the same order. In each copy the way's own links and SRAM regions move
//! by the count emitted since the first way began, its input becomes the
//! way's own distribution link, and its contexts take the next context
//! ids, which number their labels. Element-wise programs are shared, not
//! copied, unless they touch one of the way's own SRAM regions. The result
//! is what lowering the body once per way would emit, id for id and label
//! for label.

use super::block::{alu, imm};
use super::frame::{slot_of, slots_of, Frame};
use super::{Carries, Category, Cur, DfLower, Mark, Term};
use crate::CoreError;
use revet_machine::instr::{AluOp, EwInstr, Operand, Reg};
use revet_machine::nodes::{EwNode, OutputSpec};
use revet_machine::{AllocId, ChanId, NodeId, PortList, Prim, SramId, UnitClass};
use revet_mir::{Op, OpKind, Region, Value};
use std::sync::Arc;

/// A replicate body's hoisted allocation: the pop runs before distribution
/// and the matching region-end push after the merge (so a recycled pointer
/// cannot race the buffered values, Fig. 10 b); both leave the body.
struct Hoist {
    alloc: AllocId,
    ptr: Value,
    pop_at: usize,
    push_at: Option<usize>,
}

impl Hoist {
    /// The body's first top-level `AllocPop`, if there is one.
    fn find(body: &Region) -> Option<Hoist> {
        let (pop_at, alloc, ptr) = body
            .ops
            .iter()
            .enumerate()
            .find_map(|(i, o)| match o.kind {
                OpKind::AllocPop { alloc } => Some((i, alloc, o.results[0])),
                _ => None,
            })?;
        let push_at = body.ops.iter().position(|o| {
            matches!(&o.kind, OpKind::AllocPush { alloc: a, ptr: p } if *a == alloc && *p == ptr)
        });
        Some(Hoist {
            alloc,
            ptr,
            pop_at,
            push_at,
        })
    }
}

/// What the first way of a replicate emitted: everything between two
/// marks, fed by the way's distribution link `input`.
struct Way {
    from: Mark,
    to: Mark,
    input: ChanId,
}

impl Way {
    /// The copy of `chan` in a stamp made at `at` and fed by `input`: the
    /// way's own links move by the channels emitted since the first way
    /// began, its input becomes `input`, and a link from outside the way
    /// stays itself.
    fn chan(&self, at: &Mark, input: ChanId, chan: ChanId) -> ChanId {
        let c = chan.0 as usize;
        if chan == self.input {
            input
        } else if (self.from.chans..self.to.chans).contains(&c) {
            ChanId((c + at.chans - self.from.chans) as u32)
        } else {
            chan
        }
    }

    /// `node` with every SRAM region the way declared moved to its copy's
    /// (`shift` regions on); `None` if it touches none of them.
    fn srams(&self, node: &EwNode, shift: u32) -> Option<EwNode> {
        let own = self.from.srams as u32..self.to.srams as u32;
        let region = |i: &EwInstr| match i {
            EwInstr::SramRead { region, .. }
            | EwInstr::SramWrite { region, .. }
            | EwInstr::SramDecFetch { region, .. } => Some(region.0),
            _ => None,
        };
        let mut regions = node.instrs.iter().filter_map(region);
        if !regions.any(|r| own.contains(&r)) {
            return None;
        }
        let moved = |i: &EwInstr| {
            let mut i = i.clone();
            if let EwInstr::SramRead { region, .. }
            | EwInstr::SramWrite { region, .. }
            | EwInstr::SramDecFetch { region, .. } = &mut i
            {
                if own.contains(&region.0) {
                    region.0 += shift;
                }
            }
            i
        };
        let instrs: Arc<[EwInstr]> = node.instrs.iter().map(moved).collect();
        Some(EwNode::new(
            node.reg_count(),
            instrs,
            Arc::clone(&node.outputs),
        ))
    }
}

/// `name`, a region [`DfLower::park`] numbered by the context count it was
/// declared at, renumbered `shift` contexts on.
fn renumber(name: &str, shift: usize) -> String {
    let base = name.trim_end_matches(|c: char| c.is_ascii_digit());
    let n: usize = name[base.len()..].parse().expect("a numbered region");
    format!("{base}{}", n + shift)
}

/// `dst = ptr * k + j`: where thread `ptr` parks its `j`-th of `k` values.
fn parked_addr(ptr: Reg, k: u32, j: u32, dst: Reg) -> [EwInstr; 2] {
    [
        alu(AluOp::Mul, Operand::Reg(ptr), imm(k), dst),
        alu(AluOp::Add, Operand::Reg(dst), imm(j), dst),
    ]
}

impl DfLower<'_> {
    pub(super) fn lower_replicate(
        &mut self,
        frame: Frame<'_>,
        ways: u32,
        body: &Region,
    ) -> Result<Cur, CoreError> {
        let out_tuple = frame.out_tuple();
        let at = frame.region(0);
        let mut cur = self.emit_block(&frame.pending, frame.cur, &frame.in_tuple, "rep_in")?;
        let hoist = (self.opts.hoist_allocators.then(|| Hoist::find(body))).flatten();
        let mut parked: Option<(SramId, Vec<Value>)> = None;
        // What must come out of every way besides its yields.
        let mut extra = frame.passthrough;
        if let Some(h) = &hoist {
            // Pop the pointer in a dedicated MU context feeding the
            // distribution network.
            let n = cur.vars.len() as Reg;
            let pop = EwInstr::AllocPop {
                alloc: h.alloc,
                dst: n,
            };
            let slots = OutputSpec::plain((0..=n).collect::<Arc<[Reg]>>());
            let node = EwNode::new(n, [pop], [slots]);
            let (unit, category) = (UnitClass::Memory, Category::Replicate);
            cur.chan = self.ew("rep.alloc", unit, category, node, [cur.chan]);
            cur.vars.push(h.ptr);
            if self.opts.bufferize_replicate {
                let (unread, read): (Vec<Value>, Vec<Value>) =
                    extra.iter().partition(|v| !frame.free.contains(v));
                extra = read;
                if !unread.is_empty() {
                    let (sram, kept) = self.park(cur, h.ptr, &unread)?;
                    cur = kept;
                    parked = Some((sram, unread));
                }
            }
            if !extra.contains(&h.ptr) {
                extra.push(h.ptr);
            }
        }
        // Distribution key: the hoisted pointer's low bits, or the first
        // live value as a static hash (the fixed-allocation baseline of
        // Fig. 14).
        let key = match &hoist {
            Some(h) => slot_of(&cur.vars, h.ptr, "replicate")?,
            None => 0,
        };
        let way_chans = self.distribute(&cur, key, ways);
        // Late unrolling: lower the body, minus the hoisted pop and push,
        // for the first way, and stamp the others from it.
        let hoisted = |j: usize| {
            let at = |h: &Hoist| j == h.pop_at || Some(j) == h.push_at;
            hoist.as_ref().is_some_and(at)
        };
        let kept = (0..).zip(&body.ops).filter(|(j, _)| !hoisted(*j));
        let body_ops: Vec<&Op> = kept.map(|(_, o)| o).collect();
        self.in_replicate += 1;
        let first = self.mark();
        let input = Cur {
            chan: way_chans[0],
            vars: cur.vars,
        };
        let (out, term) = self.lower_ops(&body_ops, at, input, &extra)?;
        if !matches!(term, Term::Yield | Term::Exit) {
            return Err(CoreError::new("replicate body must end in yield or exit"));
        }
        let way0 = Way {
            from: first,
            to: self.mark(),
            input: way_chans[0],
        };
        let mut way_outs = vec![out.chan];
        for &input in &way_chans[1..] {
            way_outs.push(self.stamp(&way0, input, out.chan)?);
        }
        self.in_replicate -= 1;
        let chan = self.merge_tree(&way_outs, out.vars.len());
        // A way that yields leaves [yields ++ extra]; the yields are the
        // op's results.
        let beyond = out.vars.get(frame.results.len()..).unwrap_or_default();
        let mut cur = Cur {
            chan,
            vars: [frame.results, beyond].concat(),
        };
        if let Some(h) = &hoist {
            cur = self.release(cur, h, parked)?;
        }
        self.emit_block(&[], cur, &out_tuple, "rep_out")
    }

    /// Emits one more way of a replicate as a copy of the first, `way0`,
    /// fed by `input`; returns the copy of the first way's output `out0`.
    /// The copy goes through the emitters the first way went through, in
    /// the same order per counter — links, SRAM regions, then contexts —
    /// so every id, label and region name is the one lowering the body
    /// again would have given it. Element-wise programs are shared unless
    /// they touch an SRAM region the way declared itself.
    fn stamp(&mut self, way0: &Way, input: ChanId, out0: ChanId) -> Result<ChanId, CoreError> {
        let (from, to, at) = (way0.from, way0.to, self.mark());
        for c in from.chans..to.chans {
            let chan = self.g.chans()[c].clone();
            self.at_depth(self.links[c].depth, |lw| lw.link(chan));
        }
        let contexts = at.infos - from.infos;
        for s in from.srams..to.srams {
            let region = self.g.mem.sram(SramId(s as u32));
            let (name, words) = (renumber(&region.name, contexts), region.words.len());
            self.add_sram(name, words as u64)?;
        }
        let srams = (at.srams - from.srams) as u32;
        for i in from.infos..to.infos {
            let info = &self.infos[i];
            let (kind, unit, category) = (info.kind, info.unit, info.category);
            let (depth, cost, base) = (info.depth, (info.instrs, info.regs), info.label.base());
            if info.id == u32::MAX {
                self.at_depth(depth, |lw| lw.buffer_mu(category, base));
                continue;
            }
            let slot = self.g.node(NodeId(info.id));
            let copy = |ports: &[ChanId]| -> PortList {
                ports.iter().map(|&c| way0.chan(&at, input, c)).collect()
            };
            let (ins, outs) = (copy(&slot.ins), copy(&slot.outs));
            let node = match &slot.behavior {
                Prim::Ew(ew) => Prim::Ew(way0.srams(ew, srams).unwrap_or_else(|| ew.clone())),
                other => other.clone(),
            };
            self.at_depth(depth, |lw| {
                lw.emit(base, kind, unit, category, cost, node, ins, outs);
            });
        }
        Ok(way0.chan(&at, input, out0))
    }

    /// Stores `values` to a fresh SRAM region indexed by the hoisted
    /// pointer, before distribution; the rest of the tuple carries on.
    fn park(&mut self, cur: Cur, ptr: Value, values: &[Value]) -> Result<(SramId, Cur), CoreError> {
        let k = values.len() as u32;
        let words = u64::from(k) * u64::from(self.module.thread_count());
        let sram = self.add_sram(format!("rep_buf{}", self.infos.len()), words)?;
        let ptr = slot_of(&cur.vars, ptr, "replicate")?;
        let scratch = cur.vars.len() as Reg;
        let mut instrs = Vec::new();
        for (j, v) in (0..).zip(values) {
            instrs.extend(parked_addr(ptr, k, j, scratch));
            instrs.push(EwInstr::SramWrite {
                region: sram,
                addr: Operand::Reg(scratch),
                val: Operand::Reg(slot_of(&cur.vars, *v, "replicate")?),
                pred: None,
            });
        }
        let mut keep = cur.vars.clone();
        keep.retain(|v| !values.contains(v));
        let out_keep = OutputSpec::plain(slots_of(&cur.vars, &keep, "replicate")?);
        let chan = self.chan(keep.len(), Carries::PerThread);
        let cost = (instrs.len(), keep.len() + 1);
        let node = EwNode::new(scratch + 1, instrs, [out_keep]);
        let (unit, category) = (UnitClass::Memory, Category::Buffer);
        let (ins, outs) = ([cur.chan], [chan]);
        self.emit("rep.bufstore", "ew", unit, category, cost, node, ins, outs);
        Ok((sram, Cur { chan, vars: keep }))
    }

    /// The distribution filters: way `i` receives the threads whose
    /// register `key`, modulo `ways`, is `i`. Returns the per-way links,
    /// which stay scalar ([`Carries::Distribution`] says why).
    fn distribute(&mut self, cur: &Cur, key: Reg, ways: u32) -> Vec<ChanId> {
        let n = cur.vars.len() as Reg;
        let all: Arc<[Reg]> = (0..n).collect();
        let hits = (0..ways).zip(n + 1..);
        let test = hits
            .clone()
            .map(|(i, hit)| alu(AluOp::Eq, Operand::Reg(n), imm(i), hit));
        let key_mod = alu(AluOp::RemU, Operand::Reg(key), imm(ways), n);
        let instrs: Arc<[EwInstr]> = std::iter::once(key_mod).chain(test).collect();
        let outputs: Arc<[OutputSpec]> = hits
            .map(|(_, hit)| OutputSpec::filtered(Arc::clone(&all), hit, true))
            .collect();
        let chans: Vec<ChanId> = (0..ways)
            .map(|_| self.chan(all.len(), Carries::Distribution))
            .collect();
        let node = EwNode::new(n, instrs, outputs);
        let (unit, category) = (UnitClass::Compute, Category::Replicate);
        let outs = chans.clone();
        self.ew_into("rep.dist", "filter", unit, category, node, [cur.chan], outs);
        // One retiming buffer MU in the distribution network (§V-C d).
        self.buffer_mu(Category::Retime, "rep.retime");
        chans
    }

    /// Forward-merges the ways' outputs pairwise, level by level, into one
    /// per-thread stream; an unpaired way moves up a level as it is. The
    /// root carries every thread of the replicate, so each merge is a
    /// vector link.
    fn merge_tree(&mut self, way_outs: &[ChanId], arity: usize) -> ChanId {
        let mut frontier = way_outs.to_vec();
        while frontier.len() > 1 {
            let level = std::mem::take(&mut frontier);
            for pair in level.chunks(2) {
                frontier.push(match *pair {
                    [a, b] => {
                        let (base, category) = ("rep.merge", Category::Replicate);
                        self.fwd_merge(base, category, [a, b], arity)
                    }
                    _ => pair[0],
                });
            }
        }
        frontier[0]
    }

    /// After the merge: reloads whatever was parked and hands the hoisted
    /// pointer back — also when nothing was parked, since the body's own
    /// push was stripped and dropping it would drain the pool and deadlock
    /// the distribution network.
    fn release(
        &mut self,
        cur: Cur,
        hoist: &Hoist,
        parked: Option<(SramId, Vec<Value>)>,
    ) -> Result<Cur, CoreError> {
        let ptr = slot_of(&cur.vars, hoist.ptr, "replicate result")?;
        let kept = (0..).zip(&cur.vars).filter(|(_, v)| **v != hoist.ptr);
        let (mut slots, mut vars): (Vec<Reg>, Vec<Value>) = kept.map(|(i, v)| (i, *v)).unzip();
        let push = EwInstr::AllocPush {
            alloc: hoist.alloc,
            src: Operand::Reg(ptr),
            pred: None,
        };
        let base = cur.vars.len() as Reg;
        let unit = UnitClass::Memory;
        let Some((sram, values)) = parked else {
            let node = EwNode::new(base, [push], [OutputSpec::plain(slots)]);
            let chan = self.ew("rep.free", unit, Category::Replicate, node, [cur.chan]);
            return Ok(Cur { chan, vars });
        };
        let k = values.len() as u32;
        let mut instrs = Vec::new();
        for j in 0..k {
            let (addr, dst) = (base + 2 * j as Reg, base + 2 * j as Reg + 1);
            instrs.extend(parked_addr(ptr, k, j, addr));
            instrs.push(EwInstr::SramRead {
                region: sram,
                addr: Operand::Reg(addr),
                dst,
                pred: None,
            });
            slots.push(dst);
        }
        instrs.push(push);
        vars.extend(values);
        let chan = self.chan(vars.len(), Carries::PerThread);
        let cost = (instrs.len(), vars.len() + 2);
        let regs = (base + 2 * k as Reg).max(1);
        let node = EwNode::new(regs, instrs, [OutputSpec::plain(slots)]);
        let (ins, outs) = ([cur.chan], [chan]);
        self.emit(
            "rep.bufload",
            "ew",
            unit,
            Category::Buffer,
            cost,
            node,
            ins,
            outs,
        );
        Ok(Cur { chan, vars })
    }
}
