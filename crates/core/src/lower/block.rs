//! Straight-line ops → a chain of element-wise contexts (§V-D b): every
//! memory instruction gets a context of its own, compute runs are capped
//! at six pipeline stages, and each context carries exactly the registers
//! a later one still reads.

use super::{Cur, DfLower};
use crate::CoreError;
use revet_machine::instr::{AluOp, EwInstr, Operand, Pred, Reg, RegRole};
use revet_machine::nodes::{EwNode, OutputSpec};
use revet_machine::UnitClass;
use revet_mir::{DramRef, Op, OpKind, Ty, Value, ValueMap};
use revet_sltf::Word;
use std::ops::Range;
use std::sync::Arc;

/// Pipeline stages available to one compute context.
const STAGES: usize = 6;

pub(super) fn alu(op: AluOp, a: Operand, b: Operand, dst: Reg) -> EwInstr {
    EwInstr::Alu { op, a, b, dst }
}

pub(super) fn mov(src: Operand, dst: Reg) -> EwInstr {
    EwInstr::Mov { src, dst }
}

pub(super) fn imm(v: u32) -> Operand {
    Operand::Const(Word(v))
}

/// Where each SSA value of a block lives: inputs in tuple order, results
/// in fresh registers after them, constants as immediates.
struct Regs<'c> {
    consts: &'c ValueMap<Word>,
    at: ValueMap<Reg>,
    next: Reg,
    block: &'c str,
}

impl Regs<'_> {
    fn operand(&self, v: Value) -> Result<Operand, CoreError> {
        if let Some(r) = self.at.get(v) {
            Ok(Operand::Reg(*r))
        } else if let Some(w) = self.consts.get(v) {
            Ok(Operand::Const(*w))
        } else {
            Err(CoreError::new(format!(
                "value %{} is not available in the `{}` block",
                v.0, self.block
            )))
        }
    }

    fn fresh(&mut self) -> Reg {
        self.next += 1;
        self.next - 1
    }

    /// A fresh register, bound to the op's result if it has one.
    fn define(&mut self, results: &[Value]) -> Reg {
        let r = self.fresh();
        if let Some(v) = results.first() {
            self.at.insert(*v, r);
        }
        r
    }
}

/// Cuts an instruction list into contexts: each memory instruction alone,
/// compute runs of at most [`STAGES`]; a pure reorder still needs one.
/// The ranges replace `out`'s contents.
fn segments(items: &[EwInstr], out: &mut Vec<Range<usize>>) {
    out.clear();
    let mut start = 0;
    for (i, ins) in items.iter().enumerate() {
        if ins.is_memory() {
            if start < i {
                out.push(start..i);
            }
            out.push(i..i + 1);
            start = i + 1;
        } else if i - start >= STAGES {
            out.push(start..i);
            start = i;
        }
    }
    if start < items.len() || out.is_empty() {
        out.push(start..items.len());
    }
}

/// Fills `live` with `segs.len() + 1` rows of `count` flags: flag `r` of
/// row `s` says virtual register `r` is read by segment `s` or later (or
/// by the block's outputs) and not written first; the last row is
/// `out_regs`.
fn live_regs(
    items: &mut [EwInstr],
    segs: &[Range<usize>],
    out_regs: &[Reg],
    count: usize,
    live: &mut Vec<bool>,
) {
    live.clear();
    live.resize((segs.len() + 1) * count, false);
    for r in out_regs {
        live[segs.len() * count + *r as usize] = true;
    }
    for (s, seg) in segs.iter().enumerate().rev() {
        let (set, later) = live[s * count..(s + 2) * count].split_at_mut(count);
        set.copy_from_slice(later);
        for ins in items[seg.clone()].iter_mut().rev() {
            ins.for_each_reg(|role, r| {
                if role == RegRole::Write {
                    set[*r as usize] = false;
                }
            });
            ins.for_each_reg(|role, r| {
                if role != RegRole::Write {
                    set[*r as usize] = true;
                }
            });
        }
    }
}

/// What [`DfLower::emit_block`] works in, kept between blocks so a block
/// allocates only what its contexts keep: their programs.
#[derive(Default)]
pub(super) struct BlockScratch {
    /// The block's instructions over virtual registers, renamed in place
    /// one segment at a time.
    items: Vec<EwInstr>,
    /// The virtual register of each position of the block's output tuple.
    out_regs: Vec<Reg>,
    segs: Vec<Range<usize>>,
    /// [`live_regs`]' rows, flat.
    live: Vec<bool>,
    /// The virtual register at each position of the current link.
    layout: Vec<Reg>,
    /// The virtual registers the current segment hands on.
    carried: Vec<Reg>,
    /// Virtual register → the current segment's register.
    remap: Vec<Option<Reg>>,
}

impl DfLower<'_> {
    /// Compiles a run of simple ops into a chain of element-wise contexts.
    /// `out_tuple` is the exact positional output layout (may repeat values
    /// and include constants, which are materialized).
    pub(super) fn emit_block(
        &mut self,
        ops: &[&Op],
        input: Cur,
        out_tuple: &[Value],
        base: &'static str,
    ) -> Result<Cur, CoreError> {
        if ops.is_empty() && input.vars == out_tuple {
            return Ok(input);
        }
        let mut at = std::mem::take(&mut self.at);
        at.clear();
        at.extend(input.vars.iter().zip(0..).map(|(v, r)| (*v, r)));
        let mut regs = Regs {
            consts: &self.consts,
            at,
            next: input.vars.len() as Reg,
            block: base,
        };
        let mut scratch = std::mem::take(&mut self.block);
        let BlockScratch {
            items,
            out_regs,
            segs,
            live,
            layout,
            carried,
            remap,
        } = &mut scratch;
        items.clear();
        for op in ops {
            self.gen_instrs(&op.kind, &op.results, None, &mut regs, items)?;
        }
        out_regs.clear();
        for v in out_tuple {
            out_regs.push(match regs.operand(*v)? {
                Operand::Reg(r) => r,
                constant => {
                    let r = regs.fresh();
                    items.push(mov(constant, r));
                    r
                }
            });
        }
        let Regs {
            at, next: nregs, ..
        } = regs;
        self.at = at;
        let count = usize::from(nregs);
        segments(items, segs);
        live_regs(items, segs, out_regs, count, live);
        let mut chan = input.chan;
        layout.clear();
        layout.extend(0..input.vars.len() as Reg);
        for (s, seg) in segs.iter().enumerate() {
            // Rename virtual registers to this context's file: inputs load
            // at their tuple position, results follow.
            remap.clear();
            remap.resize(count, None);
            for (pos, old) in layout.iter().enumerate() {
                remap[*old as usize].get_or_insert(pos as Reg);
            }
            let mut next = layout.len() as Reg;
            let instrs = &mut items[seg.clone()];
            for ins in instrs.iter_mut() {
                ins.for_each_reg(|role, r| {
                    let slot = &mut remap[*r as usize];
                    *r = match role {
                        RegRole::Write => *slot.get_or_insert_with(|| {
                            next += 1;
                            next - 1
                        }),
                        _ => slot.unwrap_or_else(|| panic!("segment reads unmapped {role:?} r{r}")),
                    }
                });
            }
            // The last context emits the block's layout; the others carry
            // on whatever is still read later, in register order.
            carried.clear();
            if s + 1 == segs.len() {
                carried.extend_from_slice(out_regs);
            } else {
                let later = &live[(s + 1) * count..(s + 2) * count];
                let kept = |r: &Reg| later[*r as usize] && remap[*r as usize].is_some();
                carried.extend((0..nregs).filter(kept));
            }
            let out_slots: Arc<[Reg]> = carried
                .iter()
                .map(|r| remap[*r as usize].expect("a carried register is mapped"))
                .collect();
            let unit = instrs
                .first()
                .map_or(UnitClass::Compute, EwInstr::unit_class);
            let node = EwNode::new(
                layout.len() as u16,
                &*instrs,
                [OutputSpec::plain(out_slots)],
            );
            chan = self.ew(base, unit, self.category(), node, [chan]);
            std::mem::swap(layout, carried);
        }
        self.block = scratch;
        Ok(Cur {
            chan,
            vars: out_tuple.to_vec(),
        })
    }

    /// `addr = base(dram) + idx * elem_bytes` in a fresh register; returns
    /// it with the element width.
    fn dram_addr(
        &self,
        dram: DramRef,
        idx: Value,
        regs: &mut Regs<'_>,
        items: &mut Vec<EwInstr>,
    ) -> Result<(Reg, u32), CoreError> {
        let eb = self.module.drams[dram.0 as usize].elem_bytes;
        let base = self.layout.base[dram.0 as usize];
        let idx = regs.operand(idx)?;
        let addr = regs.fresh();
        items.push(alu(AluOp::Mul, idx, imm(eb), addr));
        items.push(alu(AluOp::Add, Operand::Reg(addr), imm(base), addr));
        Ok((addr, eb))
    }

    /// Generates element-wise instructions for one simple MIR op, under
    /// the enclosing `Predicated` wrapper's predicate if there is one.
    #[allow(clippy::too_many_lines)] // one arm per simple op kind; splitting it would only scatter the table
    fn gen_instrs(
        &self,
        kind: &OpKind,
        results: &[Value],
        pred: Option<Pred>,
        regs: &mut Regs<'_>,
        items: &mut Vec<EwInstr>,
    ) -> Result<(), CoreError> {
        match kind {
            OpKind::ConstI(..) => {} // handled by the const map
            OpKind::Bin(op, a, b) => {
                let (a, b) = (regs.operand(*a)?, regs.operand(*b)?);
                items.push(alu(*op, a, b, regs.define(results)));
            }
            OpKind::Select(c, t, f) => {
                let (c, t, f) = (regs.operand(*c)?, regs.operand(*t)?, regs.operand(*f)?);
                let dst = regs.define(results);
                items.push(EwInstr::Select { c, t, f, dst });
            }
            OpKind::Cast { v, to, signed } => {
                let src = regs.operand(*v)?;
                let dst = regs.define(results);
                match (to, signed) {
                    (Ty::I8, false) => items.push(alu(AluOp::And, src, imm(0xFF), dst)),
                    (Ty::I16, false) => items.push(alu(AluOp::And, src, imm(0xFFFF), dst)),
                    (Ty::I8 | Ty::I16, true) => {
                        let sh = imm(if *to == Ty::I8 { 24 } else { 16 });
                        items.push(alu(AluOp::Shl, src, sh, dst));
                        items.push(alu(AluOp::ShrS, Operand::Reg(dst), sh, dst));
                    }
                    _ => items.push(mov(src, dst)),
                }
            }
            OpKind::SramRead { sram, addr } => {
                let (region, addr) = (*sram, regs.operand(*addr)?);
                let dst = regs.define(results);
                items.push(EwInstr::SramRead {
                    region,
                    addr,
                    dst,
                    pred,
                });
            }
            OpKind::SramWrite { sram, addr, val } => {
                let (region, addr, val) = (*sram, regs.operand(*addr)?, regs.operand(*val)?);
                items.push(EwInstr::SramWrite {
                    region,
                    addr,
                    val,
                    pred,
                });
            }
            OpKind::SramDecFetch { sram, addr } => {
                let (region, addr) = (*sram, regs.operand(*addr)?);
                let dst = regs.define(results);
                items.push(EwInstr::SramDecFetch {
                    region,
                    addr,
                    dst,
                    pred,
                });
            }
            OpKind::DramRead { dram, idx } => {
                let (addr, eb) = self.dram_addr(*dram, *idx, regs, items)?;
                let addr = Operand::Reg(addr);
                let dst = regs.define(results);
                if eb == 1 {
                    items.push(EwInstr::DramReadB { addr, dst, pred });
                } else {
                    items.push(EwInstr::DramReadW { addr, dst, pred });
                }
                if eb == 2 {
                    items.push(alu(AluOp::And, Operand::Reg(dst), imm(0xFFFF), dst));
                }
            }
            OpKind::DramWrite { dram, idx, val } => {
                let val = regs.operand(*val)?;
                let (areg, eb) = self.dram_addr(*dram, *idx, regs, items)?;
                let addr = Operand::Reg(areg);
                match eb {
                    1 => items.push(EwInstr::DramWriteB { addr, val, pred }),
                    2 => {
                        // Two byte stores, low then high.
                        let hi = regs.fresh();
                        items.push(EwInstr::DramWriteB { addr, val, pred });
                        items.push(alu(AluOp::ShrU, val, imm(8), hi));
                        items.push(alu(AluOp::Add, addr, imm(1), areg));
                        let val = Operand::Reg(hi);
                        items.push(EwInstr::DramWriteB { addr, val, pred });
                    }
                    _ => items.push(EwInstr::DramWriteW { addr, val, pred }),
                }
            }
            OpKind::AllocPop { alloc } => {
                let (alloc, dst) = (*alloc, regs.define(results));
                items.push(EwInstr::AllocPop { alloc, dst });
            }
            OpKind::AllocPush { alloc, ptr } => {
                let (alloc, src) = (*alloc, regs.operand(*ptr)?);
                items.push(EwInstr::AllocPush { alloc, src, pred });
            }
            OpKind::Predicated {
                pred: p,
                expect,
                inner,
            } => {
                let test = |expect: bool| if expect { AluOp::Ne } else { AluOp::Eq };
                let pv = regs.operand(*p)?;
                let truth = regs.fresh();
                items.push(alu(test(*expect), pv, imm(0), truth));
                // Under an enclosing predicate, normalize it to 0/1 and AND.
                let reg = match pred {
                    Some(outer) => {
                        let (both, norm) = (regs.fresh(), regs.fresh());
                        let outer_reg = Operand::Reg(outer.reg);
                        items.push(alu(test(outer.expect), outer_reg, imm(0), norm));
                        let (truth, norm) = (Operand::Reg(truth), Operand::Reg(norm));
                        items.push(alu(AluOp::And, truth, norm, both));
                        both
                    }
                    None => truth,
                };
                let pred = Some(Pred { reg, expect: true });
                self.gen_instrs(inner, results, pred, regs, items)?;
            }
            other => {
                return Err(CoreError::new(format!(
                    "op not lowerable to element-wise form: {other:?}"
                )))
            }
        }
        Ok(())
    }
}
