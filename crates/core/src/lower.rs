//! Structured-control-flow → streaming-dataflow lowering (§V-C) plus the
//! dataflow optimizations of §V-D (link analysis, context splitting,
//! sub-word packing, replicate distribution/merging, retiming accounting).
//!
//! Our MIR keeps control flow structured all the way down (the language has
//! no gotos), so the paper's annotated CFG is isomorphic to the region tree:
//! every region is a basic-block sequence, an `if` is a filter/forward-merge
//! pair, a `while` header is a forward-backward merge, `foreach` edges are
//! counter/reduce terminators. This module performs that conversion
//! directly, emitting the §III-B primitives of `revet-machine`:
//!
//! | MIR construct | primitives |
//! |---|---|
//! | straight-line ops | element-wise contexts (split: each memory op in its own context, ≤6 ALU ops per context) |
//! | `if` | filter (predicated outputs) → branch pipelines → forward merge |
//! | `while` | fb-merge header → cond filter → body → backedge; exit edge flattens |
//! | `foreach` | counter (+ broadcast of live-ins) → body → reduce → zip re-join |
//! | `fork` | fork node (live values duplicated per spawn) |
//! | `replicate` | distribution filter tree → `ways` copies → fwd-merge tree |
//!
//! Memory ordering needs no explicit void tokens here: split contexts form a
//! linear chain threaded by the live tuple, so same-thread memory operations
//! stay in program order structurally (SARA's CMMC tokens solve the same
//! problem for arbitrarily-placed contexts).

use crate::{CoreError, PassOptions};
use revet_machine::instr::{AluOp, EwInstr, Operand, Pred, Reg};
use revet_machine::nodes::{
    BroadcastNode, CounterNode, EwNode, FbMergeNode, FlattenNode, ForkNode, FwdMergeNode,
    OutputSpec, ReduceNode, SinkNode,
};
use revet_machine::{ChanId, Channel, ExecPlan, Graph, LinkClass, RunOptions, UnitClass};
use revet_mir::{DramLayout, Func, Module, Op, OpKind, Region, Ty, Value};
use revet_sltf::Word;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Table IV resource category of a context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// Outer-level machinery (tile streams, top-level blocks).
    Outer,
    /// Inner-loop pipelines (inside loops / replicate bodies).
    Inner,
    /// Replicate distribution/merge infrastructure.
    Replicate,
    /// Buffering MUs for values stored around replicates (§V-B b).
    Buffer,
    /// Retiming buffers (work-distribution skid buffers).
    Retime,
    /// Deadlock-avoidance buffers on loop backedges.
    Deadlock,
}

/// Metadata for one streaming context (one physical unit after splitting).
#[derive(Clone, Debug)]
pub struct ContextInfo {
    /// Context id (== machine NodeId index).
    pub id: u32,
    /// Debug label.
    pub label: String,
    /// Primitive kind ("ew", "fb-merge", …).
    pub kind: &'static str,
    /// Which physical unit type it occupies.
    pub unit: UnitClass,
    /// Loop-nest depth at creation.
    pub depth: u32,
    /// Element-wise instruction count (pipeline stages used).
    pub instrs: usize,
    /// Register-file slots used.
    pub regs: usize,
    /// Table IV category.
    pub category: Category,
}

/// Metadata for one on-chip link.
#[derive(Clone, Debug)]
pub struct LinkInfo {
    /// Channel id.
    pub id: u32,
    /// Live values carried (physical link count of the edge).
    pub arity: usize,
    /// Vector or scalar resources.
    pub class: LinkClass,
    /// Loop-nest depth.
    pub depth: u32,
}

/// A compiled program: the executable graph plus resource metadata.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The executable dataflow graph (memory instantiated).
    pub graph: Graph,
    /// Per-context resources.
    pub contexts: Vec<ContextInfo>,
    /// Per-link resources.
    pub links: Vec<LinkInfo>,
    /// The fully lowered MIR module.
    pub module: Module,
    /// Entry channel: push `Data([args…])` then `Ω1` and run.
    pub entry: ChanId,
    /// Final-output sink handle (main's return values, usually empty).
    pub sink: revet_machine::nodes::SinkHandle,
    /// Product of replicate ways (the "outer parallelism" knob).
    pub outer_parallelism: u32,
    /// The flattened execution plan: built once when the graph is
    /// finished, shared (like the topology index) by every
    /// [`crate::ProgramInstance`] of this compile.
    pub plan: Arc<ExecPlan>,
}

impl CompiledProgram {
    /// Runs the program to quiescence with the given `main` arguments,
    /// through the compiled execution plan (the fused fast path; falls
    /// back to boxed node stepping for non-lowered kinds). DRAM inputs
    /// should be written into `self.graph.mem.dram` first. This is the
    /// one-shot, unobserved convenience over [`Graph::run`]; for the other
    /// axes, [`CompiledProgram::inject_args`] and call `graph.run`
    /// directly, or run a [`crate::ProgramInstance`].
    ///
    /// # Errors
    ///
    /// Propagates machine protocol errors and deadlock diagnoses.
    pub fn run_untimed(
        &mut self,
        args: &[Word],
        max_rounds: u64,
    ) -> Result<revet_machine::ExecReport, revet_machine::MachineError> {
        self.inject_args(args);
        let (report, _) = self.graph.run(RunOptions {
            plan: Some(&*self.plan),
            ..RunOptions::new(max_rounds)
        })?;
        Ok(report)
    }

    /// Injects one `main` argument thread into the entry channel — the
    /// entry-token protocol every way of starting a program goes through
    /// (one-shot runs, streaming feeds, the simulator, test oracles).
    pub fn inject_args(&mut self, args: &[Word]) {
        inject_args(&mut self.graph, self.entry, args);
    }

    /// The number of contexts (Table IV's unit counts derive from this).
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Counts contexts of one unit class.
    pub fn units(&self, unit: UnitClass) -> usize {
        self.contexts.iter().filter(|c| c.unit == unit).count()
    }
}

/// Injects the `main` argument thread into a program graph's entry
/// channel: one data tuple closed by Ω1. The single definition of the
/// entry-token protocol, behind [`CompiledProgram::inject_args`] and
/// [`crate::ProgramInstance::inject_args`].
pub(crate) fn inject_args(graph: &mut Graph, entry: ChanId, args: &[Word]) {
    let chan = graph.chan_mut(entry);
    chan.push(revet_sltf::Tok::Data(args.to_vec()));
    chan.push(revet_sltf::Tok::Barrier(revet_sltf::BarrierLevel::L1));
}

/// The current position in the pipeline being built.
#[derive(Clone, Debug)]
struct Cur {
    chan: ChanId,
    vars: Vec<Value>,
}

/// How a lowered region ended.
enum Term {
    Yield,
    Exit,
    Return,
    Condition(Value, Vec<Value>),
}

pub(crate) struct DfLower<'m> {
    module: &'m mut Module,
    func: Func,
    layout: DramLayout,
    opts: PassOptions,
    g: Graph,
    infos: Vec<ContextInfo>,
    links: Vec<LinkInfo>,
    consts: HashMap<Value, Word>,
    depth: u32,
    in_replicate: u32,
    outer_par: u32,
    label_n: u32,
    foreach_bypass: Option<ChanId>,
}

/// Lowers `main` of a fully-lowered (physical-ops-only) module to a placed,
/// executable dataflow graph.
///
/// # Errors
///
/// Returns [`CoreError`] for unsupported shapes (multi-value foreach
/// reductions, high-level ops that escaped earlier passes).
pub fn lower_to_dataflow(
    module: &mut Module,
    layout: &DramLayout,
    opts: &PassOptions,
    dram_bytes: usize,
) -> Result<CompiledProgram, CoreError> {
    let func = module
        .func("main")
        .ok_or_else(|| CoreError::new("module has no main"))?
        .clone();
    let mut consts = HashMap::new();
    func.walk(&mut |op| {
        if let OpKind::ConstI(v, ty) = &op.kind {
            let w = match ty {
                Ty::I8 => Word((*v as u8) as u32),
                Ty::I16 => Word((*v as u16) as u32),
                _ => Word(*v as u32),
            };
            if let Some(r) = op.results.first() {
                consts.insert(*r, w);
            }
        }
    });
    let lw = DfLower {
        module,
        func,
        layout: layout.clone(),
        opts: opts.clone(),
        g: Graph::new(),
        infos: Vec::new(),
        links: Vec::new(),
        consts,
        depth: 0,
        in_replicate: 0,
        outer_par: 1,
        label_n: 0,
        foreach_bypass: None,
    };
    lw.build(dram_bytes)
}

impl DfLower<'_> {
    fn label(&mut self, base: &str) -> String {
        self.label_n += 1;
        format!("{base}{}", self.label_n)
    }

    fn chan(&mut self, arity: usize, class: LinkClass) -> ChanId {
        let id = self.g.add_chan(Channel::new(arity).with_class(class));
        self.links.push(LinkInfo {
            id: id.0,
            arity,
            class,
            depth: self.depth,
        });
        id
    }

    fn chan_raw(&mut self, arity: usize, class: LinkClass) -> ChanId {
        let id = self.g.add_chan(
            Channel::new(arity)
                .with_class(class)
                .without_canonicalization(),
        );
        self.links.push(LinkInfo {
            id: id.0,
            arity,
            class,
            depth: self.depth,
        });
        id
    }

    fn category(&self) -> Category {
        if self.in_replicate > 0 || self.depth >= 2 {
            Category::Inner
        } else {
            Category::Outer
        }
    }

    fn note_node(
        &mut self,
        id: revet_machine::NodeId,
        label: &str,
        kind: &'static str,
        unit: UnitClass,
        instrs: usize,
        regs: usize,
        category: Category,
    ) {
        self.g.set_node_meta(id, self.infos.len() as u32, unit);
        self.infos.push(ContextInfo {
            id: id.0,
            label: label.to_string(),
            kind,
            unit,
            depth: self.depth,
            instrs,
            regs,
            category,
        });
    }

    fn build(mut self, dram_bytes: usize) -> Result<CompiledProgram, CoreError> {
        let params = self.func.params.clone();
        let entry = self.chan(params.len(), LinkClass::Scalar);
        let cur = Cur {
            chan: entry,
            vars: params,
        };
        let body = self.func.body.clone();
        let (cur, term) = self.lower_ops(&body.ops, cur, &[])?;
        if !matches!(term, Term::Return | Term::Exit) {
            return Err(CoreError::new("main must end in return"));
        }
        let (sink, handle) = SinkNode::new();
        let id = self
            .g
            .add_node("main.sink", Box::new(sink), vec![cur.chan], vec![]);
        self.g.set_node_meta(id, u32::MAX, UnitClass::Virtual);
        self.g.mem = self.module.build_memory(dram_bytes);
        // The wiring is complete: build the channel-endpoint index both
        // executors use for ready-set scheduling, and flatten the graph
        // into the execution plan every instance of this compile shares.
        self.g.finalize_topology();
        let plan = Arc::new(ExecPlan::build(&self.g));
        Ok(CompiledProgram {
            graph: self.g,
            contexts: self.infos,
            links: self.links,
            module: self.module.clone(),
            entry,
            sink: handle,
            outer_parallelism: self.outer_par,
            plan,
        })
    }

    // ---------------- liveness ----------------

    /// Free values used by an op (including nested regions, minus their
    /// locally defined values).
    fn op_free_uses(op: &Op, out: &mut HashSet<Value>) {
        fn region_free(r: &Region, out: &mut HashSet<Value>) {
            let mut defined: HashSet<Value> = r.args.iter().copied().collect();
            for op in &r.ops {
                for u in op.kind.operands() {
                    if !defined.contains(&u) {
                        out.insert(u);
                    }
                }
                for sub in op.kind.regions() {
                    let mut inner = HashSet::new();
                    region_free(sub, &mut inner);
                    for u in inner {
                        if !defined.contains(&u) {
                            out.insert(u);
                        }
                    }
                }
                for r in &op.results {
                    defined.insert(*r);
                }
            }
        }
        for u in op.kind.operands() {
            out.insert(u);
        }
        for sub in op.kind.regions() {
            region_free(sub, out);
        }
    }

    /// `live_after[i]` = values live after op `i`, given the region's
    /// live-out set.
    fn liveness(ops: &[Op], live_out: &[Value]) -> Vec<HashSet<Value>> {
        let mut live: HashSet<Value> = live_out.iter().copied().collect();
        let mut after = vec![HashSet::new(); ops.len()];
        for i in (0..ops.len()).rev() {
            after[i] = live.clone();
            for r in &ops[i].results {
                live.remove(r);
            }
            Self::op_free_uses(&ops[i], &mut live);
        }
        after
    }

    /// Sorted, deduplicated, const-free tuple layout for a live set.
    fn tupleize(&self, set: &HashSet<Value>) -> Vec<Value> {
        let mut v: Vec<Value> = set
            .iter()
            .copied()
            .filter(|x| !self.consts.contains_key(x))
            .collect();
        v.sort_unstable();
        v
    }

    // ---------------- element-wise block emission ----------------

    /// Compiles a run of simple ops into a chain of element-wise contexts.
    /// `out_tuple` is the exact positional output layout (may repeat values
    /// and include constants, which are materialized).
    fn emit_block(
        &mut self,
        ops: &[&Op],
        input: Cur,
        out_tuple: &[Value],
        base_label: &str,
    ) -> Result<Cur, CoreError> {
        if ops.is_empty() && input.vars == out_tuple {
            return Ok(input);
        }
        // Virtual register allocation: inputs first.
        let mut operand: HashMap<Value, Operand> = HashMap::new();
        for (v, w) in &self.consts {
            operand.insert(*v, Operand::Const(*w));
        }
        let mut next_reg: Reg = 0;
        for v in &input.vars {
            operand.insert(*v, Operand::Reg(next_reg));
            next_reg += 1;
        }
        let mut items: Vec<(EwInstr, bool, UnitClass)> = Vec::new(); // (instr, is_memory, class)
        for op in ops {
            self.gen_instrs(op, &mut operand, &mut next_reg, &mut items)?;
        }
        // Materialize constant outputs.
        let mut out_regs: Vec<Reg> = Vec::with_capacity(out_tuple.len());
        for v in out_tuple {
            match operand.get(v) {
                Some(Operand::Reg(r)) => out_regs.push(*r),
                Some(Operand::Const(w)) => {
                    let r = next_reg;
                    next_reg += 1;
                    items.push((
                        EwInstr::Mov {
                            src: Operand::Const(*w),
                            dst: r,
                        },
                        false,
                        UnitClass::Compute,
                    ));
                    out_regs.push(r);
                }
                None => {
                    return Err(CoreError::new(format!(
                        "output value %{} not defined in block",
                        v.0
                    )))
                }
            }
        }
        // Segment: every memory instruction gets its own context (§V-D b);
        // compute runs are capped at 6 pipeline stages.
        let mut segments: Vec<(Vec<usize>, UnitClass)> = Vec::new();
        let mut cur_seg: Vec<usize> = Vec::new();
        for (i, (_, is_mem, class)) in items.iter().enumerate() {
            if *is_mem {
                if !cur_seg.is_empty() {
                    segments.push((std::mem::take(&mut cur_seg), UnitClass::Compute));
                }
                segments.push((vec![i], *class));
            } else {
                if cur_seg.len() >= 6 {
                    segments.push((std::mem::take(&mut cur_seg), UnitClass::Compute));
                }
                cur_seg.push(i);
            }
        }
        if !cur_seg.is_empty() {
            segments.push((cur_seg, UnitClass::Compute));
        }
        if segments.is_empty() {
            // Pure reorder/subset of the tuple.
            segments.push((Vec::new(), UnitClass::Compute));
        }
        // For each segment: determine live-in regs (reads of this and later
        // segments ∪ out_regs at the end), remap, build node.
        let n_seg = segments.len();
        let mut reads_after: Vec<HashSet<Reg>> = vec![HashSet::new(); n_seg + 1];
        for r in &out_regs {
            reads_after[n_seg].insert(*r);
        }
        for s in (0..n_seg).rev() {
            let mut set = reads_after[s + 1].clone();
            for &i in segments[s].0.iter().rev() {
                if let Some(w) = instr_write(&items[i].0) {
                    set.remove(&w);
                }
                for r in instr_reads(&items[i].0) {
                    set.insert(r);
                }
            }
            reads_after[s] = set;
        }
        let mut cur_chan = input.chan;
        let mut cur_layout: Vec<Reg> = (0..input.vars.len() as Reg).collect();
        for (s, (idxs, class)) in segments.iter().enumerate() {
            // Input mapping: old reg -> new reg.
            let mut remap: HashMap<Reg, Reg> = HashMap::new();
            for (pos, old) in cur_layout.iter().enumerate() {
                remap.entry(*old).or_insert(pos as Reg);
            }
            let mut local_next = cur_layout.len() as Reg;
            let mut instrs: Vec<EwInstr> = Vec::new();
            for &i in idxs {
                let mut ins = items[i].0.clone();
                remap_instr(&mut ins, &mut remap, &mut local_next);
                instrs.push(ins);
            }
            // Output layout: regs needed after this segment.
            let needed: Vec<Reg> = {
                let mut v: Vec<Reg> = reads_after[s + 1]
                    .iter()
                    .copied()
                    .filter(|r| remap.contains_key(r))
                    .collect();
                v.sort_unstable();
                v
            };
            let is_last = s + 1 == n_seg;
            let (out_slots, new_layout): (Vec<Reg>, Vec<Reg>) = if is_last {
                (
                    out_regs.iter().map(|r| remap[r]).collect(),
                    out_regs.clone(),
                )
            } else {
                (needed.iter().map(|r| remap[r]).collect(), needed.clone())
            };
            let arity = out_slots.len();
            let next_chan = self.chan(arity, LinkClass::Vector);
            let node = EwNode::new(
                cur_layout.len() as u16,
                instrs.clone(),
                vec![OutputSpec::plain(out_slots)],
            );
            let regs = node.reg_count() as usize;
            let label = self.label(base_label);
            let id = self
                .g
                .add_node(&label, Box::new(node), vec![cur_chan], vec![next_chan]);
            let cat = match class {
                UnitClass::Memory | UnitClass::AddressGen => self.category(),
                _ => self.category(),
            };
            self.note_node(id, &label, "ew", *class, instrs.len(), regs, cat);
            cur_chan = next_chan;
            cur_layout = new_layout;
        }
        Ok(Cur {
            chan: cur_chan,
            vars: out_tuple.to_vec(),
        })
    }

    /// Generates element-wise instructions for one simple MIR op.
    #[allow(clippy::too_many_lines)]
    fn gen_instrs(
        &mut self,
        op: &Op,
        operand: &mut HashMap<Value, Operand>,
        next_reg: &mut Reg,
        items: &mut Vec<(EwInstr, bool, UnitClass)>,
    ) -> Result<(), CoreError> {
        let get = |v: &Value, operand: &HashMap<Value, Operand>| -> Result<Operand, CoreError> {
            operand
                .get(v)
                .copied()
                .ok_or_else(|| CoreError::new(format!("value %{} unavailable in block", v.0)))
        };
        let mut alloc =
            |operand: &mut HashMap<Value, Operand>, v: Option<&Value>, next_reg: &mut Reg| -> Reg {
                let r = *next_reg;
                *next_reg += 1;
                if let Some(v) = v {
                    operand.insert(*v, Operand::Reg(r));
                }
                r
            };
        self.gen_instrs_inner(op, operand, next_reg, items, &get, &mut alloc, None)
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn gen_instrs_inner(
        &mut self,
        op: &Op,
        operand: &mut HashMap<Value, Operand>,
        next_reg: &mut Reg,
        items: &mut Vec<(EwInstr, bool, UnitClass)>,
        get: &dyn Fn(&Value, &HashMap<Value, Operand>) -> Result<Operand, CoreError>,
        alloc: &mut dyn FnMut(&mut HashMap<Value, Operand>, Option<&Value>, &mut Reg) -> Reg,
        pred: Option<Pred>,
    ) -> Result<(), CoreError> {
        match &op.kind {
            OpKind::ConstI(..) => {} // handled by the const map
            OpKind::Bin(aop, a, b) => {
                let a = get(a, operand)?;
                let b = get(b, operand)?;
                let dst = alloc(operand, op.results.first(), next_reg);
                items.push((
                    EwInstr::Alu {
                        op: *aop,
                        a,
                        b,
                        dst,
                    },
                    false,
                    UnitClass::Compute,
                ));
            }
            OpKind::Select(c, t, f) => {
                let c = get(c, operand)?;
                let t = get(t, operand)?;
                let f = get(f, operand)?;
                let dst = alloc(operand, op.results.first(), next_reg);
                items.push((EwInstr::Select { c, t, f, dst }, false, UnitClass::Compute));
            }
            OpKind::Cast { v, to, signed } => {
                let src = get(v, operand)?;
                let dst = alloc(operand, op.results.first(), next_reg);
                match (to, signed) {
                    (Ty::I8, false) => items.push((
                        EwInstr::Alu {
                            op: AluOp::And,
                            a: src,
                            b: Operand::Const(Word(0xFF)),
                            dst,
                        },
                        false,
                        UnitClass::Compute,
                    )),
                    (Ty::I16, false) => items.push((
                        EwInstr::Alu {
                            op: AluOp::And,
                            a: src,
                            b: Operand::Const(Word(0xFFFF)),
                            dst,
                        },
                        false,
                        UnitClass::Compute,
                    )),
                    (Ty::I8, true) | (Ty::I16, true) => {
                        let sh = if *to == Ty::I8 { 24 } else { 16 };
                        items.push((
                            EwInstr::Alu {
                                op: AluOp::Shl,
                                a: src,
                                b: Operand::Const(Word(sh)),
                                dst,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                        items.push((
                            EwInstr::Alu {
                                op: AluOp::ShrS,
                                a: Operand::Reg(dst),
                                b: Operand::Const(Word(sh)),
                                dst,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                    }
                    _ => items.push((EwInstr::Mov { src, dst }, false, UnitClass::Compute)),
                }
            }
            OpKind::SramRead { sram, addr } => {
                let addr = get(addr, operand)?;
                let dst = alloc(operand, op.results.first(), next_reg);
                items.push((
                    EwInstr::SramRead {
                        region: *sram,
                        addr,
                        dst,
                        pred,
                    },
                    true,
                    UnitClass::Memory,
                ));
            }
            OpKind::SramWrite { sram, addr, val } => {
                let addr = get(addr, operand)?;
                let val = get(val, operand)?;
                items.push((
                    EwInstr::SramWrite {
                        region: *sram,
                        addr,
                        val,
                        pred,
                    },
                    true,
                    UnitClass::Memory,
                ));
            }
            OpKind::SramDecFetch { sram, addr } => {
                let addr = get(addr, operand)?;
                let dst = alloc(operand, op.results.first(), next_reg);
                items.push((
                    EwInstr::SramDecFetch {
                        region: *sram,
                        addr,
                        dst,
                        pred,
                    },
                    true,
                    UnitClass::Memory,
                ));
            }
            OpKind::DramRead { dram, idx } => {
                let decl = &self.module.drams[dram.0 as usize];
                let eb = decl.elem_bytes;
                let base = self.layout.base[dram.0 as usize];
                let idx = get(idx, operand)?;
                let addr = *next_reg;
                *next_reg += 1;
                items.push((
                    EwInstr::Alu {
                        op: AluOp::Mul,
                        a: idx,
                        b: Operand::Const(Word(eb)),
                        dst: addr,
                    },
                    false,
                    UnitClass::Compute,
                ));
                items.push((
                    EwInstr::Alu {
                        op: AluOp::Add,
                        a: Operand::Reg(addr),
                        b: Operand::Const(Word(base)),
                        dst: addr,
                    },
                    false,
                    UnitClass::Compute,
                ));
                let dst = alloc(operand, op.results.first(), next_reg);
                match eb {
                    1 => items.push((
                        EwInstr::DramReadB {
                            addr: Operand::Reg(addr),
                            dst,
                            pred,
                        },
                        true,
                        UnitClass::AddressGen,
                    )),
                    2 => {
                        items.push((
                            EwInstr::DramReadW {
                                addr: Operand::Reg(addr),
                                dst,
                                pred,
                            },
                            true,
                            UnitClass::AddressGen,
                        ));
                        items.push((
                            EwInstr::Alu {
                                op: AluOp::And,
                                a: Operand::Reg(dst),
                                b: Operand::Const(Word(0xFFFF)),
                                dst,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                    }
                    _ => items.push((
                        EwInstr::DramReadW {
                            addr: Operand::Reg(addr),
                            dst,
                            pred,
                        },
                        true,
                        UnitClass::AddressGen,
                    )),
                }
            }
            OpKind::DramWrite { dram, idx, val } => {
                let decl = &self.module.drams[dram.0 as usize];
                let eb = decl.elem_bytes;
                let base = self.layout.base[dram.0 as usize];
                let idx = get(idx, operand)?;
                let val = get(val, operand)?;
                let addr = *next_reg;
                *next_reg += 1;
                items.push((
                    EwInstr::Alu {
                        op: AluOp::Mul,
                        a: idx,
                        b: Operand::Const(Word(eb)),
                        dst: addr,
                    },
                    false,
                    UnitClass::Compute,
                ));
                items.push((
                    EwInstr::Alu {
                        op: AluOp::Add,
                        a: Operand::Reg(addr),
                        b: Operand::Const(Word(base)),
                        dst: addr,
                    },
                    false,
                    UnitClass::Compute,
                ));
                match eb {
                    1 => items.push((
                        EwInstr::DramWriteB {
                            addr: Operand::Reg(addr),
                            val,
                            pred,
                        },
                        true,
                        UnitClass::AddressGen,
                    )),
                    2 => {
                        let hi = *next_reg;
                        *next_reg += 1;
                        items.push((
                            EwInstr::DramWriteB {
                                addr: Operand::Reg(addr),
                                val,
                                pred,
                            },
                            true,
                            UnitClass::AddressGen,
                        ));
                        items.push((
                            EwInstr::Alu {
                                op: AluOp::ShrU,
                                a: val,
                                b: Operand::Const(Word(8)),
                                dst: hi,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                        items.push((
                            EwInstr::Alu {
                                op: AluOp::Add,
                                a: Operand::Reg(addr),
                                b: Operand::Const(Word(1)),
                                dst: addr,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                        items.push((
                            EwInstr::DramWriteB {
                                addr: Operand::Reg(addr),
                                val: Operand::Reg(hi),
                                pred,
                            },
                            true,
                            UnitClass::AddressGen,
                        ));
                    }
                    _ => items.push((
                        EwInstr::DramWriteW {
                            addr: Operand::Reg(addr),
                            val,
                            pred,
                        },
                        true,
                        UnitClass::AddressGen,
                    )),
                }
            }
            OpKind::AllocPop { alloc: a } => {
                let dst = alloc(operand, op.results.first(), next_reg);
                items.push((
                    EwInstr::AllocPop { alloc: *a, dst },
                    true,
                    UnitClass::Memory,
                ));
            }
            OpKind::AllocPush { alloc: a, ptr } => {
                let src = get(ptr, operand)?;
                items.push((
                    EwInstr::AllocPush {
                        alloc: *a,
                        src,
                        pred,
                    },
                    true,
                    UnitClass::Memory,
                ));
            }
            OpKind::Predicated {
                pred: p,
                expect,
                inner,
            } => {
                // Combine with any enclosing predicate via an AND.
                let pv = get(p, operand)?;
                let truth = *next_reg;
                *next_reg += 1;
                items.push((
                    EwInstr::Alu {
                        op: if *expect { AluOp::Ne } else { AluOp::Eq },
                        a: pv,
                        b: Operand::Const(Word(0)),
                        dst: truth,
                    },
                    false,
                    UnitClass::Compute,
                ));
                let combined = match pred {
                    Some(outer) => {
                        let c = *next_reg;
                        *next_reg += 1;
                        // outer.holds == (reg!=0)==expect; normalize first.
                        let norm = *next_reg;
                        *next_reg += 1;
                        items.push((
                            EwInstr::Alu {
                                op: if outer.expect { AluOp::Ne } else { AluOp::Eq },
                                a: Operand::Reg(outer.reg),
                                b: Operand::Const(Word(0)),
                                dst: norm,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                        items.push((
                            EwInstr::Alu {
                                op: AluOp::And,
                                a: Operand::Reg(truth),
                                b: Operand::Reg(norm),
                                dst: c,
                            },
                            false,
                            UnitClass::Compute,
                        ));
                        Pred {
                            reg: c,
                            expect: true,
                        }
                    }
                    None => Pred {
                        reg: truth,
                        expect: true,
                    },
                };
                let inner_op = Op {
                    kind: (**inner).clone(),
                    results: op.results.clone(),
                };
                self.gen_instrs_inner(
                    &inner_op,
                    operand,
                    next_reg,
                    items,
                    get,
                    alloc,
                    Some(combined),
                )?;
            }
            other => {
                return Err(CoreError::new(format!(
                    "op not lowerable to element-wise form: {other:?}"
                )))
            }
        }
        Ok(())
    }

    // ---------------- region lowering ----------------

    /// True for ops compiled into element-wise blocks.
    fn is_simple(kind: &OpKind) -> bool {
        matches!(
            kind,
            OpKind::ConstI(..)
                | OpKind::Bin(..)
                | OpKind::Select(..)
                | OpKind::Cast { .. }
                | OpKind::SramRead { .. }
                | OpKind::SramWrite { .. }
                | OpKind::SramDecFetch { .. }
                | OpKind::DramRead { .. }
                | OpKind::DramWrite { .. }
                | OpKind::AllocPop { .. }
                | OpKind::AllocPush { .. }
                | OpKind::Predicated { .. }
        )
    }

    /// Lowers an op sequence. Returns the final cursor and terminator kind.
    /// After a `Yield`/`Condition` terminator, the cursor's tuple is the
    /// exact yielded/forwarded layout (plus any `extra` passthrough values
    /// appended by the caller's contract).
    #[allow(clippy::too_many_lines)]
    fn lower_ops(
        &mut self,
        ops: &[Op],
        mut cur: Cur,
        live_out: &[Value],
    ) -> Result<(Cur, Term), CoreError> {
        let live_after = Self::liveness(ops, live_out);
        let mut pending: Vec<&Op> = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            let op = &ops[i];
            match &op.kind {
                k if Self::is_simple(k) => pending.push(op),
                OpKind::Yield(vs) => {
                    // Exact positional layout: [yields ++ passthrough]. No
                    // dedup — merges and backedges need fixed arity.
                    let mut tuple = vs.clone();
                    tuple.extend_from_slice(live_out);
                    let taken = std::mem::take(&mut pending);
                    cur = self.emit_block(&taken, cur, &tuple, "blk")?;
                    return Ok((cur, Term::Yield));
                }
                OpKind::Return(vs) => {
                    let taken = std::mem::take(&mut pending);
                    cur = self.emit_block(&taken, cur, &dedup(vs.clone()), "ret")?;
                    return Ok((cur, Term::Return));
                }
                OpKind::Exit => {
                    // Emit pending work (side effects), then drop all data.
                    let taken = std::mem::take(&mut pending);
                    cur = self.emit_block(&taken, cur, &[], "exit_fx")?;
                    return Ok((cur, Term::Exit));
                }
                OpKind::Condition { cond, fwd } => {
                    let mut tuple = vec![*cond];
                    tuple.extend(fwd.iter().copied());
                    tuple.extend_from_slice(live_out);
                    let taken = std::mem::take(&mut pending);
                    cur = self.emit_block(&taken, cur, &tuple, "cond")?;
                    return Ok((cur, Term::Condition(*cond, fwd.clone())));
                }
                OpKind::If { cond, then, else_ } => {
                    let after = self.tupleize(&live_after[i]);
                    cur = self.lower_if(op, *cond, then, else_, cur, &after, &mut pending)?;
                }
                OpKind::While {
                    inits,
                    before,
                    after,
                } => {
                    let live = self.tupleize(&live_after[i]);
                    cur = self.lower_while(op, inits, before, after, cur, &live, &mut pending)?;
                }
                OpKind::Foreach {
                    lo,
                    hi,
                    step,
                    body,
                    reduce,
                    ..
                } => {
                    let live = self.tupleize(&live_after[i]);
                    cur = self.lower_foreach(
                        op,
                        *lo,
                        *hi,
                        *step,
                        body,
                        reduce,
                        cur,
                        &live,
                        &mut pending,
                    )?;
                }
                OpKind::Fork { count, body } => {
                    let live = self.tupleize(&live_after[i]);
                    cur = self.lower_fork(op, *count, body, cur, &live, &mut pending)?;
                }
                OpKind::Replicate { ways, body } => {
                    let live = self.tupleize(&live_after[i]);
                    cur = self.lower_replicate(op, *ways, body, cur, &live, &mut pending)?;
                }
                other => {
                    return Err(CoreError::new(format!(
                        "unexpected op in dataflow lowering: {other:?} (missing pass?)"
                    )))
                }
            }
            i += 1;
        }
        let taken = std::mem::take(&mut pending);
        let out = dedup(live_out.to_vec());
        cur = self.emit_block(&taken, cur, &out, "tail")?;
        Ok((cur, Term::Yield))
    }

    /// Filter → two branch pipelines → forward merge.
    #[allow(clippy::too_many_arguments)]
    fn lower_if(
        &mut self,
        op: &Op,
        cond: Value,
        then: &Region,
        else_: &Region,
        cur: Cur,
        live_after: &[Value],
        pending: &mut Vec<&Op>,
    ) -> Result<Cur, CoreError> {
        // Passthrough: values needed after the if that are not its results.
        let passthrough: Vec<Value> = live_after
            .iter()
            .copied()
            .filter(|v| !op.results.contains(v))
            .collect();
        // Branch live-ins.
        let mut branch_in: HashSet<Value> = HashSet::new();
        Self::op_free_uses(op, &mut branch_in);
        let mut in_tuple = self.tupleize(&branch_in);
        for v in &passthrough {
            if !in_tuple.contains(v) {
                in_tuple.push(*v);
            }
        }
        if !in_tuple.contains(&cond) && !self.consts.contains_key(&cond) {
            in_tuple.push(cond);
        }
        let taken = std::mem::take(pending);
        let cur = self.emit_block(&taken, cur, &in_tuple, "if_in")?;
        // Filter node: predicated outputs on cond.
        let cpos = in_tuple.iter().position(|v| *v == cond);
        let (filter_instrs, cond_reg): (Vec<EwInstr>, Reg) = match cpos {
            Some(p) => (vec![], p as Reg),
            None => {
                // Constant condition: materialize.
                let w = self.consts[&cond];
                let r = in_tuple.len() as Reg;
                (
                    vec![EwInstr::Mov {
                        src: Operand::Const(w),
                        dst: r,
                    }],
                    r,
                )
            }
        };
        let slots: Vec<Reg> = (0..in_tuple.len() as Reg).collect();
        let then_chan = self.chan(in_tuple.len(), LinkClass::Vector);
        let else_chan = self.chan(in_tuple.len(), LinkClass::Scalar);
        let node = EwNode::new(
            in_tuple.len() as u16,
            filter_instrs,
            vec![
                OutputSpec::filtered(slots.clone(), cond_reg, true),
                OutputSpec::filtered(slots, cond_reg, false),
            ],
        );
        let regs = node.reg_count() as usize;
        let label = self.label("if.filter");
        let id = self.g.add_node(
            &label,
            Box::new(node),
            vec![cur.chan],
            vec![then_chan, else_chan],
        );
        self.note_node(
            id,
            &label,
            "filter",
            UnitClass::Compute,
            0,
            regs,
            self.category(),
        );
        // Branch tuples: results-positional + passthrough.
        let mut out_arity = op.results.len() + passthrough.len();
        let lower_branch =
            |lw: &mut Self, region: &Region, chan: ChanId| -> Result<Cur, CoreError> {
                let cur = Cur {
                    chan,
                    vars: in_tuple.clone(),
                };
                let (bcur, term) = lw.lower_ops(&region.ops, cur, &passthrough)?;
                match term {
                    Term::Yield => Ok(bcur),
                    Term::Exit => {
                        // Barrier-only output with the merge arity.
                        let arity = op.results.len() + passthrough.len();
                        let out = lw.chan(arity, LinkClass::Scalar);
                        let node = EwNode::new(
                            bcur.vars.len().max(1) as u16,
                            vec![],
                            vec![OutputSpec {
                                slots: vec![0; arity],
                                pred: Some((0, true)),
                                strip_barriers: false,
                            }],
                        );
                        // An arity-0 tuple has no reg 0; use a const-false pred
                        // via a Mov instr instead.
                        let node = if bcur.vars.is_empty() {
                            EwNode::new(
                                1,
                                vec![EwInstr::Mov {
                                    src: Operand::Const(Word(0)),
                                    dst: 0,
                                }],
                                vec![OutputSpec {
                                    slots: vec![0; arity],
                                    pred: Some((0, true)),
                                    strip_barriers: false,
                                }],
                            )
                        } else {
                            let _ = node;
                            EwNode::new(
                                bcur.vars.len() as u16,
                                vec![EwInstr::Mov {
                                    src: Operand::Const(Word(0)),
                                    dst: bcur.vars.len() as Reg,
                                }],
                                vec![OutputSpec {
                                    slots: vec![0; arity],
                                    pred: Some((bcur.vars.len() as Reg, true)),
                                    strip_barriers: false,
                                }],
                            )
                        };
                        let label = lw.label("exit.drop");
                        let id =
                            lw.g.add_node(&label, Box::new(node), vec![bcur.chan], vec![out]);
                        lw.note_node(
                            id,
                            &label,
                            "filter",
                            UnitClass::Compute,
                            1,
                            1,
                            lw.category(),
                        );
                        Ok(Cur {
                            chan: out,
                            vars: vec![],
                        })
                    }
                    _ => Err(CoreError::new("if branch must end in yield or exit")),
                }
            };
        let then_cur = lower_branch(self, then, then_chan)?;
        let else_cur = lower_branch(self, else_, else_chan)?;
        if !then_cur.vars.is_empty() {
            out_arity = then_cur.vars.len();
        } else if !else_cur.vars.is_empty() {
            out_arity = else_cur.vars.len();
        }
        let merged = self.chan(out_arity, LinkClass::Vector);
        let label = self.label("if.merge");
        let id = self.g.add_node(
            &label,
            Box::new(FwdMergeNode::new()),
            vec![then_cur.chan, else_cur.chan],
            vec![merged],
        );
        self.note_node(
            id,
            &label,
            "fwd-merge",
            UnitClass::Compute,
            0,
            0,
            self.category(),
        );
        let mut vars = op.results.clone();
        vars.extend(passthrough);
        Ok(Cur { chan: merged, vars })
    }

    /// fb-merge header → condition filter → body/backedge → flatten exit.
    #[allow(clippy::too_many_arguments)]
    fn lower_while(
        &mut self,
        op: &Op,
        inits: &[Value],
        before: &Region,
        after: &Region,
        cur: Cur,
        live_after: &[Value],
        pending: &mut Vec<&Op>,
    ) -> Result<Cur, CoreError> {
        let passthrough: Vec<Value> = live_after
            .iter()
            .copied()
            .filter(|v| !op.results.contains(v))
            .collect();
        // Loop-invariant captures must also ride the tuple (no cross-wave
        // broadcast inside a recirculating region).
        let mut free: HashSet<Value> = HashSet::new();
        Self::op_free_uses(op, &mut free);
        // An init value normally rides only the carried slot (renamed to the
        // region arg at the body head). But if a region also references the
        // value directly — e.g. through a pre-loop alias of a reassigned
        // variable — that reference means "the value from before the loop"
        // on every iteration, so it additionally needs an invariant slot.
        let mut invariant: Vec<Value> = self
            .tupleize(&free)
            .into_iter()
            .filter(|v| !inits.contains(v) || body_uses(before, *v) || body_uses(after, *v))
            .collect();
        invariant.retain(|v| !passthrough.contains(v));
        // Loop tuple: [carried (as before.args) ++ invariant ++ passthrough].
        let carried_args = before.args.clone();
        let mut fwd_tuple: Vec<Value> = inits.to_vec();
        fwd_tuple.extend(invariant.iter().copied());
        fwd_tuple.extend(passthrough.iter().copied());
        let taken = std::mem::take(pending);
        let cur = self.emit_block(&taken, cur, &fwd_tuple, "loop_in")?;
        let mut loop_tuple: Vec<Value> = carried_args.clone();
        loop_tuple.extend(invariant.iter().copied());
        loop_tuple.extend(passthrough.iter().copied());
        // Sub-word packing (§V-B d) applies to the recirculating tuple.
        let (phys_tuple, packing) = if self.opts.pack_subwords {
            self.pack_layout(&loop_tuple)
        } else {
            (loop_tuple.clone(), None)
        };
        let arity = phys_tuple.len();
        // Optional pack node on the forward edge.
        let fwd_cur = if let Some(pack) = &packing {
            self.emit_pack(cur, &fwd_tuple, pack, true)?
        } else {
            cur
        };
        let body_chan = self.chan(arity, LinkClass::Vector);
        let back_chan = self.chan_raw(arity, LinkClass::Vector);
        let label = self.label("while.head");
        let id = self.g.add_node(
            &label,
            Box::new(FbMergeNode::new()),
            vec![fwd_cur.chan, back_chan],
            vec![body_chan],
        );
        self.note_node(
            id,
            &label,
            "fb-merge",
            UnitClass::Compute,
            0,
            0,
            self.category(),
        );
        // One deadlock-avoidance buffer MU per recirculating region.
        self.add_buffer_mu(Category::Deadlock, "while.buf");
        self.depth += 1;
        // Unpack at the body head if packed.
        let head_cur = if let Some(pack) = &packing {
            self.emit_unpack(
                Cur {
                    chan: body_chan,
                    vars: phys_tuple.clone(),
                },
                &loop_tuple,
                pack,
            )?
        } else {
            Cur {
                chan: body_chan,
                vars: loop_tuple.clone(),
            }
        };
        // Lower `before` (condition) with everything else passing through.
        let mut before_extra: Vec<Value> = invariant.clone();
        before_extra.extend(passthrough.iter().copied());
        let (cond_cur, term) = self.lower_ops(&before.ops, head_cur, &before_extra)?;
        let Term::Condition(cond, fwd_vals) = term else {
            return Err(CoreError::new("while before-region must end in condition"));
        };
        // cond_cur tuple: [cond, fwd..., invariant..., passthrough...].
        let cpos = cond_cur
            .vars
            .iter()
            .position(|v| *v == cond)
            .ok_or_else(|| CoreError::new("condition value missing from tuple"))?;
        // Body-side tuple: after.args get fwd values; exit side gets fwd too.
        let body_in_tuple: Vec<Value> = {
            let mut t: Vec<Value> = fwd_vals.clone();
            t.extend(invariant.iter().copied());
            t.extend(passthrough.iter().copied());
            t
        };
        let slots: Vec<Reg> = body_in_tuple
            .iter()
            .map(|v| {
                cond_cur
                    .vars
                    .iter()
                    .position(|x| x == v)
                    .map(|p| p as Reg)
                    .ok_or_else(|| CoreError::new(format!("loop value %{} missing", v.0)))
            })
            .collect::<Result<_, _>>()?;
        let body_path = self.chan(body_in_tuple.len(), LinkClass::Vector);
        let exit_path = self.chan(body_in_tuple.len(), LinkClass::Scalar);
        let node = EwNode::new(
            cond_cur.vars.len() as u16,
            vec![],
            vec![
                OutputSpec::filtered(slots.clone(), cpos as Reg, true),
                OutputSpec::filtered(slots, cpos as Reg, false),
            ],
        );
        let regs = node.reg_count() as usize;
        let label = self.label("while.filter");
        let id = self.g.add_node(
            &label,
            Box::new(node),
            vec![cond_cur.chan],
            vec![body_path, exit_path],
        );
        self.note_node(
            id,
            &label,
            "filter",
            UnitClass::Compute,
            0,
            regs,
            self.category(),
        );
        // Body: after.args bound positionally to fwd values.
        let mut body_vars: Vec<Value> = after.args.clone();
        body_vars.extend(invariant.iter().copied());
        body_vars.extend(passthrough.iter().copied());
        // The body channel carries fwd-val layout; rebind names.
        let body_cur = Cur {
            chan: body_path,
            vars: body_vars.clone(),
        };
        let mut body_extra = invariant.clone();
        body_extra.extend(passthrough.iter().copied());
        let (body_out, bterm) = self.lower_ops(&after.ops, body_cur, &body_extra)?;
        // Backedge: yielded next-carried ++ invariant ++ passthrough (packed).
        match bterm {
            Term::Yield => {
                let back_cur = if let Some(pack) = &packing {
                    let logical = body_out.vars.clone();
                    self.emit_pack(body_out, &logical, pack, false)?
                } else {
                    body_out
                };
                // Wire to the backedge channel via an identity hop (the
                // channel already exists; reuse by adding a forwarding node).
                let label = self.label("while.back");
                let node = EwNode::passthrough(arity as u16);
                let id =
                    self.g
                        .add_node(&label, Box::new(node), vec![back_cur.chan], vec![back_chan]);
                self.note_node(
                    id,
                    &label,
                    "ew",
                    UnitClass::Compute,
                    0,
                    arity,
                    self.category(),
                );
            }
            Term::Exit => {
                // All threads exit: the backedge still needs barriers.
                let label = self.label("while.back.drop");
                let node = EwNode::new(
                    1,
                    vec![EwInstr::Mov {
                        src: Operand::Const(Word(0)),
                        dst: 0,
                    }],
                    vec![OutputSpec {
                        slots: vec![0; arity],
                        pred: Some((0, true)),
                        strip_barriers: false,
                    }],
                );
                let id =
                    self.g
                        .add_node(&label, Box::new(node), vec![body_out.chan], vec![back_chan]);
                self.note_node(
                    id,
                    &label,
                    "filter",
                    UnitClass::Compute,
                    1,
                    1,
                    self.category(),
                );
            }
            _ => return Err(CoreError::new("while body must end in yield or exit")),
        }
        self.depth -= 1;
        // Exit edge: strip one barrier level.
        let exit_tuple: Vec<Value> = {
            let mut t: Vec<Value> = op.results.to_vec();
            t.extend(passthrough.iter().copied());
            t
        };
        let stripped = self.chan(body_in_tuple.len(), LinkClass::Scalar);
        let label = self.label("while.exit");
        let id = self.g.add_node(
            &label,
            Box::new(FlattenNode::new()),
            vec![exit_path],
            vec![stripped],
        );
        self.note_node(
            id,
            &label,
            "flatten",
            UnitClass::Compute,
            0,
            0,
            self.category(),
        );
        // Reorder [fwd, invariant, passthrough] → [results, passthrough].
        let exit_in_vars: Vec<Value> = {
            // Rename fwd positions to result values.
            let mut t: Vec<Value> = op.results.to_vec();
            t.extend(invariant.iter().copied());
            t.extend(passthrough.iter().copied());
            t
        };
        let cur = Cur {
            chan: stripped,
            vars: exit_in_vars,
        };
        self.emit_block(&[], cur, &exit_tuple, "while_out")
    }

    /// Counter (+ broadcast) → body → reduce → zip rejoin.
    #[allow(clippy::too_many_arguments)]
    fn lower_foreach(
        &mut self,
        op: &Op,
        lo: Value,
        hi: Value,
        step: Value,
        body: &Region,
        reduce: &[AluOp],
        cur: Cur,
        live_after: &[Value],
        pending: &mut Vec<&Op>,
    ) -> Result<Cur, CoreError> {
        if reduce.len() > 1 {
            return Err(CoreError::new(
                "foreach with more than one reduction is not supported",
            ));
        }
        let passthrough: Vec<Value> = live_after
            .iter()
            .copied()
            .filter(|v| !op.results.contains(v))
            .collect();
        let index = body.args[0];
        let mut free: HashSet<Value> = HashSet::new();
        Self::op_free_uses(op, &mut free);
        free.remove(&index);
        let body_live_in: Vec<Value> = self
            .tupleize(&free)
            .into_iter()
            .filter(|v| ![lo, hi, step].contains(v) || body_uses(body, *v))
            .collect();
        // Parent tuple entering the counter: bounds + live-ins + passthrough.
        let mut in_tuple: Vec<Value> = Vec::new();
        for v in [lo, hi, step] {
            if !self.consts.contains_key(&v) && !in_tuple.contains(&v) {
                in_tuple.push(v);
            }
        }
        for v in body_live_in.iter().chain(passthrough.iter()) {
            if !in_tuple.contains(v) {
                in_tuple.push(*v);
            }
        }
        let taken = std::mem::take(pending);
        let cur = self.emit_block(&taken, cur, &in_tuple, "fe_in")?;
        let operand_of = |v: Value, tuple: &[Value], consts: &HashMap<Value, Word>| -> Operand {
            match consts.get(&v) {
                Some(w) => Operand::Const(*w),
                None => Operand::Reg(tuple.iter().position(|x| *x == v).expect("in tuple") as Reg),
            }
        };
        let min = operand_of(lo, &in_tuple, &self.consts);
        let max = operand_of(hi, &in_tuple, &self.consts);
        let stp = operand_of(step, &in_tuple, &self.consts);
        let child = self.chan(1, LinkClass::Vector);
        let parent = self.chan(in_tuple.len(), LinkClass::Vector);
        let label = self.label("foreach.counter");
        let id = self.g.add_node(
            &label,
            Box::new(CounterNode::new(min, max, stp)),
            vec![cur.chan],
            vec![child, parent],
        );
        self.note_node(
            id,
            &label,
            "counter",
            UnitClass::Compute,
            0,
            in_tuple.len(),
            self.category(),
        );
        self.depth += 1;
        // Broadcast live-ins onto children (scalar parent link), if any.
        let body_cur = if body_live_in.is_empty() {
            Cur {
                chan: child,
                vars: vec![index],
            }
        } else {
            // Split parent into a data-only broadcast feed and the bypass.
            let bcast_feed = self.chan(body_live_in.len(), LinkClass::Scalar);
            let bypass = self.chan(in_tuple.len(), LinkClass::Vector);
            let feed_slots: Vec<Reg> = body_live_in
                .iter()
                .map(|v| in_tuple.iter().position(|x| x == v).expect("live-in") as Reg)
                .collect();
            let all_slots: Vec<Reg> = (0..in_tuple.len() as Reg).collect();
            let node = EwNode::new(
                in_tuple.len() as u16,
                vec![],
                vec![
                    OutputSpec::stripped(feed_slots),
                    OutputSpec::plain(all_slots),
                ],
            );
            let label = self.label("foreach.split");
            let id = self.g.add_node(
                &label,
                Box::new(node),
                vec![parent],
                vec![bcast_feed, bypass],
            );
            self.note_node(
                id,
                &label,
                "ew",
                UnitClass::Compute,
                0,
                in_tuple.len(),
                self.category(),
            );
            let joined = self.chan(1 + body_live_in.len(), LinkClass::Vector);
            let label = self.label("foreach.bcast");
            let id = self.g.add_node(
                &label,
                Box::new(BroadcastNode::new(1)),
                vec![bcast_feed, child],
                vec![joined],
            );
            self.note_node(
                id,
                &label,
                "broadcast",
                UnitClass::Compute,
                0,
                0,
                self.category(),
            );
            let mut vars = vec![index];
            vars.extend(body_live_in.iter().copied());
            // Re-route the bypass as the new parent for the rejoin below.
            self.foreach_bypass = Some(bypass);
            Cur { chan: joined, vars }
        };
        let bypass_chan = self.foreach_bypass.take().unwrap_or(parent);
        let (body_out, bterm) = self.lower_ops(&body.ops, body_cur, &[])?;
        // Reduce the yields (void reduce when none) back to parent level.
        let reduced_arity = if reduce.is_empty() { 0 } else { 1 };
        let reduced = self.chan(reduced_arity, LinkClass::Vector);
        let node: Box<dyn revet_machine::Node> = match reduce.first() {
            Some(opk) => Box::new(ReduceNode::new(*opk, opk.reduction_identity())),
            None => Box::new(ReduceNode::void()),
        };
        match bterm {
            Term::Yield => {
                let label = self.label("foreach.reduce");
                let id = self
                    .g
                    .add_node(&label, node, vec![body_out.chan], vec![reduced]);
                self.note_node(
                    id,
                    &label,
                    "reduce",
                    UnitClass::Compute,
                    0,
                    1,
                    self.category(),
                );
            }
            Term::Exit => {
                // All iterations exit: reduce still sees barriers.
                let label = self.label("foreach.reduce");
                let id = self
                    .g
                    .add_node(&label, node, vec![body_out.chan], vec![reduced]);
                self.note_node(
                    id,
                    &label,
                    "reduce",
                    UnitClass::Compute,
                    0,
                    1,
                    self.category(),
                );
            }
            _ => return Err(CoreError::new("foreach body must end in yield or exit")),
        }
        self.depth -= 1;
        // Zip the reduced results with the parent bypass.
        let mut zip_vars: Vec<Value> = op.results.to_vec();
        zip_vars.extend(in_tuple.iter().copied());
        let zipped = self.chan(zip_vars.len(), LinkClass::Vector);
        let node = EwNode::passthrough(zip_vars.len() as u16);
        let label = self.label("foreach.join");
        let id = self.g.add_node(
            &label,
            Box::new(node),
            vec![reduced, bypass_chan],
            vec![zipped],
        );
        self.note_node(
            id,
            &label,
            "ew",
            UnitClass::Compute,
            0,
            zip_vars.len(),
            self.category(),
        );
        // Final tuple: results ++ passthrough.
        let mut out_tuple: Vec<Value> = op.results.to_vec();
        out_tuple.extend(passthrough.iter().copied());
        self.emit_block(
            &[],
            Cur {
                chan: zipped,
                vars: zip_vars,
            },
            &out_tuple,
            "fe_out",
        )
    }

    /// Fork: duplicate live values per spawn (no hierarchy).
    #[allow(clippy::too_many_arguments)]
    fn lower_fork(
        &mut self,
        op: &Op,
        count: Value,
        body: &Region,
        cur: Cur,
        live_after: &[Value],
        pending: &mut Vec<&Op>,
    ) -> Result<Cur, CoreError> {
        let passthrough: Vec<Value> = live_after
            .iter()
            .copied()
            .filter(|v| !op.results.contains(v))
            .collect();
        let index = body.args[0];
        let mut free: HashSet<Value> = HashSet::new();
        Self::op_free_uses(op, &mut free);
        free.remove(&index);
        let mut in_tuple: Vec<Value> = self.tupleize(&free);
        for v in &passthrough {
            if !in_tuple.contains(v) {
                in_tuple.push(*v);
            }
        }
        let taken = std::mem::take(pending);
        let cur = self.emit_block(&taken, cur, &in_tuple, "fork_in")?;
        let count_op = match self.consts.get(&count) {
            Some(w) => Operand::Const(*w),
            None => Operand::Reg(
                in_tuple
                    .iter()
                    .position(|v| *v == count)
                    .ok_or_else(|| CoreError::new("fork count missing from tuple"))?
                    as Reg,
            ),
        };
        let spawned = self.chan(in_tuple.len() + 1, LinkClass::Vector);
        let label = self.label("fork");
        let id = self.g.add_node(
            &label,
            Box::new(ForkNode::new(count_op)),
            vec![cur.chan],
            vec![spawned],
        );
        self.note_node(
            id,
            &label,
            "fork",
            UnitClass::Compute,
            0,
            in_tuple.len() + 1,
            self.category(),
        );
        let mut body_vars = in_tuple.clone();
        body_vars.push(index);
        let body_cur = Cur {
            chan: spawned,
            vars: body_vars,
        };
        let (out, term) = self.lower_ops(&body.ops, body_cur, &passthrough)?;
        match term {
            Term::Yield => {
                // out tuple = [yields ++ passthrough]; rename yields to the
                // fork results.
                let mut vars: Vec<Value> = op.results.to_vec();
                vars.extend(passthrough.iter().copied());
                Ok(Cur {
                    chan: out.chan,
                    vars,
                })
            }
            Term::Exit => Ok(Cur {
                chan: out.chan,
                vars: vec![],
            }),
            _ => Err(CoreError::new("fork body must end in yield or exit")),
        }
    }

    /// Replicate: key-based distribution filters, `ways` body copies, and a
    /// forward-merge tree (§V-C d), with allocator hoisting and value
    /// bufferization (§V-B b) when enabled.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn lower_replicate(
        &mut self,
        op: &Op,
        ways: u32,
        body: &Region,
        cur: Cur,
        live_after: &[Value],
        pending: &mut Vec<&Op>,
    ) -> Result<Cur, CoreError> {
        self.outer_par = self.outer_par.saturating_mul(ways);
        let passthrough: Vec<Value> = live_after
            .iter()
            .copied()
            .filter(|v| !op.results.contains(v))
            .collect();
        let mut free: HashSet<Value> = HashSet::new();
        Self::op_free_uses(op, &mut free);
        let body_live_in = self.tupleize(&free);

        // Allocator hoisting (§V-B b): if the body's first allocation is a
        // top-level AllocPop, pop it *before* distribution and use the
        // pointer's low bits as the distribution key.
        let hoist = self.opts.hoist_allocators;
        let hoisted: Option<(usize, revet_machine::AllocId, Value)> = if hoist {
            body.ops.iter().enumerate().find_map(|(i, o)| {
                if let OpKind::AllocPop { alloc } = o.kind {
                    Some((i, alloc, o.results[0]))
                } else {
                    None
                }
            })
        } else {
            None
        };
        // Find the matching region-end push (moved after the merge so a
        // recycled pointer cannot race the buffered values, Fig. 10 b).
        let hoisted_push: Option<usize> = hoisted.as_ref().and_then(|(_, alloc, ptr)| {
            body.ops.iter().position(|o| {
                matches!(&o.kind, OpKind::AllocPush { alloc: a, ptr: p } if a == alloc && p == ptr)
            })
        });

        let mut in_tuple: Vec<Value> = body_live_in.clone();
        for v in passthrough.iter() {
            if !in_tuple.contains(v) {
                in_tuple.push(*v);
            }
        }
        let taken = std::mem::take(pending);
        let mut cur = self.emit_block(&taken, cur, &in_tuple, "rep_in")?;

        // Pop the hoisted pointer in a dedicated MU context feeding the
        // distribution network.
        if let Some((_, alloc, ptr)) = &hoisted {
            let mut out_tuple = in_tuple.clone();
            out_tuple.push(*ptr);
            let chan = self.chan(out_tuple.len(), LinkClass::Vector);
            let node = EwNode::new(
                in_tuple.len() as u16,
                vec![EwInstr::AllocPop {
                    alloc: *alloc,
                    dst: in_tuple.len() as Reg,
                }],
                vec![OutputSpec::plain(
                    (0..=in_tuple.len() as Reg).collect::<Vec<_>>(),
                )],
            );
            let label = self.label("rep.alloc");
            let id = self
                .g
                .add_node(&label, Box::new(node), vec![cur.chan], vec![chan]);
            self.note_node(
                id,
                &label,
                "ew",
                UnitClass::Memory,
                1,
                out_tuple.len(),
                Category::Replicate,
            );
            in_tuple = out_tuple.clone();
            cur = Cur {
                chan,
                vars: out_tuple,
            };
        }

        // Bufferization (§V-B b): values not used inside the body are parked
        // in an SRAM keyed by the hoisted pointer instead of riding through.
        let mut buffered: Vec<Value> = Vec::new();
        let mut buf_sram = None;
        if self.opts.bufferize_replicate {
            if let Some((_, _, ptr)) = &hoisted {
                buffered = passthrough
                    .iter()
                    .copied()
                    .filter(|v| !body_live_in.contains(v))
                    .collect();
                if !buffered.is_empty() {
                    let threads = self.opts.threads.unwrap_or(crate::passes::DEFAULT_THREADS);
                    let sram = self.module.add_sram(
                        format!("rep_buf{}", self.label_n),
                        buffered.len() as u32 * threads,
                    );
                    buf_sram = Some(sram);
                    // Store values before distribution.
                    let keep: Vec<Value> = in_tuple
                        .iter()
                        .copied()
                        .filter(|v| !buffered.contains(v))
                        .collect();
                    let mut instrs = Vec::new();
                    let ppos = in_tuple
                        .iter()
                        .position(|v| v == ptr)
                        .expect("ptr in tuple") as Reg;
                    let k = buffered.len() as u32;
                    let scratch = in_tuple.len() as Reg;
                    for (j, v) in buffered.iter().enumerate() {
                        let vpos = in_tuple
                            .iter()
                            .position(|x| x == v)
                            .expect("buffered value") as Reg;
                        instrs.push(EwInstr::Alu {
                            op: AluOp::Mul,
                            a: Operand::Reg(ppos),
                            b: Operand::Const(Word(k)),
                            dst: scratch,
                        });
                        instrs.push(EwInstr::Alu {
                            op: AluOp::Add,
                            a: Operand::Reg(scratch),
                            b: Operand::Const(Word(j as u32)),
                            dst: scratch,
                        });
                        instrs.push(EwInstr::SramWrite {
                            region: sram,
                            addr: Operand::Reg(scratch),
                            val: Operand::Reg(vpos),
                            pred: None,
                        });
                    }
                    let out_keep: Vec<Reg> = keep
                        .iter()
                        .map(|v| in_tuple.iter().position(|x| x == v).expect("kept") as Reg)
                        .collect();
                    let chan = self.chan(keep.len(), LinkClass::Vector);
                    let node = EwNode::new(
                        in_tuple.len() as u16 + 1,
                        instrs,
                        vec![OutputSpec::plain(out_keep)],
                    );
                    let label = self.label("rep.bufstore");
                    let n_instrs = 3 * buffered.len();
                    let id = self
                        .g
                        .add_node(&label, Box::new(node), vec![cur.chan], vec![chan]);
                    self.note_node(
                        id,
                        &label,
                        "ew",
                        UnitClass::Memory,
                        n_instrs,
                        keep.len() + 1,
                        Category::Buffer,
                    );
                    in_tuple = keep.clone();
                    cur = Cur { chan, vars: keep };
                }
            }
        }

        // Distribution key: hoisted pointer low bits, or the first live
        // value as a static hash (the fixed-allocation baseline of Fig. 14).
        let key_pos: Reg = match &hoisted {
            Some((_, _, ptr)) => in_tuple.iter().position(|v| v == ptr).expect("ptr") as Reg,
            None => 0,
        };
        // Build dist filters: key % ways == i for each region.
        let keyed = in_tuple.clone();
        let kreg = keyed.len() as Reg;
        let mut dist_instrs = vec![EwInstr::Alu {
            op: AluOp::RemU,
            a: Operand::Reg(key_pos),
            b: Operand::Const(Word(ways)),
            dst: kreg,
        }];
        let mut outs = Vec::new();
        let mut out_chans = Vec::new();
        for i in 0..ways {
            let eq = kreg + 1 + i as Reg;
            dist_instrs.push(EwInstr::Alu {
                op: AluOp::Eq,
                a: Operand::Reg(kreg),
                b: Operand::Const(Word(i)),
                dst: eq,
            });
            outs.push(OutputSpec::filtered(
                (0..keyed.len() as Reg).collect::<Vec<_>>(),
                eq,
                true,
            ));
            out_chans.push(self.chan(keyed.len(), LinkClass::Scalar));
        }
        let node = EwNode::new(keyed.len() as u16, dist_instrs, outs);
        let regs = node.reg_count() as usize;
        let label = self.label("rep.dist");
        let id = self.g.add_node(
            &label,
            Box::new(node),
            vec![cur.chan],
            vec![out_chans.clone()].concat(),
        );
        self.note_node(
            id,
            &label,
            "filter",
            UnitClass::Compute,
            1 + ways as usize,
            regs,
            Category::Replicate,
        );
        // One retiming buffer MU in the distribution network (§V-C d).
        self.add_buffer_mu(Category::Retime, "rep.retime");

        // Late unrolling: lower the body once per way.
        self.in_replicate += 1;
        let mut region_outs: Vec<Cur> = Vec::new();
        for (i, chan) in out_chans.iter().enumerate() {
            let mut body_vars = keyed.clone();
            let body_cur = Cur {
                chan: *chan,
                vars: std::mem::take(&mut body_vars),
            };
            // Strip the hoisted pop/push from the body copy.
            let body_ops: Vec<Op> = body
                .ops
                .iter()
                .enumerate()
                .filter(|(j, _)| {
                    Some(*j) != hoisted.as_ref().map(|(j, _, _)| *j) && Some(*j) != hoisted_push
                })
                .map(|(_, o)| o.clone())
                .collect();
            let mut extra: Vec<Value> = passthrough
                .iter()
                .copied()
                .filter(|v| !buffered.contains(v))
                .collect();
            if let Some((_, _, ptr)) = &hoisted {
                if !extra.contains(ptr) {
                    extra.push(*ptr);
                }
            }
            let (out, term) = self.lower_ops(&body_ops, body_cur, &extra)?;
            match term {
                Term::Yield => region_outs.push(out),
                Term::Exit => region_outs.push(out),
                _ => return Err(CoreError::new("replicate body must end in yield or exit")),
            }
            let _ = i;
        }
        self.in_replicate -= 1;
        // Merge tree.
        let out_arity = region_outs.iter().map(|c| c.vars.len()).max().unwrap_or(0);
        let mut frontier: Vec<ChanId> = region_outs.iter().map(|c| c.chan).collect();
        while frontier.len() > 1 {
            let mut next = Vec::new();
            for pair in frontier.chunks(2) {
                if pair.len() == 2 {
                    let merged = self.chan(out_arity, LinkClass::Scalar);
                    let label = self.label("rep.merge");
                    let id = self.g.add_node(
                        &label,
                        Box::new(FwdMergeNode::new()),
                        vec![pair[0], pair[1]],
                        vec![merged],
                    );
                    self.note_node(
                        id,
                        &label,
                        "fwd-merge",
                        UnitClass::Compute,
                        0,
                        0,
                        Category::Replicate,
                    );
                    next.push(merged);
                } else {
                    next.push(pair[0]);
                }
            }
            frontier = next;
        }
        let merged_chan = frontier[0];
        let mut merged_vars: Vec<Value> = op.results.to_vec();
        for v in region_outs
            .iter()
            .find(|c| !c.vars.is_empty())
            .map(|c| c.vars.clone())
            .unwrap_or_default()
            .iter()
            .skip(op.results.len())
        {
            merged_vars.push(*v);
        }
        let mut cur = Cur {
            chan: merged_chan,
            vars: merged_vars,
        };
        // Release the hoisted pointer after the merge even when nothing was
        // bufferized (the body's push was stripped; dropping it entirely
        // would drain the pool and deadlock the distribution network).
        if buf_sram.is_none() {
            if let Some((_, alloc, ptr)) = &hoisted {
                let ppos = cur
                    .vars
                    .iter()
                    .position(|v| v == ptr)
                    .ok_or_else(|| CoreError::new("hoisted pointer lost through replicate"))?
                    as Reg;
                let out_vars: Vec<Value> = cur.vars.iter().copied().filter(|v| v != ptr).collect();
                let slots: Vec<Reg> = cur
                    .vars
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| *v != ptr)
                    .map(|(i, _)| i as Reg)
                    .collect();
                let chan = self.chan(out_vars.len(), LinkClass::Vector);
                let node = EwNode::new(
                    cur.vars.len() as u16,
                    vec![EwInstr::AllocPush {
                        alloc: *alloc,
                        src: Operand::Reg(ppos),
                        pred: None,
                    }],
                    vec![OutputSpec::plain(slots)],
                );
                let label = self.label("rep.free");
                let id = self
                    .g
                    .add_node(&label, Box::new(node), vec![cur.chan], vec![chan]);
                self.note_node(
                    id,
                    &label,
                    "ew",
                    UnitClass::Memory,
                    1,
                    cur.vars.len(),
                    Category::Replicate,
                );
                cur = Cur {
                    chan,
                    vars: out_vars,
                };
            }
        }
        // Reload buffered values and release the hoisted pointer.
        if let (Some(sram), Some((_, alloc, ptr))) = (buf_sram, &hoisted) {
            let ppos = cur
                .vars
                .iter()
                .position(|v| v == ptr)
                .ok_or_else(|| CoreError::new("hoisted pointer lost through replicate"))?
                as Reg;
            let mut instrs = Vec::new();
            let k = buffered.len() as u32;
            let base = cur.vars.len() as Reg;
            for (j, _) in buffered.iter().enumerate() {
                let addr = base + 2 * j as Reg;
                let dst = base + 2 * j as Reg + 1;
                instrs.push(EwInstr::Alu {
                    op: AluOp::Mul,
                    a: Operand::Reg(ppos),
                    b: Operand::Const(Word(k)),
                    dst: addr,
                });
                instrs.push(EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(addr),
                    b: Operand::Const(Word(j as u32)),
                    dst: addr,
                });
                instrs.push(EwInstr::SramRead {
                    region: sram,
                    addr: Operand::Reg(addr),
                    dst,
                    pred: None,
                });
            }
            instrs.push(EwInstr::AllocPush {
                alloc: *alloc,
                src: Operand::Reg(ppos),
                pred: None,
            });
            let mut out_vars: Vec<Value> = cur.vars.iter().copied().filter(|v| v != ptr).collect();
            out_vars.extend(buffered.iter().copied());
            let mut slots: Vec<Reg> = cur
                .vars
                .iter()
                .enumerate()
                .filter(|(_, v)| *v != ptr)
                .map(|(i, _)| i as Reg)
                .collect();
            for (j, _) in buffered.iter().enumerate() {
                slots.push(base + 2 * j as Reg + 1);
            }
            let n_instrs = instrs.len();
            let chan = self.chan(out_vars.len(), LinkClass::Vector);
            let node = EwNode::new(
                (base + 2 * buffered.len() as Reg).max(1),
                instrs,
                vec![OutputSpec::plain(slots)],
            );
            let label = self.label("rep.bufload");
            let id = self
                .g
                .add_node(&label, Box::new(node), vec![cur.chan], vec![chan]);
            self.note_node(
                id,
                &label,
                "ew",
                UnitClass::Memory,
                n_instrs,
                out_vars.len() + 2,
                Category::Buffer,
            );
            cur = Cur {
                chan,
                vars: out_vars,
            };
        }
        // Final tuple: results ++ passthrough.
        let mut out_tuple: Vec<Value> = op.results.to_vec();
        out_tuple.extend(passthrough.iter().copied());
        self.emit_block(&[], cur, &out_tuple, "rep_out")
    }

    // ---------------- sub-word packing ----------------

    /// Computes a packed layout for a loop tuple: I8 values pack 4-per-word,
    /// I16 2-per-word; I32 values keep their own slots. Packing is
    /// *positional* so that the forward edge (inits), the loop args, and the
    /// backedge (yields) — which share a layout but not SSA values — can all
    /// use one description.
    fn pack_layout(&self, tuple: &[Value]) -> (Vec<Value>, Option<Packing>) {
        let mut full: Vec<usize> = Vec::new();
        let mut bytes: Vec<usize> = Vec::new();
        let mut halves: Vec<usize> = Vec::new();
        for (i, v) in tuple.iter().enumerate() {
            match self.func.ty(*v) {
                Ty::I8 => bytes.push(i),
                Ty::I16 => halves.push(i),
                _ => full.push(i),
            }
        }
        if bytes.len() + halves.len() < 2 {
            return (tuple.to_vec(), None);
        }
        let mut groups: Vec<PackGroup> = Vec::new();
        for chunk in bytes.chunks(4) {
            groups.push(PackGroup {
                positions: chunk.to_vec(),
                width: 8,
            });
        }
        for chunk in halves.chunks(2) {
            groups.push(PackGroup {
                positions: chunk.to_vec(),
                width: 16,
            });
        }
        let mut phys: Vec<Value> = full.iter().map(|&i| tuple[i]).collect();
        for g in &groups {
            phys.push(tuple[g.positions[0]]);
        }
        (phys, Some(Packing { full, groups }))
    }

    /// Emits a packing EW node: logical tuple → physical (packed) tuple.
    /// `logical` supplies the concrete values occupying the packed layout's
    /// positions on this edge.
    fn emit_pack(
        &mut self,
        cur: Cur,
        logical: &[Value],
        pack: &Packing,
        _forward_edge: bool,
    ) -> Result<Cur, CoreError> {
        let mut instrs = Vec::new();
        let mut out_slots: Vec<Reg> = pack.full.iter().map(|&i| i as Reg).collect();
        let mut scratch = logical.len() as Reg;
        for g in &pack.groups {
            let dst = scratch;
            scratch += 2;
            instrs.push(EwInstr::Mov {
                src: Operand::Reg(g.positions[0] as Reg),
                dst,
            });
            for (j, &m) in g.positions.iter().enumerate().skip(1) {
                let t = dst + 1;
                instrs.push(EwInstr::Alu {
                    op: AluOp::Shl,
                    a: Operand::Reg(m as Reg),
                    b: Operand::Const(Word((g.width * j) as u32)),
                    dst: t,
                });
                instrs.push(EwInstr::Alu {
                    op: AluOp::Or,
                    a: Operand::Reg(dst),
                    b: Operand::Reg(t),
                    dst,
                });
            }
            out_slots.push(dst);
        }
        let arity = out_slots.len();
        let chan = self.chan(arity, LinkClass::Vector);
        let n = instrs.len();
        let node = EwNode::new(scratch, instrs, vec![OutputSpec::plain(out_slots)]);
        let label = self.label("pack");
        let id = self
            .g
            .add_node(&label, Box::new(node), vec![cur.chan], vec![chan]);
        self.note_node(
            id,
            &label,
            "ew",
            UnitClass::Compute,
            n,
            scratch as usize,
            self.category(),
        );
        let mut phys_vars: Vec<Value> = pack.full.iter().map(|&i| logical[i]).collect();
        for g in &pack.groups {
            phys_vars.push(logical[g.positions[0]]);
        }
        Ok(Cur {
            chan,
            vars: phys_vars,
        })
    }

    /// Emits an unpacking EW node: physical tuple → logical tuple.
    fn emit_unpack(
        &mut self,
        cur: Cur,
        logical: &[Value],
        pack: &Packing,
    ) -> Result<Cur, CoreError> {
        let mut instrs = Vec::new();
        // Physical layout: full positions first, then one slot per group.
        let n_full = pack.full.len();
        let mut out_slots: Vec<Reg> = vec![0; logical.len()];
        let mut scratch = cur.vars.len() as Reg;
        for (pi, &lpos) in pack.full.iter().enumerate() {
            out_slots[lpos] = pi as Reg;
        }
        for (gi, g) in pack.groups.iter().enumerate() {
            let slot = (n_full + gi) as Reg;
            for (lane, &lpos) in g.positions.iter().enumerate() {
                let dst = scratch;
                scratch += 1;
                instrs.push(EwInstr::Alu {
                    op: AluOp::ShrU,
                    a: Operand::Reg(slot),
                    b: Operand::Const(Word((g.width * lane) as u32)),
                    dst,
                });
                instrs.push(EwInstr::Alu {
                    op: AluOp::And,
                    a: Operand::Reg(dst),
                    b: Operand::Const(Word(if g.width == 8 { 0xFF } else { 0xFFFF })),
                    dst,
                });
                out_slots[lpos] = dst;
            }
        }
        let chan = self.chan(logical.len(), LinkClass::Vector);
        let n = instrs.len();
        let node = EwNode::new(scratch, instrs, vec![OutputSpec::plain(out_slots)]);
        let label = self.label("unpack");
        let id = self
            .g
            .add_node(&label, Box::new(node), vec![cur.chan], vec![chan]);
        self.note_node(
            id,
            &label,
            "ew",
            UnitClass::Compute,
            n,
            scratch as usize,
            self.category(),
        );
        Ok(Cur {
            chan,
            vars: logical.to_vec(),
        })
    }

    /// Accounts one buffering MU (deadlock avoidance / retiming). These are
    /// storage-only contexts, so they appear in the reports but not in the
    /// executable graph.
    fn add_buffer_mu(&mut self, category: Category, label: &str) {
        let label = self.label(label);
        self.infos.push(ContextInfo {
            id: u32::MAX,
            label,
            kind: "buffer",
            unit: UnitClass::Memory,
            depth: self.depth,
            instrs: 0,
            regs: 0,
            category,
        });
    }
}

fn dedup(mut v: Vec<Value>) -> Vec<Value> {
    let mut seen = HashSet::new();
    v.retain(|x| seen.insert(*x));
    v
}

fn body_uses(body: &Region, v: Value) -> bool {
    let mut free = HashSet::new();
    for op in &body.ops {
        DfLower::op_free_uses(op, &mut free);
    }
    free.contains(&v)
}

/// Registers read by an instruction (predicates included).
fn instr_reads(i: &EwInstr) -> Vec<Reg> {
    let mut out = Vec::new();
    let mut op = |o: &Operand| {
        if let Operand::Reg(r) = o {
            out.push(*r);
        }
    };
    let pred = |p: &Option<Pred>, out: &mut Vec<Reg>| {
        if let Some(p) = p {
            out.push(p.reg);
        }
    };
    match i {
        EwInstr::Alu { a, b, .. } => {
            op(a);
            op(b);
        }
        EwInstr::Select { c, t, f, .. } => {
            op(c);
            op(t);
            op(f);
        }
        EwInstr::Mov { src, .. } => op(src),
        EwInstr::SramRead { addr, pred: p, .. } | EwInstr::SramDecFetch { addr, pred: p, .. } => {
            op(addr);
            pred(p, &mut out);
        }
        EwInstr::SramWrite {
            addr, val, pred: p, ..
        } => {
            op(addr);
            op(val);
            pred(p, &mut out);
        }
        EwInstr::DramReadW { addr, pred: p, .. } | EwInstr::DramReadB { addr, pred: p, .. } => {
            op(addr);
            pred(p, &mut out);
        }
        EwInstr::DramWriteW {
            addr, val, pred: p, ..
        }
        | EwInstr::DramWriteB {
            addr, val, pred: p, ..
        } => {
            op(addr);
            op(val);
            pred(p, &mut out);
        }
        EwInstr::AllocPop { .. } => {}
        EwInstr::AllocPush { src, pred: p, .. } => {
            op(src);
            pred(p, &mut out);
        }
    }
    out
}

/// The register an instruction writes, if any.
fn instr_write(i: &EwInstr) -> Option<Reg> {
    match i {
        EwInstr::Alu { dst, .. }
        | EwInstr::Select { dst, .. }
        | EwInstr::Mov { dst, .. }
        | EwInstr::SramRead { dst, .. }
        | EwInstr::SramDecFetch { dst, .. }
        | EwInstr::DramReadW { dst, .. }
        | EwInstr::DramReadB { dst, .. }
        | EwInstr::AllocPop { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Remaps an instruction's registers through `remap`, allocating new regs
/// for writes.
fn remap_instr(i: &mut EwInstr, remap: &mut HashMap<Reg, Reg>, next: &mut Reg) {
    let mo = |o: &mut Operand, remap: &mut HashMap<Reg, Reg>| {
        if let Operand::Reg(r) = o {
            *r = *remap
                .get(r)
                .unwrap_or_else(|| panic!("segment read of unmapped register r{r}"));
        }
    };
    let mw = |r: &mut Reg, remap: &mut HashMap<Reg, Reg>, next: &mut Reg| {
        let nr = *remap.entry(*r).or_insert_with(|| {
            let v = *next;
            *next += 1;
            v
        });
        *r = nr;
    };
    let mp = |p: &mut Option<Pred>, remap: &mut HashMap<Reg, Reg>| {
        if let Some(p) = p {
            p.reg = *remap
                .get(&p.reg)
                .unwrap_or_else(|| panic!("segment read of unmapped predicate r{}", p.reg));
        }
    };
    match i {
        EwInstr::Alu { a, b, dst, .. } => {
            mo(a, remap);
            mo(b, remap);
            mw(dst, remap, next);
        }
        EwInstr::Select { c, t, f, dst } => {
            mo(c, remap);
            mo(t, remap);
            mo(f, remap);
            mw(dst, remap, next);
        }
        EwInstr::Mov { src, dst } => {
            mo(src, remap);
            mw(dst, remap, next);
        }
        EwInstr::SramRead {
            addr, dst, pred, ..
        }
        | EwInstr::SramDecFetch {
            addr, dst, pred, ..
        } => {
            mo(addr, remap);
            mp(pred, remap);
            mw(dst, remap, next);
        }
        EwInstr::SramWrite {
            addr, val, pred, ..
        } => {
            mo(addr, remap);
            mo(val, remap);
            mp(pred, remap);
        }
        EwInstr::DramReadW { addr, dst, pred } | EwInstr::DramReadB { addr, dst, pred } => {
            mo(addr, remap);
            mp(pred, remap);
            mw(dst, remap, next);
        }
        EwInstr::DramWriteW { addr, val, pred } | EwInstr::DramWriteB { addr, val, pred } => {
            mo(addr, remap);
            mo(val, remap);
            mp(pred, remap);
        }
        EwInstr::AllocPop { dst, .. } => mw(dst, remap, next),
        EwInstr::AllocPush { src, pred, .. } => {
            mo(src, remap);
            mp(pred, remap);
        }
    }
}

/// Group of sub-word tuple positions sharing one 32-bit slot.
#[derive(Clone, Debug)]
struct PackGroup {
    positions: Vec<usize>,
    width: usize,
}

/// Positional description of a packed loop tuple.
#[derive(Clone, Debug)]
struct Packing {
    /// Positions keeping their own physical slot.
    full: Vec<usize>,
    /// Packed groups.
    groups: Vec<PackGroup>,
}
