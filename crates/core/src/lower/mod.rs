//! Structured-control-flow → streaming-dataflow lowering (§V-C) plus the
//! dataflow optimizations of §V-D (link analysis, context splitting,
//! sub-word packing, replicate distribution/merging, retiming accounting).
//!
//! Our MIR keeps control flow structured all the way down (the language has
//! no gotos), so the paper's annotated CFG is isomorphic to the region tree:
//! every region is a basic-block sequence, an `if` is a filter/forward-merge
//! pair, a `while` header is a forward-backward merge, `foreach` edges are
//! counter/reduce terminators. This module tree performs that conversion
//! directly, each construct a composition of the §III-B primitives of
//! `revet-machine`:
//!
//! | MIR construct | file | primitives |
//! |---|---|---|
//! | straight-line ops | `block.rs` | element-wise contexts (split: each memory op in its own context, ≤6 ALU ops per context) |
//! | `if` | `if_.rs` | filter (predicated outputs) → branch pipelines → forward merge |
//! | `while` | `while_.rs` | fb-merge header → cond filter → body → backedge; exit edge flattens |
//! | `foreach` | `foreach.rs` | counter (+ broadcast of live-ins) → body → reduce → zip re-join |
//! | `fork` | `fork.rs` | fork node (live values duplicated per spawn) |
//! | `replicate` | `replicate.rs` | distribution filter tree → the body, then `ways − 1` stamped copies → fwd-merge tree |
//!
//! This file is the builder the constructs share: [`DfLower::emit`] (the
//! one place a context comes into being), the primitive constructors over
//! it, the region [`Frame`], and the [`DfLower::lower_ops`] walk.
//!
//! **Emission order is part of the output.** Node ids, channel ids and
//! context ids are running counters, and every executor report, stall
//! report and ledger count is keyed by them. A primitive therefore always
//! creates its output channels (in port order), then adds its node and its
//! [`ContextInfo`]; and a construct emits its primitives in pipeline order.
//! A label has no counter of its own: it is a base and its context id
//! ([`revet_machine::Label`]), so it follows from the context. Replicate's
//! stamped ways (`replicate.rs`) rely on the counters being independent: a
//! stamp emits a way's links, then its SRAM regions, then its contexts,
//! each in its original order, and lands on the ids, and so the labels,
//! that lowering the body again would have taken.
//! `apps/tests/dataflow_golden.rs` pins the result.
//!
//! **A link's class follows its rate** (§III-C). A vector link moves 16
//! tokens per cycle, a scalar link one, so every stream that carries one
//! token per thread — through an `if`'s sides, out of a loop, down the
//! replicate merge tree — is a vector link. [`DfLower::chan`] takes what a
//! link carries ([`Carries`]), never a class, and one `match` maps it.
//!
//! Memory ordering needs no explicit void tokens here: split contexts form a
//! linear chain threaded by the live tuple, so same-thread memory operations
//! stay in program order structurally (SARA's CMMC tokens solve the same
//! problem for arbitrarily-placed contexts).

#![warn(clippy::too_many_lines)]

mod block;
mod foreach;
mod fork;
mod frame;
mod if_;
mod pack;
mod replicate;
mod while_;

use frame::{dedup, Frame, FreeUses, RegionId};

use crate::{CoreError, PassOptions, MAX_DRAM_BYTES};
use revet_machine::instr::{AluOp, EwInstr, Operand, Reg};
use revet_machine::nodes::{
    BroadcastNode, CounterNode, EwNode, FbMergeNode, FlattenNode, FwdMergeNode, OutputSpec,
    ReduceNode,
};
use revet_machine::{
    ChanId, Channel, Graph, Label, LinkClass, PortList, Prim, RunOptions, SramId, UnitClass,
};
use revet_mir::{DramLayout, Func, Module, Op, OpKind, Value, ValueMap, MACHINE_MUS, MU_WORDS};
use revet_sltf::Word;
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The context's label, the one its node slot prints
    /// (`NodeSlot::label`): its base and this context's id.
    pub label: Label,
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
    /// Entry channel: push `Data([args…])` then `Ω1` and run.
    pub entry: ChanId,
    /// Exit channel: `main`'s last link, which no node reads. Each argument
    /// thread leaves its return values on it as one data tuple closed by
    /// `Ω1` (the empty tuple for `void main`); the host reads them there.
    pub exit: ChanId,
    /// Product of replicate ways (the "outer parallelism" knob): every
    /// replicate op counts once, so a nest multiplies along its nesting.
    pub outer_parallelism: u32,
}

impl CompiledProgram {
    /// Runs the program to quiescence with the given `main` arguments,
    /// through the graph's execution plan (total: every primitive fires
    /// its own rule on the plan's ports). DRAM inputs should be written
    /// into `self.graph.mem.dram` first. This is the one-shot, unobserved
    /// convenience over [`Graph::run`]; for the other axes,
    /// [`CompiledProgram::inject_args`] and call `graph.run` directly, or
    /// run a [`crate::ProgramInstance`].
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
        let (report, _) = self.graph.run(RunOptions::new(max_rounds))?;
        Ok(report)
    }

    /// Injects one `main` argument thread into the entry channel — the
    /// entry-token protocol every way of starting a program goes through
    /// (one-shot runs, streaming feeds, the simulator, test oracles).
    pub fn inject_args(&mut self, args: &[Word]) {
        inject_args(&mut self.graph, self.entry, args);
    }

    /// The tokens `main` has left on the exit channel: its return values,
    /// one data tuple closed by `Ω1` per argument thread.
    pub fn sink_tokens(&self) -> Vec<revet_machine::TTok> {
        self.graph.chans()[self.exit.0 as usize].tokens()
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

/// What a link carries, which decides its class: a link's type follows
/// its rate (Parameterized Dataflow), and only a per-thread rate needs the
/// vector class's 16 tokens per cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Carries {
    /// One token per thread: every stream a thread's live values move on.
    PerThread,
    /// One tuple per parent thread: `foreach.split`'s broadcast feed.
    PerParent,
    /// Barriers only: `exit.drop`, the side of an `if` whose threads exit.
    BarriersOnly,
    /// The entry thread's one argument tuple.
    Entry,
    /// One way of the replicate distribution (`rep.dist`).
    Distribution,
}

impl Carries {
    /// The one rule: per-thread streams are vector links, the rest scalar.
    fn class(self) -> LinkClass {
        match self {
            Carries::PerThread => LinkClass::Vector,
            Carries::PerParent | Carries::BarriersOnly | Carries::Entry => LinkClass::Scalar,
            // Per-thread, yet scalar on measurement. Made vector on top
            // of the rest, it adds cycles at outer 2: the `sim_timed`
            // ledger workload (seed 7) reads 656 -> 675 cycles and
            // `alloc_kb_per_op` 144.7 -> 176.6 KiB (137.4 with every such
            // link scalar: +28.5%, past the ledger's 10% bound), and
            // `sim_stats.txt` rises on huff-dec (2127 -> 2199), huff-enc
            // (647 -> 791) and kD-tree (286 -> 311). At scale 512 and
            // outer 8 it lifts hash-table 518 -> 38 cycles and the Table V
            // geomean 0.79x -> 1.43x. The choice waits on the timed
            // semantics' monotonicity law (ROADMAP items 1 and 4).
            Carries::Distribution => LinkClass::Scalar,
        }
    }
}

/// How far the lowering's running counters have got. What one stretch of
/// the walk emitted lies between two marks: the channels, contexts and SRAM
/// regions from the first mark's counts up to the second's.
#[derive(Clone, Copy, Debug)]
struct Mark {
    chans: usize,
    infos: usize,
    srams: usize,
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

struct DfLower<'m> {
    module: &'m Module,
    func: &'m Func,
    layout: DramLayout,
    opts: &'m PassOptions,
    /// The graph being built. Its memory image holds the module's SRAM
    /// regions and allocators from the start; bufferization appends its
    /// own regions to it ([`DfLower::add_sram`]).
    g: Graph,
    /// SRAM words and allocator pointers in the memory image so far.
    words: u64,
    infos: Vec<ContextInfo>,
    links: Vec<LinkInfo>,
    consts: ValueMap<Word>,
    /// The per-block register table of [`DfLower::emit_block`], kept
    /// between blocks so it is allocated once.
    at: ValueMap<Reg>,
    /// The rest of [`DfLower::emit_block`]'s scratch, kept the same way.
    block: block::BlockScratch,
    /// Free uses of `main`'s structured ops and regions, computed once.
    uses: FreeUses,
    depth: u32,
    in_replicate: u32,
}

/// Wall time of each sub-stage of one dataflow lowering, in order: every
/// [`Laps::lap`] closes the sub-stage running since the previous one.
pub(crate) struct Laps {
    mark: Instant,
    pub(crate) laps: Vec<(&'static str, Duration)>,
}

impl Laps {
    /// Starts the first sub-stage now.
    pub(crate) fn start() -> Laps {
        Laps {
            mark: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Ends the running sub-stage as `name` and starts the next.
    pub(crate) fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        self.laps.push((name, now - self.mark));
        self.mark = now;
    }
}

/// The most SRAM words and allocator pointers one program may hold: all of
/// Table II's memory units.
const MACHINE_WORDS: u64 = MACHINE_MUS as u64 * MU_WORDS as u64;

/// Refuses a memory image of `words` SRAM words and allocator pointers
/// past the machine's memory units, before it is allocated.
fn fits_machine(words: u64) -> Result<(), CoreError> {
    if words <= MACHINE_WORDS {
        return Ok(());
    }
    Err(CoreError::new(format!(
        "the program's SRAM regions and allocator pointers need {words} words, more than \
         the machine's {MACHINE_MUS} memory units ({MACHINE_WORDS} words)"
    )))
}

/// Lowers `main` of a fully-lowered (physical-ops-only) module to an
/// executable dataflow graph. The module is only read: the DRAM symbols
/// are laid out in equal slices of `opts.dram_bytes`
/// ([`DramLayout::equal_slices`]), and the graph's memory image starts
/// from the module's SRAM and allocator declarations.
///
/// # Errors
///
/// Returns [`CoreError`] for a `dram_bytes` past the 32-bit DRAM address
/// space ([`MAX_DRAM_BYTES`]), for SRAM regions and allocator pointers
/// past the machine's memory units (or a buffer past one unit), and for
/// unsupported shapes (multi-value foreach reductions, high-level ops
/// that escaped earlier passes).
pub fn lower_to_dataflow(
    module: &Module,
    opts: &PassOptions,
) -> Result<CompiledProgram, CoreError> {
    lower_timed(module, opts, &mut Laps::start())
}

/// [`lower_to_dataflow`], closing one lap of `laps` per sub-stage: the
/// memory image, the constant and free-use tables, the lowering walk and
/// the plan build.
pub(crate) fn lower_timed(
    module: &Module,
    opts: &PassOptions,
    laps: &mut Laps,
) -> Result<CompiledProgram, CoreError> {
    if opts.dram_bytes as u64 > MAX_DRAM_BYTES {
        return Err(CoreError::new(format!(
            "dram_bytes = {} exceeds the {MAX_DRAM_BYTES}-byte (32-bit) DRAM address space",
            opts.dram_bytes
        )));
    }
    let main = module
        .func("main")
        .ok_or_else(|| CoreError::new("module has no main"))?;
    let srams = module.srams.iter().map(|s| u64::from(s.words));
    let words = srams
        .chain(module.allocs.iter().map(|a| u64::from(a.max)))
        .sum();
    fits_machine(words)?;
    let mut g = Graph::new();
    g.mem = module.build_memory(opts.dram_bytes);
    laps.lap("to_dataflow.memory");
    let mut consts = ValueMap::with_capacity(main.value_count());
    let mut outer_parallelism = 1u32;
    main.walk(&mut |op| match (&op.kind, op.results.first()) {
        (OpKind::ConstI(v, ty), Some(r)) => {
            consts.insert(*r, ty.materialize(*v));
        }
        (OpKind::Replicate { ways, .. }, _) => {
            outer_parallelism = outer_parallelism.saturating_mul(*ways);
        }
        _ => {}
    });
    let uses = FreeUses::of(main);
    laps.lap("to_dataflow.free_uses");
    let mut lw = DfLower {
        module,
        func: main,
        layout: DramLayout::equal_slices(module.drams.len(), opts.dram_bytes),
        opts,
        g,
        words,
        infos: Vec::new(),
        links: Vec::new(),
        consts,
        at: ValueMap::with_capacity(main.value_count()),
        block: block::BlockScratch::default(),
        uses,
        depth: 0,
        in_replicate: 0,
    };
    let (entry, exit) = lw.lower_main()?;
    laps.lap("to_dataflow.walk");
    let DfLower {
        g: mut graph,
        infos: contexts,
        links,
        ..
    } = lw;
    // The wiring is complete: schedule it now, so every instance of this
    // compile shares the one plan (and its channel-endpoint index)
    // instead of building its own on first run.
    graph.plan();
    laps.lap("to_dataflow.plan");
    Ok(CompiledProgram {
        graph,
        contexts,
        links,
        entry,
        exit,
        outer_parallelism,
    })
}

// ---------------- the context emitter and the §III-B primitives ----------------

impl DfLower<'_> {
    /// Where the running counters stand (see the module docs on emission
    /// order).
    fn mark(&self) -> Mark {
        Mark {
            chans: self.g.chan_count(),
            infos: self.infos.len(),
            srams: self.g.mem.sram_count(),
        }
    }

    /// Runs `emit` with the loop-nest depth set to `depth`: a copied
    /// context or link keeps the depth of its original.
    fn at_depth<R>(&mut self, depth: u32, emit: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.depth, depth);
        let out = emit(self);
        self.depth = outer;
        out
    }

    fn link(&mut self, chan: Channel) -> ChanId {
        let (arity, class) = (chan.arity(), chan.class);
        let id = self.g.add_chan(chan);
        self.links.push(LinkInfo {
            id: id.0,
            arity,
            class,
            depth: self.depth,
        });
        id
    }

    /// Adds an SRAM region of `words` to the graph's memory image. Refused
    /// before anything is allocated when the region would not fit one
    /// memory unit or the image would outgrow the machine's.
    fn add_sram(&mut self, name: String, words: u64) -> Result<SramId, CoreError> {
        if words > u64::from(MU_WORDS) {
            return Err(CoreError::new(format!(
                "SRAM region {name} needs {words} words, more than one memory unit \
                 ({MU_WORDS} words)"
            )));
        }
        fits_machine(self.words + words)?;
        self.words += words;
        Ok(self.g.mem.add_sram(name, words as usize))
    }

    /// A fresh link of `arity` values, classed by what it carries.
    fn chan(&mut self, arity: usize, carries: Carries) -> ChanId {
        self.link(Channel::new(arity).with_class(carries.class()))
    }

    fn category(&self) -> Category {
        if self.in_replicate > 0 || self.depth >= 2 {
            Category::Inner
        } else {
            Category::Outer
        }
    }

    /// Brings one streaming context into being: adds the node, labelled
    /// `base` and numbered by the next context id, and records its
    /// [`ContextInfo`], after the caller has created `outs` (see the module
    /// docs on emission order). `cost` is the context's (pipeline stages,
    /// registers).
    fn emit(
        &mut self,
        base: &'static str,
        kind: &'static str,
        unit: UnitClass,
        category: Category,
        cost: (usize, usize),
        node: impl Into<Prim>,
        ins: impl Into<PortList>,
        outs: impl Into<PortList>,
    ) {
        let context = self.infos.len() as u32;
        let id = self.g.add_node(base, node, ins, outs);
        self.g.set_node_meta(id, context, unit);
        self.infos.push(ContextInfo {
            id: id.0,
            label: Label::new(base, context),
            kind,
            unit,
            depth: self.depth,
            instrs: cost.0,
            regs: cost.1,
            category,
        });
    }

    /// A fixed-function compute context (merge, counter, …): no pipeline
    /// stages of its own.
    fn fixed(
        &mut self,
        base: &'static str,
        kind: &'static str,
        category: Category,
        regs: usize,
        node: impl Into<Prim>,
        ins: impl Into<PortList>,
        outs: impl Into<PortList>,
    ) {
        let unit = UnitClass::Compute;
        self.emit(base, kind, unit, category, (0, regs), node, ins, outs);
    }

    /// An element-wise context writing existing channels; its stage and
    /// register counts are the node's own.
    fn ew_into(
        &mut self,
        base: &'static str,
        kind: &'static str,
        unit: UnitClass,
        category: Category,
        node: EwNode,
        ins: impl Into<PortList>,
        outs: impl Into<PortList>,
    ) {
        let cost = (node.instrs.len(), node.reg_count() as usize);
        self.emit(base, kind, unit, category, cost, node, ins, outs);
    }

    /// A single-output element-wise context on a fresh vector link.
    fn ew(
        &mut self,
        base: &'static str,
        unit: UnitClass,
        category: Category,
        node: EwNode,
        ins: impl Into<PortList>,
    ) -> ChanId {
        let out = self.chan(node.outputs[0].slots.len(), Carries::PerThread);
        self.ew_into(base, "ew", unit, category, node, ins, [out]);
        out
    }

    /// §III-B c filter: `slots` of each thread go to the first link when
    /// `cond` holds and to the second when not. Both are per-thread
    /// streams: the second is an `if`'s else side or a `while`'s exit.
    fn filter(
        &mut self,
        base: &'static str,
        input: &Cur,
        cond: Operand,
        slots: Arc<[Reg]>,
    ) -> (ChanId, ChanId) {
        let n = input.vars.len() as Reg;
        // A constant condition is materialized in a spare register; the
        // move rides in the filter's own stage and is not counted.
        let (instrs, creg): (Arc<[EwInstr]>, Reg) = match cond {
            Operand::Reg(r) => (Arc::new([]), r),
            Operand::Const(_) => (Arc::new([block::mov(cond, n)]), n),
        };
        let on_true = self.chan(slots.len(), Carries::PerThread);
        let on_false = self.chan(slots.len(), Carries::PerThread);
        let outputs = [
            OutputSpec::filtered(Arc::clone(&slots), creg, true),
            OutputSpec::filtered(slots, creg, false),
        ];
        let node = EwNode::new(n, instrs, outputs);
        let cost = (0, node.reg_count() as usize);
        self.emit(
            base,
            "filter",
            UnitClass::Compute,
            self.category(),
            cost,
            node,
            [input.chan],
            [on_true, on_false],
        );
        (on_true, on_false)
    }

    /// A filter that passes no thread: `out` (of `arity`) sees only the
    /// barriers of `input`, which downstream merges still need.
    fn drop_all(&mut self, base: &'static str, input: ChanId, out: ChanId, arity: usize) {
        let slots: Arc<[Reg]> = std::iter::repeat_n(0, arity).collect();
        let node = EwNode::new(
            1,
            [block::mov(block::imm(0), 0)],
            [OutputSpec::filtered(slots, 0, true)],
        );
        let (unit, category) = (UnitClass::Compute, self.category());
        self.ew_into(base, "filter", unit, category, node, [input], [out]);
    }

    /// §III-B d forward merge of two same-level streams (an `if`'s sides,
    /// or two ways of the replicate merge tree) into one per-thread stream.
    fn fwd_merge(
        &mut self,
        base: &'static str,
        category: Category,
        ins: [ChanId; 2],
        arity: usize,
    ) -> ChanId {
        let out = self.chan(arity, Carries::PerThread);
        let node = FwdMergeNode::new();
        self.fixed(base, "fwd-merge", category, 0, node, ins, [out]);
        out
    }

    /// §III-B d forward-backward merge: a loop header over the forward edge
    /// `fwd`. Returns the body link and the (not yet driven) backedge,
    /// which is left uncanonicalized: iteration order is the loop's own.
    fn fb_merge(&mut self, base: &'static str, fwd: ChanId, arity: usize) -> (ChanId, ChanId) {
        let body = self.chan(arity, Carries::PerThread);
        let back = self.link(
            Channel::new(arity)
                .with_class(Carries::PerThread.class())
                .without_canonicalization(),
        );
        let (node, category) = (FbMergeNode::new(), self.category());
        self.fixed(base, "fb-merge", category, 0, node, [fwd, back], [body]);
        (body, back)
    }

    /// §III-B e flatten: strips one barrier level (a loop's exit edge); its
    /// output carries every exiting thread.
    fn flatten(&mut self, base: &'static str, input: ChanId, arity: usize) -> ChanId {
        let out = self.chan(arity, Carries::PerThread);
        let (node, category) = (FlattenNode::new(), self.category());
        self.fixed(base, "flatten", category, 0, node, [input], [out]);
        out
    }

    /// §III-B e counter: expands each parent thread of `input` into one
    /// child per index in `bounds` (min, max, step). Returns the child link
    /// (the index alone) and the parent link (the input tuple, unchanged).
    fn counter(
        &mut self,
        base: &'static str,
        input: &Cur,
        bounds: [Operand; 3],
    ) -> (ChanId, ChanId) {
        let n = input.vars.len();
        let child = self.chan(1, Carries::PerThread);
        let parent = self.chan(n, Carries::PerThread);
        let [min, max, step] = bounds;
        let (node, category) = (CounterNode::new(min, max, step), self.category());
        let outs = [child, parent];
        self.fixed(base, "counter", category, n, node, [input.chan], outs);
        (child, parent)
    }

    /// §III-B e broadcast: repeats each tuple of `feed` onto every child of
    /// `child` in its group; the output is `arity` wide.
    fn broadcast(
        &mut self,
        base: &'static str,
        feed: ChanId,
        child: ChanId,
        arity: usize,
    ) -> ChanId {
        let out = self.chan(arity, Carries::PerThread);
        let (node, category) = (BroadcastNode::new(1), self.category());
        self.fixed(base, "broadcast", category, 0, node, [feed, child], [out]);
        out
    }

    /// §III-B e reduce: folds each group of `input` back to parent level
    /// with `op` (a void reduce, carrying barriers only, when `None`).
    fn reduce(&mut self, base: &'static str, input: ChanId, op: Option<AluOp>) -> ChanId {
        let out = self.chan(usize::from(op.is_some()), Carries::PerThread);
        let node = match op {
            Some(op) => ReduceNode::new(op, op.reduction_identity()),
            None => ReduceNode::void(),
        };
        let category = self.category();
        self.fixed(base, "reduce", category, 1, node, [input], [out]);
        out
    }

    /// Accounts one buffering MU (deadlock avoidance / retiming). These are
    /// storage-only contexts, so they appear in the reports but not in the
    /// executable graph.
    fn buffer_mu(&mut self, category: Category, base: &'static str) {
        let label = Label::new(base, self.infos.len() as u32);
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

impl DfLower<'_> {
    /// Lowers `main`'s body from a fresh entry channel; returns the entry
    /// and the exit channel its return values leave on.
    fn lower_main(&mut self) -> Result<(ChanId, ChanId), CoreError> {
        let func = self.func;
        let entry = self.chan(func.params.len(), Carries::Entry);
        let cur = Cur {
            chan: entry,
            vars: func.params.clone(),
        };
        let (cur, term) = self.lower_ops(&func.body.ops, RegionId::MAIN, cur, &[])?;
        if !matches!(term, Term::Return | Term::Exit) {
            return Err(CoreError::new("main must end in return"));
        }
        Ok((entry, cur.chan))
    }

    /// Lowers the ops of `region` (`ops`: all of them, or replicate's body
    /// without the hoisted allocation). Returns the final cursor and
    /// terminator kind. After a `Yield`/`Condition` terminator, the
    /// cursor's tuple is the exact yielded/forwarded layout followed by
    /// `live_out`, the passthrough values of the caller's contract.
    fn lower_ops(
        &mut self,
        ops: &[impl Borrow<Op>],
        region: RegionId,
        mut cur: Cur,
        live_out: &[Value],
    ) -> Result<(Cur, Term), CoreError> {
        let live_after = self.uses.liveness(region, ops, live_out);
        let mut pending: Vec<&Op> = Vec::new();
        for (op, live) in ops.iter().map(Borrow::borrow).zip(live_after) {
            // A terminator closes the region with one last block. Its
            // layout is positional and never deduplicated: merges and
            // backedges need a fixed arity.
            let closing = match &op.kind {
                k if is_simple(k) => {
                    pending.push(op);
                    continue;
                }
                OpKind::Yield(vs) => Some(([vs, live_out].concat(), "blk", Term::Yield)),
                OpKind::Return(vs) => Some((dedup(vs.clone()), "ret", Term::Return)),
                // Pending side effects still run; all data is dropped.
                OpKind::Exit => Some((vec![], "exit_fx", Term::Exit)),
                OpKind::Condition { cond, fwd } => Some((
                    [&[*cond], &fwd[..], live_out].concat(),
                    "cond",
                    Term::Condition(*cond, fwd.clone()),
                )),
                _ => None,
            };
            if let Some((tuple, base, term)) = closing {
                return Ok((self.emit_block(&pending, cur, &tuple, base)?, term));
            }
            let Some(live) = live else {
                return Err(CoreError::new(format!(
                    "unexpected op in dataflow lowering: {:?} (missing pass?)",
                    op.kind
                )));
            };
            let queued = std::mem::take(&mut pending);
            let frame = Frame::of(&self.consts, &self.uses, op, live, cur, queued);
            cur = match &op.kind {
                OpKind::If { cond, then, else_ } => self.lower_if(frame, *cond, then, else_)?,
                OpKind::While {
                    inits,
                    before,
                    after,
                } => self.lower_while(frame, inits, before, after)?,
                OpKind::Foreach {
                    lo,
                    hi,
                    step,
                    body,
                    reduce,
                    ..
                } => self.lower_foreach(frame, [*lo, *hi, *step], body, reduce)?,
                OpKind::Fork { count, body } => self.lower_fork(frame, *count, body)?,
                OpKind::Replicate { ways, body } => self.lower_replicate(frame, *ways, body)?,
                _ => unreachable!("only structured ops have a live-after set"),
            };
        }
        let out = dedup(live_out.to_vec());
        Ok((self.emit_block(&pending, cur, &out, "tail")?, Term::Yield))
    }
}
