//! Modules, functions, the building API, and the one region walk every
//! MIR→MIR lowering pass rewrites through ([`Module::rewrite`]).

use crate::ops::{AluOp, Op, OpKind, Region, Results, Value};
use crate::pass::PassResult;
use crate::spans::SpanTable;
use crate::table::ValueSet;
use crate::types::{DramDecl, DramRef, Ty};
use revet_machine::SramId;

/// An on-chip SRAM region declaration (instantiated in a
/// [`revet_machine::MemoryState`] in declaration order, so that
/// [`revet_machine::SramId`] indices line up).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SramDecl {
    /// Region name.
    pub name: String,
    /// Size in 32-bit words.
    pub words: u32,
}

/// An allocator-queue declaration (§V-B a).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AllocDecl {
    /// Queue name.
    pub name: String,
    /// Initial pointer count (`0..max`).
    pub max: u32,
}

/// Thread-local buffer count when the source states no
/// `pragma(threads, N)`: one MU's worth of small buffers.
pub const DEFAULT_THREADS: u32 = 64;

/// Words in one Table II memory unit (256 KiB of 32-bit words): the most
/// a thread count, a memory object's size or one thread-local SRAM region
/// may be.
pub const MU_WORDS: u32 = 65_536;

/// Table II's memory units: a program's SRAM regions and allocator
/// pointers together may fill at most this many.
pub const MACHINE_MUS: u32 = 200;

/// A compilation unit: functions plus module-level memory declarations.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Module {
    /// Functions; `main` is the entry point.
    pub funcs: Vec<Func>,
    /// DRAM symbols.
    pub drams: Vec<DramDecl>,
    /// SRAM regions (created by lowering passes).
    pub srams: Vec<SramDecl>,
    /// Allocator queues (created by lowering passes).
    pub allocs: Vec<AllocDecl>,
    /// The source's `pragma(threads, N)`: how many thread-local buffers
    /// each SRAM region and allocator holds (§V-B a).
    pub threads: Option<u32>,
}

impl Module {
    /// The thread-local buffer count every lowering sizes by: the
    /// source's `pragma(threads, N)`, else [`DEFAULT_THREADS`].
    pub fn thread_count(&self) -> u32 {
        self.threads.unwrap_or(DEFAULT_THREADS)
    }

    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Finds a function by name, mutably.
    pub fn func_mut(&mut self, name: &str) -> Option<&mut Func> {
        self.funcs.iter_mut().find(|f| f.name == name)
    }

    /// Declares a DRAM symbol; returns its reference.
    pub fn add_dram(&mut self, name: impl Into<String>, elem_bytes: u32) -> DramRef {
        assert!(matches!(elem_bytes, 1 | 2 | 4), "element width 1/2/4 bytes");
        let r = DramRef(self.drams.len() as u32);
        self.drams.push(DramDecl {
            name: name.into(),
            elem_bytes,
        });
        r
    }

    /// Declares an SRAM region; returns its id.
    pub fn add_sram(&mut self, name: impl Into<String>, words: u32) -> revet_machine::SramId {
        let id = revet_machine::SramId(self.srams.len() as u32);
        self.srams.push(SramDecl {
            name: name.into(),
            words,
        });
        id
    }

    /// Declares an allocator queue; returns its id.
    pub fn add_alloc(&mut self, name: impl Into<String>, max: u32) -> revet_machine::AllocId {
        let id = revet_machine::AllocId(self.allocs.len() as u32);
        self.allocs.push(AllocDecl {
            name: name.into(),
            max,
        });
        id
    }

    /// Total op count across every function (nested regions included) —
    /// the headline number pass reports track before/after each pass.
    pub fn op_count(&self) -> usize {
        self.funcs.iter().map(|f| f.count_ops(|_| true)).sum()
    }

    /// Rewrites every function through `pass`: each body is taken apart
    /// post-order (an op's nested regions before the op itself), every op
    /// is handed to [`Rewriter::op`] with the [`RegionBuilder`] of the
    /// region being rebuilt, and the rebuilt body is put back. `self.funcs`
    /// is empty while the hooks run; the declaration tables are theirs to
    /// extend. A function the pass changed gets its span table pruned once.
    /// `Changed` means some op was replaced.
    pub fn rewrite(&mut self, pass: &mut impl Rewriter) -> PassResult {
        let mut funcs = std::mem::take(&mut self.funcs);
        let (mut any, mut spare) = (false, Vec::new());
        for func in &mut funcs {
            let mut changed = false;
            let body = std::mem::take(&mut func.body);
            func.body = rewrite_region(pass, self, func, body, &mut changed, &mut spare);
            if changed {
                func.prune_spans();
            }
            any |= changed;
        }
        self.funcs = funcs;
        PassResult::of(any)
    }

    /// Instantiates this module's SRAM regions and allocator queues into a
    /// fresh memory state with the given DRAM size.
    pub fn build_memory(&self, dram_bytes: usize) -> revet_machine::MemoryState {
        let mut mem = revet_machine::MemoryState::with_dram_size(dram_bytes);
        for s in &self.srams {
            mem.add_sram(s.name.clone(), s.words as usize);
        }
        for a in &self.allocs {
            mem.add_alloc(a.name.clone(), a.max);
        }
        mem
    }
}

/// A MIR→MIR rewrite, stated as what happens at one op; [`Module::rewrite`]
/// owns the walk, the rebuilding and the changed flag.
pub trait Rewriter {
    /// Rewrites `op`, whose nested regions are already rewritten: either
    /// emits the replacement into `out` and returns `None`, or hands the op
    /// back to be kept as it is.
    fn op(
        &mut self,
        out: &mut RegionBuilder,
        func: &mut Func,
        module: &mut Module,
        op: Op,
    ) -> Option<Op>;

    /// Called on entering a region, before its first op.
    fn enter_region(&mut self) {}

    /// Called before the region's terminator is handed to [`Rewriter::op`]
    /// (at the region's end if it has none): where the teardown of what
    /// `op` set up in this region is emitted.
    fn before_terminator(
        &mut self,
        _out: &mut RegionBuilder,
        _func: &mut Func,
        _module: &mut Module,
    ) {
    }
}

/// Rebuilds `region` through `pass`. The rebuilt op list takes an emptied
/// buffer from `spare` when there is one, and the region's old list, once
/// drained, goes there for the next region: a walk allocates op lists
/// only as deep as its region nest, not one per region.
fn rewrite_region<R: Rewriter>(
    pass: &mut R,
    module: &mut Module,
    func: &mut Func,
    region: Region,
    changed: &mut bool,
    spare: &mut Vec<Vec<Op>>,
) -> Region {
    let Region {
        args,
        ops: mut input,
    } = region;
    let mut out = RegionBuilder {
        ops: spare.pop().unwrap_or_default(),
        args,
    };
    out.ops.reserve(input.len());
    pass.enter_region();
    let n = input.len();
    let mut torn_down = false;
    for (i, mut op) in input.drain(..).enumerate() {
        if i + 1 == n && op.kind.is_terminator() {
            pass.before_terminator(&mut out, func, module);
            torn_down = true;
        }
        for r in op.kind.regions_mut() {
            *r = rewrite_region(pass, module, func, std::mem::take(r), changed, spare);
        }
        match pass.op(&mut out, func, module, op) {
            Some(kept) => out.ops.push(kept),
            None => *changed = true,
        }
    }
    if !torn_down {
        pass.before_terminator(&mut out, func, module);
    }
    spare.push(input);
    out.build()
}

/// A function: parameters, result types, a body region, and the value table.
#[derive(Clone, PartialEq, Debug)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Parameter values (typed in the value table).
    pub params: Vec<Value>,
    /// Result types.
    pub results: Vec<Ty>,
    /// Body (terminated by `Return`).
    pub body: Region,
    /// Source attribution: per-value spans recorded by the front end (see
    /// [`SpanTable`]); empty for hand-built modules.
    pub spans: SpanTable,
    vals: Vec<Ty>,
}

impl Func {
    /// Creates an empty function with the given parameter types.
    pub fn new(name: impl Into<String>, param_tys: &[Ty], results: Vec<Ty>) -> Self {
        let mut f = Func {
            name: name.into(),
            params: Vec::new(),
            results,
            body: Region::default(),
            spans: SpanTable::new(),
            vals: Vec::new(),
        };
        for &ty in param_tys {
            let v = f.new_value(ty);
            f.params.push(v);
        }
        f
    }

    /// Allocates a new SSA value of type `ty`.
    pub fn new_value(&mut self, ty: Ty) -> Value {
        let v = Value(self.vals.len() as u32);
        self.vals.push(ty);
        v
    }

    /// The type of a value.
    ///
    /// # Panics
    ///
    /// Panics on an id from another function.
    pub fn ty(&self, v: Value) -> Ty {
        self.vals[v.0 as usize]
    }

    /// Number of values in the table.
    pub fn value_count(&self) -> usize {
        self.vals.len()
    }

    /// Walks every op in the function (pre-order, regions inside-out last).
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Op)) {
        fn go<'a>(r: &'a Region, f: &mut dyn FnMut(&'a Op)) {
            for op in &r.ops {
                f(op);
                for sub in op.kind.regions() {
                    go(sub, f);
                }
            }
        }
        go(&self.body, f);
    }

    /// Counts ops satisfying a predicate anywhere in the function.
    pub fn count_ops(&self, pred: impl Fn(&OpKind) -> bool) -> usize {
        let mut n = 0;
        self.walk(&mut |op| {
            if pred(&op.kind) {
                n += 1;
            }
        });
        n
    }

    /// The set of values with a definition site: parameters, region
    /// arguments, and op results, function-wide — a dense [`ValueSet`]
    /// sized by the value table.
    pub fn defined_values(&self) -> ValueSet {
        let mut set = ValueSet::with_capacity(self.value_count());
        set.extend(&self.params);
        fn go(r: &Region, set: &mut ValueSet) {
            set.extend(&r.args);
            for op in &r.ops {
                set.extend(&op.results);
                for sub in op.kind.regions() {
                    go(sub, set);
                }
            }
        }
        go(&self.body, &mut set);
        set
    }

    /// Span-table entries whose value no longer has a definition in the
    /// function, in ascending order — used by the pass manager's debug
    /// integrity check.
    pub fn dangling_spans(&self) -> Vec<Value> {
        let defined = self.defined_values();
        self.spans
            .values()
            .filter(|v| !defined.contains(*v))
            .collect()
    }

    /// Drops span-table entries for values with no remaining definition.
    /// Passes that delete values wholesale (rather than op-by-op) call this
    /// once at the end to keep the side-table consistent.
    pub fn prune_spans(&mut self) {
        let defined = self.defined_values();
        self.spans.retain(|v| defined.contains(v));
    }
}

/// A cursor-style builder appending ops to one region.
///
/// Typical use: make a builder for the function body, emit ops, then split
/// off nested regions with fresh builders.
#[derive(Debug)]
pub struct RegionBuilder {
    ops: Vec<Op>,
    args: Vec<Value>,
}

impl Default for RegionBuilder {
    fn default() -> Self {
        RegionBuilder::new()
    }
}

impl RegionBuilder {
    /// An empty builder with no region arguments.
    pub fn new() -> Self {
        RegionBuilder {
            ops: Vec::new(),
            args: Vec::new(),
        }
    }

    /// A builder whose region binds the given arguments.
    pub fn with_args(args: Vec<Value>) -> Self {
        RegionBuilder {
            ops: Vec::new(),
            args,
        }
    }

    /// Appends an op with results allocated by the caller.
    pub fn push(&mut self, kind: OpKind, results: impl Into<Results>) {
        self.ops.push(Op {
            kind,
            results: results.into(),
        });
    }

    /// Appends an op with a single result allocated from `func`.
    pub fn emit(&mut self, func: &mut Func, kind: OpKind, ty: Ty) -> Value {
        let v = func.new_value(ty);
        self.push(kind, [v]);
        v
    }

    /// Appends a result-less op.
    pub fn emit0(&mut self, kind: OpKind) {
        self.push(kind, []);
    }

    /// Emits an `i32` constant.
    pub fn const_i32(&mut self, func: &mut Func, v: i64) -> Value {
        self.emit(func, OpKind::ConstI(v, Ty::I32), Ty::I32)
    }

    /// Emits a binary ALU op.
    pub fn bin(&mut self, func: &mut Func, op: AluOp, a: Value, b: Value) -> Value {
        self.emit(func, OpKind::Bin(op, a, b), Ty::I32)
    }

    /// Emits an SRAM word read.
    pub fn sram_read(&mut self, func: &mut Func, sram: SramId, addr: Value) -> Value {
        self.emit(func, OpKind::SramRead { sram, addr }, Ty::I32)
    }

    /// Emits an SRAM word write.
    pub fn sram_write(&mut self, sram: SramId, addr: Value, val: Value) {
        self.emit0(OpKind::SramWrite { sram, addr, val });
    }

    /// Emits a bulk DRAM→SRAM transfer of `len` elements.
    pub fn bulk_load(
        &mut self,
        dram: DramRef,
        dram_base: Value,
        sram: SramId,
        sram_base: Value,
        len: Value,
    ) {
        self.emit0(OpKind::BulkLoad {
            dram,
            dram_base,
            sram,
            sram_base,
            len,
        });
    }

    /// Emits a bulk SRAM→DRAM transfer of `len` elements.
    pub fn bulk_store(
        &mut self,
        dram: DramRef,
        dram_base: Value,
        sram: SramId,
        sram_base: Value,
        len: Value,
    ) {
        self.emit0(OpKind::BulkStore {
            dram,
            dram_base,
            sram,
            sram_base,
            len,
        });
    }

    /// Emits `if cond { then…; yield t } else { yield e }` and returns the
    /// `i32` the `if` yields.
    pub fn if_else(
        &mut self,
        func: &mut Func,
        cond: Value,
        mut then: RegionBuilder,
        t: Value,
        e: Value,
    ) -> Value {
        then.emit0(OpKind::Yield(vec![t]));
        let mut else_ = RegionBuilder::new();
        else_.emit0(OpKind::Yield(vec![e]));
        let (then, else_) = (then.build(), else_.build());
        self.emit(func, OpKind::If { cond, then, else_ }, Ty::I32)
    }

    /// The kind of the last op appended, if any (used to detect regions that
    /// already ended in a terminator).
    pub fn last_kind(&self) -> Option<&OpKind> {
        self.ops.last().map(|o| &o.kind)
    }

    /// Finishes the region.
    pub fn build(self) -> Region {
        Region {
            args: self.args,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AluOp;

    #[test]
    fn build_simple_func() {
        let mut f = Func::new("add1", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let one = b.const_i32(&mut f, 1);
        let sum = b.bin(&mut f, AluOp::Add, p, one);
        b.emit0(OpKind::Return(vec![sum]));
        f.body = b.build();
        assert_eq!(f.value_count(), 3);
        assert_eq!(f.ty(sum), Ty::I32);
        assert_eq!(f.count_ops(|k| matches!(k, OpKind::Bin(..))), 1);
    }

    #[test]
    fn module_decls() {
        let mut m = Module::default();
        let d = m.add_dram("input", 1);
        let s = m.add_sram("buf", 64);
        let a = m.add_alloc("ptrs", 16);
        assert_eq!(d.0, 0);
        assert_eq!(s.0, 0);
        assert_eq!(a.0, 0);
        let mem = m.build_memory(128);
        assert_eq!(mem.dram.len(), 128);
        assert_eq!(mem.sram_count(), 1);
        assert_eq!(mem.alloc_available(a), 16);
    }

    #[test]
    #[should_panic(expected = "element width")]
    fn bad_dram_width() {
        Module::default().add_dram("x", 3);
    }
}
