//! MIR operations: arithmetic, physical memory, structured control flow
//! (SCF), and the high-level Revet dialect (views & iterators).
//!
//! The op set mirrors the compiler pipeline of Fig. 8: the front end emits a
//! mixture of SCF and *high-level Revet* ops; high-level lowering rewrites
//! views/iterators into physical SRAM/DRAM accesses; optimization passes
//! rewrite SCF in place; and the CFG conversion consumes only physical ops.

use crate::types::{DramRef, Ty};
pub use revet_machine::instr::AluOp;
use revet_machine::{AllocId, SramId};

/// An SSA value id, scoped to one function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Value(pub u32);

/// A region: block arguments plus an op list. Regions may reference values
/// defined in enclosing regions (they are not isolated from above).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Region {
    /// Values bound on entry (loop variables, indices, …).
    pub args: Vec<Value>,
    /// Ops in program order; the last op must be a terminator where the
    /// containing construct requires one.
    pub ops: Vec<Op>,
}

impl Region {
    /// A region with the given arguments and ops.
    pub fn new(args: Vec<Value>, ops: Vec<Op>) -> Self {
        Region { args, ops }
    }
}

/// Kinds of memory views (Table I): small auto-fetched/stored tiles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViewKind {
    /// `ReadView<size>(dram, base)` — auto-fetched, read-only.
    Read,
    /// `WriteView<size>(dram, base)` — auto-stored on flush.
    Write,
    /// `ModifyView<size>(dram, base)` — fetched and stored.
    Modify,
    /// Raw `SRAM<size>` scratchpad (array-decay capable).
    Sram,
}

/// Kinds of iterators (Table I): linear DRAM access with small-tile staging.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ItKind {
    /// `ReadIt<tile>(dram, seek)` — linear read.
    Read,
    /// `PeekReadIt<tile>(dram, seek)` — linear read with look-ahead.
    PeekRead,
    /// `WriteIt<tile>(dram, seek)` — linear write (flushed automatically).
    Write,
    /// `ManualWriteIt<tile>(dram, seek)` — linear write with caller-driven
    /// last-iteration flush elision (§V-A a).
    ManualWrite,
}

impl ItKind {
    /// State words an iterator keeps per thread: the DRAM position of its
    /// buffered window and its cursor within it.
    pub const STATE_WORDS: u32 = 2;

    /// Buffer words per thread of an iterator over `tile` elements: the
    /// tile, doubled for `PeekRead` so that `peek(a)`, `a ≤ tile`, never
    /// faults.
    pub fn window(self, tile: u32) -> u32 {
        if self == ItKind::PeekRead {
            2 * tile
        } else {
            tile
        }
    }
}

/// An operation: kind plus result values.
#[derive(Clone, PartialEq, Debug)]
pub struct Op {
    /// What the op does.
    pub kind: OpKind,
    /// SSA results (types in the function's value table).
    pub results: Results,
}

/// An op's SSA results. One result, the common case, is held in place;
/// none or several are a `Vec`, which costs no allocation when empty. It
/// reads as a `&[Value]` and prints exactly as one.
#[derive(Clone)]
pub struct Results(ResultList);

#[derive(Clone)]
enum ResultList {
    One(Value),
    Many(Vec<Value>),
}

impl Default for Results {
    fn default() -> Self {
        Results(ResultList::Many(Vec::new()))
    }
}

impl std::ops::Deref for Results {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        match &self.0 {
            ResultList::One(v) => std::slice::from_ref(v),
            ResultList::Many(vs) => vs,
        }
    }
}

impl From<Vec<Value>> for Results {
    fn from(vs: Vec<Value>) -> Self {
        Results(match vs[..] {
            [v] => ResultList::One(v),
            _ => ResultList::Many(vs),
        })
    }
}

impl<const N: usize> From<[Value; N]> for Results {
    fn from(vs: [Value; N]) -> Self {
        Results(match vs[..] {
            [v] => ResultList::One(v),
            _ => ResultList::Many(vs.to_vec()),
        })
    }
}

impl From<Option<Value>> for Results {
    fn from(v: Option<Value>) -> Self {
        v.map_or_else(Results::default, |v| Results(ResultList::One(v)))
    }
}

impl<'a> IntoIterator for &'a Results {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Results {
    fn eq(&self, other: &Results) -> bool {
        **self == **other
    }
}

impl Eq for Results {}

impl std::fmt::Debug for Results {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Foreach attributes (pragmas).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ForeachFlags {
    /// `pragma(eliminate_hierarchy)`: rewrite to a fork + shared counter
    /// (Fig. 9) so stragglers of consecutive parents interleave.
    pub eliminate_hierarchy: bool,
}

/// The operation kinds.
#[derive(Clone, PartialEq, Debug)]
pub enum OpKind {
    // ---- arithmetic ----
    /// An integer constant of the given type.
    ConstI(i64, Ty),
    /// Binary ALU op (includes comparisons; results are 0/1 i32).
    Bin(AluOp, Value, Value),
    /// `cond ? t : f`.
    Select(Value, Value, Value),
    /// Width cast (truncate / zero-extend / sign-extend).
    Cast {
        /// Input value.
        v: Value,
        /// Target type.
        to: Ty,
        /// Sign-extend when widening.
        signed: bool,
    },

    // ---- physical memory (post high-level lowering) ----
    /// `result = sram[addr]` (word granularity).
    SramRead {
        /// Region.
        sram: SramId,
        /// Word address.
        addr: Value,
    },
    /// `sram[addr] = val`.
    SramWrite {
        /// Region.
        sram: SramId,
        /// Word address.
        addr: Value,
        /// Stored value.
        val: Value,
    },
    /// Atomic decrement-and-fetch (returns the new value).
    SramDecFetch {
        /// Region.
        sram: SramId,
        /// Word address.
        addr: Value,
    },
    /// DRAM element read from a symbol: `result = dram[idx]` with the
    /// symbol's element width (byte-addressed underneath).
    DramRead {
        /// Symbol.
        dram: DramRef,
        /// Element index.
        idx: Value,
    },
    /// DRAM element write.
    DramWrite {
        /// Symbol.
        dram: DramRef,
        /// Element index.
        idx: Value,
        /// Stored value.
        val: Value,
    },
    /// Pops a buffer pointer from an allocator queue (blocking).
    AllocPop {
        /// Queue.
        alloc: AllocId,
    },
    /// Returns a buffer pointer to an allocator queue.
    AllocPush {
        /// Queue.
        alloc: AllocId,
        /// Pointer to free.
        ptr: Value,
    },
    /// Bulk DRAM→SRAM transfer (`len` elements from `dram[dram_base..]` into
    /// `sram[sram_base..]`); lowered to a `foreach` of element reads (§V-A).
    BulkLoad {
        /// Source symbol.
        dram: DramRef,
        /// First element index.
        dram_base: Value,
        /// Destination region.
        sram: SramId,
        /// Destination word offset.
        sram_base: Value,
        /// Element count.
        len: Value,
    },
    /// Bulk SRAM→DRAM transfer.
    BulkStore {
        /// Destination symbol.
        dram: DramRef,
        /// First element index.
        dram_base: Value,
        /// Source region.
        sram: SramId,
        /// Source word offset.
        sram_base: Value,
        /// Element count.
        len: Value,
    },

    // ---- structured control flow ----
    /// `if cond { then } else { else_ }`; both regions end in `Yield` with
    /// matching arities; results carry the yielded values.
    If {
        /// Condition (non-zero = then).
        cond: Value,
        /// Taken region.
        then: Region,
        /// Fallback region (may be empty-yield).
        else_: Region,
    },
    /// MLIR-style while: `before` evaluates the condition from the carried
    /// values (terminator [`OpKind::Condition`]); `after` is the loop body
    /// (terminator [`OpKind::Yield`] with the next carried values). Results
    /// are the condition's forwarded values at exit.
    While {
        /// Initial carried values.
        inits: Vec<Value>,
        /// Condition region (args = carried values).
        before: Region,
        /// Body region (args = forwarded values).
        after: Region,
    },
    /// Explicitly parallel `foreach (lo..hi by step)`; body args =
    /// `[index]`; body terminator yields reduction operands.
    Foreach {
        /// Lower bound.
        lo: Value,
        /// Exclusive upper bound.
        hi: Value,
        /// Step.
        step: Value,
        /// Per-thread body.
        body: Region,
        /// Associative reduction ops applied to yielded values (one per
        /// result).
        reduce: Vec<AluOp>,
        /// Pragmas.
        flags: ForeachFlags,
    },
    /// `replicate (ways) { … }`: semantically identity over threads;
    /// physically duplicated into `ways` parallel regions (§IV-A, §V-C d).
    Replicate {
        /// Physical duplication factor.
        ways: u32,
        /// Body (terminator yields passthrough values).
        body: Region,
    },
    /// `fork (count) { i => … }`: spawns `count` hierarchy-less threads; at
    /// most one may reach the body's `Yield` (the continuation thread);
    /// others must `Exit` (§IV-A a, Fig. 9).
    Fork {
        /// Spawn count.
        count: Value,
        /// Per-spawn body, arg = spawn index.
        body: Region,
    },
    /// Terminates the current thread without yielding (§IV-A a).
    Exit,
    /// Region terminator: yields values to the enclosing construct.
    Yield(Vec<Value>),
    /// `before`-region terminator of [`OpKind::While`].
    Condition {
        /// Keep looping while non-zero.
        cond: Value,
        /// Values forwarded to the body (and out of the loop on exit).
        fwd: Vec<Value>,
    },
    /// Function terminator.
    Return(Vec<Value>),
    /// Runs `inner` only when `pred`'s truthiness equals `expect`; otherwise
    /// results are zero and side effects are suppressed. Produced by
    /// if-to-select conversion for memory operations (§V-B c).
    Predicated {
        /// The predicate value.
        pred: Value,
        /// Required truthiness.
        expect: bool,
        /// The guarded operation (must be region-free).
        inner: Box<OpKind>,
    },

    // ---- high-level Revet dialect (front-end only) ----
    /// Creates a view (Table I); result is a handle.
    ViewNew {
        /// Access pattern.
        kind: ViewKind,
        /// Backing symbol (None for raw SRAM).
        dram: Option<DramRef>,
        /// Base element index (tile `base*size`; None for raw SRAM).
        base: Option<Value>,
        /// Tile size in elements.
        size: u32,
    },
    /// `view[idx]` read.
    ViewRead {
        /// The view handle.
        view: Value,
        /// Element index within the tile.
        idx: Value,
    },
    /// `view[idx] = val` write.
    ViewWrite {
        /// The view handle.
        view: Value,
        /// Element index within the tile.
        idx: Value,
        /// Stored value.
        val: Value,
    },
    /// Creates an iterator (Table I); result is a handle.
    ItNew {
        /// Access pattern.
        kind: ItKind,
        /// Backing symbol.
        dram: DramRef,
        /// Starting element index.
        seek: Value,
        /// Tile (staging buffer) size in elements.
        tile: u32,
    },
    /// `*it` (reads; `Read`/`PeekRead` kinds only).
    ItDeref {
        /// The iterator handle.
        it: Value,
    },
    /// `it.peek(ahead)` look-ahead read (`PeekRead` only; `ahead < tile`).
    ItPeek {
        /// The iterator handle.
        it: Value,
        /// Elements ahead of the cursor.
        ahead: Value,
    },
    /// `*it = val` (write iterators).
    ItWrite {
        /// The iterator handle.
        it: Value,
        /// Stored value.
        val: Value,
    },
    /// `it++`; for `ManualWrite`, `last` non-zero elides the deallocation
    /// flush (§V-A a).
    ItInc {
        /// The iterator handle.
        it: Value,
        /// Last-iteration hint (ManualWrite only).
        last: Option<Value>,
    },
}

impl OpKind {
    /// True for region terminators.
    pub fn is_terminator(&self) -> bool {
        if let OpKind::Predicated { .. } = self {
            return false;
        }
        matches!(
            self,
            OpKind::Yield(_) | OpKind::Condition { .. } | OpKind::Return(_) | OpKind::Exit
        )
    }

    /// Nested regions, in order (for generic traversal).
    pub fn regions(&self) -> impl DoubleEndedIterator<Item = &Region> {
        let (first, second) = match self {
            OpKind::If { then, else_, .. } => (Some(then), Some(else_)),
            OpKind::While { before, after, .. } => (Some(before), Some(after)),
            OpKind::Foreach { body, .. }
            | OpKind::Replicate { body, .. }
            | OpKind::Fork { body, .. } => (Some(body), None),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Mutable nested regions, in order.
    pub fn regions_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut Region> {
        let (first, second) = match self {
            OpKind::If { then, else_, .. } => (Some(then), Some(else_)),
            OpKind::While { before, after, .. } => (Some(before), Some(after)),
            OpKind::Foreach { body, .. }
            | OpKind::Replicate { body, .. }
            | OpKind::Fork { body, .. } => (Some(body), None),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Directly used values (not including region internals), in order.
    pub fn operands(&self) -> Operands<'_> {
        let at = Operands::new;
        match self {
            OpKind::ConstI(..) | OpKind::Exit | OpKind::AllocPop { .. } => at(&[], &[]),
            OpKind::Bin(_, a, b) => at(&[*a, *b], &[]),
            OpKind::Select(c, t, f) => at(&[*c, *t, *f], &[]),
            OpKind::Cast { v, .. } => at(&[*v], &[]),
            OpKind::SramRead { addr, .. } | OpKind::SramDecFetch { addr, .. } => at(&[*addr], &[]),
            OpKind::SramWrite { addr, val, .. } => at(&[*addr, *val], &[]),
            OpKind::DramRead { idx, .. } => at(&[*idx], &[]),
            OpKind::DramWrite { idx, val, .. } => at(&[*idx, *val], &[]),
            OpKind::AllocPush { ptr, .. } => at(&[*ptr], &[]),
            OpKind::BulkLoad {
                dram_base,
                sram_base,
                len,
                ..
            }
            | OpKind::BulkStore {
                dram_base,
                sram_base,
                len,
                ..
            } => at(&[*dram_base, *sram_base, *len], &[]),
            OpKind::If { cond, .. } => at(&[*cond], &[]),
            OpKind::While { inits, .. } => at(&[], inits),
            OpKind::Foreach { lo, hi, step, .. } => at(&[*lo, *hi, *step], &[]),
            OpKind::Replicate { .. } => at(&[], &[]),
            OpKind::Fork { count, .. } => at(&[*count], &[]),
            OpKind::Yield(vs) | OpKind::Return(vs) => at(&[], vs),
            OpKind::Condition { cond, fwd } => at(&[*cond], fwd),
            OpKind::Predicated { .. } => Operands {
                wrapped: Some(self),
                ..at(&[], &[])
            },
            OpKind::ViewNew { base, .. } => at(&[], base.as_slice()),
            OpKind::ViewRead { view, idx } => at(&[*view, *idx], &[]),
            OpKind::ViewWrite { view, idx, val } => at(&[*view, *idx, *val], &[]),
            OpKind::ItNew { seek, .. } => at(&[*seek], &[]),
            OpKind::ItDeref { it } => at(&[*it], &[]),
            OpKind::ItPeek { it, ahead } => at(&[*it, *ahead], &[]),
            OpKind::ItWrite { it, val } => at(&[*it, *val], &[]),
            OpKind::ItInc { it, last } => at(&[*it], last.as_slice()),
        }
    }

    /// Mutates every direct operand through `f` (used by inlining and
    /// rewrite passes to remap values).
    pub fn map_operands(&mut self, f: &mut dyn FnMut(Value) -> Value) {
        match self {
            OpKind::ConstI(..) | OpKind::Exit | OpKind::AllocPop { .. } => {}
            OpKind::Bin(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            OpKind::Select(c, t, fl) => {
                *c = f(*c);
                *t = f(*t);
                *fl = f(*fl);
            }
            OpKind::Cast { v, .. } => *v = f(*v),
            OpKind::SramRead { addr, .. } | OpKind::SramDecFetch { addr, .. } => *addr = f(*addr),
            OpKind::SramWrite { addr, val, .. } => {
                *addr = f(*addr);
                *val = f(*val);
            }
            OpKind::DramRead { idx, .. } => *idx = f(*idx),
            OpKind::DramWrite { idx, val, .. } => {
                *idx = f(*idx);
                *val = f(*val);
            }
            OpKind::AllocPush { ptr, .. } => *ptr = f(*ptr),
            OpKind::BulkLoad {
                dram_base,
                sram_base,
                len,
                ..
            }
            | OpKind::BulkStore {
                dram_base,
                sram_base,
                len,
                ..
            } => {
                *dram_base = f(*dram_base);
                *sram_base = f(*sram_base);
                *len = f(*len);
            }
            OpKind::If { cond, .. } => *cond = f(*cond),
            OpKind::While { inits, .. } => {
                for v in inits {
                    *v = f(*v);
                }
            }
            OpKind::Foreach { lo, hi, step, .. } => {
                *lo = f(*lo);
                *hi = f(*hi);
                *step = f(*step);
            }
            OpKind::Replicate { .. } => {}
            OpKind::Fork { count, .. } => *count = f(*count),
            OpKind::Yield(vs) | OpKind::Return(vs) => {
                for v in vs {
                    *v = f(*v);
                }
            }
            OpKind::Condition { cond, fwd } => {
                *cond = f(*cond);
                for v in fwd {
                    *v = f(*v);
                }
            }
            OpKind::Predicated { pred, inner, .. } => {
                *pred = f(*pred);
                inner.map_operands(f);
            }
            OpKind::ViewNew { base, .. } => {
                if let Some(b) = base {
                    *b = f(*b);
                }
            }
            OpKind::ViewRead { view, idx } => {
                *view = f(*view);
                *idx = f(*idx);
            }
            OpKind::ViewWrite { view, idx, val } => {
                *view = f(*view);
                *idx = f(*idx);
                *val = f(*val);
            }
            OpKind::ItNew { seek, .. } => *seek = f(*seek),
            OpKind::ItDeref { it } => *it = f(*it),
            OpKind::ItPeek { it, ahead } => {
                *it = f(*it);
                *ahead = f(*ahead);
            }
            OpKind::ItWrite { it, val } => {
                *it = f(*it);
                *val = f(*val);
            }
            OpKind::ItInc { it, last } => {
                *it = f(*it);
                if let Some(l) = last {
                    *l = f(*l);
                }
            }
        }
    }

    /// True for side-effect-free, region-free value computations — the ops
    /// the classical optimizations (folding, CSE, DCE) may freely delete,
    /// duplicate, or replace when their results are unused or recomputable.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            OpKind::ConstI(..) | OpKind::Bin(..) | OpKind::Select(..) | OpKind::Cast { .. }
        )
    }

    /// True if this op (not counting nested regions) touches memory.
    pub fn is_memory(&self) -> bool {
        if let OpKind::Predicated { inner, .. } = self {
            return inner.is_memory();
        }
        matches!(
            self,
            OpKind::SramRead { .. }
                | OpKind::SramWrite { .. }
                | OpKind::SramDecFetch { .. }
                | OpKind::DramRead { .. }
                | OpKind::DramWrite { .. }
                | OpKind::AllocPop { .. }
                | OpKind::AllocPush { .. }
                | OpKind::BulkLoad { .. }
                | OpKind::BulkStore { .. }
                | OpKind::ViewRead { .. }
                | OpKind::ViewWrite { .. }
                | OpKind::ItDeref { .. }
                | OpKind::ItPeek { .. }
                | OpKind::ItWrite { .. }
                | OpKind::ItInc { .. }
        )
    }

    /// True for high-level Revet-dialect ops that must be lowered before CFG
    /// conversion.
    pub fn is_high_level(&self) -> bool {
        matches!(
            self,
            OpKind::ViewNew { .. }
                | OpKind::ViewRead { .. }
                | OpKind::ViewWrite { .. }
                | OpKind::ItNew { .. }
                | OpKind::ItDeref { .. }
                | OpKind::ItPeek { .. }
                | OpKind::ItWrite { .. }
                | OpKind::ItInc { .. }
                | OpKind::BulkLoad { .. }
                | OpKind::BulkStore { .. }
        )
    }
}

/// The direct operands of one op, in order ([`OpKind::operands`]): up to
/// three fixed values, then a list the op holds. A `Predicated` op lists
/// its predicate, then its inner op's operands.
#[derive(Clone, Debug)]
pub struct Operands<'a> {
    /// A `Predicated` op not yet unwrapped: its predicate comes next.
    wrapped: Option<&'a OpKind>,
    head: std::iter::Take<std::array::IntoIter<Value, 3>>,
    tail: std::slice::Iter<'a, Value>,
}

impl<'a> Operands<'a> {
    fn new(head: &[Value], tail: &'a [Value]) -> Self {
        let mut fixed = [Value(0); 3];
        fixed[..head.len()].copy_from_slice(head);
        Operands {
            wrapped: None,
            head: fixed.into_iter().take(head.len()),
            tail: tail.iter(),
        }
    }
}

impl Iterator for Operands<'_> {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        if let Some(OpKind::Predicated { pred, inner, .. }) = self.wrapped {
            *self = inner.operands();
            return Some(*pred);
        }
        self.head.next().or_else(|| self.tail.next().copied())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self.wrapped {
            Some(OpKind::Predicated { inner, .. }) => 1 + inner.operands().len(),
            _ => self.head.len() + self.tail.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Operands<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_listing_and_mapping() {
        let mut k = OpKind::Bin(AluOp::Add, Value(1), Value(2));
        assert!(k.operands().eq([Value(1), Value(2)]));
        k.map_operands(&mut |v| Value(v.0 + 10));
        assert!(k.operands().eq([Value(11), Value(12)]));
    }

    #[test]
    fn operands_list_fixed_values_then_held_ones() {
        let v = |i| Value(i);
        let cond = OpKind::Condition {
            cond: v(1),
            fwd: vec![v(2), v(3)],
        };
        assert!(cond.operands().eq([v(1), v(2), v(3)]));
        let inc = OpKind::ItInc {
            it: v(4),
            last: Some(v(5)),
        };
        assert_eq!(inc.operands().len(), 2);
        assert!(inc.operands().eq([v(4), v(5)]));
        let store = OpKind::BulkStore {
            dram: DramRef(0),
            sram: revet_machine::SramId(0),
            dram_base: v(6),
            sram_base: v(7),
            len: v(8),
        };
        let twice = OpKind::Predicated {
            pred: v(9),
            expect: true,
            inner: Box::new(OpKind::Predicated {
                pred: v(10),
                expect: false,
                inner: Box::new(store),
            }),
        };
        let mut it = twice.operands();
        assert_eq!(it.len(), 5);
        assert_eq!(it.next(), Some(v(9)));
        assert_eq!(it.len(), 4);
        assert!(it.eq([v(10), v(6), v(7), v(8)]));
        assert_eq!(OpKind::Exit.operands().len(), 0);
    }

    #[test]
    fn terminator_classification() {
        assert!(OpKind::Yield(vec![]).is_terminator());
        assert!(OpKind::Exit.is_terminator());
        assert!(!OpKind::ConstI(0, Ty::I32).is_terminator());
    }

    #[test]
    fn region_traversal() {
        let k = OpKind::If {
            cond: Value(0),
            then: Region::default(),
            else_: Region::default(),
        };
        assert_eq!(k.regions().count(), 2);
    }

    #[test]
    fn memory_classification() {
        assert!(OpKind::DramRead {
            dram: DramRef(0),
            idx: Value(0)
        }
        .is_memory());
        assert!(OpKind::ItDeref { it: Value(0) }.is_high_level());
        assert!(!OpKind::Bin(AluOp::Add, Value(0), Value(1)).is_memory());
    }
}
