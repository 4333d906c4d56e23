//! Liveness and the region frame: which values an op reads from outside
//! itself, which must survive it, and where a value sits in a tuple.

use super::{Cur, DfLower};
use crate::CoreError;
use revet_machine::instr::{Operand, Reg};
use revet_mir::{Func, Op, OpKind, Region, Value, ValueMap, ValueSet};
use revet_sltf::Word;
use std::borrow::Borrow;

/// The ops that own regions (`if`, `while`, `foreach`, `fork`,
/// `replicate`): the only ones [`FreeUses`] numbers.
fn is_structured(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::If { .. }
            | OpKind::While { .. }
            | OpKind::Foreach { .. }
            | OpKind::Fork { .. }
            | OpKind::Replicate { .. }
    )
}

/// A region of `main`, as [`FreeUses`] numbers them (`main`'s body is 0).
#[derive(Clone, Copy)]
pub(super) struct RegionId(u32);

impl RegionId {
    pub(super) const MAIN: RegionId = RegionId(0);
}

/// One structured op's row: what it reads from outside itself and where
/// its regions' rows are.
struct OpUses {
    /// Sorted, duplicate-free: operands plus the regions' free uses.
    free: Vec<Value>,
    /// Its regions' rows, consecutive in region order from here.
    first_region: u32,
    /// The id of the next structured op after this one's nested ops: its
    /// next sibling, if it has one.
    end: u32,
}

/// One region's row.
#[derive(Default)]
struct RegionUses {
    /// Sorted, duplicate-free: values used inside (nested regions too)
    /// and defined outside.
    free: Vec<Value>,
    /// The id of the region's first structured op (ids are consecutive in
    /// pre-order, so the next one is that op's `end`).
    first_op: u32,
}

/// The free-use set of every structured op and region of `main`, filled by
/// one bottom-up walk before lowering starts, so that liveness and frames
/// read each set instead of re-walking nested regions at every level.
///
/// Structured ops are numbered in pre-order and found from their region's
/// row, not by address: replicate lowers a filtered copy of its body,
/// whose structured ops are those of the original in the same order.
///
/// Every table is sized once: the rows are counted before the walk, the
/// walk gathers each set on one shared stack (sized to the function's
/// values, which no Table III app outgrows) and copies it out at its final
/// size, and [`FreeUses::liveness`] reuses one live set, sized the same
/// way, for every region.
pub(super) struct FreeUses {
    ops: Vec<OpUses>,
    regions: Vec<RegionUses>,
    /// The row of the region defining each value the walk has passed: a
    /// value is defined in the region being filled when its entry is that
    /// region's row. One table for the whole walk, not a set per region.
    owner: ValueMap<u32>,
    /// The sets being gathered, innermost on top.
    stack: Vec<Value>,
    /// [`FreeUses::liveness`]'s running live set.
    live: ValueSet,
}

impl FreeUses {
    pub(super) fn of(main: &Func) -> FreeUses {
        let (mut ops, mut regions) = (0, 1);
        main.walk(&mut |op| {
            if is_structured(&op.kind) {
                ops += 1;
                regions += op.kind.regions().count();
            }
        });
        let mut uses = FreeUses {
            ops: Vec::with_capacity(ops),
            regions: Vec::with_capacity(regions),
            owner: ValueMap::with_capacity(main.value_count()),
            stack: Vec::with_capacity(main.value_count()),
            live: ValueSet::with_capacity(main.value_count()),
        };
        uses.regions.push(RegionUses::default());
        uses.fill_region(&main.body, 0);
        uses
    }

    fn fill_region(&mut self, region: &Region, at: usize) {
        self.regions[at].first_op = self.ops.len() as u32;
        let row = at as u32;
        self.owner.extend(region.args.iter().map(|a| (*a, row)));
        let start = self.stack.len();
        for op in &region.ops {
            if is_structured(&op.kind) {
                let id = self.fill_op(op);
                let FreeUses {
                    ops, owner, stack, ..
                } = self;
                let used = ops[id].free.iter().copied();
                stack.extend(used.filter(|u| owner.get(*u) != Some(&row)));
            } else {
                let used = op.kind.operands();
                let owner = &self.owner;
                self.stack
                    .extend(used.filter(|u| owner.get(*u) != Some(&row)));
            }
            self.owner.extend(op.results.iter().map(|r| (*r, row)));
        }
        self.regions[at].free = self.pop_set(start);
    }

    fn fill_op(&mut self, op: &Op) -> usize {
        let id = self.ops.len();
        let first_region = self.regions.len();
        self.ops.push(OpUses {
            free: Vec::new(),
            first_region: first_region as u32,
            end: 0,
        });
        self.regions.resize_with(
            first_region + op.kind.regions().count(),
            RegionUses::default,
        );
        let start = self.stack.len();
        self.stack.extend(op.kind.operands());
        for (at, sub) in (first_region..).zip(op.kind.regions()) {
            self.fill_region(sub, at);
            self.stack.extend_from_slice(&self.regions[at].free);
        }
        let end = self.ops.len() as u32;
        self.ops[id].free = self.pop_set(start);
        self.ops[id].end = end;
        id
    }

    /// The set gathered on the stack from `start` up, sorted and
    /// duplicate-free, in a vector of its own size; the stack drops it.
    fn pop_set(&mut self, start: usize) -> Vec<Value> {
        let gathered = &mut self.stack[start..];
        gathered.sort_unstable();
        let mut kept = 0;
        for i in 0..gathered.len() {
            if kept == 0 || gathered[i] != gathered[kept - 1] {
                gathered[kept] = gathered[i];
                kept += 1;
            }
        }
        let set = gathered[..kept].to_vec();
        self.stack.truncate(start);
        set
    }

    /// True if `region` reads `v` from outside itself.
    pub(super) fn reads(&self, region: RegionId, v: Value) -> bool {
        self.regions[region.0 as usize]
            .free
            .binary_search(&v)
            .is_ok()
    }
}

/// What [`liveness`] keeps for a structured op.
pub(super) struct Live {
    /// The op's row in [`FreeUses`].
    id: usize,
    /// The values live after it, ascending.
    after: Vec<Value>,
}

impl FreeUses {
    /// One entry per op of `region` (whose ops are `ops`): for a structured
    /// op, its row and the values live after it given the region's live-out
    /// set; `None` for every other op, which nothing asks.
    pub(super) fn liveness(
        &mut self,
        region: RegionId,
        ops: &[impl Borrow<Op>],
        live_out: &[Value],
    ) -> Vec<Option<Live>> {
        let mut next = self.regions[region.0 as usize].first_op as usize;
        let mut after: Vec<Option<Live>> = ops
            .iter()
            .map(|op| {
                is_structured(&op.borrow().kind).then(|| {
                    let id = next;
                    next = self.ops[id].end as usize;
                    Live {
                        id,
                        after: Vec::new(),
                    }
                })
            })
            .collect();
        let live = &mut self.live;
        live.clear();
        live.extend(live_out);
        for (op, entry) in ops.iter().map(Borrow::borrow).zip(&mut after).rev() {
            if let Some(entry) = entry {
                entry.after = Vec::with_capacity(live.len());
                entry.after.extend(live.iter());
            }
            for r in &op.results {
                live.remove(*r);
            }
            match entry {
                Some(entry) => live.extend(&self.ops[entry.id].free),
                None => live.extend(op.kind.operands()),
            }
        }
        after
    }
}

/// `v` without its repeats, first occurrences in order. Tuples are short,
/// so this compares in place rather than allocating a set.
pub(super) fn dedup(mut v: Vec<Value>) -> Vec<Value> {
    let mut kept = 0;
    for i in 0..v.len() {
        if !v[..kept].contains(&v[i]) {
            v[kept] = v[i];
            kept += 1;
        }
    }
    v.truncate(kept);
    v
}

/// The register holding `v` when a thread laid out as `tuple` is loaded
/// (values load into registers in tuple order). `what` names the tuple in
/// the diagnostic.
pub(super) fn slot_of(tuple: &[Value], v: Value, what: &str) -> Result<Reg, CoreError> {
    tuple
        .iter()
        .position(|x| *x == v)
        .map(|p| p as Reg)
        .ok_or_else(|| CoreError::new(format!("value %{} is missing from the {what} tuple", v.0)))
}

/// [`slot_of`] for each of `vs`, in order.
pub(super) fn slots_of(tuple: &[Value], vs: &[Value], what: &str) -> Result<Vec<Reg>, CoreError> {
    vs.iter().map(|v| slot_of(tuple, *v, what)).collect()
}

/// What a structured op knows on entry: where the pipeline stands, the
/// simple ops queued before it, and how its values cross it.
pub(super) struct Frame<'a> {
    /// The op's results.
    pub(super) results: &'a [Value],
    /// Values live after the op that it does not define: they must come
    /// out the other side.
    pub(super) passthrough: Vec<Value>,
    /// Values the op (nested regions included) reads from outside itself.
    pub(super) free: Vec<Value>,
    /// `free`, then whatever of `passthrough` is not already in it: the
    /// tuple to enter the construct with.
    pub(super) in_tuple: Vec<Value>,
    /// The pipeline position the op is reached at.
    pub(super) cur: Cur,
    /// Simple ops not yet emitted; they go into the construct's entry block.
    pub(super) pending: Vec<&'a Op>,
    /// Where the op's regions' rows start in [`FreeUses`].
    first_region: u32,
}

impl<'a> Frame<'a> {
    /// Every tuple is sorted, duplicate-free and holds no constants
    /// (those are immediates wherever they are used).
    pub(super) fn of(
        consts: &ValueMap<Word>,
        uses: &FreeUses,
        op: &'a Op,
        live: Live,
        cur: Cur,
        pending: Vec<&'a Op>,
    ) -> Self {
        let mut passthrough = live.after;
        passthrough.retain(|v| !consts.contains_key(*v) && !op.results.contains(v));
        let mut free = uses.ops[live.id].free.clone();
        free.retain(|v| !consts.contains_key(*v));
        let mut in_tuple = Vec::with_capacity(free.len() + passthrough.len());
        in_tuple.extend_from_slice(&free);
        in_tuple.extend(passthrough.iter().filter(|v| !free.contains(v)));
        Frame {
            results: &op.results,
            passthrough,
            free,
            in_tuple,
            cur,
            pending,
            first_region: uses.ops[live.id].first_region,
        }
    }

    /// `results ++ passthrough`: the tuple every construct leaves with.
    pub(super) fn out_tuple(&self) -> Vec<Value> {
        [self.results, &self.passthrough].concat()
    }

    /// The op's `i`-th region (in `OpKind::regions` order), to lower it
    /// with or ask [`FreeUses::reads`] about.
    pub(super) fn region(&self, i: u32) -> RegionId {
        RegionId(self.first_region + i)
    }
}

impl DfLower<'_> {
    /// An immediate for a constant, else the register `v` has in `tuple`.
    pub(super) fn operand_in(
        &self,
        tuple: &[Value],
        v: Value,
        what: &str,
    ) -> Result<Operand, CoreError> {
        match self.consts.get(v) {
            Some(w) => Ok(Operand::Const(*w)),
            None => slot_of(tuple, v, what).map(Operand::Reg),
        }
    }
}
