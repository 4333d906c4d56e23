//! Liveness and the region frame: which values an op reads from outside
//! itself, which must survive it, and where a value sits in a tuple.

use super::{Cur, DfLower};
use crate::CoreError;
use revet_machine::instr::{Operand, Reg};
use revet_mir::{Op, Region, Value};
use revet_sltf::Word;
use std::collections::{HashMap, HashSet};

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
pub(super) fn liveness(ops: &[Op], live_out: &[Value]) -> Vec<HashSet<Value>> {
    let mut live: HashSet<Value> = live_out.iter().copied().collect();
    let mut after = vec![HashSet::new(); ops.len()];
    for i in (0..ops.len()).rev() {
        after[i] = live.clone();
        for r in &ops[i].results {
            live.remove(r);
        }
        op_free_uses(&ops[i], &mut live);
    }
    after
}

pub(super) fn dedup(mut v: Vec<Value>) -> Vec<Value> {
    let mut seen = HashSet::new();
    v.retain(|x| seen.insert(*x));
    v
}

/// True if `body` reads `v` from outside itself.
pub(super) fn body_uses(body: &Region, v: Value) -> bool {
    let mut free = HashSet::new();
    for op in &body.ops {
        op_free_uses(op, &mut free);
    }
    free.contains(&v)
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
}

impl<'a> Frame<'a> {
    /// Every tuple is sorted, duplicate-free and holds no constants
    /// (those are immediates wherever they are used).
    pub(super) fn of(
        consts: &HashMap<Value, Word>,
        op: &'a Op,
        live_after: &HashSet<Value>,
        cur: Cur,
        pending: Vec<&'a Op>,
    ) -> Self {
        let tupleize = |set: &HashSet<Value>| {
            let mut v: Vec<Value> = set.iter().copied().collect();
            v.retain(|x| !consts.contains_key(x));
            v.sort_unstable();
            v
        };
        let mut passthrough = tupleize(live_after);
        passthrough.retain(|v| !op.results.contains(v));
        let mut uses = HashSet::new();
        op_free_uses(op, &mut uses);
        let free = tupleize(&uses);
        let mut in_tuple = free.clone();
        in_tuple.extend(passthrough.iter().filter(|v| !free.contains(v)));
        Frame {
            results: &op.results,
            passthrough,
            free,
            in_tuple,
            cur,
            pending,
        }
    }

    /// `results ++ passthrough`: the tuple every construct leaves with.
    pub(super) fn out_tuple(&self) -> Vec<Value> {
        [self.results, &self.passthrough].concat()
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
        match self.consts.get(&v) {
            Some(w) => Ok(Operand::Const(*w)),
            None => slot_of(tuple, v, what).map(Operand::Reg),
        }
    }
}
