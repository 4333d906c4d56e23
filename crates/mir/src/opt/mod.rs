//! Classical optimizations over MIR: constant folding, identity/select
//! simplification, local CSE, and dead-code elimination.
//!
//! All are [`Pass`](crate::Pass)es designed to run as a group — the one
//! [`add_classical`] states, by optimization level: folding and
//! simplification leave bypassed ops in place (remapping uses), and the
//! trailing DCE sweep deletes them while pruning their `SpanTable` entries.
//!
//! Semantics discipline: a pure op is only rewritten to a constant when the
//! replacement `ConstI` *materializes* ([`Ty::materialize`], the rule the
//! dataflow lowering shares — I8/I16 constants are masked to their storage
//! width) to the very word the original op computes, and a
//! value is only replaced by another when their declared types match (the
//! subword packer keys on declared types). This keeps optimized programs
//! bit-identical to unoptimized ones.

mod cse;
mod dce;
mod fold;
mod simplify;

pub use cse::Cse;
pub use dce::Dce;
pub use fold::ConstFold;
pub use simplify::Simplify;

use crate::ops::{AluOp, Value};
use crate::pass::PassManager;
use crate::table::ValueMap;
use crate::types::Ty;
use revet_sltf::Word;

/// Appends the classical optimization group for `opt_level` to `pm`: the
/// tail of the compiler's pipeline, and what the optimizer's property and
/// differential suites run.
///
/// Level ≥ 1 adds fold/simplify/DCE. Level ≥ 2 adds CSE, which opens new
/// fold/identity opportunities, and a second clean-up round behind it. CSE
/// may leave a constant in a region enclosing its uses; that costs nothing
/// downstream, because the dataflow lowering makes every constant an
/// immediate wherever it is read and never routes one through a link.
pub fn add_classical(pm: &mut PassManager, opt_level: u8) {
    if opt_level >= 1 {
        pm.add(ConstFold).add(Simplify).add(Dce);
    }
    if opt_level >= 2 {
        pm.add(Cse).add(ConstFold).add(Simplify).add(Dce);
    }
}

/// A literal `k` such that `ty.materialize(k)` equals `w`, if one exists.
/// (`None` when the computed word does not fit the declared storage width —
/// rewriting to a constant would change the program in that case.)
pub(crate) fn const_repr(w: Word, ty: Ty) -> Option<i64> {
    let k = w.as_u32() as i64;
    if ty.materialize(k) == w {
        Some(k)
    } else {
        None
    }
}

/// True for ALU ops where `op(a, b) == op(b, a)` for every pair of words —
/// CSE normalizes commutative operand order so `a+b` and `b+a` unify.
pub(crate) fn is_commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add
            | AluOp::Mul
            | AluOp::And
            | AluOp::Or
            | AluOp::Xor
            | AluOp::Eq
            | AluOp::Ne
            | AluOp::MinS
            | AluOp::MinU
            | AluOp::MaxS
            | AluOp::MaxU
    )
}

/// Resolves a value through a replacement map, following chains.
pub(crate) fn resolve(remap: &ValueMap<Value>, mut v: Value) -> Value {
    while let Some(&r) = remap.get(v) {
        v = r;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_masks_subwords() {
        assert_eq!(Ty::I8.materialize(0x1FF), Word(0xFF));
        assert_eq!(Ty::I16.materialize(-1), Word(0xFFFF));
        assert_eq!(Ty::I32.materialize(-1), Word(u32::MAX));
    }

    #[test]
    fn const_repr_round_trips() {
        assert_eq!(const_repr(Word(200), Ty::I8), Some(200));
        assert_eq!(
            const_repr(Word(300), Ty::I8),
            None,
            "does not fit i8 storage"
        );
        assert_eq!(const_repr(Word(u32::MAX), Ty::I32), Some(u32::MAX as i64));
    }

    #[test]
    fn remap_chains_resolve() {
        let mut m = ValueMap::new();
        m.insert(Value(3), Value(2));
        m.insert(Value(2), Value(1));
        assert_eq!(resolve(&m, Value(3)), Value(1));
        assert_eq!(resolve(&m, Value(5)), Value(5));
        assert_eq!(resolve(&m, Value(u32::MAX)), Value(u32::MAX));
    }
}
