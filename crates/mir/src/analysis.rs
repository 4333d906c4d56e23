//! Per-function analyses. An analysis is a pure function of a [`Func`]
//! that owns its data (no borrows into the IR), so a pass may compute one
//! and then mutate the function.

use crate::func::Func;
use crate::ops::{Region, Value};

/// Which values the function's observable behavior depends on.
///
/// A value is *live* when it is (transitively) needed by an op that cannot
/// be deleted: a terminator, a memory operation, or any region-bearing op.
/// Dead-code elimination removes pure ops none of whose results are live.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    live: Vec<bool>,
}

impl Liveness {
    /// Computes liveness for `f`.
    ///
    /// Walks ops in reverse program order (uses strictly follow
    /// definitions in this IR, so one backward sweep reaches the fixpoint):
    /// non-pure ops seed their operands live; a pure op propagates liveness
    /// from its results to its operands.
    pub fn compute(f: &Func) -> Liveness {
        let mut a = Liveness {
            live: vec![false; f.value_count()],
        };
        // Guarded writes keep the analysis total even over modules that
        // would not verify (out-of-table value references) — analyses must
        // never panic before the driver's own verification can report.
        fn mark(live: &mut [bool], v: Value) {
            if let Some(s) = live.get_mut(v.0 as usize) {
                *s = true;
            }
        }
        fn go(r: &Region, live: &mut [bool]) {
            for op in r.ops.iter().rev() {
                if op.kind.is_pure() {
                    if op
                        .results
                        .iter()
                        .any(|v| live.get(v.0 as usize).copied().unwrap_or(false))
                    {
                        for v in op.kind.operands() {
                            mark(live, v);
                        }
                    }
                } else {
                    // Nested regions run "inside" the op: visit them first
                    // so their uses are seen before earlier defining ops.
                    for sub in op.kind.regions().rev() {
                        go(sub, live);
                    }
                    for v in op.kind.operands() {
                        mark(live, v);
                    }
                }
            }
        }
        go(&f.body, &mut a.live);
        a
    }

    /// True when the function's behavior (may) depend on `v`.
    pub fn is_live(&self, v: Value) -> bool {
        self.live.get(v.0 as usize).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::ops::{AluOp, OpKind};
    use crate::types::Ty;

    fn sample() -> Func {
        // p -> one = 1; dead = p + p; sum = p + one; return sum
        let mut f = Func::new("t", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let one = b.const_i32(&mut f, 1);
        let _dead = b.bin(&mut f, AluOp::Add, p, p);
        let sum = b.bin(&mut f, AluOp::Add, p, one);
        b.emit0(OpKind::Return(vec![sum]));
        f.body = b.build();
        f
    }

    #[test]
    fn liveness_skips_dead_pure_chain() {
        let f = sample();
        let lv = Liveness::compute(&f);
        assert!(lv.is_live(f.params[0]));
        assert!(lv.is_live(Value(1)), "one feeds the returned sum");
        assert!(!lv.is_live(Value(2)), "dead add result not live");
        assert!(lv.is_live(Value(3)));
    }
}
