//! Dead-code elimination.

use crate::analysis::Liveness;
use crate::ops::Region;
use crate::pass::{Pass, PassResult};
use crate::spans::SpanTable;
use crate::Module;

/// Deletes pure ops none of whose results are live, pruning the span-table
/// entries of every deleted value.
///
/// [`Liveness`] decides: a value is live when an undeletable op — a
/// terminator, a memory op, or any region-bearing op — transitively depends
/// on it. Because liveness is transitive, one sweep removes entire dead
/// chains.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        let mut changed = false;
        for f in &mut m.funcs {
            let live = Liveness::compute(f);
            sweep(&mut f.body, &live, &mut f.spans, &mut changed);
        }
        PassResult::of(changed)
    }
}

fn sweep(region: &mut Region, live: &Liveness, spans: &mut SpanTable, changed: &mut bool) {
    region.ops.retain_mut(|op| {
        for sub in op.kind.regions_mut() {
            sweep(sub, live, spans, changed);
        }
        let keep = !op.kind.is_pure() || op.results.iter().any(|v| live.is_live(*v));
        if !keep {
            for v in &op.results {
                spans.remove(*v);
            }
            *changed = true;
        }
        keep
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::ops::{AluOp, OpKind};
    use crate::pass::PassManager;
    use crate::{Func, Ty};
    use revet_diag::Span;

    #[test]
    fn removes_dead_chain_and_prunes_spans() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let d1 = b.bin(&mut f, AluOp::Add, p, p);
        let d2 = b.bin(&mut f, AluOp::Mul, d1, d1); // dead chain d1→d2
        let keep = b.bin(&mut f, AluOp::Add, p, p);
        b.emit0(OpKind::Return(vec![keep]));
        f.body = b.build();
        f.spans.set(d1, Span::new(0, 1));
        f.spans.set(d2, Span::new(2, 3));
        f.spans.set(keep, Span::new(4, 5));
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(Dce);
        let report = pm.run(&mut m);
        assert!(report.passes[0].changed);
        let f = m.func("main").unwrap();
        assert_eq!(f.body.ops.len(), 2, "dead chain gone, keep + return stay");
        assert_eq!(f.spans.get(d1), None);
        assert_eq!(f.spans.get(d2), None);
        assert_eq!(f.spans.get(keep), Some(Span::new(4, 5)));
        assert!(f.dangling_spans().is_empty());
    }

    #[test]
    fn memory_ops_survive_even_unused() {
        let mut m = Module::default();
        let d = m.add_dram("buf", 4);
        let mut f = Func::new("main", &[Ty::I32], vec![]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let r = b.emit(&mut f, OpKind::DramRead { dram: d, idx: p }, Ty::I32);
        let _ = r; // unused result, but the read must stay
        b.emit0(OpKind::Return(vec![]));
        f.body = b.build();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(Dce);
        let report = pm.run(&mut m);
        assert!(!report.passes[0].changed);
        assert_eq!(m.func("main").unwrap().body.ops.len(), 2);
    }

    #[test]
    fn dead_ops_inside_loop_bodies_are_swept() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let lo = b.const_i32(&mut f, 0);
        let step = b.const_i32(&mut f, 1);
        let idx = f.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![idx]);
        let dead = body.bin(&mut f, AluOp::Mul, idx, idx);
        let _ = dead;
        let kept = body.bin(&mut f, AluOp::Add, idx, idx);
        body.emit0(OpKind::Yield(vec![kept]));
        let sum = f.new_value(Ty::I32);
        b.push(
            OpKind::Foreach {
                lo,
                hi: p,
                step,
                body: body.build(),
                reduce: vec![AluOp::Add],
                flags: Default::default(),
            },
            vec![sum],
        );
        b.emit0(OpKind::Return(vec![sum]));
        f.body = b.build();
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(Dce);
        pm.run(&mut m);
        let f = m.func("main").unwrap();
        assert_eq!(f.count_ops(|k| matches!(k, OpKind::Bin(AluOp::Mul, ..))), 0);
        assert_eq!(f.count_ops(|k| matches!(k, OpKind::Bin(AluOp::Add, ..))), 1);
        crate::verify_module(&m).unwrap();
    }
}
