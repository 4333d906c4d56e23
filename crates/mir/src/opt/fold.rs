//! Constant folding.

use super::const_repr;
use crate::ops::{OpKind, Region, Value};
use crate::pass::{Pass, PassResult};
use crate::table::ValueMap;
use crate::Module;
use revet_sltf::Word;

/// Folds pure ops whose operands are all known constants into `ConstI`.
///
/// Handles `Bin` (via the machine's total ALU semantics — division by zero
/// folds to 0 exactly as the hardware defines), fully-constant `Select`,
/// and `Cast`. A fold is only applied when the resulting constant
/// materializes bit-identically under the result's declared type; folds
/// that would not round-trip (e.g. a 32-bit result assigned to an `I8`
/// value) are skipped.
///
/// Rewrites ops in place (result values keep their ids, so span-table
/// attribution survives); never deletes anything.
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &str {
        "const_fold"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        let mut changed = false;
        for f in &mut m.funcs {
            // Value ids are unique function-wide, so one flat map of known
            // constants is sound across all regions: a value defined by a
            // `ConstI` holds that word on every execution path reaching a
            // use.
            let mut known = ValueMap::with_capacity(f.value_count());
            let tys: Vec<_> = (0..f.value_count())
                .map(|i| f.ty(Value(i as u32)))
                .collect();
            fold_region(&mut f.body, &mut known, &tys, &mut changed);
        }
        PassResult::of(changed)
    }
}

fn fold_region(r: &mut Region, known: &mut ValueMap<Word>, tys: &[crate::Ty], changed: &mut bool) {
    for op in &mut r.ops {
        let folded: Option<Word> = match &op.kind {
            OpKind::ConstI(v, ty) => {
                known.insert(op.results[0], ty.materialize(*v));
                None
            }
            OpKind::Bin(alu, a, b) => match (known.get(*a), known.get(*b)) {
                (Some(&wa), Some(&wb)) => Some(alu.apply(wa, wb)),
                _ => None,
            },
            OpKind::Select(c, t, e) => match (known.get(*c), known.get(*t), known.get(*e)) {
                (Some(&wc), Some(&wt), Some(&we)) => Some(if wc.as_bool() { wt } else { we }),
                _ => None,
            },
            OpKind::Cast { v, to, signed } => known.get(*v).map(|&w| to.narrow(w, *signed)),
            _ => None,
        };
        if let Some(w) = folded {
            let res = op.results[0];
            let ty = tys[res.0 as usize];
            if let Some(k) = const_repr(w, ty) {
                op.kind = OpKind::ConstI(k, ty);
                known.insert(res, w);
                *changed = true;
            }
        }
        for sub in op.kind.regions_mut() {
            fold_region(sub, known, tys, changed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::ops::AluOp;
    use crate::pass::PassManager;
    use crate::{Func, Ty};

    fn run(f: Func) -> Module {
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(ConstFold);
        let report = pm.run(&mut m);
        assert!(report.passes[0].changed);
        m
    }

    #[test]
    fn folds_constant_chain() {
        let mut f = Func::new("main", &[], vec![Ty::I32]);
        let mut b = RegionBuilder::new();
        let two = b.const_i32(&mut f, 2);
        let three = b.const_i32(&mut f, 3);
        let sum = b.bin(&mut f, AluOp::Add, two, three); // 5
        let sq = b.bin(&mut f, AluOp::Mul, sum, sum); // 25
        b.emit0(OpKind::Return(vec![sq]));
        f.body = b.build();
        let m = run(f);
        let f = m.func("main").unwrap();
        assert_eq!(
            f.count_ops(|k| matches!(k, OpKind::Bin(..))),
            0,
            "both bins folded"
        );
        assert!(f
            .body
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::ConstI(25, _))));
    }

    #[test]
    fn div_by_zero_folds_to_machine_zero() {
        let mut f = Func::new("main", &[], vec![Ty::I32]);
        let mut b = RegionBuilder::new();
        let x = b.const_i32(&mut f, 7);
        let z = b.const_i32(&mut f, 0);
        let q = b.bin(&mut f, AluOp::DivS, x, z);
        b.emit0(OpKind::Return(vec![q]));
        f.body = b.build();
        let m = run(f);
        assert!(m
            .func("main")
            .unwrap()
            .body
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::ConstI(0, _))));
    }

    #[test]
    fn non_round_trip_fold_is_skipped() {
        // 200 + 200 = 400 does not fit an I8-typed result; must not fold.
        let mut f = Func::new("main", &[], vec![Ty::I32]);
        let mut b = RegionBuilder::new();
        let a = b.const_i32(&mut f, 200);
        let sum = f.new_value(Ty::I8);
        b.push(OpKind::Bin(AluOp::Add, a, a), vec![sum]);
        let wide = b.bin(&mut f, AluOp::Add, sum, a);
        b.emit0(OpKind::Return(vec![wide]));
        f.body = b.build();
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(ConstFold);
        pm.run(&mut m);
        let f = m.func("main").unwrap();
        assert!(
            f.body
                .ops
                .iter()
                .any(|o| matches!(o.kind, OpKind::Bin(AluOp::Add, ..)) && o.results[0] == sum),
            "I8-typed 400 must stay unfolded"
        );
    }

    #[test]
    fn folds_inside_nested_regions() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let two = b.const_i32(&mut f, 2);
        let mut tb = RegionBuilder::new();
        let four = tb.bin(&mut f, AluOp::Mul, two, two);
        tb.emit0(OpKind::Yield(vec![four]));
        let mut eb = RegionBuilder::new();
        eb.emit0(OpKind::Yield(vec![two]));
        let res = f.new_value(Ty::I32);
        b.push(
            OpKind::If {
                cond: p,
                then: tb.build(),
                else_: eb.build(),
            },
            vec![res],
        );
        b.emit0(OpKind::Return(vec![res]));
        f.body = b.build();
        let m = run(f);
        assert_eq!(
            m.func("main")
                .unwrap()
                .count_ops(|k| matches!(k, OpKind::Bin(..))),
            0
        );
    }
}
