//! Constant sinking (rematerialization) into nested regions.

use crate::ops::{Op, OpKind, Region, Value};
use crate::pass::{Pass, PassResult};
use crate::{Func, Module, Ty};
use std::collections::{HashMap, HashSet};

/// Rematerializes constants inside the nested regions that use them, so a
/// region never has a *free use* of a constant defined in an enclosing
/// region.
///
/// Why this matters: the dataflow lowering turns every free use of a
/// nested region into routed bandwidth — while loops thread it through the
/// recirculating loop tuple (widening the packed backedge and adding an
/// exit-side reorder), foreach/replicate bodies broadcast it per element
/// or lane. A constant costs nothing to recompute locally, so threading
/// one through a loop is pure overhead. The frontend naturally emits
/// constants at their use sites, but [`super::Cse`] — which treats
/// enclosing-region expressions as available inside — merges those copies
/// upward, silently converting "free" constants into loop-carried state.
/// This pass runs after CSE and reverses exactly that effect across region
/// boundaries (one copy *per region* is kept: sunk constants are still
/// deduplicated within each region); the trailing DCE deletes enclosing
/// definitions that lose their last use.
pub struct SinkConsts;

impl Pass for SinkConsts {
    fn name(&self) -> &str {
        "sink_consts"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        let mut changed = false;
        for f in &mut m.funcs {
            let mut consts: HashMap<Value, (i64, Ty)> = HashMap::new();
            collect_consts(&f.body, &mut consts);
            if consts.is_empty() {
                continue;
            }
            let mut body = std::mem::take(&mut f.body);
            sink_region(&mut body, f, &mut consts, &mut changed);
            f.body = body;
        }
        PassResult::of(changed)
    }
}

fn collect_consts(region: &Region, consts: &mut HashMap<Value, (i64, Ty)>) {
    for op in &region.ops {
        if let OpKind::ConstI(v, ty) = op.kind {
            consts.insert(op.results[0], (v, ty));
        }
        for sub in op.kind.regions() {
            collect_consts(sub, consts);
        }
    }
}

/// Values defined inside `region`: its block arguments plus every op
/// result, recursively through nested regions.
fn collect_defined(region: &Region, defined: &mut HashSet<Value>) {
    defined.extend(region.args.iter().copied());
    for op in &region.ops {
        defined.extend(op.results.iter().copied());
        for sub in op.kind.regions() {
            collect_defined(sub, defined);
        }
    }
}

/// Every operand used inside `region`, recursively, in first-use order.
fn collect_used(region: &Region, used: &mut Vec<Value>) {
    for op in &region.ops {
        used.extend(op.kind.operands());
        for sub in op.kind.regions() {
            collect_used(sub, used);
        }
    }
}

fn remap_uses(region: &mut Region, map: &HashMap<Value, Value>) {
    for op in &mut region.ops {
        op.kind
            .map_operands(&mut |v| map.get(&v).copied().unwrap_or(v));
        for sub in op.kind.regions_mut() {
            remap_uses(sub, map);
        }
    }
}

fn sink_region(
    region: &mut Region,
    f: &mut Func,
    consts: &mut HashMap<Value, (i64, Ty)>,
    changed: &mut bool,
) {
    for op in &mut region.ops {
        for sub in op.kind.regions_mut() {
            let mut defined = HashSet::new();
            collect_defined(sub, &mut defined);
            let mut used = Vec::new();
            collect_used(sub, &mut used);
            let mut map: HashMap<Value, Value> = HashMap::new();
            let mut locals: Vec<Op> = Vec::new();
            for v in used {
                if defined.contains(&v) || map.contains_key(&v) {
                    continue;
                }
                let Some(&(k, ty)) = consts.get(&v) else {
                    continue;
                };
                let fresh = f.new_value(ty);
                locals.push(Op {
                    kind: OpKind::ConstI(k, ty),
                    results: vec![fresh],
                });
                map.insert(v, fresh);
                consts.insert(fresh, (k, ty));
            }
            if !map.is_empty() {
                remap_uses(sub, &map);
                sub.ops.splice(0..0, locals);
                *changed = true;
            }
            // Descend: a sub-sub-region now freely uses this region's
            // local copy and gets its own in turn.
            sink_region(sub, f, consts, changed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::ops::AluOp;
    use crate::pass::PassManager;
    use crate::types::DramLayout;
    use crate::{Dce, Interp, Module};
    use revet_machine::MemoryState;
    use revet_sltf::Word;

    /// Builds `while (p, 0) { cond: iter > 10 } do { yield iter - 10,
    /// acc + 1 }` with the `10` defined once in the func body — the shape
    /// CSE leaves behind when it hoists region-local constants.
    fn while_with_outer_const() -> Module {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let c = b.const_i32(&mut f, 10);
        let zero = b.const_i32(&mut f, 0);
        let (iter, acc) = (f.new_value(Ty::I32), f.new_value(Ty::I32));
        let mut before = RegionBuilder::with_args(vec![iter, acc]);
        let cond = before.bin(&mut f, AluOp::GtU, iter, c);
        before.emit0(OpKind::Condition {
            cond,
            fwd: vec![iter, acc],
        });
        let (bi, ba) = (f.new_value(Ty::I32), f.new_value(Ty::I32));
        let mut after = RegionBuilder::with_args(vec![bi, ba]);
        let next = after.bin(&mut f, AluOp::Sub, bi, c);
        let one = after.const_i32(&mut f, 1);
        let bumped = after.bin(&mut f, AluOp::Add, ba, one);
        after.emit0(OpKind::Yield(vec![next, bumped]));
        let (r0, r1) = (f.new_value(Ty::I32), f.new_value(Ty::I32));
        b.push(
            OpKind::While {
                inits: vec![p, zero],
                before: before.build(),
                after: after.build(),
            },
            vec![r0, r1],
        );
        let sum = b.bin(&mut f, AluOp::Add, r0, r1);
        b.emit0(OpKind::Return(vec![sum]));
        f.body = b.build();
        let mut m = Module::default();
        m.funcs.push(f);
        m
    }

    fn interpret(m: &Module, arg: u32) -> Vec<Word> {
        let layout = DramLayout::default();
        let mut mem = MemoryState::default();
        Interp::new(m, &layout, &mut mem)
            .run("main", &[Word(arg)])
            .unwrap()
    }

    #[test]
    fn outer_const_is_rematerialized_per_region() {
        let mut m = while_with_outer_const();
        let mut pm = PassManager::new();
        pm.add(SinkConsts).add(Dce);
        pm.run(&mut m);
        crate::verify_module(&m).unwrap();
        let f = m.func("main").unwrap();
        let while_op = f
            .body
            .ops
            .iter()
            .find(|o| matches!(o.kind, OpKind::While { .. }))
            .unwrap();
        let OpKind::While { before, after, .. } = &while_op.kind else {
            unreachable!()
        };
        let has_ten = |r: &Region| {
            r.ops
                .iter()
                .any(|o| matches!(o.kind, OpKind::ConstI(10, Ty::I32)))
        };
        assert!(has_ten(before), "condition region gets its own copy");
        assert!(has_ten(after), "body region gets its own copy");
        // The enclosing `10` lost its last use and died in DCE (the `0`
        // stays: it is a while *init*, used by the op in the outer region).
        assert!(
            !has_ten(&f.body),
            "enclosing const must be dead after sinking"
        );
        // No sub-region freely uses a constant defined outside it anymore.
        let mut consts = HashMap::new();
        collect_consts(&f.body, &mut consts);
        for op in &f.body.ops {
            for sub in op.kind.regions() {
                let mut defined = HashSet::new();
                collect_defined(sub, &mut defined);
                let mut used = Vec::new();
                collect_used(sub, &mut used);
                for v in used {
                    assert!(
                        defined.contains(&v) || !consts.contains_key(&v),
                        "free const use of %{} survived sinking",
                        v.0
                    );
                }
            }
        }
    }

    #[test]
    fn sinking_round_trips_interpreted_results() {
        let m0 = while_with_outer_const();
        let base = interpret(&m0, 137);
        let mut m = while_with_outer_const();
        let mut pm = PassManager::new();
        pm.add(SinkConsts).add(Dce);
        pm.run(&mut m);
        crate::verify_module(&m).unwrap();
        assert_eq!(interpret(&m, 137), base);
    }

    #[test]
    fn const_only_used_outside_stays_put() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let c = b.const_i32(&mut f, 3);
        let s = b.bin(&mut f, AluOp::Add, p, c);
        b.emit0(OpKind::Return(vec![s]));
        f.body = b.build();
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(SinkConsts);
        let report = pm.run(&mut m);
        assert!(
            !report.passes.iter().any(|p| p.changed),
            "nothing to sink in a flat function"
        );
    }
}
