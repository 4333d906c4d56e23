//! Constant sinking (rematerialization) into nested regions.

use crate::ops::{Op, OpKind, Region, Value};
use crate::pass::{Pass, PassResult};
use crate::table::ValueMap;
use crate::{Func, Module, Ty};
use std::ops::Range;

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
///
/// Two linear walks: the first numbers the regions in pre-order and lists,
/// per region, the constants it uses from outside itself in first-use
/// order; the second gives each region its copies, in the same order, and
/// redirects its own ops' operands to them. (Re-walking each sub-region's
/// subtree at every nesting level instead would walk an op at depth d d
/// times.)
pub struct SinkConsts;

impl Pass for SinkConsts {
    fn name(&self) -> &str {
        "sink_consts"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        let mut changed = false;
        for f in &mut m.funcs {
            let free = FreeConsts::of(&f.body);
            // With no region using a constant from outside itself, there is
            // nothing to copy; otherwise some region gets a copy.
            if free.lists.is_empty() {
                continue;
            }
            let mut body = std::mem::take(&mut f.body);
            let copy = ValueMap::new();
            Sink {
                free,
                copy,
                next: 0,
            }
            .region(&mut body, f);
            f.body = body;
            changed = true;
        }
        PassResult::of(changed)
    }
}

/// One `ConstI` of the function, by its result.
struct Const {
    k: i64,
    ty: Ty,
    /// The pre-order number of the region defining it.
    region: u32,
    /// The last region whose list took it (dedups a list as it is built).
    taken: u32,
}

/// One region's row, by its pre-order number (the function body is 0).
struct Row {
    /// Its free constants: where in [`FreeConsts::lists`] they are.
    free: Range<usize>,
    /// The number of the next region after its subtree.
    end: u32,
}

/// Every region's *free constants* — the constants used in it (nested
/// regions included) and defined outside it — in first-use order.
///
/// A value used in a region is defined there or in an enclosing region, and
/// every enclosing region precedes it in pre-order: so a constant is free
/// in region `r` exactly when its defining region's number is below `r`.
struct FreeConsts {
    consts: ValueMap<Const>,
    rows: Vec<Row>,
    lists: Vec<Value>,
}

impl FreeConsts {
    fn of(body: &Region) -> FreeConsts {
        let mut free = FreeConsts {
            consts: ValueMap::new(),
            rows: Vec::new(),
            lists: Vec::new(),
        };
        free.fill(body);
        free
    }

    /// Numbers `region` and its subtree, and lists the free constants of
    /// each: a region's list is its own ops' operands merged, op by op,
    /// with its sub-regions' lists.
    fn fill(&mut self, region: &Region) {
        let r = self.rows.len() as u32;
        self.rows.push(Row { free: 0..0, end: 0 });
        for op in &region.ops {
            if let OpKind::ConstI(k, ty) = op.kind {
                let c = Const {
                    k,
                    ty,
                    region: r,
                    taken: u32::MAX,
                };
                self.consts.insert(op.results[0], c);
            }
            for sub in op.kind.regions() {
                self.fill(sub);
            }
        }
        let start = self.lists.len();
        let mut sub = r + 1;
        for op in &region.ops {
            for v in op.kind.operands() {
                self.take(v, r);
            }
            for _ in op.kind.regions() {
                for i in self.rows[sub as usize].free.clone() {
                    self.take(self.lists[i], r);
                }
                sub = self.rows[sub as usize].end;
            }
        }
        let row = &mut self.rows[r as usize];
        row.free = start..self.lists.len();
        row.end = sub;
    }

    /// Appends `v` to region `r`'s list if it is a constant free in `r`
    /// that the list does not hold yet.
    fn take(&mut self, v: Value, r: u32) {
        if let Some(c) = self.consts.get_mut(v) {
            if c.region < r && c.taken != r {
                c.taken = r;
                self.lists.push(v);
            }
        }
    }
}

/// The rewrite, in the same pre-order as [`FreeConsts::fill`].
struct Sink {
    free: FreeConsts,
    /// Each free constant's copy in the region being rewritten. A stale
    /// entry is never read: an earlier region's constants are all defined
    /// before it, so a later region either copies them too or cannot use
    /// them.
    copy: ValueMap<Value>,
    /// The pre-order number of the next region.
    next: u32,
}

impl Sink {
    fn region(&mut self, region: &mut Region, f: &mut Func) {
        let row = &self.free.rows[self.next as usize];
        let list = &self.free.lists[row.free.clone()];
        self.next += 1;
        if !list.is_empty() {
            let mut locals = Vec::with_capacity(list.len());
            for &v in list {
                let c = &self.free.consts[v];
                let fresh = f.new_value(c.ty);
                locals.push(Op {
                    kind: OpKind::ConstI(c.k, c.ty),
                    results: vec![fresh],
                });
                self.copy.insert(v, fresh);
            }
            let copy = &self.copy;
            for op in &mut region.ops {
                op.kind
                    .map_operands(&mut |v| copy.get(v).copied().unwrap_or(v));
            }
            region.ops.splice(0..0, locals);
        }
        for op in &mut region.ops {
            for sub in op.kind.regions_mut() {
                self.region(sub, f);
            }
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
        let free = FreeConsts::of(&f.body);
        assert_eq!(free.rows.len(), 3, "body, before, after");
        assert!(free.lists.is_empty(), "free const uses survived sinking");
    }

    /// `foreach (p) { i => if i { yield 9 * 7 } else { yield 7 } + 9 }`,
    /// with the `7` and `9` defined once in the func body.
    fn nested_outer_consts() -> Module {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let (zero, one) = (b.const_i32(&mut f, 0), b.const_i32(&mut f, 1));
        let (c7, c9) = (b.const_i32(&mut f, 7), b.const_i32(&mut f, 9));
        let i = f.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![i]);
        let mut then = RegionBuilder::new();
        let a = then.bin(&mut f, AluOp::Mul, c9, c7);
        let r = body.if_else(&mut f, i, then, a, c7);
        let y = body.bin(&mut f, AluOp::Add, r, c9);
        body.emit0(OpKind::Yield(vec![y]));
        let sum = f.new_value(Ty::I32);
        b.push(
            OpKind::Foreach {
                lo: zero,
                hi: p,
                step: one,
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
        m
    }

    #[test]
    fn each_nesting_level_copies_in_first_use_order() {
        let mut m = nested_outer_consts();
        let n = m.funcs[0].value_count() as u32;
        let base = interpret(&m, 5);
        let mut pm = PassManager::new();
        pm.add(SinkConsts);
        assert!(pm.run(&mut m).passes[0].changed);
        crate::verify_module(&m).unwrap();
        assert_eq!(interpret(&m, 5), base);
        let f = m.func("main").unwrap();
        assert_eq!(f.value_count() as u32, n + 5);
        let consts = |r: &Region| -> Vec<(i64, Value)> {
            r.ops
                .iter()
                .filter_map(|o| match o.kind {
                    OpKind::ConstI(k, _) => Some((k, o.results[0])),
                    _ => None,
                })
                .collect()
        };
        let OpKind::Foreach { body, .. } = &f.body.ops[4].kind else {
            panic!("foreach expected")
        };
        // The body's first use of either constant is the `9` inside the
        // `then` arm; the arms then copy the body's copies.
        assert_eq!(consts(body), [(9, Value(n)), (7, Value(n + 1))]);
        let OpKind::If { then, else_, .. } = &body.ops[2].kind else {
            panic!("if expected")
        };
        assert_eq!(consts(then), [(9, Value(n + 2)), (7, Value(n + 3))]);
        assert_eq!(consts(else_), [(7, Value(n + 4))]);
        assert!(matches!(
            then.ops[2].kind,
            OpKind::Bin(AluOp::Mul, a, b) if a == Value(n + 2) && b == Value(n + 3)
        ));
        assert!(matches!(
            body.ops[3].kind,
            OpKind::Bin(AluOp::Add, _, b) if b == Value(n)
        ));
        assert!(FreeConsts::of(&f.body).lists.is_empty());
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
