//! Local (scoped) common-subexpression elimination.

use super::{is_commutative, resolve};
use crate::ops::{AluOp, OpKind, Region, Value};
use crate::pass::{Pass, PassResult};
use crate::spans::SpanTable;
use crate::table::ValueMap;
use crate::{Module, Ty};
use std::collections::HashMap;

/// Deduplicates pure ops (`const`/`bin`/`select`/`cast`) within each
/// region's scope.
///
/// Availability is *scoped*: the available-expression map is cloned when
/// descending into a nested region, so an expression computed inside one
/// `if` arm is never reused in the sibling arm (its value would not be in
/// scope there), while expressions from enclosing regions remain reusable
/// inside. Commutative operands are order-normalized so `a+b` unifies with
/// `b+a`. Duplicate ops are deleted on the spot and their span entries
/// pruned; uses are remapped to the surviving value (declared types must
/// match).
///
/// Exception: availability does **not** flow into the regions of a
/// `while` op. The dataflow lowering threads every non-constant free use
/// of a loop through the packed loop tuple, recirculating it on every
/// iteration, so replacing a region-local `bin`/`select`/`cast` with a
/// reference to an enclosing value is a pessimization there, not a win
/// (measured as a double-digit executor step regression on the while-heavy
/// evaluation apps). The rule covers constants too, though they never pay
/// that cost: the lowering makes a constant an immediate wherever it is
/// read, so a merged `const` never rides the tuple. Every other region keeps
/// inherited availability: `if` arms route it through cheap filters, and
/// `foreach`, `replicate` and `fork` bodies receive it like any other free
/// use.
pub struct Cse;

/// True when `kind`'s sub-regions recirculate their free uses under
/// dataflow lowering (see the scoping exception above).
fn isolates_availability(kind: &OpKind) -> bool {
    matches!(kind, OpKind::While { .. })
}

impl Pass for Cse {
    fn name(&self) -> &str {
        "cse"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        let mut changed = false;
        for f in &mut m.funcs {
            let tys: Vec<_> = (0..f.value_count())
                .map(|i| f.ty(Value(i as u32)))
                .collect();
            let mut remap = ValueMap::with_capacity(f.value_count());
            let (body, spans) = (&mut f.body, &mut f.spans);
            cse_region(body, &HashMap::new(), &mut remap, spans, &tys, &mut changed);
        }
        PassResult::of(changed)
    }
}

/// A normalized pure computation, used as the availability key. Its map
/// stays on `std`'s seeded hashing: the key holds source constants, which a
/// remote client chooses.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(i64, Ty),
    Bin(AluOp, Value, Value),
    Select(Value, Value, Value),
    Cast(Value, Ty, bool),
}

fn key_of(kind: &OpKind) -> Option<Key> {
    Some(match *kind {
        OpKind::ConstI(v, ty) => Key::Const(v, ty),
        OpKind::Bin(alu, a, b) => {
            let (a, b) = if is_commutative(alu) && b < a {
                (b, a)
            } else {
                (a, b)
            };
            Key::Bin(alu, a, b)
        }
        OpKind::Select(c, t, e) => Key::Select(c, t, e),
        OpKind::Cast { v, to, signed } => Key::Cast(v, to, signed),
        _ => return None,
    })
}

fn cse_region(
    region: &mut Region,
    inherited: &HashMap<Key, Value>,
    remap: &mut ValueMap<Value>,
    spans: &mut SpanTable,
    tys: &[Ty],
    changed: &mut bool,
) {
    let mut avail = inherited.clone();
    // In place: CSE only drops ops, so the region keeps its buffer.
    region.ops.retain_mut(|op| {
        op.kind.map_operands(&mut |v| resolve(remap, v));
        if op.kind.is_pure() {
            let r = op.results[0];
            if let Some(key) = key_of(&op.kind) {
                if let Some(&prev) = avail.get(&key) {
                    if tys[prev.0 as usize] == tys[r.0 as usize] {
                        // Duplicate: drop the op, redirect uses, and keep
                        // the side-table free of the deleted value.
                        remap.insert(r, prev);
                        if let Some(span) = spans.remove(r) {
                            spans.set_if_absent(prev, span);
                        }
                        *changed = true;
                        return false;
                    }
                }
                avail.insert(key, r);
            }
        }
        let empty;
        let inherited_by_sub: &HashMap<Key, Value> = if isolates_availability(&op.kind) {
            empty = HashMap::new();
            &empty
        } else {
            &avail
        };
        for sub in op.kind.regions_mut() {
            cse_region(sub, inherited_by_sub, remap, spans, tys, changed);
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::pass::PassManager;
    use crate::{Func, Module};
    use revet_diag::Span;

    fn run(f: Func) -> Module {
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(Cse);
        pm.run(&mut m);
        m
    }

    #[test]
    fn dedups_commutative_and_consts() {
        let mut f = Func::new("main", &[Ty::I32, Ty::I32], vec![Ty::I32]);
        let (p, q) = (f.params[0], f.params[1]);
        let mut b = RegionBuilder::new();
        let c1 = b.const_i32(&mut f, 42);
        let c2 = b.const_i32(&mut f, 42);
        let s1 = b.bin(&mut f, AluOp::Add, p, q);
        let s2 = b.bin(&mut f, AluOp::Add, q, p); // commutes with s1
        let t = b.bin(&mut f, AluOp::Mul, s1, s2);
        let u = b.bin(&mut f, AluOp::Add, t, c1);
        let w = b.bin(&mut f, AluOp::Add, u, c2);
        b.emit0(OpKind::Return(vec![w]));
        f.body = b.build();
        f.spans.set(s2, Span::new(5, 9));
        let m = run(f);
        let f = m.func("main").unwrap();
        assert_eq!(f.count_ops(|k| matches!(k, OpKind::ConstI(..))), 1);
        // s2 deleted; t = s1 * s1.
        assert!(f
            .body
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::Bin(AluOp::Mul, a, b) if a == s1 && b == s1)));
        assert_eq!(f.spans.get(s2), None, "deleted value's span pruned");
        assert_eq!(f.spans.get(s1), Some(Span::new(5, 9)), "span transferred");
        assert!(f.dangling_spans().is_empty());
    }

    #[test]
    fn sibling_regions_do_not_share_availability() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let mut tb = RegionBuilder::new();
        let t1 = tb.bin(&mut f, AluOp::Mul, p, p);
        tb.emit0(OpKind::Yield(vec![t1]));
        let mut eb = RegionBuilder::new();
        let e1 = eb.bin(&mut f, AluOp::Mul, p, p); // same expr, other arm
        eb.emit0(OpKind::Yield(vec![e1]));
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
            2,
            "an if-arm expression must not be reused in the sibling arm"
        );
        crate::verify_module(&m).unwrap();
    }

    #[test]
    fn enclosing_expression_reused_inside_region() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let outer = b.bin(&mut f, AluOp::Mul, p, p);
        let mut tb = RegionBuilder::new();
        let inner = tb.bin(&mut f, AluOp::Mul, p, p); // dup of outer
        let sum = tb.bin(&mut f, AluOp::Add, inner, outer);
        tb.emit0(OpKind::Yield(vec![sum]));
        let mut eb = RegionBuilder::new();
        eb.emit0(OpKind::Yield(vec![p]));
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
        let f = m.func("main").unwrap();
        assert_eq!(f.count_ops(|k| matches!(k, OpKind::Bin(AluOp::Mul, ..))), 1);
        // The add now uses the outer value twice.
        assert_eq!(
            f.count_ops(
                |k| matches!(k, OpKind::Bin(AluOp::Add, a, b) if *a == outer && *b == outer)
            ),
            1
        );
        crate::verify_module(&m).unwrap();
    }

    #[test]
    fn availability_flows_into_foreach_but_not_while() {
        // outer = p*p; a foreach body and a while body each recompute p*p.
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let outer = b.bin(&mut f, AluOp::Mul, p, p);
        let zero = b.const_i32(&mut f, 0);
        let one = b.const_i32(&mut f, 1);

        let i = f.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![i]);
        let in_foreach = body.bin(&mut f, AluOp::Mul, p, p);
        let term = body.bin(&mut f, AluOp::Add, in_foreach, i);
        body.emit0(OpKind::Yield(vec![term]));
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

        let cv = f.new_value(Ty::I32);
        let mut before = RegionBuilder::with_args(vec![cv]);
        let cond = before.bin(&mut f, AluOp::LtU, cv, p);
        before.emit0(OpKind::Condition {
            cond,
            fwd: vec![cv],
        });
        let av = f.new_value(Ty::I32);
        let mut after = RegionBuilder::with_args(vec![av]);
        let in_while = after.bin(&mut f, AluOp::Mul, p, p);
        let next = after.bin(&mut f, AluOp::Add, av, in_while);
        after.emit0(OpKind::Yield(vec![next]));
        let last = f.new_value(Ty::I32);
        b.push(
            OpKind::While {
                inits: vec![zero],
                before: before.build(),
                after: after.build(),
            },
            vec![last],
        );
        let partial = b.bin(&mut f, AluOp::Add, outer, sum);
        let total = b.bin(&mut f, AluOp::Add, partial, last);
        b.emit0(OpKind::Return(vec![total]));
        f.body = b.build();

        let m = run(f);
        crate::verify_module(&m).unwrap();
        let f = m.func("main").unwrap();
        assert_eq!(
            f.count_ops(|k| matches!(k, OpKind::Bin(AluOp::Mul, ..))),
            2,
            "the foreach body's p*p is reused, the while body's is not"
        );
        let uses = |v: Value, w: Value| {
            f.count_ops(|k| matches!(k, OpKind::Bin(AluOp::Add, a, b) if *a == v && *b == w))
        };
        assert_eq!(uses(outer, i), 1, "the foreach body adds the outer p*p");
        assert_eq!(uses(av, in_while), 1, "the while body keeps its own");
    }
}
