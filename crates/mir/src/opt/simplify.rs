//! Algebraic identity and select simplification.

use super::{const_repr, resolve};
use crate::ops::{AluOp, OpKind, Region, Value};
use crate::pass::{Pass, PassResult};
use crate::table::ValueMap;
use crate::{Module, Ty};
use revet_sltf::Word;

/// Strength-reduces pure ops using algebraic identities:
///
/// - `x+0`, `x-0`, `x*1`, `x/1`, `x|0`, `x^0`, `x<<0`, `x>>0`, `x&x`,
///   `x|x`, `min(x,x)`, `max(x,x)` → `x` (uses remapped to the operand),
/// - `x-x`, `x^x`, `x*0`, `x&0`, `x%1`, and self-comparisons → a constant,
/// - `select(c, t, t)` → `t`; `select(const c, t, e)` → the taken arm.
///
/// A use-remap is only installed when the declared types of the result and
/// the replacement value match (the subword packer keys on declared types);
/// bypassed ops are left in place for the DCE sweep that follows in the
/// pipeline.
pub struct Simplify;

impl Pass for Simplify {
    fn name(&self) -> &str {
        "simplify"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        let mut changed = false;
        for f in &mut m.funcs {
            let tys: Vec<_> = (0..f.value_count())
                .map(|i| f.ty(Value(i as u32)))
                .collect();
            let mut cx = Cx {
                known: ValueMap::with_capacity(tys.len()),
                remap: ValueMap::with_capacity(tys.len()),
                tys,
                changed: false,
            };
            simplify_region(&mut f.body, &mut cx);
            changed |= cx.changed;
        }
        PassResult::of(changed)
    }
}

struct Cx {
    known: ValueMap<Word>,
    remap: ValueMap<Value>,
    tys: Vec<Ty>,
    changed: bool,
}

impl Cx {
    fn ty(&self, v: Value) -> Ty {
        self.tys[v.0 as usize]
    }

    /// Installs `r → v` when the declared types agree.
    fn try_remap(&mut self, r: Value, v: Value) -> bool {
        if self.ty(r) == self.ty(v) {
            let target = resolve(&self.remap, v);
            self.remap.insert(r, target);
            true
        } else {
            false
        }
    }

    fn word(&self, v: Value) -> Option<Word> {
        self.known.get(v).copied()
    }
}

/// The constant replacement for ops that simplify to a literal, if the
/// literal round-trips through the result's declared type.
fn to_const(cx: &Cx, r: Value, w: Word) -> Option<OpKind> {
    let ty = cx.ty(r);
    const_repr(w, ty).map(|k| OpKind::ConstI(k, ty))
}

fn simplify_region(region: &mut Region, cx: &mut Cx) {
    for op in &mut region.ops {
        // A remap changes the IR where a use is redirected, not where it
        // is installed: a bypassed op nothing uses stays as it is.
        op.kind.map_operands(&mut |v| {
            let to = resolve(&cx.remap, v);
            cx.changed |= to != v;
            to
        });
        match &op.kind {
            OpKind::ConstI(v, ty) => {
                cx.known.insert(op.results[0], ty.materialize(*v));
            }
            OpKind::Bin(alu, a, b) => {
                let r = op.results[0];
                let (a, b) = (*a, *b);
                let (wa, wb) = (cx.word(a), cx.word(b));
                if let Some(OpKind::ConstI(v, ty)) = simplify_bin(cx, r, *alu, a, b, wa, wb) {
                    cx.known.insert(r, ty.materialize(v));
                    op.kind = OpKind::ConstI(v, ty);
                    cx.changed = true;
                }
            }
            OpKind::Select(c, t, e) => {
                let r = op.results[0];
                let (c, t, e) = (*c, *t, *e);
                if t == e {
                    cx.try_remap(r, t);
                } else if let Some(wc) = cx.word(c) {
                    cx.try_remap(r, if wc.as_bool() { t } else { e });
                }
            }
            _ => {}
        }
        for sub in op.kind.regions_mut() {
            simplify_region(sub, cx);
        }
    }
}

/// Applies binary identities. Remaps are installed directly on `cx`;
/// constant rewrites are returned for the caller to install (so it can
/// update the known-constants map too).
fn simplify_bin(
    cx: &mut Cx,
    r: Value,
    alu: AluOp,
    a: Value,
    b: Value,
    wa: Option<Word>,
    wb: Option<Word>,
) -> Option<OpKind> {
    let zero = |cx: &Cx| to_const(cx, r, Word(0));
    let one = |cx: &Cx| to_const(cx, r, Word(1));
    let a_zero = wa == Some(Word(0));
    let b_zero = wb == Some(Word(0));
    let a_one = wa == Some(Word(1));
    let b_one = wb == Some(Word(1));
    match alu {
        AluOp::Add => {
            if b_zero {
                cx.try_remap(r, a);
            } else if a_zero {
                cx.try_remap(r, b);
            }
            None
        }
        AluOp::Sub => {
            if a == b {
                return zero(cx);
            }
            if b_zero {
                cx.try_remap(r, a);
            }
            None
        }
        AluOp::Mul => {
            if a_zero || b_zero {
                return zero(cx);
            }
            if b_one {
                cx.try_remap(r, a);
            } else if a_one {
                cx.try_remap(r, b);
            }
            None
        }
        AluOp::DivS | AluOp::DivU => {
            if b_one {
                cx.try_remap(r, a);
            }
            None
        }
        AluOp::RemS | AluOp::RemU => {
            if b_one {
                return zero(cx);
            }
            None
        }
        AluOp::And => {
            if a_zero || b_zero {
                return zero(cx);
            }
            if a == b {
                cx.try_remap(r, a);
            }
            None
        }
        AluOp::Or => {
            if a == b || b_zero {
                cx.try_remap(r, a);
            } else if a_zero {
                cx.try_remap(r, b);
            }
            None
        }
        AluOp::Xor => {
            if a == b {
                return zero(cx);
            }
            if b_zero {
                cx.try_remap(r, a);
            } else if a_zero {
                cx.try_remap(r, b);
            }
            None
        }
        AluOp::Shl | AluOp::ShrU | AluOp::ShrS | AluOp::Rotl => {
            if b_zero {
                cx.try_remap(r, a);
            }
            None
        }
        AluOp::Eq | AluOp::LeS | AluOp::LeU | AluOp::GeS | AluOp::GeU => {
            if a == b {
                return one(cx);
            }
            None
        }
        AluOp::Ne | AluOp::LtS | AluOp::LtU | AluOp::GtS | AluOp::GtU => {
            if a == b {
                return zero(cx);
            }
            None
        }
        AluOp::MinS | AluOp::MinU | AluOp::MaxS | AluOp::MaxU => {
            if a == b {
                cx.try_remap(r, a);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::opt::Dce;
    use crate::pass::PassManager;
    use crate::{Func, Module};

    fn run(f: Func) -> Module {
        let mut m = Module::default();
        m.funcs.push(f);
        let mut pm = PassManager::new();
        pm.add(Simplify).add(Dce);
        pm.run(&mut m);
        m
    }

    #[test]
    fn add_zero_bypassed_and_swept() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let z = b.const_i32(&mut f, 0);
        let s = b.bin(&mut f, AluOp::Add, p, z);
        let t = b.bin(&mut f, AluOp::Mul, s, s);
        b.emit0(OpKind::Return(vec![t]));
        f.body = b.build();
        let m = run(f);
        let f = m.func("main").unwrap();
        // p+0 bypassed to p; t = p*p; const 0 and the add swept by DCE.
        assert_eq!(f.body.ops.len(), 2);
        assert!(matches!(f.body.ops[0].kind, OpKind::Bin(AluOp::Mul, a, b) if a == p && b == p));
    }

    #[test]
    fn self_comparison_becomes_constant() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let x = b.bin(&mut f, AluOp::Sub, p, p); // 0
        let y = b.bin(&mut f, AluOp::Eq, p, p); // 1
        let s = b.bin(&mut f, AluOp::Add, x, y);
        b.emit0(OpKind::Return(vec![s]));
        f.body = b.build();
        let m = run(f);
        let f = m.func("main").unwrap();
        // x → 0, y → 1, s = 0 + y → y; DCE sweeps x and the add, leaving
        // just the constant 1 and the return of it.
        assert_eq!(f.body.ops.len(), 2);
        assert!(f
            .body
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::ConstI(1, _))));
        assert!(matches!(&f.body.ops[1].kind, OpKind::Return(vs) if vs[0] == y));
    }

    #[test]
    fn select_constant_condition_takes_arm() {
        let mut f = Func::new("main", &[Ty::I32, Ty::I32], vec![Ty::I32]);
        let (a, b2) = (f.params[0], f.params[1]);
        let mut b = RegionBuilder::new();
        let c = b.const_i32(&mut f, 1);
        let sel = b.emit(&mut f, OpKind::Select(c, a, b2), Ty::I32);
        b.emit0(OpKind::Return(vec![sel]));
        f.body = b.build();
        let m = run(f);
        let f = m.func("main").unwrap();
        assert_eq!(f.body.ops.len(), 1, "only the return remains");
        assert!(matches!(&f.body.ops[0].kind, OpKind::Return(vs) if vs[0] == a));
    }

    #[test]
    fn type_mismatched_identity_is_left_alone() {
        // r: I8 = p(I32) + 0 — remap would change the declared type.
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let z = b.const_i32(&mut f, 0);
        let r = f.new_value(Ty::I8);
        b.push(OpKind::Bin(AluOp::Add, p, z), vec![r]);
        let out = b.bin(&mut f, AluOp::Add, r, p);
        b.emit0(OpKind::Return(vec![out]));
        f.body = b.build();
        let m = run(f);
        let f = m.func("main").unwrap();
        assert!(
            f.body.ops.iter().any(|o| o.results.first() == Some(&r)),
            "I8-typed add must survive"
        );
    }
}
