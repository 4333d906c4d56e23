//! A structural verifier for MIR.
//!
//! Catches compiler bugs early: values used before definition (respecting
//! region scoping), missing/extra terminators, arity mismatches between
//! `yield`s and the construct consuming them, and references to undeclared
//! memory objects. Run between passes in debug builds.

use crate::func::{Func, Module};
use crate::ops::{Op, OpKind, Region, Value};
use crate::table::ValueSet;
use revet_diag::Span;
use std::fmt;

/// A verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Function in which the error occurred.
    pub func: String,
    /// Description.
    pub message: String,
    /// Source attribution of the offending op, when the function's
    /// [`SpanTable`](crate::SpanTable) knows it (front-end-built modules
    /// do; hand-built ones don't).
    pub span: Option<Span>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns the first structural error found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in &m.funcs {
        verify_func(m, f)?;
    }
    Ok(())
}

/// Verifies one function.
///
/// # Errors
///
/// Returns the first structural error found.
pub fn verify_func(m: &Module, f: &Func) -> Result<(), VerifyError> {
    let err = |msg: String| VerifyError {
        func: f.name.clone(),
        message: msg,
        span: None,
    };
    let mut scope = Scope {
        visible: ValueSet::with_capacity(f.value_count()),
        entered: Vec::new(),
    };
    for p in &f.params {
        scope.enter(*p);
    }
    verify_region(m, f, &f.body, &mut scope, true, &err)
}

/// The values visible at one point of the walk, and the order they came
/// into view, so a region can take back out exactly what it brought in.
struct Scope {
    visible: ValueSet,
    entered: Vec<Value>,
}

impl Scope {
    fn enter(&mut self, v: Value) {
        if self.visible.insert(v) {
            self.entered.push(v);
        }
    }

    /// Hides every value that came into view since `mark`.
    fn leave(&mut self, mark: usize) {
        for v in self.entered.drain(mark..) {
            self.visible.remove(v);
        }
    }
}

fn verify_region(
    m: &Module,
    f: &Func,
    r: &Region,
    scope: &mut Scope,
    is_func_body: bool,
    err: &dyn Fn(String) -> VerifyError,
) -> Result<(), VerifyError> {
    // Region args come into scope here; they leave scope when we return
    // (values defined inside stay visible only within). An error ends the
    // whole walk, so only a region that verifies needs to clean up.
    let mark = scope.entered.len();
    for a in &r.args {
        if a.0 as usize >= f.value_count() {
            return Err(err(format!("region arg %{} out of value table", a.0)));
        }
        scope.enter(*a);
    }
    for (i, op) in r.ops.iter().enumerate() {
        // Attribute errors about this op to its source span, unless a
        // nested region already pinned a finer one.
        let attach = |mut e: VerifyError| {
            if e.span.is_none() {
                e.span = f.spans.op_span(op);
            }
            e
        };
        let last = i + 1 == r.ops.len();
        if op.kind.is_terminator() && !last {
            return Err(attach(err(
                "terminator in the middle of a region".to_string()
            )));
        }
        if last && is_func_body && !matches!(op.kind, OpKind::Return(_) | OpKind::Exit) {
            return Err(attach(err(
                "function body must end in return or exit".to_string()
            )));
        }
        for v in op.kind.operands() {
            if !scope.visible.contains(v) {
                return Err(attach(err(format!("use of undefined value %{}", v.0))));
            }
        }
        verify_op(m, f, op, scope, err).map_err(attach)?;
        for res in &op.results {
            if res.0 as usize >= f.value_count() {
                return Err(err(format!("result %{} out of value table", res.0)));
            }
            scope.enter(*res);
        }
    }
    scope.leave(mark);
    Ok(())
}

fn region_yield_arity(r: &Region) -> Option<usize> {
    match r.ops.last().map(|o| &o.kind) {
        Some(OpKind::Yield(vs)) => Some(vs.len()),
        _ => None,
    }
}

fn verify_op(
    m: &Module,
    f: &Func,
    op: &Op,
    scope: &mut Scope,
    err: &dyn Fn(String) -> VerifyError,
) -> Result<(), VerifyError> {
    match &op.kind {
        OpKind::SramRead { sram, .. }
        | OpKind::SramWrite { sram, .. }
        | OpKind::SramDecFetch { sram, .. }
        | OpKind::BulkLoad { sram, .. }
        | OpKind::BulkStore { sram, .. } => {
            if sram.0 as usize >= m.srams.len() {
                return Err(err(format!("undeclared SRAM region #{}", sram.0)));
            }
        }
        OpKind::AllocPop { alloc } | OpKind::AllocPush { alloc, .. } => {
            if alloc.0 as usize >= m.allocs.len() {
                return Err(err(format!("undeclared allocator #{}", alloc.0)));
            }
        }
        _ => {}
    }
    match &op.kind {
        OpKind::DramRead { dram, .. }
        | OpKind::DramWrite { dram, .. }
        | OpKind::ItNew { dram, .. } => {
            if dram.0 as usize >= m.drams.len() {
                return Err(err(format!("undeclared DRAM symbol @{}", dram.0)));
            }
        }
        _ => {}
    }
    match &op.kind {
        OpKind::If { then, else_, .. } => {
            verify_region(m, f, then, scope, false, err)?;
            verify_region(m, f, else_, scope, false, err)?;
            let a = region_yield_arity(then);
            let b = region_yield_arity(else_);
            // Regions ending in exit need not match arities.
            if let (Some(a), Some(b)) = (a, b) {
                if a != b || a != op.results.len() {
                    return Err(err(format!(
                        "if yields mismatch: then={a}, else={b}, results={}",
                        op.results.len()
                    )));
                }
            }
        }
        OpKind::While {
            inits,
            before,
            after,
        } => {
            if before.args.len() != inits.len() {
                return Err(err(format!(
                    "while: before takes {} args but {} inits",
                    before.args.len(),
                    inits.len()
                )));
            }
            verify_region(m, f, before, scope, false, err)?;
            verify_region(m, f, after, scope, false, err)?;
            match before.ops.last().map(|o| &o.kind) {
                Some(OpKind::Condition { fwd, .. }) => {
                    if fwd.len() != after.args.len() {
                        return Err(err(format!(
                            "while: condition forwards {} values, body takes {}",
                            fwd.len(),
                            after.args.len()
                        )));
                    }
                    if fwd.len() != op.results.len() {
                        return Err(err(format!(
                            "while: condition forwards {} values, op has {} results",
                            fwd.len(),
                            op.results.len()
                        )));
                    }
                }
                _ => return Err(err("while: before must end in condition".to_string())),
            }
            match region_yield_arity(after) {
                Some(n) if n == inits.len() => {}
                Some(n) => {
                    return Err(err(format!(
                        "while: body yields {n} values, {} carried",
                        inits.len()
                    )))
                }
                None => {
                    // A body ending in exit is legal (thread dies).
                    if !matches!(after.ops.last().map(|o| &o.kind), Some(OpKind::Exit)) {
                        return Err(err("while: body must end in yield or exit".to_string()));
                    }
                }
            }
        }
        OpKind::Foreach { body, reduce, .. } => {
            if body.args.len() != 1 {
                return Err(err("foreach body takes exactly one index arg".to_string()));
            }
            verify_region(m, f, body, scope, false, err)?;
            if let Some(n) = region_yield_arity(body) {
                if n != reduce.len() || n != op.results.len() {
                    return Err(err(format!(
                        "foreach: yields {n}, reduces {}, results {}",
                        reduce.len(),
                        op.results.len()
                    )));
                }
            }
        }
        OpKind::Replicate { body, ways } => {
            if *ways == 0 {
                return Err(err("replicate(0) is meaningless".to_string()));
            }
            verify_region(m, f, body, scope, false, err)?;
        }
        OpKind::Fork { body, .. } => {
            if body.args.len() != 1 {
                return Err(err("fork body takes exactly one index arg".to_string()));
            }
            verify_region(m, f, body, scope, false, err)?;
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::ops::AluOp;
    use crate::types::Ty;

    #[test]
    fn accepts_valid_func() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let one = b.const_i32(&mut f, 1);
        let s = b.bin(&mut f, AluOp::Add, p, one);
        b.emit0(OpKind::Return(vec![s]));
        f.body = b.build();
        m.funcs.push(f);
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_undefined_value() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[], vec![]);
        let ghost = Value(99);
        let mut b = RegionBuilder::new();
        b.push(OpKind::Return(vec![ghost]), vec![]);
        f.body = b.build();
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn rejects_missing_return() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[], vec![]);
        let mut b = RegionBuilder::new();
        b.const_i32(&mut f, 1);
        f.body = b.build();
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("must end in return"));
    }

    #[test]
    fn rejects_region_value_escape() {
        // Values defined inside an if-region must not be used outside.
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut then_b = RegionBuilder::new();
        let inner = then_b.const_i32(&mut f, 5);
        then_b.emit0(OpKind::Yield(vec![inner]));
        let mut else_b = RegionBuilder::new();
        else_b.emit0(OpKind::Yield(vec![p]));
        let mut b = RegionBuilder::new();
        let r = f.new_value(Ty::I32);
        b.push(
            OpKind::If {
                cond: p,
                then: then_b.build(),
                else_: else_b.build(),
            },
            vec![r],
        );
        // Illegal: use `inner` outside its region.
        b.emit0(OpKind::Return(vec![inner]));
        f.body = b.build();
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn rejects_bad_while_shape() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![]);
        let n = f.params[0];
        let cv = f.new_value(Ty::I32);
        // before ends in yield (wrong: must be condition).
        let mut before = RegionBuilder::with_args(vec![cv]);
        before.emit0(OpKind::Yield(vec![cv]));
        let av = f.new_value(Ty::I32);
        let mut after = RegionBuilder::with_args(vec![av]);
        after.emit0(OpKind::Yield(vec![av]));
        let r = f.new_value(Ty::I32);
        let mut b = RegionBuilder::new();
        b.push(
            OpKind::While {
                inits: vec![n],
                before: before.build(),
                after: after.build(),
            },
            vec![r],
        );
        b.emit0(OpKind::Return(vec![]));
        f.body = b.build();
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("condition"));
    }

    #[test]
    fn rejects_undeclared_memory() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        b.emit0(OpKind::DramWrite {
            dram: crate::types::DramRef(3),
            idx: p,
            val: p,
        });
        b.emit0(OpKind::Return(vec![]));
        f.body = b.build();
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("undeclared DRAM"));
    }
}
