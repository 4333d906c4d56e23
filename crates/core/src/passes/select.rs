//! If-to-select conversion (§V-B c).
//!
//! Naïve dataflow assigns a compute unit to each branch of an `if`; for
//! branches with no inner loops that just leaves empty lanes. This pass
//! inlines such `if`s: both branches execute unconditionally, memory
//! operations are *predicated* on the branch condition, and each result is a
//! conditional move. The paper notes this is "more powerful than MLIR's
//! default of only rewriting empty ifs". `if`s containing loops, parallel
//! regions, or `exit` keep their dataflow form (they need real filtering).

#![warn(clippy::too_many_lines)]

use revet_mir::{
    Func, Module, Op, OpKind, Pass, PassResult, Region, RegionBuilder, Rewriter, Value,
};

/// If-to-select conversion (§V-B c): inlines loop-free `if`s as selects
/// with predicated memory ops.
pub struct IfToSelect;

impl Pass for IfToSelect {
    fn name(&self) -> &str {
        "if_to_select"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        m.rewrite(&mut IfToSelect)
    }
}

/// True if the region can be flattened into predicated straight-line code.
fn convertible(r: &Region) -> bool {
    r.ops.iter().all(|op| match &op.kind {
        OpKind::If { then, else_, .. } => convertible(then) && convertible(else_),
        OpKind::While { .. }
        | OpKind::Foreach { .. }
        | OpKind::Replicate { .. }
        | OpKind::Fork { .. }
        | OpKind::Exit
        | OpKind::Return(_)
        | OpKind::Condition { .. } => false,
        // Blocking pops cannot be predicated (a suppressed pop would still
        // stall the stall-check conservatively); leave such ifs in dataflow
        // form.
        OpKind::AllocPop { .. } => false,
        _ => true,
    })
}

impl Rewriter for IfToSelect {
    fn op(
        &mut self,
        out: &mut RegionBuilder,
        _func: &mut Func,
        _module: &mut Module,
        op: Op,
    ) -> Option<Op> {
        match op.kind {
            OpKind::If { cond, then, else_ } if convertible(&then) && convertible(&else_) => {
                let then_yield = inline_branch(out, then, cond, true);
                let else_yield = inline_branch(out, else_, cond, false);
                // Results become selects between the two yields.
                for ((res, t), e) in op.results.iter().zip(then_yield).zip(else_yield) {
                    out.push(OpKind::Select(cond, t, e), vec![*res]);
                }
                None
            }
            _ => Some(op),
        }
    }
}

/// Hoists a branch's ops into the parent, predicating side effects. Returns
/// the branch's yielded values.
fn inline_branch(out: &mut RegionBuilder, branch: Region, cond: Value, expect: bool) -> Vec<Value> {
    let mut yielded = Vec::new();
    for op in branch.ops {
        match op.kind {
            OpKind::Yield(vs) => yielded = vs,
            // Nested Predicated ops keep their own predicate; double
            // predication of the same memory op is rare enough that we
            // conservatively AND by nesting wrappers.
            kind if kind.is_memory() => out.push(
                OpKind::Predicated {
                    pred: cond,
                    expect,
                    inner: Box::new(kind),
                },
                op.results,
            ),
            kind => out.push(kind, op.results),
        }
    }
    yielded
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_lang::compile_to_mir;
    use revet_oracle::interp::{run_main, DEFAULT_FUEL};

    fn run(module: &Module, arg: u32) -> Vec<u8> {
        let mem = run_main(module, 4096, &[arg], &[], DEFAULT_FUEL).unwrap();
        mem.dram.to_vec()
    }

    #[test]
    fn converts_simple_if_with_memory() {
        let src = r#"
            dram<u32> output;
            void main(u32 n) {
                u32 x = 0;
                if (n > 5) {
                    x = 2 * n;
                    output[1] = 111;
                } else {
                    x = 3 * n;
                };
                output[0] = x;
            }
        "#;
        let mut module = compile_to_mir(src).unwrap();
        assert!(IfToSelect.run(&mut module).changed());
        revet_mir::verify_module(&module).unwrap();
        assert_eq!(
            module.funcs[0].count_ops(|k| matches!(k, OpKind::If { .. })),
            0
        );
        // Semantics preserved on both sides of the condition.
        let d = run(&module, 7);
        assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), 14);
        assert_eq!(u32::from_le_bytes(d[4..8].try_into().unwrap()), 111);
        let d = run(&module, 3);
        assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), 9);
        assert_eq!(
            u32::from_le_bytes(d[4..8].try_into().unwrap()),
            0,
            "predicated store suppressed"
        );
    }

    #[test]
    fn keeps_ifs_with_loops_or_exit() {
        let src = r#"
            dram<u32> output;
            void main(u32 n) {
                if (n) {
                    u32 i = 0;
                    while (i < n) {
                        i = i + 1;
                    };
                    output[0] = i;
                };
                fork (n) { u32 k =>
                    if (k) {
                        exit;
                    };
                };
            }
        "#;
        let mut module = compile_to_mir(src).unwrap();
        let converted = IfToSelect.run(&mut module).changed();
        assert!(!converted, "loop-bearing and exit ifs stay");
        assert_eq!(
            module.funcs[0].count_ops(|k| matches!(k, OpKind::If { .. })),
            2
        );
    }

    #[test]
    fn nested_convertible_ifs_flatten() {
        let src = r#"
            dram<u32> output;
            void main(u32 n) {
                u32 x = 0;
                if (n > 2) {
                    if (n > 4) {
                        x = 4;
                    } else {
                        x = 2;
                    };
                } else {
                    x = 1;
                };
                output[0] = x;
            }
        "#;
        let mut module = compile_to_mir(src).unwrap();
        assert!(IfToSelect.run(&mut module).changed());
        assert_eq!(
            module.funcs[0].count_ops(|k| matches!(k, OpKind::If { .. })),
            0,
            "inner and outer if both flattened"
        );
        for (arg, want) in [(5u32, 4u32), (3, 2), (1, 1)] {
            let d = run(&module, arg);
            assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), want);
        }
    }
}
