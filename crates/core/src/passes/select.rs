//! If-to-select conversion (§V-B c).
//!
//! Naïve dataflow assigns a compute unit to each branch of an `if`; for
//! branches with no inner loops that just leaves empty lanes. This pass
//! inlines such `if`s: both branches execute unconditionally, memory
//! operations are *predicated* on the branch condition, and each result is a
//! conditional move. The paper notes this is "more powerful than MLIR's
//! default of only rewriting empty ifs". `if`s containing loops, parallel
//! regions, or `exit` keep their dataflow form (they need real filtering).

use revet_mir::{Func, Module, Op, OpKind, Region};

/// Converts every convertible `if`; returns the number converted.
pub fn if_to_select(module: &mut Module) -> usize {
    let mut count = 0;
    let mut funcs = std::mem::take(&mut module.funcs);
    for func in &mut funcs {
        let body = std::mem::take(&mut func.body);
        func.body = rewrite(func, body, &mut count);
    }
    module.funcs = funcs;
    count
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

fn rewrite(func: &mut Func, region: Region, count: &mut usize) -> Region {
    let mut out = Vec::with_capacity(region.ops.len());
    for mut op in region.ops {
        for r in op.kind.regions_mut() {
            let taken = std::mem::take(r);
            *r = rewrite(func, taken, count);
        }
        match op.kind {
            OpKind::If { cond, then, else_ } if convertible(&then) && convertible(&else_) => {
                *count += 1;
                let then_yield = inline_branch(&mut out, then, cond, true);
                let else_yield = inline_branch(&mut out, else_, cond, false);
                // Results become selects between the two yields.
                for ((res, t), e) in op
                    .results
                    .iter()
                    .zip(then_yield.iter())
                    .zip(else_yield.iter())
                {
                    out.push(Op {
                        kind: OpKind::Select(cond, *t, *e),
                        results: vec![*res],
                    });
                }
                let _ = func;
            }
            kind => out.push(Op {
                kind,
                results: op.results,
            }),
        }
    }
    Region::new(region.args, out)
}

/// Hoists a branch's ops into the parent, predicating side effects. Returns
/// the branch's yielded values.
fn inline_branch(
    out: &mut Vec<Op>,
    branch: Region,
    cond: revet_mir::Value,
    expect: bool,
) -> Vec<revet_mir::Value> {
    let mut yielded = Vec::new();
    for op in branch.ops {
        match op.kind {
            OpKind::Yield(vs) => yielded = vs,
            kind if kind.is_memory() => {
                // Nested Predicated ops keep their own predicate; double
                // predication of the same memory op is rare enough that we
                // conservatively AND by nesting wrappers.
                out.push(Op {
                    kind: OpKind::Predicated {
                        pred: cond,
                        expect,
                        inner: Box::new(kind),
                    },
                    results: op.results,
                });
            }
            kind => out.push(Op {
                kind,
                results: op.results,
            }),
        }
    }
    yielded
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_lang::compile_to_mir;
    use revet_mir::{DramLayout, Interp};
    use revet_sltf::Word;

    fn run_main(module: &Module, args: &[Word], dram_bytes: usize) -> Vec<u8> {
        let layout = DramLayout {
            base: (0..module.drams.len() as u32).map(|i| i * 4096).collect(),
        };
        let mut mem = module.build_memory(dram_bytes);
        Interp::new(module, &layout, &mut mem)
            .run("main", args)
            .unwrap();
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
        let lowered = compile_to_mir(src).unwrap();
        let mut module = lowered.module.clone();
        let converted = if_to_select(&mut module);
        assert_eq!(converted, 1);
        revet_mir::verify_module(&module).unwrap();
        assert_eq!(
            module.funcs[0].count_ops(|k| matches!(k, OpKind::If { .. })),
            0
        );
        // Semantics preserved on both sides of the condition.
        let d = run_main(&module, &[Word(7)], 4096);
        assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), 14);
        assert_eq!(u32::from_le_bytes(d[4..8].try_into().unwrap()), 111);
        let d = run_main(&module, &[Word(3)], 4096);
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
        let lowered = compile_to_mir(src).unwrap();
        let mut module = lowered.module.clone();
        let converted = if_to_select(&mut module);
        assert_eq!(converted, 0, "loop-bearing and exit ifs stay");
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
        let lowered = compile_to_mir(src).unwrap();
        let mut module = lowered.module.clone();
        let converted = if_to_select(&mut module);
        assert_eq!(converted, 2);
        for (arg, want) in [(5u32, 4u32), (3, 2), (1, 1)] {
            let d = run_main(&module, &[Word(arg)], 4096);
            assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), want);
        }
    }
}
