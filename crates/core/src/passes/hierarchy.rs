//! Foreach hierarchy elimination (§V-A b, Fig. 9).
//!
//! Barriers force a total flush of a `while` body before the next parent's
//! threads may enter. For pragma-annotated `foreach` loops we instead:
//! initialize a per-parent shared counter with the trip count, `fork` the
//! iterations as hierarchy-less threads, and have each thread atomically
//! decrement the counter after the body — the thread that reaches zero is
//! the last one and *becomes* the parent's continuation; all others exit.
//! Stragglers of one parent can then interleave with the next parent's
//! threads (Fig. 13's scaling win).

#![warn(clippy::too_many_lines)]

use revet_mir::{AluOp, Func, Module, Op, OpKind, Pass, PassResult, RegionBuilder, Rewriter, Ty};

/// Foreach hierarchy elimination (§V-A b, Fig. 9): rewrites every
/// pragma-annotated `foreach` into a fork + shared-counter continuation.
/// The shared counters and continuation allocators hold one slot per
/// thread ([`Module::thread_count`]).
pub struct EliminateHierarchy;

impl Pass for EliminateHierarchy {
    fn name(&self) -> &str {
        "eliminate_hierarchy"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        m.rewrite(&mut Fig9 {
            threads: m.thread_count(),
            count: 0,
        })
    }
}

struct Fig9 {
    threads: u32,
    /// Loops rewritten so far, module-wide (names the declarations).
    count: usize,
}

impl Rewriter for Fig9 {
    fn op(
        &mut self,
        out: &mut RegionBuilder,
        func: &mut Func,
        module: &mut Module,
        op: Op,
    ) -> Option<Op> {
        match op.kind {
            OpKind::Foreach {
                lo,
                hi,
                step,
                body,
                reduce,
                flags,
            } if flags.eliminate_hierarchy && reduce.is_empty() => {
                self.count += 1;
                let sram = module.add_sram(format!("fe_count{}", self.count), self.threads);
                let alloc = module.add_alloc(format!("fe_alloc{}", self.count), self.threads);
                // n = (hi - lo + step - 1) / step  (trip count)
                let diff = out.bin(func, AluOp::Sub, hi, lo);
                let sm1k = out.const_i32(func, 1);
                let sm1 = out.bin(func, AluOp::Sub, step, sm1k);
                let num = out.bin(func, AluOp::Add, diff, sm1);
                let n = out.bin(func, AluOp::DivS, num, step);
                // ptr = alloc.pop(); mem[ptr] = n
                let ptr = out.emit(func, OpKind::AllocPop { alloc }, Ty::I32);
                out.sram_write(sram, ptr, n);
                // fork(n) { k => idx = lo + k*step; body; last-check }
                let k = func.new_value(Ty::I32);
                let mut fork = RegionBuilder::with_args(vec![k]);
                let scaled = fork.bin(func, AluOp::Mul, k, step);
                let idx = fork.bin(func, AluOp::Add, lo, scaled);
                // Inline the body with its index arg bound to idx: body.args
                // = [i]; we re-use the arg value by assigning it via a Mov.
                let zero = fork.const_i32(func, 0);
                fork.push(OpKind::Bin(AluOp::Add, idx, zero), vec![body.args[0]]);
                let body_ends_exit = matches!(body.ops.last().map(|o| &o.kind), Some(OpKind::Exit));
                for bop in body.ops {
                    // The body's trailing yield is dropped; the fork decides
                    // continuation via the shared counter below.
                    if !matches!(bop.kind, OpKind::Yield(_)) {
                        fork.push(bop.kind, bop.results);
                    }
                }
                if !body_ends_exit {
                    // remaining = --mem[ptr]; if remaining != 0 exit.
                    let rem = fork.emit(func, OpKind::SramDecFetch { sram, addr: ptr }, Ty::I32);
                    let (mut then, mut else_) = (RegionBuilder::new(), RegionBuilder::new());
                    then.emit0(OpKind::Exit);
                    else_.emit0(OpKind::Yield(vec![]));
                    fork.emit0(OpKind::If {
                        cond: rem,
                        then: then.build(),
                        else_: else_.build(),
                    });
                    fork.emit0(OpKind::Yield(vec![]));
                }
                out.emit0(OpKind::Fork {
                    count: n,
                    body: fork.build(),
                });
                out.emit0(OpKind::AllocPush { alloc, ptr });
                None
            }
            _ => Some(op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_lang::compile_to_mir;
    use revet_oracle::interp::{run_main, DEFAULT_FUEL};

    #[test]
    fn rewrites_annotated_foreach_and_preserves_semantics() {
        let src = r#"
            dram<u32> output;
            void main(u32 n) {
                foreach (n) { u32 i =>
                    pragma(eliminate_hierarchy);
                    output[i] = i * 7;
                };
                output[63] = 99;
            }
        "#;
        let mut module = compile_to_mir(src).unwrap();
        module.threads = Some(16);
        assert!(EliminateHierarchy.run(&mut module).changed());
        revet_mir::verify_module(&module).unwrap();
        assert_eq!(
            module.funcs[0].count_ops(|k| matches!(k, OpKind::Fork { .. })),
            1,
            "foreach became fork"
        );
        let mem = run_main(&module, 4096, &[10], &[], DEFAULT_FUEL).unwrap();
        for i in 0..10usize {
            let got = u32::from_le_bytes(mem.dram[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(got, (i as u32) * 7);
        }
        let cont = u32::from_le_bytes(mem.dram[252..256].try_into().unwrap());
        assert_eq!(cont, 99, "continuation after fork ran exactly once");
    }

    #[test]
    fn unannotated_foreach_untouched() {
        let src = r#"
            dram<u32> output;
            void main(u32 n) {
                foreach (n) { u32 i =>
                    output[i] = i;
                };
            }
        "#;
        let lowered = compile_to_mir(src).unwrap();
        let mut module = lowered.clone();
        assert!(!EliminateHierarchy.run(&mut module).changed());
        assert_eq!(module, lowered);
    }
}
