//! The pass framework: the [`Pass`] trait, an ordered [`PassManager`],
//! and the [`PassReport`] it emits.
//!
//! A pass rewrites a whole [`Module`] — the lowering passes add
//! module-level declarations (SRAMs, allocator queues) as they go, and a
//! pass that works function by function loops over `m.funcs` itself — and
//! reports whether it changed the IR; the [`PassManager`] turns that into
//! per-pass statistics. A pass computes the analyses it needs (`Dce` calls
//! [`Liveness::compute`](crate::Liveness::compute)); nothing is cached
//! between passes.
//!
//! Under `debug_assertions` the manager re-verifies the module and checks
//! `SpanTable` integrity (no entry may point at a value with no remaining
//! definition) after every pass, naming the offending pass on failure.

#![warn(clippy::too_many_lines)]

use crate::func::Module;
#[cfg(debug_assertions)]
use crate::verify::verify_module;
use std::time::{Duration, Instant};

/// What a pass did to the IR it ran on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PassResult {
    /// The pass rewrote something.
    Changed,
    /// The IR is untouched.
    Unchanged,
}

impl PassResult {
    /// `Changed` when the flag is set.
    pub fn of(changed: bool) -> PassResult {
        if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        }
    }

    /// True for [`PassResult::Changed`].
    pub fn changed(self) -> bool {
        self == PassResult::Changed
    }
}

/// A transformation over a module.
pub trait Pass {
    /// Stable, kebab/snake-case pass name (used by `--emit mir-after=` and
    /// the pass report).
    fn name(&self) -> &str;
    /// Rewrites `m`, reporting whether anything changed.
    fn run(&self, m: &mut Module) -> PassResult;
}

/// Statistics for one pass execution.
#[derive(Clone, Debug)]
pub struct PassStat {
    /// Pass name.
    pub name: String,
    /// Wall-clock time spent in the pass.
    pub wall: Duration,
    /// Whether the pass reported a change.
    pub changed: bool,
    /// Module-wide op count before the pass.
    pub ops_before: usize,
    /// Module-wide op count after the pass.
    pub ops_after: usize,
}

/// The per-pass record a [`PassManager`] run produces: timing, changed
/// flags, and op-count deltas, in pipeline order.
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// One entry per executed pass, in order.
    pub passes: Vec<PassStat>,
}

impl PassReport {
    /// Module op count before the first pass ran (0 for an empty pipeline).
    pub fn ops_before(&self) -> usize {
        self.passes.first().map_or(0, |p| p.ops_before)
    }

    /// Module op count after the last pass ran (0 for an empty pipeline).
    pub fn ops_after(&self) -> usize {
        self.passes.last().map_or(0, |p| p.ops_after)
    }

    /// Total wall-clock time across all passes.
    pub fn total_wall(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }

    /// A fixed-width text table: per-pass wall time, changed flag, and op
    /// counts before/after (the `revetc --emit report` payload).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>8}\n",
            "pass", "wall_us", "changed", "ops_in", "ops_out"
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "{:<24} {:>10} {:>8} {:>8} {:>8}\n",
                p.name,
                p.wall.as_micros(),
                if p.changed { "yes" } else { "-" },
                p.ops_before,
                p.ops_after
            ));
        }
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>8}\n",
            "total",
            self.total_wall().as_micros(),
            "",
            self.ops_before(),
            self.ops_after()
        ));
        out
    }
}

/// An ordered pipeline of passes.
///
/// `run` executes each pass in order over the module and returns a
/// [`PassReport`].
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Appends a pass.
    pub fn add(&mut self, p: impl Pass + 'static) -> &mut PassManager {
        self.passes.push(Box::new(p));
        self
    }

    /// The pipeline's pass names, in execution order.
    pub fn names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when the pipeline holds no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs the pipeline over `m`.
    pub fn run(&self, m: &mut Module) -> PassReport {
        self.run_observed(m, &mut |_, _| {})
    }

    /// Runs the pipeline, invoking `observer(pass_name, module)` after each
    /// pass completes — this is how `--emit mir-after=<pass>` snapshots the
    /// IR without the manager knowing about printing.
    pub fn run_observed(
        &self,
        m: &mut Module,
        observer: &mut dyn FnMut(&str, &Module),
    ) -> PassReport {
        let mut report = PassReport::default();
        // Only hold passes to the integrity contract when the input module
        // already satisfied it — an invalid input must flow through to the
        // caller's own verification for graceful, diagnostic-carrying
        // reporting, not a panic blamed on the first pass.
        #[cfg(debug_assertions)]
        let input_clean =
            verify_module(m).is_ok() && m.funcs.iter().all(|f| f.dangling_spans().is_empty());
        let mut ops_before = m.op_count();
        for pass in &self.passes {
            let start = Instant::now();
            let result = pass.run(m);
            let wall = start.elapsed();
            let ops_after = m.op_count();
            report.passes.push(PassStat {
                name: pass.name().to_string(),
                wall,
                changed: result.changed(),
                ops_before,
                ops_after,
            });
            ops_before = ops_after;
            #[cfg(debug_assertions)]
            if input_clean {
                Self::check_integrity(pass.name(), m);
            }
            observer(pass.name(), m);
        }
        report
    }

    /// Debug-build invariant check run after every pass: the module must
    /// still verify, and no function's span table may reference a value
    /// whose definition the pass deleted.
    #[cfg(debug_assertions)]
    fn check_integrity(pass: &str, m: &Module) {
        if let Err(e) = verify_module(m) {
            panic!("pass `{pass}` broke module invariants: {e}");
        }
        for f in &m.funcs {
            let dangling = f.dangling_spans();
            assert!(
                dangling.is_empty(),
                "pass `{pass}` left dangling span entries in `{}`: {dangling:?}",
                f.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Func, RegionBuilder};
    use crate::ops::{AluOp, Op, OpKind};
    use crate::types::Ty;

    fn module() -> Module {
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let one = b.const_i32(&mut f, 1);
        let s = b.bin(&mut f, AluOp::Add, p, one);
        b.emit0(OpKind::Return(vec![s]));
        f.body = b.build();
        m.funcs.push(f);
        m
    }

    struct Nop;
    impl Pass for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn run(&self, _m: &mut Module) -> PassResult {
            PassResult::Unchanged
        }
    }

    /// Appends a dead constant (a change that keeps the module valid).
    struct AddConst;
    impl Pass for AddConst {
        fn name(&self) -> &str {
            "add_const"
        }
        fn run(&self, m: &mut Module) -> PassResult {
            let f = &mut m.funcs[0];
            let v = f.new_value(Ty::I32);
            let ret = f.body.ops.pop().expect("terminator");
            f.body.ops.push(Op {
                kind: OpKind::ConstI(7, Ty::I32),
                results: [v].into(),
            });
            f.body.ops.push(ret);
            PassResult::Changed
        }
    }

    #[test]
    fn report_tracks_ops_and_change_flags() {
        let mut m = module();
        let mut pm = PassManager::new();
        pm.add(Nop).add(AddConst).add(Nop);
        assert_eq!(pm.names(), vec!["nop", "add_const", "nop"]);
        let report = pm.run(&mut m);
        assert_eq!(report.passes.len(), 3);
        assert!(!report.passes[0].changed);
        assert!(report.passes[1].changed);
        assert_eq!(report.passes[1].ops_before, 3);
        assert_eq!(report.passes[1].ops_after, 4);
        assert_eq!(report.ops_before(), 3);
        assert_eq!(report.ops_after(), 4);
        let s = report.summary();
        assert!(s.contains("add_const"));
        assert!(s.contains("total"));
    }

    #[test]
    fn observer_sees_each_pass_in_order() {
        let mut m = module();
        let mut pm = PassManager::new();
        pm.add(Nop).add(AddConst);
        let mut seen = Vec::new();
        pm.run_observed(&mut m, &mut |name, module| {
            seen.push((name.to_string(), module.op_count()));
        });
        assert_eq!(
            seen,
            vec![("nop".to_string(), 3), ("add_const".to_string(), 4)]
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dangling span entries")]
    fn dangling_span_detected() {
        /// Records a span for a value that never existed.
        struct LeaveDangling;
        impl Pass for LeaveDangling {
            fn name(&self) -> &str {
                "leave_dangling"
            }
            fn run(&self, m: &mut Module) -> PassResult {
                let ghost = crate::ops::Value(999);
                m.funcs[0].spans.set(ghost, revet_diag::Span::new(2, 3));
                PassResult::Changed
            }
        }
        let mut pm = PassManager::new();
        pm.add(LeaveDangling);
        pm.run(&mut module());
    }
}
