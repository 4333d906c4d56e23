//! MIR→MIR compiler passes (the middle of Fig. 8), packaged for the
//! generic pass framework in `revet-mir`.
//!
//! Two layers live here:
//!
//! - **Lowering passes** (paper-specific, §V-A/B): hierarchy elimination
//!   ([`EliminateHierarchy`], Fig. 9), view & iterator lowering with
//!   allocation fusion ([`LowerViews`]), bulk-access expansion
//!   ([`LowerBulk`]), and if-to-select conversion ([`IfToSelect`]). These
//!   are [`ModulePass`]es — they add module-level SRAM/allocator
//!   declarations as they rewrite.
//! - **Classical optimizations** (re-exported from `revet-mir`):
//!   [`ConstFold`], [`Simplify`], [`Cse`], and [`Dce`] function passes.
//!
//! [`build_pipeline`] assembles the standard pipeline from a
//! [`PassOptions`]: lowering passes first (gated by their individual
//! toggles, in Fig. 8 order), then the classical optimizations gated by
//! `opt_level` (level ≥ 1 adds fold/simplify/DCE; level ≥ 2 adds CSE and a
//! second clean-up round). Run it with [`PassManager::run`] (or
//! `run_observed` to snapshot the IR after a named pass) to get a
//! [`revet_mir::PassReport`] of per-pass timing and op-count deltas.

pub(crate) mod bulk;
pub(crate) mod hierarchy;
pub(crate) mod select;
pub(crate) mod views;

pub use revet_mir::{ConstFold, Cse, Dce, Simplify, SinkConsts};
pub use views::DEFAULT_THREADS;

use crate::PassOptions;
use revet_mir::{Module, ModuleAnalysisManager, ModulePass, OpKind, PassManager, PassResult};

/// Foreach hierarchy elimination (§V-A b, Fig. 9): rewrites every
/// pragma-annotated `foreach` into a fork + shared-counter continuation.
pub struct EliminateHierarchy {
    /// Thread-local buffer count hint for the counter SRAM sizing.
    pub threads: Option<u32>,
}

impl ModulePass for EliminateHierarchy {
    fn name(&self) -> &str {
        "eliminate_hierarchy"
    }

    fn run_module(&self, m: &mut Module, _am: &mut ModuleAnalysisManager) -> PassResult {
        let n = hierarchy::eliminate_hierarchy(m, self.threads);
        prune_spans(m);
        PassResult::of(n > 0)
    }
}

/// View & iterator lowering plus allocation fusion (§V-A a, §V-B a):
/// rewrites the high-level memory dialect into SRAM regions, allocator
/// queues, and bulk transfers.
pub struct LowerViews {
    /// Thread-local buffer count (`pragma(threads, N)` resolved upstream).
    pub threads: Option<u32>,
    /// §V-B a: share one allocator pop per region (allocation fusion).
    pub fuse: bool,
}

impl ModulePass for LowerViews {
    fn name(&self) -> &str {
        "lower_views"
    }

    fn run_module(&self, m: &mut Module, _am: &mut ModuleAnalysisManager) -> PassResult {
        let views_before = count(m, |k| {
            k.is_high_level() && !matches!(k, OpKind::BulkLoad { .. } | OpKind::BulkStore { .. })
        });
        views::lower_views(m, self.threads, self.fuse);
        prune_spans(m);
        PassResult::of(views_before > 0)
    }
}

/// Bulk-access lowering (§V-A): `BulkLoad`/`BulkStore` become explicitly
/// parallel `foreach` loops of element transfers.
pub struct LowerBulk;

impl ModulePass for LowerBulk {
    fn name(&self) -> &str {
        "lower_bulk"
    }

    fn run_module(&self, m: &mut Module, _am: &mut ModuleAnalysisManager) -> PassResult {
        let bulk_before = count(m, |k| {
            matches!(k, OpKind::BulkLoad { .. } | OpKind::BulkStore { .. })
        });
        bulk::lower_bulk(m);
        prune_spans(m);
        PassResult::of(bulk_before > 0)
    }
}

/// If-to-select conversion (§V-B c): inlines loop-free `if`s as selects
/// with predicated memory ops.
pub struct IfToSelect;

impl ModulePass for IfToSelect {
    fn name(&self) -> &str {
        "if_to_select"
    }

    fn run_module(&self, m: &mut Module, _am: &mut ModuleAnalysisManager) -> PassResult {
        let n = select::if_to_select(m);
        prune_spans(m);
        PassResult::of(n > 0)
    }
}

/// Assembles the standard pipeline for `opts`: lowering passes in Fig. 8
/// order (each gated by its toggle), then the classical optimizations
/// gated by `opts.opt_level`.
///
/// `threads` is the resolved thread-count hint (a `pragma(threads, N)` in
/// the source wins over `opts.threads`; pass `opts.threads` when no
/// front-end hint exists).
pub fn build_pipeline(opts: &PassOptions, threads: Option<u32>) -> PassManager {
    let mut pm = PassManager::new();
    if opts.eliminate_hierarchy {
        pm.add_module(EliminateHierarchy { threads });
    }
    pm.add_module(LowerViews {
        threads,
        fuse: opts.fuse_allocators,
    });
    pm.add_module(LowerBulk);
    if opts.if_to_select {
        pm.add_module(IfToSelect);
    }
    if opts.opt_level >= 1 {
        pm.add(ConstFold).add(Simplify).add(Dce);
    }
    if opts.opt_level >= 2 {
        // CSE opens new fold/identity opportunities; run a second clean-up
        // round behind it. CSE also hoists region-local constants into
        // enclosing regions, which the dataflow lowering would pay for as
        // recirculated loop state — SinkConsts rematerializes them back
        // into the regions that use them before the final DCE sweep.
        pm.add(Cse)
            .add(ConstFold)
            .add(Simplify)
            .add(SinkConsts)
            .add(Dce);
    }
    pm
}

/// The lowering passes predate the span-integrity contract and may orphan
/// entries for values they delete wholesale (e.g. view handles); prune
/// after each so the pass manager's debug check holds pipeline-wide.
fn prune_spans(m: &mut Module) {
    for f in &mut m.funcs {
        f.prune_spans();
    }
}

fn count(m: &Module, pred: impl Fn(&OpKind) -> bool + Copy) -> usize {
    m.funcs.iter().map(|f| f.count_ops(pred)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_shape_follows_options() {
        let opts = PassOptions {
            opt_level: 2,
            ..PassOptions::default()
        };
        let names = build_pipeline(&opts, None)
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>();
        assert_eq!(
            names,
            vec![
                "eliminate_hierarchy",
                "lower_views",
                "lower_bulk",
                "if_to_select",
                "const_fold",
                "simplify",
                "dce",
                "cse",
                "const_fold",
                "simplify",
                "sink_consts",
                "dce",
            ]
        );

        let o0 = PassOptions::none();
        assert_eq!(o0.opt_level, 0);
        let names = build_pipeline(&o0, None).names().len();
        assert_eq!(names, 2, "only the unconditional lowering passes remain");

        let o1 = PassOptions {
            opt_level: 1,
            ..PassOptions::none()
        };
        assert_eq!(build_pipeline(&o1, None).names().len(), 5);
    }
}
