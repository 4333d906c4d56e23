//! MIR→MIR compiler passes (the middle of Fig. 8), as [`revet_mir::Pass`]es.
//!
//! Two layers:
//!
//! - **Lowering passes** (paper-specific, §V-A/B), one file each: hierarchy
//!   elimination ([`EliminateHierarchy`], Fig. 9), view & iterator lowering
//!   with allocation fusion ([`LowerViews`]), bulk-access expansion
//!   ([`LowerBulk`]), and if-to-select conversion ([`IfToSelect`]). Each is
//!   a [`revet_mir::Rewriter`] — it says what one op becomes, through the
//!   `RegionBuilder` it is handed; `Module::rewrite` owns the region walk,
//!   the rebuilding and the changed flag.
//! - **Classical optimizations** (re-exported from `revet-mir`):
//!   [`ConstFold`], [`Simplify`], [`Cse`] and [`Dce`]. None of them places
//!   constants for the lowering: `lower` makes every constant an immediate
//!   wherever it is read, so where a `ConstI` sits in the MIR never shows
//!   in the graph.
//!
//! [`build_pipeline`] assembles the standard pipeline from a
//! [`PassOptions`]: lowering passes first (gated by their individual
//! toggles, in Fig. 8 order), then `revet_mir::add_classical` for
//! `opt_level`. Run it with [`PassManager::run`] (or `run_observed` to
//! snapshot the IR after a named pass) to get a [`revet_mir::PassReport`]
//! of per-pass timing and op-count deltas.

#![warn(clippy::too_many_lines)]

mod bulk;
mod hierarchy;
mod select;
mod views;

pub use bulk::LowerBulk;
pub use hierarchy::EliminateHierarchy;
pub use revet_mir::{ConstFold, Cse, Dce, Simplify};
pub use select::IfToSelect;
pub use views::LowerViews;

use crate::PassOptions;
use revet_mir::PassManager;

/// Assembles the standard pipeline for `opts`: lowering passes in Fig. 8
/// order (each gated by its toggle), then the classical optimizations
/// gated by `opts.opt_level`. The passes that size thread-local buffers
/// read the count from the module they run on ([`Module::thread_count`]).
///
/// [`Module::thread_count`]: revet_mir::Module::thread_count
pub fn build_pipeline(opts: &PassOptions) -> PassManager {
    let mut pm = PassManager::new();
    if opts.eliminate_hierarchy {
        pm.add(EliminateHierarchy);
    }
    pm.add(LowerViews {
        fuse: opts.fuse_allocators,
    });
    pm.add(LowerBulk);
    if opts.if_to_select {
        pm.add(IfToSelect);
    }
    revet_mir::add_classical(&mut pm, opts.opt_level);
    pm
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
        let names = build_pipeline(&opts)
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
                "dce",
            ]
        );

        let o0 = PassOptions::none();
        assert_eq!(o0.opt_level, 0);
        let names = build_pipeline(&o0).names().len();
        assert_eq!(names, 2, "only the unconditional lowering passes remain");

        let o1 = PassOptions {
            opt_level: 1,
            ..PassOptions::none()
        };
        assert_eq!(build_pipeline(&o1).names().len(), 5);
    }
}
