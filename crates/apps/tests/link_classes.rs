//! A link's class follows its rate (§III-C): a stream that carries one
//! token per thread rides a vector link, which moves 16 threads per cycle
//! where a scalar link moves one.
//!
//! For every Table III app at -O2 (pinned, so `REVET_OPT_LEVEL` cannot move
//! it), each scalar link must be written by a context whose stream is not
//! per-thread: the entry link (written by the argument injection, no
//! context), a `foreach.split` broadcast feed (one tuple per parent
//! thread), an `exit.drop` (barriers only) or a `rep.dist` way (the
//! replicate distribution, which stays scalar on measurement; see
//! `DfLower::distribute`). A failure names each offending link by its
//! producer's label and primitive kind.

use revet_apps::all_apps;
use revet_core::PassOptions;
use revet_machine::{ChanId, LinkClass};
use std::sync::Arc;

/// The paper's replicate width.
const OUTER: u32 = 8;

/// Context label bases whose output may be a scalar link.
const SCALAR_PRODUCERS: [&str; 3] = ["foreach.split", "exit.drop", "rep.dist"];

#[test]
fn no_per_thread_link_is_scalar() {
    let opts = PassOptions {
        opt_level: 2,
        ..PassOptions::default()
    };
    let mut offenders = Vec::new();
    for app in all_apps() {
        let mut program = app
            .compile(OUTER, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let topo = Arc::clone(program.graph.plan().topology());
        let mut scalar = 0;
        for link in program
            .links
            .iter()
            .filter(|l| l.class == LinkClass::Scalar)
        {
            scalar += 1;
            let producers = topo.producers(ChanId(link.id));
            if producers.is_empty() {
                assert_eq!(
                    link.id, program.entry.0,
                    "{}: ch{} has no producer",
                    app.name, link.id
                );
                continue;
            }
            for p in producers {
                let ctx = program
                    .contexts
                    .iter()
                    .find(|c| c.id == p.0)
                    .expect("every graph node is a context");
                let base = ctx.label.base();
                if !SCALAR_PRODUCERS.contains(&base) {
                    offenders.push(format!(
                        "{}: ch{} from {} ({})",
                        app.name, link.id, ctx.label, ctx.kind
                    ));
                }
            }
        }
        assert!(scalar > 0, "{}: the entry link is scalar", app.name);
    }
    assert!(
        offenders.is_empty(),
        "{} per-thread links are scalar:\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}
