//! Differential correctness for the compiled execution plan: on every
//! Table III app, the [`ExecPlan`] fast path must be observationally
//! identical to the interpreted ready-set executor — the full final DRAM
//! image and the `main` sink's token stream, bit-for-bit. The graphs are
//! Kahn process networks, so any divergence there is an executor bug,
//! never legal schedule nondeterminism. (Allocator free-list order and
//! allocator-indexed SRAM scratch *are* schedule-dependent — the alloc
//! pool is shared state outside the KPN model — so full `MemoryState`
//! equality is deliberately not asserted here; the random-DAG property
//! suite in `revet-machine` covers it for alloc-free graphs.)

use revet_apps::{all_apps, App};
use revet_core::PassOptions;
use revet_machine::RunOptions;

const SEED: u64 = 0xD1FF;
const MAX_ROUNDS: u64 = 200_000_000;

fn check_app_at(app: &App, level: u8) {
    let opts = PassOptions {
        opt_level: level,
        ..PassOptions::default()
    };
    let (program, args, w) = app.prepare(2, 12, SEED, &opts);

    let mut planned = program.instance();
    let p_report = planned
        .run_untimed(&args, MAX_ROUNDS)
        .unwrap_or_else(|e| panic!("{} (O{level}, planned): {e}", app.name));

    let mut interp = program.instance();
    interp.inject_args(&args);
    let (i_report, _) = interp
        .graph
        .run(RunOptions::new(MAX_ROUNDS))
        .unwrap_or_else(|e| panic!("{} (O{level}, interpreted): {e}", app.name));

    assert_eq!(
        planned.sink_tokens(),
        interp.sink_tokens(),
        "{} (O{level}): sink stream must match the interpreted executor",
        app.name
    );
    assert_eq!(
        planned.memory().dram,
        interp.memory().dram,
        "{} (O{level}): full DRAM image must match the interpreted executor",
        app.name
    );
    // Both outputs must also be *correct*, not merely identical: replay
    // the planned run on the template program and run the app's oracle.
    let mut p2 = program;
    p2.run_untimed(&args, MAX_ROUNDS).unwrap();
    app.check(&p2, &w);
    assert!(
        p_report.steps <= i_report.steps,
        "{} (O{level}): fused segments should never dispatch more often \
         than per-node interpretation ({} > {})",
        app.name,
        p_report.steps,
        i_report.steps
    );
}

#[test]
fn planned_matches_interpreted_on_all_apps() {
    for app in all_apps() {
        for level in [0, 2] {
            check_app_at(&app, level);
        }
    }
}
