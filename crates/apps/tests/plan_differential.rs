//! Differential correctness for the compiled execution plan: on every
//! Table III app, the [`ExecPlan`](revet_machine::ExecPlan) must be
//! observationally identical to the dense-sweep oracle
//! ([`run_dense`]), which shares no scheduling with it — the full final
//! DRAM image and the `main` sink's token stream, bit-for-bit. The graphs are
//! Kahn process networks, so any divergence there is an executor bug,
//! never legal schedule nondeterminism. (Allocator free-list order and
//! allocator-indexed SRAM scratch *are* schedule-dependent — the alloc
//! pool is shared state outside the KPN model — so full `MemoryState`
//! equality is deliberately not asserted here; the random-DAG property
//! suite in `revet-machine` covers it for alloc-free graphs.)

use revet_apps::{all_apps, App};
use revet_core::PassOptions;
use revet_machine::ExecReport;
use revet_oracle::dense::run_dense;

#[path = "common/moved_columns.rs"]
mod moved_columns;
use moved_columns::moved_columns;

const SEED: u64 = 0xD1FF;
const MAX_ROUNDS: u64 = 200_000_000;

/// The plan's schedule, pinned bit-for-bit: one line per (app, level) —
/// the static partition into wake units, the one-shot planned run's
/// counters, and the merged counters of the same argset streamed twice
/// with a poll between (the resume path). A change to *when* a node fires
/// moves a number here; a change to *how* it fires must not. The columns
/// have no names, so a failure counts the rows that moved per position
/// (`#3` is the node count) and prints the recomputed table.
const SCHEDULE_GOLDEN: &str = include_str!("golden/plan_schedule.txt");

fn counters(r: &ExecReport) -> String {
    format!(
        "{} {} {} {}",
        r.rounds, r.steps, r.productive_steps, r.peak_ready
    )
}

/// Differential checks for one (app, level); returns its schedule line.
fn check_app_at(app: &App, level: u8) -> String {
    let opts = PassOptions {
        opt_level: level,
        ..PassOptions::default()
    };
    let (mut program, args, w) = app.prepare(2, 12, SEED, &opts);
    let stats = program.graph.plan().stats();
    let mut stream = program.stream();
    for _ in 0..2 {
        assert_eq!(stream.feed(std::slice::from_ref(&args)).unwrap(), 1);
        stream
            .poll(MAX_ROUNDS)
            .unwrap_or_else(|e| panic!("{} (O{level}, streamed): {e}", app.name));
    }
    let streamed = *stream.report();
    // The session's channel table goes back to the program's pool, and
    // `planned` runs on it: a read of a slot the session left behind (debug
    // builds poison them) would differ from the dense oracle below.
    drop(stream);

    let mut planned = program.instance();
    let p_report = planned
        .run_untimed(&args, MAX_ROUNDS)
        .unwrap_or_else(|e| panic!("{} (O{level}, planned): {e}", app.name));

    let mut dense = program.instance();
    dense.inject_args(&args);
    let d_report = run_dense(&mut dense.graph, MAX_ROUNDS)
        .unwrap_or_else(|e| panic!("{} (O{level}, dense): {e}", app.name));

    assert_eq!(
        planned.sink_tokens(),
        dense.sink_tokens(),
        "{} (O{level}): sink stream must match the dense oracle",
        app.name
    );
    assert_eq!(
        planned.memory().dram,
        dense.memory().dram,
        "{} (O{level}): full DRAM image must match the dense oracle",
        app.name
    );
    // Both outputs must also be *correct*, not merely identical: replay
    // the planned run on the template program and run the app's oracle.
    let mut p2 = program;
    p2.run_untimed(&args, MAX_ROUNDS).unwrap();
    app.check(&p2, &w);
    assert!(
        p_report.steps <= d_report.steps,
        "{} (O{level}): the plan should never dispatch more often than \
         the dense sweep steps ({} > {})",
        app.name,
        p_report.steps,
        d_report.steps
    );
    format!(
        "{} O{level} {} {} {} {} | {} | {}",
        app.name,
        stats.nodes,
        stats.segments,
        stats.fused_ew,
        stats.longest_segment,
        counters(&p_report),
        counters(&streamed)
    )
}

#[test]
fn planned_matches_interpreted_on_all_apps() {
    let mut actual = Vec::new();
    for app in all_apps() {
        for level in [0, 2] {
            actual.push(check_app_at(&app, level));
        }
    }
    let actual = actual.join("\n");
    if actual != SCHEDULE_GOLDEN.trim_end() {
        let first = actual
            .lines()
            .zip(SCHEDULE_GOLDEN.lines())
            .position(|(line, want)| line != want);
        panic!(
            "plan schedule moved; rows moved per column: {}; first moved row: {first:?}\n\
             recomputed golden/plan_schedule.txt:\n{actual}",
            moved_columns(SCHEDULE_GOLDEN, &actual),
        );
    }
}
