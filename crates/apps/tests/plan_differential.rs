//! The compiled execution plan on every Table III app, judged at O0 and
//! O2 against the dense sweep (which shares no scheduling with it), the
//! chunked stream and the app's oracle: the full final DRAM image and the
//! exit stream, bit-for-bit. The graphs are Kahn process networks, so any
//! divergence is an executor bug, never legal schedule nondeterminism.

use revet_apps::all_apps;
use revet_machine::ExecReport;
use revet_oracle::judge::{Lanes, Stream};

#[path = "common/corpus.rs"]
mod corpus;
#[path = "common/moved_columns.rs"]
mod moved_columns;
use corpus::{app_case, judged};
use moved_columns::moved_columns;

const SEED: u64 = 0xD1FF;

/// The plan's schedule, pinned bit-for-bit: one line per (app, level) —
/// the static partition into wake units, the one-shot planned run's
/// counters, and the merged counters of the same argset streamed twice
/// with a poll between (the resume path). A change to *when* a node fires
/// moves a number here; a change to *how* it fires must not. The columns
/// have no names, so a failure counts the rows that moved per position
/// (`#3` is the node count) and prints the recomputed table.
const SCHEDULE_GOLDEN: &str = include_str!("golden/plan_schedule.txt");

#[test]
fn planned_matches_interpreted_on_all_apps() {
    let lanes = Lanes {
        dense: true,
        stream: Some(Stream {
            copies: 2,
            chunk: 1,
        }),
        ..Lanes::plan(&[0, 2])
    };
    let counters = |r: &ExecReport| {
        let (rounds, steps, productive, peak) =
            (r.rounds, r.steps, r.productive_steps, r.peak_ready);
        format!("{rounds} {steps} {productive} {peak}")
    };
    let mut actual = Vec::new();
    for app in all_apps() {
        let verdict = judged(app.name, &app_case(&app, 2, 12, SEED), &lanes);
        for l in &verdict {
            let (plan, dense) = (&l.plan[0], &l.dense[0]);
            assert!(
                plan.steps <= dense.steps,
                "{} (O{}): the plan should never dispatch more often than \
                 the dense sweep steps ({} > {})",
                app.name,
                l.level,
                plan.steps,
                dense.steps
            );
            let s = &l.plan_stats;
            actual.push(format!(
                "{} O{} {} {} {} {} | {} | {}",
                app.name,
                l.level,
                s.nodes,
                s.segments,
                s.fused_ew,
                s.longest_segment,
                counters(plan),
                counters(&l.stream[0])
            ));
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
