//! End-to-end sensitivity check: a deliberately injected wrong-code
//! transform (Add → Sub after the pass pipeline, on the dataflow path
//! only) must be caught by a short campaign AND the automatic reducer
//! must shrink the offending program to a reproducer a human can read
//! at a glance — under 15 source lines.

use revet_fuzz::{format_repro, run_campaign, GenConfig, Injection, Lanes, ReduceConfig};

#[test]
fn injected_add_to_sub_is_caught_and_minimized_small() {
    let bad_oracle = Lanes {
        inject: Some(Injection::FlipLastAddToSub),
        ..Lanes::default()
    };
    let report = run_campaign(
        42,
        40,
        &GenConfig::default(),
        &bad_oracle,
        &ReduceConfig::default(),
        false,
        |_, _| {},
    );
    let failure = report
        .failures
        .first()
        .expect("a 40-case campaign must trip the injected miscompile");

    // The reduced program still fails the injected oracle (the reducer
    // re-verified every step), and it is small enough to eyeball.
    let source_lines = failure
        .reduced
        .source
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    assert!(
        source_lines < 15,
        "minimized reproducer has {source_lines} non-blank lines (want < 15):\n{}",
        failure.reduced.source
    );
    assert!(
        failure.reduce_report.stmts_after <= failure.reduce_report.stmts_before,
        "reduction must never grow the program"
    );

    // The reproducer file round-trips through the replay path.
    let text = format_repro(&failure.reduced, Some(&failure.failure));
    let replayed = revet_fuzz::parse_repro(&text).expect("reproducer parses");
    assert_eq!(replayed.args, failure.reduced.args);
    assert!(
        revet_fuzz::run_case(&replayed, &bad_oracle).is_err(),
        "replayed reproducer must still fail under the injected oracle"
    );
    assert!(
        revet_fuzz::run_case(&replayed, &Lanes::default()).is_ok(),
        "reproducer must be green without the injection (the bug is the \
         injected transform, not the program)"
    );
}
