//! The cycle-level simulator, pinned: one row per Table III app at a fixed
//! small scale and seed, from [`Simulator::run`] on the Table II machine
//! with every subsystem modelled (`IdealModels::default()`), then the same
//! eight rows, prefixed `buf=1/1`, with every vector and scalar input
//! buffer one token deep. At Table II's depths no link ever fills, so the
//! second block is what pins back-pressure: its `full=` and `wake_cap=`
//! columns are non-zero on every app.
//!
//! The simulator steps the same firing rules the untimed executor does, one
//! node at a time through `Graph::step_node`, under per-link budgets,
//! bounded buffers and the DRAM token bucket. Each app also runs through
//! [`Simulator::run_obs`] with a counters-only sink: its [`SimStats`] must
//! equal the noop-sink run's, and the row records the sink's stall totals
//! per class and its wake causes. Its dispatches (productive or not,
//! starved ones included) are derived, each from its one source: every
//! fire is busy or a stall of a class a fire can have (not DRAM-gated,
//! which defers an address generator unfired), so `dispatches = busy +
//! starved + full + alloc_gated` and `productive = busy`. A change to *how* a node fires or how the ready
//! set accounts a dispatch must leave every number here unchanged; only a
//! change to the machine model, the optimizer or the lowering may move one,
//! and then the failure counts the rows that moved in each column
//! (`cycles 0/16, busy 16/16, ...`) and prints the recomputed
//! `golden/sim_stats.txt`.

use revet_apps::all_apps;
use revet_core::PassOptions;
use revet_obs::ObsSink;
use revet_sim::{IdealModels, RdaConfig, SimStats, Simulator};

#[path = "../../apps/tests/common/moved_columns.rs"]
mod moved_columns;
use moved_columns::moved_columns;

const SIM_GOLDEN: &str = include_str!("golden/sim_stats.txt");

const OUTER: u32 = 2;
const SCALE: usize = 32;
const SEED: u64 = 0x5117;
const MAX_CYCLES: u64 = 2_000_000_000;

#[test]
fn simulated_cycles_and_traffic_match_the_golden() {
    // The level is pinned: `REVET_OPT_LEVEL` must not move the table.
    let opts = PassOptions {
        opt_level: 2,
        ..PassOptions::default()
    };
    let one_deep = RdaConfig {
        vector_buffer_tokens: 1,
        scalar_buffer_tokens: 1,
        ..RdaConfig::default()
    };
    let mut actual = Vec::new();
    for (prefix, config) in [("", RdaConfig::default()), ("buf=1/1 ", one_deep)] {
        let sim = Simulator::new(config, IdealModels::default());
        for app in all_apps() {
            let (mut program, args, w) = app.prepare(OUTER, SCALE, SEED, &opts);
            let stats = sim
                .run(&mut program, &args, MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            app.check(&program, &w);

            let obs = ObsSink::counters_only();
            let (mut program, args, w) = app.prepare(OUTER, SCALE, SEED, &opts);
            let observed = sim
                .run_obs(&mut program, &args, MAX_CYCLES, &obs)
                .unwrap_or_else(|e| panic!("{} (observed): {e}", app.name));
            app.check(&program, &w);
            assert_eq!(
                stats_row(&observed),
                stats_row(&stats),
                "{}: an enabled sink moved the simulated run",
                app.name
            );

            let c = &obs.counters;
            let busy: u64 = stats.busy_cycles.iter().sum();
            let [starved, full, alloc_gated, dram_gated] = obs.stall_totals();
            actual.push(format!(
                "{prefix}{} {} dispatches={} productive={busy} starved={starved} full={full} \
                 alloc_gated={alloc_gated} dram_gated={dram_gated} wake_tok={} wake_cap={} \
                 wake_alloc={}",
                app.name,
                stats_row(&stats),
                busy + starved + full + alloc_gated,
                c.wakes_token.get(),
                c.wakes_capacity.get(),
                c.wakes_alloc.get(),
            ));
        }
    }
    assert_eq!(
        actual.len(),
        16,
        "one row per Table III app and buffer depth"
    );
    let actual = actual.join("\n");
    if actual != SIM_GOLDEN.trim_end() {
        let first = actual
            .lines()
            .zip(SIM_GOLDEN.lines())
            .position(|(line, want)| line != want);
        panic!(
            "simulated run moved; rows moved per column: {}; first moved row: {first:?}\n\
             recomputed golden/sim_stats.txt:\n{actual}",
            moved_columns(SIM_GOLDEN, &actual),
        );
    }
}

/// The [`SimStats`] columns of a row.
fn stats_row(stats: &SimStats) -> String {
    format!(
        "cycles={} busy={} skipped={} peak_busy={} dram_read={} dram_written={}",
        stats.cycles,
        stats.busy_cycles.iter().sum::<u64>(),
        stats.skipped_idle_steps,
        stats.peak_busy_nodes,
        stats.dram_read_bytes,
        stats.dram_written_bytes
    )
}
