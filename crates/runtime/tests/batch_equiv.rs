//! Batch-equivalence tests: running N program instances on a 4-thread
//! pool must yield [`MemoryState`]s **bit-identical** to N sequential
//! single-threaded runs.
//!
//! This extends the PR 2 scheduler-equivalence discipline
//! (`crates/machine/tests/scheduler_equiv.rs`) one layer up: there, the
//! ready-set executor was pinned to the dense-sweep reference on one
//! graph; here, the parallel batch runtime is pinned to the sequential
//! instance loop on whole compiled programs. Both rest on the same Kahn
//! argument — every instance owns all of its mutable state, so thread
//! scheduling can change only *when* work happens, never *what* it
//! computes.

use revet_apps::app;
use revet_core::{CompiledProgram, PassOptions, Session};
use revet_machine::{MemoryState, PoolStats, POOL_IMAGES};
use revet_runtime::{BatchJob, BatchRunner, InstanceResult};
use revet_sltf::Word;

const MAX_ROUNDS: u64 = 200_000_000;

/// Sequential reference: one instance per job, run in a plain loop on the
/// calling thread.
fn run_sequential(jobs: &[BatchJob<'_>]) -> Vec<MemoryState> {
    jobs.iter()
        .map(|job| {
            let mut inst = job.program.instance();
            inst.run_untimed(&job.args, MAX_ROUNDS)
                .expect("reference run");
            inst.into_memory()
        })
        .collect()
}

/// Returns detached copies of the batch's results (cloning a
/// [`MemoryState`] takes its DRAM image out of the recycling pool), so the
/// images both runs used are back with their templates on return.
fn assert_batch_matches_sequential(jobs: &[BatchJob<'_>], threads: usize) -> Vec<InstanceResult> {
    let reference = run_sequential(jobs);
    let report = BatchRunner::new(threads).run(jobs);
    assert_eq!(report.results.len(), jobs.len());
    for (i, (result, ref_mem)) in report.results.iter().zip(&reference).enumerate() {
        let InstanceResult { mem, report, .. } = result
            .as_ref()
            .unwrap_or_else(|e| panic!("instance #{i}: {e}"));
        assert_eq!(mem, ref_mem, "instance #{i}: memory state diverged");
        assert!(report.productive_steps > 0, "instance #{i}: did nothing");
    }
    report.results.iter().flatten().cloned().collect()
}

/// A tiny arithmetic program whose output depends on `n`, so every job in
/// the batch computes something different.
fn triangular_program() -> CompiledProgram {
    Session::new(
        "dram<u32> output;
         void main(u32 n) {
             foreach (n) { u32 i =>
                 u32 acc = 0;
                 u32 j = 0;
                 while (j <= i) {
                     acc = acc + j;
                     j = j + 1;
                 };
                 output[i] = acc;
             };
         }",
        PassOptions {
            dram_bytes: 1 << 12,
            ..PassOptions::default()
        },
    )
    .to_dataflow()
    .expect("compiles")
}

#[test]
fn batch_on_four_threads_is_bit_identical_to_sequential_runs() {
    let program = triangular_program();
    let jobs: Vec<BatchJob> = (1..=16u32)
        .map(|n| BatchJob::new(&program, vec![Word(n)]))
        .collect();
    assert_batch_matches_sequential(&jobs, 4);
}

#[test]
fn mixed_app_batch_is_bit_identical_to_sequential_runs() {
    // Two real evaluation apps at two workload seeds each: four distinct
    // compiled programs, `POOL_IMAGES` (four) instances of each → a 16-job
    // mixed batch.
    let mut programs = Vec::new();
    for name in ["murmur3", "ip2int"] {
        let a = app(name).expect("registered");
        for seed in [7u64, 1234] {
            let (program, args, w) = a.prepare(2, 8, seed, &PassOptions::default());
            programs.push((program, args, a.clone(), w));
        }
    }
    let jobs: Vec<BatchJob> = (0..programs.len() * POOL_IMAGES)
        .map(|i| {
            let (program, args, ..) = &programs[i % programs.len()];
            BatchJob::new(program, args.clone())
        })
        .collect();
    let first = assert_batch_matches_sequential(&jobs, 4);
    // Identical is not yet correct: every instance's private DRAM must
    // also hold what its app's oracle computes.
    for (i, result) in first.iter().enumerate() {
        let (_, _, app, w) = &programs[i % programs.len()];
        app.check_dram(&result.mem.dram, w);
    }

    // The same batch again on the same programs. Every template's pool now
    // holds the images the first pass dirtied, one per instance of this
    // pass, so no instance gets a fresh copy — and none may show it.
    let pool_totals = || {
        let mut total = PoolStats::default();
        for (program, ..) in &programs {
            total.merge(&program.graph.mem.dram.pool_stats());
        }
        total
    };
    let before = pool_totals();
    let second = BatchRunner::new(4).run(&jobs);
    let after = pool_totals();
    assert_eq!(after.misses, before.misses, "steady state must not copy");
    assert_eq!(after.hits, before.hits + jobs.len() as u64);
    assert!(after.reset_pages > before.reset_pages);
    for (i, (again, first)) in second.results.iter().zip(&first).enumerate() {
        let again = again.as_ref().expect("second pass");
        assert_eq!(again.mem, first.mem, "instance #{i}: recycled memory");
        assert_eq!(again.report, first.report, "instance #{i}: recycled report");
        let (program, args, ..) = &programs[i % programs.len()];
        let mut oracle = program.instance();
        let report = oracle
            .run_untimed(args, MAX_ROUNDS)
            .expect("sequential oracle");
        assert_eq!((&again.report, &again.mem), (&report, oracle.memory()));
    }
}

#[test]
fn oversubscribed_pool_still_matches_sequential() {
    // More workers than jobs than cores: the cursor hand-off must not
    // skip, duplicate, or reorder job slots.
    let program = triangular_program();
    let jobs: Vec<BatchJob> = (1..=5u32)
        .map(|n| BatchJob::new(&program, vec![Word(n)]))
        .collect();
    assert_batch_matches_sequential(&jobs, 16);
}
