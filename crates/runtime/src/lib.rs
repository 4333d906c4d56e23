//! # revet-runtime — parallel batch execution of compiled programs
//!
//! The compiler produces one [`CompiledProgram`] per source; real
//! deployments run that program (or a mix of programs) over **many**
//! independent inputs. This crate is the intermediate runtime layer that
//! maps a batch of program instances onto a pool of OS threads:
//!
//! ```text
//!                jobs (program ref + args)
//!                  │
//!                  ▼
//!        ┌──────────────────────┐       shared, immutable
//!        │  BatchRunner::run    │  ┌───────────────────────────┐
//!        │  (atomic work queue) │  │ &CompiledProgram (Sync)   │
//!        └──────┬───────┬───────┘  │  graph template + Arc'd   │
//!               │       │          │  ExecPlan                 │
//!          ┌────┘       └────┐     └────────────▲──────────────┘
//!          ▼                 ▼                  │ instance()
//!     worker 0  …        worker T-1            per job
//!     ┌──────────┐       ┌──────────┐
//!     │ instance │       │ instance │   each: private Graph,
//!     │ run      │       │ run      │   MemoryState, exit channel
//!     └────┬─────┘       └────┬─────┘
//!          └────────┬─────────┘
//!                   ▼
//!            BatchReport (per-instance results, merged ExecReport)
//! ```
//!
//! Workers pull job indices from one shared [`AtomicUsize`] cursor —
//! there is no static sharding, so a worker that lands long-running
//! instances simply claims fewer of them. Instantiation
//! ([`CompiledProgram::instance`]) happens **on the worker**, so the
//! per-instance state copy and DRAM image reset scale with the pool
//! instead of serializing on the caller.
//!
//! Every instance executes through the [`revet_machine::ExecPlan`] its
//! program's graph carries (see the machine crate), via
//! [`revet_core::ProgramInstance::run_untimed`] — the runtime adds threads
//! and aggregation, not another way to execute. What a run counts comes
//! back in its result's [`ExecReport`] ([`BatchReport::total`] merges
//! them) and its `wall` time; the pool records into no observability
//! sink, so a profiler runs one instance through
//! [`revet_core::ProgramInstance::run`] with its own. (The
//! `planned_and_interpreted_modes_agree_bit_for_bit` test holds the pool
//! against the dense-sweep oracle, `revet_oracle::dense::run_dense`.)
//!
//! Execution is deterministic per instance: a
//! [`revet_core::ProgramInstance`] owns all of its mutable state, so
//! parallel batch results are bit-identical to a
//! sequential loop over the same jobs (`tests/batch_equiv.rs` pins this,
//! reusing the scheduler-equivalence discipline: identical
//! [`MemoryState`]s). A result carries no output tokens: `Execute`'s
//! reply is a DRAM window, and a `main` that returns values is read
//! through a streaming session.
//!
//! ## Example
//!
//! ```
//! use revet_core::{PassOptions, Session};
//! use revet_runtime::{BatchJob, BatchRunner};
//! use revet_sltf::Word;
//!
//! let program = Session::new(
//!     "dram<u32> output;
//!      void main(u32 n) {
//!          foreach (n) { u32 i => output[i] = i + 1; };
//!      }",
//!     PassOptions::default(),
//! )
//! .to_dataflow()
//! .unwrap();
//! let jobs: Vec<BatchJob> = (1..=8).map(|n| BatchJob::new(&program, vec![Word(n)])).collect();
//! let report = BatchRunner::new(4).run(&jobs);
//! assert_eq!(report.ok_count(), 8);
//! let first = report.results[0].as_ref().unwrap();
//! assert_eq!(&first.mem.dram[..4], &1u32.to_le_bytes());
//! ```

#![warn(missing_docs)]

use revet_core::CompiledProgram;
use revet_machine::{ExecReport, MachineError, MemoryState};
use revet_sltf::Word;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// A compiled program is shared by reference across the worker pool; this
// only holds because every part of it is immutable-while-shared (`Sync`).
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<CompiledProgram>();
};

/// Default per-instance round cap (matches the evaluation harnesses).
pub const DEFAULT_MAX_ROUNDS: u64 = 200_000_000;

/// One unit of batch work: which compiled program to instantiate and the
/// `main` arguments to run the instance with. Jobs in one batch may
/// reference different programs (a mixed-tenant batch).
#[derive(Clone, Debug)]
pub struct BatchJob<'p> {
    /// The shared compiled program this job instantiates.
    pub program: &'p CompiledProgram,
    /// `main` arguments for this instance.
    pub args: Vec<Word>,
    /// Per-instance DRAM overlays: `(byte offset, bytes)` written into
    /// the fresh instance's DRAM image (through
    /// [`MemoryState::write_dram`]) before it runs. This is how one
    /// shared compile serves instances with *different inputs* — the
    /// template's image stays untouched, and the pages an overlay covers
    /// are restored before the image serves another instance. Behind an
    /// `Arc` so a batch of jobs sharing one overlay set shares the bytes
    /// instead of cloning them per job. Out-of-range overlays fail that
    /// job (not the batch) with a [`MachineError`].
    pub dram_inits: Arc<[(usize, Vec<u8>)]>,
}

impl<'p> BatchJob<'p> {
    /// Creates a job running `program` with `args` (no DRAM overlays).
    pub fn new(program: &'p CompiledProgram, args: Vec<Word>) -> Self {
        BatchJob {
            program,
            args,
            dram_inits: Vec::new().into(),
        }
    }

    /// Adds per-instance DRAM overlays (see [`BatchJob::dram_inits`]).
    /// Accepts a `Vec` or an already-shared `Arc` slice.
    #[must_use]
    pub fn with_dram_inits(mut self, dram_inits: impl Into<Arc<[(usize, Vec<u8>)]>>) -> Self {
        self.dram_inits = dram_inits.into();
        self
    }
}

/// Everything one finished instance leaves behind.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceResult {
    /// Scheduler counters from the instance's untimed run.
    pub report: ExecReport,
    /// The instance's final memory state (DRAM outputs live here).
    pub mem: MemoryState,
    /// Wall-clock time for this instance alone (instantiate + run +
    /// harvest, measured on the worker that ran it). A serving layer
    /// reports it per instance.
    pub wall: Duration,
}

/// Aggregated outcome of one [`BatchRunner::run`] call.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in job order (independent of which worker ran
    /// what, or in what order).
    pub results: Vec<Result<InstanceResult, MachineError>>,
    /// Worker threads actually used (capped at the job count).
    pub threads: usize,
}

impl BatchReport {
    /// Number of instances that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// The first failure, if any instance failed.
    pub fn first_error(&self) -> Option<&MachineError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }

    /// Scheduler counters merged over all successful instances.
    pub fn total(&self) -> ExecReport {
        let mut total = ExecReport::default();
        for r in self.results.iter().flatten() {
            total.merge(&r.report);
        }
        total
    }
}

/// A fixed-width thread pool driving a batch of program instances through
/// the untimed executor. Stateless between calls: construction is cheap
/// and the pool exists only for the duration of one [`BatchRunner::run`].
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: usize,
    max_rounds: u64,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers and the default round cap.
    ///
    /// `new(0)` clamps to one worker: a runner that can make no progress
    /// is never what a caller wants, and admission layers that compute a
    /// pool size (`cores - reserved`, say) should degrade to sequential
    /// execution rather than panic or hang.
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// Overrides the per-instance round cap (livelock guard).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job to quiescence, sharding instances across the worker
    /// pool, and aggregates the outcomes in job order.
    ///
    /// `run(&[])` is well-defined: it spawns nothing and returns an empty
    /// report — no results, `threads == 0`, `ok_count() == 0`.
    /// Admission queues may hand a drained runner an empty batch; that
    /// must be a no-op, not an edge case.
    pub fn run(&self, jobs: &[BatchJob<'_>]) -> BatchReport {
        if jobs.is_empty() {
            return BatchReport {
                results: Vec::new(),
                threads: 0,
            };
        }
        let workers = self.threads.min(jobs.len()).max(1);
        let mut slots: Vec<Option<Result<InstanceResult, MachineError>>> =
            (0..jobs.len()).map(|_| None).collect();
        if workers == 1 {
            for (slot, job) in slots.iter_mut().zip(jobs) {
                *slot = Some(run_one(job, self.max_rounds));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let max_rounds = self.max_rounds;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let cursor = &cursor;
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(job) = jobs.get(i) else { break };
                                done.push((i, run_one(job, max_rounds)));
                            }
                            done
                        })
                    })
                    .collect();
                for handle in handles {
                    let done = handle.join().expect("batch worker panicked");
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
            });
        }
        BatchReport {
            results: slots
                .into_iter()
                .map(|s| s.expect("every job index was claimed exactly once"))
                .collect(),
            threads: workers,
        }
    }
}

/// Instantiate → overlay DRAM → run → harvest, entirely on the calling
/// worker thread, timing the whole instance lifetime.
fn run_one(job: &BatchJob<'_>, max_rounds: u64) -> Result<InstanceResult, MachineError> {
    let start = Instant::now();
    let mut inst = job.program.instance();
    for (base, bytes) in job.dram_inits.iter() {
        inst.graph.mem.write_dram(*base, bytes)?;
    }
    let report = inst.run_untimed(&job.args, max_rounds)?;
    Ok(InstanceResult {
        report,
        mem: inst.into_memory(),
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_core::{PassOptions, Session};
    use revet_oracle::dense::run_dense;

    fn squares_program() -> CompiledProgram {
        Session::new(
            "dram<u32> output;
             void main(u32 n) {
                 foreach (n) { u32 i => output[i] = i * i; };
             }",
            PassOptions {
                dram_bytes: 1 << 12,
                ..PassOptions::default()
            },
        )
        .to_dataflow()
        .unwrap()
    }

    /// One job per `main(n)` argument, all on `program`.
    fn jobs(program: &CompiledProgram, ns: impl IntoIterator<Item = u32>) -> Vec<BatchJob<'_>> {
        ns.into_iter()
            .map(|n| BatchJob::new(program, vec![Word(n)]))
            .collect()
    }

    #[test]
    fn parallel_batch_covers_every_job_in_order() {
        let program = squares_program();
        let report = BatchRunner::new(4).run(&jobs(&program, 1..=13));
        assert_eq!(report.threads, 4);
        assert_eq!(report.ok_count(), 13);
        assert!(report.first_error().is_none());
        for (n, result) in (1u32..=13).zip(&report.results) {
            let mem = &result.as_ref().unwrap().mem;
            let last = (n - 1) as usize;
            let got = u32::from_le_bytes(mem.dram[4 * last..4 * last + 4].try_into().unwrap());
            assert_eq!(got, (n - 1) * (n - 1), "job n={n} out of order or wrong");
        }
        let total = report.total();
        assert!(total.productive_steps > 0);
    }

    #[test]
    fn worker_count_caps_at_job_count() {
        let program = squares_program();
        let report = BatchRunner::new(64).run(&jobs(&program, [2]));
        assert_eq!(report.threads, 1);
        assert_eq!(report.ok_count(), 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let runner = BatchRunner::new(0);
        assert_eq!(runner.threads(), 1);
        let program = squares_program();
        let report = runner.run(&jobs(&program, [3]));
        assert_eq!(report.ok_count(), 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let report = BatchRunner::new(4).run(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.threads, 0);
        assert_eq!(report.ok_count(), 0);
        assert!(report.first_error().is_none());
        assert_eq!(report.total(), ExecReport::default());
    }

    #[test]
    fn dram_inits_overlay_each_instance_privately() {
        let program = Session::new(
            "dram<u32> input;
             dram<u32> output;
             void main(u32 n) {
                 foreach (n) { u32 i => output[i] = input[i] + 1; };
             }",
            PassOptions {
                dram_bytes: 1 << 12,
                ..PassOptions::default()
            },
        )
        .to_dataflow()
        .unwrap();
        let half = (1 << 12) / 2;
        let mk = |vals: &[u32]| -> Vec<(usize, Vec<u8>)> {
            let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            vec![(0, bytes)]
        };
        let jobs = vec![
            BatchJob::new(&program, vec![Word(2)]).with_dram_inits(mk(&[10, 20])),
            BatchJob::new(&program, vec![Word(2)]).with_dram_inits(mk(&[7, 9])),
        ];
        let report = BatchRunner::new(2).run(&jobs);
        assert_eq!(report.ok_count(), 2);
        let out = |r: &InstanceResult, i: usize| {
            u32::from_le_bytes(
                r.mem.dram[half + 4 * i..half + 4 * i + 4]
                    .try_into()
                    .unwrap(),
            )
        };
        let a = report.results[0].as_ref().unwrap();
        let b = report.results[1].as_ref().unwrap();
        assert_eq!((out(a, 0), out(a, 1)), (11, 21));
        assert_eq!((out(b, 0), out(b, 1)), (8, 10));
        // The template image was never written.
        assert!(program.graph.mem.dram.iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_range_dram_init_fails_that_job_only() {
        let program = squares_program();
        let jobs = vec![
            BatchJob::new(&program, vec![Word(1)]).with_dram_inits(vec![(usize::MAX, vec![0u8])]),
            BatchJob::new(&program, vec![Word(1)]),
        ];
        let report = BatchRunner::new(1).run(&jobs);
        assert_eq!(report.ok_count(), 1);
        let err = report.results[0].as_ref().unwrap_err();
        assert!(err.message.contains("dram init"), "got: {err}");
        assert!(report.results[1].is_ok());
    }

    #[test]
    fn planned_and_interpreted_modes_agree_bit_for_bit() {
        // The pool only drives the plan; the dense-sweep oracle must leave
        // the same bits. (The name predates the interpreter's removal.)
        let program = squares_program();
        let argsets: Vec<Vec<Word>> = (1..=6).map(|n| vec![Word(n)]).collect();
        let planned = BatchRunner::new(2).run(&jobs(&program, 1..=6));
        assert_eq!(planned.ok_count(), 6);
        for (p, args) in planned.results.iter().zip(&argsets) {
            let p = p.as_ref().unwrap();
            let mut dense = program.instance();
            dense.inject_args(args);
            let report = run_dense(&mut dense.graph, DEFAULT_MAX_ROUNDS).unwrap();
            assert_eq!(&p.mem, dense.memory(), "DRAM/SRAM must be bit-identical");
            // The plan only fires woken units, so it never attempts more
            // steps than the sweep.
            assert!(p.report.steps <= report.steps);
        }
    }

    #[test]
    fn instance_failures_are_attributed_not_fatal() {
        let program = squares_program();
        // Round cap of 0 forces an immediate livelock diagnosis per
        // instance; the batch still completes and reports every failure.
        let report = BatchRunner::new(2)
            .with_max_rounds(0)
            .run(&jobs(&program, [1, 2]));
        assert_eq!(report.ok_count(), 0);
        let err = report.first_error().expect("both instances failed");
        assert!(err.message.contains("no quiescence"), "got: {err}");
    }
}
