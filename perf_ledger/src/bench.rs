//! The measurement loop, shared by the five workloads.
//!
//! An *op* is one pass over a workload's fixed script of steps. Every pass
//! does byte-identical work, each step is timed on its own, and everything
//! that is not the step — preparing its arguments, verifying its output,
//! the traced replica — happens between timed intervals.

use crate::alloc;
use crate::layers::{App, Inputs, Word};
use crate::stats::{floor_ns, quantile};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Failed operations after which a run stops measuring: a broken build is
/// reported, not benchmarked.
const FAILURE_CAP: u64 = 10;

/// One app with its generated inputs, as every workload holds them.
pub struct Case {
    pub app: App,
    pub source: String,
    pub inputs: Inputs,
    pub args: Vec<Word>,
}

/// Per-layer counts a workload reports next to its spans; exact, not timed.
pub type Counts = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    /// What `prepare` hands to `run`, and what `run` hands to `check`.
    type Prep;
    type Out;

    /// Whether every pass must make exactly the same number of allocator
    /// calls: true in process, false with a server's threads in the count.
    const EXACT_ALLOCS: bool;

    /// Number of steps in the script.
    fn steps(&self) -> usize;

    /// The cold set-up sequence `setup_s` times: generate the inputs from
    /// `seed`, compile, load or boot. Verification is `verify_setup`'s job.
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String>;

    /// Checks what set-up built against the oracles; returns what failed.
    /// Untimed.
    fn verify_setup(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Argument preparation the API forces on every call. Untimed.
    fn prepare(&mut self, step: usize) -> Result<Self::Prep, String>;

    /// The step itself. Timed; no checking in here.
    fn run(&mut self, step: usize, prep: Self::Prep) -> Result<Self::Out, String>;

    /// Verifies the step's output against the oracle and returns a digest
    /// of it; the loop requires the digest to be the same on every pass.
    fn check(&mut self, step: usize, out: Self::Out) -> Result<u64, String>;

    /// The same request again as the same public calls in the same order,
    /// one span each; returns the digest of its output, which must equal
    /// the real step's.
    fn replica(&mut self, step: usize, t: &mut Tracer) -> Result<u64, String>;

    /// Releases what set-up acquired and runs the end-of-run checks;
    /// returns what failed. `measured` is false for the set-up repetitions'
    /// states, which never ran a pass.
    fn teardown(&mut self, _measured: bool, _t: &mut Tracer) -> Vec<String> {
        Vec::new()
    }

    /// Exact per-pass counts taken from the layers' own reports, asked for
    /// after teardown.
    fn counts(&self, counts: &mut Counts);

    /// The program instances one pass executes, as (case, instances), for
    /// `sim_cycles_per_op`.
    fn sim_cases(&self) -> Vec<(&Case, u64)>;
}

pub struct Plan {
    pub passes: usize,
    pub setup_reps: usize,
    pub trace: bool,
}

/// What one measured phase produced.
pub struct Phase {
    /// `[step][pass]` latencies in nanoseconds.
    step_ns: Vec<Vec<u64>>,
    alloc_calls: u64,
    alloc_bytes: u64,
    /// First pass whose allocator-call count differs from pass 0's.
    pub alloc_drift_pass: Option<usize>,
    pub passes: usize,
    wall_s: f64,
}

impl Phase {
    /// Each step's floor latency, milliseconds.
    pub fn step_floors_ms(&self) -> Vec<f64> {
        self.step_ns
            .iter()
            .map(|s| floor_ns(s) as f64 / 1e6)
            .collect()
    }

    /// Σ over steps of each step's floor latency, milliseconds.
    pub fn op_ms_floor(&self) -> f64 {
        self.step_floors_ms().iter().sum()
    }

    /// Quantile of whole-pass latency (Σ of the pass's steps), milliseconds.
    pub fn op_ms_quantile(&self, q: f64) -> f64 {
        let per_pass: Vec<u64> = (0..self.passes)
            .map(|p| self.step_ns.iter().map(|s| s[p]).sum())
            .collect();
        quantile(&per_pass, q) as f64 / 1e6
    }

    pub fn ops_per_s_wall(&self) -> f64 {
        self.passes as f64 / self.wall_s
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.alloc_calls as f64 / self.passes as f64
    }

    pub fn alloc_kb_per_op(&self) -> f64 {
        self.alloc_bytes as f64 / 1024.0 / self.passes as f64
    }
}

/// Failed operations and what was wrong with the first few.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    /// A failure that counts as one failed operation.
    fn note(&mut self, message: String) {
        self.count += 1;
        self.detail(message);
    }

    /// Detail of a failure counted elsewhere.
    fn detail(&mut self, message: String) {
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }
}

pub struct Outcome {
    /// Floor over the set-up repetitions, seconds.
    pub setup_s: f64,
    /// Untraced passes: the end-to-end numbers come from here.
    pub plain: Phase,
    /// Passes with a replica after every step (traced runs only).
    pub traced: Option<Phase>,
    pub tracer: Tracer,
    pub counts: Counts,
    pub sim_cycles_per_op: u64,
    pub failures: Failures,
}

impl Outcome {
    /// Passes that left samples plus operations that failed.
    pub fn attempted(&self) -> u64 {
        let measured = self.plain.passes + self.traced.as_ref().map_or(0, |t| t.passes);
        measured as u64 + self.failures.count
    }
}

/// Runs one workload: set-up repetitions, verification, warm-up, the
/// measured passes (untraced, then traced if asked), teardown.
pub fn run<W: Workload>(seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut tracer = if plan.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut failures = Failures::default();

    let mut setup_ns = Vec::with_capacity(plan.setup_reps);
    let mut state: Option<W> = None;
    for rep in 0..plan.setup_reps {
        if let Some(mut old) = state.take() {
            tracer.begin_section(trace::TEARDOWN, rep as u32);
            old.teardown(false, &mut tracer)
                .into_iter()
                .for_each(|m| failures.note(m));
            tracer.end_section();
        }
        tracer.begin_section(trace::SETUP, rep as u32);
        let t0 = Instant::now();
        let fresh = W::setup(seed, &mut tracer)?;
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        tracer.end_section();
        state = Some(fresh);
    }
    let mut w = state.ok_or("at least one set-up repetition is needed")?;
    w.verify_setup().into_iter().for_each(|m| failures.note(m));

    let mut reference = vec![None; w.steps()];
    let plain = measure(&mut w, plan.passes, &mut reference, None, &mut failures);
    let traced = plan.trace.then(|| {
        measure(
            &mut w,
            plan.passes,
            &mut reference,
            Some(&mut tracer),
            &mut failures,
        )
    });

    if W::EXACT_ALLOCS {
        for phase in std::iter::once(&plain).chain(&traced) {
            if let Some(pass) = phase.alloc_drift_pass {
                failures.note(format!(
                    "allocator calls first differed from pass 0's at pass {pass}"
                ));
            }
        }
    }

    let mut sim_cycles_per_op = 0;
    for (case, instances) in w.sim_cases() {
        match crate::workloads::sim_cycles(case) {
            Ok(cycles) => sim_cycles_per_op += cycles * instances,
            Err(e) => failures.note(format!("{}: simulated run: {e}", case.app.name)),
        }
    }

    tracer.begin_section(trace::TEARDOWN, plan.setup_reps as u32);
    w.teardown(true, &mut tracer)
        .into_iter()
        .for_each(|m| failures.note(m));
    tracer.end_section();
    let mut counts = Counts::new();
    w.counts(&mut counts);

    Ok(Outcome {
        setup_s: floor_ns(&setup_ns) as f64 / 1e9,
        plain,
        traced,
        tracer,
        counts,
        sim_cycles_per_op,
        failures,
    })
}

/// Warm-up passes (5%, unrecorded), then `passes` recorded ones. With a
/// tracer, every step is followed by its replica. A pass with a failed step
/// is one failed operation and leaves no samples.
fn measure<W: Workload>(
    w: &mut W,
    passes: usize,
    reference: &mut [Option<u64>],
    mut tracer: Option<&mut Tracer>,
    failures: &mut Failures,
) -> Phase {
    let steps = w.steps();
    let warmup = passes.div_ceil(20);
    let mut phase = Phase {
        step_ns: vec![Vec::with_capacity(passes); steps],
        alloc_calls: 0,
        alloc_bytes: 0,
        alloc_drift_pass: None,
        passes: 0,
        wall_s: 0.0,
    };
    let failed_before = failures.count;
    let mut first_pass_calls = None;
    let mut pass_ns = vec![0; steps];
    let mut started = Instant::now();
    for pass in 0..warmup + passes {
        if pass == warmup {
            started = Instant::now();
        }
        let mut pass_alloc = alloc::Snapshot::default();
        let mut pass_ok = true;
        for step in 0..steps {
            let mut fail = |what: &str, e: String| {
                pass_ok = false;
                failures.detail(format!("pass {pass} step {step}: {what}: {e}"));
            };
            let prep = match w.prepare(step) {
                Ok(prep) => prep,
                Err(e) => {
                    fail("prepare", e);
                    continue;
                }
            };
            let a0 = alloc::snapshot();
            let t0 = Instant::now();
            let out = black_box(w.run(step, black_box(prep)));
            pass_ns[step] = t0.elapsed().as_nanos() as u64;
            let allocated = alloc::snapshot().since(a0);
            pass_alloc.calls += allocated.calls;
            pass_alloc.bytes += allocated.bytes;

            let digest = match out.and_then(|out| w.check(step, out)) {
                Ok(digest) => digest,
                Err(e) => {
                    fail("step", e);
                    continue;
                }
            };
            if *reference[step].get_or_insert(digest) != digest {
                fail("step", "output differs from the first pass's".into());
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.begin_section(trace::step_section(step), pass as u32);
                let replayed = w.replica(step, t);
                t.end_section();
                match replayed {
                    Ok(d) if d == digest => {}
                    Ok(_) => fail("replica", "output differs from the real path's".into()),
                    Err(e) => fail("replica", e),
                }
            }
        }
        if !pass_ok {
            failures.count += 1;
            if failures.count - failed_before >= FAILURE_CAP {
                break;
            }
        } else if pass >= warmup {
            for (series, ns) in phase.step_ns.iter_mut().zip(&pass_ns) {
                series.push(*ns);
            }
            phase.alloc_calls += pass_alloc.calls;
            phase.alloc_bytes += pass_alloc.bytes;
            if *first_pass_calls.get_or_insert(pass_alloc.calls) != pass_alloc.calls {
                phase.alloc_drift_pass.get_or_insert(phase.passes);
            }
            phase.passes += 1;
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}
