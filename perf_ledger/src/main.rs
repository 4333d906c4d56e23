//! `perf_ledger` — the repository's benchmark. One invocation runs one
//! workload, verifies every output, prints every metric by name with its
//! unit, and ends with the one-line JSON result `BENCHMARK.json` describes.
//!
//! ```text
//! perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! README.md explains the measurement rules; the short of it: an op is one
//! pass over a fixed script of short steps, the latency metric is the sum of
//! the steps' 1st-percentile latencies, and counts come from a counting
//! allocator and the layers' own reports.

mod alloc;
mod bench;
mod layers;
mod stats;
mod trace;
mod workloads;

use bench::{Outcome, Plan};
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The run length the pass counts below are sized for (`run_seconds` in
/// `BENCHMARK.json`); `--seconds` scales them.
const RUN_SECONDS: usize = 12;
const DEFAULT_SEED: u64 = 0x5EED;

struct Spec {
    name: &'static str,
    /// Passes in an untraced run of `RUN_SECONDS`: sized on the reference
    /// box so the timed steps add up to about that long.
    passes: usize,
    /// Repetitions of the cold set-up sequence.
    setup_reps: usize,
    run: fn(u64, &Plan) -> Result<Outcome, String>,
    /// (app, scale) of each step, for the record.
    script: fn() -> Vec<(&'static str, usize)>,
}

const SPECS: [Spec; 5] = [
    Spec {
        name: "compile_cold",
        passes: 1500,
        setup_reps: 100,
        run: bench::run::<workloads::CompileCold>,
        script: || {
            layers::all_apps()
                .iter()
                .map(|a| (a.name, workloads::COMPILE_COLD_SCALE))
                .collect()
        },
    },
    Spec {
        name: "exec_control",
        passes: 1400,
        setup_reps: 300,
        run: bench::run::<workloads::ExecControl>,
        script: || workloads::EXEC_CONTROL_APPS.to_vec(),
    },
    Spec {
        name: "serve_oneshot",
        passes: 1400,
        setup_reps: 30,
        run: bench::run::<workloads::ServeOneshot>,
        script: || workloads::SERVE_APPS.to_vec(),
    },
    Spec {
        name: "serve_stream",
        passes: 5500,
        setup_reps: 30,
        run: bench::run::<workloads::ServeStream>,
        script: || workloads::SERVE_APPS.to_vec(),
    },
    Spec {
        name: "sim_timed",
        passes: 1300,
        setup_reps: 300,
        run: bench::run::<workloads::SimTimed>,
        script: || workloads::SIM_TIMED_APPS.to_vec(),
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: usize,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        spec: &SPECS[0],
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let names = || SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {}", names()))?;
    args.spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("no workload {workload}: one of {}", names()))?;
    Ok(args)
}

impl Args {
    /// A traced run makes a quarter of the passes twice: once plain, once
    /// with a replica after every step.
    fn plan(&self) -> Plan {
        let (passes, setup_reps) = if self.quick {
            (50, 5)
        } else {
            let passes = self.spec.passes * self.seconds / RUN_SECONDS;
            if self.trace {
                (passes / 4, self.spec.setup_reps / 4)
            } else {
                (passes, self.spec.setup_reps)
            }
        };
        Plan {
            passes: passes.max(20),
            setup_reps: setup_reps.max(2),
            trace: self.trace,
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a user of the system would see. Always from the untraced passes.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        metric("setup_s", o.setup_s, "s"),
        metric("op_ms_floor", o.plain.op_ms_floor(), "ms"),
        metric("alloc_kb_per_op", o.plain.alloc_kb_per_op(), "KiB"),
        metric("allocs_per_op", o.plain.allocs_per_op(), "count"),
        metric("sim_cycles_per_op", o.sim_cycles_per_op as f64, "cycles"),
    ]
}

/// The ledger: span floors from the traced passes, exact counts from the
/// layers' reports, and the run's own health. A metric a workload does not
/// exercise reads 0.
fn per_layer(o: &Outcome, plan: &Plan) -> Vec<Metric> {
    let l = o.tracer.ledger();
    let count = |name: &str| o.counts.get(name).copied().unwrap_or(0.0);
    let self_us = |name: &'static str, span: &str| metric(name, l.self_us(span), "us");
    let total_us = |name: &'static str, span: &str| metric(name, l.total_us(span), "us");
    let counted = |name: &'static str, unit: &'static str| metric(name, count(name), unit);

    let plain_floor = o.plain.op_ms_floor();
    let traced_floor_us = o.traced.as_ref().map_or(0.0, |t| t.op_ms_floor() * 1e3);
    // By convention a span named `*_rt` is a real round trip; every other
    // root span of a step is the in-process replica of part of one.
    let is_real = |name: &str| name.ends_with("_rt");
    let real_us = l.step_roots_us(is_real);
    let replica_us = l.step_roots_us(|name| !is_real(name));
    let pct = |part: f64, whole: f64| {
        if whole > 0.0 {
            100.0 * part / whole
        } else {
            0.0
        }
    };
    let sim_cycles = count("sim.cycles");

    vec![
        self_us("lang.parse_us", "lang.parse"),
        self_us("lang.lower_mir_us", "lang.lower_mir"),
        self_us("mir.run_passes_us", "mir.run_passes"),
        counted("mir.ops_out", "count"),
        self_us("core.to_dataflow_us", "core.to_dataflow"),
        self_us("core.fingerprint_us", "core.fingerprint"),
        counted("core.graph_contexts", "count"),
        counted("core.graph_links", "count"),
        self_us("core.instantiate_us", "core.instantiate"),
        self_us("core.overlay_us", "core.overlay"),
        self_us("core.harvest_us", "core.harvest"),
        self_us("core.stream_open_us", "core.stream_open"),
        self_us("core.stream_feed_us", "core.stream_feed"),
        self_us("core.stream_poll_us", "core.stream_poll"),
        self_us("core.stream_finish_us", "core.stream_finish"),
        counted("core.stream_resident_growth", "bytes"),
        self_us("machine.plan_build_us", "machine.plan_build"),
        self_us("machine.plan_run_us", "machine.plan_run"),
        counted("machine.dispatches_per_op", "count"),
        counted("machine.rounds_per_op", "count"),
        counted("machine.productive_ratio", "ratio"),
        counted("machine.peak_ready", "count"),
        total_us("runtime.batch_run_us", "runtime.batch_run"),
        self_us("runtime.overhead_us", "runtime.batch_run"),
        self_us("serve.encode_request_us", "serve.encode_request"),
        self_us("serve.decode_request_us", "serve.decode_request"),
        self_us("serve.encode_response_us", "serve.encode_response"),
        self_us("serve.decode_response_us", "serve.decode_response"),
        self_us("serve.cache_hit_us", "serve.cache_hit"),
        counted("serve.request_bytes", "bytes"),
        counted("serve.response_bytes", "bytes"),
        self_us("serve.compile_hit_rt_us", "serve.compile_hit_rt"),
        self_us("serve.execute_rt_us", "serve.execute_rt"),
        self_us("serve.feed_rt_us", "serve.feed_rt"),
        self_us("serve.poll_rt_us", "serve.poll_rt"),
        self_us("serve.open_rt_us", "serve.open_rt"),
        self_us("serve.close_rt_us", "serve.close_rt"),
        metric(
            "serve.wire_residual_us",
            if real_us > 0.0 {
                real_us - replica_us
            } else {
                0.0
            },
            "us",
        ),
        counted("serve.cache_hits", "count"),
        counted("serve.cache_misses", "count"),
        counted("serve.sessions_evicted", "count"),
        self_us("sim.run_us", "sim.run"),
        metric(
            "sim.host_us_per_kcycle",
            if sim_cycles > 0.0 {
                l.self_us("sim.run") / (sim_cycles / 1e3)
            } else {
                0.0
            },
            "us/kcycle",
        ),
        counted("sim.skipped_idle_ratio", "ratio"),
        counted("sim.dram_read_bytes", "bytes"),
        counted("sim.dram_written_bytes", "bytes"),
        counted("sim.peak_busy_nodes", "count"),
        metric("bench.op_ms_p50", o.plain.op_ms_quantile(0.5), "ms"),
        metric("bench.op_ms_p99", o.plain.op_ms_quantile(0.99), "ms"),
        metric(
            "bench.p50_over_floor",
            if plain_floor > 0.0 {
                o.plain.op_ms_quantile(0.5) / plain_floor
            } else {
                0.0
            },
            "ratio",
        ),
        metric("bench.ops_per_s_wall", o.plain.ops_per_s_wall(), "1/s"),
        metric("bench.passes", o.plain.passes as f64, "count"),
        metric("bench.setup_reps", plan.setup_reps as f64, "count"),
        metric("bench.peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("bench.nproc", nproc() as f64, "count"),
        metric(
            "bench.trace_overhead_pct",
            pct(traced_floor_us - plain_floor * 1e3, plain_floor * 1e3),
            "%",
        ),
        metric(
            "bench.ledger_residual_pct",
            pct(traced_floor_us - replica_us, traced_floor_us),
            "%",
        ),
    ]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's high-water resident set, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics<'a>(title: &str, metrics: impl IntoIterator<Item = &'a Metric>) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.count == 0,
        o.attempted(),
        o.failures.count,
        body.join(", ")
    )
}

fn write_trace(o: &Outcome, workload: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    o.tracer.write_chrome_trace(&mut file, workload)?;
    file.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = args.plan();
    let cfg = layers::serve_config();
    let pinned = alloc::pin_malloc_thresholds();
    println!(
        "perf_ledger: workload {} seed {:#x} passes {} (+5% warm-up) setup_reps {} trace {} nproc {} malloc thresholds pinned {}",
        args.spec.name,
        args.seed,
        plan.passes,
        plan.setup_reps,
        u8::from(plan.trace),
        nproc(),
        pinned
    );
    println!(
        "  script (app@scale per step): {}",
        (args.spec.script)()
            .iter()
            .map(|(app, scale)| format!("{app}@{scale}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  closed loop, one caller; serve workloads: one connection, executor_threads {} batch_threads {}, {} instances per Execute",
        cfg.executor_threads,
        cfg.batch_threads,
        workloads::ONESHOT_INSTANCES
    );

    let outcome = match (args.spec.run)(args.seed, &plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perf_ledger: {}: set-up failed: {e}", args.spec.name);
            return ExitCode::from(2);
        }
    };

    println!(
        "  step floors (ms): {}",
        (args.spec.script)()
            .iter()
            .zip(outcome.plain.step_floors_ms())
            .map(|((app, _), ms)| format!("{app} {ms:.4}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    let e2e = end_to_end(&outcome);
    let layers = per_layer(&outcome, &plan);
    print_metrics("end-to-end (untraced passes):", &e2e);
    let reported = if plan.trace {
        print_metrics("per-layer (traced passes):", &layers);
        match write_trace(&outcome, args.spec.name) {
            Ok(path) => println!(
                "wrote {} spans to {}",
                outcome.tracer.span_count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perf_ledger: writing the trace: {e}");
                return ExitCode::from(2);
            }
        }
        layers
    } else {
        let health = layers
            .iter()
            .filter(|m| m.name.starts_with("bench.") && !m.name.ends_with("_pct"));
        print_metrics("run health (informational):", health);
        e2e
    };
    for m in &outcome.failures.messages {
        println!("FAILED: {m}");
    }
    println!(
        "ops_total {} ops_failed {}",
        outcome.attempted(),
        outcome.failures.count
    );
    println!("{}", result_json(&outcome, &reported));
    if outcome.failures.count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
