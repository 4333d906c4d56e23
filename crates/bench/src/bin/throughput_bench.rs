//! Batch throughput: instances/sec when running a mixed batch of the eight
//! evaluation apps through the `revet-runtime` thread pool at 1/2/4/8
//! worker threads.
//!
//! Each app is compiled **once**; the batch references the shared
//! [`revet_core::CompiledProgram`]s and every instance is cloned on a
//! worker ([`revet_core::CompiledProgram::instance`]). Every instance's
//! DRAM output is validated against the app's oracle, and the parallel
//! runs are checked bit-identical to the single-threaded reference —
//! speedup never comes at the cost of determinism.
//!
//! Usage: `cargo run --release -p revet-bench --bin throughput_bench
//! [scale] [instances] [--json [PATH]]` (defaults: scale 64, 32
//! instances). `--json` writes a machine-readable trajectory record
//! (default path `BENCH_throughput.json`) with one row per thread count
//! plus batch latency percentiles.

use revet_bench::{apps_under_test, PreparedApp};
use revet_runtime::{BatchJob, BatchReport, BatchRunner};

fn main() {
    let mut positional: Vec<usize> = Vec::new();
    let mut json: Option<String> = None;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        if arg == "--json" {
            json = Some(match argv.peek() {
                Some(v) if !v.starts_with("--") => argv.next().unwrap(),
                _ => "BENCH_throughput.json".to_string(),
            });
        } else {
            positional.push(arg.parse().unwrap_or_else(|_| panic!("bad arg {arg}")));
        }
    }
    let scale: usize = positional.first().copied().unwrap_or(64);
    let instances: usize = positional.get(1).copied().unwrap_or(32);
    assert!(instances > 0, "need at least one instance to measure");

    let prepared = apps_under_test(scale);
    // Mixed batch: instances round-robin over the eight apps.
    let jobs: Vec<BatchJob> = (0..instances)
        .map(|i| {
            let p = &prepared[i % prepared.len()];
            BatchJob::new(&p.program, p.args.clone())
        })
        .collect();

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "=== Batch throughput: {instances} mixed app instances, scale={scale}, \
         {hw} hardware threads ==="
    );
    println!(
        "{:<8} {:>12} {:>14} {:>10}",
        "threads", "elapsed ms", "instances/sec", "speedup"
    );

    let mut baseline: Option<f64> = None;
    let mut reference: Option<Snapshot> = None;
    let mut json_rows: Vec<String> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let report = BatchRunner::new(threads).run(&jobs);
        if let Some(err) = report.first_error() {
            panic!("batch failed at {threads} threads: {err}");
        }
        check_outputs(&prepared, &report, instances);
        let snap = snapshot(&report);
        match &reference {
            None => reference = Some(snap),
            Some(reference) => assert!(
                *reference == snap,
                "{threads}-thread batch diverged from the 1-thread reference"
            ),
        }
        let ips = report.instances_per_sec();
        let base = *baseline.get_or_insert(ips);
        let lat = report.latency_percentiles().expect("ok instances");
        json_rows.push(format!(
            "    {{\"threads\": {threads}, \"elapsed_ms\": {:.3}, \"instances_per_sec\": {ips:.3}, \
             \"speedup\": {:.3}, \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}}}",
            report.elapsed.as_secs_f64() * 1e3,
            ips / base,
            lat.p50.as_micros(),
            lat.p95.as_micros(),
            lat.p99.as_micros(),
        ));
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>9.2}x",
            threads,
            report.elapsed.as_secs_f64() * 1e3,
            ips,
            ips / base
        );
        // The headline claim — ≥2x at 4 threads — needs ≥4 hardware
        // threads to be physically possible; on smaller machines the
        // binary still validates correctness and prints the curve.
        if threads == 4 && hw >= 4 {
            assert!(
                ips / base >= 2.0,
                "4-thread batch not ≥2x over 1 thread ({:.2}x)",
                ips / base
            );
        }
    }
    if hw < 4 {
        println!(
            "note: only {hw} hardware thread(s) available — speedup column is \
             not meaningful on this machine (correctness still verified)."
        );
    }
    println!(
        "all runs validated against app oracles; parallel results \
         bit-identical to the 1-thread reference."
    );
    if let Some(path) = json {
        let doc = format!(
            "{{\n  \"bench\": \"throughput\",\n  \"scale\": {scale},\n  \
             \"instances\": {instances},\n  \"hardware_threads\": {hw},\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Validates every instance's DRAM image against its app's oracle.
fn check_outputs(prepared: &[PreparedApp], report: &BatchReport, instances: usize) {
    for i in 0..instances {
        let p = &prepared[i % prepared.len()];
        let result = report.results[i].as_ref().expect("checked above");
        p.app.check_dram(&result.mem.dram, &p.workload);
    }
}

/// Per-instance (sink tokens, DRAM image) snapshot for equivalence checks.
type Snapshot = Vec<(Vec<revet_machine::TTok>, Vec<u8>)>;

fn snapshot(report: &BatchReport) -> Snapshot {
    report
        .results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("checked above");
            (r.sink.clone(), r.mem.dram.to_vec())
        })
        .collect()
}
