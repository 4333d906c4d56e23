//! Load generator for the `revet-serve` service: N client threads firing
//! a mixed compile+execute workload over the eight evaluation apps,
//! reporting end-to-end throughput and p50/p95/p99 request latency.
//!
//! By default it boots its own server on an ephemeral loopback port —
//! the CI smoke path: boot, fire a burst, assert **every** request
//! succeeded and every instance's DRAM window matches the app oracle,
//! exit non-zero otherwise. Point it at an external server with
//! `--addr`.
//!
//! ```text
//! Usage: load_gen [--clients N] [--requests M] [--instances K]
//!                 [--scale S] [--addr HOST:PORT] [--json [PATH]]
//! ```
//!
//! Defaults: 4 clients × 6 requests × 2 instances at scale 16,
//! self-booted server, no JSON. `--json` without a path writes
//! `BENCH_serve.json` (the machine-readable serving-trajectory record).

use revet_apps::{all_apps, DRAM_BYTES};
use revet_core::PassOptions;
use revet_runtime::LatencyPercentiles;
use revet_serve::protocol::{ExecuteRequest, InstanceOutcome};
use revet_serve::{ServeClient, ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One app's remote workload: what to send, and what must come back.
struct RemoteWorkload {
    name: &'static str,
    source: String,
    options: PassOptions,
    args: Vec<u32>,
    dram_inits: Vec<(u64, Vec<u8>)>,
    window: (u64, u64),
    expected: Vec<u8>,
}

fn remote_workloads(scale: usize, outer: u32, seed: u64) -> Vec<RemoteWorkload> {
    all_apps()
        .iter()
        .map(|a| {
            let options = PassOptions {
                dram_bytes: DRAM_BYTES,
                ..PassOptions::default()
            };
            let w = (a.workload)(scale, seed);
            let slice = DRAM_BYTES / a.dram_symbols();
            RemoteWorkload {
                name: a.name,
                source: (a.source)(outer),
                options,
                args: w.args.clone(),
                dram_inits: w
                    .inits
                    .iter()
                    .map(|(sym, bytes)| ((sym * slice) as u64, bytes.clone()))
                    .collect(),
                window: ((w.out_sym * slice) as u64, w.expected.len() as u64),
                expected: w.expected,
            }
        })
        .collect()
}

#[derive(Default)]
struct ClientOutcome {
    /// End-to-end execute round-trip latencies.
    latencies: Vec<Duration>,
    /// Compile round-trip latencies (first touch compiles, rest hit).
    compile_latencies: Vec<Duration>,
    requests_ok: u64,
    instances_ok: u64,
    cache_hits_observed: u64,
}

/// One client thread's run. Panics (failing the whole binary) on any
/// server error or oracle mismatch: the smoke contract is *all* requests
/// succeed, not "most".
fn run_client(
    addr: SocketAddr,
    client_idx: usize,
    requests: usize,
    instances: usize,
    apps: &[RemoteWorkload],
) -> ClientOutcome {
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut out = ClientOutcome::default();
    for r in 0..requests {
        // Stagger app order per client so the mix interleaves.
        let wl = &apps[(client_idx + r) % apps.len()];
        let t0 = Instant::now();
        let compiled = client
            .compile(&wl.source, &wl.options)
            .unwrap_or_else(|e| panic!("client {client_idx} req {r} [{}]: compile: {e}", wl.name));
        out.compile_latencies.push(t0.elapsed());
        out.cache_hits_observed += compiled.cached as u64;

        let t1 = Instant::now();
        let reply = client
            .execute(ExecuteRequest {
                program_id: compiled.program_id,
                argsets: (0..instances).map(|_| wl.args.clone()).collect(),
                dram_inits: wl.dram_inits.clone(),
                window: wl.window,
            })
            .unwrap_or_else(|e| panic!("client {client_idx} req {r} [{}]: execute: {e}", wl.name));
        out.latencies.push(t1.elapsed());
        assert_eq!(reply.instances.len(), instances);
        for (i, inst) in reply.instances.iter().enumerate() {
            match inst {
                InstanceOutcome::Ok { dram, .. } => {
                    assert_eq!(
                        dram, &wl.expected,
                        "client {client_idx} req {r} [{}] instance {i}: output differs from oracle",
                        wl.name
                    );
                    out.instances_ok += 1;
                }
                InstanceOutcome::Err { message } => {
                    panic!(
                        "client {client_idx} req {r} [{}] instance {i}: {message}",
                        wl.name
                    )
                }
            }
        }
        out.requests_ok += 1;
    }
    out
}

/// p50/p95/p99 of a latency sample in microseconds (0s when empty),
/// via the runtime's shared nearest-rank implementation.
fn percentiles_us(samples: &mut [Duration]) -> (u64, u64, u64) {
    match LatencyPercentiles::from_samples(samples) {
        Some(lat) => (
            lat.p50.as_micros() as u64,
            lat.p95.as_micros() as u64,
            lat.p99.as_micros() as u64,
        ),
        None => (0, 0, 0),
    }
}

struct Args {
    clients: usize,
    requests: usize,
    instances: usize,
    scale: usize,
    addr: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 4,
        requests: 6,
        instances: 2,
        scale: 16,
        addr: None,
        json: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let numeric = |argv: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>| -> usize {
            argv.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a numeric value"))
        };
        match flag.as_str() {
            "--clients" => args.clients = numeric(&mut argv).max(1),
            "--requests" => args.requests = numeric(&mut argv).max(1),
            "--instances" => args.instances = numeric(&mut argv).max(1),
            "--scale" => args.scale = numeric(&mut argv).max(1),
            "--addr" => args.addr = Some(argv.next().expect("--addr needs HOST:PORT")),
            "--json" => {
                // Optional path operand; default trajectory file.
                args.json = Some(match argv.peek() {
                    Some(v) if !v.starts_with("--") => argv.next().unwrap(),
                    _ => "BENCH_serve.json".to_string(),
                });
            }
            other => panic!("unknown flag {other} (see the doc comment for usage)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let apps = remote_workloads(args.scale, 2, 0x5EED);

    // Self-boot unless pointed at an external server.
    let own_server = if args.addr.is_none() {
        Some(Server::spawn(ServeConfig::default()).expect("boot server"))
    } else {
        None
    };
    let addr: SocketAddr = match (&args.addr, &own_server) {
        (Some(a), _) => a.parse().expect("--addr must be HOST:PORT"),
        (None, Some(s)) => s.local_addr(),
        _ => unreachable!(),
    };

    println!(
        "=== load_gen: {} clients × {} requests × {} instances, scale={}, {} apps, server {} ===",
        args.clients,
        args.requests,
        args.instances,
        args.scale,
        apps.len(),
        if own_server.is_some() {
            format!("self-booted at {addr}")
        } else {
            format!("external at {addr}")
        }
    );

    // Pre-flight: the structured CompileFailed path must be live before
    // load starts — a known-bad source comes back as machine-readable
    // diagnostics (code + line/col), not a flattened string.
    {
        let mut probe = ServeClient::connect(addr).expect("probe connect");
        let err = probe
            .compile("void main() {\n  u32 a = ;\n}", &PassOptions::default())
            .expect_err("bad source must be refused");
        let details = err
            .compile_diagnostics()
            .expect("CompileFailed must carry structured diagnostics");
        assert!(
            details.iter().any(|d| d.code == "E0103" && d.line == 2),
            "diagnostic code/line missing from {details:?}"
        );
        println!(
            "compile-failure probe: {} structured diagnostic(s), first: {}",
            details.len(),
            details[0]
        );
    }

    let wall = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let apps = &apps;
                s.spawn(move || run_client(addr, c, args.requests, args.instances, apps))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread failed"))
            .collect()
    });
    let elapsed = wall.elapsed();

    let requests_ok: u64 = outcomes.iter().map(|o| o.requests_ok).sum();
    let instances_ok: u64 = outcomes.iter().map(|o| o.instances_ok).sum();
    let hits_observed: u64 = outcomes.iter().map(|o| o.cache_hits_observed).sum();
    let total_requests = (args.clients * args.requests) as u64;
    let mut latencies: Vec<Duration> = outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
    let mut compiles: Vec<Duration> = outcomes
        .iter()
        .flat_map(|o| o.compile_latencies.clone())
        .collect();

    let mut scrape = ServeClient::connect(addr).expect("status connect");
    let status = scrape.status().expect("status");
    let metrics = scrape.metrics().expect("metrics");

    let secs = elapsed.as_secs_f64();
    let rps = requests_ok as f64 / secs;
    let ips = instances_ok as f64 / secs;
    let (p50, p95, p99) = percentiles_us(&mut latencies);
    let (compile_p50, _, _) = percentiles_us(&mut compiles);
    println!(
        "requests     {requests_ok}/{total_requests} ok   instances {instances_ok} ok   elapsed {:.1} ms",
        secs * 1e3
    );
    println!("throughput   {rps:.1} req/s   {ips:.1} instances/s");
    println!("exec latency p50 {p50} us   p95 {p95} us   p99 {p99} us");
    println!("compile      p50 {compile_p50} us (cache hits observed by clients: {hits_observed})");
    println!(
        "server cache hits {} misses {} evictions {}   executed {} failed {}",
        status.cache_hits,
        status.cache_misses,
        status.cache_evictions,
        status.executed_instances,
        status.failed_instances
    );
    println!(
        "sessions     open {} evicted {} resident_bytes {}",
        status.open_sessions, status.evicted_sessions, status.session_resident_bytes
    );
    println!(
        "dram pool    hits {} misses {} retained_bytes {}",
        metrics.get("serve.dram_pool.hits").unwrap_or(0),
        metrics.get("serve.dram_pool.misses").unwrap_or(0),
        metrics.get("serve.dram_pool.retained_bytes").unwrap_or(0),
    );
    // The Metrics wire frame: the server-side obs sink's view of the same
    // load. A scrape endpoint must agree with the Status frame.
    println!(
        "server obs   dispatches {} productive {} instances {} peak_ready {} wall p50 {} us",
        metrics.get("exec.dispatches").unwrap_or(0),
        metrics.get("exec.productive").unwrap_or(0),
        metrics.get("exec.instances").unwrap_or(0),
        metrics.get("exec.peak_ready").unwrap_or(0),
        metrics.get("runtime.instance_wall_us.p50").unwrap_or(0),
    );
    assert_eq!(
        metrics.get("serve.executed_instances"),
        Some(status.executed_instances),
        "Metrics and Status frames must agree"
    );

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"bench\": \"load_gen\",\n  \"clients\": {},\n  \"requests_per_client\": {},\n  \
             \"instances_per_execute\": {},\n  \"scale\": {},\n  \"apps\": {},\n  \
             \"requests_ok\": {requests_ok},\n  \"requests_total\": {total_requests},\n  \
             \"instances_ok\": {instances_ok},\n  \"elapsed_ms\": {:.3},\n  \
             \"requests_per_sec\": {rps:.3},\n  \"instances_per_sec\": {ips:.3},\n  \
             \"exec_latency_us\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}},\n  \
             \"compile_latency_us\": {{\"p50\": {compile_p50}}},\n  \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n  \
             \"server\": {{\"executed_instances\": {}, \"failed_instances\": {}}},\n  \
             \"obs\": {{\"dispatches\": {}, \"productive\": {}, \"peak_ready\": {}}}\n}}\n",
            args.clients,
            args.requests,
            args.instances,
            args.scale,
            apps.len(),
            secs * 1e3,
            status.cache_hits,
            status.cache_misses,
            status.cache_evictions,
            status.executed_instances,
            status.failed_instances,
            metrics.get("exec.dispatches").unwrap_or(0),
            metrics.get("exec.productive").unwrap_or(0),
            metrics.get("exec.peak_ready").unwrap_or(0),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(server) = own_server {
        let stats = server.shutdown();
        assert_eq!(stats.failed_instances, 0, "no instance may fail");
    }

    // The smoke contract: every request succeeded (run_client panics on
    // any failure, so reaching here with full counts is the proof).
    assert_eq!(requests_ok, total_requests, "all requests must succeed");
    assert_eq!(
        instances_ok,
        total_requests * args.instances as u64,
        "all instances must succeed"
    );
    // A client's r-th request targets app (client + r) % len, so some app
    // is requested twice — guaranteeing an observable cache hit — only
    // when the burst exceeds the app count (pigeonhole) or a single
    // client wraps around. Don't fail a healthy short single-client run.
    if args.clients * args.requests > apps.len() {
        assert!(
            hits_observed > 0,
            "repeated sources must be served from the program cache"
        );
    }
    println!("all {total_requests} requests succeeded; outputs oracle-validated.");
}
