//! End-to-end service tests: one server process, concurrent clients,
//! mixed compile+execute over real evaluation apps, results pinned
//! bit-identical to an instance run directly through the library, and a
//! graceful shutdown that drains in-flight work.

use revet_apps::{all_apps, app, App, DRAM_BYTES};
use revet_core::{PassOptions, ProgramId};
use revet_serve::protocol::{
    decode_response, encode_request, write_frame, ErrorCode, ExecuteRequest, FrameReader,
    InstanceOutcome, OpenStreamRequest, Request, Response, WireDiagnostic, WireTok,
};
use revet_serve::{ClientError, ServeClient, ServeConfig, Server};
use revet_sltf::Word;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const OUTER: u32 = 2;
const SCALE: usize = 8;
const SEED: u64 = 0xE2E;

/// Instances per `Execute`.
const INSTANCES: usize = 2;

/// Everything a client needs to compile+execute one app remotely, plus
/// the local oracle for bit-identity checking.
struct RemoteApp {
    source: String,
    options: PassOptions,
    argsets: Vec<Vec<u32>>,
    dram_inits: Vec<(u64, Vec<u8>)>,
    window: (u64, u64),
    /// Per-instance oracle: the window bytes a sequential local run of
    /// the same compile produces.
    oracle_window: Vec<u8>,
}

fn remote_app(name: &str, instances: usize) -> RemoteApp {
    let a: App = app(name).expect("registered app");
    let options = PassOptions {
        dram_bytes: DRAM_BYTES,
        ..PassOptions::default()
    };
    let source = (a.source)(OUTER);
    let w = (a.workload)(SCALE, SEED);
    let dram_inits = a.overlays(&w);
    let window = a.output_window(&w);
    let argsets: Vec<Vec<u32>> = (0..instances).map(|_| w.args.clone()).collect();

    // Oracle: the same compile run directly as one library instance, with
    // the workload loaded the classic way.
    let mut program = a.compile(OUTER, &options).expect("oracle compile");
    a.load(&mut program, &w);
    let args: Vec<Word> = w.args.iter().map(|&x| Word(x)).collect();
    let mut inst = program.instance();
    inst.run_untimed(&args, 200_000_000).expect("oracle run");
    let (w_off, w_len) = (window.0 as usize, window.1 as usize);
    let oracle_window = inst.memory().dram[w_off..w_off + w_len].to_vec();
    // The oracle must itself be right before we pin the server to it.
    assert_eq!(oracle_window, w.expected, "{name}: oracle diverges");

    RemoteApp {
        source,
        options,
        argsets,
        dram_inits,
        window,
        oracle_window,
    }
}

/// One client's session: compile all apps, execute each, validate every
/// instance bit-identical to the oracle. Returns how many compiles were
/// served from cache.
fn client_session(addr: std::net::SocketAddr, apps: &[RemoteApp]) -> u64 {
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut cache_hits = 0;
    for ra in apps {
        let compiled = client.compile(&ra.source, &ra.options).expect("compile");
        assert_eq!(
            compiled.program_id,
            ProgramId::of(&ra.source, &ra.options),
            "server and client must agree on the content address"
        );
        if compiled.cached {
            cache_hits += 1;
        }
        let reply = client
            .execute(ExecuteRequest {
                program_id: compiled.program_id,
                argsets: ra.argsets.clone(),
                dram_inits: ra.dram_inits.clone(),
                window: ra.window,
            })
            .expect("execute");
        assert_eq!(reply.instances.len(), ra.argsets.len());
        assert!(reply.merged.productive_steps > 0);
        for (i, inst) in reply.instances.iter().enumerate() {
            match inst {
                InstanceOutcome::Ok {
                    dram,
                    wall_micros: _,
                } => {
                    assert_eq!(
                        dram, &ra.oracle_window,
                        "instance {i}: served result differs from the library oracle"
                    );
                }
                InstanceOutcome::Err { message } => panic!("instance {i} failed: {message}"),
            }
        }
    }
    cache_hits
}

#[test]
fn concurrent_clients_mixed_apps_cache_hits_and_oracle_identity() {
    // The mixed workload covers every registered app: all eight of Table III.
    let apps: Vec<RemoteApp> = all_apps()
        .iter()
        .map(|a| remote_app(a.name, INSTANCES))
        .collect();
    let n_apps = apps.len() as u64;
    assert_eq!(n_apps, 8);
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let addr = server.local_addr();

    // Two concurrent clients compile and execute the same mixed workload:
    // between them every source is requested twice, so single-flight +
    // content addressing must produce cache hits.
    let total_hits: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| client_session(addr, &apps)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });

    let status = ServeClient::connect(addr)
        .expect("connect")
        .status()
        .expect("status");
    assert!(
        status.cache_hits > 0,
        "repeated sources must hit the cache (status: {status:?})"
    );
    // Each app is compiled by both clients; single-flight + content
    // addressing means exactly one of the two observes a cached compile.
    assert_eq!(total_hits, n_apps);
    // The server-side hit counter additionally counts the execute-path
    // program lookups (2 clients × 8 apps), all of which must have hit.
    assert_eq!(status.cache_hits, total_hits + 2 * n_apps);
    assert_eq!(status.cache_misses, n_apps);
    assert_eq!(status.programs_cached, n_apps);
    assert_eq!(status.failed_instances, 0);
    // 2 clients × 8 apps × 2 instances.
    let executed = 2 * n_apps * INSTANCES as u64;
    assert_eq!(status.executed_instances, executed);
    assert!(!status.draining);

    // The Metrics frame mirrors the same run: every completed instance,
    // real dispatch work, cache counters consistent with Status, names
    // sorted for stable scraping.
    let metrics = ServeClient::connect(addr)
        .expect("connect")
        .metrics()
        .expect("metrics");
    assert!(metrics.get("exec.dispatches").unwrap() > 0);
    assert_eq!(metrics.status.cache_hits, status.cache_hits);
    assert_eq!(metrics.status.executed_instances, executed);
    assert!(metrics.counters.windows(2).all(|w| w[0].0 <= w[1].0));

    let stats = server.shutdown();
    assert_eq!(stats.executed_instances, executed);
    assert_eq!(stats.failed_instances, 0);
}

#[test]
fn graceful_shutdown_drains_in_flight_work_without_error_frames() {
    // Single executor, so the second job is guaranteed to still be
    // *queued* (not just running) when the drain begins.
    let server = Server::spawn(ServeConfig {
        executor_threads: 1,
        batch_threads: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = server.local_addr();

    // A deliberately slow program: per instance, n nested-loop iterations.
    let source = "dram<u32> output;
         void main(u32 n) {
             foreach (n) { u32 i =>
                 u32 acc = 0;
                 u32 j = 0;
                 while (j <= i) { acc = acc + j; j = j + 1; };
                 output[i] = acc;
             };
         }";
    let options = PassOptions {
        dram_bytes: 1 << 16,
        ..PassOptions::default()
    };
    let program_id = ServeClient::connect(addr)
        .expect("connect")
        .compile(source, &options)
        .expect("compile")
        .program_id;

    // Two clients each submit a multi-instance batch, then the server is
    // shut down while that work is in flight. Both must still receive
    // complete, successful replies — drained, not dropped.
    let clients: Vec<std::thread::JoinHandle<()>> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let reply = client
                    .execute(ExecuteRequest {
                        program_id,
                        argsets: (0..4).map(|_| vec![96u32]).collect(),
                        dram_inits: vec![],
                        window: (0, 16),
                    })
                    .expect("in-flight execute must be drained, not refused");
                assert_eq!(reply.instances.len(), 4);
                for inst in &reply.instances {
                    let InstanceOutcome::Ok { dram, .. } = inst else {
                        panic!("drained instance must succeed, got {inst:?}");
                    };
                    // output[3] = 0+1+2+3.
                    assert_eq!(&dram[12..16], &6u32.to_le_bytes());
                }
            })
        })
        .collect();

    // Wait until both batches are admitted (queued, running, or already
    // done — 4 instances each), then pull the plug. Waiting for the first
    // alone races the second client's submit against the shutdown, which
    // then refuses it — correctly — as `ShuttingDown`.
    let mut status_client = ServeClient::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = status_client.status().expect("status");
        let admitted = status.inflight_jobs + status.queued_jobs;
        if 4 * admitted + status.executed_instances >= 8 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "execute jobs never showed up as admitted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = server.shutdown();

    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(stats.executed_instances, 8, "all 8 instances drained");
    assert_eq!(stats.failed_instances, 0);
}

#[test]
fn typed_errors_for_bad_compile_unknown_program_and_malformed_frames() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let options = PassOptions {
        dram_bytes: 1 << 12,
        ..PassOptions::default()
    };

    // Failing compile → CompileFailed, connection survives.
    let err = client.compile("void main( {", &options).unwrap_err();
    let ClientError::Server(frame) = err else {
        panic!("wanted a typed server error, got {err}")
    };
    assert_eq!(frame.code, ErrorCode::CompileFailed);

    // Unknown program id → UnknownProgram, connection survives.
    let err = client
        .execute(ExecuteRequest {
            program_id: ProgramId([0xAB; 16]),
            argsets: vec![vec![1]],
            dram_inits: vec![],
            window: (0, 0),
        })
        .unwrap_err();
    let ClientError::Server(frame) = err else {
        panic!("wanted a typed server error, got {err}")
    };
    assert_eq!(frame.code, ErrorCode::UnknownProgram);

    // Malformed body (unknown kind byte) → Malformed, connection survives.
    let reply = client
        .raw_round_trip(&[revet_serve::protocol::WIRE_VERSION, 0x55])
        .expect("reply");
    let resp = revet_serve::protocol::decode_response(&reply).expect("decodable");
    let revet_serve::protocol::Response::Error(frame) = resp else {
        panic!("wanted an error frame, got {resp:?}")
    };
    assert_eq!(frame.code, ErrorCode::Malformed);

    // Wrong version byte (a v1 peer, say) → UnsupportedVersion,
    // connection survives.
    let reply = client.raw_round_trip(&[1u8, 0x03]).expect("reply");
    let resp = revet_serve::protocol::decode_response(&reply).expect("decodable");
    let revet_serve::protocol::Response::Error(frame) = resp else {
        panic!("wanted an error frame, got {resp:?}")
    };
    assert_eq!(frame.code, ErrorCode::UnsupportedVersion);

    // The same connection still does real work afterwards: nothing was
    // poisoned by the failures above.
    let compiled = client
        .compile(
            "dram<u32> output; void main(u32 n) { foreach (n) { u32 i => output[i] = i; }; }",
            &options,
        )
        .expect("healthy compile after errors");
    let reply = client
        .execute(ExecuteRequest {
            program_id: compiled.program_id,
            argsets: vec![vec![3]],
            dram_inits: vec![],
            window: (0, 12),
        })
        .expect("healthy execute after errors");
    let InstanceOutcome::Ok { dram, .. } = &reply.instances[0] else {
        panic!("instance failed")
    };
    assert_eq!(&dram[8..12], &2u32.to_le_bytes());

    // Status round-trips and the counters are accurate.
    let status = client.status().expect("status");
    assert_eq!(status.executed_instances, 1);
    server.shutdown();
}

/// No source a client sends can make the compiler allocate past the
/// machine: a thread count, a memory-object size or a thread-local region
/// past one memory unit is a `CompileFailed` with the front end's code,
/// and the connection goes on to compile and execute a good program.
#[test]
fn oversized_compile_is_refused_and_the_connection_still_works() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let options = PassOptions {
        dram_bytes: 1 << 12,
        ..PassOptions::default()
    };
    for (body, line) in [
        // `67108864 * 64` threads overflowed a `u32` in `LowerViews`.
        ("  readview<67108864> v(d, 0);", 3),
        // Once 2^32 - 1 allocator pointers, about 16 GiB.
        ("  pragma(threads, 4294967295);\n  readview<4> v(d, 0);", 3),
        ("  readview<4096> v(d, 0);", 3),
    ] {
        let source = format!("dram<u32> d;\nvoid main() {{\n{body}\n}}");
        let err = client.compile(&source, &options).unwrap_err();
        let details = err.compile_diagnostics().expect("structured CompileFailed");
        assert_eq!(details.len(), 1, "{details:?}");
        assert_eq!((details[0].code.as_str(), details[0].line), ("E0206", line));
        let ClientError::Server(frame) = err else {
            panic!("wanted a typed server error")
        };
        assert_eq!(frame.code, ErrorCode::CompileFailed);
    }

    let compiled = client
        .compile(
            "dram<u32> output; void main(u32 n) { foreach (n) { u32 i => output[i] = i; }; }",
            &options,
        )
        .expect("healthy compile after refusals");
    let reply = client
        .execute(ExecuteRequest {
            program_id: compiled.program_id,
            argsets: vec![vec![3]],
            dram_inits: vec![],
            window: (0, 12),
        })
        .expect("healthy execute after refusals");
    let InstanceOutcome::Ok { dram, .. } = &reply.instances[0] else {
        panic!("instance failed")
    };
    assert_eq!(&dram[8..12], &2u32.to_le_bytes());
    client.shutdown().expect("shutdown ack");
    server.shutdown();
}

/// Polls `Status` until `done` holds, failing after 30 s.
fn await_status(
    client: &mut ServeClient,
    what: &str,
    done: impl Fn(&revet_serve::protocol::StatusInfo) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done(&client.status().expect("status")) {
        assert!(Instant::now() < deadline, "{what} never showed up");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Backpressure surfaces as `Busy`, not as a hang: with one run slot and
/// room for one waiter, a third `Execute` is refused at once while the
/// first two still complete.
#[test]
fn execute_past_the_wait_line_answers_busy_and_admitted_jobs_finish() {
    let server = Server::spawn(ServeConfig {
        executor_threads: 1,
        queue_capacity: 1,
        batch_threads: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = server.local_addr();
    // Per instance, n(n+1)/2 inner-loop iterations: with n = SLOW_N job A
    // holds the run slot for seconds in debug, well over 100 ms in release.
    const SLOW_N: u32 = 2048;
    let source = "dram<u32> output;
         void main(u32 n) {
             foreach (n) { u32 i =>
                 u32 acc = 0;
                 u32 j = 0;
                 while (j <= i) { acc = acc + j; j = j + 1; };
                 output[i] = acc;
             };
         }";
    let options = PassOptions {
        dram_bytes: 1 << 16,
        ..PassOptions::default()
    };
    let program_id = ServeClient::connect(addr)
        .expect("connect")
        .compile(source, &options)
        .expect("compile")
        .program_id;
    let request = |n: u32| ExecuteRequest {
        program_id,
        argsets: vec![vec![n]],
        dram_inits: vec![],
        window: (0, 16),
    };
    let submit = |n: u32| {
        let req = request(n);
        std::thread::spawn(move || {
            let reply = ServeClient::connect(addr)
                .expect("connect")
                .execute(req)
                .expect("an admitted execute completes");
            let InstanceOutcome::Ok { dram, .. } = &reply.instances[0] else {
                panic!(
                    "admitted instance must succeed, got {:?}",
                    reply.instances[0]
                );
            };
            // output[3] = 0+1+2+3.
            assert_eq!(&dram[12..16], &6u32.to_le_bytes());
        })
    };

    let mut status = ServeClient::connect(addr).expect("connect");
    let a = submit(SLOW_N);
    await_status(&mut status, "job A running", |s| s.inflight_jobs == 1);
    let b = submit(4);
    await_status(&mut status, "job B waiting", |s| s.queued_jobs == 1);
    let err = ServeClient::connect(addr)
        .expect("connect")
        .execute(request(4))
        .expect_err("the wait line is full");
    let ClientError::Server(frame) = err else {
        panic!("wanted a typed server error, got {err}")
    };
    assert_eq!(frame.code, ErrorCode::Busy);

    a.join().expect("client A");
    b.join().expect("client B");
    let stats = server.shutdown();
    assert_eq!((stats.executed_instances, stats.failed_instances), (2, 0));
    assert_eq!((stats.inflight_jobs, stats.queued_jobs), (0, 0));
}

#[test]
fn structured_compile_failed_frame_carries_line_and_col() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Two independent syntax errors (lines 2 and 3): parser recovery must
    // surface both in one round trip, machine-readably.
    let source = "void main() {\n  u32 a = ;\n  u32 b = 1 +;\n}";
    let err = client.compile(source, &PassOptions::default()).unwrap_err();

    let details = err
        .compile_diagnostics()
        .expect("structured CompileFailed payload")
        .to_vec();
    assert_eq!(details.len(), 2, "{details:?}");
    assert_eq!(details[0].code, "E0103");
    assert_eq!((details[0].line, details[0].col), (2, 11));
    assert_eq!(details[1].code, "E0103");
    assert_eq!((details[1].line, details[1].col), (3, 14));
    assert!(details
        .iter()
        .all(|d| d.severity == WireDiagnostic::SEVERITY_ERROR));

    // The frame's message is the full rendered report, caret snippets
    // included — a dumb client can print it verbatim.
    let ClientError::Server(frame) = err else {
        panic!("wanted a typed server error")
    };
    assert!(
        frame.message.contains("--> <input>:2:11"),
        "{}",
        frame.message
    );
    assert!(frame.message.contains("u32 a = ;"), "{}", frame.message);
    assert!(frame.message.contains('^'), "{}", frame.message);

    // The connection survives the failure and still does real work.
    client
        .compile(
            "dram<u32> output; void main(u32 n) { foreach (n) { u32 i => output[i] = i; }; }",
            &PassOptions::default(),
        )
        .expect("healthy compile after structured failure");
    client.shutdown().expect("shutdown ack");
    server.shutdown();
}

/// Instances of a cached program run on recycled DRAM images. Two
/// consecutive `Execute`s with different overlays, read back through a
/// window over the whole image (input and output symbols both): the second
/// tenant must see nothing the first one sent or computed.
#[test]
fn recycled_images_leak_nothing_between_consecutive_executes() {
    use revet_machine::POOL_IMAGES;
    const DRAM: usize = 1 << 16;
    // One executor running instances one after another: image traffic is
    // deterministic (an Execute's two results hold two images until its
    // reply is built, then both are back before the reply is sent).
    let server = Server::spawn(ServeConfig {
        executor_threads: 1,
        batch_threads: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let options = PassOptions {
        dram_bytes: DRAM,
        ..PassOptions::default()
    };
    let program_id = client
        .compile(
            "dram<u32> input;
             dram<u32> output;
             void main(u32 n) {
                 foreach (n) { u32 i => output[i] = input[i] + 1; };
             }",
            &options,
        )
        .expect("compile")
        .program_id;
    let out = DRAM / 2;
    let mut execute = |word: u32, n: u32| -> Vec<Vec<u8>> {
        let input: Vec<u8> = (0..n).flat_map(|_| word.to_le_bytes()).collect();
        let reply = client
            .execute(ExecuteRequest {
                program_id,
                argsets: vec![vec![n], vec![n]],
                dram_inits: vec![(0, input)],
                window: (0, DRAM as u64),
            })
            .expect("execute");
        reply
            .instances
            .into_iter()
            .map(|inst| match inst {
                InstanceOutcome::Ok { dram, .. } => dram,
                InstanceOutcome::Err { message } => panic!("instance failed: {message}"),
            })
            .collect()
    };

    // Tenant A: eight words of 0xAAAAAAAA in, eight of 0xAAAAAAAB out.
    for image in execute(0xAAAA_AAAA, 8) {
        assert_eq!(&image[out..out + 4], &0xAAAA_AAABu32.to_le_bytes());
        assert_eq!(&image[out + 28..out + 32], &0xAAAA_AAABu32.to_le_bytes());
    }
    // Tenant B, on the images A dirtied: two words only. Everything past
    // them — where A's inputs and outputs were — reads as a fresh image.
    for _ in 0..3 {
        for image in execute(0x1111_1111, 2) {
            let mut expected = vec![0u8; DRAM];
            expected[..8].copy_from_slice(&[0x11; 8]);
            for word in expected[out..out + 8].chunks_mut(4) {
                word.copy_from_slice(&0x1111_1112u32.to_le_bytes());
            }
            assert!(
                !image.iter().any(|&b| b == 0xAA || b == 0xAB),
                "a byte of the previous tenant's data survived recycling"
            );
            assert!(image == expected, "recycled image is not a fresh image");
        }
    }

    // Steady state: the first Execute copied two images, every later one
    // recycled them; retention stays within the documented bound.
    let metrics = client.metrics().expect("metrics");
    let misses = metrics.get("serve.dram_pool.misses").expect("counter");
    let retained = metrics
        .get("serve.dram_pool.retained_bytes")
        .expect("counter");
    assert_eq!((misses, retained), (2, 2 * DRAM as u64));
    assert_eq!(metrics.get("serve.dram_pool.hits"), Some(6));
    assert!(misses <= POOL_IMAGES as u64 && retained <= (POOL_IMAGES * DRAM) as u64);
    // A channel table goes back as soon as its instance has run, so even
    // the first Execute's second instance recycles the first one's.
    let chan_pool = |name: &str| {
        metrics
            .get(&format!("serve.chan_pool.{name}"))
            .expect("counter")
    };
    assert_eq!((chan_pool("misses"), chan_pool("hits")), (1, 7));
    assert!(chan_pool("retained_bytes") > 0, "one idle table's rings");
    server.shutdown();
}

/// One source compiled at two opt levels must get two distinct cache
/// entries — different `ProgramId`s, independent compiles, and executes
/// routed to the right program — with results identical across levels.
#[test]
fn two_opt_levels_of_one_source_do_not_cross_contaminate() {
    let name = "murmur3";
    let base = remote_app(name, 2);
    let o0 = RemoteApp {
        options: PassOptions {
            opt_level: 0,
            ..base.options.clone()
        },
        ..remote_app(name, 2)
    };
    let o2 = RemoteApp {
        options: PassOptions {
            opt_level: 2,
            ..base.options.clone()
        },
        ..remote_app(name, 2)
    };
    assert_eq!(o0.source, o2.source);
    let id0 = ProgramId::of(&o0.source, &o0.options);
    let id2 = ProgramId::of(&o2.source, &o2.options);
    assert_ne!(id0, id2, "opt level must feed the content address");

    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let addr = server.local_addr();

    // Both levels compile fresh; re-compiling each hits its own entry.
    client_session(addr, &[o0, o2]);
    let hits = client_session(
        addr,
        &[
            RemoteApp {
                options: PassOptions {
                    opt_level: 0,
                    ..base.options.clone()
                },
                ..remote_app(name, 2)
            },
            RemoteApp {
                options: PassOptions {
                    opt_level: 2,
                    ..base.options.clone()
                },
                ..remote_app(name, 2)
            },
        ],
    );
    assert_eq!(hits, 2, "second round must be served from cache");

    let status = ServeClient::connect(addr)
        .expect("connect")
        .status()
        .expect("status");
    assert_eq!(
        status.programs_cached, 2,
        "each opt level owns its own cache slot"
    );
    assert_eq!(status.cache_misses, 2);
    assert_eq!(status.failed_instances, 0);
    server.shutdown();
}

/// An `Execute` reply is a DRAM window per instance and cannot carry
/// `main`'s return values, so a program that returns values is refused,
/// typed and before it runs; the same program streamed returns them.
#[test]
fn execute_of_a_value_returning_main_is_refused_and_a_stream_returns_the_values() {
    const SUM_OF_SQUARES: &str = "u32 main(u32 n) {
        u32 s = foreach (n) reduce(+) { u32 i => yield i * i; };
        return s * 2 + n;
    }";
    let output = |n: u32| {
        let squares: u32 = (0..n).map(|i| i * i).sum();
        vec![WireTok::Data(vec![squares * 2 + n]), WireTok::Barrier(1)]
    };
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let program_id = client
        .compile(SUM_OF_SQUARES, &PassOptions::default())
        .expect("compile")
        .program_id;

    let err = client
        .execute(ExecuteRequest {
            program_id,
            argsets: vec![vec![5]],
            dram_inits: vec![],
            window: (0, 0),
        })
        .expect_err("an Execute reply cannot carry the values");
    let ClientError::Server(frame) = err else {
        panic!("wanted a typed server error, got {err}")
    };
    assert_eq!(frame.code, ErrorCode::BadRequest);
    assert!(
        frame.message.contains("OpenStream") && frame.message.contains("Poll"),
        "the refusal names the streaming path: {frame}"
    );
    let status = client.status().expect("status");
    assert_eq!(
        (status.executed_instances, status.failed_instances),
        (0, 0),
        "nothing ran"
    );

    let session = client
        .open_stream(OpenStreamRequest {
            program_id,
            dram_inits: vec![],
            window: (0, 0),
        })
        .expect("open stream");
    for n in [5u32, 9] {
        assert_eq!(client.feed(session, vec![vec![n]]).expect("feed"), 1);
        let poll = client.poll(session).expect("poll");
        assert_eq!(poll.tokens, output(n), "main({n})");
        assert_eq!(
            poll.resident_bytes, 0,
            "main({n}): delivered output is released"
        );
    }
    let close = client.close_stream(session).expect("close");
    assert!(close.tokens.is_empty(), "every value went out with a poll");
    let stats = server.shutdown();
    assert_eq!((stats.executed_instances, stats.failed_instances), (1, 0));
}

/// A new connection's first request is served at once: the acceptor
/// blocks in `accept` rather than polling, so no connection waits out a
/// poll interval before its thread exists.
#[test]
fn a_new_connection_is_served_at_once() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut first_round_trips: Vec<Duration> = (0..8)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            let start = Instant::now();
            let mut client = ServeClient::connect(server.local_addr()).expect("connect");
            client.status().expect("status");
            start.elapsed()
        })
        .collect();
    first_round_trips.sort();
    let median = first_round_trips[first_round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median first Status {median:?}: {first_round_trips:?}"
    );
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown wakes the blocked acceptor"
    );
}

/// The squares program from the crate docs, compiled over a fresh
/// connection; returns its id.
fn compile_squares(server: &Server) -> ProgramId {
    ServeClient::connect(server.local_addr())
        .expect("connect")
        .compile(
            "dram<u32> output;
             void main(u32 n) {
                 foreach (n) { u32 i => output[i] = i * i; };
             }",
            &PassOptions {
                dram_bytes: 1 << 12,
                ..PassOptions::default()
            },
        )
        .expect("compile")
        .program_id
}

fn frame_of(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(req)).expect("an in-memory write");
    wire
}

/// An `Execute` of `main(n)` that reads back `output[0..4]`.
fn squares_request(program_id: ProgramId, n: u32) -> Request {
    Request::Execute(ExecuteRequest {
        program_id,
        argsets: vec![vec![n]],
        dram_inits: vec![],
        window: (0, 16),
    })
}

/// A raw connection whose reads give up after 30 s, so a reply that never
/// comes fails the test instead of hanging it.
fn raw_connection(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

fn next_reply(frames: &mut FrameReader, stream: &mut TcpStream) -> Response {
    let body = frames.next_while(stream, |_| false).expect("a reply");
    decode_response(body).expect("decode")
}

fn expect_squares(reply: Response, n: u32) {
    let Response::Executed(reply) = reply else {
        panic!("wanted Executed, got {reply:?}")
    };
    let InstanceOutcome::Ok { dram, .. } = &reply.instances[0] else {
        panic!("instance failed: {:?}", reply.instances[0])
    };
    let want: Vec<u8> = (0..4u32)
        .flat_map(|i| if i < n { i * i } else { 0 }.to_le_bytes())
        .collect();
    assert_eq!(dram, &want, "main({n})");
}

/// Two requests written in one `write` arrive in one segment; the server
/// answers both, in order.
#[test]
fn two_requests_in_one_write_get_both_replies_in_order() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let program_id = compile_squares(&server);
    let mut stream = raw_connection(&server);
    let mut wire = frame_of(&squares_request(program_id, 3));
    wire.extend(frame_of(&Request::Status));
    stream.write_all(&wire).expect("one write");
    let mut frames = FrameReader::new();
    expect_squares(next_reply(&mut frames, &mut stream), 3);
    let Response::Status(status) = next_reply(&mut frames, &mut stream) else {
        panic!("wanted Status second")
    };
    assert_eq!(status.executed_instances, 1, "the Execute ran first");
    drop(stream);
    server.shutdown();
}

/// A frame whose second part arrives after several idle polls is waited
/// for and served: the drain check between reads does not split it.
#[test]
fn an_execute_frame_split_by_a_pause_is_still_served() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let program_id = compile_squares(&server);
    let mut stream = raw_connection(&server);
    let wire = frame_of(&squares_request(program_id, 4));
    let (first, rest) = wire.split_at(wire.len() / 2);
    stream.write_all(first).expect("first part");
    // Four idle polls' worth (IDLE_POLL is 50 ms).
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(rest).expect("second part");
    expect_squares(next_reply(&mut FrameReader::new(), &mut stream), 4);
    drop(stream);
    server.shutdown();
}
