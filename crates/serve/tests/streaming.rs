//! Streaming-session end-to-end tests over live TCP: a resident session
//! fed in chunks must be bit-identical to one-shot execution, idle
//! sessions must be evicted with the typed `SessionExpired` error, the
//! table's capacity must answer `Busy`, and a drain with resident
//! sessions must complete cleanly.

use revet_apps::{all_apps, app, App, DRAM_BYTES};
use revet_core::PassOptions;
use revet_serve::protocol::{ErrorCode, ExecuteRequest, InstanceOutcome, OpenStreamRequest};
use revet_serve::{ClientError, ServeClient, ServeConfig, Server};
use std::time::Duration;

const OUTER: u32 = 2;
const SCALE: usize = 8;
const SEED: u64 = 0x57E4;
const CHUNKS: usize = 4;

/// Everything a client needs to stream one app remotely, plus the
/// expected output window from the app's own workload oracle.
struct RemoteApp {
    source: String,
    options: PassOptions,
    args: Vec<u32>,
    dram_inits: Vec<(u64, Vec<u8>)>,
    window: (u64, u64),
    expected: Vec<u8>,
}

fn remote_app(name: &str) -> RemoteApp {
    remote(&app(name).expect("registered app"))
}

fn remote(a: &App) -> RemoteApp {
    let options = PassOptions {
        dram_bytes: DRAM_BYTES,
        ..PassOptions::default()
    };
    let w = (a.workload)(SCALE, SEED);
    RemoteApp {
        source: (a.source)(OUTER),
        options,
        args: w.args.clone(),
        dram_inits: a.overlays(&w),
        window: a.output_window(&w),
        expected: w.expected,
    }
}

fn expect_code(err: ClientError, code: ErrorCode) {
    match err {
        ClientError::Server(frame) => assert_eq!(frame.code, code, "{frame}"),
        other => panic!("wanted a typed {code:?} server error, got {other}"),
    }
}

/// The acceptance path: each of the eight apps, fed as four chunks through
/// its own streaming session, is bit-identical to one-shot `Execute` of the
/// same input, and both match the workload oracle. All eight sessions are
/// open at once, and their residency is visible in `Status` and `Metrics`.
#[test]
fn chunked_streaming_session_matches_one_shot_execute() {
    let apps: Vec<RemoteApp> = all_apps().iter().map(remote).collect();
    assert_eq!(apps.len(), 8);
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Per app: (session, one-shot window). The one-shot reference goes over
    // the same wire: a single instance, all input up front. (The apps' DRAM
    // writes are idempotent, so K identical argsets leave the same image as
    // one — the session feeds the same argset CHUNKS times.)
    let mut open = Vec::new();
    for ra in &apps {
        let program_id = client
            .compile(&ra.source, &ra.options)
            .expect("compile")
            .program_id;
        let reply = client
            .execute(ExecuteRequest {
                program_id,
                argsets: vec![ra.args.clone()],
                dram_inits: ra.dram_inits.clone(),
                window: ra.window,
            })
            .expect("one-shot execute");
        let InstanceOutcome::Ok { dram: oneshot, .. } = &reply.instances[0] else {
            panic!("one-shot instance failed: {:?}", reply.instances[0]);
        };
        assert_eq!(oneshot, &ra.expected, "one-shot diverges from the oracle");
        let session = client
            .open_stream(OpenStreamRequest {
                program_id,
                dram_inits: ra.dram_inits.clone(),
                window: ra.window,
            })
            .expect("open stream");
        open.push((session, oneshot.clone()));
    }

    for chunk in 0..CHUNKS {
        for (ra, (session, _)) in apps.iter().zip(&open) {
            let accepted = client.feed(*session, vec![ra.args.clone()]).expect("feed");
            assert_eq!(accepted, 1, "chunk {chunk} not accepted");
        }
        if chunk == 0 {
            // Between feed and poll the argsets sit in the entry channels:
            // every session's residency is visible in Status and Metrics.
            let status = client.status().expect("status");
            assert_eq!(status.open_sessions, 8);
            assert!(
                status.session_resident_bytes > 0,
                "fed input must count as resident ({status:?})"
            );
            let metrics = client.metrics().expect("metrics");
            assert_eq!(metrics.status.open_sessions, 8);
            assert!(metrics.status.session_resident_bytes > 0);
        }
        for (session, _) in &open {
            let poll = client.poll(*session).expect("poll");
            assert!(poll.finished, "chunk {chunk} left tokens in flight");
            assert_eq!(
                poll.resident_bytes, 0,
                "chunk {chunk}: the poll left delivered output resident"
            );
        }
    }

    assert_eq!(client.status().expect("status").open_sessions, 8);
    for (ra, (session, oneshot)) in apps.iter().zip(&open) {
        let close = client.close_stream(*session).expect("close");
        assert_eq!(
            &close.dram, oneshot,
            "chunked session DRAM differs from one-shot execute"
        );
        assert_eq!(close.dram, ra.expected, "session diverges from the oracle");
        assert!(close.merged.productive_steps > 0, "report accumulated");
    }

    // The ids are gone: double-close answers the typed UnknownSession.
    expect_code(
        client.close_stream(open[0].0).unwrap_err(),
        ErrorCode::UnknownSession,
    );
    // As does an id the server never issued.
    expect_code(client.poll(0xDEAD).unwrap_err(), ErrorCode::UnknownSession);

    let status = client.status().expect("status");
    assert_eq!(status.open_sessions, 0);
    assert_eq!(status.failed_instances, 0);
    server.shutdown();
}

/// A stream whose poll fails is a failed instance, whether the poll was the
/// client's own or the one a close runs first. A one-round cap makes every
/// poll of a fed session fail: a round is one ascending sweep of the wake
/// units, and murmur3's `while (j < 16)` loop sends each thread back to its
/// loop merge, a unit behind the one firing, so every trip waits for the
/// next sweep.
#[test]
fn failed_stream_polls_answer_bad_request_and_are_counted() {
    let ra = remote_app("murmur3");
    let server = Server::spawn(ServeConfig {
        max_rounds: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let program_id = client
        .compile(&ra.source, &ra.options)
        .expect("compile")
        .program_id;
    let open_and_feed = |client: &mut ServeClient| {
        let session = client
            .open_stream(OpenStreamRequest {
                program_id,
                dram_inits: ra.dram_inits.clone(),
                window: ra.window,
            })
            .expect("open stream");
        client.feed(session, vec![ra.args.clone()]).expect("feed");
        session
    };

    let polled = open_and_feed(&mut client);
    expect_code(client.poll(polled).unwrap_err(), ErrorCode::BadRequest);
    let status = client.status().expect("status");
    assert_eq!(status.failed_instances, 1);
    assert_eq!(status.open_sessions, 0, "the poisoned session was evicted");

    let closed = open_and_feed(&mut client);
    expect_code(
        client.close_stream(closed).unwrap_err(),
        ErrorCode::BadRequest,
    );
    let status = client.status().expect("status");
    assert_eq!(status.failed_instances, 2);
    assert_eq!(status.executed_instances, 0);
    server.shutdown();
}

/// Idle sessions are provably evicted: the sweeper drops a session past
/// its idle deadline, later touches answer the typed `SessionExpired`
/// error, and the eviction shows up in the counters.
#[test]
fn idle_sessions_are_evicted_with_typed_session_expired() {
    let ra = remote_app("ip2int");
    let server = Server::spawn(ServeConfig {
        session_idle_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let program_id = client
        .compile(&ra.source, &ra.options)
        .expect("compile")
        .program_id;
    let session = client
        .open_stream(OpenStreamRequest {
            program_id,
            dram_inits: ra.dram_inits.clone(),
            window: ra.window,
        })
        .expect("open stream");
    client.feed(session, vec![ra.args.clone()]).expect("feed");

    // Sit idle well past deadline + sweep period.
    std::thread::sleep(Duration::from_millis(400));

    expect_code(client.poll(session).unwrap_err(), ErrorCode::SessionExpired);
    expect_code(
        client.feed(session, vec![ra.args.clone()]).unwrap_err(),
        ErrorCode::SessionExpired,
    );
    expect_code(
        client.close_stream(session).unwrap_err(),
        ErrorCode::SessionExpired,
    );

    let status = client.status().expect("status");
    assert_eq!(status.open_sessions, 0);
    assert_eq!(status.evicted_sessions, 1);
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status.evicted_sessions, 1);
    server.shutdown();
}

/// The session table is bounded: opens beyond capacity answer `Busy`,
/// and closing a session frees its slot.
#[test]
fn session_capacity_answers_busy_and_close_frees_a_slot() {
    let ra = remote_app("isipv4");
    let server = Server::spawn(ServeConfig {
        session_capacity: 2,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let program_id = client
        .compile(&ra.source, &ra.options)
        .expect("compile")
        .program_id;
    let open = |client: &mut ServeClient| {
        client.open_stream(OpenStreamRequest {
            program_id,
            dram_inits: ra.dram_inits.clone(),
            window: (0, 0),
        })
    };

    let a = open(&mut client).expect("first open");
    let _b = open(&mut client).expect("second open");
    expect_code(open(&mut client).unwrap_err(), ErrorCode::Busy);

    client.close_stream(a).expect("close");
    open(&mut client).expect("slot freed by close");
    assert_eq!(client.status().expect("status").open_sessions, 2);
    server.shutdown();
}

/// Graceful drain with resident sessions: shutdown completes without
/// hanging, and streaming requests during the drain are refused with
/// `ShuttingDown` rather than left dangling.
#[test]
fn drain_drops_resident_sessions_cleanly() {
    let ra = remote_app("murmur3");
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let program_id = client
        .compile(&ra.source, &ra.options)
        .expect("compile")
        .program_id;
    for _ in 0..3 {
        let session = client
            .open_stream(OpenStreamRequest {
                program_id,
                dram_inits: ra.dram_inits.clone(),
                window: ra.window,
            })
            .expect("open stream");
        client.feed(session, vec![ra.args.clone()]).expect("feed");
    }
    assert_eq!(client.status().expect("status").open_sessions, 3);

    // Drain with all three sessions resident (and fed): must not hang.
    server.shutdown();
}
