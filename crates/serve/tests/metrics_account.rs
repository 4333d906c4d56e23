//! `Metrics` counts execution once: its `exec.*` counters are the merge of
//! the reports the replies carried, so a client that adds up the `merged`
//! field of every `Execute` and `CloseStream` reply reads the same numbers,
//! and a streaming session counts as an instance when it closes.

use revet_apps::{app, DRAM_BYTES};
use revet_core::PassOptions;
use revet_serve::protocol::{ExecuteRequest, InstanceOutcome, OpenStreamRequest, WireReport};
use revet_serve::{ServeClient, ServeConfig, Server};

const OUTER: u32 = 2;
const SCALE: usize = 8;
const SEED: u64 = 0x3E7;

#[test]
fn metrics_agree_with_the_reports_the_replies_carried() {
    let a = app("murmur3").expect("registered app");
    let w = (a.workload)(SCALE, SEED);
    let options = PassOptions {
        dram_bytes: DRAM_BYTES,
        ..PassOptions::default()
    };
    let (dram_inits, window) = (a.overlays(&w), a.output_window(&w));
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let program_id = client
        .compile(&(a.source)(OUTER), &options)
        .expect("compile")
        .program_id;

    let executed = client
        .execute(ExecuteRequest {
            program_id,
            argsets: vec![w.args.clone(), w.args.clone()],
            dram_inits: dram_inits.clone(),
            window,
        })
        .expect("execute");
    for outcome in &executed.instances {
        let InstanceOutcome::Ok { dram, .. } = outcome else {
            panic!("instance failed: {outcome:?}");
        };
        assert_eq!(dram, &w.expected, "execute diverges from the oracle");
    }

    let session = client
        .open_stream(OpenStreamRequest {
            program_id,
            dram_inits,
            window,
        })
        .expect("open stream");
    client.feed(session, vec![w.args.clone()]).expect("feed");
    client.poll(session).expect("poll");
    client.feed(session, vec![w.args.clone()]).expect("feed");
    let closed = client.close_stream(session).expect("close");
    assert_eq!(closed.dram, w.expected, "stream diverges from the oracle");

    let metrics = client.metrics().expect("metrics");
    let replies: [WireReport; 2] = [executed.merged, closed.merged];
    let sum = |f: fn(&WireReport) -> u64| replies.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.steps) > 0, "the replies report work");
    assert_eq!(metrics.get("exec.dispatches"), Some(sum(|r| r.steps)));
    assert_eq!(metrics.get("exec.rounds"), Some(sum(|r| r.rounds)));
    assert_eq!(
        metrics.get("exec.productive"),
        Some(sum(|r| r.productive_steps))
    );
    let peak = replies.iter().map(|r| r.peak_ready).max();
    assert_eq!(metrics.get("exec.peak_ready"), peak);
    assert_eq!(metrics.status.executed_instances, 3);

    server.shutdown();
}
