//! A `main` that returns a value, end to end. Every app, corpus seed and
//! generated case is `void main`, whose output per argument set is the
//! empty tuple and Ω1; this program's output carries a word computed after
//! a `foreach` reduction, so each way of running a compiled program must
//! deliver `[Data([v]), Ω1]` per argument set: the template's own run, an
//! instance's run, a streaming session (which keeps none of it once
//! polled), the timed simulator at Table II's
//! buffer depths and at one-token buffers, and the dense oracle.

use revet_core::{CompiledProgram, PassOptions, Session};
use revet_machine::{RunStatus, TTok};
use revet_oracle::dense::run_dense;
use revet_sim::{IdealModels, RdaConfig, Simulator};
use revet_sltf::{BarrierLevel, Tok, Word};

const SUM_OF_SQUARES: &str = r#"
    u32 main(u32 n) {
        u32 s = foreach (n) reduce(+) { u32 i =>
            yield i * i;
        };
        return s * 2 + n;
    }
"#;

const MAX: u64 = 10_000_000;

fn compile() -> CompiledProgram {
    Session::new(SUM_OF_SQUARES, PassOptions::default())
        .to_dataflow()
        .unwrap()
}

/// What `main(n)` emits: its return value, then Ω1.
fn output(n: u32) -> Vec<TTok> {
    let squares: u32 = (0..n).map(|i| i * i).sum();
    vec![
        Tok::Data(vec![Word(squares * 2 + n)]),
        Tok::Barrier(BarrierLevel::L1),
    ]
}

#[test]
fn the_template_run_returns_the_value() {
    let mut program = compile();
    program.run_untimed(&[Word(5)], MAX).unwrap();
    assert_eq!(program.sink_tokens(), output(5));
}

#[test]
fn an_instance_run_returns_the_value() {
    let program = compile();
    let mut inst = program.instance();
    inst.run_untimed(&[Word(6)], MAX).unwrap();
    assert_eq!(inst.sink_tokens(), output(6));
}

#[test]
fn an_instance_of_a_template_that_ran_returns_only_its_own_output() {
    let mut program = compile();
    program.run_untimed(&[Word(3)], MAX).unwrap();
    let mut inst = program.instance();
    assert_eq!(inst.sink_tokens(), vec![], "a fresh instance has no output");
    inst.run_untimed(&[Word(4)], MAX).unwrap();
    assert_eq!(inst.sink_tokens(), output(4));
}

#[test]
fn a_stream_returns_one_value_per_argument_set() {
    let program = compile();
    let mut stream = program.stream();
    let mut polled = Vec::new();
    for n in [2u32, 7] {
        stream.feed(&[vec![Word(n)]]).unwrap();
        let (delta, _) = stream.poll(MAX).unwrap();
        assert_eq!(delta, output(n), "poll after feeding {n}");
        polled.extend(delta);
    }
    let out = stream.finish(MAX).unwrap();
    assert_eq!(out.tail, vec![], "every value went out with a poll");
    polled.extend(out.tail);
    assert_eq!(polled, [output(2), output(7)].concat(), "polls + tail");
}

/// A poll hands its output over and the session keeps none of it, so a
/// long stream's residency does not grow with what it has delivered.
#[test]
fn a_long_stream_releases_what_it_delivers() {
    const ARGSETS: u32 = 1_000;
    let n = |i: u32| i % 32;
    let program = compile();
    let mut stream = program.stream();
    let mut polled = Vec::new();
    let mut resident = Vec::new();
    for i in 0..ARGSETS {
        stream.feed(&[vec![Word(n(i))]]).unwrap();
        let (delta, status) = stream.poll(MAX).unwrap();
        assert_eq!(status, RunStatus::Finished, "poll {i}");
        polled.extend(delta);
        resident.push(stream.resident_bytes());
    }
    assert_eq!(resident[9], 0, "after the 10th poll");
    assert_eq!(resident[999], resident[9], "after the 1 000th poll");
    polled.extend(stream.finish(MAX).unwrap().tail);
    let one_shot: Vec<TTok> = (0..ARGSETS)
        .flat_map(|i| {
            let mut inst = program.instance();
            inst.run_untimed(&[Word(n(i))], MAX).unwrap();
            inst.sink_tokens()
        })
        .collect();
    assert_eq!(one_shot.len(), 2 * ARGSETS as usize);
    assert_eq!(polled, one_shot, "polls + tail equal the one-shot outputs");
}

#[test]
fn the_simulator_returns_the_value_at_every_buffer_depth() {
    let one_deep = RdaConfig {
        vector_buffer_tokens: 1,
        scalar_buffer_tokens: 1,
        ..RdaConfig::default()
    };
    for config in [RdaConfig::default(), one_deep] {
        let depths = (config.vector_buffer_tokens, config.scalar_buffer_tokens);
        let mut program = compile();
        let stats = Simulator::new(config, IdealModels::default())
            .run(&mut program, &[Word(9)], MAX)
            .unwrap_or_else(|e| panic!("buffers {depths:?}: {e}"));
        assert!(stats.cycles > 0);
        assert_eq!(program.sink_tokens(), output(9), "buffers {depths:?}");
    }
}

#[test]
fn the_dense_oracle_returns_the_value() {
    let program = compile();
    let mut inst = program.instance();
    inst.inject_args(&[Word(8)]);
    run_dense(&mut inst.graph, MAX).unwrap();
    assert_eq!(inst.sink_tokens(), output(8));
}
