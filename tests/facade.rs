//! The facade crate's re-exports are usable on their own: every layer is
//! reachable through `revet::*` without importing the member crates, and the
//! layers agree on shared types.

use revet::compiler::{PassOptions, Session};
use revet::machine::instr::{AluOp, Operand};
use revet::machine::nodes::{CounterNode, ReduceNode};
use revet::machine::{tbar, tdata, Channel, Graph, RunOptions};
use revet::sltf::Word;

#[test]
fn machine_reexport_runs_a_graph() {
    // foreach-sum as counter + reduce, straight from the crate-level docs.
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let b = g.add_chan(Channel::new(1));
    let d = g.add_chan(Channel::new(1));
    g.chan_mut(a).push(tdata([5u32]));
    g.chan_mut(a).push(tbar(1));
    g.add_node(
        "counter",
        CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32)),
        vec![a],
        vec![b],
    );
    g.add_node(
        "reduce",
        ReduceNode::new(AluOp::Add, 0u32),
        vec![b],
        vec![d],
    );
    g.run(RunOptions::new(10_000)).unwrap();
    // sum(0..5) = 10
    assert_eq!(
        g.chans()[d.0 as usize].tokens(),
        vec![tdata([10u32]), tbar(1)]
    );
}

#[test]
fn lang_and_mir_reexports_agree_with_compiler() {
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                output[i] = i * 3;
            };
        }
    "#;
    // Front-end alone lowers to MIR…
    let module = revet::lang::compile_to_mir(src).expect("front-end accepts source");
    assert!(!module.funcs.is_empty(), "lowering produced no functions");
    // …and the full pipeline maps the same source onto dataflow contexts.
    let program = Session::new(src, PassOptions::default())
        .to_dataflow()
        .expect("pipeline compiles source");
    assert!(program.context_count() > 0);
}

#[test]
fn sim_baselines_and_apps_reexports_interoperate() {
    let app = revet::apps::app("ip2int").expect("ip2int registered");
    let traits_ = revet::baselines::traits_for(app.name);
    assert!(traits_.cpu_ops_per_byte > 0.0);

    let workload = (app.workload)(8, 7);
    let mut program = app.compile(2, &PassOptions::default()).expect("compiles");
    app.load(&mut program, &workload);
    let args: Vec<Word> = workload.args.iter().map(|&a| Word(a)).collect();
    let sim = revet::sim::Simulator::default();
    let stats = sim
        .run(&mut program, &args, 100_000_000)
        .expect("simulates");
    assert!(stats.cycles > 0, "timed run must consume cycles");
    app.check(&program, &workload);
}

#[test]
fn runtime_reexport_runs_a_parallel_batch() {
    let program = Session::new(
        "dram<u32> output;
         void main(u32 n) {
             foreach (n) { u32 i => output[i] = i + n; };
         }",
        PassOptions {
            dram_bytes: 1 << 12,
            ..PassOptions::default()
        },
    )
    .to_dataflow()
    .expect("compiles");
    let jobs: Vec<revet::runtime::BatchJob> = (1..=6)
        .map(|n| revet::runtime::BatchJob::new(&program, vec![Word(n)]))
        .collect();
    let report = revet::runtime::BatchRunner::new(3).run(&jobs);
    assert_eq!(report.ok_count(), 6);
    for (n, result) in (1u32..=6).zip(&report.results) {
        let mem = &result.as_ref().expect("instance ran").mem;
        let got = u32::from_le_bytes(mem.dram[0..4].try_into().unwrap());
        assert_eq!(got, n, "output[0] = 0 + n");
    }
}

#[test]
fn all_eight_paper_apps_are_registered() {
    let apps = revet::apps::all_apps();
    assert_eq!(apps.len(), 8, "paper evaluates eight applications");
    for name in [
        "isipv4",
        "search",
        "ip2int",
        "murmur3",
        "hash-table",
        "huff-dec",
        "huff-enc",
        "kD-tree",
    ] {
        assert!(
            apps.iter().any(|a| a.name == name),
            "{name} missing from registry"
        );
    }
}
