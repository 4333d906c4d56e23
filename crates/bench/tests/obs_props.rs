//! Observability invariants, pinned as properties:
//!
//! 1. The number of `NodeDispatch` events in the trace ring, and of its
//!    productive ones, equal the `ExecReport::steps` and
//!    `productive_steps` the executor itself reports, on all eight Table
//!    III apps and on random scheduler-equivalence DAGs.
//!    The trace is an *account* of the run, not a sample of it.
//! 2. The timed simulator's bound attribution is an account in cycles: a
//!    link's producer (consumer) side is bound on at most as many cycles
//!    as that context fired productively, and recording it leaves the
//!    simulated run exactly as the noop sink's.
//! 3. The plan's `exec.lanes` histogram — one sample per lane-batched
//!    commit, its width — changes nothing it watches: an enabled sink
//!    leaves the outputs, the memory and the `ExecReport` of the no-op
//!    sink's run, and every sample lies in `MIN_LANES..=MAX_LANES`.

use proptest::prelude::*;
use revet_apps::all_apps;
use revet_core::PassOptions;
use revet_machine::instr::{AluOp, EwInstr, Operand};
use revet_machine::nodes::{EwNode, OutputSpec, MAX_LANES, MIN_LANES};
use revet_machine::{tbar, tdata, ChanId, Channel, Graph, MemoryState, RunOptions, TTok};
use revet_obs::{EventKind, ObsSink};
use revet_sim::Simulator;

const OUTER: u32 = 2;
const SCALE: usize = 8;
const SEED: u64 = 0x5EED;
const MAX_ROUNDS: u64 = 200_000_000;
const MAX_CYCLES: u64 = 2_000_000_000;
/// Large enough that no app/DAG in this suite drops events — equality
/// against `steps` requires a complete trace, so every test asserts
/// `trace_dropped() == 0` before counting.
const TRACE_CAP: usize = 1 << 21;

fn dispatch_events(obs: &ObsSink) -> (u64, u64) {
    let mut total = 0u64;
    let mut productive = 0u64;
    for ev in obs.trace_events() {
        if let EventKind::NodeDispatch {
            productive: p,
            node: _,
        } = ev.kind
        {
            total += 1;
            productive += p as u64;
        }
    }
    (total, productive)
}

/// On every evaluation app: the trace ring agrees exactly with the
/// `ExecReport`.
#[test]
fn trace_dispatch_counts_match_exec_report_on_all_apps() {
    for a in all_apps() {
        let (program, args, w) = a.prepare(OUTER, SCALE, SEED, &PassOptions::default());
        let obs = ObsSink::with_trace_capacity(TRACE_CAP);
        let mut inst = program.instance();
        inst.inject_args(&args);
        let (report, _) = inst
            .graph
            .run(RunOptions {
                obs: &obs,
                ..RunOptions::new(MAX_ROUNDS)
            })
            .unwrap_or_else(|e| panic!("{}: {e}", a.name));
        a.check_dram(&inst.memory().dram, &w);

        assert_eq!(obs.trace_dropped(), 0, "{}: ring too small", a.name);
        let (traced, traced_productive) = dispatch_events(&obs);
        assert_eq!(
            traced, report.steps,
            "{}: traced NodeDispatch events vs report.steps",
            a.name
        );
        assert_eq!(traced_productive, report.productive_steps, "{}", a.name);

        // Channel traffic is traced whichever way a node fires: every
        // channel a node pushed to shows at least one `ChannelPush`
        // (the entry channel is pushed by `inject_args`, not a node).
        let pushed: std::collections::HashSet<u32> = obs
            .trace_events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::ChannelPush { chan } => Some(chan),
                _ => None,
            })
            .collect();
        let topo = std::sync::Arc::clone(inst.graph.plan().topology());
        for (c, chan) in inst.graph.chans().iter().enumerate() {
            let by_node = !topo.producers(ChanId(c as u32)).is_empty();
            if by_node && chan.total_pushed() > 0 {
                assert!(
                    pushed.contains(&(c as u32)),
                    "{}: channel {c} carried {} tokens but no ChannelPush was traced",
                    a.name,
                    chan.total_pushed()
                );
            }
        }
    }
}

/// On every app, recording the lane histogram moves nothing, and its
/// samples are widths a batch may take. The histogram's buckets are powers
/// of two: `MIN_LANES` (8) opens one, so the lower bound is exact, and
/// `MAX_LANES` (64) opens the one the upper bound is checked against.
#[test]
fn lane_histogram_moves_nothing_and_holds_batch_widths_on_all_apps() {
    let bucket = |v: u64| {
        if v == 0 {
            0
        } else {
            (1u64 << (64 - v.leading_zeros())) - 1
        }
    };
    let mut batches = 0;
    for a in all_apps() {
        let (program, args, w) = a.prepare(OUTER, SCALE, SEED, &PassOptions::default());
        let run = |obs: &ObsSink| {
            let mut inst = program.instance();
            inst.inject_args(&args);
            let (report, _) = inst
                .graph
                .run(RunOptions {
                    obs,
                    ..RunOptions::new(MAX_ROUNDS)
                })
                .unwrap_or_else(|e| panic!("{}: {e}", a.name));
            a.check_dram(&inst.memory().dram, &w);
            (report, inst.sink_tokens(), inst.memory().clone())
        };
        let quiet = run(ObsSink::noop());
        let obs = ObsSink::counters_only();
        let observed = run(&obs);
        assert!(
            quiet == observed,
            "{}: an enabled sink moved the run",
            a.name
        );
        let lanes = &obs.counters.lanes;
        if let (Some(lo), Some(hi)) = (lanes.percentile(0.0), lanes.percentile(100.0)) {
            assert!(
                lo >= bucket(MIN_LANES as u64),
                "{}: a batch below MIN_LANES",
                a.name
            );
            assert!(
                hi <= bucket(MAX_LANES as u64),
                "{}: a batch above 64",
                a.name
            );
        }
        batches += lanes.count();
    }
    assert!(batches > 0, "no app committed a lane batch");
}

/// On every app, the bound table the timed run records through an enabled
/// sink: what it costs is one row per channel that ever bound a fire, and
/// nothing in the simulated run moves.
#[test]
fn timed_bound_links_are_counted_in_productive_cycles_on_all_apps() {
    let sim = Simulator::default();
    for a in all_apps() {
        let (mut program, args, w) = a.prepare(OUTER, SCALE, SEED, &PassOptions::default());
        let topo = std::sync::Arc::clone(program.graph.plan().topology());
        let obs = ObsSink::counters_only();
        let stats = sim
            .run_obs(&mut program, &args, MAX_CYCLES, &obs)
            .unwrap_or_else(|e| panic!("{}: {e}", a.name));
        a.check(&program, &w);
        let (mut quiet, args, _) = a.prepare(OUTER, SCALE, SEED, &PassOptions::default());
        let plain = sim.run(&mut quiet, &args, MAX_CYCLES).unwrap();
        assert_eq!(
            (stats.cycles, &stats.busy_cycles),
            (plain.cycles, &plain.busy_cycles),
            "{}: recording bound links moved the simulated run",
            a.name
        );

        let rows = obs.top_bound_links(usize::MAX);
        assert!(!rows.is_empty(), "{}: no link ever bound a fire", a.name);
        assert!(rows.len() <= program.graph.chan_count(), "{}", a.name);
        let busy = |ids: &[revet_machine::NodeId]| -> u64 {
            ids.iter().map(|n| stats.busy_cycles[n.0 as usize]).sum()
        };
        for r in &rows {
            let c = ChanId(r.id);
            let [push, pop] = r.counts;
            assert!(
                push <= busy(topo.producers(c)) && pop <= busy(topo.consumers(c)),
                "{}: ch{} bound on {push}/{pop} cycles, more than its ends fired",
                a.name,
                r.id,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random DAGs (the scheduler_equiv generator, compacted)

#[derive(Clone, Copy)]
enum Move {
    Map { sel: u32, op: u32 },
    Dup { sel: u32 },
    Zip { sel_a: u32, sel_b: u32 },
}

fn decode(raw: u32) -> Move {
    let kind = raw % 3;
    let a = (raw / 3) % 1009;
    let b = (raw / 3037) % 1013;
    match kind {
        0 => Move::Map { sel: a, op: b },
        1 => Move::Dup { sel: a },
        _ => Move::Zip { sel_a: a, sel_b: b },
    }
}

/// Grows a random DAG from one input link by count-preserving moves (map /
/// dup / zip over open channels), exactly like the machine crate's
/// scheduler-equivalence generator minus the DRAM taps. The channels left
/// open are the outputs.
fn build(values: &[u32], moves: &[u32]) -> Graph {
    let mut g = Graph::new();
    let mut toks: Vec<TTok> = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        toks.push(tdata([v]));
        if v % 7 == 0 {
            toks.push(tbar(1));
        }
        if i + 1 == values.len() {
            toks.push(tbar(1));
        }
    }
    let first = g.add_chan(Channel::new(1));
    for tok in toks {
        g.chan_mut(first).push(tok);
    }
    let mut open = vec![first];
    for &raw in moves {
        match decode(raw) {
            Move::Map { sel, op } => {
                let src = open.remove(sel as usize % open.len());
                let dst = g.add_chan(Channel::new(1));
                let alu = match op % 4 {
                    0 => AluOp::Add,
                    1 => AluOp::Xor,
                    2 => AluOp::Mul,
                    _ => AluOp::Rotl,
                };
                let instrs = vec![EwInstr::Alu {
                    op: alu,
                    a: Operand::Reg(0),
                    b: Operand::imm(1 + op % 13),
                    dst: 0,
                }];
                g.add_node(
                    "map",
                    EwNode::new(1, instrs, vec![OutputSpec::plain([0])]),
                    vec![src],
                    vec![dst],
                );
                open.push(dst);
            }
            Move::Dup { sel } => {
                let src = open.remove(sel as usize % open.len());
                let d0 = g.add_chan(Channel::new(1));
                let d1 = g.add_chan(Channel::new(1));
                g.add_node(
                    "dup",
                    EwNode::new(
                        1,
                        Vec::new(),
                        vec![OutputSpec::plain([0]), OutputSpec::plain([0])],
                    ),
                    vec![src],
                    vec![d0, d1],
                );
                open.push(d0);
                open.push(d1);
            }
            Move::Zip { sel_a, sel_b } => {
                if open.len() < 2 {
                    continue;
                }
                let a = open.remove(sel_a as usize % open.len());
                let b = open.remove(sel_b as usize % open.len());
                let dst = g.add_chan(Channel::new(1));
                let instrs = vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(1),
                    dst: 0,
                }];
                g.add_node(
                    "zip",
                    EwNode::new(2, instrs, vec![OutputSpec::plain([0])]),
                    vec![a, b],
                    vec![dst],
                );
                open.push(dst);
            }
        }
    }
    g.mem = MemoryState::with_dram_size(64);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random DAGs the trace and the report stay in exact agreement:
    /// traced NodeDispatch events == report.steps, and the productive ones
    /// == report.productive_steps.
    #[test]
    fn obs_matches_exec_report_on_random_dags(
        values in prop::collection::vec(0u32..100, 0..14),
        moves in prop::collection::vec(0u32..3_000_000, 0..18),
    ) {
        let mut g = build(&values, &moves);
        let obs = ObsSink::with_trace_capacity(TRACE_CAP);
        let (report, _) = g
            .run(RunOptions { obs: &obs, ..RunOptions::new(100_000) })
            .unwrap();
        prop_assert_eq!(obs.trace_dropped(), 0);
        let (traced, traced_productive) = dispatch_events(&obs);
        prop_assert_eq!(traced, report.steps);
        prop_assert_eq!(traced_productive, report.productive_steps);
    }
}
