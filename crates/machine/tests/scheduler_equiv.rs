//! Scheduler-equivalence property tests: every way of calling
//! [`Graph::run`] — the full [`RunOptions`] matrix, `{one-shot, resumed in
//! K chunks} × {no-op obs, enabled obs}` — and the dense-sweep oracle
//! ([`run_dense`]) must produce identical sink token streams and identical
//! [`MemoryState`] on randomly generated acyclic graphs. Kahn determinism means results are independent of the order in
//! which ready nodes are drained, the plan's fused segments must be
//! observationally invisible, and an enabled sink must account for every
//! dispatch without perturbing any.
//!
//! The generator grows a DAG from one source by three count-preserving
//! construction moves, so any two open channels always carry the same
//! tensor structure and may be zipped:
//!
//! - **map**: an element-wise node transforming the value (`x op imm`),
//! - **dup**: an element-wise node duplicating a stream onto two channels,
//! - **zip**: an element-wise node combining two open channels into one.
//!
//! A fourth move, **bound**, adds no node: it caps an open channel at 1..=4
//! tokens. Every node moves its inputs and outputs in lockstep, so such a
//! DAG cannot deadlock at any capacity ≥ 1; what the bound does is put
//! back-pressure on the run — producers stall on a full link and are woken
//! by the consumer's pop (`CapacityRelease`) — and keep the bounded link's
//! producer out of the plan's chains.
//!
//! A subset of nodes additionally writes its values into a node-private
//! DRAM window, so memory equality is exercised too (windows are disjoint:
//! cross-node write ordering is schedule-dependent, but each node's own
//! stream — and therefore its own write sequence — is deterministic).

use proptest::prelude::*;
use revet_machine::instr::{AluOp, EwInstr, Operand};
use revet_machine::nodes::{EwNode, OutputSpec, SinkHandle, SinkNode, SourceNode};
use revet_machine::reference::run_dense;
use revet_machine::{
    tbar, tdata, ChanId, Channel, ExecReport, Graph, MemoryState, ResumeState, RunOptions,
    RunStatus, TTok,
};
use revet_obs::ObsSink;

/// One construction move, decoded from a raw u32.
#[derive(Clone, Copy, Debug)]
enum Move {
    Map { sel: u32, op: u32 },
    Dup { sel: u32 },
    Zip { sel_a: u32, sel_b: u32 },
    Bound { sel: u32, cap: u32 },
}

fn decode(raw: u32) -> Move {
    let kind = raw % 4;
    let a = (raw / 4) % 1009;
    let b = (raw / 4049) % 1013;
    match kind {
        0 => Move::Map { sel: a, op: b },
        1 => Move::Dup { sel: a },
        2 => Move::Zip { sel_a: a, sel_b: b },
        _ => Move::Bound { sel: a, cap: b },
    }
}

/// Bytes reserved per writer node (16 word slots).
const WINDOW: usize = 64;

/// The source stream for a value list: data tokens with ragged mid-stream
/// barriers, closed by one Ω1.
fn source_tokens(values: &[u32]) -> Vec<TTok> {
    let mut toks: Vec<TTok> = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        toks.push(tdata([v]));
        if v % 7 == 0 {
            toks.push(tbar(1)); // ragged tensors: barriers mid-stream
        }
        if i + 1 == values.len() {
            toks.push(tbar(1));
        }
    }
    toks
}

/// Builds the graph described by (`toks`, `moves`); every node whose
/// index is divisible by 3 also writes its stream into a private DRAM
/// window. Returns the source's output channel (streaming tests feed it
/// incrementally) and the sink handles (one per remaining open channel).
fn build(toks: Vec<TTok>, moves: &[u32]) -> (Graph, ChanId, Vec<SinkHandle>) {
    let mut g = Graph::new();
    let mut writer_count = 0u32;
    let first = g.add_chan(Channel::new(1));
    g.add_node("src", Box::new(SourceNode::new(toks)), vec![], vec![first]);
    let mut open = vec![first];

    // Instructions shared by every generated node: an optional DRAM tap
    // writing reg0 into the node's private window at (reg0 & 15)*4.
    let mut tap = |instrs: &mut Vec<EwInstr>, node_idx: usize| {
        if !node_idx.is_multiple_of(3) {
            return;
        }
        let base = writer_count * WINDOW as u32;
        writer_count += 1;
        instrs.push(EwInstr::Alu {
            op: AluOp::And,
            a: Operand::Reg(0),
            b: Operand::imm(15u32),
            dst: 3,
        });
        instrs.push(EwInstr::Alu {
            op: AluOp::Mul,
            a: Operand::Reg(3),
            b: Operand::imm(4u32),
            dst: 3,
        });
        instrs.push(EwInstr::Alu {
            op: AluOp::Add,
            a: Operand::Reg(3),
            b: Operand::imm(base),
            dst: 3,
        });
        instrs.push(EwInstr::DramWriteW {
            addr: Operand::Reg(3),
            val: Operand::Reg(0),
            pred: None,
        });
    };

    for (node_idx, &raw) in moves.iter().enumerate() {
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
                let mut instrs = vec![EwInstr::Alu {
                    op: alu,
                    a: Operand::Reg(0),
                    b: Operand::imm(1 + op % 13),
                    dst: 0,
                }];
                tap(&mut instrs, node_idx);
                g.add_node(
                    format!("map{node_idx}"),
                    Box::new(EwNode::new(1, instrs, vec![OutputSpec::plain([0])])),
                    vec![src],
                    vec![dst],
                );
                open.push(dst);
            }
            Move::Dup { sel } => {
                let src = open.remove(sel as usize % open.len());
                let d0 = g.add_chan(Channel::new(1));
                let d1 = g.add_chan(Channel::new(1));
                let mut instrs = Vec::new();
                tap(&mut instrs, node_idx);
                g.add_node(
                    format!("dup{node_idx}"),
                    Box::new(EwNode::new(
                        1,
                        instrs,
                        vec![OutputSpec::plain([0]), OutputSpec::plain([0])],
                    )),
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
                let mut instrs = vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(1),
                    dst: 0,
                }];
                tap(&mut instrs, node_idx);
                g.add_node(
                    format!("zip{node_idx}"),
                    Box::new(EwNode::new(2, instrs, vec![OutputSpec::plain([0])])),
                    vec![a, b],
                    vec![dst],
                );
                open.push(dst);
            }
            Move::Bound { sel, cap } => {
                // The graph has not run yet, so the field write is the
                // whole story (no schedule exists to go stale).
                let c = open[sel as usize % open.len()];
                g.chan_mut(c).capacity = Some(1 + cap as usize % 4);
            }
        }
    }

    let mut handles = Vec::new();
    for (i, c) in open.into_iter().enumerate() {
        let (sink, h) = SinkNode::new();
        g.add_node(format!("sink{i}"), Box::new(sink), vec![c], vec![]);
        handles.push(h);
    }
    g.mem = MemoryState::with_dram_size(WINDOW * (writer_count as usize + 1));
    (g, first, handles)
}

fn snapshot(handles: &[SinkHandle]) -> Vec<Vec<TTok>> {
    handles.iter().map(|h| h.tokens()).collect()
}

/// One `Graph::run`.
fn run(g: &mut Graph, resume: Option<&mut ResumeState>, obs: &ObsSink) -> (ExecReport, RunStatus) {
    g.run(RunOptions {
        resume,
        obs,
        max_rounds: 100_000,
    })
    .unwrap()
}

/// Interior nodes the chain rule must leave out: those with a bounded
/// output (the source has no inputs, a sink no outputs).
fn bounded_producers(g: &Graph) -> usize {
    let bounded = |c: &ChanId| g.chans()[c.0 as usize].capacity.is_some();
    g.nodes()
        .iter()
        .filter(|s| !s.ins.is_empty() && s.outs.iter().any(bounded))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planned and the dense-sweep execution of the same random DAG
    /// agree on every sink stream and on the entire memory state (DRAM
    /// bytes, SRAM, allocators, and traffic counters), while the plan
    /// attempts no more steps than the dense sweep. Every generated
    /// interior node is an `EwNode`, so the
    /// plan chains the whole DAG between the source and the sinks, except
    /// the producers of bounded links.
    #[test]
    fn planned_matches_ready_matches_dense(
        values in prop::collection::vec(0u32..100, 0..14),
        moves in prop::collection::vec(0u32..3_000_000, 0..18),
    ) {
        let (mut dense_g, _, dense_h) = build(source_tokens(&values), &moves);
        let dense: ExecReport = run_dense(&mut dense_g, 100_000).unwrap();
        let (mut plan_g, _, plan_h) = build(source_tokens(&values), &moves);
        let (planned, _) = run(&mut plan_g, None, ObsSink::noop());

        let stats = plan_g.plan().stats();
        prop_assert_eq!(
            stats.fused_ew + bounded_producers(&plan_g) + plan_h.len() + 1,
            stats.nodes,
            "everything chains but the source, the sinks and bounded links' producers: {:?}",
            stats
        );

        prop_assert_eq!(snapshot(&dense_h), snapshot(&plan_h));
        prop_assert_eq!(&dense_g.mem, &plan_g.mem);
        // Step *grouping* is schedule-dependent (the ready set may fire a
        // node at finer granularity), but total attempted work must not be
        // — without back-pressure: a producer stalled on a full link is
        // re-attempted on every capacity release.
        prop_assert!(
            planned.steps <= dense.steps || dense_g.chans().iter().any(|c| c.capacity.is_some()),
            "the plan did more work ({} > {})", planned.steps, dense.steps
        );
    }

    /// The whole `RunOptions` matrix against the dense oracle: `{one-shot,
    /// resumed in K chunks} × {no-op obs, enabled obs}`. Feeding the source stream in K chunks at arbitrary
    /// token boundaries — with a resumable run after each chunk, and one
    /// more whenever a bounded entry link fills up mid-chunk — yields
    /// exactly the one-shot sink streams and memory state: chunking only
    /// perturbs the schedule, and Kahn semantics make the result
    /// schedule-independent; intermediate polls may legitimately pause
    /// with in-flight tokens, but the final poll must drain clean. An
    /// enabled sink sees one dispatch per attempted step, summed over the
    /// session's runs.
    #[test]
    fn chunked_feed_matches_one_shot(
        values in prop::collection::vec(0u32..100, 0..14),
        moves in prop::collection::vec(0u32..3_000_000, 0..18),
        cuts in prop::collection::vec(0usize..64, 0..5),
    ) {
        let toks = source_tokens(&values);
        let (mut oracle_g, _, oracle_h) = build(toks.clone(), &moves);
        run_dense(&mut oracle_g, 100_000).unwrap();

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (toks.len() + 1)).collect();
        bounds.push(0);
        bounds.push(toks.len());
        bounds.sort_unstable();
        bounds.dedup();

        for chunked in [false, true] {
            for observed in [false, true] {
                let lane = format!("chunked={chunked} observed={observed}");
                let enabled = ObsSink::counters_only();
                let obs = if observed { &enabled } else { ObsSink::noop() };
                let initial = if chunked { Vec::new() } else { toks.clone() };
                let (mut g, entry, handles) = build(initial, &moves);
                let mut steps = 0;
                if chunked {
                    let mut resume = ResumeState::new();
                    let mut last = RunStatus::Finished;
                    for w in bounds.windows(2) {
                        for tok in &toks[w[0]..w[1]] {
                            if g.chans()[entry.0 as usize].room() == 0 {
                                steps += run(&mut g, Some(&mut resume), obs).0.steps;
                            }
                            g.chan_mut(entry).push(tok.clone());
                        }
                        let (report, status) = run(&mut g, Some(&mut resume), obs);
                        steps += report.steps;
                        last = status;
                    }
                    prop_assert_eq!(last, RunStatus::Finished, "{}: final drain", lane);
                } else {
                    let (report, status) = run(&mut g, None, obs);
                    prop_assert_eq!(status, RunStatus::Finished, "{}", lane);
                    steps = report.steps;
                }
                prop_assert_eq!(snapshot(&oracle_h), snapshot(&handles), "{}: sinks", lane);
                prop_assert_eq!(&oracle_g.mem, &g.mem, "{}: memory", lane);
                let dispatches = if observed { steps } else { 0 };
                prop_assert_eq!(enabled.counters.dispatches.get(), dispatches, "{}", lane);
            }
        }
    }
}
