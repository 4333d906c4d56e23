//! Graph-level reproductions of the paper's Figures 2–4, plus the nested
//! compositions (§III-B) that Aurochs's timeout scheme could not support.

use revet_machine::instr::{AluOp, EwInstr, Operand};
use revet_machine::nodes::{
    BroadcastNode, CounterNode, EwNode, FbMergeNode, FlattenNode, FwdMergeNode, OutputSpec,
    ReduceNode,
};
use revet_machine::{tbar, tdata, ChanId, Channel, Graph, RunOptions, TTok};
use revet_sltf::Tok;

/// Pushes `toks` onto `c`, as a host feeds an input link.
fn feed(g: &mut Graph, c: ChanId, toks: impl IntoIterator<Item = TTok>) {
    for t in toks {
        g.chan_mut(c).push(t);
    }
}

/// What an output link holds, as the host reads it.
fn output(g: &Graph, c: ChanId) -> Vec<TTok> {
    g.chans()[c.0 as usize].tokens()
}

fn data_ids(tokens: &[TTok]) -> Vec<u32> {
    tokens
        .iter()
        .filter_map(|t| t.data().map(|v| v[0].as_u32()))
        .collect()
}

/// Figure 2: a `foreach` loop — counter expands a 1-D thread tensor into 2-D,
/// element-wise work happens inside, reduction contracts it back to 1-D.
#[test]
fn figure2_foreach_counter_reduce() {
    // A = [t1=3, t2=4]: each thread's value is its child count.
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let b = g.add_chan(Channel::new(1));
    let c = g.add_chan(Channel::new(1));
    let d = g.add_chan(Channel::new(1));
    feed(&mut g, a, vec![tdata([3u32]), tdata([4u32]), tbar(1)]);
    g.add_node(
        "counter",
        CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32)),
        vec![a],
        vec![b],
    );
    // Element-wise op along edge B→C: square each index.
    g.add_node(
        "square",
        EwNode::new(
            1,
            vec![EwInstr::Alu {
                op: AluOp::Mul,
                a: Operand::Reg(0),
                b: Operand::Reg(0),
                dst: 1,
            }],
            vec![OutputSpec::plain([1])],
        ),
        vec![b],
        vec![c],
    );
    g.add_node(
        "reduce",
        ReduceNode::new(AluOp::Add, 0u32),
        vec![c],
        vec![d],
    );
    g.run(RunOptions::new(10_000)).unwrap();
    // t1: 0²+1²+2² = 5; t2: 0²+1²+2²+3² = 14. Same dimensionality as A.
    assert_eq!(output(&g, d), vec![tdata([5u32]), tdata([14u32]), tbar(1)]);
}

/// Figure 2 with the parent value broadcast to children over the scalar
/// network (what Aurochs could not express).
#[test]
fn figure2_with_parent_broadcast() {
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let child = g.add_chan(Channel::new(1));
    let parent = g.add_chan(Channel::new(1).with_class(revet_machine::LinkClass::Scalar));
    let joined = g.add_chan(Channel::new(2));
    let summed = g.add_chan(Channel::new(1));
    let d = g.add_chan(Channel::new(1));
    feed(&mut g, a, vec![tdata([10u32]), tdata([20u32]), tbar(1)]);
    // Counter: every thread spawns 2 children; parent value rides the
    // data-only scalar link.
    g.add_node(
        "counter",
        CounterNode::new(Operand::imm(0u32), Operand::imm(2u32), Operand::imm(1u32))
            .with_data_only_parent(),
        vec![a],
        vec![child, parent],
    );
    g.add_node(
        "broadcast",
        BroadcastNode::new(1),
        vec![parent, child],
        vec![joined],
    );
    // child value = index + parent.
    g.add_node(
        "addp",
        EwNode::new(
            2,
            vec![EwInstr::Alu {
                op: AluOp::Add,
                a: Operand::Reg(0),
                b: Operand::Reg(1),
                dst: 2,
            }],
            vec![OutputSpec::plain([2])],
        ),
        vec![joined],
        vec![summed],
    );
    g.add_node(
        "reduce",
        ReduceNode::new(AluOp::Add, 0u32),
        vec![summed],
        vec![d],
    );
    g.run(RunOptions::new(10_000)).unwrap();
    // t1: (0+10)+(1+10) = 21; t2: (0+20)+(1+20) = 41.
    assert_eq!(output(&g, d), vec![tdata([21u32]), tdata([41u32]), tbar(1)]);
}

/// Figure 3: an `if` statement — filter partitions threads onto two paths
/// (t3 takes the rare/slow path on a scalar link), forward merge rejoins.
#[test]
fn figure3_filter_merge_if() {
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let b = g.add_chan(Channel::new(1).with_class(revet_machine::LinkClass::Scalar));
    let c = g.add_chan(Channel::new(1));
    let b_delayed = g.add_chan(Channel::new(1));
    let d = g.add_chan(Channel::new(1));
    feed(
        &mut g,
        a,
        vec![
            tdata([1u32]),
            tdata([2u32]),
            tdata([3u32]),
            tdata([4u32]),
            tdata([5u32]),
            tbar(1),
        ],
    );
    // Filter: t == 3 → slow path B; else fast path C.
    g.add_node(
        "filter",
        EwNode::new(
            1,
            vec![EwInstr::Alu {
                op: AluOp::Eq,
                a: Operand::Reg(0),
                b: Operand::imm(3u32),
                dst: 1,
            }],
            vec![
                OutputSpec::filtered([0], 1, true),
                OutputSpec::filtered([0], 1, false),
            ],
        ),
        vec![a],
        vec![b, c],
    );
    // The slow path does some work (identity here; the delay is structural).
    g.add_node("delay", EwNode::passthrough(1), vec![b], vec![b_delayed]);
    g.add_node(
        "fwd-merge",
        FwdMergeNode::new(),
        vec![b_delayed, c],
        vec![d],
    );
    g.run(RunOptions::new(10_000)).unwrap();

    let toks = output(&g, d);
    assert_eq!(toks.last(), Some(&tbar(1)), "single merged barrier");
    let mut ids = data_ids(&toks);
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3, 4, 5], "all threads exactly once");
}

/// Figure 4: a `while` loop via forward-backward merge. Iteration counts:
/// t1=2, t2=3, t3=1, t4=3; exit order follows completion (t3 first).
#[test]
fn figure4_fb_merge_while() {
    let mut g = Graph::new();
    // Tuples: [id, remaining].
    let a = g.add_chan(Channel::new(2));
    let body_in = g.add_chan(Channel::new(2));
    let body_out = g.add_chan(Channel::new(2));
    let back = g.add_chan(Channel::new(2).without_canonicalization());
    let exit_raw = g.add_chan(Channel::new(2));
    let d = g.add_chan(Channel::new(2));
    feed(
        &mut g,
        a,
        vec![
            tdata([1u32, 2]),
            tdata([2u32, 3]),
            tdata([3u32, 1]),
            tdata([4u32, 3]),
            tbar(1),
        ],
    );
    g.add_node(
        "loop-head",
        FbMergeNode::new(),
        vec![a, back],
        vec![body_in],
    );
    // Body: remaining -= 1.
    g.add_node(
        "body",
        EwNode::new(
            2,
            vec![EwInstr::Alu {
                op: AluOp::Sub,
                a: Operand::Reg(1),
                b: Operand::imm(1u32),
                dst: 1,
            }],
            vec![OutputSpec::plain([0, 1])],
        ),
        vec![body_in],
        vec![body_out],
    );
    // Back-filter: remaining > 0 → backedge; else → exit edge.
    g.add_node(
        "backfilter",
        EwNode::new(
            2,
            vec![EwInstr::Alu {
                op: AluOp::GtS,
                a: Operand::Reg(1),
                b: Operand::imm(0u32),
                dst: 2,
            }],
            vec![
                OutputSpec::filtered([0, 1], 2, true),
                OutputSpec::filtered([0, 1], 2, false),
            ],
        ),
        vec![body_out],
        vec![back, exit_raw],
    );
    // Exit edge lowers all barriers one level (drops the reserved Ω1s).
    g.add_node("exit-strip", FlattenNode::new(), vec![exit_raw], vec![d]);
    g.run(RunOptions::new(10_000)).unwrap();

    let toks = output(&g, d);
    // D = [t3, t1, t2, t4], Ωn — completion order, original level restored.
    assert_eq!(data_ids(&toks), vec![3, 1, 2, 4]);
    assert_eq!(toks.last(), Some(&tbar(1)));
    assert_eq!(
        toks.iter().filter(|t| t.is_barrier()).count(),
        1,
        "wave barriers eliminated at the exit edge"
    );
}

/// Two back-to-back tensors through one while loop: the loop header must
/// fully drain the first tensor before admitting the second (§III-B d).
#[test]
fn fb_merge_back_to_back_tensors() {
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(2));
    let body_in = g.add_chan(Channel::new(2));
    let body_out = g.add_chan(Channel::new(2));
    let back = g.add_chan(Channel::new(2).without_canonicalization());
    let exit_raw = g.add_chan(Channel::new(2));
    let d = g.add_chan(Channel::new(2));
    feed(
        &mut g,
        a,
        vec![
            tdata([1u32, 3]),
            tbar(1), // tensor 1: one thread, 3 iterations
            tdata([2u32, 1]),
            tdata([3u32, 2]),
            tbar(1), // tensor 2: two threads
        ],
    );
    g.add_node("head", FbMergeNode::new(), vec![a, back], vec![body_in]);
    g.add_node(
        "body",
        EwNode::new(
            2,
            vec![EwInstr::Alu {
                op: AluOp::Sub,
                a: Operand::Reg(1),
                b: Operand::imm(1u32),
                dst: 1,
            }],
            vec![OutputSpec::plain([0, 1])],
        ),
        vec![body_in],
        vec![body_out],
    );
    g.add_node(
        "backfilter",
        EwNode::new(
            2,
            vec![EwInstr::Alu {
                op: AluOp::GtS,
                a: Operand::Reg(1),
                b: Operand::imm(0u32),
                dst: 2,
            }],
            vec![
                OutputSpec::filtered([0, 1], 2, true),
                OutputSpec::filtered([0, 1], 2, false),
            ],
        ),
        vec![body_out],
        vec![back, exit_raw],
    );
    g.add_node("strip", FlattenNode::new(), vec![exit_raw], vec![d]);
    g.run(RunOptions::new(10_000)).unwrap();

    let toks = output(&g, d);
    // Tensor boundaries must be preserved: t1 then Ω1, then {t2,t3} then Ω1.
    let positions: Vec<String> = toks
        .iter()
        .map(|t| match t {
            Tok::Data(v) => format!("t{}", v[0].as_u32()),
            Tok::Barrier(l) => format!("Ω{}", l.get()),
        })
        .collect();
    let joined = positions.join(" ");
    assert!(
        joined == "t1 Ω1 t2 t3 Ω1" || joined == "t1 Ω1 t3 t2 Ω1",
        "tensors stay separated, got: {joined}"
    );
}

/// Nested while loops — the case that broke Aurochs's timeout heuristic.
/// Outer loop: o countdown; on each outer iteration an inner loop runs
/// `inner0` times. Verified against a scalar reference.
#[test]
fn nested_while_loops_compose() {
    // Tuples: [id, o, acc]; inner adds [i] slot.
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(3));
    let outer_in = g.add_chan(Channel::new(3));
    let inner_entry = g.add_chan(Channel::new(4));
    let inner_in = g.add_chan(Channel::new(4));
    let inner_out = g.add_chan(Channel::new(4));
    let inner_back = g.add_chan(Channel::new(4).without_canonicalization());
    let inner_exit_raw = g.add_chan(Channel::new(4));
    let inner_done = g.add_chan(Channel::new(4));
    let outer_out = g.add_chan(Channel::new(3));
    let outer_back = g.add_chan(Channel::new(3).without_canonicalization());
    let outer_exit_raw = g.add_chan(Channel::new(3));
    let d = g.add_chan(Channel::new(3));

    feed(
        &mut g,
        a,
        vec![tdata([1u32, 3, 0]), tdata([2u32, 2, 0]), tbar(1)],
    );
    g.add_node(
        "outer-head",
        FbMergeNode::new(),
        vec![a, outer_back],
        vec![outer_in],
    );
    // Outer body prefix: i = o (inner trip count).
    g.add_node(
        "set-i",
        EwNode::new(
            3,
            vec![EwInstr::Mov {
                src: Operand::Reg(1),
                dst: 3,
            }],
            vec![OutputSpec::plain([0, 1, 2, 3])],
        ),
        vec![outer_in],
        vec![inner_entry],
    );
    g.add_node(
        "inner-head",
        FbMergeNode::new(),
        vec![inner_entry, inner_back],
        vec![inner_in],
    );
    // Inner body: acc += 1; i -= 1.
    g.add_node(
        "inner-body",
        EwNode::new(
            4,
            vec![
                EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(2),
                    b: Operand::imm(1u32),
                    dst: 2,
                },
                EwInstr::Alu {
                    op: AluOp::Sub,
                    a: Operand::Reg(3),
                    b: Operand::imm(1u32),
                    dst: 3,
                },
            ],
            vec![OutputSpec::plain([0, 1, 2, 3])],
        ),
        vec![inner_in],
        vec![inner_out],
    );
    g.add_node(
        "inner-backfilter",
        EwNode::new(
            4,
            vec![EwInstr::Alu {
                op: AluOp::GtS,
                a: Operand::Reg(3),
                b: Operand::imm(0u32),
                dst: 4,
            }],
            vec![
                OutputSpec::filtered([0, 1, 2, 3], 4, true),
                OutputSpec::filtered([0, 1, 2, 3], 4, false),
            ],
        ),
        vec![inner_out],
        vec![inner_back, inner_exit_raw],
    );
    g.add_node(
        "inner-strip",
        FlattenNode::new(),
        vec![inner_exit_raw],
        vec![inner_done],
    );
    // Outer body suffix: o -= 1; drop the i slot.
    g.add_node(
        "dec-o",
        EwNode::new(
            4,
            vec![EwInstr::Alu {
                op: AluOp::Sub,
                a: Operand::Reg(1),
                b: Operand::imm(1u32),
                dst: 1,
            }],
            vec![OutputSpec::plain([0, 1, 2])],
        ),
        vec![inner_done],
        vec![outer_out],
    );
    g.add_node(
        "outer-backfilter",
        EwNode::new(
            3,
            vec![EwInstr::Alu {
                op: AluOp::GtS,
                a: Operand::Reg(1),
                b: Operand::imm(0u32),
                dst: 3,
            }],
            vec![
                OutputSpec::filtered([0, 1, 2], 3, true),
                OutputSpec::filtered([0, 1, 2], 3, false),
            ],
        ),
        vec![outer_out],
        vec![outer_back, outer_exit_raw],
    );
    g.add_node(
        "outer-strip",
        FlattenNode::new(),
        vec![outer_exit_raw],
        vec![d],
    );
    g.run(RunOptions::new(100_000)).unwrap();

    // Reference: for o0: acc = sum over o in o0..=1 of o = o0(o0+1)/2.
    let toks = output(&g, d);
    let mut results: Vec<(u32, u32)> = toks
        .iter()
        .filter_map(|t| t.data().map(|v| (v[0].as_u32(), v[2].as_u32())))
        .collect();
    results.sort_unstable();
    assert_eq!(results, vec![(1, 6), (2, 3)], "triangular iteration counts");
    assert_eq!(toks.last(), Some(&tbar(1)));
}

/// A foreach nested inside a while body (paper: "an if statement can contain
/// a parallel-patterns foreach loop on one of its branches" — here we nest
/// counter/reduce directly inside a recirculating region).
#[test]
fn foreach_inside_while_body() {
    // Each loop iteration computes acc += sum(0..3) and decrements o.
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(2)); // [o, acc]
    let body_in = g.add_chan(Channel::new(2));
    let child = g.add_chan(Channel::new(1));
    let parent = g.add_chan(Channel::new(2));
    let partial = g.add_chan(Channel::new(1));
    let rejoin = g.add_chan(Channel::new(3));
    let body_out = g.add_chan(Channel::new(2));
    let back = g.add_chan(Channel::new(2).without_canonicalization());
    let exit_raw = g.add_chan(Channel::new(2));
    let d = g.add_chan(Channel::new(2));

    feed(&mut g, a, vec![tdata([2u32, 0]), tbar(1)]);
    g.add_node("head", FbMergeNode::new(), vec![a, back], vec![body_in]);
    // foreach(3): counter + sum-reduce, with the thread state bypassing on
    // the parent port (barriers kept for the rejoin zip).
    g.add_node(
        "counter",
        CounterNode::new(Operand::imm(0u32), Operand::imm(3u32), Operand::imm(1u32)),
        vec![body_in],
        vec![child, parent],
    );
    g.add_node(
        "reduce",
        ReduceNode::new(AluOp::Add, 0u32),
        vec![child],
        vec![partial],
    );
    // Rejoin: zip the reduced value with the bypassed thread state.
    g.add_node(
        "rejoin",
        EwNode::passthrough(3),
        vec![partial, parent],
        vec![rejoin],
    );
    // acc += partial; o -= 1. Tuple layout after zip: [partial, o, acc].
    g.add_node(
        "update",
        EwNode::new(
            3,
            vec![
                EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(2),
                    b: Operand::Reg(0),
                    dst: 2,
                },
                EwInstr::Alu {
                    op: AluOp::Sub,
                    a: Operand::Reg(1),
                    b: Operand::imm(1u32),
                    dst: 1,
                },
            ],
            vec![OutputSpec::plain([1, 2])],
        ),
        vec![rejoin],
        vec![body_out],
    );
    g.add_node(
        "backfilter",
        EwNode::new(
            2,
            vec![EwInstr::Alu {
                op: AluOp::GtS,
                a: Operand::Reg(0),
                b: Operand::imm(0u32),
                dst: 2,
            }],
            vec![
                OutputSpec::filtered([0, 1], 2, true),
                OutputSpec::filtered([0, 1], 2, false),
            ],
        ),
        vec![body_out],
        vec![back, exit_raw],
    );
    g.add_node("strip", FlattenNode::new(), vec![exit_raw], vec![d]);
    g.run(RunOptions::new(100_000)).unwrap();

    // Two outer iterations, each adding 0+1+2 = 3 → acc = 6.
    let toks = output(&g, d);
    assert_eq!(
        toks.iter()
            .filter_map(|t| t.data().map(|v| v[1].as_u32()))
            .collect::<Vec<_>>(),
        vec![6]
    );
}
