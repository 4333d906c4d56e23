//! Property tests for machine-level invariants: the SLTF composability
//! rules (§III-B) on randomly generated workloads.

use proptest::prelude::*;
use revet_machine::instr::{AluOp, EwInstr, Operand};
use revet_machine::nodes::{CounterNode, EwNode, FbMergeNode, FlattenNode, OutputSpec, ReduceNode};
use revet_machine::{tbar, tdata, ChanId, Channel, Graph, RunOptions, TTok};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// foreach(sum over 0..n) built as counter+reduce equals the closed form
    /// for arbitrary thread tensors, including empty ones.
    #[test]
    fn counter_reduce_matches_reference(counts in prop::collection::vec(0u32..20, 0..12)) {
        let mut g = Graph::new();
        let a = g.add_chan(Channel::new(1));
        let b = g.add_chan(Channel::new(1));
        let d = g.add_chan(Channel::new(1));
        let mut toks: Vec<TTok> = counts.iter().map(|&c| tdata([c])).collect();
        toks.push(tbar(1));
        feed(&mut g, a, toks);
        g.add_node(
            "counter",
            CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32)),
            vec![a],
            vec![b],
        );
        g.add_node("reduce", ReduceNode::new(AluOp::Add, 0u32), vec![b], vec![d]);
        g.run(RunOptions::new(1_000_000)).unwrap();

        let toks = output(&g, d);
        let got: Vec<u32> = toks.iter().filter_map(|t| t.data().map(|v| v[0].as_u32())).collect();
        // sum(0..c) = c*(c-1)/2
        let want: Vec<u32> = counts.iter().map(|&c| c * c.saturating_sub(1) / 2).collect();
        prop_assert_eq!(got, want);
        // Exactly one barrier, at the original level, at the end.
        prop_assert_eq!(toks.last(), Some(&tbar(1)));
        prop_assert_eq!(toks.iter().filter(|t| t.is_barrier()).count(), 1);
    }

    /// A while loop with arbitrary per-thread trip counts: every thread exits
    /// exactly once with its counter at zero, and one barrier exits per
    /// barrier entered — over multiple back-to-back tensors.
    #[test]
    fn while_loop_thread_conservation(
        tensors in prop::collection::vec(prop::collection::vec(0u32..9, 0..6), 1..4)
    ) {
        let mut g = Graph::new();
        let a = g.add_chan(Channel::new(2));
        let body_in = g.add_chan(Channel::new(2));
        let body_out = g.add_chan(Channel::new(2));
        let back = g.add_chan(Channel::new(2).without_canonicalization());
        let exit_raw = g.add_chan(Channel::new(2));
        let d = g.add_chan(Channel::new(2));
        let mut toks = Vec::new();
        let mut id = 0u32;
        let mut expect_ids = Vec::new();
        for tensor in &tensors {
            for &trips in tensor {
                toks.push(tdata([id, trips]));
                expect_ids.push(id);
                id += 1;
            }
            toks.push(tbar(1));
        }
        feed(&mut g, a, toks);
        g.add_node("head", FbMergeNode::new(), vec![a, back], vec![body_in]);
        // Body: remaining = max(remaining-1, 0) — trips==0 exits on first pass.
        g.add_node(
            "body",
            EwNode::new(
                2,
                vec![
                    EwInstr::Alu { op: AluOp::GtS, a: Operand::Reg(1), b: Operand::imm(0u32), dst: 2 },
                    EwInstr::Alu { op: AluOp::Sub, a: Operand::Reg(1), b: Operand::Reg(2), dst: 1 },
                ],
                vec![OutputSpec::plain([0, 1])],
            ),
            vec![body_in],
            vec![body_out],
        );
        g.add_node(
            "backfilter",
            EwNode::new(
                2,
                vec![EwInstr::Alu { op: AluOp::GtS, a: Operand::Reg(1), b: Operand::imm(0u32), dst: 2 }],
                vec![
                    OutputSpec::filtered([0, 1], 2, true),
                    OutputSpec::filtered([0, 1], 2, false),
                ],
            ),
            vec![body_out],
            vec![back, exit_raw],
        );
        g.add_node("strip", FlattenNode::new(), vec![exit_raw], vec![d]);
        g.run(RunOptions::new(1_000_000)).unwrap();

        let toks = output(&g, d);
        // Thread conservation within each tensor segment.
        let mut seg = Vec::new();
        let mut seg_idx = 0usize;
        for t in &toks {
            match t {
                revet_sltf::Tok::Data(v) => {
                    prop_assert_eq!(v[1].as_u32(), 0, "threads exit with counter at 0");
                    seg.push(v[0].as_u32());
                }
                revet_sltf::Tok::Barrier(l) => {
                    prop_assert_eq!(l.get(), 1, "exit barriers restored to entry level");
                    let mut want: Vec<u32> = {
                        let start: u32 = tensors[..seg_idx].iter().map(|t| t.len() as u32).sum();
                        (start..start + tensors[seg_idx].len() as u32).collect()
                    };
                    want.sort_unstable();
                    seg.sort_unstable();
                    prop_assert_eq!(std::mem::take(&mut seg), want, "tensor {} conserved", seg_idx);
                    seg_idx += 1;
                }
            }
        }
        prop_assert_eq!(seg_idx, tensors.len(), "one exit barrier per input tensor");
    }

    /// Flatten ∘ Counter is fork-like: element count multiplies, hierarchy
    /// unchanged.
    #[test]
    fn counter_then_flatten_preserves_level(counts in prop::collection::vec(0u32..10, 0..8)) {
        let mut g = Graph::new();
        let a = g.add_chan(Channel::new(1));
        let b = g.add_chan(Channel::new(1));
        let d = g.add_chan(Channel::new(1));
        let mut toks: Vec<TTok> = counts.iter().map(|&c| tdata([c])).collect();
        toks.push(tbar(1));
        feed(&mut g, a, toks);
        g.add_node(
            "counter",
            CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32)),
            vec![a],
            vec![b],
        );
        g.add_node("flatten", FlattenNode::new(), vec![b], vec![d]);
        g.run(RunOptions::new(1_000_000)).unwrap();
        let toks = output(&g, d);
        let total: u32 = counts.iter().sum();
        prop_assert_eq!(toks.iter().filter(|t| t.is_data()).count() as u32, total);
        prop_assert_eq!(toks.last(), Some(&tbar(1)));
    }
}
