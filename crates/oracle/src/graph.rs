//! `revet_machine::Graph`'s tests against the dense oracle, and helpers.

use revet_machine::{ChanId, ExecReport, Graph, MachineError, RunOptions, TTok};

/// One-shot run, report only.
pub(crate) fn one_shot(g: &mut Graph, max_rounds: u64) -> Result<ExecReport, MachineError> {
    g.run(RunOptions::new(max_rounds)).map(|(report, _)| report)
}

/// Pushes `toks` onto `c`, as a host feeds an input link.
pub(crate) fn feed(g: &mut Graph, c: ChanId, toks: impl IntoIterator<Item = TTok>) {
    for t in toks {
        g.chan_mut(c).push(t);
    }
}

/// What an output link holds, as the host reads it.
pub(crate) fn out(g: &Graph, c: ChanId) -> Vec<TTok> {
    g.chans()[c.0 as usize].tokens()
}

mod tests {
    use super::*;
    use crate::dense::run_dense;
    use revet_machine::instr::{AluOp, EwInstr, Operand};
    use revet_machine::nodes::{EwNode, OutputSpec};
    use revet_machine::{tbar, tdata, Channel, ResumeState, RunStatus};

    /// `x -> 2x`.
    fn double() -> EwNode {
        EwNode::new(
            1,
            vec![EwInstr::Alu {
                op: AluOp::Add,
                a: Operand::Reg(0),
                b: Operand::Reg(0),
                dst: 1,
            }],
            vec![OutputSpec::plain([1])],
        )
    }

    /// in → double → out, nothing queued; returns the input channel, which
    /// the tests feed chunks onto, and the output channel.
    fn streaming_pipeline() -> (Graph, ChanId, ChanId) {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node("double", double(), vec![c0], vec![c1]);
        (g, c0, c1)
    }

    /// One resumable run on `resume`.
    fn poll(g: &mut Graph, resume: &mut ResumeState) -> (ExecReport, RunStatus) {
        g.run(RunOptions {
            resume: Some(resume),
            ..RunOptions::new(1_000)
        })
        .unwrap()
    }

    #[test]
    fn ready_set_does_less_work_than_dense() {
        // A long pipeline: the dense sweep re-steps every node every round;
        // the ready set only steps woken nodes.
        let build = || {
            let mut g = Graph::new();
            let first = g.add_chan(Channel::new(1));
            let mut prev = first;
            for _ in 0..24 {
                let next = g.add_chan(Channel::new(1));
                g.add_node("stage", EwNode::passthrough(1), vec![prev], vec![next]);
                prev = next;
            }
            feed(
                &mut g,
                first,
                (0..16u32).map(|i| tdata([i])).chain([tbar(1)]),
            );
            (g, prev)
        };
        let (mut dense_g, exit) = build();
        let dense = run_dense(&mut dense_g, 10_000).unwrap();
        let (mut ready_g, _) = build();
        let ready = one_shot(&mut ready_g, 10_000).unwrap();
        assert_eq!(out(&dense_g, exit), out(&ready_g, exit));
        assert_eq!(out(&ready_g, exit).len(), 17);
        assert!(
            ready.steps < dense.steps,
            "ready {} !< dense {}",
            ready.steps,
            dense.steps
        );
        assert!(ready.productive_ratio() > dense.productive_ratio());
    }

    #[test]
    fn executors_record_the_peak_ready_watermark() {
        let build = || {
            let mut g = Graph::new();
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            let c2 = g.add_chan(Channel::new(1));
            let c3 = g.add_chan(Channel::new(1));
            // Two independent stages, so two wake units in the plan too.
            g.add_node("stage.a", EwNode::passthrough(1), vec![c0], vec![c1]);
            g.add_node("stage.b", EwNode::passthrough(1), vec![c2], vec![c3]);
            feed(&mut g, c0, [tdata([4u32]), tbar(1)]);
            feed(&mut g, c2, [tdata([5u32]), tbar(1)]);
            g
        };
        let ready = one_shot(&mut build(), 1_000).unwrap();
        // Round 0 seeds every node, so the watermark starts at node count.
        assert_eq!(ready.peak_ready, 2);
        let dense = run_dense(&mut build(), 1_000).unwrap();
        assert_eq!(dense.peak_ready, 2);
    }

    #[test]
    fn resumable_planned_chunked_feed_matches_one_shot() {
        // The oracle: all input up front, one dense run.
        let (mut one, entry, exit) = streaming_pipeline();
        feed(
            &mut one,
            entry,
            [tdata([3u32]), tbar(1), tdata([5u32]), tbar(1)],
        );
        run_dense(&mut one, 1_000).unwrap();

        // Chunked: feed one argset, run, feed the next, run again.
        let (mut g, entry, _) = streaming_pipeline();
        let mut resume = ResumeState::new();
        let (_, s) = poll(&mut g, &mut resume);
        assert_eq!(s, RunStatus::Finished, "empty stream drains cleanly");
        assert!(resume.started());
        feed(&mut g, entry, [tdata([3u32]), tbar(1)]);
        let (r1, s) = poll(&mut g, &mut resume);
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(out(&g, exit), vec![tdata([6u32]), tbar(1)]);
        feed(&mut g, entry, [tdata([5u32]), tbar(1)]);
        let (r2, s) = poll(&mut g, &mut resume);
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(out(&g, exit), out(&one, exit), "chunked ≡ one-shot dense");
        assert!(r1.steps > 0 && r2.steps > 0);
    }
}
