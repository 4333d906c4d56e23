//! `revet_machine::ExecPlan`'s unit tests, most against the dense oracle.

mod tests {
    use crate::dense::run_dense;
    use crate::graph::{feed, one_shot, out};
    use revet_machine::instr::{AluOp, EwInstr, Operand};
    use revet_machine::nodes::{EwNode, FbMergeNode, FlattenNode, OutputSpec};
    use revet_machine::{
        tbar, tdata, ChanId, Channel, Graph, PlanStats, Prim, ResumeState, RunOptions, RunStatus,
        SramId, TTok,
    };
    use std::sync::Arc;

    // The reference run in most tests here is the dense oracle; names that
    // say `interpreted` are kept so the suite's test ids stay stable.

    fn add_one() -> EwNode {
        EwNode::new(
            1,
            vec![EwInstr::Alu {
                op: AluOp::Add,
                a: Operand::Reg(0),
                b: Operand::imm(1u32),
                dst: 1,
            }],
            vec![OutputSpec::plain([1])],
        )
    }

    /// in → ew ×3 → out, input queued; returns the output link.
    fn chain() -> (Graph, ChanId) {
        let mut g = Graph::new();
        let first = g.add_chan(Channel::new(1));
        let mut prev = first;
        for _ in 0..3 {
            let next = g.add_chan(Channel::new(1));
            g.add_node("stage", add_one(), vec![prev], vec![next]);
            prev = next;
        }
        feed(
            &mut g,
            first,
            (0..8u32).map(|i| tdata([i])).chain([tbar(1)]),
        );
        (g, prev)
    }

    #[test]
    fn fused_pipeline_matches_interpreted() {
        let (mut gd, exit) = chain();
        let rd = run_dense(&mut gd, 10_000).unwrap();
        let (mut gp, _) = chain();
        let stats = gp.plan().stats();
        assert_eq!(stats.fused_ew, 3, "all three stages fuse");
        assert_eq!(stats.segments, 1, "one straight-line segment");
        assert_eq!(stats.longest_segment, 3);
        assert_eq!(stats.fused_runs, 1, "register-only stages: one run");
        assert_eq!(stats.nodes, 3);
        let rp = one_shot(&mut gp, 10_000).unwrap();
        assert_eq!(out(&gd, exit), out(&gp, exit));
        assert!(rp.productive_steps > 0);
        assert!(
            rp.steps < rd.steps,
            "planned dispatches ({}) should undercut the dense sweep ({})",
            rp.steps,
            rd.steps
        );
    }

    #[test]
    fn filtered_and_stripped_outputs_fuse() {
        // A two-output stage (filter partition, one side stripping
        // barriers) fuses as a singleton segment.
        let build = || {
            let mut g = Graph::new();
            let c0 = g.add_chan(Channel::new(1));
            let lo = g.add_chan(Channel::new(1));
            let hi = g.add_chan(Channel::new(1));
            feed(&mut g, c0, (0..10u32).map(|i| tdata([i])).chain([tbar(1)]));
            let split = EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::LtU,
                    a: Operand::Reg(0),
                    b: Operand::imm(5u32),
                    dst: 1,
                }],
                vec![
                    OutputSpec::filtered([0], 1, true),
                    OutputSpec {
                        slots: [0].into(),
                        pred: Some((1, false)),
                        strip_barriers: true,
                    },
                ],
            );
            g.add_node("split", split, vec![c0], vec![lo, hi]);
            (g, lo, hi)
        };
        let (mut gd, lo, hi) = build();
        run_dense(&mut gd, 10_000).unwrap();
        let (mut gp, _, _) = build();
        let stats = gp.plan().stats();
        assert_eq!(stats.fused_ew, 1);
        assert_eq!(stats.nodes, 1, "the split alone");
        one_shot(&mut gp, 10_000).unwrap();
        assert_eq!(out(&gd, lo), out(&gp, lo));
        assert_eq!(out(&gd, hi), out(&gp, hi));
        assert_eq!(out(&gp, lo).len(), 6, "five below, then the barrier");
        assert!(
            !out(&gp, hi).iter().any(|t| t.is_barrier()),
            "stripped side"
        );
    }

    #[test]
    fn zip_head_waits_for_lockstep() {
        let build = || {
            let mut g = Graph::new();
            let a = g.add_chan(Channel::new(1));
            let b = g.add_chan(Channel::new(1));
            let zipped = g.add_chan(Channel::new(2));
            feed(&mut g, a, [tdata([1u32]), tdata([2u32]), tbar(1)]);
            feed(&mut g, b, [tdata([10u32]), tdata([20u32]), tbar(1)]);
            g.add_node("zip", EwNode::passthrough(2), vec![a, b], vec![zipped]);
            (g, zipped)
        };
        let (mut gd, zipped) = build();
        run_dense(&mut gd, 10_000).unwrap();
        let (mut gp, _) = build();
        assert_eq!(gp.plan().stats().fused_ew, 1, "a zip head fuses too");
        one_shot(&mut gp, 10_000).unwrap();
        assert_eq!(out(&gd, zipped), out(&gp, zipped));
        assert_eq!(
            out(&gp, zipped),
            vec![tdata([1u32, 10u32]), tdata([2u32, 20u32]), tbar(1)]
        );
    }

    /// `toks` queued on `entry` → `stages` (each onto its own output
    /// link); returns the last link. `srams` regions are added to memory.
    fn linear(
        entry: Channel,
        toks: Vec<TTok>,
        stages: Vec<(EwNode, Channel)>,
        srams: usize,
    ) -> (Graph, ChanId) {
        let mut g = Graph::new();
        for r in 0..srams {
            g.mem.add_sram(format!("r{r}"), 4);
        }
        let mut prev = g.add_chan(entry);
        feed(&mut g, prev, toks);
        for (stage, link) in stages {
            let next = g.add_chan(link);
            g.add_node("stage", stage, vec![prev], vec![next]);
            prev = next;
        }
        (g, prev)
    }

    /// Runs `build()` under the dense oracle and through the plan; asserts
    /// equal output streams and memory, and returns the plan's stats and
    /// the output stream.
    fn plan_vs_dense(build: &dyn Fn() -> (Graph, ChanId)) -> (PlanStats, Vec<TTok>) {
        let (mut gd, exit) = build();
        run_dense(&mut gd, 10_000).unwrap();
        let (mut gp, _) = build();
        let stats = gp.plan().stats();
        one_shot(&mut gp, 10_000).unwrap();
        assert_eq!(out(&gd, exit), out(&gp, exit), "output vs dense: {stats:?}");
        assert_eq!(gd.mem, gp.mem, "memory vs dense: {stats:?}");
        (stats, out(&gp, exit))
    }

    #[test]
    fn held_barrier_is_absorbed_before_a_filter_sees_it() {
        // `d Ω1 Ω2` reaches a fused edge intact (the entry link keeps
        // explicit runs); the edge's channel would absorb Ω1 into Ω2
        // before the filter, which drops `d`, could see it. Delivering
        // each barrier as it arrives would leave `Ω1 Ω2`.
        let build = || {
            let drop_all = EwNode::new(1, Vec::new(), vec![OutputSpec::filtered([0], 0, false)]);
            linear(
                Channel::new(1).without_canonicalization(),
                vec![tdata([1u32]), tbar(1), tbar(2)],
                vec![
                    (EwNode::passthrough(1), Channel::new(1)),
                    (drop_all, Channel::new(1)),
                ],
                0,
            )
        };
        let (stats, out) = plan_vs_dense(&build);
        assert_eq!((stats.fused_ew, stats.fused_runs), (2, 1), "one run");
        assert_eq!(out, vec![tbar(2)]);
    }

    #[test]
    fn a_later_barrier_displaces_a_held_one() {
        // Without data before it a held barrier is not absorbed; it goes on
        // when the next one arrives, in order, and a non-canonicalizing
        // fused edge never absorbs at all.
        for canon in [true, false] {
            let build = || {
                let mid = Channel::new(1);
                let mid = if canon {
                    mid
                } else {
                    mid.without_canonicalization()
                };
                linear(
                    Channel::new(1).without_canonicalization(),
                    vec![tdata([1u32]), tbar(1), tbar(2), tbar(1), tbar(3)],
                    vec![
                        (EwNode::passthrough(1), mid),
                        (
                            EwNode::passthrough(1),
                            Channel::new(1).without_canonicalization(),
                        ),
                    ],
                    0,
                )
            };
            let (stats, out) = plan_vs_dense(&build);
            assert_eq!(stats.fused_runs, 1);
            let want: Vec<u8> = if canon {
                vec![2, 1, 3]
            } else {
                vec![1, 2, 1, 3]
            };
            let want: Vec<TTok> = [tdata([1u32])]
                .into_iter()
                .chain(want.into_iter().map(tbar))
                .collect();
            assert_eq!(out, want, "canon={canon}");
        }
    }

    /// `SramWrite r0 → Mov → SramRead r{read}`: every value is written to
    /// word 0 of r0, then read back from word 0 of `r{read}`.
    fn write_mov_read(read: u32) -> (Graph, ChanId) {
        let write = EwNode::new(
            1,
            vec![EwInstr::SramWrite {
                region: SramId(0),
                addr: Operand::imm(0u32),
                val: Operand::Reg(0),
                pred: None,
            }],
            vec![OutputSpec::plain([0])],
        );
        let mov = EwNode::new(
            1,
            vec![EwInstr::Mov {
                src: Operand::Reg(0),
                dst: 1,
            }],
            vec![OutputSpec::plain([1])],
        );
        let read = EwNode::new(
            1,
            vec![EwInstr::SramRead {
                region: SramId(read),
                addr: Operand::imm(0u32),
                dst: 1,
                pred: None,
            }],
            vec![OutputSpec::plain([1])],
        );
        let toks = (1..=3u32).map(|v| tdata([v])).chain([tbar(1)]).collect();
        let stages = [write, mov, read].map(|ew| (ew, Channel::new(1)));
        linear(Channel::new(1), toks, stages.into(), 2)
    }

    #[test]
    fn conflicting_memory_stages_split_the_run() {
        // The read sees every write of its batch, as it would behind a
        // real channel: the write and the read are separate runs.
        let (stats, out) = plan_vs_dense(&|| write_mov_read(0));
        assert_eq!((stats.segments, stats.fused_ew), (1, 3));
        assert_eq!(stats.fused_runs, 2, "write + mov | read");
        let three = tdata([3u32]);
        assert_eq!(out, vec![three.clone(), three.clone(), three, tbar(1)]);
        // On two regions the accesses commute: one run.
        let (stats, out) = plan_vs_dense(&|| write_mov_read(1));
        assert_eq!(stats.fused_runs, 1);
        let zero = tdata([0u32]);
        assert_eq!(out, vec![zero.clone(), zero.clone(), zero, tbar(1)]);
    }

    #[test]
    fn a_stage_feeding_its_head_gets_a_run_of_its_own() {
        // Two stages in a ring with one token circulating: stepped one by
        // one, the token goes one lap per round until the round cap. In
        // one run the head would take it back within the same firing,
        // forever.
        let build = || {
            let mut g = Graph::new();
            let (a, b) = (g.add_chan(Channel::new(1)), g.add_chan(Channel::new(1)));
            g.add_node("one", add_one(), vec![b], vec![a]);
            g.add_node("two", add_one(), vec![a], vec![b]);
            g.chan_mut(b).push(tdata([0u32]));
            g
        };
        let mut gp = build();
        let stats = gp.plan().stats();
        assert_eq!((stats.segments, stats.fused_runs), (1, 2));
        let ep = one_shot(&mut gp, 50).unwrap_err();
        assert_eq!(run_dense(&mut build(), 50).unwrap_err(), ep);
        assert!(ep.message.contains("no quiescence"), "got: {ep}");
    }

    #[test]
    fn tokens_queued_on_a_fused_edge_go_first() {
        // A fused edge is assumed empty when its run fires; a token queued
        // on one by hand makes the drain fire stage by stage instead, so
        // it still leaves first.
        let build = || {
            let (mut g, exit) = chain();
            g.chan_mut(ChanId(1)).push(tdata([100u32]));
            (g, exit)
        };
        let (stats, out) = plan_vs_dense(&build);
        assert_eq!(stats.fused_runs, 1);
        assert_eq!(out[0], tdata([102u32]), "the queued token leaves first");
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn alloc_stalling_stage_stays_boxed_and_matches() {
        let build = || {
            let mut g = Graph::new();
            let a = g.mem.add_alloc("bufs", 2);
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            feed(&mut g, c0, [tdata([7u32]), tdata([8u32]), tbar(1)]);
            let alloc_stage = EwNode::new(
                1,
                vec![EwInstr::AllocPop { alloc: a, dst: 1 }],
                vec![OutputSpec::plain([1])],
            );
            g.add_node("alloc", alloc_stage, vec![c0], vec![c1]);
            (g, c1)
        };
        let (mut gd, exit) = build();
        run_dense(&mut gd, 10_000).unwrap();
        let (mut gp, _) = build();
        assert_eq!(
            gp.plan().stats().fused_ew,
            0,
            "AllocPop stages must not chain (they need the allocator wake)"
        );
        one_shot(&mut gp, 10_000).unwrap();
        assert_eq!(out(&gd, exit), out(&gp, exit));
        assert_eq!(out(&gp, exit).len(), 3);
        assert_eq!(gd.mem.dram, gp.mem.dram);
    }

    /// `a` and `b` queued on `head`'s ports 0 and 1, then `tail`
    /// pass-through stages. `b: None` leaves port 1 unfed.
    fn two_input(head: Prim, a: Vec<TTok>, b: Option<Vec<TTok>>, tail: usize) -> Graph {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        feed(&mut g, c0, a);
        feed(&mut g, c1, b.into_iter().flatten());
        let width = match &head {
            Prim::Ew(ew) => ew.outputs[0].slots.len(),
            _ => 1,
        };
        let mut prev = g.add_chan(Channel::new(width));
        g.add_node("head", head, vec![c0, c1], vec![prev]);
        for _ in 0..tail {
            let next = g.add_chan(Channel::new(width));
            let stage = EwNode::passthrough(width as u16);
            g.add_node("tail", stage, vec![prev], vec![next]);
            prev = next;
        }
        g
    }

    /// The whole `MachineError` — label and message — is the same whichever
    /// way the failing node fired: planned (chained or through its
    /// `Prim`) or under the dense oracle's budgeted ports.
    #[test]
    fn planned_deadlock_matches_interpreted_diagnosis() {
        let check = |build: &dyn Fn() -> Graph, longest: usize, label: Option<&str>, msg: &str| {
            let ed = run_dense(&mut build(), 100).unwrap_err();
            let mut gp = build();
            assert_eq!(gp.plan().stats().longest_segment, longest, "{msg}");
            let ep = one_shot(&mut gp, 100).unwrap_err();
            assert_eq!(ed, ep, "{msg}: planned vs dense");
            assert_eq!(ep.node.as_deref(), label, "{msg}");
            assert!(ep.message.contains(msg), "got: {ep}");
        };
        let zip = || Prim::from(EwNode::passthrough(2));
        let fb = || Prim::from(FbMergeNode::new());
        let (data, bar) = (|| vec![tdata([1u32])], || vec![tbar(1)]);
        // A starved zip: the deadlock diagnosis carries no node.
        check(&|| two_input(zip(), data(), None, 0), 1, None, "deadlock");
        // Data front against a barrier front, on a singleton segment…
        let mismatch = "structure mismatch: input 0 has data";
        check(
            &|| two_input(zip(), data(), Some(bar()), 0),
            1,
            Some("head"),
            mismatch,
        );
        // …and on the head of a three-stage chain.
        let mismatch = "structure mismatch: input 1 has data";
        check(
            &|| two_input(zip(), bar(), Some(data()), 2),
            3,
            Some("head"),
            mismatch,
        );
        // A rule fired through its `Prim`.
        let omega = "unexpected Ω1 on backedge";
        check(
            &|| two_input(fb(), vec![], Some(bar()), 0),
            0,
            Some("head"),
            omega,
        );
    }

    #[test]
    fn planned_round_cap_reported() {
        let (mut g, _) = chain();
        let err = one_shot(&mut g, 0).unwrap_err();
        assert!(err.message.contains("no quiescence"), "got: {err}");
    }

    #[test]
    fn plan_reusable_across_fresh_instances() {
        let (mut template, exit) = chain();
        let plan = Arc::clone(template.plan());
        for _ in 0..3 {
            let mut inst = template.fresh_instance();
            assert!(Arc::ptr_eq(&plan, inst.plan()), "shared, not rebuilt");
            one_shot(&mut inst, 10_000).unwrap();
            let toks = out(&inst, exit);
            assert_eq!(toks.len(), 9, "8 data + 1 barrier");
            assert_eq!(toks[0], tdata([3u32]), "0 + 1+1+1 through the segment");
        }
    }

    #[test]
    fn self_loop_segment_parity_with_interpreted() {
        // A zip whose second input is its own output (seeded with one
        // token): the chain rule must not mark the backedge as internal,
        // and the plan must agree with the dense oracle — including on the
        // final leftover-token deadlock diagnosis.
        let build = || {
            let mut g = Graph::new();
            let a = g.add_chan(Channel::new(1));
            let loopback = g.add_chan(Channel::new(1).without_canonicalization());
            let sums = g.add_chan(Channel::new(1));
            feed(&mut g, a, [tdata([1u32]), tdata([2u32]), tdata([3u32])]);
            // acc' = acc + x; emits acc' to both the loop and the output.
            let acc = EwNode::new(
                2,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(1),
                    dst: 2,
                }],
                vec![OutputSpec::plain([2]), OutputSpec::plain([2])],
            );
            g.add_node("acc", acc, vec![a, loopback], vec![loopback, sums]);
            g.chan_mut(loopback).push(tdata([0u32])); // seed
            (g, sums)
        };
        let (mut gd, sums) = build();
        let ed = run_dense(&mut gd, 10_000);
        let (mut gp, _) = build();
        let ep = one_shot(&mut gp, 10_000);
        // The seeded loop token survives the run on both paths: identical
        // diagnosis, identical output streams, identical leftovers.
        assert_eq!(ed.unwrap_err(), ep.unwrap_err());
        assert_eq!(out(&gd, sums), out(&gp, sums));
        assert_eq!(
            out(&gp, sums),
            vec![tdata([1u32]), tdata([3u32]), tdata([6u32])]
        );
        assert_eq!(
            gd.chan_mut(ChanId(1)).drain_all(),
            gp.chan_mut(ChanId(1)).drain_all()
        );
    }

    #[test]
    fn a_wake_ahead_of_the_sweep_joins_it() {
        // Three flattens, each a wake unit of its own, in ascending index
        // order along the stream. A resumed poll seeds only the first; the
        // others are woken as tokens reach them, each past the unit
        // firing, so the sweep fires them in the same round.
        let mut g = Graph::new();
        let entry = g.add_chan(Channel::new(1));
        let mut prev = entry;
        for _ in 0..3 {
            let next = g.add_chan(Channel::new(1));
            g.add_node("flatten", FlattenNode::new(), vec![prev], vec![next]);
            prev = next;
        }
        assert_eq!(g.plan().stats().fused_ew, 0, "no segment");
        let mut resume = ResumeState::new();
        let mut poll = |g: &mut Graph, toks: Vec<TTok>| {
            feed(g, entry, toks);
            let opts = RunOptions {
                resume: Some(&mut resume),
                ..RunOptions::new(1)
            };
            let (report, status) = g.run(opts).unwrap();
            assert_eq!(status, RunStatus::Finished);
            report
        };
        let first = poll(&mut g, vec![tdata([1u32]), tdata([2u32]), tbar(4)]);
        assert_eq!((first.rounds, first.steps), (1, 3), "seeded: every unit");
        let resumed = poll(&mut g, vec![tdata([3u32]), tbar(4)]);
        assert_eq!((resumed.rounds, resumed.steps), (1, 3), "woken in-sweep");
        assert_eq!(
            out(&g, prev),
            vec![
                tdata([1u32]),
                tdata([2u32]),
                tbar(1),
                tdata([3u32]),
                tbar(1)
            ]
        );
    }

    /// Figure 4's `while` loop: an Fb merge (node 0) feeding a body and a
    /// back filter (one segment, head node 1) whose back edge returns to
    /// the merge, and a flatten on the exit edge. Each thread is
    /// `[id, trips]`.
    fn while_loop(trips: &[u32]) -> (Graph, ChanId) {
        let mut g = Graph::new();
        let a = g.add_chan(Channel::new(2));
        let body_in = g.add_chan(Channel::new(2));
        let body_out = g.add_chan(Channel::new(2));
        let back = g.add_chan(Channel::new(2).without_canonicalization());
        let exit_raw = g.add_chan(Channel::new(2));
        let exit = g.add_chan(Channel::new(2));
        let threads = (0u32..).zip(trips).map(|(id, &n)| tdata([id, n]));
        feed(&mut g, a, threads.chain([tbar(1)]));
        g.add_node("head", FbMergeNode::new(), vec![a, back], vec![body_in]);
        let dec = EwInstr::Alu {
            op: AluOp::Sub,
            a: Operand::Reg(1),
            b: Operand::imm(1u32),
            dst: 1,
        };
        let body = EwNode::new(2, vec![dec], vec![OutputSpec::plain([0, 1])]);
        g.add_node("body", body, vec![body_in], vec![body_out]);
        let more = EwInstr::Alu {
            op: AluOp::GtS,
            a: Operand::Reg(1),
            b: Operand::imm(0u32),
            dst: 2,
        };
        let filter = EwNode::new(
            2,
            vec![more],
            vec![
                OutputSpec::filtered([0, 1], 2, true),
                OutputSpec::filtered([0, 1], 2, false),
            ],
        );
        g.add_node("back", filter, vec![body_out], vec![back, exit_raw]);
        g.add_node("exit", FlattenNode::new(), vec![exit_raw], vec![exit]);
        (g, exit)
    }

    #[test]
    fn a_back_edge_wakes_the_next_sweep_and_the_loop_terminates() {
        // The back edge wakes the merge, a lower index than the segment
        // firing, so each trip round the loop waits for the next sweep:
        // one sweep per trip of the longest thread, and at most two more
        // to close the wave.
        for trips in [&[1, 2][..], &[3, 1, 2, 5]] {
            let build = || while_loop(trips);
            let (mut gd, exit) = build();
            run_dense(&mut gd, 10_000).unwrap();
            let (mut gp, _) = build();
            assert_eq!(gp.plan().stats().segments, 1, "body + back filter");
            let report = one_shot(&mut gp, 10_000).unwrap();
            assert_eq!(out(&gd, exit), out(&gp, exit), "{trips:?}");
            let most = u64::from(*trips.iter().max().unwrap());
            assert!(
                (most + 1..=most + 2).contains(&report.rounds),
                "{trips:?}: {report:?}"
            );
        }
    }

    #[test]
    fn a_one_round_cap_stops_a_program_that_needs_two() {
        // Two flattens in descending index order along the stream: the
        // second one's wake lies behind the sweep, so it fires a round
        // later.
        let build = || {
            let mut g = Graph::new();
            let (entry, mid, exit) = (
                g.add_chan(Channel::new(1)),
                g.add_chan(Channel::new(1)),
                g.add_chan(Channel::new(1)),
            );
            g.add_node("late", FlattenNode::new(), vec![mid], vec![exit]);
            g.add_node("early", FlattenNode::new(), vec![entry], vec![mid]);
            feed(&mut g, entry, [tdata([7u32]), tbar(3)]);
            (g, exit)
        };
        let (mut g, exit) = build();
        assert_eq!(one_shot(&mut g, 2).unwrap().rounds, 2);
        assert_eq!(out(&g, exit), vec![tdata([7u32]), tbar(1)]);
        let err = one_shot(&mut build().0, 1).unwrap_err();
        assert!(
            err.message.contains("no quiescence after 1 rounds"),
            "got: {err}"
        );
    }
}
