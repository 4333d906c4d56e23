//! Scheduler-equivalence property tests: every way of calling
//! [`Graph::run`] — the full [`RunOptions`] matrix, `{one-shot, resumed in
//! K chunks} × {no-op obs, enabled obs}` — and the dense-sweep oracle
//! ([`run_dense`]) must produce identical output token streams and identical
//! [`MemoryState`] on randomly generated acyclic graphs. Kahn determinism
//! means results are independent of the order in which ready nodes are
//! drained, the plan's fused segments must be observationally invisible,
//! and an enabled sink must not perturb any of it.
//!
//! The generator grows a DAG from one input link by construction moves. Every
//! open channel belongs to a *structure class*: two channels of one class
//! carry the same tensor structure and may be zipped.
//!
//! - **map**: an element-wise node transforming the value (`x op imm`),
//! - **dup**: an element-wise node duplicating a stream onto two channels,
//! - **zip**: an element-wise node combining two open channels of one
//!   class into one,
//! - **filter**: a predicated single output that drops some threads, so
//!   its channel starts a class of its own (zipped only with its copies),
//! - **strip**: a `strip_barriers` single output, a barrier-free class,
//! - **sram pair**: a stage writing each value into a small SRAM region
//!   followed by a stage of the same chain reading that region back, so
//!   a reader sees every write its batch made before it.
//!
//! The first link a move creates canonicalizes barriers or, one time in
//! two, does not (a dup's second link and an SRAM pair's last one always
//! do). Links are unbounded: buffer depth belongs to the timed simulator,
//! whose back-pressure `sim_golden` pins.
//!
//! A case is *shallow* or *deep*. A shallow input stream closes its
//! groups with Ω1 only: after every value that is 0 mod 7 or, in a
//! *sparse* case, 0 mod 97, so that a group of up to 160 values can run
//! past the 64 threads one lane-batched commit of the plan takes. A deep
//! stream also carries Ω2 and Ω3 runs
//! (`x Ω1 Ω2`, a bare `x Ω2`), its entry link may keep them explicit, and
//! only deep cases draw sram pairs. The split exists because barrier
//! absorption (an Ωm at a channel's tail taken over by a later Ωn, n > m,
//! when data preceded it) and a reader's view of its batch's writes both
//! depend on which tokens are queued together. The plan and the dense
//! sweep batch each node's input alike, one-shot and chunk by chunk, but
//! a chunk boundary is a batch boundary. So a deep case is judged
//! one-shot against the dense sweep and, when chunked, against the dense
//! sweep fed the same chunks.
//!
//! A subset of nodes additionally writes its values into a node-private
//! DRAM window, so memory equality is exercised too (windows are disjoint:
//! cross-node write ordering is schedule-dependent, but each node's own
//! stream — and therefore its own write sequence — is deterministic).
//!
//! The executors are compared with each other, so a structural error they
//! all share would pass. The oracle's output streams are therefore also
//! decoded through the SLTF reference (`revet_oracle::ragged::Decoder`) at the case's
//! depth, 1 when shallow and 3 when deep: every class that carries barriers
//! must decode without error and with nothing left pending, and an output
//! of the input's own class must hold tensors of the input's shape.
//!
//! A generated graph's outputs are the channels left open when the moves
//! run out: no node reads them, so every run leaves its tokens there.

use proptest::prelude::*;
use revet_machine::instr::{AluOp, EwInstr, Operand};
use revet_machine::nodes::{EwNode, OutputSpec};
use revet_machine::{
    tbar, tdata, ChanId, Channel, ExecReport, Graph, MemoryState, ResumeState, RunOptions,
    RunStatus, SramId, TTok,
};
use revet_obs::ObsSink;
use revet_oracle::dense::run_dense;
use revet_oracle::ragged::{Decoder, Ragged};
use revet_sltf::{Tok, Word};

/// One construction move, decoded from a raw u32.
#[derive(Clone, Copy, Debug)]
enum Move {
    Map { sel: u32, op: u32 },
    Dup { sel: u32 },
    Zip { sel_a: u32, sel_b: u32 },
    Filter { sel: u32, op: u32 },
    Strip { sel: u32 },
    SramPair { sel: u32 },
}

/// A move, and whether the links it creates canonicalize barriers.
fn decode(raw: u32) -> (Move, bool) {
    let mut rest = raw;
    let mut digit = |base: u32| {
        let d = rest % base;
        rest /= base;
        d
    };
    let kind = digit(10);
    let (a, b) = (digit(1009), digit(1013));
    let canon = digit(2) != 0;
    let mv = match kind {
        0 | 1 => Move::Map { sel: a, op: b },
        2 | 3 => Move::Dup { sel: a },
        4 | 5 => Move::Zip { sel_a: a, sel_b: b },
        6 | 7 => Move::Filter { sel: a, op: b },
        8 => Move::Strip { sel: a },
        _ => Move::SramPair { sel: a },
    };
    (mv, canon)
}

/// What a case may contain (see the module docs).
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Ω2/Ω3 runs in the source stream and sram pairs.
    deep: bool,
    /// Whether the entry link canonicalizes (a deep stream's runs survive
    /// it only when it does not).
    entry_canon: bool,
}

/// What a structure class's streams decode to (module docs).
#[derive(Clone, Copy, PartialEq, Debug)]
enum Structure {
    /// The source's class: tensors of the source's shape.
    Source,
    /// A filtered class: tensors at the case's depth, some threads gone.
    Filtered,
    /// A stripped class, or one filtered from it: no barriers.
    Stripped,
}

/// Bytes reserved per writer node (16 word slots).
const WINDOW: usize = 64;

/// Words per sram-pair region: a value's two low bits address it, so
/// threads share slots and a reader sees other threads' writes.
const SRAM_WORDS: usize = 4;

/// The source stream for a value list: data tokens with ragged mid-stream
/// barrier runs, closed by the stream's top-level run — Ω1 when shallow,
/// after each value that is 0 mod 7 (0 mod 97 when `sparse`); when deep,
/// mid-stream runs of `Ω1`, `Ω1 Ω2`, `Ω1 Ω2 Ω3` or a bare `Ω2`, closed by
/// `Ω1 Ω2 Ω3`.
fn source_tokens(values: &[u32], deep: bool, sparse: bool) -> Vec<TTok> {
    let group = if sparse { 97 } else { 7 };
    let mut toks: Vec<TTok> = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        toks.push(tdata([v]));
        // Ragged tensors: barrier runs mid-stream.
        if deep && v % 3 == 0 {
            toks.extend((1..=1 + (v / 3 % 3) as u8).map(tbar));
        } else if deep && v % 5 == 0 {
            toks.push(tbar(2));
        } else if !deep && v % group == 0 {
            toks.push(tbar(1));
        }
        if i + 1 == values.len() {
            toks.extend((1..=if deep { 3 } else { 1 }).map(tbar));
        }
    }
    toks
}

/// Builds the graph described by (`toks`, `moves`, `shape`); every move
/// whose index is divisible by 3 also writes its stream into a private
/// DRAM window. `toks` are queued on the input channel. Returns the input
/// channel (streaming tests feed it incrementally), the output channels
/// (every channel left open) and each output's structure.
fn build(
    toks: Vec<TTok>,
    moves: &[u32],
    shape: Shape,
) -> (Graph, ChanId, Vec<ChanId>, Vec<Structure>) {
    let mut g = Graph::new();
    let mut writer_count = 0u32;
    let mut sram_count = 0u32;
    let link = |g: &mut Graph, canon: bool| {
        let c = Channel::new(1);
        g.add_chan(if canon {
            c
        } else {
            c.without_canonicalization()
        })
    };
    let first = link(&mut g, shape.entry_canon);
    for tok in toks {
        g.chan_mut(first).push(tok);
    }
    // Open channels with their structure class, an index into `classes`.
    let mut open = vec![(first, 0usize)];
    let mut classes = vec![Structure::Source];

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
    // reg1 = reg0 & mask.
    let low_bits = |mask: u32| EwInstr::Alu {
        op: AluOp::And,
        a: Operand::Reg(0),
        b: Operand::imm(mask),
        dst: 1,
    };

    for (node_idx, &raw) in moves.iter().enumerate() {
        let (mv, canon) = decode(raw);
        match mv {
            Move::Map { sel, op } => {
                let (src, class) = open.remove(sel as usize % open.len());
                let dst = link(&mut g, canon);
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
                    "map",
                    EwNode::new(1, instrs, vec![OutputSpec::plain([0])]),
                    vec![src],
                    vec![dst],
                );
                open.push((dst, class));
            }
            Move::Dup { sel } => {
                let (src, class) = open.remove(sel as usize % open.len());
                let d0 = link(&mut g, canon);
                let d1 = link(&mut g, true);
                let mut instrs = Vec::new();
                tap(&mut instrs, node_idx);
                g.add_node(
                    "dup",
                    EwNode::new(
                        1,
                        instrs,
                        vec![OutputSpec::plain([0]), OutputSpec::plain([0])],
                    ),
                    vec![src],
                    vec![d0, d1],
                );
                open.push((d0, class));
                open.push((d1, class));
            }
            Move::Zip { sel_a, sel_b } => {
                let i = sel_a as usize % open.len();
                let class = open[i].1;
                let peers: Vec<usize> = (0..open.len())
                    .filter(|&j| j != i && open[j].1 == class)
                    .collect();
                if peers.is_empty() {
                    continue;
                }
                let j = peers[sel_b as usize % peers.len()];
                let (a, b) = (open[i].0, open[j].0);
                open.retain(|&(c, _)| c != a && c != b);
                let dst = link(&mut g, canon);
                let mut instrs = vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(1),
                    dst: 0,
                }];
                tap(&mut instrs, node_idx);
                g.add_node(
                    "zip",
                    EwNode::new(2, instrs, vec![OutputSpec::plain([0])]),
                    vec![a, b],
                    vec![dst],
                );
                open.push((dst, class));
            }
            Move::Filter { sel, op } => {
                let (src, class) = open.remove(sel as usize % open.len());
                let dst = link(&mut g, canon);
                // Keeps the threads whose low bits under the mask are zero.
                let mut instrs = vec![low_bits(1 + op % 3)];
                tap(&mut instrs, node_idx);
                g.add_node(
                    "filter",
                    EwNode::new(1, instrs, vec![OutputSpec::filtered([0], 1, false)]),
                    vec![src],
                    vec![dst],
                );
                open.push((dst, classes.len()));
                classes.push(match classes[class] {
                    Structure::Stripped => Structure::Stripped,
                    _ => Structure::Filtered,
                });
            }
            Move::Strip { sel } => {
                let (src, _) = open.remove(sel as usize % open.len());
                let dst = link(&mut g, canon);
                let mut instrs = Vec::new();
                tap(&mut instrs, node_idx);
                g.add_node(
                    "strip",
                    EwNode::new(1, instrs, vec![OutputSpec::stripped([0])]),
                    vec![src],
                    vec![dst],
                );
                open.push((dst, classes.len()));
                classes.push(Structure::Stripped);
            }
            Move::SramPair { sel } => {
                if !shape.deep {
                    continue;
                }
                let (src, class) = open.remove(sel as usize % open.len());
                let region = SramId(sram_count);
                sram_count += 1;
                let addr = Operand::Reg(1);
                let mid = link(&mut g, canon);
                let mut instrs = vec![
                    low_bits(SRAM_WORDS as u32 - 1),
                    EwInstr::SramWrite {
                        region,
                        addr,
                        val: Operand::Reg(0),
                        pred: None,
                    },
                ];
                tap(&mut instrs, node_idx);
                g.add_node(
                    "sram_write",
                    EwNode::new(1, instrs, vec![OutputSpec::plain([0])]),
                    vec![src],
                    vec![mid],
                );
                // reg0 += sram[reg0 & 3], through the link just made.
                let dst = link(&mut g, true);
                let instrs = vec![
                    low_bits(SRAM_WORDS as u32 - 1),
                    EwInstr::SramRead {
                        region,
                        addr,
                        dst: 2,
                        pred: None,
                    },
                    EwInstr::Alu {
                        op: AluOp::Add,
                        a: Operand::Reg(0),
                        b: Operand::Reg(2),
                        dst: 0,
                    },
                ];
                g.add_node(
                    "sram_read",
                    EwNode::new(1, instrs, vec![OutputSpec::plain([0])]),
                    vec![mid],
                    vec![dst],
                );
                open.push((dst, class));
            }
        }
    }

    let (outputs, structures) = open
        .into_iter()
        .map(|(c, class)| (c, classes[class]))
        .unzip();
    g.mem = MemoryState::with_dram_size(WINDOW * (writer_count as usize + 1));
    for r in 0..sram_count {
        g.mem.add_sram(format!("pair{r}"), SRAM_WORDS);
    }
    (g, first, outputs, structures)
}

/// The tensors a single-word stream decodes to at `dims`, every word
/// zeroed (their shape); an error for a `DecodeError` or a tensor left
/// pending at the end.
fn shapes(toks: &[TTok], dims: u8) -> Result<Vec<Ragged>, String> {
    let mut decoder = Decoder::new(dims);
    let mut tensors = Vec::new();
    for tok in toks {
        let tok = match tok {
            Tok::Data(_) => Tok::Data(Word(0)),
            Tok::Barrier(level) => Tok::Barrier(*level),
        };
        tensors.extend(decoder.push(tok).map_err(|e| e.to_string())?);
    }
    if decoder.has_pending() {
        return Err("the stream ends inside a tensor".to_string());
    }
    Ok(tensors)
}

/// Decodes every output stream whose class carries barriers at the case's
/// depth (module docs); an output of the input's class must come out in
/// the input's shape.
fn check_structure(
    source: &[TTok],
    outputs: &[Vec<TTok>],
    structures: &[Structure],
    deep: bool,
) -> Result<(), TestCaseError> {
    let dims = if deep { 3 } else { 1 };
    let want = shapes(source, dims).map_err(TestCaseError::fail)?;
    for (i, (toks, structure)) in outputs.iter().zip(structures).enumerate() {
        if *structure == Structure::Stripped {
            continue;
        }
        let got = shapes(toks, dims)
            .map_err(|e| TestCaseError::fail(format!("output {i} ({structure:?}): {e}")))?;
        if *structure == Structure::Source {
            prop_assert_eq!(&got, &want, "output {} is not in the input's shape", i);
        }
    }
    Ok(())
}

/// What `g`'s output channels hold.
fn snapshot(g: &Graph, outputs: &[ChanId]) -> Vec<Vec<TTok>> {
    outputs
        .iter()
        .map(|c| g.chans()[c.0 as usize].tokens())
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The planned and the dense-sweep execution of the same random DAG
    /// agree on every output stream and on the entire memory state (DRAM
    /// bytes, SRAM, allocators, and traffic counters), while the plan
    /// attempts no more steps than the dense sweep. Every generated node
    /// is an `EwNode`, so the plan chains the whole DAG.
    #[test]
    fn planned_matches_ready_matches_dense(
        values in prop::collection::vec(0u32..100, 0..160),
        moves in prop::collection::vec(any::<u32>(), 0..18),
        deep in any::<bool>(),
        sparse in any::<bool>(),
        entry_canon in any::<bool>(),
    ) {
        let shape = Shape { deep, entry_canon };
        let toks = source_tokens(&values, deep, sparse);
        let (mut dense_g, _, outputs, structures) = build(toks.clone(), &moves, shape);
        let dense: ExecReport = run_dense(&mut dense_g, 100_000).unwrap();
        check_structure(&toks, &snapshot(&dense_g, &outputs), &structures, deep)?;
        let (mut plan_g, _, _, _) = build(toks.clone(), &moves, shape);
        let (planned, _) = run(&mut plan_g, None, ObsSink::noop());

        // The same run on an instance whose channel table an earlier one
        // ran on and returned (debug builds poison its slots): a read of a
        // slot no push of this run wrote would differ from the oracle.
        let (template, _, _, _) = build(toks, &moves, shape);
        run(&mut template.fresh_instance(), None, ObsSink::noop());
        let mut recycled = template.fresh_instance();
        run(&mut recycled, None, ObsSink::noop());
        prop_assert_eq!(template.chan_pool_stats().hits, 1);
        prop_assert_eq!(snapshot(&dense_g, &outputs), snapshot(&recycled, &outputs));
        prop_assert_eq!(&dense_g.mem, &recycled.mem);

        let stats = plan_g.plan().stats();
        prop_assert_eq!(stats.fused_ew, stats.nodes, "everything chains: {:?}", stats);

        prop_assert_eq!(snapshot(&dense_g, &outputs), snapshot(&plan_g, &outputs));
        prop_assert_eq!(&dense_g.mem, &plan_g.mem);
        // Step *grouping* is schedule-dependent (the ready set may fire a
        // node at finer granularity), but total attempted work must not be.
        prop_assert!(
            planned.steps <= dense.steps,
            "the plan did more work ({} > {})", planned.steps, dense.steps
        );
    }

    /// The whole `RunOptions` matrix against the dense oracle: `{one-shot,
    /// resumed in K chunks} × {no-op obs, enabled obs}`. Feeding the input
    /// stream in K chunks at arbitrary token boundaries — with a resumable
    /// run after each chunk — yields exactly the one-shot output streams and
    /// memory state of a shallow case: chunking only perturbs the
    /// schedule, and Kahn semantics make the result schedule-independent;
    /// intermediate polls may legitimately pause with in-flight tokens,
    /// but the final poll must drain clean. A deep case's chunks are
    /// batches (module docs), so its chunked lanes answer to the dense
    /// sweep fed the same chunks. An enabled sink moves none of it.
    #[test]
    fn chunked_feed_matches_one_shot(
        values in prop::collection::vec(0u32..100, 0..160),
        moves in prop::collection::vec(any::<u32>(), 0..18),
        cuts in prop::collection::vec(0usize..64, 0..5),
        deep in any::<bool>(),
        sparse in any::<bool>(),
        entry_canon in any::<bool>(),
    ) {
        let shape = Shape { deep, entry_canon };
        let toks = source_tokens(&values, deep, sparse);
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (toks.len() + 1)).collect();
        bounds.push(0);
        bounds.push(toks.len());
        bounds.sort_unstable();
        bounds.dedup();

        let (mut oracle_g, _, outputs, structures) = build(toks.clone(), &moves, shape);
        run_dense(&mut oracle_g, 100_000).unwrap();
        let oracle = snapshot(&oracle_g, &outputs);
        check_structure(&toks, &oracle, &structures, deep)?;
        let (chunk_mem, chunk_outputs) = if deep {
            let (mut g, entry, _, _) = build(Vec::new(), &moves, shape);
            for w in bounds.windows(2) {
                for tok in &toks[w[0]..w[1]] {
                    g.chan_mut(entry).push(tok.clone());
                }
                run_dense(&mut g, 100_000).unwrap();
            }
            let chunked = snapshot(&g, &outputs);
            check_structure(&toks, &chunked, &structures, deep)?;
            (g.mem, chunked)
        } else {
            (oracle_g.mem.clone(), oracle.clone())
        };

        for chunked in [false, true] {
            for observed in [false, true] {
                let lane = format!("chunked={chunked} observed={observed}");
                let enabled = ObsSink::counters_only();
                let obs = if observed { &enabled } else { ObsSink::noop() };
                let initial = if chunked { Vec::new() } else { toks.clone() };
                let (mut g, entry, _, _) = build(initial, &moves, shape);
                if chunked {
                    let mut resume = ResumeState::new();
                    let mut last = RunStatus::Finished;
                    for w in bounds.windows(2) {
                        for tok in &toks[w[0]..w[1]] {
                            g.chan_mut(entry).push(tok.clone());
                        }
                        last = run(&mut g, Some(&mut resume), obs).1;
                    }
                    prop_assert_eq!(last, RunStatus::Finished, "{}: final drain", lane);
                    prop_assert_eq!(&chunk_outputs, &snapshot(&g, &outputs), "{}: outputs", lane);
                    prop_assert_eq!(&chunk_mem, &g.mem, "{}: memory", lane);
                } else {
                    let (_, status) = run(&mut g, None, obs);
                    prop_assert_eq!(status, RunStatus::Finished, "{}", lane);
                    prop_assert_eq!(&oracle, &snapshot(&g, &outputs), "{}: outputs", lane);
                    prop_assert_eq!(&oracle_g.mem, &g.mem, "{}: memory", lane);
                }
            }
        }
    }
}
