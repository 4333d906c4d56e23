//! The execution plan: a schedule over a finished graph's nodes.
//!
//! Stepping a [`Graph`] node by node through the budgeted surface pays,
//! per woken node, for a scheduler dispatch, `NodeIo` assembly with budget
//! refresh, and an [`crate::IoEvents`] round trip to find out whom to
//! wake. An [`ExecPlan`] is built **once** per wiring ([`Graph::plan`])
//! and removes that from the hot loop without restating any firing rule:
//!
//! - **Wake units.** Nodes are partitioned into units that fire together.
//!   A maximal straight-line chain of element-wise stages (single producer
//!   → single consumer over a private channel) is one *segment*,
//!   one dispatch for the whole chain. Every other node is a unit of its
//!   own, fired through its [`crate::Prim`]'s `match`.
//! - **Fused runs.** A segment is cut into *runs* of consecutive stages
//!   whose memory accesses commute: a stage starts a new run when one of
//!   its accesses conflicts with one already in the run (same SRAM region,
//!   DRAM or allocator queue, and either side writes), or when it feeds
//!   the segment's head (a ring of stages). A run fires by the
//!   element-wise run rule (the [`crate::nodes::EwNode`] module docs):
//!   each thread crosses all of its stages in one pass, through one
//!   register window per stage, and the channel between two stages of a
//!   run — a *fused edge* — is never written; a barrier waits on a fused
//!   edge for exactly as long as that channel's canonicalization could
//!   still change it. Consecutive runs are joined by a real channel, which
//!   the first drains before the second fires, as separately stepped
//!   stages would. So every token that leaves a segment, and every DRAM,
//!   SRAM and allocator effect, is what stepping its stages one by one
//!   produces; a fused edge just records no channel statistics and no
//!   `ChannelPush` trace event. A run whose stages each hold at most one
//!   memory instruction is *lane-safe*: its queued threads may cross it
//!   together as lanes, one instruction across all of them. Runs index
//!   into one flat stage table, and the register file, lane file and edge
//!   state they fire on are the drain's scratch, so a firing allocates
//!   nothing once they have grown. The width of every fused
//!   edge is checked when the plan is built, since no slot write checks
//!   it later.
//! - **One port surface.** Both kinds of unit fire the primitive's own
//!   rule against [`PlanPorts`]: direct channel access, no budgets, and
//!   the wake-ups applied inside `push`/`pop_in` from the graph's own
//!   [`TopologyIndex`] — `Wakes` is the only statement of the plan's wake
//!   protocol.
//! - **Bitmap worklist.** The ready set is a pair of `u64` bitmaps
//!   (current/next generation) with O(1) wake and pop-lowest; a segment
//!   occupies a single bit regardless of its length (`wake_target`). A
//!   round is one ascending sweep of the current bitmap. A wake of a unit
//!   past the one firing joins the sweep, so a token runs down a chain of
//!   ascending units in one round; a wake at or behind it waits for the
//!   next round. Each unit fires at most once per sweep, so `max_rounds`
//!   bounds a run at rounds × units dispatches. `peak_ready` counts the
//!   bits set at each sweep's start.
//!
//! The plan is **total** — every primitive already runs on its ports —
//! and Kahn semantics guarantee the result is bit-identical to the
//! dense-sweep oracle (`revet_oracle::dense::run_dense`); the
//! `scheduler_equiv` property suite and the eight-app `plan_differential`
//! suite assert it, and the latter pins the schedule itself
//! (`golden/plan_schedule.txt`). The plan's unit tests, most of which
//! compare with that oracle, are `revet-oracle`'s `plan::tests`.
//!
//! It is the one untimed scheduler: [`Graph::run`] always drains through
//! the graph's own plan; this module contributes the drain loop and the
//! scratch a resumable run keeps between polls ([`ResumeState`]).

#![warn(clippy::too_many_lines)]

use crate::channel::{transfer, Channel};
use crate::graph::{ExecReport, Graph, TopologyIndex};
use crate::instr::{EwInstr, MemSpace};
use crate::mem::MemoryState;
use crate::node::{ChanId, MachineError, NodeId, Ports, Prim};
use crate::nodes::{fire_run, fresh_regs, EwNode, FusedRun, Tail, MAX_LANES};
use revet_obs::{ObsSink, WakeCause};
use revet_sltf::{BarrierLevel, Tok, Word};
use std::sync::Arc;

/// Static shape counters for one built plan (reports and benchmarks).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanStats {
    /// Total nodes in the planned graph.
    pub nodes: usize,
    /// Element-wise nodes chained into segments.
    pub fused_ew: usize,
    /// Segments (a segment is ≥1 chained stage).
    pub segments: usize,
    /// Stage count of the longest segment.
    pub longest_segment: usize,
    /// Fused runs the segments are cut into (a run is ≥1 stage, so
    /// `fused_ew - fused_runs` edges are fused).
    pub fused_runs: usize,
}

/// One chained stage in the plan's flat stage table.
#[derive(Debug)]
struct Stage {
    /// The graph node.
    node: u32,
    /// Its element-wise behavior (stateless once registers are lent, so
    /// one serves every instance). The program slices are the graph
    /// node's own, so holding it allocates nothing ([`EwNode`]). The
    /// `EwNode` itself is held inline, not behind an `Arc`: the table
    /// then reads it without a pointer hop. That hop measured about 2% of
    /// `exec_control`'s floor, and a build that stored an `Arc<EwNode>`
    /// here, saving the allocator calls a deep copy then cost, made
    /// `op_ms_floor` 2.3–6.6% worse in four pairs (3.756→3.855,
    /// 3.778→3.873, 3.791→3.878 and 3.816→4.067 ms).
    ew: EwNode,
    /// Where its register window starts in its run's register file.
    window: u32,
    /// One past the last stage of its run, as an index into the table.
    run_end: u32,
    /// Whether its output edge canonicalizes barriers; read only when
    /// that edge is fused.
    canon: bool,
    /// The registers a thread entering its window needs zeroed
    /// ([`fresh_regs`]) as a mask, or [`Stage::NO_MASK`] when one of them
    /// lies past register 14. Two bytes fit the padding a stage already
    /// has, and the table is allocated on every compile.
    fresh: u16,
    /// Whether its run is lane-safe ([`FusedRun::lane_safe`]). A run fired
    /// stage by stage is too: each stage alone meets the same conditions.
    lanes: bool,
}

impl Stage {
    /// The [`Stage::fresh`] of a stage that zeroes its whole window.
    const NO_MASK: u16 = 1 << 15;
}

/// A run is a slice of the stage table.
impl FusedRun for [Stage] {
    #[inline(always)]
    fn stages(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn stage(&self, j: usize) -> &EwNode {
        &self[j].ew
    }

    #[inline(always)]
    fn window(&self, j: usize) -> usize {
        self[j].window as usize
    }

    #[inline(always)]
    fn canonicalizes(&self, j: usize) -> bool {
        self[j].canon
    }

    #[inline(always)]
    fn lane_safe(&self) -> bool {
        self[0].lanes
    }

    #[inline(always)]
    fn fresh(&self, j: usize) -> Option<u64> {
        let fresh = self[j].fresh;
        (fresh != Stage::NO_MASK).then_some(u64::from(fresh))
    }
}

/// A compiled execution plan. Immutable once built; shared (`Arc`) across
/// every instance of a compiled program, with the topology index it
/// schedules over. See the module docs.
#[derive(Debug)]
pub struct ExecPlan {
    /// Bit to set when waking a node: the segment head for a chained
    /// stage, the node itself otherwise.
    wake_target: Vec<u32>,
    /// The segment a chained stage belongs to; `None` for a node that is
    /// its own wake unit.
    segment: Vec<Option<u32>>,
    /// Segment `s` owns `stages[seg_bounds[s]..seg_bounds[s + 1]]`.
    seg_bounds: Vec<u32>,
    /// Chained stages in firing order, segment by segment, each segment
    /// cut into runs ([`Stage::run_end`]).
    stages: Vec<Stage>,
    /// Stage count of the longest run (sizes the drain's edge scratch).
    longest_run: usize,
    /// The graph's own channel-endpoint index (wake lists).
    topo: Arc<TopologyIndex>,
}

/// The two-generation bitmap worklist. `cur` is the sweep in progress,
/// drained in ascending unit order; `cursor` is the unit firing. A wake of
/// a unit past the cursor sets its bit in `cur`, so the sweep fires it
/// later in the same round; a wake at or behind the cursor lands in
/// `next`, the following round. Membership in either suppresses
/// re-queueing, so a unit fires at most once per sweep.
#[derive(Debug, Default)]
struct WakeSet {
    cur: Vec<u64>,
    next: Vec<u64>,
    next_count: usize,
    cursor: u32,
}

impl WakeSet {
    /// Empties both generations and sizes them for `n` wake units (a run
    /// that ended in an error may have left bits behind).
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        for lane in [&mut self.cur, &mut self.next] {
            lane.clear();
            // Exact: a one-shot run's state travels with its recycled
            // channel table, so these bytes are paid once per pooled
            // table, not once per run.
            lane.reserve_exact(words);
            lane.resize(words, 0);
        }
        self.next_count = 0;
        self.cursor = 0;
    }

    #[inline]
    fn seed(&mut self, i: u32) {
        self.cur[i as usize / 64] |= 1 << (i % 64);
    }

    /// Queues `i`: in this sweep when it lies past the cursor, else in the
    /// next one. Returns whether it was newly queued (false = already
    /// pending in either generation).
    #[inline]
    fn wake(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, 1u64 << (i % 64));
        if (self.cur[w] | self.next[w]) & b != 0 {
            return false;
        }
        if i > self.cursor {
            self.cur[w] |= b;
        } else {
            self.next[w] |= b;
            self.next_count += 1;
        }
        true
    }
}

/// Reusable scheduler state for resumable (streaming) execution.
///
/// A fresh state makes the first run identical to a one-shot run: every
/// node is seeded into the worklist. Subsequent runs on the same state
/// re-seed the two places progress-enabling state can hide while the
/// graph is quiescent: consumers of a **non-empty input channel** (input
/// arrives by a push onto a channel, which is how streaming sessions
/// feed) and **allocator waiters** (a returned pointer is invisible on
/// the channel network). Spurious seeds are harmless (an unproductive
/// step). The drain loop's worklist, register file and fused-edge state
/// live here, so repeated polls never reallocate them; one state must
/// only ever drive the graph it was first run against.
#[derive(Debug, Default)]
pub struct ResumeState {
    started: bool,
    ws: WakeSet,
    scratch: Scratch,
}

/// What a firing works in, kept across firings so none allocates.
#[derive(Debug, Default)]
struct Scratch {
    /// The register file a run's stage windows live in, and the scratch
    /// lent to a unit that is not a segment ([`Ports::scratch`]).
    regs: Vec<Word>,
    /// One tail per fused edge of the run being fired.
    tails: Vec<Tail>,
    /// The lane file of a lane-batched commit (`fire_run`).
    lanes: Vec<Word>,
}

impl ResumeState {
    /// Fresh state: the next run seeds every node, exactly like a
    /// one-shot run.
    pub fn new() -> Self {
        ResumeState::default()
    }

    /// Whether a run has already consumed this state (later runs use the
    /// incremental re-seed rule).
    pub fn started(&self) -> bool {
        self.started
    }

    /// Makes the next run seed every node again while keeping the
    /// buffers: a one-shot run reuses its channel table's state this way.
    pub(crate) fn restart(&mut self) {
        self.started = false;
    }

    /// Heap bytes of the buffers (what an idle channel table retains with
    /// them).
    pub(crate) fn heap_bytes(&self) -> usize {
        let ResumeState { ws, scratch, .. } = self;
        (ws.cur.capacity() + ws.next.capacity()) * std::mem::size_of::<u64>()
            + scratch.regs.capacity() * std::mem::size_of::<Word>()
            + scratch.tails.capacity() * std::mem::size_of::<Tail>()
            + scratch.lanes.capacity() * std::mem::size_of::<Word>()
    }
}

/// The plan's wake protocol: every wake-up of a planned run goes through
/// [`Wakes::wake`]. `obs` is `Some` only for an enabled sink, so the
/// enabled test is made once per run, not per token.
#[derive(Debug)]
struct Wakes<'a> {
    plan: &'a ExecPlan,
    ws: &'a mut WakeSet,
    obs: Option<&'a ObsSink>,
}

impl Wakes<'_> {
    /// Queues the wake unit of every node in `nodes` (a segment member
    /// costs its head's one bit).
    #[inline(always)]
    fn wake(&mut self, nodes: &[NodeId], cause: WakeCause) {
        for w in nodes {
            let t = self.plan.wake_target[w.0 as usize];
            if self.ws.wake(t) {
                if let Some(obs) = self.obs {
                    obs.wake(t, cause);
                }
            }
        }
    }
}

/// The execution plan's port surface: direct channel access, no budgets
/// and no bounds; a push wakes the channel's consumers (see [`Ports`] for
/// the other implementation, [`crate::NodeIo`]).
#[derive(Debug)]
pub struct PlanPorts<'a> {
    chans: &'a mut [Channel],
    mem: &'a mut MemoryState,
    ins: &'a [ChanId],
    outs: &'a [ChanId],
    /// The lent register scratch ([`Ports::scratch`]). Empty for a run,
    /// which gets its register file directly.
    scratch: Vec<Word>,
    wakes: Wakes<'a>,
    /// The outputs feed the next run of the segment being fired, which
    /// drains them within the same firing — no wake needed.
    interior: bool,
}

impl PlanPorts<'_> {
    /// The wake a push on `c` owes: its consumers, unless they are the
    /// next run of the segment being fired.
    #[inline(always)]
    fn pushed(&mut self, c: ChanId) {
        if let Some(obs) = self.wakes.obs {
            obs.channel_push(c.0);
        }
        if !self.interior {
            let consumers = self.wakes.plan.topo.consumers(c);
            self.wakes.wake(consumers, WakeCause::TokenArrival);
        }
    }
}

impl Ports for PlanPorts<'_> {
    #[inline(always)]
    fn in_count(&self) -> usize {
        self.ins.len()
    }

    #[inline(always)]
    fn out_count(&self) -> usize {
        self.outs.len()
    }

    #[inline(always)]
    fn peek_in(&self, i: usize) -> Option<Tok<&[Word]>> {
        self.chans[self.ins[i].0 as usize].front()
    }

    #[inline(always)]
    fn pop_in(&mut self, i: usize) -> Tok<()> {
        self.chans[self.ins[i].0 as usize]
            .pop_front()
            .expect("pop_in on empty channel")
    }

    #[inline(always)]
    fn can_push(&self, _o: usize, _barrier: bool) -> bool {
        true
    }

    #[inline(always)]
    fn push_slot(&mut self, o: usize, width: usize) -> &mut [Word] {
        let c = self.outs[o];
        self.pushed(c);
        self.chans[c.0 as usize].push_slot(width)
    }

    #[inline(always)]
    fn push_barrier(&mut self, o: usize, level: BarrierLevel) {
        let c = self.outs[o];
        self.chans[c.0 as usize].push_barrier(level);
        self.pushed(c);
    }

    #[inline(always)]
    fn forward(&mut self, i: usize, o: usize) {
        let (src, dst) = (self.ins[i], self.outs[o]);
        transfer(self.chans, src.0 as usize, dst.0 as usize);
        self.pushed(dst);
    }

    #[inline(always)]
    fn mem(&mut self) -> &mut MemoryState {
        self.mem
    }

    #[inline(always)]
    fn mem_ref(&self) -> &MemoryState {
        self.mem
    }

    #[inline(always)]
    fn scratch(&mut self) -> &mut Vec<Word> {
        &mut self.scratch
    }

    #[inline(always)]
    fn lanes(&self) -> usize {
        MAX_LANES
    }

    #[inline(always)]
    fn data_streak(&self, i: usize, max: usize) -> usize {
        self.chans[self.ins[i].0 as usize].data_streak(max)
    }

    #[inline(always)]
    fn pop_lanes(&mut self, i: usize, n: usize, f: impl FnMut(usize, &[Word])) {
        self.chans[self.ins[i].0 as usize].pop_streak(n, f);
    }

    #[inline(always)]
    fn push_lanes(&mut self, o: usize, width: usize, n: usize, f: impl FnMut(usize, &mut [Word])) {
        let c = self.outs[o];
        if let Some(obs) = self.wakes.obs {
            (0..n).for_each(|_| obs.channel_push(c.0));
        }
        self.chans[c.0 as usize].push_streak(width, n, f);
    }

    #[inline(always)]
    fn lanes_committed(&mut self, lanes: usize, mut pushed: u64) {
        if let Some(obs) = self.wakes.obs {
            obs.counters.lanes.record(lanes as u64);
        }
        while pushed != 0 && !self.interior {
            let o = pushed.trailing_zeros() as usize;
            pushed &= pushed - 1;
            let consumers = self.wakes.plan.topo.consumers(self.outs[o]);
            self.wakes.wake(consumers, WakeCause::TokenArrival);
        }
    }
}

impl ExecPlan {
    /// Schedules a finished graph. Total: every node is in exactly one
    /// wake unit. The graph is not modified; [`Graph::plan`] is the caller
    /// that keeps the result (this stays public for whoever times the
    /// build alone). A graph that already holds a plan lends its topology
    /// index, which depends on the wiring only.
    pub fn build(g: &Graph) -> ExecPlan {
        let nodes = g.nodes();
        let n = nodes.len();
        let topo = match &g.plan {
            Some(plan) => Arc::clone(&plan.topo),
            None => Arc::new(TopologyIndex::build(nodes, g.chan_count())),
        };

        // Chainable stages: element-wise, no allocator stalls, ≥1 input
        // (EwNode's own invariant), and a behavior/wiring port-count match.
        let chainable: Vec<Option<&EwNode>> = nodes
            .iter()
            .map(|slot| {
                let Prim::Ew(ew) = &slot.behavior else {
                    return None;
                };
                let ok = !slot.alloc_gated
                    && !slot.ins.is_empty()
                    && ew.outputs.len() == slot.outs.len();
                ok.then_some(ew)
            })
            .collect();

        // The chain rule: i → j when i's single output channel has exactly
        // the producer {i} and consumer {j}, and j's single input is that
        // channel. Both ends must be chainable.
        let mut succ: Vec<Option<usize>> = vec![None; n];
        let mut has_pred = vec![false; n];
        for (i, slot) in nodes.iter().enumerate() {
            let (Some(_), [c]) = (chainable[i], &slot.outs[..]) else {
                continue;
            };
            let ([_], [NodeId(j)]) = (topo.producers(*c), topo.consumers(*c)) else {
                continue;
            };
            let j = *j as usize;
            if j != i && chainable[j].is_some() && nodes[j].ins.len() == 1 {
                succ[i] = Some(j);
                has_pred[j] = true;
            }
        }

        // Walk chains from their heads, then from whatever is left:
        // chainable nodes on a pure cycle have no head and become segments
        // cut at an arbitrary member, which is always safe (a segment is
        // just its stages' own semantics minus dispatch overhead). Each
        // segment is cut into runs where a stage's memory accesses
        // conflict with its run's, and before a stage that feeds the
        // segment's head: sharing the head's run, it would hand the head a
        // token within the firing that produced it, where stages stepped
        // one by one see it in the next.
        let chained = chainable.iter().flatten().count();
        let mut plan = ExecPlan {
            wake_target: (0..n as u32).collect(),
            segment: vec![None; n],
            seg_bounds: Vec::with_capacity(chained + 1),
            stages: Vec::with_capacity(chained),
            longest_run: 0,
            topo,
        };
        plan.seg_bounds.push(0);
        for head in (0..n).filter(|&i| !has_pred[i]).chain(0..n) {
            if chainable[head].is_none() || plan.segment[head].is_some() {
                continue;
            }
            let seg = plan.seg_bounds.len() as u32 - 1;
            let start = plan.stages.len();
            let mut run = start;
            let mut at = Some(head);
            while let Some(i) = at.filter(|&i| plan.segment[i].is_none()) {
                plan.segment[i] = Some(seg);
                plan.wake_target[i] = head as u32;
                let ew = chainable[i].expect("walk stays chainable");
                let feeds_head = || nodes[i].outs.iter().any(|c| nodes[head].ins.contains(c));
                if (run == start && i != head && feeds_head()) || conflicts(&plan.stages[run..], ew)
                {
                    plan.close_run(run);
                    run = plan.stages.len();
                }
                plan.push_stage(g, run, i, ew);
                at = succ[i];
            }
            plan.close_run(run);
            plan.seg_bounds.push(plan.stages.len() as u32);
        }
        plan
    }

    /// Appends chained stage `i` to the run that starts at `run`, fusing
    /// the edge from the run's last stage when there is one. No slot write
    /// will check that edge's width, so it is checked here.
    fn push_stage(&mut self, g: &Graph, run: usize, i: usize, ew: &EwNode) {
        let (mut window, node) = (0, &g.nodes()[i]);
        let mut loaded: usize = node
            .ins
            .iter()
            .map(|c| g.chans()[c.0 as usize].arity())
            .sum();
        // A stage with more than `MAX_LANES` ports on either side is never
        // lane-safe, which also bounds this pairwise scan: a `rep.dist`
        // filter has one output per way.
        let distinct = |ids: &[ChanId]| {
            ids.len() <= MAX_LANES && (1..ids.len()).all(|k| !ids[..k].contains(&ids[k]))
        };
        let memory_ops = ew.instrs.iter().filter(|ins| ins.is_memory()).count();
        let mut lanes = distinct(&node.ins) && distinct(&node.outs) && memory_ops <= 1;
        if let Some(prev) = self.stages[run..].last_mut() {
            let (from, to) = (&g.nodes()[prev.node as usize], &g.nodes()[i]);
            let c = from.outs[0];
            let chan = &g.chans()[c.0 as usize];
            let width = prev.ew.outputs[0].slots.len();
            assert!(
                width == chan.arity() && usize::from(ew.reg_count()) >= width,
                "fused edge '{}' -> '{}' mis-wired: the producer writes {width} words, \
                 channel #{} carries {} and the consumer has {} registers",
                from.label(),
                to.label(),
                c.0,
                chan.arity(),
                ew.reg_count()
            );
            prev.canon = chan.canonicalizes();
            window = prev.window + u32::from(prev.ew.reg_count());
            loaded = width;
            lanes &= prev.lanes;
        }
        self.stages.push(Stage {
            node: i as u32,
            ew: ew.clone(),
            window,
            run_end: 0,
            canon: false,
            fresh: fresh_regs(ew, loaded)
                .and_then(|mask| u16::try_from(mask).ok())
                .filter(|&mask| mask < Stage::NO_MASK)
                .unwrap_or(Stage::NO_MASK),
            lanes,
        });
    }

    /// Ends the run that starts at `run` with the last stage pushed; it is
    /// lane-safe when its last stage is.
    fn close_run(&mut self, run: usize) {
        let end = self.stages.len();
        let lanes = self.stages[end - 1].lanes;
        for stage in &mut self.stages[run..] {
            (stage.run_end, stage.lanes) = (end as u32, lanes);
        }
        self.longest_run = self.longest_run.max(end - run);
    }

    /// Static shape counters (how much of the graph fires chained).
    pub fn stats(&self) -> PlanStats {
        let lengths = self.seg_bounds.windows(2).map(|w| (w[1] - w[0]) as usize);
        let run_ends = self.stages.iter().enumerate();
        PlanStats {
            nodes: self.wake_target.len(),
            fused_ew: self.stages.len(),
            segments: self.seg_bounds.len() - 1,
            longest_segment: lengths.max().unwrap_or(0),
            fused_runs: run_ends
                .filter(|&(k, s)| s.run_end as usize == k + 1)
                .count(),
        }
    }

    /// Every chained stage in firing order: its node and the element-wise
    /// program the plan fires it with, which shares the node's slices.
    pub fn chained_stages(&self) -> impl Iterator<Item = (NodeId, &EwNode)> + '_ {
        self.stages.iter().map(|s| (NodeId(s.node), &s.ew))
    }

    /// The channel-endpoint index this plan schedules over — the graph's
    /// one copy, which the cycle-level simulator wakes from too.
    pub fn topology(&self) -> &Arc<TopologyIndex> {
        &self.topo
    }

    /// The drain loop, called by [`Graph::run`] (which owns the quiescence
    /// verdict): seeds the worklist — every node on a state's first run,
    /// [`Graph::seeds`]' re-seed rule after — and fires woken units until
    /// no wake is pending. With an enabled `obs`, dispatches, segment
    /// fires, channel pushes, classified wakes and per-node stall
    /// attribution are recorded; the no-op sink costs one predictable
    /// branch per event site.
    pub(crate) fn drain(
        &self,
        g: &mut Graph,
        resume: &mut ResumeState,
        max_rounds: u64,
        obs: &ObsSink,
    ) -> Result<ExecReport, MachineError> {
        let ResumeState {
            started,
            ws,
            scratch,
        } = resume;
        let first = !std::mem::replace(started, true);
        let mut report = ExecReport::default();
        let recording = obs.is_enabled().then_some(obs);
        let fuse = self.fused_edges_empty(g);
        scratch
            .tails
            .resize(self.longest_run.saturating_sub(1), Tail::Empty);

        // Seeds map through `wake_target`, so segment members cost one bit.
        ws.reset(self.wake_target.len());
        for id in g.seeds(first) {
            ws.seed(self.wake_target[id.0 as usize]);
        }

        loop {
            if report.rounds >= max_rounds {
                return Err(MachineError::new(format!(
                    "no quiescence after {max_rounds} rounds (livelock or huge workload)"
                )));
            }
            report.rounds += 1;
            let ready: u64 = ws.cur.iter().map(|w| w.count_ones() as u64).sum();
            report.peak_ready = report.peak_ready.max(ready);
            for w in 0..ws.cur.len() {
                while ws.cur[w] != 0 {
                    let b = ws.cur[w].trailing_zeros();
                    ws.cur[w] &= ws.cur[w] - 1;
                    let i = w * 64 + b as usize;
                    ws.cursor = i as u32;
                    report.steps += 1;
                    let progressed = self.fire(i, g, scratch, fuse, ws, recording)?;
                    if progressed {
                        report.productive_steps += 1;
                    }
                    obs.node_dispatch(i as u32, progressed);
                    if !progressed && obs.is_enabled() {
                        obs.stall(i as u32, g.classify_stall(NodeId(i as u32), |_| usize::MAX));
                    }
                }
            }
            if ws.next_count == 0 {
                break;
            }
            std::mem::swap(&mut ws.cur, &mut ws.next);
            ws.next_count = 0;
        }

        Ok(report)
    }

    /// Whether every fused edge's channel is empty, as a run's firing
    /// assumes. A run never writes one, so this holds at every drain start
    /// unless tokens were queued on such an edge by hand; a drain that
    /// finds some fires each stage as a run of its own, which drains them
    /// first.
    fn fused_edges_empty(&self, g: &Graph) -> bool {
        let (nodes, chans) = (g.nodes(), g.chans());
        self.stages.iter().enumerate().all(|(k, s)| {
            s.run_end as usize == k + 1
                || chans[nodes[s.node as usize].outs[0].0 as usize].is_empty()
        })
    }

    /// Fires wake unit `i`: a segment's runs in chain order (the channel
    /// joining two runs is filled by the first and drained by the second
    /// within this same call; `fuse == false` makes every stage a run) by
    /// a direct call to the element-wise run rule, any other node through
    /// its [`Prim`] — both on [`PlanPorts`], both attributed with the node
    /// label on error.
    fn fire(
        &self,
        i: usize,
        g: &mut Graph,
        scratch: &mut Scratch,
        fuse: bool,
        ws: &mut WakeSet,
        obs: Option<&ObsSink>,
    ) -> Result<bool, MachineError> {
        let allocs_before = g.mem.alloc_push_ops();
        let (chans, mem, nodes) = g.split_mut();
        let mut progressed = false;
        if let Some(seg) = self.segment[i] {
            let (lo, hi) = (
                self.seg_bounds[seg as usize] as usize,
                self.seg_bounds[seg as usize + 1] as usize,
            );
            let mut at = lo;
            while at < hi {
                let end = if fuse {
                    self.stages[at].run_end as usize
                } else {
                    at + 1
                };
                let run = &self.stages[at..end];
                let head = &nodes[run[0].node as usize];
                let tail = &nodes[run[run.len() - 1].node as usize];
                // Built per run, not re-bound: ports that never leave
                // this loop stay in registers (measured on `exec_control`).
                let mut io = PlanPorts {
                    chans: &mut *chans,
                    mem: &mut *mem,
                    ins: &head.ins,
                    outs: &tail.outs,
                    scratch: Vec::new(),
                    wakes: Wakes {
                        plan: self,
                        ws: &mut *ws,
                        obs,
                    },
                    interior: end < hi,
                };
                // The run gets the drain's register and lane files
                // directly (its ports lend none), and the chain rule admits
                // no allocator stall. Only a run's head can fail.
                let Scratch {
                    regs,
                    tails,
                    lanes: file,
                } = &mut *scratch;
                progressed |= fire_run(run, &mut io, regs, file, tails, false)
                    .map_err(|e| e.at(head.label()))?;
                at = end;
            }
            if let (true, Some(obs)) = (progressed, obs) {
                obs.segment_fire(seg, (hi - lo) as u32);
            }
        } else {
            let slot = &mut nodes[i];
            let mut io = PlanPorts {
                chans: &mut *chans,
                mem: &mut *mem,
                ins: &slot.ins,
                outs: &slot.outs,
                scratch: std::mem::take(&mut scratch.regs),
                wakes: Wakes {
                    plan: self,
                    ws: &mut *ws,
                    obs,
                },
                interior: false,
            };
            let result = slot.behavior.fire(&mut io, slot.alloc_gated);
            scratch.regs = io.scratch;
            progressed = result.map_err(|e| e.at(slot.label()))?;
        }
        // An allocator return is invisible on the channel network.
        if mem.alloc_push_ops() != allocs_before {
            let mut wakes = Wakes {
                plan: self,
                ws,
                obs,
            };
            wakes.wake(self.topo.alloc_waiters(), WakeCause::AllocatorPush);
        }
        Ok(progressed)
    }
}

/// Whether one of `ew`'s memory accesses conflicts with one of `run`'s:
/// the same space (one SRAM region, DRAM, one allocator queue), and at
/// least one of the two writes it. Accesses that do not conflict commute,
/// so carrying threads through them one at a time cannot be observed.
fn conflicts(run: &[Stage], ew: &EwNode) -> bool {
    fn accesses(ew: &EwNode) -> impl Iterator<Item = (MemSpace, bool)> + '_ {
        ew.instrs.iter().filter_map(EwInstr::mem_access)
    }
    accesses(ew).any(|(space, writes)| {
        run.iter()
            .flat_map(|s| accesses(&s.ew))
            .any(|(other, w)| other == space && (writes || w))
    })
}
