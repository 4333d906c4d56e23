//! The compiled execution plan: a flattened, arena-backed fast path for
//! finished graphs.
//!
//! Interpreting a [`Graph`] pays for virtual dispatch (`Box<dyn Node>`),
//! behavior take/restore, `NodeIo` assembly, and a fresh register vector
//! per data token. An [`ExecPlan`] is built **once** per compile from the
//! finished wiring and removes all of that from the hot loop:
//!
//! - **Arenas.** Every per-node quantity lives in one dense buffer indexed
//!   by node: plan kinds, stage descriptors, input-port lists, fused
//!   micro-ops, and output specs are flat `Vec`s addressed by `u32`
//!   ranges. Channel endpoint (producer/consumer) lists are flattened the
//!   same way, so a wake is two array lookups.
//! - **Fused segments.** Element-wise nodes lower onto a micro-op form
//!   ([`crate::Node::fused_spec`]); maximal straight-line chains of them
//!   (single producer → single consumer over a private unbounded channel)
//!   become one *segment* that fires as a unit: each stage drains its
//!   input through the real channels, so barrier canonicalization, filter
//!   predicates, and per-channel statistics behave exactly as under the
//!   interpreter — the saving is one scheduler dispatch and zero virtual
//!   calls per segment instead of one per node, plus a reused scratch
//!   register file instead of a per-token allocation. Single-input sinks
//!   lower to a native drain under one lock per firing.
//! - **Bitmap worklist.** The ready set is a pair of `u64` bitmaps
//!   (current/next generation) with O(1) wake and pop-lowest; a fused
//!   segment occupies a single bit regardless of its length.
//!
//! Anything the plan cannot lower — sources (mutable pending state),
//! merges, expanders, allocator-stalling stages, nodes on bounded
//! channels — stays on the boxed [`crate::Node::step`] path behind the
//! same scheduler, so the plan is **total**: every graph runs, only the
//! hot kinds run faster. Kahn semantics guarantee the result is
//! bit-identical to the interpreted executor; the `scheduler_equiv`
//! property suite and the eight-app `plan_differential` suite assert it.
//!
//! A plan is run by passing it to [`Graph::run`]
//! ([`crate::RunOptions::plan`]); this module only contributes the drain
//! loop.

use crate::graph::{round_cap_error, ExecReport, Graph};
use crate::instr::{exec_instrs, EwInstr, Reg};
use crate::node::{ChanId, FusedSpec, IoEvents, MachineError, NodeId, PortBudget};
use crate::nodes::{OutputSpec, SinkHandle};
use revet_obs::{ObsSink, WakeCause};
use revet_sltf::{BarrierLevel, Tok, Word};

/// A lowered element-wise behavior awaiting segment assembly.
type EwLowering = (Vec<EwInstr>, Vec<OutputSpec>, u16);

/// How the plan executes one node.
#[derive(Clone, Copy, Debug)]
enum PlanKind {
    /// Member of fused segment `.0` (firing any member fires the whole
    /// segment from its head; wakes are redirected to one bit per segment).
    Seg(u32),
    /// Fused single-input sink draining channel `.0`.
    Sink(ChanId),
    /// Fallback: step the boxed behavior through the interpreter surface.
    Boxed,
}

/// One fused pipeline stage: an element-wise node lowered into the plan's
/// arenas. All ranges are `u32` half-open index pairs into the flat
/// buffers on [`ExecPlan`].
#[derive(Clone, Debug)]
struct Stage {
    /// Graph node index (error attribution and diagnostics).
    node: u32,
    /// Input channels: range into `ExecPlan::ports`.
    ins: (u32, u32),
    /// Micro-ops: range into `ExecPlan::micro`.
    instrs: (u32, u32),
    /// Output descriptors: range into `ExecPlan::outs`.
    outs: (u32, u32),
    /// Register-file size for this stage's scratch window.
    reg_count: u16,
}

/// One fused output port: the node's [`OutputSpec`] plus its resolved
/// channel and whether a push on it must wake consumers (false only for a
/// segment-internal forwarding edge, which the next stage drains within
/// the same firing).
#[derive(Clone, Debug)]
struct PlanOut {
    slots: Box<[Reg]>,
    pred: Option<(Reg, bool)>,
    strip_barriers: bool,
    chan: ChanId,
    wake: bool,
}

/// Static shape counters for one built plan (reports and benchmarks).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanStats {
    /// Total nodes in the planned graph.
    pub nodes: usize,
    /// Element-wise nodes lowered into fused segments.
    pub fused_ew: usize,
    /// Sinks lowered to the native drain.
    pub fused_sinks: usize,
    /// Nodes left on the boxed fallback path.
    pub boxed: usize,
    /// Fused segments (a segment is ≥1 chained stage).
    pub segments: usize,
    /// Stage count of the longest segment.
    pub longest_segment: usize,
}

/// A compiled execution plan. Immutable once built; shared (`Arc`) across
/// every instance of a compiled program, like the topology index. See the
/// module docs for the layout.
#[derive(Debug)]
pub struct ExecPlan {
    // -- shape fingerprint (validated against the graph at run start) --
    node_count: usize,
    chan_count: usize,
    // -- per-node --
    kinds: Vec<PlanKind>,
    /// Bit to set when waking a node: the segment head for members, the
    /// node itself otherwise.
    wake_target: Vec<u32>,
    // -- segment arenas --
    /// Segment `s` owns `stages[seg_bounds[s]..seg_bounds[s+1]]`.
    seg_bounds: Vec<u32>,
    stages: Vec<Stage>,
    ports: Vec<ChanId>,
    micro: Vec<EwInstr>,
    outs: Vec<PlanOut>,
    // -- flattened channel endpoints (wake lists) --
    consumers: Vec<u32>,
    cons_off: Vec<u32>,
    producers: Vec<u32>,
    prod_off: Vec<u32>,
    /// Nodes that may stall on allocator availability (always boxed).
    alloc_waiters: Vec<u32>,
    // -- executor sizing --
    max_regs: usize,
    max_in: usize,
    max_out: usize,
    stats: PlanStats,
}

/// The two-generation bitmap worklist: `cur` drains while wakes land in
/// `next`; membership in either suppresses re-queueing (the same dedup the
/// interpreter's `queued` flags provide).
struct WakeSet {
    cur: Vec<u64>,
    next: Vec<u64>,
    next_count: usize,
}

impl WakeSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        WakeSet {
            cur: vec![0; words],
            next: vec![0; words],
            next_count: 0,
        }
    }

    #[inline]
    fn seed(&mut self, i: u32) {
        self.cur[i as usize / 64] |= 1 << (i % 64);
    }

    /// Queues `i` for the next generation; returns whether it was newly
    /// queued (false = already pending in either generation).
    #[inline]
    fn wake(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, 1u64 << (i % 64));
        if (self.cur[w] | self.next[w]) & b == 0 {
            self.next[w] |= b;
            self.next_count += 1;
            true
        } else {
            false
        }
    }
}

impl ExecPlan {
    /// Flattens a finished graph into a plan. Total: every node gets a
    /// kind, with non-lowerable ones on the boxed fallback. The graph is
    /// not modified; the plan matches any graph with identical wiring
    /// (every [`Graph::fresh_instance`] of the same compile).
    pub fn build(g: &Graph) -> ExecPlan {
        let nodes = g.nodes();
        let chans = g.chans();
        let n = nodes.len();

        // Channel endpoints from the wiring (independent of the graph's
        // own TopologyIndex so half-built test graphs also plan).
        let mut cons: Vec<Vec<u32>> = vec![Vec::new(); chans.len()];
        let mut prods: Vec<Vec<u32>> = vec![Vec::new(); chans.len()];
        let mut alloc_waiters = Vec::new();
        for (i, slot) in nodes.iter().enumerate() {
            for c in &slot.ins {
                cons[c.0 as usize].push(i as u32);
            }
            for c in &slot.outs {
                prods[c.0 as usize].push(i as u32);
            }
            if slot
                .behavior
                .as_ref()
                .is_some_and(|b| b.may_stall_on_alloc())
            {
                alloc_waiters.push(i as u32);
            }
        }

        // Lowerable behaviors. Element-wise fusion additionally requires:
        // no allocator stalls (fused stages commit without a stall check),
        // ≥1 input (EwNode's own invariant), unbounded outputs (fused
        // pushes skip room checks), and a spec/wiring port-count match.
        let mut ew_spec: Vec<Option<EwLowering>> = (0..n).map(|_| None).collect();
        let mut sink_ok = vec![false; n];
        for (i, slot) in nodes.iter().enumerate() {
            let Some(b) = slot.behavior.as_ref() else {
                continue;
            };
            match b.fused_spec() {
                Some(FusedSpec::Ew {
                    instrs,
                    outputs,
                    reg_count,
                }) if !b.may_stall_on_alloc()
                    && !slot.ins.is_empty()
                    && outputs.len() == slot.outs.len()
                    && slot
                        .outs
                        .iter()
                        .all(|c| chans[c.0 as usize].capacity.is_none()) =>
                {
                    ew_spec[i] = Some((instrs, outputs, reg_count));
                }
                Some(FusedSpec::Sink) if slot.ins.len() == 1 => sink_ok[i] = true,
                _ => {}
            }
        }

        // Straight-line chaining: i → j when i's single output channel has
        // exactly the producer {i} and consumer {j}, and j's single input
        // is that channel. Both ends must be fusable element-wise stages.
        let mut succ: Vec<Option<u32>> = vec![None; n];
        let mut has_pred = vec![false; n];
        for (i, slot) in nodes.iter().enumerate() {
            if ew_spec[i].is_none() || slot.outs.len() != 1 {
                continue;
            }
            let c = slot.outs[0].0 as usize;
            let (p, s) = (&prods[c], &cons[c]);
            if p.len() != 1 || s.len() != 1 {
                continue;
            }
            let j = s[0] as usize;
            if j == i || ew_spec[j].is_none() || nodes[j].ins.len() != 1 {
                continue;
            }
            succ[i] = Some(j as u32);
            has_pred[j] = true;
        }

        // Walk chains from their heads. Fusable nodes on a pure cycle have
        // no head; they fall out of the walk and become singleton segments
        // below, which is always safe (a one-stage segment is just the
        // node's own semantics minus dispatch overhead).
        let mut kinds = vec![PlanKind::Boxed; n];
        let mut wake_target: Vec<u32> = (0..n as u32).collect();
        let mut seg_bounds: Vec<u32> = vec![0];
        let mut stages: Vec<Stage> = Vec::new();
        let mut ports: Vec<ChanId> = Vec::new();
        let mut micro: Vec<EwInstr> = Vec::new();
        let mut outs: Vec<PlanOut> = Vec::new();
        let mut assigned = vec![false; n];
        let mut stats = PlanStats {
            nodes: n,
            ..PlanStats::default()
        };

        let mut emit_segment = |head: usize,
                                ew_spec: &mut Vec<Option<EwLowering>>,
                                kinds: &mut Vec<PlanKind>,
                                wake_target: &mut Vec<u32>,
                                assigned: &mut Vec<bool>| {
            let seg = seg_bounds.len() as u32 - 1;
            let mut i = head;
            let mut seg_len = 0usize;
            loop {
                assigned[i] = true;
                kinds[i] = PlanKind::Seg(seg);
                wake_target[i] = head as u32;
                let (instrs, specs, reg_count) = ew_spec[i].take().expect("walk stays fusable");
                let slot = &nodes[i];
                let next = succ[i].filter(|&j| !assigned[j as usize]);
                let ins = (ports.len() as u32, (ports.len() + slot.ins.len()) as u32);
                ports.extend_from_slice(&slot.ins);
                let ir = (micro.len() as u32, (micro.len() + instrs.len()) as u32);
                micro.extend(instrs);
                let or = (outs.len() as u32, (outs.len() + specs.len()) as u32);
                for (o, spec) in specs.into_iter().enumerate() {
                    outs.push(PlanOut {
                        slots: spec.slots.into_boxed_slice(),
                        pred: spec.pred,
                        strip_barriers: spec.strip_barriers,
                        chan: slot.outs[o],
                        // The forwarding edge to the chained next stage is
                        // drained within this same firing — no wake needed.
                        wake: next.is_none(),
                    });
                }
                stages.push(Stage {
                    node: i as u32,
                    ins,
                    instrs: ir,
                    outs: or,
                    reg_count,
                });
                seg_len += 1;
                stats.fused_ew += 1;
                match next {
                    Some(j) => i = j as usize,
                    None => break,
                }
            }
            seg_bounds.push(stages.len() as u32);
            stats.segments += 1;
            stats.longest_segment = stats.longest_segment.max(seg_len);
        };

        for i in 0..n {
            if ew_spec[i].is_some() && !has_pred[i] {
                emit_segment(i, &mut ew_spec, &mut kinds, &mut wake_target, &mut assigned);
            }
        }
        // Cycle leftovers: fusable but every member has a predecessor.
        for i in 0..n {
            if ew_spec[i].is_some() && !assigned[i] {
                emit_segment(i, &mut ew_spec, &mut kinds, &mut wake_target, &mut assigned);
            }
        }
        for i in 0..n {
            if assigned[i] {
                continue;
            }
            if sink_ok[i] {
                kinds[i] = PlanKind::Sink(nodes[i].ins[0]);
                stats.fused_sinks += 1;
            } else {
                stats.boxed += 1;
            }
        }

        // Flatten the endpoint lists into offset+data arrays.
        let flatten = |lists: &[Vec<u32>]| {
            let mut off = Vec::with_capacity(lists.len() + 1);
            let mut data = Vec::new();
            off.push(0u32);
            for l in lists {
                data.extend_from_slice(l);
                off.push(data.len() as u32);
            }
            (data, off)
        };
        let (consumers, cons_off) = flatten(&cons);
        let (producers, prod_off) = flatten(&prods);

        let max_regs = stages
            .iter()
            .map(|s| s.reg_count as usize)
            .max()
            .unwrap_or(0);
        let max_in = nodes.iter().map(|s| s.ins.len()).max().unwrap_or(0);
        let max_out = nodes.iter().map(|s| s.outs.len()).max().unwrap_or(0);

        ExecPlan {
            node_count: n,
            chan_count: chans.len(),
            kinds,
            wake_target,
            seg_bounds,
            stages,
            ports,
            micro,
            outs,
            consumers,
            cons_off,
            producers,
            prod_off,
            alloc_waiters,
            max_regs,
            max_in,
            max_out,
            stats,
        }
    }

    /// Static shape counters (how much of the graph runs fused).
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    #[inline]
    fn consumers_of(&self, c: ChanId) -> &[u32] {
        let i = c.0 as usize;
        &self.consumers[self.cons_off[i] as usize..self.cons_off[i + 1] as usize]
    }

    #[inline]
    fn producers_of(&self, c: ChanId) -> &[u32] {
        let i = c.0 as usize;
        &self.producers[self.prod_off[i] as usize..self.prod_off[i + 1] as usize]
    }

    /// The shape fingerprint check [`Graph::run`] makes before running
    /// through this plan.
    pub(crate) fn check_shape(&self, g: &Graph) -> Result<(), MachineError> {
        if g.node_count() == self.node_count && g.chan_count() == self.chan_count {
            return Ok(());
        }
        Err(MachineError::new(format!(
            "execution plan shape mismatch: plan for {} nodes/{} chans, graph has {}/{}",
            self.node_count,
            self.chan_count,
            g.node_count(),
            g.chan_count()
        )))
    }

    /// The plan executor's drain loop, called by [`Graph::run`] (which owns
    /// the shape check, the first-run/resume decision and the quiescence
    /// verdict): fires woken segments, sinks and boxed nodes until no wake
    /// is pending. With an enabled `obs`, dispatches, segment fires, sink
    /// drains, classified wakes and per-node stall attribution are
    /// recorded; the no-op sink costs one predictable branch per event
    /// site.
    pub(crate) fn drain(
        &self,
        g: &mut Graph,
        first: bool,
        max_rounds: u64,
        obs: &ObsSink,
    ) -> Result<ExecReport, MachineError> {
        let n = self.node_count;

        // Capture sink handles up front (behaviors stay boxed; the fused
        // path only needs the shared buffer).
        let mut sinks: Vec<Option<SinkHandle>> = vec![None; n];
        for (i, kind) in self.kinds.iter().enumerate() {
            if let PlanKind::Sink(_) = kind {
                let b = g.nodes()[i].behavior.as_ref().ok_or_else(|| MachineError {
                    node: Some(g.nodes()[i].label.clone()),
                    message: "planned run started while a behavior is checked out".into(),
                })?;
                sinks[i] = Some(b.sink_handle().ok_or_else(|| MachineError {
                    node: Some(g.nodes()[i].label.clone()),
                    message: "plan is stale: sink node no longer exposes a handle".into(),
                })?);
            }
        }

        let mut regs = vec![Word::ZERO; self.max_regs];
        let mut ib = vec![PortBudget::UNLIMITED; self.max_in];
        let mut ob = vec![PortBudget::UNLIMITED; self.max_out];
        let mut events = IoEvents::default();
        let mut report = ExecReport::default();

        // Seeds map through `wake_target`, so segment members cost one bit.
        let mut ws = WakeSet::new(n);
        for id in g.seeds(first) {
            ws.seed(self.wake_target[id.0 as usize]);
        }

        loop {
            if report.rounds >= max_rounds {
                return Err(round_cap_error(max_rounds));
            }
            report.rounds += 1;
            let ready: u64 = ws.cur.iter().map(|w| w.count_ones() as u64).sum();
            report.peak_ready = report.peak_ready.max(ready);
            obs.round(ready);
            for w in 0..ws.cur.len() {
                while ws.cur[w] != 0 {
                    let b = ws.cur[w].trailing_zeros();
                    ws.cur[w] &= ws.cur[w] - 1;
                    let i = w * 64 + b as usize;
                    report.steps += 1;
                    let progressed = match self.kinds[i] {
                        PlanKind::Seg(s) => {
                            let p = self.fire_segment(s, g, &mut regs, &mut ws, obs)?;
                            if p {
                                let stages =
                                    self.seg_bounds[s as usize + 1] - self.seg_bounds[s as usize];
                                obs.segment_fire(s, stages);
                            }
                            p
                        }
                        PlanKind::Sink(c) => {
                            let p = self.fire_sink(
                                c,
                                sinks[i].as_ref().expect("captured"),
                                g,
                                &mut ws,
                                obs,
                            );
                            if p {
                                obs.sink_drain();
                            }
                            p
                        }
                        PlanKind::Boxed => self.fire_boxed(
                            i as u32,
                            g,
                            &mut ib,
                            &mut ob,
                            &mut events,
                            &mut ws,
                            obs,
                        )?,
                    };
                    if progressed {
                        report.productive_steps += 1;
                    }
                    obs.node_dispatch(i as u32, progressed);
                    if !progressed && obs.is_enabled() {
                        obs.stall(i as u32, g.classify_stall(NodeId(i as u32)));
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

    /// Fallback firing: identical to the interpreter's inner loop — budget
    /// refresh, traced step, event-driven wakes.
    fn fire_boxed(
        &self,
        i: u32,
        g: &mut Graph,
        ib: &mut [PortBudget],
        ob: &mut [PortBudget],
        events: &mut IoEvents,
        ws: &mut WakeSet,
        obs: &ObsSink,
    ) -> Result<bool, MachineError> {
        let idx = i as usize;
        let n_in = g.nodes()[idx].ins.len();
        let n_out = g.nodes()[idx].outs.len();
        for b in &mut ib[..n_in] {
            *b = PortBudget::UNLIMITED;
        }
        for b in &mut ob[..n_out] {
            *b = PortBudget::UNLIMITED;
        }
        let allocs_before = g.mem.alloc_push_ops();
        let progressed =
            g.step_node_traced(NodeId(i), &mut ib[..n_in], &mut ob[..n_out], events)?;
        for &c in &events.pushed {
            obs.channel_push(c.0);
            for &w in self.consumers_of(c) {
                let t = self.wake_target[w as usize];
                if ws.wake(t) {
                    obs.wake(t, WakeCause::TokenArrival);
                }
            }
        }
        for &c in &events.freed {
            for &w in self.producers_of(c) {
                let t = self.wake_target[w as usize];
                if ws.wake(t) {
                    obs.wake(t, WakeCause::CapacityRelease);
                }
            }
        }
        if g.mem.alloc_push_ops() != allocs_before {
            for &w in &self.alloc_waiters {
                let t = self.wake_target[w as usize];
                if ws.wake(t) {
                    obs.wake(t, WakeCause::AllocatorPush);
                }
            }
        }
        Ok(progressed)
    }

    /// Fused sink firing: drain the input channel into the handle under
    /// one lock.
    fn fire_sink(
        &self,
        c: ChanId,
        handle: &SinkHandle,
        g: &mut Graph,
        ws: &mut WakeSet,
        obs: &ObsSink,
    ) -> bool {
        let (chans, _) = g.chans_and_mem_mut();
        let chan = &mut chans[c.0 as usize];
        if chan.is_empty() {
            return false;
        }
        let was_full = chan.room() == 0;
        handle.collect_from(std::iter::from_fn(|| chan.pop()));
        obs.channel_pop(c.0);
        if was_full {
            for &w in self.producers_of(c) {
                let t = self.wake_target[w as usize];
                if ws.wake(t) {
                    obs.wake(t, WakeCause::CapacityRelease);
                }
            }
        }
        true
    }

    /// Fires a whole fused segment: stages run in chain order, each
    /// draining its input channels exactly as [`crate::nodes::EwNode`]
    /// would. Interior forwarding channels are filled by stage `k` and
    /// drained by stage `k+1` within this same call.
    fn fire_segment(
        &self,
        seg: u32,
        g: &mut Graph,
        regs: &mut [Word],
        ws: &mut WakeSet,
        obs: &ObsSink,
    ) -> Result<bool, MachineError> {
        let allocs_before = g.mem.alloc_push_ops();
        let range =
            self.seg_bounds[seg as usize] as usize..self.seg_bounds[seg as usize + 1] as usize;
        let mut progressed = false;
        for st in &self.stages[range] {
            progressed |= self.fire_stage(st, g, regs, ws, obs)?;
        }
        // Fused micro-ops may AllocPush (returns are non-stalling); that
        // state change is invisible on the channel network, so mirror the
        // interpreter's allocator wake.
        if g.mem.alloc_push_ops() != allocs_before {
            for &w in &self.alloc_waiters {
                let t = self.wake_target[w as usize];
                if ws.wake(t) {
                    obs.wake(t, WakeCause::AllocatorPush);
                }
            }
        }
        Ok(progressed)
    }

    /// One stage's firing loop — the fused replica of `EwNode::step` with
    /// a reused scratch register window and direct channel access.
    fn fire_stage(
        &self,
        st: &Stage,
        g: &mut Graph,
        regs: &mut [Word],
        ws: &mut WakeSet,
        obs: &ObsSink,
    ) -> Result<bool, MachineError> {
        let ins = &self.ports[st.ins.0 as usize..st.ins.1 as usize];
        let instrs = &self.micro[st.instrs.0 as usize..st.instrs.1 as usize];
        let outs = &self.outs[st.outs.0 as usize..st.outs.1 as usize];
        let regs = &mut regs[..st.reg_count as usize];
        let (chans, mem, slots) = g.split_mut();
        let mut progressed = false;
        'outer: loop {
            // Classify all input fronts.
            let mut min_bar: Option<BarrierLevel> = None;
            let mut all_data = true;
            for &c in ins {
                match chans[c.0 as usize].front() {
                    None => break 'outer,
                    Some(Tok::Data(_)) => {}
                    Some(Tok::Barrier(l)) => {
                        all_data = false;
                        min_bar = Some(min_bar.map_or(*l, |m: BarrierLevel| m.min(*l)));
                    }
                }
            }
            if all_data {
                // Eligibility guarantees unbounded outputs and no
                // allocator stalls: commit unconditionally.
                regs.fill(Word::ZERO);
                let mut cursor = 0usize;
                for &c in ins {
                    let chan = &mut chans[c.0 as usize];
                    let was_full = chan.room() == 0;
                    match chan.pop().expect("front checked") {
                        Tok::Data(vals) => {
                            for v in vals {
                                regs[cursor] = v;
                                cursor += 1;
                            }
                        }
                        Tok::Barrier(_) => unreachable!("front changed between peek and pop"),
                    }
                    if was_full {
                        for &w in self.producers_of(c) {
                            let t = self.wake_target[w as usize];
                            if ws.wake(t) {
                                obs.wake(t, WakeCause::CapacityRelease);
                            }
                        }
                    }
                }
                exec_instrs(instrs, regs, mem);
                for o in outs {
                    let fire = o
                        .pred
                        .map_or(true, |(r, expect)| regs[r as usize].as_bool() == expect);
                    if fire {
                        let tuple: Vec<Word> = o.slots.iter().map(|&s| regs[s as usize]).collect();
                        chans[o.chan.0 as usize].push(Tok::Data(tuple));
                        if o.wake {
                            for &w in self.consumers_of(o.chan) {
                                let t = self.wake_target[w as usize];
                                if ws.wake(t) {
                                    obs.wake(t, WakeCause::TokenArrival);
                                }
                            }
                        }
                    }
                }
                progressed = true;
            } else {
                // Mixed data/barrier fronts are a structure mismatch, the
                // same hard error the interpreted node raises.
                for (i, &c) in ins.iter().enumerate() {
                    if chans[c.0 as usize].front().is_some_and(|t| t.is_data()) {
                        return Err(MachineError {
                            node: Some(slots[st.node as usize].label.clone()),
                            message: format!(
                                "zip structure mismatch: input {i} has data while another \
                                 input has a barrier"
                            ),
                        });
                    }
                }
                let level = min_bar.expect("at least one barrier front");
                for &c in ins {
                    let chan = &mut chans[c.0 as usize];
                    if chan.front().and_then(|t| t.barrier_level()) == Some(level) {
                        let was_full = chan.room() == 0;
                        chan.pop();
                        if was_full {
                            for &w in self.producers_of(c) {
                                let t = self.wake_target[w as usize];
                                if ws.wake(t) {
                                    obs.wake(t, WakeCause::CapacityRelease);
                                }
                            }
                        }
                    }
                }
                for o in outs {
                    if !o.strip_barriers {
                        chans[o.chan.0 as usize].push(Tok::Barrier(level));
                        if o.wake {
                            for &w in self.consumers_of(o.chan) {
                                let t = self.wake_target[w as usize];
                                if ws.wake(t) {
                                    obs.wake(t, WakeCause::TokenArrival);
                                }
                            }
                        }
                    }
                }
                progressed = true;
            }
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::instr::{AluOp, Operand};
    use crate::nodes::{EwNode, SinkNode, SourceNode};
    use crate::tuple::{tbar, tdata, TTok};
    use crate::RunOptions;

    /// One-shot run, report only: through `plan`, or interpreted.
    fn one_shot(
        g: &mut Graph,
        plan: Option<&ExecPlan>,
        max_rounds: u64,
    ) -> Result<ExecReport, MachineError> {
        g.run(RunOptions {
            plan,
            ..RunOptions::new(max_rounds)
        })
        .map(|(report, _)| report)
    }

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

    /// src → ew ×3 → sink, optionally with a bounded middle channel.
    fn chain(bounded_mid: Option<usize>) -> (Graph, crate::nodes::SinkHandle) {
        let mut g = Graph::new();
        let toks: Vec<TTok> = (0..8u32).map(|i| tdata([i])).chain([tbar(1)]).collect();
        let mut prev = g.add_chan(Channel::new(1));
        g.add_node("src", Box::new(SourceNode::new(toks)), vec![], vec![prev]);
        for i in 0..3 {
            let mut c = Channel::new(1);
            if i == 1 {
                if let Some(cap) = bounded_mid {
                    c = c.with_capacity(cap);
                }
            }
            let next = g.add_chan(c);
            g.add_node(
                format!("stage{i}"),
                Box::new(add_one()),
                vec![prev],
                vec![next],
            );
            prev = next;
        }
        let (sink, h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![prev], vec![]);
        (g, h)
    }

    #[test]
    fn fused_pipeline_matches_interpreted() {
        let (mut gi, hi) = chain(None);
        let ri = one_shot(&mut gi, None, 10_000).unwrap();
        let (mut gp, hp) = chain(None);
        let plan = ExecPlan::build(&gp);
        let stats = plan.stats();
        assert_eq!(stats.fused_ew, 3, "all three stages fuse");
        assert_eq!(stats.segments, 1, "one straight-line segment");
        assert_eq!(stats.longest_segment, 3);
        assert_eq!(stats.fused_sinks, 1);
        assert_eq!(stats.boxed, 1, "only the source stays boxed");
        let rp = one_shot(&mut gp, Some(&plan), 10_000).unwrap();
        assert_eq!(hi.tokens(), hp.tokens());
        assert!(rp.productive_steps > 0);
        assert!(
            rp.steps < ri.steps,
            "planned dispatches ({}) should undercut interpreted ({})",
            rp.steps,
            ri.steps
        );
    }

    #[test]
    fn bounded_output_falls_back_but_still_runs() {
        // A bounded middle channel disqualifies its producer stage from
        // fusing (fused pushes skip room checks); the plan must still
        // finish via the boxed fallback with back-pressure wakes.
        let (mut gi, hi) = chain(Some(1));
        one_shot(&mut gi, None, 10_000).unwrap();
        let (mut gp, hp) = chain(Some(1));
        let plan = ExecPlan::build(&gp);
        assert!(
            plan.stats().boxed >= 2,
            "source + the bounded-output stage stay boxed: {:?}",
            plan.stats()
        );
        one_shot(&mut gp, Some(&plan), 10_000).unwrap();
        assert_eq!(hi.tokens(), hp.tokens());
    }

    #[test]
    fn filtered_and_stripped_outputs_fuse() {
        // A two-output stage (filter partition, one side stripping
        // barriers) fuses as a singleton segment; both sinks fuse too.
        let build = || {
            let mut g = Graph::new();
            let c0 = g.add_chan(Channel::new(1));
            let lo = g.add_chan(Channel::new(1));
            let hi = g.add_chan(Channel::new(1));
            let toks: Vec<TTok> = (0..10u32).map(|i| tdata([i])).chain([tbar(1)]).collect();
            g.add_node("src", Box::new(SourceNode::new(toks)), vec![], vec![c0]);
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
                        slots: vec![0],
                        pred: Some((1, false)),
                        strip_barriers: true,
                    },
                ],
            );
            g.add_node("split", Box::new(split), vec![c0], vec![lo, hi]);
            let (s0, h0) = SinkNode::new();
            g.add_node("sink.lo", Box::new(s0), vec![lo], vec![]);
            let (s1, h1) = SinkNode::new();
            g.add_node("sink.hi", Box::new(s1), vec![hi], vec![]);
            (g, h0, h1)
        };
        let (mut gi, i0, i1) = build();
        one_shot(&mut gi, None, 10_000).unwrap();
        let (mut gp, p0, p1) = build();
        let plan = ExecPlan::build(&gp);
        assert_eq!(plan.stats().fused_ew, 1);
        assert_eq!(plan.stats().fused_sinks, 2);
        one_shot(&mut gp, Some(&plan), 10_000).unwrap();
        assert_eq!(i0.tokens(), p0.tokens());
        assert_eq!(i1.tokens(), p1.tokens());
        assert!(!p1.tokens().iter().any(|t| t.is_barrier()), "stripped side");
    }

    #[test]
    fn zip_head_waits_for_lockstep() {
        let build = || {
            let mut g = Graph::new();
            let a = g.add_chan(Channel::new(1));
            let b = g.add_chan(Channel::new(1));
            let out = g.add_chan(Channel::new(2));
            g.add_node(
                "src.a",
                Box::new(SourceNode::new(vec![tdata([1u32]), tdata([2u32]), tbar(1)])),
                vec![],
                vec![a],
            );
            g.add_node(
                "src.b",
                Box::new(SourceNode::new(vec![
                    tdata([10u32]),
                    tdata([20u32]),
                    tbar(1),
                ])),
                vec![],
                vec![b],
            );
            g.add_node(
                "zip",
                Box::new(EwNode::passthrough(2)),
                vec![a, b],
                vec![out],
            );
            let (sink, h) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![out], vec![]);
            (g, h)
        };
        let (mut gi, hi) = build();
        one_shot(&mut gi, None, 10_000).unwrap();
        let (mut gp, hp) = build();
        let plan = ExecPlan::build(&gp);
        assert_eq!(plan.stats().fused_ew, 1, "a zip head fuses too");
        one_shot(&mut gp, Some(&plan), 10_000).unwrap();
        assert_eq!(hi.tokens(), hp.tokens());
        assert_eq!(
            hp.tokens(),
            vec![tdata([1u32, 10u32]), tdata([2u32, 20u32]), tbar(1)]
        );
    }

    #[test]
    fn alloc_stalling_stage_stays_boxed_and_matches() {
        let build = || {
            let mut g = Graph::new();
            let a = g.mem.add_alloc("bufs", 2);
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            g.add_node(
                "src",
                Box::new(SourceNode::new(vec![tdata([7u32]), tdata([8u32]), tbar(1)])),
                vec![],
                vec![c0],
            );
            let alloc_stage = EwNode::new(
                1,
                vec![EwInstr::AllocPop { alloc: a, dst: 1 }],
                vec![OutputSpec::plain([1])],
            );
            g.add_node("alloc", Box::new(alloc_stage), vec![c0], vec![c1]);
            let (sink, h) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![c1], vec![]);
            (g, h)
        };
        let (mut gi, hi) = build();
        one_shot(&mut gi, None, 10_000).unwrap();
        let (mut gp, hp) = build();
        let plan = ExecPlan::build(&gp);
        assert_eq!(
            plan.stats().fused_ew,
            0,
            "AllocPop stages must not fuse (stall check needs the boxed path)"
        );
        one_shot(&mut gp, Some(&plan), 10_000).unwrap();
        assert_eq!(hi.tokens(), hp.tokens());
        assert_eq!(gi.mem.dram, gp.mem.dram);
    }

    #[test]
    fn planned_deadlock_matches_interpreted_diagnosis() {
        let build = || {
            let mut g = Graph::new();
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            let c2 = g.add_chan(Channel::new(2));
            g.add_node(
                "src",
                Box::new(SourceNode::new(vec![tdata([1u32])])),
                vec![],
                vec![c0],
            );
            g.add_node(
                "zip",
                Box::new(EwNode::passthrough(2)),
                vec![c0, c1],
                vec![c2],
            );
            let (sink, _h) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![c2], vec![]);
            g
        };
        let ei = one_shot(&mut build(), None, 100).unwrap_err();
        let mut gp = build();
        let plan = ExecPlan::build(&gp);
        let ep = one_shot(&mut gp, Some(&plan), 100).unwrap_err();
        assert_eq!(ei, ep, "identical deadlock diagnosis");
        assert!(ep.message.contains("deadlock"), "got: {ep}");
    }

    #[test]
    fn planned_round_cap_reported() {
        let (mut g, _h) = chain(None);
        let plan = ExecPlan::build(&g);
        let err = one_shot(&mut g, Some(&plan), 0).unwrap_err();
        assert!(err.message.contains("no quiescence"), "got: {err}");
    }

    #[test]
    fn plan_shape_mismatch_is_an_error() {
        let (g, _h) = chain(None);
        let plan = ExecPlan::build(&g);
        let mut other = Graph::new();
        let c = other.add_chan(Channel::new(1));
        other.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c],
        );
        let err = one_shot(&mut other, Some(&plan), 100).unwrap_err();
        assert!(err.message.contains("shape mismatch"), "got: {err}");
    }

    #[test]
    fn plan_reusable_across_fresh_instances() {
        let (mut template, _h) = chain(None);
        template.finalize_topology();
        let plan = ExecPlan::build(&template);
        for _ in 0..3 {
            let mut inst = template.fresh_instance();
            one_shot(&mut inst, Some(&plan), 10_000).unwrap();
            let h = inst
                .nodes()
                .iter()
                .find_map(|s| s.behavior.as_ref().unwrap().sink_handle())
                .expect("instance has a sink");
            let toks = h.tokens();
            assert_eq!(toks.len(), 9, "8 data + 1 barrier");
            assert_eq!(toks[0], tdata([3u32]), "0 + 1+1+1 through the segment");
        }
    }

    #[test]
    fn self_loop_segment_parity_with_interpreted() {
        // A zip whose second input is its own output (seeded with one
        // token): the chain rule must not mark the backedge as internal,
        // and both executors must agree — including on the final
        // leftover-token deadlock diagnosis.
        let build = || {
            let mut g = Graph::new();
            let a = g.add_chan(Channel::new(1));
            let loopback = g.add_chan(Channel::new(1).without_canonicalization());
            let out = g.add_chan(Channel::new(1));
            g.add_node(
                "src",
                Box::new(SourceNode::new(vec![
                    tdata([1u32]),
                    tdata([2u32]),
                    tdata([3u32]),
                ])),
                vec![],
                vec![a],
            );
            // acc' = acc + x; emits acc' to both the loop and the sink.
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
            g.add_node("acc", Box::new(acc), vec![a, loopback], vec![loopback, out]);
            g.chan_mut(loopback).push(tdata([0u32])); // seed
            let (sink, h) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![out], vec![]);
            (g, h)
        };
        let (mut gi, hi) = build();
        let ei = one_shot(&mut gi, None, 10_000);
        let (mut gp, hp) = build();
        let plan = ExecPlan::build(&gp);
        let ep = one_shot(&mut gp, Some(&plan), 10_000);
        // The seeded loop token survives the run on both paths: identical
        // diagnosis, identical sink streams, identical leftovers.
        assert_eq!(ei.unwrap_err(), ep.unwrap_err());
        assert_eq!(hi.tokens(), hp.tokens());
        assert_eq!(
            hp.tokens(),
            vec![tdata([1u32]), tdata([3u32]), tdata([6u32])]
        );
        assert_eq!(
            gi.chan_mut(ChanId(1)).drain_all(),
            gp.chan_mut(ChanId(1)).drain_all()
        );
    }
}
