//! Dataflow graphs of streaming nodes and the untimed executor.
//!
//! A [`Graph`] owns nodes, channels, and the shared [`MemoryState`]. The
//! untimed executor runs it as a Kahn-style process network until
//! quiescence. It is the *functional reference* for compiled programs; the
//! cycle-level simulator (crate `revet-sim`) re-executes the same graph
//! under timing constraints.
//!
//! ## One way in
//!
//! [`Graph::run`] is the only untimed entry point; [`RunOptions`] carries
//! the four axes a run can vary on (plan or interpreted, one-shot or
//! resumable, the observability sink, the round cap — tabulated in the
//! crate docs). The protocol decisions live in `run` itself, once, around
//! a `match` on the plan: the plan shape check, topology finalisation,
//! which nodes a resumed run re-seeds ([`ResumeState`]), the round-cap
//! error and the quiescence verdict. The two executors only contribute
//! their drain loops.
//!
//! ## Event-driven scheduling
//!
//! Both executors are driven by token availability, not dense sweeps. A
//! precomputed [`TopologyIndex`] maps every channel to its producer and
//! consumer nodes; [`IoEvents`] records which channels gained tokens or
//! regained capacity during a step. The executor keeps a ready worklist and
//! re-enqueues a node only when
//!
//! 1. one of its **input channels gains a token** (it may now fire),
//! 2. one of its **output channels regains capacity** after being full
//!    (back-pressure release — only possible on bounded channels), or
//! 3. a pointer is **pushed to an allocator queue** and the node declares
//!    [`Node::may_stall_on_alloc`] (allocator releases are the one
//!    progress-enabling state change invisible on the channel network).
//!
//! Because nodes are Kahn processes (blocking reads, no sampling of
//! channel emptiness), the final token streams and memory state are
//! independent of the order in which ready nodes are drained; only the
//! amount of scheduler work changes. The dense-sweep oracle
//! ([`crate::reference::run_dense`]) pins that equivalence in tests.

use crate::channel::Channel;
use crate::mem::MemoryState;
use crate::node::{ChanId, IoEvents, MachineError, Node, NodeId, NodeIo, PortBudget};
use revet_obs::{ObsSink, StallClass, WakeCause};
use revet_sltf::Word;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// What kind of physical unit a node maps to (§VI-A: CUs, MUs, AGs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum UnitClass {
    /// Compute unit (pipeline stages, merges, counters, filters).
    #[default]
    Compute,
    /// Memory unit (SRAM access, allocator queues, retiming buffers).
    Memory,
    /// DRAM address generator.
    AddressGen,
    /// Not a physical unit (sources/sinks used for test harnesses).
    Virtual,
}

/// A node slot: behavior plus wiring and placement metadata. The wiring
/// and the label never change once the node is added, so every instance
/// of a compiled graph shares them ([`Graph::fresh_instance`]).
pub struct NodeSlot {
    /// The behavior (taken out while stepping).
    pub behavior: Option<Box<dyn Node>>,
    /// Input channels, in port order.
    pub ins: Arc<[ChanId]>,
    /// Output channels, in port order.
    pub outs: Arc<[ChanId]>,
    /// Debug label ("bb3.filter", "loop2.head", …).
    pub label: Arc<str>,
    /// Streaming-context id assigned by the compiler (groups nodes that fuse
    /// into one physical unit); `u32::MAX` = unassigned.
    pub context: u32,
    /// Placement class.
    pub unit: UnitClass,
}

impl fmt::Debug for NodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeSlot")
            .field("label", &self.label)
            .field("ins", &self.ins)
            .field("outs", &self.outs)
            .field("context", &self.context)
            .field("unit", &self.unit)
            .finish()
    }
}

/// Precomputed channel-endpoint index: who produces into and consumes from
/// every channel, plus which nodes can stall on allocator queues.
///
/// Built once per wiring ([`Graph::finalize_topology`], called by the
/// compiler when it finishes a [`Graph`]); invalidated by any later
/// `add_node`/`add_chan`. Shared by the untimed executor and the
/// cycle-level simulator for ready-set wake-ups and one-pass deadlock
/// diagnosis.
#[derive(Debug, Clone, Default)]
pub struct TopologyIndex {
    /// Per channel: nodes reading it (almost always exactly one).
    consumers: Vec<Vec<NodeId>>,
    /// Per channel: nodes writing it (almost always exactly one).
    producers: Vec<Vec<NodeId>>,
    /// Nodes whose behavior may stall on allocator availability.
    alloc_waiters: Vec<NodeId>,
}

impl TopologyIndex {
    fn build(nodes: &[NodeSlot], chan_count: usize) -> Self {
        let mut consumers = vec![Vec::new(); chan_count];
        let mut producers = vec![Vec::new(); chan_count];
        let mut alloc_waiters = Vec::new();
        for (i, slot) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            for c in slot.ins.iter() {
                consumers[c.0 as usize].push(id);
            }
            for c in slot.outs.iter() {
                producers[c.0 as usize].push(id);
            }
            if slot
                .behavior
                .as_ref()
                .is_some_and(|b| b.may_stall_on_alloc())
            {
                alloc_waiters.push(id);
            }
        }
        TopologyIndex {
            consumers,
            producers,
            alloc_waiters,
        }
    }

    /// Nodes consuming from channel `c`.
    pub fn consumers(&self, c: ChanId) -> &[NodeId] {
        &self.consumers[c.0 as usize]
    }

    /// Nodes producing into channel `c`.
    pub fn producers(&self, c: ChanId) -> &[NodeId] {
        &self.producers[c.0 as usize]
    }

    /// Nodes that can stall on allocator-queue availability.
    pub fn alloc_waiters(&self) -> &[NodeId] {
        &self.alloc_waiters
    }
}

/// A dataflow graph: nodes, channels, and shared memory.
///
/// A graph is **per-instance execution state**: node behaviors, channel
/// queues, and [`MemoryState`] all mutate as the graph runs. The one
/// exception is the [`TopologyIndex`], which depends only on the wiring and
/// is held behind an [`Arc`] so every instance cloned from one compiled
/// graph ([`Graph::fresh_instance`]) shares a single copy. Graphs are
/// `Send` (every [`Node`] is `Send + Sync`), so instances can run on
/// worker threads.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<NodeSlot>,
    chans: Vec<Channel>,
    /// Shared DRAM / SRAM / allocator state.
    pub mem: MemoryState,
    /// Channel-endpoint index, shared across instances of the same wiring;
    /// `None` until finalized or after rewiring.
    topo: Option<Arc<TopologyIndex>>,
    /// Register scratch lent to each stepped node ([`crate::Ports::scratch`]).
    scratch: Vec<Word>,
}

/// How an untimed run ended.
///
/// `Finished` means quiescence with every consumer-attached channel
/// drained. `Paused` means quiescence with tokens still pending; only a
/// run given a [`ResumeState`] returns it (under streaming that is
/// "waiting for more input"), and a one-shot run reports the same state
/// as the deadlock error ([`Graph::deadlock`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Clean quiescence: all consumer-attached channels drained.
    Finished,
    /// Quiescence with tokens still queued — resumable once more input
    /// is pushed onto an input channel ([`Graph::chan_mut`]).
    Paused,
}

/// Reusable scheduler state for resumable (streaming) execution.
///
/// A fresh state makes the first run identical to a one-shot run: every
/// node is seeded into the worklist. Subsequent runs on the same state
/// re-seed the two places progress-enabling state can hide while the
/// graph is quiescent: consumers of a **non-empty input channel** (input
/// arrives by a push onto a channel, which is how streaming sessions
/// feed) and **allocator waiters** (a returned pointer is invisible on
/// the channel network). A [`crate::nodes::SourceNode`] stalled on a full
/// bounded output needs no third rule: that channel is non-empty, so its
/// consumer is seeded, and the consumer's pop is a capacity-release wake
/// of the source. Spurious seeds are harmless (an unproductive step). The
/// interpreted executor's worklist buffers live here so repeated polls
/// never reallocate (the plan executor keeps its own bitmap and uses only
/// the started flag); one state must only ever drive the graph it was
/// first run against.
#[derive(Debug, Default)]
pub struct ResumeState {
    started: bool,
    current: VecDeque<u32>,
    next: VecDeque<u32>,
    queued: Vec<bool>,
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
}

/// The four axes one untimed run can vary on (see the module docs for
/// the table). `RunOptions::new(max_rounds)` is the interpreted, one-shot,
/// unobserved run; set the other fields with struct-update syntax.
#[derive(Debug)]
pub struct RunOptions<'a> {
    /// The prebuilt execution plan to run through (it must have been built
    /// from a graph with this wiring); `None` selects the interpreted
    /// ready-set executor, the reference lane.
    pub plan: Option<&'a crate::ExecPlan>,
    /// Suspend-at-quiescence: with a state, leftover tokens end the run as
    /// [`RunStatus::Paused`] and the same state must be passed to every
    /// run of the session; without one they are the deadlock error.
    pub resume: Option<&'a mut ResumeState>,
    /// Observability sink; [`ObsSink::noop`] keeps the hot path at one
    /// predictable branch per event site.
    pub obs: &'a ObsSink,
    /// Livelock cap on scheduler generations.
    pub max_rounds: u64,
}

impl RunOptions<'_> {
    /// Interpreted, one-shot, no-op sink.
    pub fn new(max_rounds: u64) -> Self {
        RunOptions {
            plan: None,
            resume: None,
            obs: ObsSink::noop(),
            max_rounds,
        }
    }
}

/// The round-cap (suspected livelock) error both drain loops raise.
pub(crate) fn round_cap_error(max_rounds: u64) -> MachineError {
    MachineError::new(format!(
        "no quiescence after {max_rounds} rounds (livelock or huge workload)"
    ))
}

/// Summary of an untimed run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecReport {
    /// Scheduler generations executed (worklist drains; comparable to the
    /// dense sweep's rounds — the livelock cap counts these).
    pub rounds: u64,
    /// Node steps that made progress (moved at least one token).
    pub productive_steps: u64,
    /// Node steps attempted by the scheduler. The dense sweep attempts
    /// `rounds × nodes`; the ready-set executor only steps woken nodes, so
    /// this is the "work" a scheduler comparison should look at.
    pub steps: u64,
    /// High watermark of worklist occupancy at the start of any round — the
    /// peak instantaneous parallelism the scheduler saw. A **max-merged**
    /// watermark, not an additive counter.
    pub peak_ready: u64,
}

impl ExecReport {
    /// Fraction of attempted steps that made progress (1.0 when no steps
    /// were attempted — an empty run wastes nothing).
    pub fn productive_ratio(&self) -> f64 {
        if self.steps == 0 {
            1.0
        } else {
            self.productive_steps as f64 / self.steps as f64
        }
    }

    /// Folds another run's counters into this report — batch aggregation
    /// across program instances. The three step counters **add**; the
    /// `peak_ready` watermark merges by **max** (a peak observed by any
    /// instance is a peak of the batch — summing watermarks would invent a
    /// parallelism level no scheduler ever saw).
    pub fn merge(&mut self, other: &ExecReport) {
        self.rounds += other.rounds;
        self.productive_steps += other.productive_steps;
        self.steps += other.steps;
        self.peak_ready = self.peak_ready.max(other.peak_ready);
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a channel; returns its id.
    pub fn add_chan(&mut self, chan: Channel) -> ChanId {
        self.topo = None;
        let id = ChanId(self.chans.len() as u32);
        self.chans.push(chan);
        id
    }

    /// Adds a node wired to the given channels; returns its id. The label
    /// and the port lists go straight into their shared form (a `&str`,
    /// an array or a `Vec` all convert).
    pub fn add_node(
        &mut self,
        label: impl Into<Arc<str>>,
        behavior: Box<dyn Node>,
        ins: impl Into<Arc<[ChanId]>>,
        outs: impl Into<Arc<[ChanId]>>,
    ) -> NodeId {
        self.topo = None;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            behavior: Some(behavior),
            ins: ins.into(),
            outs: outs.into(),
            label: label.into(),
            context: u32::MAX,
            unit: UnitClass::Compute,
        });
        id
    }

    /// Sets placement metadata on a node.
    pub fn set_node_meta(&mut self, id: NodeId, context: u32, unit: UnitClass) {
        let slot = &mut self.nodes[id.0 as usize];
        slot.context = context;
        slot.unit = unit;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels.
    pub fn chan_count(&self) -> usize {
        self.chans.len()
    }

    /// Node slots (for inspection / placement / timing).
    pub fn nodes(&self) -> &[NodeSlot] {
        &self.nodes
    }

    /// A node slot by id.
    pub fn node(&self, id: NodeId) -> &NodeSlot {
        &self.nodes[id.0 as usize]
    }

    /// Channels (for inspection).
    pub fn chans(&self) -> &[Channel] {
        &self.chans
    }

    /// Mutable channel access (simulator wiring). Capacity/class changes do
    /// not alter endpoints, so the topology index stays valid.
    pub fn chan_mut(&mut self, id: ChanId) -> &mut Channel {
        &mut self.chans[id.0 as usize]
    }

    /// Split mutable access to the channel table, memory state and node
    /// slots — the plan executor fires a node's behavior against its own
    /// channels in one borrow scope.
    pub(crate) fn split_mut(&mut self) -> (&mut [Channel], &mut MemoryState, &mut [NodeSlot]) {
        (&mut self.chans, &mut self.mem, &mut self.nodes)
    }

    /// Builds (or reuses) the channel-endpoint index for the current wiring.
    /// The compiler calls this once when a program's graph is complete;
    /// executors call it defensively before running.
    pub fn finalize_topology(&mut self) -> &TopologyIndex {
        if self.topo.is_none() {
            self.topo = Some(Arc::new(TopologyIndex::build(
                &self.nodes,
                self.chans.len(),
            )));
        }
        self.topo.as_deref().expect("just built")
    }

    /// The topology index, if the current wiring has been finalized.
    pub fn topology(&self) -> Option<&TopologyIndex> {
        self.topo.as_deref()
    }

    /// A shared handle to the topology index of the current wiring: the
    /// finalized one when there is one (instances cloned from this graph
    /// hold the same `Arc`, so the index is computed once per compile, not
    /// once per instance), otherwise one built for the occasion — a graph
    /// that was never finalized still plans and diagnoses.
    pub fn topology_handle(&self) -> Arc<TopologyIndex> {
        self.topo
            .clone()
            .unwrap_or_else(|| Arc::new(TopologyIndex::build(&self.nodes, self.chans.len())))
    }

    /// Makes a fresh, independently runnable instance of this graph: node
    /// state, channel contents, SRAM and allocator queues are copied (wiring
    /// and labels are shared); the
    /// DRAM image is checked out of this graph's recycling pool
    /// ([`MemoryState::fresh_instance`]: byte-identical to the template's,
    /// at the cost of the pages its previous user dirtied); result-
    /// collecting sinks get **fresh, empty** buffers (instances never share
    /// result storage); the immutable [`TopologyIndex`] is shared via
    /// [`Arc`] rather than rebuilt.
    ///
    /// This is the machine half of the compile-once/run-many split: the
    /// compiler finishes a graph once, and the batch runtime instantiates
    /// it as many times, concurrently, as it needs.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside a node step (a behavior is
    /// checked out mid-step).
    pub fn fresh_instance(&self) -> Graph {
        Graph {
            nodes: self
                .nodes
                .iter()
                .map(|slot| NodeSlot {
                    behavior: Some(
                        slot.behavior
                            .as_ref()
                            .expect("fresh_instance during a node step")
                            .clone_node(),
                    ),
                    ins: slot.ins.clone(),
                    outs: slot.outs.clone(),
                    label: slot.label.clone(),
                    context: slot.context,
                    unit: slot.unit,
                })
                .collect(),
            chans: self.chans.clone(),
            mem: self.mem.fresh_instance(),
            topo: self.topo.clone(),
            scratch: Vec::new(),
        }
    }

    /// Steps one node once with the given port budgets. Returns whether the
    /// node made progress.
    ///
    /// # Errors
    ///
    /// Propagates node protocol errors, attributed with the node label; a
    /// reentrant step (behavior already checked out) is reported as a
    /// [`MachineError`] rather than a crash.
    pub fn step_node(
        &mut self,
        id: NodeId,
        in_budget: &mut [PortBudget],
        out_budget: &mut [PortBudget],
    ) -> Result<bool, MachineError> {
        self.step_node_inner(id, in_budget, out_budget, None)
    }

    /// Like [`Graph::step_node`], additionally recording channel gain/free
    /// events into `events` (cleared first) for ready-set scheduling.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::step_node`].
    pub fn step_node_traced(
        &mut self,
        id: NodeId,
        in_budget: &mut [PortBudget],
        out_budget: &mut [PortBudget],
        events: &mut IoEvents,
    ) -> Result<bool, MachineError> {
        events.clear();
        self.step_node_inner(id, in_budget, out_budget, Some(events))
    }

    fn step_node_inner(
        &mut self,
        id: NodeId,
        in_budget: &mut [PortBudget],
        out_budget: &mut [PortBudget],
        events: Option<&mut IoEvents>,
    ) -> Result<bool, MachineError> {
        let slot = &mut self.nodes[id.0 as usize];
        let Some(mut behavior) = slot.behavior.take() else {
            return Err(MachineError::new(
                "reentrant step: node behavior already checked out \
                 (a node stepped itself, or an executor re-entered the graph)",
            )
            .at(&slot.label));
        };
        let mut io = NodeIo::new(
            &mut self.chans,
            &slot.ins,
            &slot.outs,
            &mut self.mem,
            in_budget,
            out_budget,
        );
        if let Some(ev) = events {
            io = io.with_events(ev);
        }
        io.scratch = std::mem::take(&mut self.scratch);
        let result = behavior.step(&mut io);
        self.scratch = io.scratch;
        slot.behavior = Some(behavior);
        result.map_err(|e| e.at(&slot.label))
    }

    /// One-pass deadlock diagnosis over the consumer index: every non-empty
    /// channel that *has* a consumer is stuck (channels nobody reads —
    /// dangling outputs — may legally retain tokens). Returns one line per
    /// stuck channel with its consumer labels; an empty result means a
    /// clean drain.
    pub fn stuck_channels(&self) -> Vec<String> {
        let topo = self.topology_handle();
        let mut stuck = Vec::new();
        for (ci, chan) in self.chans.iter().enumerate() {
            if chan.is_empty() {
                continue;
            }
            let consumers = topo.consumers(ChanId(ci as u32));
            if consumers.is_empty() {
                continue;
            }
            let labels: Vec<&str> = consumers
                .iter()
                .map(|id| &*self.nodes[id.0 as usize].label)
                .collect();
            stuck.push(format!(
                "channel #{ci} -> '{}': {} tokens pending",
                labels.join(", "),
                chan.len()
            ));
        }
        stuck
    }

    /// The one-shot reading of a quiescent graph: `None` when every
    /// consumer-attached channel is drained, otherwise the deadlock error
    /// listing [`Graph::stuck_channels`]. [`Graph::run`] returns it for a
    /// run without a [`ResumeState`]; a streaming session that has to give
    /// up on a [`RunStatus::Paused`] graph calls it for the same text.
    pub fn deadlock(&self) -> Option<MachineError> {
        let stuck = self.stuck_channels();
        if stuck.is_empty() {
            return None;
        }
        Some(MachineError::new(format!(
            "deadlock at quiescence: {}",
            stuck.join("; ")
        )))
    }

    /// Runs the graph untimed (unbounded budgets) until quiescence — the
    /// one untimed entry point; see [`RunOptions`] for the four axes. Both
    /// executors are event-driven: a node is stepped only when an input
    /// channel gained tokens, an output channel regained capacity, or an
    /// allocator it can block on received a pointer (see module docs).
    ///
    /// With `resume`, leftover tokens at quiescence return
    /// [`RunStatus::Paused`] and every channel ring and node state stays
    /// live, ready to continue after more input is pushed onto an input
    /// channel.
    ///
    /// # Errors
    ///
    /// A plan built for different wiring, a node protocol error, the round
    /// cap (suspected livelock), and — without `resume` — the deadlock
    /// diagnosis listing all stuck channels.
    pub fn run(&mut self, opts: RunOptions<'_>) -> Result<(ExecReport, RunStatus), MachineError> {
        let RunOptions {
            plan,
            resume,
            obs,
            max_rounds,
        } = opts;
        if let Some(plan) = plan {
            plan.check_shape(self)?;
        }
        // The `Arc` clone keeps the graph mutably steppable while the
        // executor holds the index.
        self.finalize_topology();
        let topo = self.topo.clone().expect("just finalized");
        let suspend = resume.is_some();
        let mut one_shot = ResumeState::new();
        let resume = resume.unwrap_or(&mut one_shot);
        let first = !std::mem::replace(&mut resume.started, true);
        let report = match plan {
            Some(plan) => plan.drain(self, first, max_rounds, obs)?,
            None => self.drain_ready(&topo, resume, first, max_rounds, obs)?,
        };
        match self.deadlock() {
            None => Ok((report, RunStatus::Finished)),
            Some(_) if suspend => Ok((report, RunStatus::Paused)),
            Some(diagnosis) => Err(diagnosis),
        }
    }

    /// The nodes a run seeds its worklist with. First run: every node.
    /// Resumed run: consumers of non-empty channels and allocator waiters
    /// (the re-seed rule [`ResumeState`] documents).
    pub(crate) fn seeds(&self, first: bool) -> impl Iterator<Item = NodeId> + '_ {
        let can_progress = move |slot: &NodeSlot| {
            first
                || slot
                    .ins
                    .iter()
                    .any(|c| !self.chans[c.0 as usize].is_empty())
                || slot
                    .behavior
                    .as_ref()
                    .is_some_and(|b| b.may_stall_on_alloc())
        };
        (0..self.nodes.len())
            .filter(move |&i| can_progress(&self.nodes[i]))
            .map(|i| NodeId(i as u32))
    }

    /// Approximate resident heap bytes of this graph's mutable streaming
    /// state: queued channel tokens plus node-internal state (pending
    /// source input, collected sink output). Excludes the fixed-size
    /// memory image — per-session accounting wants the part that grows
    /// with buffered work.
    pub fn resident_bytes(&self) -> u64 {
        let chan_bytes: usize = self.chans.iter().map(Channel::resident_bytes).sum();
        let node_bytes: usize = self
            .nodes
            .iter()
            .filter_map(|s| s.behavior.as_ref())
            .map(|b| b.resident_bytes())
            .sum();
        (chan_bytes + node_bytes) as u64
    }

    /// Classifies why a node that was just stepped made no progress, by
    /// inspecting its channel endpoints: an empty input means
    /// **input-starved**; otherwise a bounded output at capacity means
    /// **output-full**; otherwise a node that can block on an allocator
    /// queue is **allocator-gated**. (DRAM gating exists only in the timed
    /// simulator, which attributes it at the deferral site.) Shared by the
    /// ready-set executor, the plan executor, and the simulator.
    pub fn classify_stall(&self, id: NodeId) -> StallClass {
        let slot = &self.nodes[id.0 as usize];
        if slot.ins.iter().any(|c| self.chans[c.0 as usize].is_empty()) {
            return StallClass::InputStarved;
        }
        if slot
            .outs
            .iter()
            .any(|c| self.chans[c.0 as usize].room() == 0)
        {
            return StallClass::OutputFull;
        }
        if slot
            .behavior
            .as_ref()
            .is_some_and(|b| b.may_stall_on_alloc())
        {
            return StallClass::AllocGated;
        }
        // No visibly blocked endpoint: the node is waiting for *more* input
        // than any one channel shows (e.g. a barrier-aligned zip).
        StallClass::InputStarved
    }

    /// The interpreted executor's drain loop: steps woken nodes through the
    /// boxed [`Node::step`] surface until the worklist is empty.
    fn drain_ready(
        &mut self,
        topo: &TopologyIndex,
        resume: &mut ResumeState,
        first: bool,
        max_rounds: u64,
        obs: &ObsSink,
    ) -> Result<ExecReport, MachineError> {
        let max_in = self.nodes.iter().map(|s| s.ins.len()).max().unwrap_or(0);
        let max_out = self.nodes.iter().map(|s| s.outs.len()).max().unwrap_or(0);
        // Reusable budget buffers: refreshed per step, never reallocated.
        let mut ib = vec![PortBudget::UNLIMITED; max_in];
        let mut ob = vec![PortBudget::UNLIMITED; max_out];
        let mut events = IoEvents::default();
        let mut report = ExecReport::default();

        // Generation-structured worklist: `current` is drained while wakes
        // accumulate in `next`; one drain ≈ one dense round for the livelock
        // cap. `queued` dedups membership across both queues. The buffers
        // live in `resume` (empty and all-false at quiescence, so a paused
        // run can hand them straight back).
        let ResumeState {
            current,
            next,
            queued,
            ..
        } = resume;
        queued.resize(self.nodes.len(), false);
        for id in self.seeds(first) {
            if !std::mem::replace(&mut queued[id.0 as usize], true) {
                current.push_back(id.0);
            }
        }

        while !current.is_empty() {
            if report.rounds >= max_rounds {
                return Err(round_cap_error(max_rounds));
            }
            report.rounds += 1;
            report.peak_ready = report.peak_ready.max(current.len() as u64);
            obs.round(current.len() as u64);
            while let Some(i) = current.pop_front() {
                let idx = i as usize;
                queued[idx] = false;
                let n_in = self.nodes[idx].ins.len();
                let n_out = self.nodes[idx].outs.len();
                for b in &mut ib[..n_in] {
                    *b = PortBudget::UNLIMITED;
                }
                for b in &mut ob[..n_out] {
                    *b = PortBudget::UNLIMITED;
                }
                let allocs_before = self.mem.alloc_push_ops();
                report.steps += 1;
                let progressed = self.step_node_traced(
                    NodeId(i),
                    &mut ib[..n_in],
                    &mut ob[..n_out],
                    &mut events,
                )?;
                if progressed {
                    report.productive_steps += 1;
                }
                obs.node_dispatch(i, progressed);
                if !progressed && obs.is_enabled() {
                    obs.stall(i, self.classify_stall(NodeId(i)));
                }
                let wake = |id: NodeId,
                            cause: WakeCause,
                            next: &mut VecDeque<u32>,
                            queued: &mut Vec<bool>| {
                    if !queued[id.0 as usize] {
                        queued[id.0 as usize] = true;
                        next.push_back(id.0);
                        obs.wake(id.0, cause);
                    }
                };
                for &c in &events.pushed {
                    obs.channel_push(c.0);
                    for &w in topo.consumers(c) {
                        wake(w, WakeCause::TokenArrival, next, queued);
                    }
                }
                for &c in &events.freed {
                    for &w in topo.producers(c) {
                        wake(w, WakeCause::CapacityRelease, next, queued);
                    }
                }
                if self.mem.alloc_push_ops() != allocs_before {
                    for &w in topo.alloc_waiters() {
                        wake(w, WakeCause::AllocatorPush, next, queued);
                    }
                }
            }
            std::mem::swap(current, next);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, EwInstr, Operand};
    use crate::nodes::{EwNode, OutputSpec, SinkNode, SourceNode};
    use crate::tuple::{tbar, tdata, TTok};

    /// Interpreted one-shot run, report only.
    fn one_shot(g: &mut Graph, max_rounds: u64) -> Result<ExecReport, MachineError> {
        g.run(RunOptions::new(max_rounds)).map(|(report, _)| report)
    }

    #[test]
    fn pipeline_source_ew_sink() {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([4u32]), tbar(1)])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "double",
            Box::new(EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                    dst: 1,
                }],
                vec![OutputSpec::plain([1])],
            )),
            vec![c0],
            vec![c1],
        );
        let (sink, handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        let report = one_shot(&mut g, 100).unwrap();
        assert!(report.productive_steps >= 3);
        assert_eq!(handle.tokens(), vec![tdata([8u32]), tbar(1)]);
    }

    #[test]
    fn deadlock_detected() {
        // A consumer that needs two inputs but only one is fed.
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
        // c1 never receives anything.
        g.add_node(
            "zip",
            Box::new(EwNode::passthrough(2)),
            vec![c0, c1],
            vec![c2],
        );
        let (sink, _h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c2], vec![]);
        let err = one_shot(&mut g, 100).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn round_limit_reported() {
        // An endless loop: counter feeding itself through fork is hard to
        // build by accident; emulate livelock by a source with huge output
        // and a tiny round cap.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1).with_capacity(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32]), tdata([2u32])])),
            vec![],
            vec![c0],
        );
        // No consumer: source can push one token then stalls forever; with
        // max_rounds=0 we hit the cap immediately.
        let err = one_shot(&mut g, 0).unwrap_err();
        assert!(err.message.contains("no quiescence"), "got: {err}");
    }

    #[test]
    fn reentrant_step_is_an_error_not_a_panic() {
        // A node whose behavior steps the node again through nothing — we
        // emulate the checked-out state by taking the behavior out directly.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let id = g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        g.nodes[id.0 as usize].behavior = None; // simulate mid-step state
        let mut ib: Vec<PortBudget> = vec![];
        let mut ob = vec![PortBudget::UNLIMITED];
        let err = g.step_node(id, &mut ib, &mut ob).unwrap_err();
        assert!(err.message.contains("reentrant step"), "got: {err}");
        assert_eq!(err.node.as_deref(), Some("src"));
    }

    #[test]
    fn deadlock_reports_all_stuck_channels() {
        // Two independent starved zips: the diagnosis must list both, with
        // their consumer labels, in one pass.
        let mut g = Graph::new();
        let starve = |g: &mut Graph, tag: &str| {
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            let c2 = g.add_chan(Channel::new(2));
            g.add_node(
                format!("src.{tag}"),
                Box::new(SourceNode::new(vec![tdata([1u32])])),
                vec![],
                vec![c0],
            );
            g.add_node(
                format!("zip.{tag}"),
                Box::new(EwNode::passthrough(2)),
                vec![c0, c1],
                vec![c2],
            );
            let (sink, _h) = SinkNode::new();
            g.add_node(format!("sink.{tag}"), Box::new(sink), vec![c2], vec![]);
        };
        starve(&mut g, "a");
        starve(&mut g, "b");
        let err = one_shot(&mut g, 100).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
        assert!(err.message.contains("zip.a"), "got: {err}");
        assert!(err.message.contains("zip.b"), "got: {err}");
    }

    #[test]
    fn ready_set_does_less_work_than_dense() {
        // A long pipeline: the dense sweep re-steps every node every round;
        // the ready set only steps woken nodes.
        let build = || {
            let mut g = Graph::new();
            let mut prev = g.add_chan(Channel::new(1));
            let toks: Vec<_> = (0..16u32).map(|i| tdata([i])).chain([tbar(1)]).collect();
            g.add_node("src", Box::new(SourceNode::new(toks)), vec![], vec![prev]);
            for i in 0..24 {
                let next = g.add_chan(Channel::new(1));
                g.add_node(
                    format!("stage{i}"),
                    Box::new(EwNode::passthrough(1)),
                    vec![prev],
                    vec![next],
                );
                prev = next;
            }
            let (sink, handle) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![prev], vec![]);
            (g, handle)
        };
        let (mut dense_g, dense_h) = build();
        let dense = crate::reference::run_dense(&mut dense_g, 10_000).unwrap();
        let (mut ready_g, ready_h) = build();
        let ready = one_shot(&mut ready_g, 10_000).unwrap();
        assert_eq!(dense_h.tokens(), ready_h.tokens());
        assert!(
            ready.steps < dense.steps,
            "ready {} !< dense {}",
            ready.steps,
            dense.steps
        );
        assert!(ready.productive_ratio() > dense.productive_ratio());
    }

    #[test]
    fn graph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
        assert_send_sync::<TopologyIndex>();
        assert_send_sync::<ExecReport>();
    }

    #[test]
    fn fresh_instance_runs_independently_with_fresh_sinks() {
        // One finished graph, three instances: each run collects into its
        // own sink buffer and mutates its own memory; the original graph is
        // untouched and the topology Arc is shared, not rebuilt.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([21u32]), tbar(1)])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "double",
            Box::new(EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                    dst: 1,
                }],
                vec![OutputSpec::plain([1])],
            )),
            vec![c0],
            vec![c1],
        );
        let (sink, template_handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        g.finalize_topology();

        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut inst = g.fresh_instance();
            assert!(
                std::ptr::eq(g.topology().unwrap(), inst.topology().unwrap()),
                "instances must share the topology Arc"
            );
            one_shot(&mut inst, 1_000).unwrap();
            let h = inst
                .nodes()
                .iter()
                .find_map(|s| s.behavior.as_ref().unwrap().sink_handle())
                .expect("instance has a sink");
            handles.push(h);
        }
        for h in &handles {
            assert_eq!(h.tokens(), vec![tdata([42u32]), tbar(1)]);
        }
        // The template graph never ran: its source still holds tokens and
        // its sink collected nothing.
        assert!(template_handle.is_empty());
        assert_eq!(g.chans()[0].len(), 0);
        let report = one_shot(&mut g, 1_000).unwrap();
        assert!(report.productive_steps > 0, "template still runnable");
        assert_eq!(template_handle.tokens(), vec![tdata([42u32]), tbar(1)]);
    }

    #[test]
    fn exec_report_merge_sums_counters_and_maxes_watermarks() {
        let mut a = ExecReport {
            rounds: 2,
            productive_steps: 5,
            steps: 8,
            peak_ready: 6,
        };
        let b = ExecReport {
            rounds: 1,
            productive_steps: 3,
            steps: 4,
            peak_ready: 9,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ExecReport {
                rounds: 3,
                productive_steps: 8,
                steps: 12,
                peak_ready: 9,
            }
        );
        // Merging the other way keeps the same watermark: max, not sum.
        let mut c = ExecReport {
            peak_ready: 9,
            ..ExecReport::default()
        };
        c.merge(&ExecReport {
            peak_ready: 6,
            ..ExecReport::default()
        });
        assert_eq!(c.peak_ready, 9);
    }

    #[test]
    fn executors_record_the_peak_ready_watermark() {
        let build = || {
            let mut g = Graph::new();
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            g.add_node(
                "src",
                Box::new(SourceNode::new(vec![tdata([4u32]), tbar(1)])),
                vec![],
                vec![c0],
            );
            g.add_node(
                "stage",
                Box::new(EwNode::passthrough(1)),
                vec![c0],
                vec![c1],
            );
            let (sink, _h) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![c1], vec![]);
            g
        };
        let ready = one_shot(&mut build(), 1_000).unwrap();
        // Round 0 seeds every node, so the watermark starts at node count.
        assert_eq!(ready.peak_ready, 3);
        let dense = crate::reference::run_dense(&mut build(), 1_000).unwrap();
        assert_eq!(dense.peak_ready, 3);
    }

    #[test]
    fn obs_dispatch_count_matches_report_steps() {
        let obs = revet_obs::ObsSink::with_trace_capacity(4096);
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([4u32]), tbar(1)])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "stage",
            Box::new(EwNode::passthrough(1)),
            vec![c0],
            vec![c1],
        );
        let (sink, _h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        let (report, _) = g
            .run(RunOptions {
                obs: &obs,
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(obs.counters.dispatches.get(), report.steps);
        assert_eq!(obs.counters.productive.get(), report.productive_steps);
        assert_eq!(obs.counters.rounds.get(), report.rounds);
        assert_eq!(obs.counters.peak_ready.get(), report.peak_ready);
        let traced = obs
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, revet_obs::EventKind::NodeDispatch { .. }))
            .count() as u64;
        assert_eq!(traced, report.steps);
    }

    #[test]
    fn topology_index_invalidated_by_rewiring() {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        g.finalize_topology();
        assert!(g.topology().is_some());
        let c1 = g.add_chan(Channel::new(1));
        assert!(g.topology().is_none(), "add_chan must invalidate");
        let (sink, _h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c0], vec![]);
        let topo = g.finalize_topology();
        assert_eq!(topo.consumers(c0).len(), 1);
        assert_eq!(topo.producers(c0).len(), 1);
        assert!(topo.consumers(c1).is_empty());
    }

    /// src → double → sink with an initially empty source; returns the
    /// source's output channel, which the tests feed chunks onto.
    fn streaming_pipeline() -> (Graph, ChanId, crate::nodes::SinkHandle) {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(Vec::new())),
            vec![],
            vec![c0],
        );
        g.add_node(
            "double",
            Box::new(EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                    dst: 1,
                }],
                vec![OutputSpec::plain([1])],
            )),
            vec![c0],
            vec![c1],
        );
        let (sink, handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        (g, c0, handle)
    }

    fn feed(g: &mut Graph, c: ChanId, toks: impl IntoIterator<Item = TTok>) {
        for t in toks {
            g.chan_mut(c).push(t);
        }
    }

    #[test]
    fn resumable_interpreter_chunked_feed_matches_one_shot() {
        // One-shot reference: all input up front.
        let (mut one, entry, oh) = streaming_pipeline();
        feed(
            &mut one,
            entry,
            [tdata([1u32]), tbar(1), tdata([2u32]), tbar(1)],
        );
        one_shot(&mut one, 1_000).unwrap();

        // Chunked: feed one argset, run, feed the next, run again.
        let (mut g, entry, handle) = streaming_pipeline();
        let mut resume = ResumeState::new();
        let (_, s) = g
            .run(RunOptions {
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Finished, "empty stream drains cleanly");
        feed(&mut g, entry, [tdata([1u32]), tbar(1)]);
        let (r1, s) = g
            .run(RunOptions {
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), vec![tdata([2u32]), tbar(1)]);
        feed(&mut g, entry, [tdata([2u32]), tbar(1)]);
        let (r2, s) = g
            .run(RunOptions {
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), oh.tokens(), "chunked ≡ one-shot sink");
        // The second poll's delta is readable through the cursor view.
        assert_eq!(handle.tokens_from(2), vec![tdata([4u32]), tbar(1)]);
        assert!(handle.tokens_from(99).is_empty());
        let mut merged = r1;
        merged.merge(&r2);
        assert_eq!(merged.steps, r1.steps + r2.steps);
    }

    #[test]
    fn resumable_run_pauses_on_stuck_tokens_instead_of_deadlocking() {
        // A zip starved on one input: one-shot reports deadlock; the
        // resumable run pauses, and feeding the missing side finishes it.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let c2 = g.add_chan(Channel::new(2));
        g.add_node(
            "src.a",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "src.b",
            Box::new(SourceNode::new(Vec::new())),
            vec![],
            vec![c1],
        );
        g.add_node(
            "zip",
            Box::new(EwNode::passthrough(2)),
            vec![c0, c1],
            vec![c2],
        );
        let (sink, handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c2], vec![]);
        let mut resume = ResumeState::new();
        let (_, s) = g
            .run(RunOptions {
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Paused, "stuck token pauses, not deadlocks");
        assert!(g.resident_bytes() > 0, "paused state holds resident tokens");
        feed(&mut g, c1, [tdata([2u32])]);
        let (_, s) = g
            .run(RunOptions {
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), vec![tdata([1u32, 2u32])]);
    }

    #[test]
    fn resumable_planned_chunked_feed_matches_one_shot() {
        let (mut one, entry, oh) = streaming_pipeline();
        feed(
            &mut one,
            entry,
            [tdata([3u32]), tbar(1), tdata([5u32]), tbar(1)],
        );
        let plan = crate::ExecPlan::build(&one);
        one.run(RunOptions {
            plan: Some(&plan),
            ..RunOptions::new(1_000)
        })
        .unwrap();

        let (mut g, entry, handle) = streaming_pipeline();
        let plan = crate::ExecPlan::build(&g);
        let mut resume = ResumeState::new();
        feed(&mut g, entry, [tdata([3u32]), tbar(1)]);
        let (r1, s) = g
            .run(RunOptions {
                plan: Some(&plan),
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), vec![tdata([6u32]), tbar(1)]);
        feed(&mut g, entry, [tdata([5u32]), tbar(1)]);
        let (r2, s) = g
            .run(RunOptions {
                plan: Some(&plan),
                resume: Some(&mut resume),
                ..RunOptions::new(1_000)
            })
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), oh.tokens(), "chunked ≡ one-shot (planned)");
        assert!(r1.steps > 0 && r2.steps > 0);
    }

    #[test]
    fn resident_bytes_tracks_queued_and_pending_tokens() {
        let (mut g, entry, _handle) = streaming_pipeline();
        assert_eq!(g.resident_bytes(), 0, "empty stream holds nothing");
        feed(&mut g, entry, [tdata([7u32]), tbar(1)]);
        let pending = g.resident_bytes();
        assert!(pending > 0, "fed tokens are resident on the channel");
        let mut resume = ResumeState::new();
        g.run(RunOptions {
            resume: Some(&mut resume),
            ..RunOptions::new(1_000)
        })
        .unwrap();
        // Tokens moved to the sink buffer; still resident in the session.
        assert!(g.resident_bytes() > 0);
    }
}
