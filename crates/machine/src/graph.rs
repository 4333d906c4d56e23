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
//! the three things a run can vary on (one-shot or resumable, the
//! observability sink, the round cap — tabulated in the crate docs). A
//! graph owns its schedule: the [`ExecPlan`] of the current wiring is
//! built on first need ([`Graph::plan`]), shared by every
//! [`Graph::fresh_instance`], and dropped by whatever changes the wiring
//! (`add_node`, `add_chan`). `run` owns the
//! quiescence verdict; the plan contributes the drain loop, seeded by the
//! one re-seed rule (`Graph::seeds`, documented on [`ResumeState`]).
//!
//! ## Event-driven scheduling
//!
//! Execution is driven by token availability, not dense sweeps. A
//! precomputed [`TopologyIndex`] maps every channel to its producer and
//! consumer nodes, and the executor re-queues a node only when
//!
//! 1. one of its **input channels gains a token** (it may now fire), or
//! 2. a pointer is **pushed to an allocator queue** and the node can
//!    stall on one (allocator releases are the one progress-enabling
//!    state change invisible on the channel network).
//!
//! Channels are unbounded FIFOs, so no untimed producer ever waits for
//! room. Buffer depth is the timed simulator's: it bounds links through
//! the port budgets it steps nodes with ([`PortBudget::bound`]) and adds
//! a third wake, a producer whose full output regains room.
//!
//! Because nodes are Kahn processes (blocking reads, no sampling of
//! channel emptiness), the final token streams and memory state are
//! independent of the order in which ready nodes are drained; only the
//! amount of scheduler work changes. The dense-sweep oracle
//! (`revet_oracle::dense::run_dense`) pins that equivalence in tests.

use crate::channel::Channel;
use crate::mem::MemoryState;
use crate::node::{ChanId, IoEvents, MachineError, NodeId, NodeIo, PortBudget, Prim};
use crate::plan::{ExecPlan, ResumeState};
use crate::pool::PoolStats;
use crate::table::ChanTable;
use revet_obs::{ObsSink, StallClass};
use revet_sltf::Word;
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
}

/// A context's name: a base saying what it was emitted for ("blk",
/// "if.merge", …) and a number, the context id plus one. It prints as the
/// two run together ("blk86"), and as the base alone for a node no
/// context was assigned to. A label is `Copy` and owns nothing: its text
/// is written only when it is printed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    base: &'static str,
    /// The context id plus one; 0 when no context was assigned.
    n: u32,
}

impl Label {
    /// The label of context `context` (`u32::MAX`: none) with base `base`.
    /// The number is what separates two labels of one base, so no base
    /// ends in a digit.
    pub fn new(base: &'static str, context: u32) -> Label {
        debug_assert!(!base.ends_with(|c: char| c.is_ascii_digit()), "{base}");
        Label {
            base,
            n: context.wrapping_add(1),
        }
    }

    /// The base: the label without its number.
    pub fn base(self) -> &'static str {
        self.base
    }
}

/// Padded and truncated as a string of the label's text is.
impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.n {
            0 => f.pad(self.base),
            n if f.width().is_none() && f.precision().is_none() => write!(f, "{}{n}", self.base),
            n => f.pad(&format!("{}{n}", self.base)),
        }
    }
}

/// Quoted and escaped, as a string of the label's text prints.
impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}", self.base.escape_debug())?;
        match self.n {
            0 => f.write_str("\""),
            n => write!(f, "{n}\""),
        }
    }
}

/// A node slot: behavior plus wiring and placement metadata. The wiring
/// and the label's base never change once the node is added, so every
/// instance of a compiled graph shares them ([`Graph::fresh_instance`]
/// clones the slots).
#[derive(Clone)]
pub struct NodeSlot {
    /// The primitive, held inline.
    pub behavior: Prim,
    /// Input channels, in port order.
    pub ins: PortList,
    /// Output channels, in port order.
    pub outs: PortList,
    /// The label's base ("blk", "if.merge", …); its number is the context.
    base: &'static str,
    /// Streaming-context id assigned by the compiler (groups nodes that fuse
    /// into one physical unit); `u32::MAX` = unassigned.
    pub context: u32,
    /// Placement class.
    pub unit: UnitClass,
    /// Whether the behavior can stall on allocator-queue availability
    /// (§V-B a blocking pops: an element-wise program that pops an
    /// allocator), computed once when the node is added. Event-driven
    /// executors re-wake such nodes whenever any node returns a pointer to
    /// an allocator, since that state change is invisible on the channel
    /// network.
    pub(crate) alloc_gated: bool,
}

// Cloning a slot (every instance does) copies these bytes and touches no
// reference count.
const _: () = assert!(std::mem::size_of::<NodeSlot>() <= 152);

impl NodeSlot {
    /// The node's label: its base numbered by its context.
    pub fn label(&self) -> Label {
        Label::new(self.base, self.context)
    }
}

impl fmt::Debug for NodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeSlot")
            .field("label", &self.label())
            .field("ins", &self.ins)
            .field("outs", &self.outs)
            .field("context", &self.context)
            .field("unit", &self.unit)
            .finish()
    }
}

/// A node's input or output channels, in port order. A list of up to
/// [`PortList::INLINE`] ids — nearly every node's — is held in place, and
/// a longer one is shared, so adding a node allocates no port list and
/// cloning a slot (every instance does) never copies one. It reads as a
/// `&[ChanId]` and prints exactly as one.
#[derive(Clone)]
pub struct PortList(Ports);

/// [`PortList`]'s two forms, in the 16 bytes an `Arc<[ChanId]>` takes: the
/// shared form's pointer is thin, and the spare values of the inline
/// length byte tell the forms apart. An inline list's ids past its length
/// are never read.
#[derive(Clone)]
enum Ports {
    Inline(InlineLen, [ChanId; PortList::INLINE]),
    Shared(Arc<Box<[ChanId]>>),
}

/// The length of an inline [`PortList`].
#[derive(Clone, Copy)]
#[repr(u8)]
enum InlineLen {
    Zero,
    One,
    Two,
    Three,
}

impl PortList {
    /// The longest list held in place.
    pub const INLINE: usize = 3;
}

impl std::ops::Deref for PortList {
    type Target = [ChanId];

    #[inline(always)]
    fn deref(&self) -> &[ChanId] {
        match &self.0 {
            Ports::Inline(len, ids) => &ids[..*len as usize],
            Ports::Shared(ids) => ids,
        }
    }
}

impl From<&[ChanId]> for PortList {
    fn from(ids: &[ChanId]) -> Self {
        let len = match ids.len() {
            0 => InlineLen::Zero,
            1 => InlineLen::One,
            2 => InlineLen::Two,
            3 => InlineLen::Three,
            _ => return PortList(Ports::Shared(Arc::new(ids.into()))),
        };
        let mut inline = [ChanId(u32::MAX); PortList::INLINE];
        inline[..ids.len()].copy_from_slice(ids);
        PortList(Ports::Inline(len, inline))
    }
}

impl<const N: usize> From<[ChanId; N]> for PortList {
    fn from(ids: [ChanId; N]) -> Self {
        PortList::from(&ids[..])
    }
}

impl From<Vec<ChanId>> for PortList {
    fn from(ids: Vec<ChanId>) -> Self {
        match ids.len() {
            n if n > PortList::INLINE => PortList(Ports::Shared(Arc::new(ids.into()))),
            _ => PortList::from(&ids[..]),
        }
    }
}

impl FromIterator<ChanId> for PortList {
    fn from_iter<I: IntoIterator<Item = ChanId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut inline = [ChanId(u32::MAX); PortList::INLINE];
        for len in 0..PortList::INLINE {
            match iter.next() {
                Some(id) => inline[len] = id,
                None => return PortList::from(&inline[..len]),
            }
        }
        match iter.next() {
            None => PortList::from(&inline[..]),
            Some(id) => inline
                .into_iter()
                .chain([id])
                .chain(iter)
                .collect::<Vec<_>>()
                .into(),
        }
    }
}

impl fmt::Debug for PortList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Precomputed channel-endpoint index: who produces into and consumes from
/// every channel, plus which nodes can stall on allocator queues.
///
/// Built once per wiring, with the [`ExecPlan`] that owns it
/// ([`ExecPlan::topology`]); the execution plan and the cycle-level
/// simulator both take their ready-set wake-ups from it.
///
/// The endpoints are one flat node list (compressed sparse rows): channel
/// `c`'s consumers, then its producers, each in node order, with
/// `at[2c]..at[2c + 1]` and `at[2c + 1]..at[2c + 2]` their ranges.
#[derive(Debug, Clone, Default)]
pub struct TopologyIndex {
    /// Range bounds into `ends`, two per channel and one closing bound.
    at: Vec<u32>,
    /// Every channel's consumers and producers (almost always one each).
    ends: Vec<NodeId>,
    /// Nodes whose behavior may stall on allocator availability.
    alloc_waiters: Vec<NodeId>,
}

impl TopologyIndex {
    pub(crate) fn build(nodes: &[NodeSlot], chan_count: usize) -> Self {
        // The row of channel `c`'s consumers is `2c`, of its producers
        // `2c + 1`. Count each row's ends into the bound after it, sum the
        // counts into row starts, fill each row at its running start (which
        // moves that start to the row's end, the next row's start), and
        // shift the starts back into place.
        fn rows(slot: &NodeSlot) -> impl Iterator<Item = usize> + '_ {
            let consumed = slot.ins.iter().map(|c| 2 * c.0 as usize);
            consumed.chain(slot.outs.iter().map(|c| 2 * c.0 as usize + 1))
        }
        let mut at = vec![0u32; 2 * chan_count + 1];
        for row in nodes.iter().flat_map(rows) {
            at[row + 1] += 1;
        }
        for r in 1..at.len() {
            at[r] += at[r - 1];
        }
        let mut ends = vec![NodeId(0); at[2 * chan_count] as usize];
        let mut alloc_waiters = Vec::new();
        for (i, slot) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            for row in rows(slot) {
                ends[at[row] as usize] = id;
                at[row] += 1;
            }
            if slot.alloc_gated {
                alloc_waiters.push(id);
            }
        }
        at.copy_within(..2 * chan_count, 1);
        at[0] = 0;
        TopologyIndex {
            at,
            ends,
            alloc_waiters,
        }
    }

    /// The nodes of row `row` (see the type docs).
    fn row(&self, row: usize) -> &[NodeId] {
        &self.ends[self.at[row] as usize..self.at[row + 1] as usize]
    }

    /// Nodes consuming from channel `c`.
    pub fn consumers(&self, c: ChanId) -> &[NodeId] {
        self.row(2 * c.0 as usize)
    }

    /// Nodes producing into channel `c`.
    pub fn producers(&self, c: ChanId) -> &[NodeId] {
        self.row(2 * c.0 as usize + 1)
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
/// exception is the schedule ([`Graph::plan`]), which depends only on the
/// wiring and is held behind an [`Arc`] so every instance made from one
/// compiled graph ([`Graph::fresh_instance`]) shares a single copy; an
/// instance's channel table and DRAM image go back to that graph's pools
/// when dropped. Graphs are `Send + Sync` (every [`Prim`] is), so
/// instances can run on worker threads.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<NodeSlot>,
    /// The channels; an instance's table returns to its template's pool
    /// when dropped ([`Graph::fresh_instance`]).
    chans: ChanTable,
    /// Shared DRAM / SRAM / allocator state.
    pub mem: MemoryState,
    /// The schedule of the current wiring, shared across instances; `None`
    /// until first needed and after a change to anything it was built from.
    pub(crate) plan: Option<Arc<ExecPlan>>,
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

/// The three things one untimed run can vary on (see the crate docs for
/// the table). `RunOptions::new(max_rounds)` is the one-shot, unobserved
/// run; set the other fields with struct-update syntax.
#[derive(Debug)]
pub struct RunOptions<'a> {
    /// Suspend-at-quiescence: with a state, leftover tokens end the run as
    /// [`RunStatus::Paused`] and the same state must be passed to every
    /// run of the session; without one they are the deadlock error.
    pub resume: Option<&'a mut ResumeState>,
    /// Observability sink; [`ObsSink::noop`] keeps the hot path at one
    /// predictable branch per event site.
    pub obs: &'a ObsSink,
    /// Livelock cap on rounds: one round is one ascending sweep of the
    /// plan's wake units, each fired at most once.
    pub max_rounds: u64,
}

impl RunOptions<'_> {
    /// One-shot, no-op sink.
    pub fn new(max_rounds: u64) -> Self {
        RunOptions {
            resume: None,
            obs: ObsSink::noop(),
            max_rounds,
        }
    }
}

/// Summary of an untimed run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecReport {
    /// Rounds executed: ascending sweeps of the plan's worklist, where a
    /// wake ahead of the sweep joins it (comparable to the dense sweep's
    /// rounds — the livelock cap counts these).
    pub rounds: u64,
    /// Node steps that made progress (moved at least one token).
    pub productive_steps: u64,
    /// Node steps attempted by the scheduler. The dense sweep attempts
    /// `rounds × nodes`; the plan only fires woken units, so this is the
    /// "work" a scheduler comparison should look at.
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
        self.plan = None;
        let id = ChanId(self.chans.len() as u32);
        self.chans.push(chan);
        id
    }

    /// Adds a node wired to the given channels; returns its id. The
    /// behavior is any primitive (or a [`Prim`]); `base` is its label's
    /// base, numbered once [`Graph::set_node_meta`] assigns a context, and
    /// the port lists go straight into their shared form (an array or a
    /// `Vec` both convert).
    pub fn add_node(
        &mut self,
        base: &'static str,
        behavior: impl Into<Prim>,
        ins: impl Into<PortList>,
        outs: impl Into<PortList>,
    ) -> NodeId {
        self.plan = None;
        self.chans.retire();
        let id = NodeId(self.nodes.len() as u32);
        let behavior = behavior.into();
        let alloc_gated = matches!(&behavior, Prim::Ew(ew) if ew.may_stall_on_alloc());
        self.nodes.push(NodeSlot {
            behavior,
            ins: ins.into(),
            outs: outs.into(),
            base,
            context: u32::MAX,
            unit: UnitClass::Compute,
            alloc_gated,
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

    /// Mutable channel access (host feeds, link classes). On a template
    /// this retires its channel-table pool ([`Graph::fresh_instance`]).
    pub fn chan_mut(&mut self, id: ChanId) -> &mut Channel {
        self.chans.chan_mut(id.0 as usize)
    }

    /// Split mutable access to the channel table, memory state and node
    /// slots — the plan executor fires a node's behavior against its own
    /// channels in one borrow scope.
    pub(crate) fn split_mut(&mut self) -> (&mut [Channel], &mut MemoryState, &mut [NodeSlot]) {
        (self.chans.run_mut(), &mut self.mem, &mut self.nodes)
    }

    /// The schedule of the current wiring (and, through
    /// [`ExecPlan::topology`], its channel-endpoint index), built on first
    /// need. The compiler asks once when a program's graph is complete, so
    /// every instance shares that plan; [`Graph::run`] asks before
    /// draining.
    pub fn plan(&mut self) -> &Arc<ExecPlan> {
        if self.plan.is_none() {
            self.plan = Some(Arc::new(ExecPlan::build(self)));
        }
        self.plan.as_ref().expect("just built")
    }

    /// Makes a fresh, independently runnable instance of this graph. Node
    /// state, SRAM and allocator queues are copied (wiring, labels and
    /// element-wise programs are shared); the immutable schedule is shared
    /// via [`Arc`] rather than rebuilt.
    /// The two parts of an instance that are big or grown are recycled
    /// through this graph's pools instead of copied:
    ///
    /// - the DRAM image ([`MemoryState::fresh_instance`]: byte-identical
    ///   to the template's, at the cost of the pages its previous user
    ///   dirtied);
    /// - the channel table, with the scheduler scratch of a one-shot
    ///   [`Graph::run`]: each channel is reset in place to the template's
    ///   (queued tokens, class, counters), keeping the ring storage
    ///   earlier instances grew, so a recycled instance's run does not
    ///   regrow its rings.
    ///
    /// Both go back to their pool when the instance drops them (at most
    /// [`crate::POOL_IMAGES`] idle ones each); adding a channel or a node
    /// or [`Graph::chan_mut`] on this graph retires its table pool, and any `&mut` access to its DRAM image
    /// the image pool, so what is out at that moment is freed on return.
    /// [`Graph::chan_pool_stats`] and [`crate::Dram::pool_stats`] count
    /// the hits.
    ///
    /// This is the machine half of the compile-once/run-many split: the
    /// compiler finishes a graph once, and the batch runtime instantiates
    /// it as many times, concurrently, as it needs.
    ///
    /// # Panics
    ///
    /// In debug builds, if a recycled table or image differs from this
    /// graph's after its reset.
    pub fn fresh_instance(&self) -> Graph {
        Graph {
            nodes: self.nodes.clone(),
            chans: self.chans.checkout(),
            mem: self.mem.fresh_instance(),
            plan: self.plan.clone(),
            scratch: Vec::new(),
        }
    }

    /// Counters of the pool [`Graph::fresh_instance`] recycles this
    /// graph's channel tables through; `retained_bytes` counts the idle
    /// tables' ring storage and scheduler scratch.
    pub fn chan_pool_stats(&self) -> PoolStats {
        self.chans.pool_stats()
    }

    /// Steps one node once with the given port budgets. Returns whether the
    /// node made progress. Given `events`, the step clears it and records
    /// the channel gain/free events it causes, for ready-set scheduling.
    ///
    /// # Errors
    ///
    /// Propagates node protocol errors, attributed with the node label.
    pub fn step_node(
        &mut self,
        id: NodeId,
        in_budget: &mut [PortBudget],
        out_budget: &mut [PortBudget],
        events: Option<&mut IoEvents>,
    ) -> Result<bool, MachineError> {
        let slot = &mut self.nodes[id.0 as usize];
        let mut io = NodeIo::new(
            self.chans.run_mut(),
            &slot.ins,
            &slot.outs,
            &mut self.mem,
            in_budget,
            out_budget,
        );
        if let Some(ev) = events {
            ev.clear();
            io = io.with_events(ev);
        }
        io.scratch = std::mem::take(&mut self.scratch);
        let result = slot.behavior.fire(&mut io, slot.alloc_gated);
        self.scratch = io.scratch;
        result.map_err(|e| e.at(slot.label()))
    }

    /// True if stepping `id` now is certain to make no progress, from the
    /// emptiness of its input channels alone (`Prim::starved`): then
    /// [`Graph::step_node`] would return `Ok(false)` under any budgets and
    /// change nothing. Not a Kahn emptiness sample — it predicts only what
    /// the node's own rule would read — so a scheduler may account such a
    /// step without running it.
    #[inline]
    pub fn starved(&self, id: NodeId) -> bool {
        let slot = &self.nodes[id.0 as usize];
        slot.behavior.starved(&self.chans, &slot.ins)
    }

    /// Deadlock diagnosis: every non-empty channel that *has* a consumer
    /// is stuck (channels nobody reads — dangling outputs — may legally
    /// retain tokens). Returns one line per stuck channel with its
    /// consumer labels; an empty result means a clean drain. Needs no
    /// index, so it reads any graph: consumers are looked up only for the
    /// channels still holding tokens.
    pub fn stuck_channels(&self) -> Vec<String> {
        let mut stuck = Vec::new();
        for (ci, chan) in self.chans.iter().enumerate() {
            if chan.is_empty() {
                continue;
            }
            let labels: Vec<String> = self
                .nodes
                .iter()
                .filter(|slot| slot.ins.contains(&ChanId(ci as u32)))
                .map(|slot| slot.label().to_string())
                .collect();
            if labels.is_empty() {
                continue;
            }
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
    /// one untimed entry point; see [`RunOptions`] for what a run can vary
    /// on. Execution is event-driven, through the graph's own schedule
    /// ([`Graph::plan`]): a node fires only when an input channel gained
    /// tokens or an allocator it can block on received a pointer (see
    /// module docs).
    ///
    /// With `resume`, leftover tokens at quiescence return
    /// [`RunStatus::Paused`] and every channel ring and node state stays
    /// live, ready to continue after more input is pushed onto an input
    /// channel.
    ///
    /// # Errors
    ///
    /// A node protocol error, the round cap (suspected livelock), and —
    /// without `resume` — the deadlock diagnosis listing all stuck
    /// channels.
    pub fn run(&mut self, opts: RunOptions<'_>) -> Result<(ExecReport, RunStatus), MachineError> {
        let RunOptions {
            resume,
            obs,
            max_rounds,
        } = opts;
        // The `Arc` clone keeps the graph mutably steppable while the
        // drain loop holds its schedule.
        let plan = Arc::clone(self.plan());
        let suspend = resume.is_some();
        let report = match resume {
            Some(state) => plan.drain(self, state, max_rounds, obs),
            None => {
                // The table's own state, restarted: its buffers are reused.
                let mut state = std::mem::take(&mut self.chans.one_shot);
                state.restart();
                let report = plan.drain(self, &mut state, max_rounds, obs);
                self.chans.one_shot = state;
                report
            }
        }?;
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
                || slot.alloc_gated
        };
        (0..self.nodes.len())
            .filter(move |&i| can_progress(&self.nodes[i]))
            .map(|i| NodeId(i as u32))
    }

    /// Approximate resident heap bytes of this graph's mutable streaming
    /// state: its queued channel tokens, fed input and uncollected output
    /// included. Excludes the fixed-size memory image — per-session
    /// accounting wants the part that grows with buffered work.
    pub fn resident_bytes(&self) -> u64 {
        self.chans
            .iter()
            .map(Channel::resident_bytes)
            .sum::<usize>() as u64
    }

    /// Classifies why a node that was just stepped made no progress, by
    /// inspecting its channel endpoints: an empty input means
    /// **input-starved**; otherwise an output holding `bound(link)` tokens
    /// means **output-full**; otherwise a node that can block on an
    /// allocator queue is **allocator-gated**. (DRAM gating exists only in
    /// the timed simulator, which attributes it at the deferral site.)
    /// Shared by the plan executor, whose links are unbounded (`usize::MAX`
    /// everywhere), and the simulator, which passes its buffer depths.
    pub fn classify_stall(&self, id: NodeId, bound: impl Fn(ChanId) -> usize) -> StallClass {
        let slot = &self.nodes[id.0 as usize];
        if slot.ins.iter().any(|c| self.chans[c.0 as usize].is_empty()) {
            return StallClass::InputStarved;
        }
        if slot
            .outs
            .iter()
            .any(|&c| self.chans[c.0 as usize].len() >= bound(c))
        {
            return StallClass::OutputFull;
        }
        if slot.alloc_gated {
            return StallClass::AllocGated;
        }
        // No visibly blocked endpoint: the node is waiting for *more* input
        // than any one channel shows (e.g. a barrier-aligned zip).
        StallClass::InputStarved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, EwInstr, Operand};
    use crate::nodes::{EwNode, OutputSpec};
    use crate::tuple::{tbar, tdata, TTok};

    /// One-shot run, report only.
    fn one_shot(g: &mut Graph, max_rounds: u64) -> Result<ExecReport, MachineError> {
        g.run(RunOptions::new(max_rounds)).map(|(report, _)| report)
    }

    /// Pushes `toks` onto `c`, as a host feeds an input link.
    fn feed(g: &mut Graph, c: ChanId, toks: impl IntoIterator<Item = TTok>) {
        for t in toks {
            g.chan_mut(c).push(t);
        }
    }

    /// What an output link holds, as the host reads it.
    fn out(g: &Graph, c: ChanId) -> Vec<TTok> {
        g.chans()[c.0 as usize].tokens()
    }

    #[test]
    fn a_label_prints_its_base_and_context_number() {
        let label = Label::new("if.merge", 86);
        assert_eq!(label.to_string(), "if.merge87");
        assert_eq!(
            format!("{label:?}"),
            format!("{:?}", Arc::<str>::from("if.merge87"))
        );
        assert_eq!(format!("[{label:>12}]"), "[  if.merge87]");
        let unassigned = Label::new("stage", u32::MAX);
        assert_eq!(
            (unassigned.to_string(), unassigned.base()),
            ("stage".into(), "stage")
        );
        assert_eq!(format!("{unassigned:?}"), "\"stage\"");
        let mut g = Graph::new();
        let (a, b) = (g.add_chan(Channel::new(1)), g.add_chan(Channel::new(1)));
        let id = g.add_node("blk", EwNode::passthrough(1), [a], [b]);
        assert_eq!(g.node(id).label().to_string(), "blk");
        g.set_node_meta(id, 4, UnitClass::Compute);
        assert_eq!(g.node(id).label(), Label::new("blk", 4));
    }

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

    #[test]
    fn port_lists_read_and_print_as_their_slices() {
        // Held in place up to the inline maximum, shared past it: either
        // way a node's ports read back in order and print as the slice
        // (the dataflow golden hashes that text). No wider than the
        // `Arc<[ChanId]>` it replaced, so an instance's copy of the node
        // slots is no larger for it.
        assert_eq!(std::mem::size_of::<PortList>(), 16);
        let mut g = Graph::new();
        let chans: Vec<ChanId> = (0..=PortList::INLINE)
            .map(|_| g.add_chan(Channel::new(1)))
            .collect();
        for n in [PortList::INLINE, PortList::INLINE + 1] {
            let ids = &chans[..n];
            let id = g.add_node("wide", EwNode::passthrough(1), ids, ids.to_vec());
            let slot = g.node(id).clone();
            let built: [PortList; 3] = [slot.ins, slot.outs, ids.iter().copied().collect()];
            for ports in &built {
                assert_eq!(&ports[..], ids, "{n} ports");
                assert_eq!(format!("{ports:?}"), format!("{ids:?}"), "{n} ports");
            }
        }
    }

    #[test]
    fn pipeline_source_ew_sink() {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node("double", double(), vec![c0], vec![c1]);
        feed(&mut g, c0, [tdata([4u32]), tbar(1)]);
        let report = one_shot(&mut g, 100).unwrap();
        assert!(report.productive_steps > 0);
        assert_eq!(out(&g, c1), vec![tdata([8u32]), tbar(1)]);
        assert!(g.chans()[0].is_empty(), "the input was consumed");
    }

    #[test]
    fn deadlock_detected() {
        // A consumer that needs two inputs but only one is fed.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let c2 = g.add_chan(Channel::new(2));
        // c1 never receives anything.
        g.add_node("zip", EwNode::passthrough(2), vec![c0, c1], vec![c2]);
        feed(&mut g, c0, [tdata([1u32])]);
        let err = one_shot(&mut g, 100).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn round_limit_reported() {
        // An endless loop: counter feeding itself through fork is hard to
        // build by accident; emulate livelock by pending input and a tiny
        // round cap.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node("stage", EwNode::passthrough(1), vec![c0], vec![c1]);
        feed(&mut g, c0, [tdata([1u32]), tdata([2u32])]);
        // With max_rounds=0 we hit the cap before the stage's first
        // firing.
        let err = one_shot(&mut g, 0).unwrap_err();
        assert!(err.message.contains("no quiescence"), "got: {err}");
    }

    #[test]
    fn deadlock_reports_all_stuck_channels() {
        // Two independent starved zips: the diagnosis must list both, with
        // their consumer labels, in one pass.
        let mut g = Graph::new();
        let starve = |g: &mut Graph, label: &'static str| {
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            let c2 = g.add_chan(Channel::new(2));
            g.add_node(label, EwNode::passthrough(2), vec![c0, c1], vec![c2]);
            feed(g, c0, [tdata([1u32])]);
        };
        starve(&mut g, "zip.a");
        starve(&mut g, "zip.b");
        let err = one_shot(&mut g, 100).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
        assert!(err.message.contains("zip.a"), "got: {err}");
        assert!(err.message.contains("zip.b"), "got: {err}");
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
        // One finished graph with its input queued, three instances: each
        // run consumes its own copy of the input, leaves its output on its
        // own channels and mutates its own memory; the original graph is
        // untouched and the schedule Arc is shared, not rebuilt.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node("double", double(), vec![c0], vec![c1]);
        feed(&mut g, c0, [tdata([21u32]), tbar(1)]);
        let plan = Arc::clone(g.plan());

        for _ in 0..3 {
            let mut inst = g.fresh_instance();
            assert!(
                Arc::ptr_eq(&plan, inst.plan()),
                "instances must share the schedule Arc"
            );
            one_shot(&mut inst, 1_000).unwrap();
            assert_eq!(out(&inst, c1), vec![tdata([42u32]), tbar(1)]);
        }
        // The template graph never ran: its input is still queued and its
        // output link is empty.
        assert_eq!(g.chans()[0].len(), 2);
        assert!(out(&g, c1).is_empty());
        let report = one_shot(&mut g, 1_000).unwrap();
        assert!(report.productive_steps > 0, "template still runnable");
        assert_eq!(out(&g, c1), vec![tdata([42u32]), tbar(1)]);
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
    fn obs_dispatch_count_matches_report_steps() {
        let obs = revet_obs::ObsSink::with_trace_capacity(4096);
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node("stage", EwNode::passthrough(1), vec![c0], vec![c1]);
        feed(&mut g, c0, [tdata([4u32]), tbar(1)]);
        let (report, _) = g
            .run(RunOptions {
                obs: &obs,
                ..RunOptions::new(1_000)
            })
            .unwrap();
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
        let c1 = g.add_chan(Channel::new(1));
        g.add_node("a", EwNode::passthrough(1), vec![c1], vec![c0]);
        let stale = Arc::clone(g.plan());
        assert!(Arc::ptr_eq(&stale, g.plan()), "cached, not rebuilt");
        let c2 = g.add_chan(Channel::new(1));
        assert!(g.plan.is_none(), "add_chan must invalidate");
        g.plan();
        g.add_node("b", EwNode::passthrough(1), vec![c0], vec![c2]);
        assert!(g.plan.is_none(), "add_node must invalidate");
        let topo = Arc::clone(g.plan().topology());
        assert!(!Arc::ptr_eq(&topo, stale.topology()));
        assert_eq!(topo.consumers(c0).len(), 1);
        assert_eq!(topo.producers(c0).len(), 1);
        assert!(topo.consumers(c2).is_empty());
    }

    #[test]
    fn topology_index_lists_every_endpoint_in_node_order() {
        let mut g = Graph::new();
        let [c0, c1, c2, c3] = [(); 4].map(|()| g.add_chan(Channel::new(1)));
        let n = |i| NodeId(i);
        g.add_node("a", EwNode::passthrough(1), vec![c1], vec![c0]);
        g.add_node("b", EwNode::passthrough(1), vec![c0], vec![c0, c3]);
        g.add_node("c", EwNode::passthrough(2), vec![c0, c0], vec![c3]);
        let topo = TopologyIndex::build(g.nodes(), g.chan_count());
        assert_eq!(topo.consumers(c0), [n(1), n(2), n(2)]);
        assert_eq!(topo.producers(c0), [n(0), n(1)]);
        assert_eq!(topo.consumers(c1), [n(0)]);
        assert!(topo.producers(c1).is_empty());
        assert!(topo.consumers(c2).is_empty() && topo.producers(c2).is_empty());
        assert!(topo.consumers(c3).is_empty());
        assert_eq!(topo.producers(c3), [n(1), n(2)]);
        let empty = TopologyIndex::build(&[], 0);
        assert!(empty.alloc_waiters().is_empty());
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

    #[test]
    fn resumable_run_pauses_on_stuck_tokens_instead_of_deadlocking() {
        // A zip starved on one input: one-shot reports deadlock; the
        // resumable run pauses, and feeding the missing side finishes it.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let c2 = g.add_chan(Channel::new(2));
        g.add_node("zip", EwNode::passthrough(2), vec![c0, c1], vec![c2]);
        feed(&mut g, c0, [tdata([1u32])]);
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
        assert_eq!(out(&g, c2), vec![tdata([1u32, 2u32])]);
    }

    #[test]
    fn resident_bytes_tracks_queued_and_pending_tokens() {
        let (mut g, entry, exit) = streaming_pipeline();
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
        // Tokens moved to the output link; still resident in the session.
        assert_eq!(g.resident_bytes(), pending);
        assert_eq!(out(&g, exit).len(), 2);
    }
}
