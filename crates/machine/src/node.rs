//! The streaming-node abstraction and its port surface.
//!
//! Every §III-B primitive states its firing rule **once**, as a generic
//! `fire<P: Ports>` over its links: a small state machine that consumes
//! tokens from its input ports and produces tokens on its output ports.
//! Rules are written in *check-then-commit* style — they verify output
//! room (and allocator availability) **before** consuming inputs — so the
//! one rule runs correctly behind every [`Ports`] implementation; the
//! protocol lives in the ports, not in the rule:
//!
//! Tokens cross the surface as windows into the channels' slabs, never as
//! owned values: a rule peeks a borrowed `Tok<&[Word]>`, pops by bumping
//! the ring head, and pushes either by filling the slot [`Ports::push_slot`]
//! opens or by moving a token channel→channel ([`Ports::forward`]).
//!
//! - [`NodeIo`] — per-port token budgets, room checks and [`IoEvents`]
//!   recording: the cycle-level simulator (bounded channels, §III-C link
//!   bandwidth) and the dense oracle.
//! - [`PlanPorts`] — direct channel access with the wake-ups applied
//!   inside `push`/`pop_in`: the execution plan ([`crate::ExecPlan`]),
//!   which is what [`crate::Graph::run`] drains through.
//!
//! [`Node`] is the object-safe face an executor holds; `node_entries!`
//! bridges it to `fire`, once per `Ports` implementation.

#![warn(clippy::too_many_lines)]

use crate::channel::{transfer, Channel};
use crate::mem::MemoryState;
use crate::nodes::{EwNode, SinkHandle};
use crate::plan::PlanPorts;
use core::fmt;
use revet_sltf::{BarrierLevel, Tok, Word};

/// Identifies a channel within a [`crate::Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ChanId(pub u32);

/// Identifies a node within a [`crate::Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// An error raised by a node or the executor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineError {
    /// The node that raised the error, if known.
    pub node: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl MachineError {
    /// Creates an error with no node attribution (the executor fills it in).
    pub fn new(message: impl Into<String>) -> Self {
        MachineError {
            node: None,
            message: message.into(),
        }
    }

    /// Attributes the error to the node labelled `label` unless it already
    /// names one — firing rules return unattributed errors, the firing
    /// site knows the label.
    pub fn at(mut self, label: &str) -> Self {
        self.node.get_or_insert_with(|| label.to_owned());
        self
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Some(n) => write!(f, "machine error at node '{}': {}", n, self.message),
            None => write!(f, "machine error: {}", self.message),
        }
    }
}

impl std::error::Error for MachineError {}

/// Per-port token budgets used by the timed simulator to model link
/// bandwidth (§III-C: a vector link moves ≤16 data elements and ≤1 barrier
/// per cycle; a scalar link ≤1 and ≤1).
#[derive(Clone, Copy, Debug)]
pub struct PortBudget {
    /// Remaining data tokens this step.
    pub data: usize,
    /// Remaining barrier tokens this step.
    pub barrier: usize,
}

impl PortBudget {
    /// An effectively unlimited budget (untimed execution).
    pub const UNLIMITED: PortBudget = PortBudget {
        data: usize::MAX,
        barrier: usize::MAX,
    };

    fn take(&mut self, is_barrier: bool) {
        if is_barrier {
            self.barrier -= 1;
        } else {
            self.data -= 1;
        }
    }

    fn allows(&self, is_barrier: bool) -> bool {
        if is_barrier {
            self.barrier > 0
        } else {
            self.data > 0
        }
    }
}

/// Channel events recorded while a node steps, consumed by event-driven
/// executors to maintain their ready sets.
///
/// The buffers are owned by the executor and reused across steps (call
/// [`IoEvents::clear`] between steps); entries may repeat when a node moves
/// several tokens over the same channel — executors dedup via their own
/// queued-flags, so recording stays allocation-free on the hot path.
#[derive(Debug, Default)]
pub struct IoEvents {
    /// Channels that gained at least one token (wake the consumer).
    pub pushed: Vec<ChanId>,
    /// Bounded channels that transitioned from full to having room (wake the
    /// producer — back-pressure release). Unbounded channels never appear.
    pub freed: Vec<ChanId>,
}

impl IoEvents {
    /// Empties both buffers, keeping their allocations.
    pub fn clear(&mut self) {
        self.pushed.clear();
        self.freed.clear();
    }
}

/// The port surface a primitive fires against: exactly the calls the
/// §III-B firing rules make. What a call *costs* — budgets, back-pressure
/// events, wake-ups — is the implementation's business ([`NodeIo`],
/// [`PlanPorts`]).
pub trait Ports {
    /// Number of input ports.
    fn in_count(&self) -> usize;

    /// Number of output ports.
    fn out_count(&self) -> usize;

    /// Peeks the front token of input `i` — a window into the channel's
    /// slab — or `None` if none is available to this firing.
    fn peek_in(&self, i: usize) -> Option<Tok<&[Word]>>;

    /// Drops the front token of input `i`, returning its kind (the payload
    /// is read through [`Ports::peek_in`] beforehand).
    ///
    /// # Panics
    ///
    /// Panics if [`Ports::peek_in`] would return `None` (rules must check
    /// first — this is check-then-commit discipline, not input validation).
    fn pop_in(&mut self, i: usize) -> Tok<()>;

    /// True if output `o` can accept a token of the given kind.
    fn can_push(&self, o: usize, barrier: bool) -> bool;

    /// Pushes a data token of `width` words on output `o` and returns its
    /// slot for the rule to fill in place (every word).
    ///
    /// # Panics
    ///
    /// Panics if [`Ports::can_push`] is false for data, or if `width` is
    /// not the output channel's arity.
    fn push_slot(&mut self, o: usize, width: usize) -> &mut [Word];

    /// Pushes a data token copied from `vals` on output `o`.
    ///
    /// # Panics
    ///
    /// As [`Ports::push_slot`].
    #[inline(always)]
    fn push_data(&mut self, o: usize, vals: &[Word]) {
        self.push_slot(o, vals.len()).copy_from_slice(vals);
    }

    /// Pushes the barrier Ω`level` on output `o`.
    ///
    /// # Panics
    ///
    /// Panics if [`Ports::can_push`] is false for a barrier.
    fn push_barrier(&mut self, o: usize, level: BarrierLevel);

    /// Moves the front token of input `i` to output `o` unchanged, slab to
    /// slab: [`Ports::pop_in`] and a push in one step, with the costs of
    /// both.
    ///
    /// # Panics
    ///
    /// Panics where either half would.
    fn forward(&mut self, i: usize, o: usize);

    /// The shared memory state (DRAM, SRAM regions, allocator queues).
    fn mem(&mut self) -> &mut MemoryState;

    /// Read-only memory access (stall checks).
    fn mem_ref(&self) -> &MemoryState;

    /// A register scratch the executor lends for one firing, so a rule
    /// that needs a per-thread register file allocates none.
    fn scratch(&mut self) -> &mut Vec<Word>;
}

/// The budgeted port surface: a node's input/output channels (resolved
/// through the graph's channel table), shared memory state, and per-port
/// budgets.
pub struct NodeIo<'a> {
    chans: &'a mut [Channel],
    ins: &'a [ChanId],
    outs: &'a [ChanId],
    mem: &'a mut MemoryState,
    in_budget: &'a mut [PortBudget],
    out_budget: &'a mut [PortBudget],
    events: Option<&'a mut IoEvents>,
    /// The lent register scratch ([`Ports::scratch`]); [`crate::Graph`]
    /// swaps its own in around a step so the allocation is reused.
    pub(crate) scratch: Vec<Word>,
}

impl fmt::Debug for NodeIo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeIo")
            .field("ins", &self.ins)
            .field("outs", &self.outs)
            .finish_non_exhaustive()
    }
}

impl<'a> NodeIo<'a> {
    /// Assembles an I/O view. Used by executors; nodes only consume it.
    pub fn new(
        chans: &'a mut [Channel],
        ins: &'a [ChanId],
        outs: &'a [ChanId],
        mem: &'a mut MemoryState,
        in_budget: &'a mut [PortBudget],
        out_budget: &'a mut [PortBudget],
    ) -> Self {
        debug_assert_eq!(ins.len(), in_budget.len());
        debug_assert_eq!(outs.len(), out_budget.len());
        NodeIo {
            chans,
            ins,
            outs,
            mem,
            in_budget,
            out_budget,
            events: None,
            scratch: Vec::new(),
        }
    }

    /// Attaches an event sink recording which channels gained tokens or
    /// regained capacity during this step (ready-set scheduling).
    pub fn with_events(mut self, events: &'a mut IoEvents) -> Self {
        self.events = Some(events);
        self
    }

    /// What a pop from input `i` costs: the port budget, and a
    /// back-pressure release event if the channel was full.
    fn popped(&mut self, i: usize, barrier: bool, was_full: bool) {
        if was_full {
            if let Some(ev) = self.events.as_deref_mut() {
                ev.freed.push(self.ins[i]);
            }
        }
        self.in_budget[i].take(barrier);
    }

    /// What a push on output `o` costs — the port budget and a token
    /// arrival event — paid before the write; returns the channel to
    /// write.
    fn pushing(&mut self, o: usize, barrier: bool) -> &mut Channel {
        assert!(
            self.can_push(o, barrier),
            "push without can_push check on output {o}"
        );
        self.out_budget[o].take(barrier);
        if let Some(ev) = self.events.as_deref_mut() {
            ev.pushed.push(self.outs[o]);
        }
        &mut self.chans[self.outs[o].0 as usize]
    }
}

impl Ports for NodeIo<'_> {
    fn in_count(&self) -> usize {
        self.ins.len()
    }

    fn out_count(&self) -> usize {
        self.outs.len()
    }

    /// `None` also when the port budget for the front token's kind is
    /// exhausted.
    fn peek_in(&self, i: usize) -> Option<Tok<&[Word]>> {
        let tok = self.chans[self.ins[i].0 as usize].front()?;
        self.in_budget[i].allows(tok.is_barrier()).then_some(tok)
    }

    fn pop_in(&mut self, i: usize) -> Tok<()> {
        let chan = &mut self.chans[self.ins[i].0 as usize];
        let was_full = chan.room() == 0;
        let kind = chan.pop_front().expect("pop_in on empty channel");
        self.popped(i, kind.is_barrier(), was_full);
        kind
    }

    /// Room in the channel *and* port budget remaining.
    fn can_push(&self, o: usize, barrier: bool) -> bool {
        self.chans[self.outs[o].0 as usize].room() > 0 && self.out_budget[o].allows(barrier)
    }

    fn push_slot(&mut self, o: usize, width: usize) -> &mut [Word] {
        self.pushing(o, false).push_slot(width)
    }

    fn push_barrier(&mut self, o: usize, level: BarrierLevel) {
        self.pushing(o, true).push_barrier(level);
    }

    fn forward(&mut self, i: usize, o: usize) {
        let (src, dst) = (self.ins[i].0 as usize, self.outs[o].0 as usize);
        let front = self.chans[src].front().expect("forward from empty channel");
        let (barrier, was_full) = (front.is_barrier(), self.chans[src].room() == 0);
        self.pushing(o, barrier);
        transfer(self.chans, src, dst);
        self.popped(i, barrier, was_full);
    }

    fn mem(&mut self) -> &mut MemoryState {
        self.mem
    }

    fn mem_ref(&self) -> &MemoryState {
        self.mem
    }

    fn scratch(&mut self) -> &mut Vec<Word> {
        &mut self.scratch
    }
}

/// A streaming primitive (§III-B), as an executor holds it: the
/// object-safe face of a firing rule. Implementations must:
///
/// 1. pass every incoming barrier through exactly once, in order, and
/// 2. never reorder data across barriers (reordering between barriers is
///    allowed),
///
/// the two SLTF composability conditions.
///
/// A primitive writes its rule once, as an inherent
/// `fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError>`
/// that advances the node as far as inputs and output room allow and
/// returns `Ok(true)` iff any token moved; `node_entries!` supplies the
/// three entries below that depend on nothing else.
///
/// Nodes are `Send + Sync` so a finished [`crate::Graph`] can be shared
/// immutably across threads (the batch runtime instantiates one compiled
/// program many times from a shared reference) and instances can migrate
/// onto worker threads.
pub trait Node: fmt::Debug + Send + Sync {
    /// Fires the rule against budgeted ports (simulator, dense oracle).
    ///
    /// # Errors
    ///
    /// Returns an unattributed [`MachineError`] on protocol violations
    /// (structure-mismatched zip inputs, barrier overflow past Ω15, data
    /// on a barrier-free link…), which indicate compiler bugs rather than
    /// recoverable conditions; the firing site attaches the node label.
    fn step(&mut self, io: &mut NodeIo<'_>) -> Result<bool, MachineError>;

    /// Fires the same rule against the execution plan's ports.
    ///
    /// # Errors
    ///
    /// Same as [`Node::step`].
    fn step_planned(&mut self, io: &mut PlanPorts<'_>) -> Result<bool, MachineError>;

    /// Clones this node's behavior into a fresh boxed instance, so one
    /// compiled graph can be instantiated many times
    /// ([`crate::Graph::fresh_instance`]). Ordinary primitives copy their
    /// state verbatim; result-collecting endpoints
    /// ([`crate::nodes::SinkNode`]) clone to a fresh, empty collection
    /// buffer instead of sharing the original's.
    fn clone_node(&self) -> Box<dyn Node>;

    /// A short static kind name ("ew", "fwd-merge", …) for reports.
    fn kind(&self) -> &'static str;

    /// True if this node can stall on allocator-queue availability (§V-B a
    /// blocking pops). Event-driven executors re-wake such nodes whenever
    /// any node returns a pointer to an allocator, since that state change
    /// is invisible on the channel network.
    fn may_stall_on_alloc(&self) -> bool {
        false
    }

    /// The handle to this node's collected output, for result-collecting
    /// endpoints ([`crate::nodes::SinkNode`]); `None` for every other
    /// primitive. Lets an instantiated graph surface its own sink handle
    /// without downcasting.
    fn sink_handle(&self) -> Option<SinkHandle> {
        None
    }

    /// This node as an element-wise stage, if it is one — the typed
    /// borrow the execution plan's chain rule reads ([`crate::ExecPlan`]).
    fn as_ew(&self) -> Option<&EwNode> {
        None
    }

    /// Approximate heap bytes retained by this node's internal state
    /// (pending source tokens, collected sink tokens, …). Per-session
    /// memory accounting for resident streaming instances; `0` for
    /// stateless primitives.
    fn resident_bytes(&self) -> usize {
        0
    }
}

/// The one bridge from a primitive's generic `fire<P: Ports>` to the
/// object-safe [`Node`] entries; invoked inside each `impl Node for …`.
macro_rules! node_entries {
    () => {
        fn step(
            &mut self,
            io: &mut $crate::node::NodeIo<'_>,
        ) -> Result<bool, $crate::node::MachineError> {
            self.fire(io)
        }

        fn step_planned(
            &mut self,
            io: &mut $crate::plan::PlanPorts<'_>,
        ) -> Result<bool, $crate::node::MachineError> {
            self.fire(io)
        }

        fn clone_node(&self) -> Box<dyn $crate::node::Node> {
            Box::new(self.clone())
        }
    };
}
pub(crate) use node_entries;
