//! The streaming-node abstraction and its I/O surface.
//!
//! Every §III-B primitive is a [`Node`]: a small state machine that, when
//! stepped, consumes tokens from its input channels and produces tokens on
//! its output channels. Nodes are written in *check-then-commit* style — they
//! verify output room (and allocator availability) **before** consuming
//! inputs — so the same implementations run correctly under the untimed
//! executor (unbounded channels) and the cycle-level simulator (bounded
//! channels and per-cycle port budgets).

use crate::channel::Channel;
use crate::instr::EwInstr;
use crate::mem::MemoryState;
use crate::nodes::{OutputSpec, SinkHandle};
use crate::tuple::TTok;
use core::fmt;

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

/// The I/O surface a node sees while stepping: its input/output channels
/// (resolved through the graph's channel table), shared memory state, and
/// per-port budgets.
pub struct NodeIo<'a> {
    chans: &'a mut [Channel],
    ins: &'a [ChanId],
    outs: &'a [ChanId],
    mem: &'a mut MemoryState,
    in_budget: &'a mut [PortBudget],
    out_budget: &'a mut [PortBudget],
    progressed: bool,
    events: Option<&'a mut IoEvents>,
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
            progressed: false,
            events: None,
        }
    }

    /// Attaches an event sink recording which channels gained tokens or
    /// regained capacity during this step (ready-set scheduling).
    pub fn with_events(mut self, events: &'a mut IoEvents) -> Self {
        self.events = Some(events);
        self
    }

    /// Number of input ports.
    pub fn in_count(&self) -> usize {
        self.ins.len()
    }

    /// Number of output ports.
    pub fn out_count(&self) -> usize {
        self.outs.len()
    }

    /// Peeks the front token of input `i`, or `None` if the channel is empty
    /// or the port budget for that token kind is exhausted.
    pub fn peek_in(&self, i: usize) -> Option<&TTok> {
        let tok = self.chans[self.ins[i].0 as usize].front()?;
        if self.in_budget[i].allows(tok.is_barrier()) {
            Some(tok)
        } else {
            None
        }
    }

    /// Pops the front token of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if [`NodeIo::peek_in`] would return `None` (nodes must check
    /// first — this is check-then-commit discipline, not input validation).
    pub fn pop_in(&mut self, i: usize) -> TTok {
        let chan = &mut self.chans[self.ins[i].0 as usize];
        let was_full = chan.room() == 0;
        let tok = chan.pop().expect("pop_in on empty channel");
        if was_full {
            if let Some(ev) = self.events.as_deref_mut() {
                ev.freed.push(self.ins[i]);
            }
        }
        self.in_budget[i].take(tok.is_barrier());
        self.progressed = true;
        tok
    }

    /// True if output `o` can accept a token of the given kind (room in the
    /// channel and port budget remaining).
    pub fn can_push(&self, o: usize, barrier: bool) -> bool {
        self.chans[self.outs[o].0 as usize].room() > 0 && self.out_budget[o].allows(barrier)
    }

    /// Pushes a token on output `o`.
    ///
    /// # Panics
    ///
    /// Panics if [`NodeIo::can_push`] is false for this token kind.
    pub fn push(&mut self, o: usize, tok: TTok) {
        assert!(
            self.can_push(o, tok.is_barrier()),
            "push without can_push check on output {o}"
        );
        self.out_budget[o].take(tok.is_barrier());
        self.chans[self.outs[o].0 as usize].push(tok);
        if let Some(ev) = self.events.as_deref_mut() {
            ev.pushed.push(self.outs[o]);
        }
        self.progressed = true;
    }

    /// The shared memory state (DRAM, SRAM regions, allocator queues).
    pub fn mem(&mut self) -> &mut MemoryState {
        self.mem
    }

    /// Read-only memory access (stall checks).
    pub fn mem_ref(&self) -> &MemoryState {
        self.mem
    }

    /// Whether any pop/push happened through this view.
    pub fn progressed(&self) -> bool {
        self.progressed
    }

    /// Tuple arity of input port `i` (from its channel).
    pub fn in_arity(&self, i: usize) -> usize {
        self.chans[self.ins[i].0 as usize].arity
    }
}

/// A streaming primitive (§III-B). Implementations must:
///
/// 1. pass every incoming barrier through exactly once, in order, and
/// 2. never reorder data across barriers (reordering between barriers is
///    allowed),
///
/// the two SLTF composability conditions.
///
/// Nodes are `Send + Sync` so a finished [`crate::Graph`] can be shared
/// immutably across threads (the batch runtime instantiates one compiled
/// program many times from a shared reference) and instances can migrate
/// onto worker threads.
pub trait Node: fmt::Debug + Send + Sync {
    /// Advances the node as far as budgets, inputs, and output room allow.
    /// Returns `Ok(true)` iff any token moved.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] on protocol violations (structure-mismatched
    /// zip inputs, barrier overflow past Ω15, data on a barrier-free link…),
    /// which indicate compiler bugs rather than recoverable conditions.
    fn step(&mut self, io: &mut NodeIo<'_>) -> Result<bool, MachineError>;

    /// A short static kind name ("ew", "fwd-merge", …) for reports.
    fn kind(&self) -> &'static str;

    /// True if this node can stall on allocator-queue availability (§V-B a
    /// blocking pops). Event-driven executors re-wake such nodes whenever
    /// any node returns a pointer to an allocator, since that state change
    /// is invisible on the channel network.
    fn may_stall_on_alloc(&self) -> bool {
        false
    }

    /// Clones this node's behavior into a fresh boxed instance, so one
    /// compiled graph can be instantiated many times
    /// ([`crate::Graph::fresh_instance`]). Ordinary primitives copy their
    /// state verbatim; result-collecting endpoints
    /// ([`crate::nodes::SinkNode`]) allocate a fresh, empty collection
    /// buffer instead of sharing the original's.
    fn clone_node(&self) -> Box<dyn Node>;

    /// The handle to this node's collected output, for result-collecting
    /// endpoints ([`crate::nodes::SinkNode`]); `None` for every other
    /// primitive. Lets an instantiated graph surface its own sink handle
    /// without downcasting.
    fn sink_handle(&self) -> Option<SinkHandle> {
        None
    }

    /// A data-only description of this node's behavior that the execution
    /// plan ([`crate::ExecPlan`]) can lower onto its fused fast path;
    /// `None` (the default) keeps the node on the boxed `step` fallback.
    ///
    /// Returning `Some` is a contract: executing the returned spec against
    /// the node's channels must be **observably identical** to calling
    /// [`Node::step`] — same tokens, same order, same memory effects, same
    /// errors. The plan builder applies its own additional eligibility
    /// checks (allocator stalls, channel bounds) before committing a node
    /// to the fused path, so implementations only describe behavior, never
    /// scheduling.
    fn fused_spec(&self) -> Option<FusedSpec> {
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

/// Approximate resident heap bytes of one queued token (accounting helper
/// shared by channels and endpoint nodes).
pub(crate) fn token_bytes(tok: &TTok) -> usize {
    let payload = match tok {
        revet_sltf::Tok::Data(vals) => std::mem::size_of_val(vals.as_slice()),
        revet_sltf::Tok::Barrier(_) => 0,
    };
    std::mem::size_of::<TTok>() + payload
}

/// A node behavior lowered to plan-executable data (see
/// [`Node::fused_spec`]).
#[derive(Clone, Debug)]
pub enum FusedSpec {
    /// An element-wise pipeline stage: straight-line instructions over a
    /// per-thread register file, then per-port output specs.
    Ew {
        /// The straight-line program (indices into the plan's micro arena
        /// after flattening).
        instrs: Vec<EwInstr>,
        /// One spec per output port.
        outputs: Vec<OutputSpec>,
        /// Register-file size.
        reg_count: u16,
    },
    /// A result-collecting sink: drain input 0 into the sink handle.
    Sink,
}
