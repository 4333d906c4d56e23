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
//! - [`NodeIo`] — per-port token budgets, buffer-depth checks and
//!   [`IoEvents`] recording: the cycle-level simulator (§III-C link
//!   bandwidth, Table II buffer depths) and the dense oracle.
//! - [`PlanPorts`](crate::PlanPorts) — direct channel access with the
//!   wake-ups applied inside `push`/`pop_in`: the execution plan
//!   ([`crate::ExecPlan`]), which is what [`crate::Graph::run`] drains
//!   through.
//!
//! A graph holds each primitive as a [`Prim`], a closed enum: firing one
//! is a `match`, monomorphised per `Ports` implementation, and so is
//! every other question asked of a node.

#![warn(clippy::too_many_lines)]

use crate::channel::{transfer, Channel};
use crate::mem::MemoryState;
use crate::nodes::{
    BroadcastNode, CounterNode, EwNode, FbMergeNode, FlattenNode, ForkNode, FwdMergeNode,
    ReduceNode,
};
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
    pub fn at(mut self, label: impl fmt::Display) -> Self {
        self.node.get_or_insert_with(|| label.to_string());
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
/// per cycle; a scalar link ≤1 and ≤1) and buffer depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortBudget {
    /// Remaining data tokens this step.
    pub data: usize,
    /// Remaining barrier tokens this step.
    pub barrier: usize,
    /// Tokens the port's link may hold (`usize::MAX`: unbounded). On an
    /// output, a link holding this many refuses the push; on an input, a
    /// pop from a link holding this many frees it
    /// ([`IoEvents::freed`]).
    pub bound: usize,
}

impl PortBudget {
    /// An effectively unlimited budget over an unbounded link (untimed
    /// execution).
    pub const UNLIMITED: PortBudget = PortBudget {
        data: usize::MAX,
        barrier: usize::MAX,
        bound: usize::MAX,
    };

    #[inline(always)]
    fn take(&mut self, is_barrier: bool) {
        if is_barrier {
            self.barrier -= 1;
        } else {
            self.data -= 1;
        }
    }

    #[inline(always)]
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
    /// Channels that were at their port's bound and regained room (wake
    /// the producer — back-pressure release). Unbounded links never
    /// appear, so only the timed simulator sees any.
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
/// [`PlanPorts`](crate::PlanPorts)).
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

    /// How many threads the element-wise run rule may commit together, as
    /// lanes of one instruction stream. A batch asks [`Ports::can_push`]
    /// once for all its threads, so a surface offers more than one lane
    /// only if its outputs accept every push.
    #[inline(always)]
    fn lanes(&self) -> usize {
        1
    }

    /// How many of the tokens at the front of input `i` are data, counting
    /// at most `max`.
    #[inline(always)]
    fn data_streak(&self, i: usize, max: usize) -> usize {
        usize::from(self.peek_in(i).is_some_and(|t| t.is_data())).min(max)
    }

    /// Pops the `n` tokens at the front of input `i` — data, as a counted
    /// [`Ports::data_streak`] guarantees — handing each one's words to `f`
    /// with its position.
    #[inline(always)]
    fn pop_lanes(&mut self, i: usize, n: usize, mut f: impl FnMut(usize, &[Word])) {
        for k in 0..n {
            let Some(Tok::Data(vals)) = self.peek_in(i) else {
                panic!("pop_lanes past the data streak of input {i}")
            };
            f(k, vals);
            self.pop_in(i);
        }
    }

    /// Pushes `n` data tokens of `width` words on output `o`, handing `f`
    /// each one's slot (with its position) to fill: [`Ports::push_slot`]
    /// inside a lane-batched commit, whose wake-ups
    /// [`Ports::lanes_committed`] owes once per output instead.
    #[inline(always)]
    fn push_lanes(
        &mut self,
        o: usize,
        width: usize,
        n: usize,
        mut f: impl FnMut(usize, &mut [Word]),
    ) {
        for k in 0..n {
            f(k, self.push_slot(o, width));
        }
    }

    /// A lane-batched commit of `lanes` threads ends, having pushed data
    /// on every output `o` whose bit is set in `pushed`.
    #[inline(always)]
    fn lanes_committed(&mut self, lanes: usize, pushed: u64) {
        let _ = (lanes, pushed);
    }
}

/// The budgeted port surface: a node's input/output channels (resolved
/// through the graph's channel table), shared memory state, and per-port
/// budgets, whose [`PortBudget::bound`] is the one place a link's buffer
/// depth is enforced.
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
    /// regained room under their bound during this step (ready-set
    /// scheduling).
    pub fn with_events(mut self, events: &'a mut IoEvents) -> Self {
        self.events = Some(events);
        self
    }

    /// Whether input `i`'s link holds as many tokens as its bound.
    fn in_full(&self, i: usize) -> bool {
        self.chans[self.ins[i].0 as usize].len() >= self.in_budget[i].bound
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
    #[inline(always)]
    fn in_count(&self) -> usize {
        self.ins.len()
    }

    #[inline(always)]
    fn out_count(&self) -> usize {
        self.outs.len()
    }

    /// `None` also when the port budget for the front token's kind is
    /// exhausted.
    #[inline(always)]
    fn peek_in(&self, i: usize) -> Option<Tok<&[Word]>> {
        let tok = self.chans[self.ins[i].0 as usize].front()?;
        self.in_budget[i].allows(tok.is_barrier()).then_some(tok)
    }

    #[inline(always)]
    fn pop_in(&mut self, i: usize) -> Tok<()> {
        let was_full = self.in_full(i);
        let chan = &mut self.chans[self.ins[i].0 as usize];
        let kind = chan.pop_front().expect("pop_in on empty channel");
        self.popped(i, kind.is_barrier(), was_full);
        kind
    }

    /// Room under the port's bound *and* port budget remaining.
    #[inline(always)]
    fn can_push(&self, o: usize, barrier: bool) -> bool {
        let budget = &self.out_budget[o];
        self.chans[self.outs[o].0 as usize].len() < budget.bound && budget.allows(barrier)
    }

    #[inline(always)]
    fn push_slot(&mut self, o: usize, width: usize) -> &mut [Word] {
        self.pushing(o, false).push_slot(width)
    }

    #[inline(always)]
    fn push_barrier(&mut self, o: usize, level: BarrierLevel) {
        self.pushing(o, true).push_barrier(level);
    }

    #[inline(always)]
    fn forward(&mut self, i: usize, o: usize) {
        let (src, dst) = (self.ins[i].0 as usize, self.outs[o].0 as usize);
        let front = self.chans[src].front().expect("forward from empty channel");
        let (barrier, was_full) = (front.is_barrier(), self.in_full(i));
        self.pushing(o, barrier);
        transfer(self.chans, src, dst);
        self.popped(i, barrier, was_full);
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

    /// Counted within the port's data budget. The surface offers one lane
    /// all the same: its outputs may refuse a push.
    #[inline(always)]
    fn data_streak(&self, i: usize, max: usize) -> usize {
        let chan = &self.chans[self.ins[i].0 as usize];
        chan.data_streak(max.min(self.in_budget[i].data))
    }
}

/// A streaming primitive (§III-B) as a graph holds it: the set is closed,
/// one variant per primitive, held inline in its [`crate::NodeSlot`].
///
/// Every primitive writes its rule once, as an inherent
/// `fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError>`
/// that advances the node as far as inputs and output room allow and
/// returns `Ok(true)` iff any token moved. A rule must
///
/// 1. pass every incoming barrier through exactly once, in order, and
/// 2. never reorder data across barriers (reordering between barriers is
///    allowed),
///
/// the two SLTF composability conditions. A rule returns an unattributed
/// [`MachineError`] on a protocol violation (structure-mismatched zip
/// inputs, a barrier raised past Ω15, data on a barrier-free link…), which
/// indicates a compiler bug rather than a recoverable condition; the
/// firing site attaches the node label.
///
/// To add a primitive: one variant here, its `From`, and one arm in each
/// `match` below — the compiler lists any that is missing. Its
/// `Prim::starved` arm says when empty inputs alone prove a firing moves
/// nothing; `false` is always sound, and the dense oracle checks any
/// stronger claim on every step.
///
/// `Clone` is what [`crate::Graph::fresh_instance`] does per node: state
/// is copied verbatim, and an element-wise program is shared (its slices
/// are reference counts, since it never changes once built). `Debug` is
/// the inner node's.
///
/// A graph's inputs and outputs are channels, not nodes: the host pushes
/// onto a link no node writes and reads a link no node consumes.
#[derive(Clone)]
pub enum Prim {
    /// Element-wise stage or filter (§III-B a, c).
    Ew(EwNode),
    /// Forward merge (§III-B c).
    FwdMerge(FwdMergeNode),
    /// Forward-backward merge, the loop header (§III-B d).
    FbMerge(FbMergeNode),
    /// Counter expansion (§III-B b).
    Counter(CounterNode),
    /// Fork: expansion and flattening fused (§IV-A a).
    Fork(ForkNode),
    /// Broadcast expansion (§III-B b, §III-C).
    Broadcast(BroadcastNode),
    /// Reduction (§III-B b).
    Reduce(ReduceNode),
    /// Flattening, also the loop exit (§III-B b, d).
    Flatten(FlattenNode),
}

impl Prim {
    /// Fires the primitive's rule on `io`. `alloc_gated` is the slot's
    /// flag (`NodeSlot::alloc_gated`), computed when the node was added.
    #[inline]
    pub(crate) fn fire<P: Ports>(
        &mut self,
        io: &mut P,
        alloc_gated: bool,
    ) -> Result<bool, MachineError> {
        match self {
            Prim::Ew(n) => n.fire_gated(io, alloc_gated),
            Prim::FwdMerge(n) => n.fire(io),
            Prim::FbMerge(n) => n.fire(io),
            Prim::Counter(n) => n.fire(io),
            Prim::Fork(n) => n.fire(io),
            Prim::Broadcast(n) => n.fire(io),
            Prim::Reduce(n) => n.fire(io),
            Prim::Flatten(n) => n.fire(io),
        }
    }

    /// A short static kind name ("ew", "fwd-merge", …) for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Prim::Ew(_) => "ew",
            Prim::FwdMerge(_) => "fwd-merge",
            Prim::FbMerge(_) => "fb-merge",
            Prim::Counter(_) => "counter",
            Prim::Fork(_) => "fork",
            Prim::Broadcast(_) => "broadcast",
            Prim::Reduce(_) => "reduce",
            Prim::Flatten(_) => "flatten",
        }
    }

    /// Whether a firing is certain to move nothing, read from the emptiness
    /// of the node's input channels `ins` alone: every rule below reads an
    /// input front before it moves anything, and an empty channel makes
    /// [`Ports::peek_in`] return `None` under any budget, in every `Ports`
    /// implementation. Conservative — `false` promises nothing. A rule that
    /// can emit from held state is never starved.
    #[inline(always)]
    pub(crate) fn starved(&self, chans: &[Channel], ins: &[ChanId]) -> bool {
        let empty = |c: &ChanId| chans[c.0 as usize].is_empty();
        match self {
            // The head zips every input: one empty front ends the firing.
            Prim::Ew(_) => ins.iter().any(empty),
            // Any one non-empty input may move (or, for a forward merge,
            // pair a held barrier); a node without inputs is not judged.
            Prim::FwdMerge(_) | Prim::FbMerge(_) | Prim::Reduce(_) | Prim::Flatten(_) => {
                !ins.is_empty() && ins.iter().all(empty)
            }
            // Emit from held state: a counter's or fork's open range, a
            // broadcast's held parent.
            Prim::Counter(_) | Prim::Fork(_) | Prim::Broadcast(_) => false,
        }
    }
}

impl fmt::Debug for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prim::Ew(n) => n.fmt(f),
            Prim::FwdMerge(n) => n.fmt(f),
            Prim::FbMerge(n) => n.fmt(f),
            Prim::Counter(n) => n.fmt(f),
            Prim::Fork(n) => n.fmt(f),
            Prim::Broadcast(n) => n.fmt(f),
            Prim::Reduce(n) => n.fmt(f),
            Prim::Flatten(n) => n.fmt(f),
        }
    }
}

macro_rules! prim_from {
    ($($variant:ident($node:ty)),* $(,)?) => {$(
        impl From<$node> for Prim {
            fn from(n: $node) -> Self {
                Prim::$variant(n)
            }
        }
    )*};
}

prim_from!(
    Ew(EwNode),
    FwdMerge(FwdMergeNode),
    FbMerge(FbMergeNode),
    Counter(CounterNode),
    Fork(ForkNode),
    Broadcast(BroadcastNode),
    Reduce(ReduceNode),
    Flatten(FlattenNode),
);

#[cfg(test)]
mod tests {
    //! [`Prim::starved`] on the stateful cases: each firing goes through
    //! [`fire`], which checks the precondition the simulator relies on.
    use super::*;
    use crate::instr::Operand;
    use crate::nodes::OutputSpec;
    use crate::tuple::{tbar, tdata, TTok};

    /// The input channels, preloaded, then `outputs` empty ones.
    fn chans(inputs: Vec<Vec<TTok>>, outputs: usize) -> Vec<Channel> {
        let mut chans = Vec::new();
        for toks in inputs {
            let mut c = Channel::new(1).without_canonicalization();
            for t in toks {
                c.push(t);
            }
            chans.push(c);
        }
        for _ in 0..outputs {
            chans.push(Channel::new(1).without_canonicalization());
        }
        chans
    }

    /// Fires `node` once over `chans`; returns `(starved, progressed)` and
    /// asserts that a starved node moved nothing.
    fn fire(node: &mut Prim, chans: &mut [Channel], n_in: usize) -> (bool, bool) {
        fire_bounded(node, chans, n_in, usize::MAX)
    }

    /// [`fire`] with every output port bounded at `bound` tokens.
    fn fire_bounded(
        node: &mut Prim,
        chans: &mut [Channel],
        n_in: usize,
        bound: usize,
    ) -> (bool, bool) {
        let ids: Vec<ChanId> = (0..chans.len() as u32).map(ChanId).collect();
        let (ins, outs) = ids.split_at(n_in);
        let starved = node.starved(chans, ins);
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; ins.len()];
        let bounded = PortBudget {
            bound,
            ..PortBudget::UNLIMITED
        };
        let mut ob = vec![bounded; outs.len()];
        let mut io = NodeIo::new(chans, ins, outs, &mut mem, &mut ib, &mut ob);
        let progressed = node.fire(&mut io, false).unwrap();
        assert!(!(starved && progressed), "{node:?}: starved but progressed");
        (starved, progressed)
    }

    #[test]
    fn ew_is_starved_by_any_empty_input() {
        let mut ew = Prim::from(EwNode::new(2, vec![], vec![OutputSpec::plain([0])]));
        let mut c = chans(vec![vec![tdata([1u32])], vec![]], 1);
        assert_eq!(fire(&mut ew, &mut c, 2), (true, false));
        c[1].push(tdata([2u32]));
        assert_eq!(fire(&mut ew, &mut c, 2), (false, true));
        assert_eq!(c[2].drain_all(), vec![tdata([1u32])]);
    }

    #[test]
    fn fb_merge_draining_with_a_held_forward_barrier_is_not_starved() {
        let mut m = Prim::from(FbMergeNode::new());
        let mut c = chans(vec![vec![tbar(1)], vec![]], 1);
        // Wave 0 is empty: Ω1 out, the forward barrier held, draining.
        assert_eq!(fire(&mut m, &mut c, 2), (false, true));
        assert_eq!(c[2].drain_all(), vec![tbar(1)]);
        // The held barrier keeps the node unstarved, though nothing moves
        // until the backedge speaks: `false` promises nothing.
        assert_eq!(fire(&mut m, &mut c, 2), (false, false));
        c[1].push(tbar(1));
        assert_eq!(fire(&mut m, &mut c, 2), (false, true));
        assert_eq!(c[2].drain_all(), vec![tbar(2)]);
        assert_eq!(fire(&mut m, &mut c, 2), (true, false));
    }

    #[test]
    fn reduce_with_a_pending_sum_is_starved_until_input_arrives() {
        let mut r = Prim::from(ReduceNode::new(crate::instr::AluOp::Add, 0u32));
        let mut c = chans(vec![vec![tdata([1u32]), tdata([2u32])]], 1);
        assert_eq!(fire(&mut r, &mut c, 1), (false, true));
        // The partial sum is held, but only an input barrier can emit it.
        assert_eq!(fire(&mut r, &mut c, 1), (true, false));
        assert!(c[1].is_empty());
        c[0].push(tbar(2));
        assert_eq!(fire(&mut r, &mut c, 1), (false, true));
        assert_eq!(c[1].drain_all(), vec![tdata([3u32]), tbar(1)]);
    }

    #[test]
    fn fwd_merge_with_a_lone_barrier_is_not_starved() {
        let mut m = Prim::from(FwdMergeNode::new());
        let mut c = chans(vec![vec![tbar(1)], vec![]], 1);
        assert_eq!(fire(&mut m, &mut c, 2), (false, false));
        c[1].push(tbar(1));
        assert_eq!(fire(&mut m, &mut c, 2), (false, true));
        assert_eq!(c[2].drain_all(), vec![tbar(1)]);
        assert_eq!(fire(&mut m, &mut c, 2), (true, false));
    }

    #[test]
    fn counter_emits_a_held_range_with_its_input_empty() {
        let mut k = Prim::from(CounterNode::new(
            Operand::imm(0u32),
            Operand::Reg(0),
            Operand::imm(1u32),
        ));
        let mut c = chans(vec![vec![tdata([3u32])]], 1);
        assert_eq!(fire_bounded(&mut k, &mut c, 1, 2), (false, true));
        assert_eq!(c[1].drain_all(), vec![tdata([0u32]), tdata([1u32])]);
        // The input is empty, yet the held range still moves.
        assert_eq!(fire_bounded(&mut k, &mut c, 1, 2), (false, true));
        assert_eq!(c[1].drain_all(), vec![tdata([2u32]), tbar(1)]);
    }

    #[test]
    fn a_port_bound_refuses_pushes_and_its_pop_frees_the_link() {
        // pass: c0 → c1, both bounded at 2 on both ports.
        let mut chans = chans(vec![(0..4u32).map(|i| tdata([i])).collect()], 1);
        let (ins, outs) = ([ChanId(0)], [ChanId(1)]);
        let bounded = PortBudget {
            bound: 2,
            ..PortBudget::UNLIMITED
        };
        let mut pass = Prim::from(EwNode::passthrough(1));
        let mut mem = MemoryState::default();
        let mut events = IoEvents::default();
        let (mut ib, mut ob) = ([bounded], [bounded]);
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob)
            .with_events(&mut events);
        assert!(pass.fire(&mut io, false).unwrap());
        assert!(!io.can_push(0, false), "the output holds its bound");
        // The input held 4 and then 3 tokens against its bound of 2: each
        // pop from a link at or over its bound frees it.
        assert_eq!(events.freed, vec![ChanId(0), ChanId(0)]);
        assert_eq!(events.pushed, vec![ChanId(1), ChanId(1)]);
        assert_eq!((chans[0].len(), chans[1].len()), (2, 2));
    }
}
