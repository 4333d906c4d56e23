//! Expansion primitives: counters, forks, and broadcasts (§III-B b).
//!
//! - A **counter** turns each parent thread into a run of child threads
//!   (indices min..max by step) terminated by Ω1, raising all passing
//!   barriers one level: the entry half of a `foreach`.
//! - A **fork** duplicates a thread `count` times *without* adding
//!   hierarchy (expansion + flattening fused): dynamic thread spawning.
//! - A **broadcast** re-attaches a parent's live values to each child
//!   thread, popping the parent element when the child stream's Ω(level)
//!   arrives (§III-C) — the scalar-network optimization Aurochs lacked.

use crate::instr::Operand;
use crate::node::{MachineError, Ports};
use crate::tuple::Tuple;
use core::fmt;
use revet_sltf::{BarrierLevel, Tok, Word};

/// Iteration state for a partially emitted index range.
#[derive(Clone, Debug)]
struct RangeState {
    next: i64,
    max: i64,
    step: i64,
    /// The parent tuple (forwarded on the passthrough port once).
    parent: Tuple,
    parent_sent: bool,
}

/// Counter node: expands each parent thread into an indexed child dimension.
///
/// Output port 0 carries child tuples `[index]` with barriers raised one
/// level and an Ω1 terminating each parent's children. Optional output port
/// 1 forwards the parent tuple (for broadcasts and result re-joins);
/// `parent_out_barriers` controls whether parent-level barriers appear there.
#[derive(Clone, Debug)]
pub struct CounterNode {
    /// Lower bound (evaluated against the parent tuple).
    pub min: Operand,
    /// Exclusive upper bound.
    pub max: Operand,
    /// Step (must evaluate non-zero).
    pub step: Operand,
    /// Forward barriers on the parent passthrough port.
    pub parent_out_barriers: bool,
    state: Option<RangeState>,
}

impl CounterNode {
    /// Creates a counter over `min..max` by `step`.
    pub fn new(min: Operand, max: Operand, step: Operand) -> Self {
        CounterNode {
            min,
            max,
            step,
            parent_out_barriers: true,
            state: None,
        }
    }

    /// Builder: strip barriers from the parent passthrough port (broadcast
    /// feeds want data only).
    pub fn with_data_only_parent(mut self) -> Self {
        self.parent_out_barriers = false;
        self
    }

    /// The counter firing rule (§III-B b).
    ///
    /// # Errors
    ///
    /// A step that evaluates to zero, or a barrier raised past Ω15.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        let has_parent_out = io.out_count() > 1;
        let mut progressed = false;
        loop {
            // Resume a partially emitted range first.
            if let Some(st) = &mut self.state {
                if has_parent_out && !st.parent_sent {
                    if !io.can_push(1, false) {
                        break;
                    }
                    st.parent_sent = true;
                    io.push_data(1, &st.parent);
                    progressed = true;
                }
                let mut done = false;
                while let Some(st) = &mut self.state {
                    let more = if st.step > 0 {
                        st.next < st.max
                    } else {
                        st.next > st.max
                    };
                    if more {
                        if !io.can_push(0, false) {
                            done = true;
                            break;
                        }
                        let i = st.next;
                        st.next += st.step;
                        io.push_data(0, &[Word::from_i32(i as i32)]);
                        progressed = true;
                    } else {
                        if !io.can_push(0, true) {
                            done = true;
                            break;
                        }
                        io.push_barrier(0, BarrierLevel::L1);
                        self.state = None;
                        progressed = true;
                    }
                }
                if done {
                    break;
                }
                continue;
            }
            match io.peek_in(0) {
                Some(Tok::Data(parent)) => {
                    let min = self.min.eval(parent).as_i32() as i64;
                    let max = self.max.eval(parent).as_i32() as i64;
                    let step = self.step.eval(parent).as_i32() as i64;
                    if step == 0 {
                        return Err(MachineError::new("counter step evaluated to zero"));
                    }
                    // The parent goes straight through when its port has
                    // room; only a blocked one is copied out to be held.
                    let forwarded = has_parent_out && io.can_push(1, false);
                    let mut held = Tuple::new();
                    if forwarded {
                        io.forward(0, 1);
                    } else {
                        if has_parent_out {
                            held.extend_from_slice(parent);
                        }
                        io.pop_in(0);
                    }
                    self.state = Some(RangeState {
                        next: min,
                        max,
                        step,
                        parent: held,
                        parent_sent: forwarded || !has_parent_out,
                    });
                    progressed = true;
                }
                Some(Tok::Barrier(l)) => {
                    let raised = l.raised().ok_or_else(|| {
                        MachineError::new("counter cannot raise a barrier past Ω15")
                    })?;
                    if !io.can_push(0, true) {
                        break;
                    }
                    if has_parent_out && self.parent_out_barriers && !io.can_push(1, true) {
                        break;
                    }
                    io.pop_in(0);
                    io.push_barrier(0, raised);
                    if has_parent_out && self.parent_out_barriers {
                        io.push_barrier(1, l);
                    }
                    progressed = true;
                }
                None => break,
            }
        }
        Ok(progressed)
    }
}

/// Fork node: emits `count` copies of each thread with an index appended,
/// at the *same* hierarchy level (§IV-A a). Barriers pass unchanged.
#[derive(Clone)]
pub struct ForkNode {
    /// Copy count (evaluated against the incoming tuple).
    pub count: Operand,
    /// Keep only these tuple slots in the copies (None = all).
    pub keep: Option<Vec<u16>>,
    state: Option<(Tuple, i64, i64)>, // (payload, next index, count)
    /// The last finished thread's payload buffer, which the next thread
    /// refills in place.
    spare: Tuple,
}

/// What the derive printed before `spare`, an allocation and not state,
/// joined the struct (the lowering's golden digest hashes this).
impl fmt::Debug for ForkNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForkNode")
            .field("count", &self.count)
            .field("keep", &self.keep)
            .field("state", &self.state)
            .finish()
    }
}

impl ForkNode {
    /// Creates a fork with dynamic count.
    pub fn new(count: Operand) -> Self {
        ForkNode {
            count,
            keep: None,
            state: None,
            spare: Tuple::new(),
        }
    }

    /// The fork firing rule (§IV-A a).
    ///
    /// # Errors
    ///
    /// None; the `Result` is the signature every firing rule shares.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        let mut progressed = false;
        loop {
            if let Some((payload, next, count)) = &mut self.state {
                let mut blocked = false;
                while *next < *count {
                    if !io.can_push(0, false) {
                        blocked = true;
                        break;
                    }
                    let slot = io.push_slot(0, payload.len() + 1);
                    slot[..payload.len()].copy_from_slice(payload);
                    slot[payload.len()] = Word::from_i32(*next as i32);
                    *next += 1;
                    progressed = true;
                }
                if blocked {
                    break;
                }
                if let Some((payload, ..)) = self.state.take() {
                    self.spare = payload;
                }
                continue;
            }
            match io.peek_in(0) {
                Some(Tok::Data(vals)) => {
                    let count = self.count.eval(vals).as_i32() as i64;
                    let mut payload = std::mem::take(&mut self.spare);
                    payload.clear();
                    match &self.keep {
                        Some(keep) => payload.extend(keep.iter().map(|&k| vals[k as usize])),
                        None => payload.extend_from_slice(vals),
                    }
                    io.pop_in(0);
                    self.state = Some((payload, 0, count));
                    progressed = true;
                }
                Some(Tok::Barrier(_)) => {
                    if !io.can_push(0, true) {
                        break;
                    }
                    io.forward(0, 0);
                    progressed = true;
                }
                None => break,
            }
        }
        Ok(progressed)
    }
}

/// Broadcast node: input 0 is the parent link (data-only), input 1 the child
/// stream; the output carries `child ++ parent` tuples. The parent element
/// is dropped when the child stream's Ω(level) arrives — or implicitly by a
/// higher barrier directly following child data (canonical encoding).
#[derive(Clone)]
pub struct BroadcastNode {
    /// Dimension distance between parent and child (≥1).
    pub level: u8,
    current: Option<Tuple>,
    /// The last dropped parent's buffer, which the next parent refills in
    /// place.
    spare: Tuple,
}

/// What the derive printed before `spare` joined the struct (see
/// [`ForkNode`]'s).
impl fmt::Debug for BroadcastNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BroadcastNode")
            .field("level", &self.level)
            .field("current", &self.current)
            .finish()
    }
}

impl BroadcastNode {
    /// Creates a broadcast across `level` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `level == 0`.
    pub fn new(level: u8) -> Self {
        assert!(level >= 1, "broadcast level must be at least 1");
        BroadcastNode {
            level,
            current: None,
            spare: Tuple::new(),
        }
    }

    /// The broadcast firing rule (§III-B b, §III-C).
    ///
    /// # Errors
    ///
    /// A barrier on the data-only parent link.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        const PARENT: usize = 0;
        const CHILD: usize = 1;
        let mut progressed = false;
        loop {
            match io.peek_in(CHILD) {
                Some(Tok::Data(_)) => {
                    if self.current.is_none() {
                        match io.peek_in(PARENT) {
                            Some(Tok::Data(parent)) => {
                                let mut held = std::mem::take(&mut self.spare);
                                held.clear();
                                held.extend_from_slice(parent);
                                self.current = Some(held);
                                io.pop_in(PARENT);
                                progressed = true;
                            }
                            Some(Tok::Barrier(_)) => {
                                return Err(MachineError::new(
                                    "broadcast parent link must be data-only",
                                ))
                            }
                            None => break, // parent hasn't arrived yet
                        }
                    }
                    if !io.can_push(0, false) {
                        break;
                    }
                    // The child leaves its slot before the output slot opens
                    // (they may be one channel), so it crosses in the scratch.
                    let mut child = std::mem::take(io.scratch());
                    child.clear();
                    if let Some(Tok::Data(vals)) = io.peek_in(CHILD) {
                        child.extend_from_slice(vals);
                    }
                    io.pop_in(CHILD);
                    let parent = self.current.as_deref().expect("loaded above");
                    let slot = io.push_slot(0, child.len() + parent.len());
                    slot[..child.len()].copy_from_slice(&child);
                    slot[child.len()..].copy_from_slice(parent);
                    *io.scratch() = child;
                    progressed = true;
                }
                Some(Tok::Barrier(l)) => {
                    let n = l.get();
                    if !io.can_push(0, true) {
                        break;
                    }
                    if n < self.level {
                        // Barrier nested inside one parent element.
                        io.forward(CHILD, 0);
                        progressed = true;
                    } else if let Some(dropped) = self.current.take() {
                        self.spare = dropped;
                        io.forward(CHILD, 0);
                        progressed = true;
                    } else if n == self.level {
                        // An empty child dimension still consumes one parent.
                        match io.peek_in(PARENT) {
                            Some(Tok::Data(_)) => {
                                io.pop_in(PARENT);
                                io.forward(CHILD, 0);
                                progressed = true;
                            }
                            Some(Tok::Barrier(_)) => {
                                return Err(MachineError::new(
                                    "broadcast parent link must be data-only",
                                ))
                            }
                            None => break,
                        }
                    } else {
                        // Higher barrier with no loaded parent: parent dims
                        // ending; nothing to consume.
                        io.forward(CHILD, 0);
                        progressed = true;
                    }
                }
                None => break,
            }
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::mem::MemoryState;
    use crate::node::{ChanId, NodeIo, PortBudget, Prim};
    use crate::tuple::{tbar, tdata, TTok};

    fn run(
        node: impl Into<Prim>,
        inputs: Vec<(Vec<TTok>, usize)>,
        out_arities: &[usize],
    ) -> Vec<Vec<TTok>> {
        let n_in = inputs.len();
        let mut chans: Vec<Channel> = inputs
            .iter()
            .map(|(_, a)| Channel::new(*a).without_canonicalization())
            .collect();
        for &a in out_arities {
            chans.push(Channel::new(a).without_canonicalization());
        }
        for (i, (toks, _)) in inputs.into_iter().enumerate() {
            for t in toks {
                chans[i].push(t);
            }
        }
        let ins: Vec<ChanId> = (0..n_in as u32).map(ChanId).collect();
        let outs: Vec<ChanId> = (n_in as u32..(n_in + out_arities.len()) as u32)
            .map(ChanId)
            .collect();
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; n_in];
        let mut ob = vec![PortBudget::UNLIMITED; out_arities.len()];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        node.into().fire(&mut io, false).unwrap();
        (n_in..n_in + out_arities.len())
            .map(|i| chans[i].drain_all())
            .collect()
    }

    #[test]
    fn counter_expands_and_raises() {
        // Parent threads [2],[1] with Ω1: each expands to 0..n, barriers raise.
        let c = CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32));
        let outs = run(
            c,
            vec![(vec![tdata([2u32]), tdata([1u32]), tbar(1)], 1)],
            &[1, 1],
        );
        assert_eq!(
            outs[0],
            vec![
                tdata([0u32]),
                tdata([1u32]),
                tbar(1),
                tdata([0u32]),
                tbar(1),
                tbar(2)
            ]
        );
        assert_eq!(outs[1], vec![tdata([2u32]), tdata([1u32]), tbar(1)]);
    }

    #[test]
    fn counter_zero_trip_emits_empty_dim() {
        let c = CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32));
        let outs = run(c, vec![(vec![tdata([0u32]), tbar(1)], 1)], &[1]);
        assert_eq!(outs[0], vec![tbar(1), tbar(2)], "empty dim preserved");
    }

    #[test]
    fn counter_data_only_parent() {
        let c = CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32))
            .with_data_only_parent();
        let outs = run(c, vec![(vec![tdata([1u32]), tbar(1)], 1)], &[1, 1]);
        assert_eq!(outs[1], vec![tdata([1u32])], "no barriers on parent port");
    }

    #[test]
    fn fork_duplicates_without_hierarchy() {
        let f = ForkNode::new(Operand::Reg(0));
        let outs = run(f, vec![(vec![tdata([3u32]), tbar(1)], 1)], &[2]);
        assert_eq!(
            outs[0],
            vec![
                tdata([3u32, 0u32]),
                tdata([3u32, 1u32]),
                tdata([3u32, 2u32]),
                tbar(1)
            ]
        );
    }

    #[test]
    fn fork_zero_count_drops_thread() {
        let f = ForkNode::new(Operand::imm(0u32));
        let outs = run(f, vec![(vec![tdata([9u32]), tbar(1)], 1)], &[2]);
        assert_eq!(outs[0], vec![tbar(1)]);
    }

    #[test]
    fn broadcast_attaches_parent_per_child() {
        // Parent: a=10, b=20 (data only). Child: two children for a, one for b.
        let b = BroadcastNode::new(1);
        let outs = run(
            b,
            vec![
                (vec![tdata([10u32]), tdata([20u32])], 1),
                (
                    vec![
                        tdata([0u32]),
                        tdata([1u32]),
                        tbar(1),
                        tdata([0u32]),
                        tbar(1),
                        tbar(2),
                    ],
                    1,
                ),
            ],
            &[2],
        );
        assert_eq!(
            outs[0],
            vec![
                tdata([0u32, 10u32]),
                tdata([1u32, 10u32]),
                tbar(1),
                tdata([0u32, 20u32]),
                tbar(1),
                tbar(2),
            ]
        );
    }

    #[test]
    fn broadcast_empty_child_dim_consumes_parent() {
        // a has no children (Ω1 immediately), b has one.
        let b = BroadcastNode::new(1);
        let outs = run(
            b,
            vec![
                (vec![tdata([10u32]), tdata([20u32])], 1),
                (vec![tbar(1), tdata([0u32]), tbar(1), tbar(2)], 1),
            ],
            &[2],
        );
        assert_eq!(
            outs[0],
            vec![tbar(1), tdata([0u32, 20u32]), tbar(1), tbar(2)]
        );
    }

    #[test]
    fn broadcast_handles_implied_inner_barrier() {
        // Canonical child: x Ω2 — the Ω1 dropping the parent is implied.
        let b = BroadcastNode::new(1);
        let outs = run(
            b,
            vec![(vec![tdata([10u32])], 1), (vec![tdata([0u32]), tbar(2)], 1)],
            &[2],
        );
        assert_eq!(outs[0], vec![tdata([0u32, 10u32]), tbar(2)]);
    }

    #[test]
    fn counter_negative_step() {
        let c = CounterNode::new(Operand::imm(3u32), Operand::imm(0u32), Operand::imm(-1i32));
        let outs = run(c, vec![(vec![tdata([0u32]), tbar(1)], 1)], &[1]);
        assert_eq!(
            outs[0],
            vec![
                tdata([3u32]),
                tdata([2u32]),
                tdata([1u32]),
                tbar(1),
                tbar(2)
            ]
        );
    }
}
