//! Merge primitives: forward merge (§III-B c) and forward-backward merge
//! (§III-B d).
//!
//! Forward merging joins the two forward branches of an `if` statement:
//! data is interleaved eagerly; when a barrier appears on one input, that
//! input stalls until an equal barrier appears on the other, then a single
//! barrier is forwarded. Because upstream filters duplicate every barrier to
//! both branches, the two inputs carry the *same* barrier structure — modulo
//! canonical implied-barrier elision, which the merge realigns.
//!
//! Forward-backward merging is the `while`-loop header. It raises incoming
//! barriers one level to reserve Ω1 for wave tracking: it emits the loop
//! body's threads in waves terminated by Ω1, echoes returning Ω1s, and
//! declares the loop drained when the backedge yields two Ω1 tokens in a row
//! with no intervening data — at which point the held forward barrier is
//! forwarded one level higher. Unlike Aurochs's timeout scheme, this is
//! exact for arbitrarily long (and nested) loop bodies.

use crate::node::{MachineError, Ports};
use revet_sltf::{BarrierLevel, Tok};

/// Forward merge: combines two forward branches into one stream.
#[derive(Clone, Debug, Default)]
pub struct FwdMergeNode {
    _priv: (),
}

impl FwdMergeNode {
    /// Creates a forward merge.
    pub fn new() -> Self {
        FwdMergeNode::default()
    }

    /// The forward-merge firing rule (§III-B c).
    ///
    /// # Errors
    ///
    /// None; the `Result` is the signature every firing rule shares.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        assert_eq!(io.in_count(), 2, "forward merge has exactly two inputs");
        let mut progressed = false;
        loop {
            match (io.peek_in(0), io.peek_in(1)) {
                // Eager data pass-through from either side.
                (Some(Tok::Data(_)), _) if io.can_push(0, false) => {
                    io.forward(0, 0);
                    progressed = true;
                }
                (_, Some(Tok::Data(_))) if io.can_push(0, false) => {
                    io.forward(1, 0);
                    progressed = true;
                }
                // Both fronts are barriers: emit the lower level once; pop
                // the side(s) carrying exactly that level (the other side's
                // higher barrier subsumes an implied copy).
                (Some(Tok::Barrier(a)), Some(Tok::Barrier(b))) => {
                    if !io.can_push(0, true) {
                        break;
                    }
                    let level = a.min(b);
                    if a == level {
                        io.pop_in(0);
                    }
                    if b == level {
                        io.pop_in(1);
                    }
                    io.push_barrier(0, level);
                    progressed = true;
                }
                // A lone barrier stalls its link until the other side speaks.
                _ => break,
            }
        }
        Ok(progressed)
    }
}

/// The phase of a forward-backward merge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FbPhase {
    /// Admitting new threads from the forward branch.
    Forward,
    /// Forward branch stalled at a barrier; circulating the loop body.
    Draining,
}

/// Forward-backward merge: the while-loop header. Input 0 is the forward
/// branch, input 1 the backedge; the single output feeds the loop body.
#[derive(Clone, Debug)]
pub struct FbMergeNode {
    phase: FbPhase,
    /// Data passed to the body since the last Ω1 this node emitted.
    wave_had_data: bool,
}

impl Default for FbMergeNode {
    fn default() -> Self {
        FbMergeNode::new()
    }
}

impl FbMergeNode {
    /// Creates a loop-header merge.
    pub fn new() -> Self {
        FbMergeNode {
            phase: FbPhase::Forward,
            wave_had_data: false,
        }
    }

    /// The forward-backward-merge firing rule (§III-B d).
    ///
    /// # Errors
    ///
    /// An Ω1 on the backedge while admitting threads, a forward front that
    /// changed while draining, or a barrier raised past Ω15.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        assert_eq!(io.in_count(), 2, "fb-merge has forward + backedge inputs");
        const FWD: usize = 0;
        const BACK: usize = 1;
        let mut progressed = false;
        loop {
            // Backedge barriers above Ω1 are echoes of barriers this node
            // emitted earlier (they circulated through the body's filters);
            // they are consumed here in both phases.
            if let Some(Tok::Barrier(l)) = io.peek_in(BACK) {
                if l.get() > 1 {
                    io.pop_in(BACK);
                    progressed = true;
                    continue;
                }
            }
            match self.phase {
                FbPhase::Forward => {
                    // Returning threads may rejoin eagerly while new threads
                    // are still being admitted.
                    if matches!(io.peek_in(BACK), Some(Tok::Data(_))) && io.can_push(0, false) {
                        io.forward(BACK, 0);
                        self.wave_had_data = true;
                        progressed = true;
                        continue;
                    }
                    if matches!(io.peek_in(BACK), Some(Tok::Barrier(_))) {
                        // Only Ω1 reaches here (higher levels consumed above)
                        // and no Ω1 can be outstanding in Forward phase.
                        return Err(MachineError::new(
                            "fb-merge: unexpected Ω1 on backedge while admitting threads",
                        ));
                    }
                    match io.peek_in(FWD) {
                        Some(Tok::Data(_)) => {
                            if !io.can_push(0, false) {
                                break;
                            }
                            io.forward(FWD, 0);
                            self.wave_had_data = true;
                            progressed = true;
                        }
                        Some(Tok::Barrier(_)) => {
                            // Hold the forward barrier; terminate the first
                            // wave with the reserved Ω1 and start draining.
                            if !io.can_push(0, true) {
                                break;
                            }
                            io.push_barrier(0, BarrierLevel::L1);
                            self.wave_had_data = false;
                            self.phase = FbPhase::Draining;
                            progressed = true;
                        }
                        None => break,
                    }
                }
                FbPhase::Draining => match io.peek_in(BACK) {
                    Some(Tok::Data(_)) => {
                        if !io.can_push(0, false) {
                            break;
                        }
                        io.forward(BACK, 0);
                        self.wave_had_data = true;
                        progressed = true;
                    }
                    Some(Tok::Barrier(_)) => {
                        // Only Ω1 arrives here. Two Ω1s in a row ⇒ drained.
                        if self.wave_had_data {
                            if !io.can_push(0, true) {
                                break;
                            }
                            io.pop_in(BACK);
                            io.push_barrier(0, BarrierLevel::L1);
                            self.wave_had_data = false;
                            progressed = true;
                        } else {
                            if !io.can_push(0, true) {
                                break;
                            }
                            io.pop_in(BACK);
                            let held = io.pop_in(FWD);
                            let level = match held {
                                Tok::Barrier(l) => l,
                                Tok::Data(_) => {
                                    return Err(MachineError::new(
                                        "fb-merge: forward front changed while draining",
                                    ))
                                }
                            };
                            let raised = level.raised().ok_or_else(|| {
                                MachineError::new(format!(
                                    "fb-merge: cannot raise {level} past Ω15 — loop nest too deep"
                                ))
                            })?;
                            io.push_barrier(0, raised);
                            self.phase = FbPhase::Forward;
                            self.wave_had_data = false;
                            progressed = true;
                        }
                    }
                    None => break,
                },
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

    fn step2to1(
        node: &mut Prim,
        in0: Vec<TTok>,
        in1: Vec<TTok>,
        backedge_raw: bool,
    ) -> (Vec<TTok>, Vec<TTok>, Vec<TTok>) {
        let c1 = if backedge_raw {
            Channel::new(1).without_canonicalization()
        } else {
            Channel::new(1)
        };
        let mut chans = vec![Channel::new(1), c1, Channel::new(1)];
        for t in in0 {
            chans[0].push(t);
        }
        for t in in1 {
            chans[1].push(t);
        }
        let ins = [ChanId(0), ChanId(1)];
        let outs = [ChanId(2)];
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; 2];
        let mut ob = vec![PortBudget::UNLIMITED; 1];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        node.fire(&mut io, false).unwrap();
        (
            chans[0].drain_all(),
            chans[1].drain_all(),
            chans[2].drain_all(),
        )
    }

    #[test]
    fn fwd_merge_interleaves_then_syncs_barrier() {
        let mut m = Prim::from(FwdMergeNode::new());
        let (r0, r1, out) = step2to1(
            &mut m,
            vec![tdata([1u32]), tdata([2u32]), tbar(1)],
            vec![tdata([10u32]), tbar(1)],
            false,
        );
        assert!(r0.is_empty() && r1.is_empty());
        // All data present exactly once, single merged barrier last.
        assert_eq!(out.len(), 4);
        assert_eq!(out.last(), Some(&tbar(1)));
        let data: Vec<_> = out.iter().filter(|t| t.is_data()).cloned().collect();
        assert!(data.contains(&tdata([1u32])));
        assert!(data.contains(&tdata([2u32])));
        assert!(data.contains(&tdata([10u32])));
    }

    #[test]
    fn fwd_merge_stalls_barrier_side() {
        // Input 0 hits Ω1; input 1 still streams data. Data passes, barrier
        // waits, then merges.
        let mut m = Prim::from(FwdMergeNode::new());
        let (_, _, out) = step2to1(
            &mut m,
            vec![tbar(1)],
            vec![tdata([7u32]), tdata([8u32]), tbar(1)],
            false,
        );
        assert_eq!(out, vec![tdata([7u32]), tdata([8u32]), tbar(1)]);
    }

    #[test]
    fn fwd_merge_realigns_implied_barriers() {
        // Side A: x Ω2 (Ω1 implied); side B: Ω1 Ω2 (explicit, no data).
        let mut m = Prim::from(FwdMergeNode::new());
        let (_, _, out) = step2to1(
            &mut m,
            vec![tdata([1u32]), tbar(2)],
            vec![tbar(1), tbar(2)],
            false,
        );
        // Output (canonicalized by the channel): x Ω1 Ω2 → x Ω2? No: Ω1 is
        // emitted before Ω2 and both follow data, so the channel collapses
        // them into Ω2 alone.
        assert_eq!(out, vec![tdata([1u32]), tbar(2)]);
    }

    #[test]
    fn fwd_merge_preserves_distinct_empty_dims() {
        // Both sides: Ω1 Ω1 Ω2 ([[],[]]) must not collapse.
        let mut m = Prim::from(FwdMergeNode::new());
        let (_, _, out) = step2to1(
            &mut m,
            vec![tbar(1), tbar(1), tbar(2)],
            vec![tbar(1), tbar(1), tbar(2)],
            false,
        );
        assert_eq!(out, vec![tbar(1), tbar(1), tbar(2)]);
    }

    #[test]
    fn fb_merge_first_wave_and_drain() {
        // Forward: t1 t2 Ωn(=Ω1 at this nesting). Backedge initially empty.
        let mut m = Prim::from(FbMergeNode::new());
        let (fwd_left, _, out) = step2to1(
            &mut m,
            vec![tdata([1u32]), tdata([2u32]), tbar(1)],
            vec![],
            true,
        );
        // Wave 0 emitted, Ω1 appended, fwd barrier held (still queued).
        assert_eq!(out, vec![tdata([1u32]), tdata([2u32]), tbar(1)]);
        assert_eq!(
            fwd_left,
            vec![tbar(1)],
            "forward barrier held, not consumed"
        );

        // Backedge returns one survivor then the Ω1 echo; then the empty
        // wave's Ω1 echo signals drain.
        let (_, _, out2) = step2to1(&mut m, vec![tbar(1)], vec![tdata([2u32]), tbar(1)], true);
        assert_eq!(out2, vec![tdata([2u32]), tbar(1)]);
        let (_, _, out3) = step2to1(&mut m, vec![tbar(1)], vec![tbar(1)], true);
        assert_eq!(out3, vec![tbar(2)], "held Ω1 re-emitted one level higher");
    }

    #[test]
    fn fb_merge_zero_thread_tensor() {
        // A tensor with no threads: Ω1 arrives alone; wave 0 is empty; the
        // echo drains immediately.
        let mut m = Prim::from(FbMergeNode::new());
        let (_, _, out) = step2to1(&mut m, vec![tbar(1)], vec![], true);
        assert_eq!(out, vec![tbar(1)], "empty wave 0 still emits its Ω1");
        let (_, _, out2) = step2to1(&mut m, vec![tbar(1)], vec![tbar(1)], true);
        assert_eq!(out2, vec![tbar(2)]);
    }

    #[test]
    fn fb_merge_discards_high_echoes() {
        // After drain, the raised barrier echoes back on the backedge and is
        // discarded.
        let mut m = Prim::from(FbMergeNode::new());
        let (_, back_left, out) = step2to1(&mut m, vec![], vec![tbar(2)], true);
        assert!(out.is_empty());
        assert!(back_left.is_empty(), "echo consumed");
    }
}
