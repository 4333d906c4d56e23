//! Contraction primitives: reduction and flattening (§III-B b).
//!
//! Reduction coalesces the innermost dimension into one element with an
//! associative operator, lowering each barrier one level. The empty-tensor
//! rules of §III-A b are load-bearing here: `[[]]`, `[[],[]]` and `[]`
//! reduce to `[0]`, `[0,0]` and `[]` respectively — one emission per inner
//! dimension *terminator*, including empty ones, and none for absent ones.
//!
//! Flattening removes one hierarchy level while leaving elements untouched.

use crate::instr::AluOp;
use crate::node::{MachineError, Ports};
use revet_sltf::{Tok, Word};

/// Reduce node: folds dimension 1 into single elements.
///
/// With `op = None` this is a **void reduction**: inputs are void tokens
/// (arity-0 tuples) and one void token is emitted per inner dimension — the
/// synchronization idiom used for memory-ordering at `foreach` ends.
#[derive(Clone, Debug)]
pub struct ReduceNode {
    /// The associative operator (`None` = void reduction).
    pub op: Option<AluOp>,
    /// Initial accumulator value (also the result for empty dimensions).
    pub init: Word,
    acc: Word,
    pending: bool,
}

impl ReduceNode {
    /// Creates an arithmetic reduction.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not associative/commutative
    /// ([`AluOp::is_reduction_compatible`]).
    pub fn new(op: AluOp, init: impl Into<Word>) -> Self {
        assert!(
            op.is_reduction_compatible(),
            "{op:?} is not a valid reduction operator"
        );
        let init = init.into();
        ReduceNode {
            op: Some(op),
            init,
            acc: init,
            pending: false,
        }
    }

    /// Creates a void (synchronization-only) reduction.
    pub fn void() -> Self {
        ReduceNode {
            op: None,
            init: Word::ZERO,
            acc: Word::ZERO,
            pending: false,
        }
    }

    /// Pushes the folded dimension: the accumulator, or a void token.
    fn emit(&self, io: &mut impl Ports) {
        match self.op {
            Some(_) => io.push_data(0, &[self.acc]),
            None => io.push_data(0, &[]),
        }
    }

    /// The reduction firing rule (§III-B b).
    ///
    /// # Errors
    ///
    /// A void token into an arithmetic reduction.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        let mut progressed = false;
        loop {
            match io.peek_in(0) {
                Some(Tok::Data(vals)) => {
                    if let Some(op) = self.op {
                        if vals.is_empty() {
                            return Err(MachineError::new(
                                "arithmetic reduce received a void token",
                            ));
                        }
                        self.acc = op.apply(self.acc, vals[0]);
                    }
                    io.pop_in(0);
                    self.pending = true;
                    progressed = true;
                }
                Some(Tok::Barrier(l)) => {
                    let n = l.get();
                    if n == 1 {
                        // Ω1 always completes a dimension, even an empty one.
                        if !io.can_push(0, false) {
                            break;
                        }
                        io.pop_in(0);
                        self.emit(io);
                        self.acc = self.init;
                        self.pending = false;
                        progressed = true;
                    } else {
                        // Ωn (n ≥ 2): an implied Ω1 precedes it iff data
                        // arrived since the last emission.
                        let need_data_push = self.pending;
                        if need_data_push && !io.can_push(0, false) {
                            break;
                        }
                        if !io.can_push(0, true) {
                            break;
                        }
                        let lowered = l.lowered().expect("n >= 2 lowers fine");
                        io.pop_in(0);
                        if need_data_push {
                            self.emit(io);
                            self.acc = self.init;
                            self.pending = false;
                        }
                        io.push_barrier(0, lowered);
                        progressed = true;
                    }
                }
                None => break,
            }
        }
        Ok(progressed)
    }
}

/// Flatten node: removes one hierarchy level (Ω1 dropped, Ωn lowered). Also
/// serves as the **loop-exit** edge operator of §III-B d ("edges leaving the
/// body then lower all barriers by one level").
#[derive(Clone, Debug, Default)]
pub struct FlattenNode {
    _priv: (),
}

impl FlattenNode {
    /// Creates a flatten.
    pub fn new() -> Self {
        FlattenNode::default()
    }

    /// The flattening firing rule (§III-B b).
    ///
    /// # Errors
    ///
    /// None; the `Result` is the signature every firing rule shares.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        let mut progressed = false;
        loop {
            match io.peek_in(0) {
                Some(Tok::Data(_)) => {
                    if !io.can_push(0, false) {
                        break;
                    }
                    io.forward(0, 0);
                    progressed = true;
                }
                Some(Tok::Barrier(l)) => match l.lowered() {
                    Some(lowered) => {
                        if !io.can_push(0, true) {
                            break;
                        }
                        io.pop_in(0);
                        io.push_barrier(0, lowered);
                        progressed = true;
                    }
                    None => {
                        io.pop_in(0); // Ω1 vanishes
                        progressed = true;
                    }
                },
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

    fn run(node: impl Into<Prim>, input: Vec<TTok>, in_ar: usize, out_ar: usize) -> Vec<TTok> {
        let mut chans = vec![
            Channel::new(in_ar).without_canonicalization(),
            Channel::new(out_ar).without_canonicalization(),
        ];
        for t in input {
            chans[0].push(t);
        }
        let ins = [ChanId(0)];
        let outs = [ChanId(1)];
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; 1];
        let mut ob = vec![PortBudget::UNLIMITED; 1];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        node.into().fire(&mut io, false).unwrap();
        chans[1].drain_all()
    }

    #[test]
    fn sum_two_dims() {
        // [[1,2],[3]] → [3, 3] with barriers lowered: 1 2 Ω1 3 Ω2 → 3 3 Ω1.
        let r = ReduceNode::new(AluOp::Add, 0u32);
        let out = run(
            r,
            vec![
                tdata([1u32]),
                tdata([2u32]),
                tbar(1),
                tdata([3u32]),
                tbar(2),
            ],
            1,
            1,
        );
        assert_eq!(out, vec![tdata([3u32]), tdata([3u32]), tbar(1)]);
    }

    #[test]
    fn empty_tensor_rules() {
        // §III-A b: [[]]→[0], [[],[]]→[0,0], []→[].
        let r = ReduceNode::new(AluOp::Add, 0u32);
        assert_eq!(
            run(r, vec![tbar(1), tbar(2)], 1, 1),
            vec![tdata([0u32]), tbar(1)]
        );
        let r = ReduceNode::new(AluOp::Add, 0u32);
        assert_eq!(
            run(r, vec![tbar(1), tbar(1), tbar(2)], 1, 1),
            vec![tdata([0u32]), tdata([0u32]), tbar(1)]
        );
        let r = ReduceNode::new(AluOp::Add, 0u32);
        assert_eq!(run(r, vec![tbar(2)], 1, 1), vec![tbar(1)]);
    }

    #[test]
    fn canonical_input_implied_emit() {
        // 1 Ω2 (Ω1 implied after data) must still emit the partial sum.
        let r = ReduceNode::new(AluOp::Add, 0u32);
        assert_eq!(
            run(r, vec![tdata([1u32]), tbar(2)], 1, 1),
            vec![tdata([1u32]), tbar(1)]
        );
    }

    #[test]
    fn min_reduction_with_init() {
        let r = ReduceNode::new(AluOp::MinS, i32::MAX);
        assert_eq!(
            run(
                r,
                vec![tdata([5u32]), tdata([2u32]), tdata([9u32]), tbar(1)],
                1,
                1
            ),
            vec![tdata([2u32])]
        );
    }

    #[test]
    fn void_reduce_synchronizes() {
        // [[v,v]] → one void token per inner dimension: [v], barriers lowered.
        let r = ReduceNode::void();
        let v = || tdata::<[u32; 0], u32>([]);
        assert_eq!(
            run(r, vec![v(), v(), tbar(1), tbar(2)], 0, 0),
            vec![v(), tbar(1)]
        );
    }

    #[test]
    #[should_panic(expected = "not a valid reduction")]
    fn non_associative_rejected() {
        let _ = ReduceNode::new(AluOp::Sub, 0u32);
    }

    #[test]
    fn flatten_lowers_and_drops() {
        let f = FlattenNode::new();
        assert_eq!(
            run(
                f,
                vec![tdata([1u32]), tbar(1), tdata([2u32]), tbar(2)],
                1,
                1
            ),
            vec![tdata([1u32]), tdata([2u32]), tbar(1)]
        );
    }

    #[test]
    fn flatten_as_loop_exit() {
        // Fig. 4 stream D before lowering: t3 t1 t2 t4 with wave Ω1s and the
        // final raised barrier.
        let f = FlattenNode::new();
        let input = vec![
            tdata([3u32]),
            tbar(1),
            tdata([1u32]),
            tbar(1),
            tdata([2u32]),
            tdata([4u32]),
            tbar(1),
            tbar(2),
        ];
        assert_eq!(
            run(f, input, 1, 1),
            vec![
                tdata([3u32]),
                tdata([1u32]),
                tdata([2u32]),
                tdata([4u32]),
                tbar(1)
            ]
        );
    }
}
