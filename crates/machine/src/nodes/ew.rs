//! The element-wise (pipeline) node, and the run rule that fires a chain
//! of them.
//!
//! An [`EwNode`] models the body of a compute-unit pipeline: it consumes one
//! thread from each input port in lockstep (the pipeline head "wait[s] for
//! all inputs to be available for element-wise operations", §III-C), runs a
//! straight-line instruction sequence over the thread's registers, and emits
//! selected registers on each output port. Outputs may be *predicated*
//! (filter tails, §III-B c) and may *strip barriers* (broadcast parent links
//! carry data only).
//!
//! ## The run rule
//!
//! Element-wise stages "transform live values one thread at a time and
//! never change thread ordering, hierarchy, or count" (§III-B a), so a
//! chain of them can carry each thread from its first stage to its last
//! through registers instead of queues. `fire_run` is that rule, written
//! once for a *run* of stages in which stage `j`'s single output feeds
//! stage `j + 1`'s single input:
//!
//! - The head stage classifies its input fronts — the lockstep zip, the
//!   barrier alignment and the structure-mismatch diagnosis — and commits
//!   one thread or one barrier at a time.
//! - A committed thread crosses the whole run in one pass. Stage `j`
//!   computes in its own window of the run's register file, zeroed when
//!   the thread enters it, and its output slots are copied into stage
//!   `j + 1`'s input registers. The channel between them, a *fused edge*,
//!   is never written. A failed predicate ends the thread inside the run.
//! - A barrier crosses the run the same way, stopped by a stripping
//!   output. On each fused edge it is held (a [`Tail`]) until the next
//!   token arrives there or the firing ends, so a later barrier can still
//!   absorb it exactly as the edge's channel would have.
//!
//! Every token that leaves a run, and every memory effect, is therefore
//! what firing its stages one after another through real channels
//! produces — provided the stages' memory accesses commute, which the
//! execution plan checks when it groups stages into runs. [`EwNode::fire`]
//! is the one-stage run (`EwNode::fire_gated`), the case the simulator, the
//! dense oracle and the plan's unchained stages fire.

use crate::instr::{exec_instrs, EwInstr, Reg};
use crate::node::{MachineError, Ports};
use revet_sltf::{BarrierLevel, Tok, Word};

/// Where one output port gets its tuple and when it fires.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutputSpec {
    /// Registers forming the output tuple (in order).
    pub slots: Vec<Reg>,
    /// Send data only when register `.0` has truthiness `.1` (filter output).
    pub pred: Option<(Reg, bool)>,
    /// Do not forward barriers on this port (broadcast parent links).
    pub strip_barriers: bool,
}

impl OutputSpec {
    /// An unconditional output of the given registers.
    pub fn plain(slots: impl Into<Vec<Reg>>) -> Self {
        OutputSpec {
            slots: slots.into(),
            pred: None,
            strip_barriers: false,
        }
    }

    /// A filtered output: fires when `reg`'s truthiness equals `expect`.
    pub fn filtered(slots: impl Into<Vec<Reg>>, reg: Reg, expect: bool) -> Self {
        OutputSpec {
            slots: slots.into(),
            pred: Some((reg, expect)),
            strip_barriers: false,
        }
    }

    /// An unconditional, barrier-stripping output (broadcast parent feed).
    pub fn stripped(slots: impl Into<Vec<Reg>>) -> Self {
        OutputSpec {
            slots: slots.into(),
            pred: None,
            strip_barriers: true,
        }
    }

    /// Whether this output takes the thread whose registers are `regs`.
    #[inline(always)]
    fn fires(&self, regs: &[Word]) -> bool {
        self.pred
            .map_or(true, |(r, expect)| regs[r as usize].as_bool() == expect)
    }
}

/// An element-wise pipeline node. See module docs.
#[derive(Clone, Debug)]
pub struct EwNode {
    /// Straight-line per-thread program.
    pub instrs: Vec<EwInstr>,
    /// One spec per output port.
    pub outputs: Vec<OutputSpec>,
    reg_count: u16,
}

impl EwNode {
    /// Builds a node; the register file is sized from the instructions,
    /// output slots, and `min_regs` (which must cover the concatenated input
    /// arity, since inputs load into registers `0..arity_sum`).
    pub fn new(min_regs: u16, instrs: Vec<EwInstr>, outputs: Vec<OutputSpec>) -> Self {
        let mut reg_count = min_regs;
        for i in &instrs {
            reg_count = reg_count.max(i.max_reg());
        }
        for o in &outputs {
            for &s in &o.slots {
                reg_count = reg_count.max(s + 1);
            }
            if let Some((p, _)) = o.pred {
                reg_count = reg_count.max(p + 1);
            }
        }
        EwNode {
            instrs,
            outputs,
            reg_count,
        }
    }

    /// An identity node: forwards its (concatenated) inputs unchanged.
    pub fn passthrough(arity: u16) -> Self {
        EwNode::new(
            arity,
            Vec::new(),
            vec![OutputSpec::plain((0..arity).collect::<Vec<_>>())],
        )
    }

    /// The register-file size (resource accounting: §VI-A maps registers to
    /// the 6 vec/scal regs per lane per stage budget).
    pub fn reg_count(&self) -> u16 {
        self.reg_count
    }

    fn allocs_ready(&self, io: &impl Ports) -> bool {
        // Conservative stall check: every AllocPop needs one available
        // pointer before we commit to consuming the input thread, so each
        // allocator must hold as many as this program pops from it.
        let pops = || self.instrs.iter().filter_map(EwInstr::alloc_pop_id);
        pops().all(|id| io.mem_ref().alloc_available(id) >= pops().filter(|&n| n == id).count())
    }

    /// Whether this program pops an allocator queue, so it can stall on
    /// one (§V-B a blocking pops). A graph asks once per node, when the
    /// node is added.
    pub(crate) fn may_stall_on_alloc(&self) -> bool {
        self.instrs.iter().any(|i| i.alloc_pop_id().is_some())
    }

    /// The element-wise firing rule, on the register scratch the ports
    /// lend ([`Ports::scratch`]).
    ///
    /// # Errors
    ///
    /// Structure-mismatched inputs (a data front against a barrier front).
    pub fn fire<P: Ports>(&self, io: &mut P) -> Result<bool, MachineError> {
        self.fire_gated(io, self.may_stall_on_alloc())
    }

    /// [`EwNode::fire`] for a caller that already knows `gated`, the
    /// answer to [`EwNode::may_stall_on_alloc`] (`false` skips the
    /// allocator stall check): the one-stage case of the run rule (module
    /// docs). A single stage has no fused edge, so nothing is held and
    /// every token goes straight to its outputs.
    #[inline(always)]
    pub(crate) fn fire_gated<P: Ports>(
        &self,
        io: &mut P,
        gated: bool,
    ) -> Result<bool, MachineError> {
        let mut regs = std::mem::take(io.scratch());
        let result = fire_run(self, io, &mut regs, &mut [], gated);
        *io.scratch() = regs;
        result
    }
}

/// A run of element-wise stages as [`fire_run`] reads it: stage `j`'s
/// single output feeds stage `j + 1`'s single input over a fused edge.
pub(crate) trait FusedRun {
    /// Number of stages (at least one).
    fn stages(&self) -> usize;
    /// Stage `j`'s behavior.
    fn stage(&self, j: usize) -> &EwNode;
    /// Where stage `j`'s window starts in the run's register file; a
    /// window ends where the next one starts.
    fn window(&self, j: usize) -> usize;
    /// Whether the fused edge out of stage `j` canonicalizes barriers.
    fn canonicalizes(&self, j: usize) -> bool;
}

/// A stage alone is the one-stage run.
impl FusedRun for EwNode {
    #[inline(always)]
    fn stages(&self) -> usize {
        1
    }

    #[inline(always)]
    fn stage(&self, _: usize) -> &EwNode {
        self
    }

    #[inline(always)]
    fn window(&self, _: usize) -> usize {
        0
    }

    fn canonicalizes(&self, _: usize) -> bool {
        unreachable!("a one-stage run has no fused edge")
    }
}

/// What a fused edge's channel would hold at its tail, for the absorb
/// rule of [`crate::Channel::push_barrier`]. That channel would start the
/// firing empty and not be popped until its producer drained its input,
/// so its consumer would see the producer's whole batch, canonicalized —
/// and of that batch only a barrier at the tail can still change.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) enum Tail {
    /// Nothing crossed the edge this firing.
    #[default]
    Empty,
    /// The last token across was data.
    Data,
    /// A barrier not yet delivered, and whether data directly preceded it.
    Held(BarrierLevel, bool),
}

/// The run rule (module docs): fires `run` on `io`, whose inputs are the
/// head stage's and whose outputs are the last stage's, with `regs` as the
/// run's register file and one `tails` entry per fused edge (reset here).
/// `gated` is whether the head may stall on an allocator.
///
/// Inlined into its callers so the ports stay in registers across the
/// token loop — measured on `exec_control`.
///
/// # Errors
///
/// Structure-mismatched head inputs (a data front against a barrier
/// front); nothing past the head can fail.
#[inline(always)]
pub(crate) fn fire_run<P: Ports, R: FusedRun + ?Sized>(
    run: &R,
    io: &mut P,
    regs: &mut Vec<Word>,
    tails: &mut [Tail],
    gated: bool,
) -> Result<bool, MachineError> {
    let (head, last) = (run.stage(0), run.stages() - 1);
    let out = &run.stage(last).outputs;
    let n_in = io.in_count();
    assert!(n_in >= 1, "EwNode requires at least one input");
    let forwards = |o: &usize| !out[*o].strip_barriers;
    regs.resize(
        run.window(last) + run.stage(last).reg_count as usize,
        Word::ZERO,
    );
    tails[..last].fill(Tail::Empty);
    let mut progressed = false;
    'outer: loop {
        // Classify all input fronts.
        let mut min_bar: Option<BarrierLevel> = None;
        let mut all_data = true;
        let mut any_barrier = false;
        for i in 0..n_in {
            match io.peek_in(i) {
                None => break 'outer,
                Some(Tok::Data(_)) => {}
                Some(Tok::Barrier(l)) => {
                    all_data = false;
                    any_barrier = true;
                    min_bar = Some(min_bar.map_or(l, |m: BarrierLevel| m.min(l)));
                }
            }
        }
        if all_data {
            if gated && !head.allocs_ready(io) {
                break;
            }
            if !(0..out.len()).all(|o| io.can_push(o, false)) {
                break;
            }
            // Commit: pop every input, concatenate into the head's window.
            let w = run.window(0);
            let win = &mut regs[w..w + head.reg_count as usize];
            win.fill(Word::ZERO);
            let mut cursor = 0usize;
            for i in 0..n_in {
                let Some(Tok::Data(vals)) = io.peek_in(i) else {
                    unreachable!("front changed between peek and pop")
                };
                win[cursor..cursor + vals.len()].copy_from_slice(vals);
                cursor += vals.len();
                io.pop_in(i);
            }
            exec_instrs(&head.instrs, win, io.mem());
            carry(run, io, regs, tails);
            progressed = true;
        } else if any_barrier {
            // Mixed data/barrier fronts are a structure mismatch unless
            // the data fronts belong to ports whose barrier is *implied*…
            // which cannot happen for zip-aligned inputs, so data+barrier
            // is a hard error.
            for i in 0..n_in {
                if io.peek_in(i).is_some_and(|t| t.is_data()) {
                    return Err(MachineError::new(format!(
                        "zip structure mismatch: input {i} has data while another input \
                         has a barrier"
                    )));
                }
            }
            let level = min_bar.expect("at least one barrier front");
            // Forward one barrier to every non-stripped output.
            if !(0..out.len())
                .filter(forwards)
                .all(|o| io.can_push(o, true))
            {
                break;
            }
            for i in 0..n_in {
                if io.peek_in(i).and_then(|t| t.barrier_level()) == Some(level) {
                    io.pop_in(i);
                }
            }
            release(run, 0, level, io, tails);
            progressed = true;
        } else {
            break;
        }
    }
    // The firing ends: held barriers go on, in edge order.
    for j in 0..last {
        if let Tail::Held(level, _) = tails[j] {
            release(run, j + 1, level, io, tails);
        }
    }
    Ok(progressed)
}

/// Carries the thread the head just computed through the rest of the run:
/// out through the last stage's fired outputs, or to the first interior
/// output whose predicate fails.
#[inline(always)]
fn carry<P: Ports, R: FusedRun + ?Sized>(
    run: &R,
    io: &mut P,
    regs: &mut [Word],
    tails: &mut [Tail],
) {
    let last = run.stages() - 1;
    for j in 0..last {
        let (spec, w) = (&run.stage(j).outputs[0], run.window(j));
        if !spec.fires(&regs[w..]) {
            return;
        }
        // Data fixes a held barrier in place, so it goes on first.
        if let Tail::Held(level, _) = tails[j] {
            release(run, j + 1, level, io, tails);
        }
        tails[j] = Tail::Data;
        let (next, next_w) = (run.stage(j + 1), run.window(j + 1));
        let (done, rest) = regs.split_at_mut(next_w);
        let win = &mut rest[..next.reg_count as usize];
        for (dst, &r) in win.iter_mut().zip(&spec.slots) {
            *dst = done[w + r as usize];
        }
        win[spec.slots.len()..].fill(Word::ZERO);
        exec_instrs(&next.instrs, win, io.mem());
    }
    // Gather each fired output straight into its channel slot.
    let w = run.window(last);
    for (o, spec) in run.stage(last).outputs.iter().enumerate() {
        if spec.fires(&regs[w..]) {
            let slot = io.push_slot(o, spec.slots.len());
            for (word, &r) in slot.iter_mut().zip(&spec.slots) {
                *word = regs[w + r as usize];
            }
        }
    }
}

/// Delivers Ω`level` to stage `j`'s input. It crosses stages until an
/// output strips it or a fused edge holds it; a barrier it displaces
/// there travels on in its place. Past the last stage it goes out on
/// every non-stripped output.
#[inline(always)]
fn release<P: Ports, R: FusedRun + ?Sized>(
    run: &R,
    mut j: usize,
    mut level: BarrierLevel,
    io: &mut P,
    tails: &mut [Tail],
) {
    let last = run.stages() - 1;
    while j < last {
        if run.stage(j).outputs[0].strip_barriers {
            return;
        }
        let tail = &mut tails[j];
        match *tail {
            // `Channel::push_barrier`'s absorb: Ωheld is implied by Ωlevel.
            Tail::Held(held, true) if held < level && run.canonicalizes(j) => {
                *tail = Tail::Held(level, true);
                return;
            }
            Tail::Held(held, _) => {
                *tail = Tail::Held(level, false);
                level = held;
            }
            Tail::Data => {
                *tail = Tail::Held(level, true);
                return;
            }
            Tail::Empty => {
                *tail = Tail::Held(level, false);
                return;
            }
        }
        j += 1;
    }
    let out = &run.stage(last).outputs;
    for o in (0..out.len()).filter(|&o| !out[o].strip_barriers) {
        io.push_barrier(o, level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::instr::{AluOp, Operand};
    use crate::mem::MemoryState;
    use crate::node::{ChanId, NodeIo, PortBudget};
    use crate::tuple::{tbar, tdata, TTok};

    /// Runs a node over two input channels and returns output tokens.
    fn run2(node: &EwNode, in0: Vec<TTok>, in1: Vec<TTok>, arities: [usize; 3]) -> Vec<TTok> {
        let mut chans = vec![
            Channel::new(arities[0]),
            Channel::new(arities[1]),
            Channel::new(arities[2]),
        ];
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
        node.fire(&mut io).unwrap();
        chans[2].drain_all()
    }

    fn run1(node: &EwNode, input: Vec<TTok>, in_ar: usize, out_ars: &[usize]) -> Vec<Vec<TTok>> {
        let mut chans = vec![Channel::new(in_ar)];
        for &a in out_ars {
            chans.push(Channel::new(a));
        }
        for t in input {
            chans[0].push(t);
        }
        let ins = [ChanId(0)];
        let outs: Vec<ChanId> = (1..=out_ars.len() as u32).map(ChanId).collect();
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; 1];
        let mut ob = vec![PortBudget::UNLIMITED; out_ars.len()];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        node.fire(&mut io).unwrap();
        (1..=out_ars.len()).map(|i| chans[i].drain_all()).collect()
    }

    #[test]
    fn add_one() {
        let n = EwNode::new(
            1,
            vec![EwInstr::Alu {
                op: AluOp::Add,
                a: Operand::Reg(0),
                b: Operand::imm(1u32),
                dst: 1,
            }],
            vec![OutputSpec::plain([1])],
        );
        let out = run1(&n, vec![tdata([5u32]), tbar(1)], 1, &[1]);
        assert_eq!(out[0], vec![tdata([6u32]), tbar(1)]);
    }

    #[test]
    fn zip_concatenates_inputs() {
        let n = EwNode::passthrough(2);
        let out = run2(
            &n,
            vec![tdata([1u32]), tbar(1)],
            vec![tdata([10u32]), tbar(1)],
            [1, 1, 2],
        );
        assert_eq!(out, vec![tdata([1u32, 10u32]), tbar(1)]);
    }

    #[test]
    fn zip_realigns_implied_barriers() {
        // Input A: x Ω2 (Ω1 implied); input B: x Ω1 Ω2 explicit.
        let n = EwNode::passthrough(2);
        let mut chans = vec![
            Channel::new(1).without_canonicalization(),
            Channel::new(1).without_canonicalization(),
            Channel::new(2).without_canonicalization(),
        ];
        chans[0].push(tdata([1u32]));
        chans[0].push(tbar(2)); // canonical side
        chans[1].push(tdata([2u32]));
        chans[1].push(tbar(1));
        chans[1].push(tbar(2)); // explicit side
        let ins = [ChanId(0), ChanId(1)];
        let outs = [ChanId(2)];
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; 2];
        let mut ob = vec![PortBudget::UNLIMITED; 1];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        n.fire(&mut io).unwrap();
        assert_eq!(
            chans[2].drain_all(),
            vec![tdata([1u32, 2u32]), tbar(1), tbar(2)]
        );
    }

    #[test]
    fn zip_mismatch_is_error() {
        let n = EwNode::passthrough(2);
        let mut chans = vec![Channel::new(1), Channel::new(1), Channel::new(2)];
        chans[0].push(tdata([1u32]));
        chans[1].push(tbar(1));
        let ins = [ChanId(0), ChanId(1)];
        let outs = [ChanId(2)];
        let mut mem = MemoryState::default();
        let mut ib = vec![PortBudget::UNLIMITED; 2];
        let mut ob = vec![PortBudget::UNLIMITED; 1];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        assert!(n.fire(&mut io).is_err());
    }

    #[test]
    fn filtered_outputs_partition() {
        // pred = reg0 < 3 → out0; else out1. Barriers go to both.
        let n = EwNode::new(
            1,
            vec![EwInstr::Alu {
                op: AluOp::LtU,
                a: Operand::Reg(0),
                b: Operand::imm(3u32),
                dst: 1,
            }],
            vec![
                OutputSpec::filtered([0], 1, true),
                OutputSpec::filtered([0], 1, false),
            ],
        );
        let input = vec![tdata([1u32]), tdata([5u32]), tdata([2u32]), tbar(1)];
        let outs = run1(&n, input, 1, &[1, 1]);
        assert_eq!(outs[0], vec![tdata([1u32]), tdata([2u32]), tbar(1)]);
        assert_eq!(outs[1], vec![tdata([5u32]), tbar(1)]);
    }

    #[test]
    fn stripped_output_drops_barriers() {
        let n = EwNode::new(
            1,
            Vec::new(),
            vec![OutputSpec::plain([0]), OutputSpec::stripped([0])],
        );
        let input = vec![tdata([1u32]), tbar(1), tbar(2)];
        let outs = run1(&n, input, 1, &[1, 1]);
        assert_eq!(outs[0], vec![tdata([1u32]), tbar(2)]); // canonicalized
        assert_eq!(outs[1], vec![tdata([1u32])]);
    }

    #[test]
    fn void_tuples_flow() {
        // Arity-0 tuples (void tokens) are legal thread payloads.
        let n = EwNode::passthrough(0);
        let out = run1(&n, vec![tdata::<[u32; 0], u32>([]), tbar(1)], 0, &[0]);
        assert_eq!(out[0], vec![tdata::<[u32; 0], u32>([]), tbar(1)]);
    }

    #[test]
    fn alloc_stall_blocks_without_consuming() {
        let mut mem = MemoryState::default();
        let a = mem.add_alloc("bufs", 0); // empty: always stalls
        let n = EwNode::new(
            1,
            vec![EwInstr::AllocPop { alloc: a, dst: 1 }],
            vec![OutputSpec::plain([1])],
        );
        let mut chans = vec![Channel::new(1), Channel::new(1)];
        chans[0].push(tdata([1u32]));
        let ins = [ChanId(0)];
        let outs = [ChanId(1)];
        let mut ib = vec![PortBudget::UNLIMITED; 1];
        let mut ob = vec![PortBudget::UNLIMITED; 1];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        let progressed = n.fire(&mut io).unwrap();
        assert!(!progressed);
        assert_eq!(chans[0].len(), 1, "input not consumed while stalled");
    }
}
