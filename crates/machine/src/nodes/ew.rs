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
//!   computes in its own window of the run's register file, and its
//!   output slots are copied into stage `j + 1`'s input registers. The
//!   channel between them, a *fused edge*, is never written. A window
//!   reads as zeroed when a thread enters it: the registers the stage may
//!   read before writing ([`fresh_regs`]) are zeroed, and every other one
//!   is written before it is read. A failed predicate ends the thread
//!   inside the run.
//! - A barrier crosses the run the same way, stopped by a stripping
//!   output. On each fused edge it is held (a [`Tail`]) until the next
//!   token arrives there or the firing ends, so a later barrier can still
//!   absorb it exactly as the edge's channel would have.
//! - Where the ports offer lanes ([`Ports::lanes`]) and every head input
//!   holds at least [`MIN_LANES`] consecutive data tokens, up to
//!   [`MAX_LANES`] threads cross the run together, one instruction across
//!   all lanes (`commit_lanes`, the vRDA's SIMD lanes of §III-C): the same
//!   commit taken stage by stage instead of thread by thread, exact for a
//!   run whose stages each hold at most one memory instruction. The lane
//!   path is compiled in only where it can run (`fire_run`'s `LANES`
//!   split): the plan's lane-safe runs. Every other firing, the
//!   simulator's and the dense oracle's included, takes a copy of the rule
//!   whose token loop has no lane path in it.
//!
//! Every token that leaves a run, and every memory effect, is therefore
//! what firing its stages one after another through real channels
//! produces — provided the stages' memory accesses commute, which the
//! execution plan checks when it groups stages into runs. [`EwNode::fire`]
//! is the one-stage run (`EwNode::fire_gated`), the case the simulator, the
//! dense oracle and the plan's unchained stages fire, a thread at a time.

use crate::instr::{exec_instrs, exec_lanes, EwInstr, Reg, RegRole};
use crate::mem::MemoryState;
use crate::node::{MachineError, Ports};
use revet_sltf::{BarrierLevel, Tok, Word};
use std::sync::Arc;

/// The fewest threads a lane-batched commit takes (module docs): below
/// this a batch's setup outweighs what it saves. The Table III apps commit
/// runs of consecutive data threads with a median of 8 on the four serve
/// apps, 16 on kD-tree, 4 on huff-enc and 2 on huff-dec; batches of 4–7
/// made huff-enc 6–15% slower than thread-at-a-time commits, and 8 keeps
/// the serve apps' gain.
pub const MIN_LANES: usize = 8;

/// The most threads one lane-batched commit takes: a stage's predicate
/// over them is a `u64` mask.
pub const MAX_LANES: usize = 64;

/// Where one output port gets its tuple and when it fires.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutputSpec {
    /// Registers forming the output tuple (in order), shared by every
    /// copy of the program.
    pub slots: Arc<[Reg]>,
    /// Send data only when register `.0` has truthiness `.1` (filter output).
    pub pred: Option<(Reg, bool)>,
    /// Do not forward barriers on this port (broadcast parent links).
    pub strip_barriers: bool,
}

impl OutputSpec {
    /// An unconditional output of the given registers.
    pub fn plain(slots: impl Into<Arc<[Reg]>>) -> Self {
        OutputSpec {
            slots: slots.into(),
            pred: None,
            strip_barriers: false,
        }
    }

    /// A filtered output: fires when `reg`'s truthiness equals `expect`.
    pub fn filtered(slots: impl Into<Arc<[Reg]>>, reg: Reg, expect: bool) -> Self {
        OutputSpec {
            slots: slots.into(),
            pred: Some((reg, expect)),
            strip_barriers: false,
        }
    }

    /// An unconditional, barrier-stripping output (broadcast parent feed).
    pub fn stripped(slots: impl Into<Arc<[Reg]>>) -> Self {
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
///
/// The program is two refcounted slices, so a clone — the execution
/// plan's copy of each chained stage, a replicate way stamped from the
/// first — shares them and allocates nothing.
#[derive(Clone, Debug)]
pub struct EwNode {
    /// Straight-line per-thread program.
    pub instrs: Arc<[EwInstr]>,
    /// One spec per output port.
    pub outputs: Arc<[OutputSpec]>,
    reg_count: u16,
}

impl EwNode {
    /// Builds a node; the register file is sized from the instructions,
    /// output slots, and `min_regs` (which must cover the concatenated input
    /// arity, since inputs load into registers `0..arity_sum`). A caller
    /// that builds the program should build each slice in place (from a
    /// slice or an exact-size iterator): converting a `Vec` copies it.
    pub fn new(
        min_regs: u16,
        instrs: impl Into<Arc<[EwInstr]>>,
        outputs: impl Into<Arc<[OutputSpec]>>,
    ) -> Self {
        let (instrs, outputs) = (instrs.into(), outputs.into());
        let mut reg_count = min_regs;
        for i in instrs.iter() {
            reg_count = reg_count.max(i.max_reg());
        }
        for o in outputs.iter() {
            for &s in o.slots.iter() {
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
        let slots: Arc<[Reg]> = (0..arity).collect();
        EwNode::new(arity, [], [OutputSpec::plain(slots)])
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
        // A lone stage is never lane-safe, so the lane file stays empty.
        let result = fire_run(self, io, &mut regs, &mut Vec::new(), &mut [], gated);
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
    /// Whether threads may cross the run as lanes: no stage holds more
    /// than one memory instruction (the exactness condition of
    /// [`exec_lanes`]), the head reads no channel twice and has at most 64
    /// inputs, and the last stage writes no channel twice and has at most
    /// 64 outputs.
    fn lane_safe(&self) -> bool;
    /// Stage `j`'s [`fresh_regs`] past its input registers — all a thread
    /// entering its window needs zeroed — or `None`, which zeroes the
    /// whole window past the inputs.
    fn fresh(&self, j: usize) -> Option<u64>;
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

    /// A stage fired alone goes one thread at a time: the simulator's and
    /// the dense oracle's path, and the plan's allocator-gated stages.
    #[inline(always)]
    fn lane_safe(&self) -> bool {
        false
    }

    #[inline(always)]
    fn fresh(&self, _: usize) -> Option<u64> {
        None
    }
}

/// The registers numbered `loaded` or more that a thread of `ew` may read
/// before its program writes them — bit `r` for register `r` — or `None`
/// when one of them is past bit 63. A thread entering a stage's window
/// must find these zeroed; every other register past its inputs is
/// written before it is read, so it may keep the last thread's value.
pub(crate) fn fresh_regs(ew: &EwNode, loaded: usize) -> Option<u64> {
    // Registers written so far, as a bitset; one past it counts as never
    // written, which can only cost a stage its lanes.
    let mut written = [0u64; 4];
    let is_written = |w: &[u64; 4], r: usize| w.get(r / 64).is_some_and(|b| b >> (r % 64) & 1 == 1);
    let mut fresh = 0u64;
    let mut read = |r: Reg, w: &[u64; 4]| {
        let r = usize::from(r);
        if r >= loaded && !is_written(w, r) {
            fresh |= 1u64.checked_shl(r as u32)?;
        }
        Some(())
    };
    for ins in ew.instrs.iter() {
        let (mut ok, mut dst) = (Some(()), None);
        ins.clone().for_each_reg(|role, &mut r| match role {
            RegRole::Write => dst = Some(usize::from(r)),
            RegRole::Read | RegRole::Pred => ok = ok.and(read(r, &written)),
        });
        ok?;
        if let Some(r) = dst.filter(|&r| r < 64 * written.len()) {
            written[r / 64] |= 1 << (r % 64);
        }
    }
    for o in ew.outputs.iter() {
        for &r in o.slots.iter().chain(o.pred.as_ref().map(|(p, _)| p)) {
            read(r, &written)?;
        }
    }
    Some(fresh)
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
/// run's register file, `lanes` as its lane file and one `tails` entry per
/// fused edge (reset here). `gated` is whether the head may stall on an
/// allocator.
///
/// The lane path is compiled in only where it can run: ports that offer
/// [`MIN_LANES`] or more, an ungated head and a lane-safe run. Every other
/// firing takes a copy of the rule without it — every firing of the
/// simulator and the dense oracle, whose ports offer one lane, and the
/// plan's runs that are not lane-safe — so its token loop tests no lane
/// condition per thread.
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
    lanes: &mut Vec<Word>,
    tails: &mut [Tail],
    gated: bool,
) -> Result<bool, MachineError> {
    if io.lanes() >= MIN_LANES && !gated && run.lane_safe() {
        fire_lanes::<P, R, true>(run, io, regs, lanes, tails, gated)
    } else {
        fire_lanes::<P, R, false>(run, io, regs, lanes, tails, gated)
    }
}

/// [`fire_run`] with the lane path compiled in (`LANES`) or out.
#[inline(always)]
fn fire_lanes<P: Ports, R: FusedRun + ?Sized, const LANES: bool>(
    run: &R,
    io: &mut P,
    regs: &mut Vec<Word>,
    lanes: &mut Vec<Word>,
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
            // Threads every input queues: one unless the ports offer lanes,
            // which accept every push, so a streak needs no further check.
            let mut streak = 1;
            if LANES {
                streak = lane_streak(io);
                if streak >= MIN_LANES {
                    commit_lanes(run, io, lanes, tails, streak);
                    progressed = true;
                    continue;
                }
            }
            for _ in 0..streak {
                // Commit: pop every input, concatenate into the head's
                // window.
                let w = run.window(0);
                let win = &mut regs[w..w + head.reg_count as usize];
                let mut cursor = 0usize;
                for i in 0..n_in {
                    let Some(Tok::Data(vals)) = io.peek_in(i) else {
                        unreachable!("front changed between peek and pop")
                    };
                    win[cursor..cursor + vals.len()].copy_from_slice(vals);
                    cursor += vals.len();
                    io.pop_in(i);
                }
                clear(win, cursor, run.fresh(0));
                exec_instrs(&head.instrs, win, io.mem());
                carry(run, io, regs, tails);
            }
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

/// Zeroes what a thread entering a stage's window must find zeroed past
/// its `loaded` input registers: the stage's `fresh` registers, or all
/// of them without a mask.
#[inline(always)]
fn clear(win: &mut [Word], loaded: usize, fresh: Option<u64>) {
    match fresh {
        None => win[loaded..].fill(Word::ZERO),
        Some(mut regs) => {
            while regs != 0 {
                win[regs.trailing_zeros() as usize] = Word::ZERO;
                regs &= regs - 1;
            }
        }
    }
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
        for (dst, &r) in win.iter_mut().zip(spec.slots.iter()) {
            *dst = done[w + r as usize];
        }
        clear(win, spec.slots.len(), run.fresh(j + 1));
        exec_instrs(&next.instrs, win, io.mem());
    }
    // Gather each fired output straight into its channel slot.
    let w = run.window(last);
    for (o, spec) in run.stage(last).outputs.iter().enumerate() {
        if spec.fires(&regs[w..]) {
            let slot = io.push_slot(o, spec.slots.len());
            for (word, &r) in slot.iter_mut().zip(spec.slots.iter()) {
                *word = regs[w + r as usize];
            }
        }
    }
}

/// The data threads queued on every input of `io`, up to its lanes. Most
/// fronts hold fewer than [`MIN_LANES`], so those are counted first.
#[inline(always)]
fn lane_streak<P: Ports>(io: &P) -> usize {
    let streak = |max| (0..io.in_count()).fold(max, |n, i| io.data_streak(i, n));
    match streak(MIN_LANES) {
        MIN_LANES => streak(io.lanes().min(MAX_LANES)),
        short => short,
    }
}

/// Commits the next `n` threads — `MIN_LANES..=64` data tokens queued at
/// the front of every head input — as lanes: the thread-at-a-time commit
/// and [`carry`] restated stage by stage ([`cross_lanes`]), with the
/// register file `file` laid out lane-major.
///
/// The stages run before any barrier moves. A barrier held on a fused
/// edge goes on before the first lane crosses that edge, as before the
/// first thread; barriers touch channels only, so releasing them edge by
/// edge after the stages ran, in edge order, leaves what releasing each
/// as its edge is first crossed leaves. No barrier enters during the
/// batch, so every barrier a release pushes out precedes every output
/// thread, and the outputs go out at the end, each in thread order. Each
/// output's consumers are woken once.
///
/// Inlined, with the stages out of line, so the ports never leave the
/// firing's token loop: taking them out of line measured slower on
/// `exec_control`'s huff-dec, whose runs are mostly too short to batch.
#[inline(always)]
fn commit_lanes<P: Ports, R: FusedRun + ?Sized>(
    run: &R,
    io: &mut P,
    file: &mut Vec<Word>,
    tails: &mut [Tail],
    n: usize,
) {
    let last = run.stages() - 1;
    // The run's registers, then `exec_lanes`' scratch: three columns.
    let regs = run.window(last) + run.stage(last).reg_count as usize;
    let size = regs * n + 3 * n;
    if file.len() < size {
        file.resize(size, Word::ZERO);
    }
    let (file, spare) = file[..size].split_at_mut(regs * n);
    // Gather: input `i`'s tokens into the head's columns, thread by thread.
    let w = run.window(0);
    let mut cursor = w;
    for i in 0..io.in_count() {
        let mut width = 0;
        io.pop_lanes(i, n, |l, vals| {
            width = vals.len();
            for (k, &v) in vals.iter().enumerate() {
                file[(cursor + k) * n + l] = v;
            }
        });
        cursor += width;
    }
    let (crossed, live) = cross_lanes(run, file, spare, n, cursor - w, io.mem());
    for j in 0..crossed {
        if let Tail::Held(level, _) = tails[j] {
            release(run, j + 1, level, io, tails);
        }
        tails[j] = Tail::Data;
    }
    // Each output's threads in thread order; the outputs write distinct
    // channels, so the order between them is not observable.
    let (outs, w) = (&run.stage(last).outputs, run.window(last));
    let mut pushed = 0u64;
    for (o, spec) in outs.iter().enumerate() {
        let mut takes = fire_mask(spec, file, w, n, live);
        if takes == 0 {
            continue;
        }
        pushed |= 1 << o;
        let width = spec.slots.len();
        io.push_lanes(o, width, takes.count_ones() as usize, |_, slot| {
            let l = takes.trailing_zeros() as usize;
            takes &= takes - 1;
            for (word, &r) in slot.iter_mut().zip(spec.slots.iter()) {
                *word = file[(w + r as usize) * n + l];
            }
        });
    }
    io.lanes_committed(n, pushed);
}

/// Runs the stages of `run` for the `n` threads gathered into `file`,
/// whose head inputs fill its first `loaded` registers: register `r` of
/// lane `l` is `file[r * n + l]`, and `spare` is [`exec_lanes`]' scratch.
/// Returns how many fused edges some thread crossed and how many threads
/// reached the last stage (none when an edge stopped them all).
///
/// The live lanes stay packed at the front in thread order: where an
/// interior predicate fails (a `u64` mask of the lanes it keeps), the copy
/// into the next stage closes the gaps. Every stage's instructions run
/// across the live lanes, and its one memory instruction keeps thread
/// order. A stage's accesses commute with the rest of its run's (the
/// plan's cut rule), so running stage `j` for every thread before stage
/// `j + 1` for any leaves memory as the threads crossing one by one do.
#[inline(never)]
fn cross_lanes<R: FusedRun + ?Sized>(
    run: &R,
    file: &mut [Word],
    spare: &mut [Word],
    n: usize,
    loaded: usize,
    mem: &mut MemoryState,
) -> (usize, usize) {
    // [`clear`] for the first `live` lanes of stage `j`, whose window
    // starts at `w`.
    let zero = |file: &mut [Word], j: usize, w: usize, loaded: usize, live: usize| {
        let mut cols = |r: usize| file[(w + r) * n..][..live].fill(Word::ZERO);
        match run.fresh(j) {
            None => (loaded..run.stage(j).reg_count as usize).for_each(cols),
            Some(mut regs) => {
                while regs != 0 {
                    cols(regs.trailing_zeros() as usize);
                    regs &= regs - 1;
                }
            }
        }
    };
    let w = run.window(0);
    zero(file, 0, w, loaded, n);
    exec_lanes(&run.stage(0).instrs, file, spare, w, n, n, mem);
    let mut live = n;
    for j in 0..run.stages() - 1 {
        let (spec, w) = (&run.stage(j).outputs[0], run.window(j));
        let keep = fire_mask(spec, file, w, n, live);
        if keep == 0 {
            return (j, 0);
        }
        let (next_w, kept) = (run.window(j + 1), keep.count_ones() as usize);
        for (k, &r) in spec.slots.iter().enumerate() {
            let (from, to) = ((w + r as usize) * n, (next_w + k) * n);
            if kept == live {
                file.copy_within(from..from + live, to);
            } else {
                let (mut lanes, mut at) = (keep, to);
                while lanes != 0 {
                    file[at] = file[from + lanes.trailing_zeros() as usize];
                    (lanes, at) = (lanes & (lanes - 1), at + 1);
                }
            }
        }
        live = kept;
        zero(file, j + 1, next_w, spec.slots.len(), live);
        exec_lanes(&run.stage(j + 1).instrs, file, spare, next_w, n, live, mem);
    }
    (run.stages() - 1, live)
}

/// The lanes among the first `live` whose thread `spec` takes, in a lane
/// file of `n` lanes whose stage window starts at register `w`.
#[inline(always)]
fn fire_mask(spec: &OutputSpec, file: &[Word], w: usize, n: usize, live: usize) -> u64 {
    let Some((r, expect)) = spec.pred else {
        return u64::MAX.checked_shr(64 - live as u32).unwrap_or(0);
    };
    let col = &file[(w + r as usize) * n..][..live];
    (0..)
        .zip(col)
        .fold(0, |m, (l, v)| m | u64::from(v.as_bool() == expect) << l)
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
    use crate::instr::{AluOp, Operand, Pred};
    use crate::mem::{MemoryState, SramId};
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

    // The lane-batched commit against the thread-at-a-time one: the same
    // run fired by the same rule through `NodeIo`, once as it offers one
    // lane and once widened to 64.

    /// Hand-built stages laid out as the plan lays out a run: windows back
    /// to back, every fused edge canonicalizing.
    struct Run {
        stages: Vec<EwNode>,
        windows: Vec<usize>,
        fresh: Vec<Option<u64>>,
        lanes: bool,
    }

    impl Run {
        fn new(stages: Vec<EwNode>, in_width: usize) -> Run {
            let (mut windows, mut fresh, mut lanes) = (Vec::new(), Vec::new(), true);
            let (mut window, mut loaded) = (0, in_width);
            for ew in &stages {
                windows.push(window);
                let memory_ops = ew.instrs.iter().filter(|i| i.is_memory()).count();
                lanes &= memory_ops <= 1;
                fresh.push(fresh_regs(ew, loaded));
                window += usize::from(ew.reg_count());
                loaded = ew.outputs[0].slots.len();
            }
            Run {
                stages,
                windows,
                fresh,
                lanes,
            }
        }
    }

    impl FusedRun for Run {
        fn stages(&self) -> usize {
            self.stages.len()
        }
        fn stage(&self, j: usize) -> &EwNode {
            &self.stages[j]
        }
        fn window(&self, j: usize) -> usize {
            self.windows[j]
        }
        fn canonicalizes(&self, _: usize) -> bool {
            true
        }
        fn lane_safe(&self) -> bool {
            self.lanes
        }
        fn fresh(&self, j: usize) -> Option<u64> {
            self.fresh[j]
        }
    }

    /// `NodeIo` offering 64 lanes, recording each batch's width.
    struct Wide<'a> {
        io: NodeIo<'a>,
        widths: Vec<usize>,
    }

    impl Ports for Wide<'_> {
        fn in_count(&self) -> usize {
            self.io.in_count()
        }
        fn out_count(&self) -> usize {
            self.io.out_count()
        }
        fn peek_in(&self, i: usize) -> Option<Tok<&[Word]>> {
            self.io.peek_in(i)
        }
        fn pop_in(&mut self, i: usize) -> Tok<()> {
            self.io.pop_in(i)
        }
        fn can_push(&self, o: usize, barrier: bool) -> bool {
            self.io.can_push(o, barrier)
        }
        fn push_slot(&mut self, o: usize, width: usize) -> &mut [Word] {
            self.io.push_slot(o, width)
        }
        fn push_barrier(&mut self, o: usize, level: BarrierLevel) {
            self.io.push_barrier(o, level);
        }
        fn forward(&mut self, i: usize, o: usize) {
            self.io.forward(i, o);
        }
        fn mem(&mut self) -> &mut MemoryState {
            self.io.mem()
        }
        fn mem_ref(&self) -> &MemoryState {
            self.io.mem_ref()
        }
        fn scratch(&mut self) -> &mut Vec<Word> {
            self.io.scratch()
        }
        fn lanes(&self) -> usize {
            MAX_LANES
        }
        fn data_streak(&self, i: usize, max: usize) -> usize {
            self.io.data_streak(i, max)
        }
        fn lanes_committed(&mut self, lanes: usize, _: u64) {
            self.widths.push(lanes);
        }
    }

    /// Fires `run` once over `input`, queued on one link of `in_width`
    /// words, thread by thread or (`wide`) through [`Wide`], on a lane file
    /// full of garbage. Returns the output streams, the memory (one SRAM
    /// region of four words) and the batch widths.
    fn fire_with(
        run: &Run,
        in_width: usize,
        input: &[TTok],
        wide: bool,
    ) -> (Vec<Vec<TTok>>, MemoryState, Vec<usize>) {
        let outputs = &run.stages.last().unwrap().outputs;
        let mut chans = vec![Channel::new(in_width).without_canonicalization()];
        chans.extend(outputs.iter().map(|o| Channel::new(o.slots.len())));
        for t in input {
            chans[0].push(t.clone());
        }
        let (ins, outs) = (
            [ChanId(0)],
            (1..=outputs.len() as u32).map(ChanId).collect::<Vec<_>>(),
        );
        let mut mem = MemoryState::default();
        mem.add_sram("s", 4);
        let (mut ib, mut ob) = (
            [PortBudget::UNLIMITED],
            vec![PortBudget::UNLIMITED; outs.len()],
        );
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        let (mut regs, mut file) = (Vec::new(), vec![Word(0xDEAD_BEEF); 64 * 64]);
        let mut tails = vec![Tail::Empty; run.stages.len() - 1];
        let widths = if wide {
            let mut io = Wide {
                io,
                widths: Vec::new(),
            };
            fire_run(run, &mut io, &mut regs, &mut file, &mut tails, false).unwrap();
            io.widths
        } else {
            fire_run(run, &mut io, &mut regs, &mut file, &mut tails, false).unwrap();
            Vec::new()
        };
        let streams = (1..chans.len()).map(|c| chans[c].drain_all()).collect();
        (streams, mem, widths)
    }

    /// Asserts the lane commit leaves what the thread-at-a-time one does;
    /// returns its batch widths.
    fn lanes_match(run: &Run, input: &[TTok]) -> Vec<usize> {
        let (want, want_mem, _) = fire_with(run, 1, input, false);
        let (got, got_mem, widths) = fire_with(run, 1, input, true);
        assert_eq!(got, want, "outputs, batches {widths:?}");
        assert_eq!(got_mem, want_mem, "memory, batches {widths:?}");
        widths
    }

    fn alu(op: AluOp, a: Operand, b: Operand, dst: Reg) -> EwInstr {
        EwInstr::Alu { op, a, b, dst }
    }

    /// Keeps the threads whose value is not 0 mod `m`.
    fn drop_multiples(m: u32) -> EwNode {
        EwNode::new(
            1,
            vec![alu(AluOp::RemU, Operand::Reg(0), Operand::imm(m), 1)],
            vec![OutputSpec::filtered([0], 1, true)],
        )
    }

    /// `x + k`, reading its accumulator register before writing it, so it
    /// sees the zero a fresh window holds.
    fn add(k: u32) -> EwNode {
        EwNode::new(
            1,
            vec![
                alu(AluOp::Add, Operand::Reg(2), Operand::Reg(0), 2),
                alu(AluOp::Add, Operand::Reg(2), Operand::imm(k), 1),
            ],
            vec![OutputSpec::plain([1])],
        )
    }

    fn data(values: impl IntoIterator<Item = u32>) -> Vec<TTok> {
        values.into_iter().map(|v| tdata([v])).collect()
    }

    #[test]
    fn an_interior_filter_kills_some_lanes() {
        let run = Run::new(vec![drop_multiples(3), add(100)], 1);
        let input = [data(1..=10), vec![tbar(1)]].concat();
        assert_eq!(lanes_match(&run, &input), [10]);
        let (out, _, _) = fire_with(&run, 1, &input, true);
        let kept = (1..=10).filter(|v| v % 3 != 0).map(|v| v + 100);
        assert_eq!(out[0], [data(kept), vec![tbar(1)]].concat());
    }

    #[test]
    fn an_interior_filter_kills_every_lane() {
        let run = Run::new(vec![drop_multiples(1), add(100)], 1);
        let input = [data(0..9), vec![tbar(1)]].concat();
        assert_eq!(lanes_match(&run, &input), [9]);
        assert_eq!(fire_with(&run, 1, &input, true).0[0], [tbar(1)]);
    }

    #[test]
    fn a_held_barrier_goes_on_before_the_first_surviving_lane() {
        // Ω1 is held on both fused edges between the batches; the second
        // batch's first lanes die at the first filter, and the first lane
        // to cross each edge releases what is held there.
        let run = Run::new(vec![drop_multiples(5), drop_multiples(7), add(0)], 1);
        let input = [
            data(1..=10),
            vec![tbar(1)],
            data([10, 15, 14, 16, 17, 18, 19, 20, 21, 22]),
            vec![tbar(1), tbar(2)],
        ]
        .concat();
        assert_eq!(lanes_match(&run, &input), [10, 10]);
        let out = fire_with(&run, 1, &input, true).0.remove(0);
        let want = [
            data([1, 2, 3, 4, 6, 8, 9]),
            vec![tbar(1)],
            data([16, 17, 18, 19, 22]),
            vec![tbar(2)],
        ];
        assert_eq!(out, want.concat());
    }

    #[test]
    fn streaks_batch_from_min_lanes_up_to_max_lanes() {
        let run = Run::new(vec![add(1), drop_multiples(4), add(2)], 1);
        for (len, widths) in [
            (MIN_LANES - 1, vec![]),
            (MIN_LANES, vec![MIN_LANES]),
            (MAX_LANES, vec![MAX_LANES]),
            (MAX_LANES + 1, vec![MAX_LANES]),
            (
                2 * MAX_LANES + MIN_LANES,
                vec![MAX_LANES, MAX_LANES, MIN_LANES],
            ),
        ] {
            let input = [data(0..len as u32), vec![tbar(1)]].concat();
            assert_eq!(lanes_match(&run, &input), widths, "a streak of {len}");
        }
    }

    #[test]
    fn registers_read_before_any_write_read_as_zero() {
        // r2 is read by the add before it is written, r3 never written but
        // output, r4 never written but a predicate; r1 is written first.
        let ew = EwNode::new(
            1,
            vec![
                alu(AluOp::Add, Operand::Reg(0), Operand::imm(1u32), 1),
                alu(AluOp::Add, Operand::Reg(2), Operand::Reg(1), 1),
            ],
            vec![OutputSpec::filtered([1, 3], 4, false)],
        );
        assert_eq!(fresh_regs(&ew, 1), Some(0b11100));
        assert_eq!(fresh_regs(&ew, 3), Some(0b11000), "inputs are loaded");
        let reads_r64 = EwNode::new(1, Vec::new(), vec![OutputSpec::plain([64])]);
        assert_eq!(fresh_regs(&reads_r64, 1), None, "no mask reaches r64");
        let run = Run::new(vec![add(0), ew], 1);
        let input = [data(0..8), vec![tbar(1)]].concat();
        assert_eq!(lanes_match(&run, &input), [8]);
        let out = fire_with(&run, 1, &input, true).0.remove(0);
        let want = (0..8u32).map(|v| tdata([v + 1, 0]));
        assert_eq!(out, want.chain([tbar(1)]).collect::<Vec<_>>());
    }

    #[test]
    fn a_lane_memory_op_keeps_thread_order() {
        // Each thread decrements a shared SRAM counter and writes its value
        // into a slot other threads share: thread order decides both.
        let dec = EwNode::new(
            1,
            vec![EwInstr::SramDecFetch {
                region: SramId(0),
                addr: Operand::imm(0u32),
                dst: 1,
                pred: None,
            }],
            vec![OutputSpec::plain([0, 1])],
        );
        let write = EwNode::new(
            2,
            vec![EwInstr::SramWrite {
                region: SramId(0),
                addr: Operand::imm(1u32),
                val: Operand::Reg(0),
                pred: Some(Pred {
                    reg: 1,
                    expect: true,
                }),
            }],
            vec![OutputSpec::plain([1])],
        );
        let run = Run::new(vec![dec, write], 1);
        let input = [data(10..30), vec![tbar(1)]].concat();
        assert_eq!(lanes_match(&run, &input), [20]);
    }

    #[test]
    fn a_stage_with_two_memory_ops_fires_per_thread() {
        // A running sum kept in SRAM: read, add, write back. As lanes, every
        // thread would read the sum before any wrote it.
        let sum = EwNode::new(
            1,
            vec![
                EwInstr::SramRead {
                    region: SramId(0),
                    addr: Operand::imm(0u32),
                    dst: 1,
                    pred: None,
                },
                alu(AluOp::Add, Operand::Reg(1), Operand::Reg(0), 1),
                EwInstr::SramWrite {
                    region: SramId(0),
                    addr: Operand::imm(0u32),
                    val: Operand::Reg(1),
                    pred: None,
                },
            ],
            vec![OutputSpec::plain([1])],
        );
        let run = Run::new(vec![add(0), sum.clone()], 1);
        assert!(!run.lanes);
        let input = [data(1..=8), vec![tbar(1)]].concat();
        assert_eq!(lanes_match(&run, &input), Vec::<usize>::new());

        // The plan marks such a run too: it fires it per thread.
        let mut g = crate::Graph::new();
        g.mem.add_sram("s", 4);
        let (a, b, c) = (
            g.add_chan(Channel::new(1)),
            g.add_chan(Channel::new(1)),
            g.add_chan(Channel::new(1)),
        );
        for t in &input {
            g.chan_mut(a).push(t.clone());
        }
        g.add_node("add", add(0), vec![a], vec![b]);
        g.add_node("sum", sum, vec![b], vec![c]);
        let obs = revet_obs::ObsSink::counters_only();
        g.run(crate::RunOptions {
            obs: &obs,
            ..crate::RunOptions::new(1_000)
        })
        .unwrap();
        assert_eq!(g.plan().stats().fused_runs, 1);
        assert_eq!(obs.counters.lanes.count(), 0);
        let sums = [1, 3, 6, 10, 15, 21, 28, 36];
        assert_eq!(
            g.chans()[c.0 as usize].tokens(),
            [data(sums), vec![tbar(1)]].concat()
        );
    }
}
