//! The judge: one checker for every corpus.
//!
//! [`judge`] runs one [`Case`] (a source, its argsets and DRAM inputs)
//! through every lane [`Lanes`] turns on and demands that all of them
//! leave bit-identical final DRAM and `main` exit streams. Each argset is
//! an independent run on a fresh image:
//!
//! | lane | evaluator | module |
//! |------|-----------|--------|
//! | interp | MIR interpreter ([`run_main`]) | unoptimized, then each level's optimized one |
//! | plan | compiled `ExecPlan` (`run_untimed`) | each level |
//! | dense | the dense sweep ([`run_dense`]) | each level |
//! | stream | each argset replicated, fed in chunks through a `StreamInstance`, against one planned run (and, with dense on, one dense sweep) of every copy fed up front | each level |
//! | timed | `Simulator::run` per machine config | each level |
//! | toggles | the plan under masks of the six §V switches | the last level |
//!
//! The reference is the unoptimized interpreter when its lane is on, the
//! first planned run otherwise; the exit stream's reference is the first
//! planned run's. Later instances run on images and channel tables earlier
//! runs returned to the program's pools. Compilation must leave no
//! diagnostics, and a panic anywhere is itself a failure. An `expected`
//! window is the app oracle: every run's image must hold it.
//!
//! Full `MemoryState` equality is deliberately not asserted (allocator
//! free-list order is schedule-dependent); final DRAM plus the exit stream
//! is the observable contract.

use crate::dense::run_dense;
use crate::interp::run_main;
use revet_core::{lower_to_dataflow, CompiledProgram, CoreError, PassOptions, Session};
use revet_machine::{ExecReport, MachineError, PlanStats, TTok};
use revet_mir::{AluOp, Module, OpKind, Region};
use revet_sim::{IdealModels, RdaConfig, Simulator};
use revet_sltf::Word;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Interpreter op-fuel: far past what a terminating case spends, so a
/// runaway program is an error, not a hang.
const FUEL: u64 = 1_000_000_000;

/// One program and its inputs.
#[derive(Clone, Debug)]
pub struct Case {
    /// Revet source.
    pub source: String,
    /// `main` argument sets, each judged as its own run.
    pub argsets: Vec<Vec<u32>>,
    /// DRAM inputs, `(byte offset, bytes)`, written before every run.
    pub overlays: Vec<(u64, Vec<u8>)>,
    /// DRAM image size for every evaluator.
    pub dram_bytes: usize,
    /// `(byte offset, bytes)` every run must leave: the stream lane's
    /// replicated runs too, so it suits programs whose writes repeat.
    pub expected: Option<(u64, Vec<u8>)>,
}

/// The stream lane's shape: each argset fed `copies` times, `chunk` at a
/// time, with a poll between chunks.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Copies of the argset the session is fed.
    pub copies: usize,
    /// Argsets per feed.
    pub chunk: usize,
}

/// Which lanes judge a case, and their limits. The plan lane always runs,
/// at every level in `levels`.
#[derive(Clone, Debug)]
pub struct Lanes {
    /// Opt levels compiled and judged.
    pub levels: Vec<u8>,
    /// The MIR interpreter: the unoptimized reference, then each level.
    pub interp: bool,
    /// The dense sweep.
    pub dense: bool,
    /// The chunked stream.
    pub stream: Option<Stream>,
    /// The simulator, once per machine config.
    pub timed: Vec<RdaConfig>,
    /// Masks of the six §V switches (bit 0 `if_to_select`, then
    /// `fuse_allocators`, `hoist_allocators`, `bufferize_replicate`,
    /// `pack_subwords`, bit 5 `eliminate_hierarchy`), each compiled at the
    /// last level (O2 when `levels` is empty) and planned.
    pub toggles: Vec<u8>,
    /// Executor round bound; also the simulator's cycle bound.
    pub max_rounds: u64,
    /// Test-only miscompile on the dataflow path.
    pub inject: Option<Injection>,
}

impl Default for Lanes {
    /// Every lane at -O0/-O1/-O2, streamed as two copies one at a time,
    /// timed on the Table II machine; no toggle masks.
    fn default() -> Self {
        Lanes {
            levels: vec![0, 1, 2],
            interp: true,
            dense: true,
            stream: Some(Stream {
                copies: 2,
                chunk: 1,
            }),
            timed: vec![RdaConfig::default()],
            toggles: Vec::new(),
            max_rounds: 50_000_000,
            inject: None,
        }
    }
}

impl Lanes {
    /// The plan lane alone, at `levels`.
    pub fn plan(levels: &[u8]) -> Self {
        Lanes {
            levels: levels.to_vec(),
            interp: false,
            dense: false,
            stream: None,
            timed: Vec::new(),
            ..Lanes::default()
        }
    }
}

/// Test-only miscompiles the judge must catch: each mutates the optimized
/// MIR on the dataflow path only (the interpreter still sees the honest
/// module), the shape of a broken optimization pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injection {
    /// Rewrites the last integer `Add` in `main` into a `Sub` after the
    /// pass pipeline: late adds are usually program arithmetic rather than
    /// address math, so the divergence shows as wrong data.
    FlipLastAddToSub,
}

/// Why a case failed, stable across reduction steps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The front end or the compiler rejected the program.
    CompileError,
    /// Compilation succeeded but left diagnostics behind.
    DirtyDiagnostics,
    /// The MIR interpreter faulted.
    InterpError,
    /// A dataflow executor (or the simulator) faulted or deadlocked.
    ExecError,
    /// Final DRAM images differ between two evaluators, or from `expected`.
    DramMismatch,
    /// Exit streams differ between two evaluators.
    SinkMismatch,
    /// Something panicked.
    Panic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::CompileError => "compile-error",
            FailureKind::DirtyDiagnostics => "dirty-diagnostics",
            FailureKind::InterpError => "interp-error",
            FailureKind::ExecError => "exec-error",
            FailureKind::DramMismatch => "dram-mismatch",
            FailureKind::SinkMismatch => "sink-mismatch",
            FailureKind::Panic => "panic",
        })
    }
}

/// The first divergence: its class, the opt level it surfaced at, and a
/// line naming the disagreeing pair.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The stable failure class.
    pub kind: FailureKind,
    /// The opt level being judged when it surfaced.
    pub level: Option<u8>,
    /// One-line description (first differing byte, error text, …).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = self.level.map(|l| format!(" at O{l}")).unwrap_or_default();
        write!(f, "{}{at}: {}", self.kind, self.detail)
    }
}

/// What the executor lanes reported at one level, one entry per argset.
#[derive(Clone, Debug, Default)]
pub struct LevelReport {
    /// The opt level.
    pub level: u8,
    /// The compiled plan's static shape.
    pub plan_stats: PlanStats,
    /// The planned run's counters.
    pub plan: Vec<ExecReport>,
    /// The dense sweep's counters.
    pub dense: Vec<ExecReport>,
    /// The chunked session's counters, merged over the polls that
    /// delivered the chunks (the closing drain excluded).
    pub stream: Vec<ExecReport>,
}

/// A green case's reports: one [`LevelReport`] per judged level, in
/// `Lanes::levels` order.
pub type Verdict = Vec<LevelReport>;

/// Judges one case. `Ok` means every lane agreed; `Err` carries the first
/// divergence. Never panics: a panic is itself a reported failure.
pub fn judge(case: &Case, lanes: &Lanes) -> Result<Verdict, Failure> {
    let mut judge = Judge {
        case,
        lanes,
        refs: case.argsets.iter().map(|_| Reference::default()).collect(),
        level: None,
    };
    let run = catch_unwind(AssertUnwindSafe(|| judge.run()));
    run.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(judge.fail(FailureKind::Panic, msg))
    })
}

/// The first outcome seen for one argset, which every later one must
/// equal: the image (and who left it) and the exit stream.
#[derive(Default)]
struct Reference {
    dram: Option<(String, Vec<u8>)>,
    sink: Option<Vec<TTok>>,
}

/// A case being judged: one reference per argset, and the level being
/// judged (for failure reports).
struct Judge<'a> {
    case: &'a Case,
    lanes: &'a Lanes,
    refs: Vec<Reference>,
    level: Option<u8>,
}

impl Judge<'_> {
    fn fail(&self, kind: FailureKind, detail: impl Into<String>) -> Failure {
        Failure {
            kind,
            level: self.level,
            detail: detail.into(),
        }
    }

    fn run(&mut self) -> Result<Verdict, Failure> {
        if self.lanes.interp {
            let module = revet_lang::compile_to_mir(&self.case.source)
                .map_err(|d| self.fail(FailureKind::CompileError, format!("frontend: {d}")))?;
            self.interp(&module, "reference")?;
        }
        let mut verdict = Verdict::new();
        for &level in &self.lanes.levels {
            self.level = Some(level);
            verdict.push(self.judge_level(level)?);
        }
        for &mask in &self.lanes.toggles {
            let level = self.lanes.levels.last().copied().unwrap_or(2);
            self.level = Some(level);
            let bit = |i: u8| mask & (1 << i) != 0;
            let opts = PassOptions {
                if_to_select: bit(0),
                fuse_allocators: bit(1),
                hoist_allocators: bit(2),
                bufferize_replicate: bit(3),
                pack_subwords: bit(4),
                eliminate_hierarchy: bit(5),
                opt_level: level,
                dram_bytes: self.case.dram_bytes,
            };
            let (program, _) = self.compile(&opts)?;
            for i in 0..self.case.argsets.len() {
                self.plan(&program, i, &format!("toggles {mask:06b}"))?;
            }
        }
        Ok(verdict)
    }

    /// Checks one run's image (and exit stream, for dataflow runs) for
    /// argset `i` against the reference; the first run seen becomes it,
    /// once it holds the expected window.
    fn agree(
        &mut self,
        i: usize,
        who: &str,
        dram: &[u8],
        sink: Option<&[TTok]>,
    ) -> Result<(), Failure> {
        let reference = &self.refs[i];
        let dram_diff = match &reference.dram {
            Some((ref_who, want)) => diff_dram(want, dram, &format!("{who} vs {ref_who}")),
            None => self.expected_diff(dram, who),
        };
        if let Some(detail) = dram_diff {
            return Err(self.fail(FailureKind::DramMismatch, detail));
        }
        if let (Some(got), Some(want)) = (sink, &reference.sink) {
            if got != want {
                let (g, w) = (got.len(), want.len());
                let detail = format!("{who} exit stream differs ({g} vs {w} tokens)");
                return Err(self.fail(FailureKind::SinkMismatch, detail));
            }
        }
        let reference = &mut self.refs[i];
        reference
            .dram
            .get_or_insert_with(|| (who.to_string(), dram.to_vec()));
        if let Some(got) = sink {
            reference.sink.get_or_insert_with(|| got.to_vec());
        }
        Ok(())
    }

    /// How `dram` misses the expected window, if it does.
    fn expected_diff(&self, dram: &[u8], who: &str) -> Option<String> {
        let (base, want) = self.case.expected.as_ref()?;
        let got = &dram[*base as usize..][..want.len()];
        diff_dram(want, got, &format!("{who} vs expected output at {base:#x}"))
    }

    /// Interprets `module` on every argset.
    fn interp(&mut self, module: &Module, who: &str) -> Result<(), Failure> {
        let c = self.case;
        for (i, args) in c.argsets.iter().enumerate() {
            let mem = run_main(module, c.dram_bytes, args, &c.overlays, FUEL)
                .map_err(|e| self.fail(FailureKind::InterpError, e.to_string()))?;
            self.agree(i, who, &mem.dram, None)?;
        }
        Ok(())
    }

    /// Compiles at `opts` with the case's inputs loaded into the
    /// template; returns the program and the optimized module.
    fn compile(&self, opts: &PassOptions) -> Result<(CompiledProgram, Module), Failure> {
        let compile_err = |e: CoreError| self.fail(FailureKind::CompileError, e.to_string());
        let mut session = Session::new(self.case.source.clone(), opts.clone());
        session.run_passes().map_err(compile_err)?;
        let diagnostics = session.diagnostics().as_slice().len();
        if diagnostics != 0 {
            let detail = format!("compile succeeded but left {diagnostics} diagnostic(s)");
            return Err(self.fail(FailureKind::DirtyDiagnostics, detail));
        }
        let optimized = session.mir().expect("run_passes succeeded").clone();
        let mut program = match self.lanes.inject {
            None => session.to_dataflow(),
            Some(inj) => {
                let mut module = optimized.clone();
                apply_injection(&mut module, inj);
                lower_to_dataflow(&module, opts)
            }
        }
        .map_err(compile_err)?;
        for (base, bytes) in &self.case.overlays {
            (program.graph.mem.write_dram(*base as usize, bytes))
                .map_err(|e| self.fail(FailureKind::ExecError, format!("load: {e}")))?;
        }
        Ok((program, optimized))
    }

    /// One planned run of argset `i`: checked, and its counters returned.
    fn plan(
        &mut self,
        program: &CompiledProgram,
        i: usize,
        who: &str,
    ) -> Result<ExecReport, Failure> {
        let mut inst = program.instance();
        let report = (inst.run_untimed(&words(&self.case.argsets[i]), self.lanes.max_rounds))
            .map_err(|e| self.fail(FailureKind::ExecError, format!("{who}: {e}")))?;
        self.agree(i, who, &inst.memory().dram, Some(&inst.sink_tokens()))?;
        Ok(report)
    }

    /// Every lane at one level. Each instance after the first is checked
    /// out of the program's pools, on an image and a channel table an
    /// earlier run returned (debug builds poison freed ring slots), so a
    /// read of anything a run left behind breaks the identity.
    fn judge_level(&mut self, level: u8) -> Result<LevelReport, Failure> {
        let opts = PassOptions {
            opt_level: level,
            dram_bytes: self.case.dram_bytes,
            ..PassOptions::default()
        };
        let (mut program, optimized) = self.compile(&opts)?;
        if self.lanes.interp {
            self.interp(&optimized, "optimized-interp")?;
        }
        let (lanes, max_rounds) = (self.lanes, self.lanes.max_rounds);
        let mut out = LevelReport {
            level,
            plan_stats: program.graph.plan().stats(),
            ..LevelReport::default()
        };
        for i in 0..self.case.argsets.len() {
            let args = words(&self.case.argsets[i]);
            out.plan.push(self.plan(&program, i, "planned")?);
            if let Some(shape) = lanes.stream {
                out.stream.push(self.stream(&program, i, shape)?);
            }
            if lanes.dense {
                let mut dense = program.instance();
                dense.inject_args(&args);
                let report = run_dense(&mut dense.graph, max_rounds)
                    .map_err(|e| self.fail(FailureKind::ExecError, format!("dense: {e}")))?;
                self.agree(i, "dense", &dense.memory().dram, Some(&dense.sink_tokens()))?;
                out.dense.push(report);
            }
            for config in &lanes.timed {
                // The simulator times a program's graph; a fresh instance's
                // graph with the template's host links is one.
                let mut timed = CompiledProgram {
                    graph: program.instance().graph,
                    contexts: Vec::new(),
                    links: Vec::new(),
                    entry: program.entry,
                    exit: program.exit,
                    outer_parallelism: program.outer_parallelism,
                };
                let (vector, scalar) = (config.vector_buffer_tokens, config.scalar_buffer_tokens);
                let who = format!("timed at {vector}/{scalar} buffers");
                Simulator::new(config.clone(), IdealModels::default())
                    .run(&mut timed, &args, max_rounds)
                    .map_err(|e| self.fail(FailureKind::ExecError, format!("{who}: {e}")))?;
                self.agree(i, &who, &timed.graph.mem.dram, Some(&timed.sink_tokens()))?;
            }
        }
        Ok(out)
    }

    /// The stream lane for argset `i`: `copies` copies fed `chunk` at a
    /// time must leave what one planned run of every copy fed up front
    /// does (and one dense sweep of them, with the dense lane on), and the
    /// exit stream of one planned run `copies` times over.
    fn stream(
        &mut self,
        program: &CompiledProgram,
        i: usize,
        shape: Stream,
    ) -> Result<ExecReport, Failure> {
        let sets = vec![words(&self.case.argsets[i]); shape.copies.max(1)];
        let (copies, chunk) = (sets.len(), shape.chunk);
        let who = format!("stream ({copies} copies fed {chunk} at a time)");
        let exec_err = |e: MachineError| self.fail(FailureKind::ExecError, format!("{who}: {e}"));
        let max_rounds = self.lanes.max_rounds;
        // The session first, on the channel table the planned run returned.
        let mut stream = program.stream();
        let mut output = Vec::new();
        for group in sets.chunks(chunk.max(1)) {
            stream.feed(group).map_err(exec_err)?;
            output.extend(stream.poll(max_rounds).map_err(exec_err)?.0);
        }
        let report = *stream.report();
        let out = stream.finish(max_rounds).map_err(exec_err)?;
        output.extend(out.tail);

        // The one-shots: every copy fed up front to the plan and, with the
        // dense lane on, to the dense sweep, a scheduler independent of it.
        let mut planned = program.instance();
        sets[1..].iter().for_each(|args| planned.inject_args(args));
        (planned.run_untimed(&sets[0], max_rounds)).map_err(exec_err)?;
        let mut one_shots = vec![("planned one-shot", planned)];
        if self.lanes.dense {
            let mut dense = program.instance();
            sets.iter().for_each(|args| dense.inject_args(args));
            run_dense(&mut dense.graph, max_rounds).map_err(exec_err)?;
            one_shots.push(("dense one-shot", dense));
        }
        let once = self.refs[i].sink.as_deref().unwrap_or_default();
        for (name, one_shot) in &one_shots {
            let (want, got) = (&one_shot.memory().dram, &out.memory.dram);
            let dram_diff = diff_dram(want, got, &format!("{who} vs {name}"));
            if let Some(detail) = dram_diff.or_else(|| self.expected_diff(got, &who)) {
                return Err(self.fail(FailureKind::DramMismatch, detail));
            }
            let repeated = once.iter().cycle().take(once.len() * copies);
            if output != one_shot.sink_tokens() || !output.iter().eq(repeated) {
                let (got, single) = (output.len(), once.len());
                let detail = format!("{who} exit stream: {got} tokens ({name}; {single}/copy)");
                return Err(self.fail(FailureKind::SinkMismatch, detail));
            }
        }
        Ok(report)
    }
}

fn words(args: &[u32]) -> Vec<Word> {
    args.iter().map(|&a| Word(a)).collect()
}

/// The first byte where two DRAM images differ, as a report line, or
/// `None` when they are equal.
fn diff_dram(a: &[u8], b: &[u8], who: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) else {
        let (a, b) = (a.len(), b.len());
        return Some(format!("{who}: image sizes differ ({a} vs {b})"));
    };
    let (x, y) = (a[i], b[i]);
    Some(format!(
        "{who}: DRAM differs at byte {i} ({x:#04x} vs {y:#04x})"
    ))
}

/// Applies the injected miscompile to `main`'s body.
fn apply_injection(module: &mut Module, inject: Injection) -> bool {
    let Injection::FlipLastAddToSub = inject;
    let Some(f) = module.func_mut("main") else {
        return false;
    };
    fn flip_last(region: &mut Region) -> bool {
        for op in region.ops.iter_mut().rev() {
            for sub in op.kind.regions_mut() {
                if flip_last(sub) {
                    return true;
                }
            }
            if let OpKind::Bin(alu @ AluOp::Add, _, _) = &mut op.kind {
                *alu = AluOp::Sub;
                return true;
            }
        }
        false
    }
    flip_last(&mut f.body)
}
