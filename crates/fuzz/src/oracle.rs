//! The N-way differential oracle.
//!
//! One [`Case`] is judged by ten batch evaluator runs that must all agree
//! bit-for-bit on the final DRAM image (and, among the dataflow
//! executors, on `main`'s sink token stream):
//!
//! | # | evaluator | module | opt level |
//! |---|-----------|--------|-----------|
//! | 1 | MIR interpreter | unoptimized (`compile_to_mir`) | — (reference) |
//! | 2,5,8 | MIR interpreter | optimized (`Session::run_passes`) | O0/O1/O2 |
//! | 3,6,9 | compiled `ExecPlan` (`run_untimed`) | lowered dataflow | O0/O1/O2 |
//! | 4,7,10 | dense-sweep oracle (`revet_oracle::dense::run_dense`) | lowered dataflow | O0/O1/O2 |
//!
//! On top of the batch matrix, each level runs the **chunked-feed
//! streaming lane**: the case's argset replicated and fed through a
//! resident [`StreamInstance`](revet_core::StreamInstance) at a
//! seed-derived chunk boundary must be bit-identical (final DRAM plus
//! sink stream) to one session fed everything up front — and a
//! single-argset session must match the batch runs.
//!
//! On top of the bit-identity matrix the oracle enforces the frontend
//! invariants: compilation must succeed with *zero* diagnostics (clean
//! programs are well-typed by construction) and nothing in the stack may
//! panic — every run is wrapped in `catch_unwind`.
//!
//! Full `MemoryState` equality is deliberately not asserted (allocator
//! free-list order is schedule-dependent, see `plan_differential.rs` in
//! `revet-apps`); final DRAM plus sink streams is the observable
//! contract.
//!
//! [`Injection`] is the test-only miscompile hook: it mutates the
//! optimized MIR *only on the dataflow path* (the reference interpreter
//! still sees the honest module), exactly the shape of a broken
//! optimization pass, and is used to prove the oracle catches and the
//! reducer minimizes real miscompiles.

use crate::gen::Case;
use revet_core::{lower_to_dataflow, CompiledProgram, PassOptions, Session};
use revet_machine::{MachineError, TTok};
use revet_mir::{AluOp, DramLayout, Module, OpKind, Region};
use revet_oracle::dense::run_dense;
use revet_oracle::interp::run_main;
use revet_sltf::Word;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Oracle-wide execution limits and hooks.
#[derive(Clone, Debug, Default)]
pub struct OracleConfig {
    /// DRAM image size for every evaluator (0 = the 64 KiB default).
    pub dram_bytes: usize,
    /// Executor round bound (0 = a generous default).
    pub max_rounds: u64,
    /// Interpreter op-fuel bound (0 = a generous default).
    pub interp_fuel: u64,
    /// Test-only miscompile injection on the dataflow path.
    pub inject: Option<Injection>,
}

impl OracleConfig {
    fn dram_bytes(&self) -> usize {
        if self.dram_bytes == 0 {
            1 << 16
        } else {
            self.dram_bytes
        }
    }
    fn max_rounds(&self) -> u64 {
        if self.max_rounds == 0 {
            50_000_000
        } else {
            self.max_rounds
        }
    }
    fn interp_fuel(&self) -> u64 {
        if self.interp_fuel == 0 {
            1_000_000_000
        } else {
            self.interp_fuel
        }
    }
}

/// Test-only miscompiles the oracle must catch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injection {
    /// Rewrites the last integer `Add` in `main` into a `Sub` after the
    /// pass pipeline, before dataflow lowering (a classic wrong-code
    /// peephole). Last rather than first: late adds are usually
    /// generator-visible arithmetic, not lowering-introduced address
    /// math, so the divergence shows up as wrong data instead of an
    /// out-of-bounds fault — but either way the oracle flags it.
    FlipLastAddToSub,
}

/// Why a case failed, stable across reduction steps (the reducer only
/// keeps a mutation when the kind survives).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The front end rejected a generated (well-typed!) program.
    CompileError,
    /// Compilation succeeded but left diagnostics behind.
    DirtyDiagnostics,
    /// The MIR interpreter faulted.
    InterpError,
    /// A dataflow executor faulted or deadlocked.
    ExecError,
    /// Final DRAM images differ between two evaluators.
    DramMismatch,
    /// Sink token streams differ between two evaluators.
    SinkMismatch,
    /// Something panicked.
    Panic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::CompileError => "compile-error",
            FailureKind::DirtyDiagnostics => "dirty-diagnostics",
            FailureKind::InterpError => "interp-error",
            FailureKind::ExecError => "exec-error",
            FailureKind::DramMismatch => "dram-mismatch",
            FailureKind::SinkMismatch => "sink-mismatch",
            FailureKind::Panic => "panic",
        };
        f.write_str(s)
    }
}

/// A divergence report: what failed, where, and a human-readable detail
/// line naming the disagreeing evaluator pair.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The stable failure class.
    pub kind: FailureKind,
    /// The opt level being evaluated when the failure surfaced.
    pub level: Option<u8>,
    /// One-line description (first differing byte, error text, …).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.level {
            Some(l) => write!(f, "{} at O{}: {}", self.kind, l, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

fn fail(kind: FailureKind, level: impl Into<Option<u8>>, detail: impl Into<String>) -> Failure {
    Failure {
        kind,
        level: level.into(),
        detail: detail.into(),
    }
}

/// First differing byte between two DRAM images, as a report line.
fn diff_dram(a: &[u8], b: &[u8], who: &str) -> String {
    if a.len() != b.len() {
        return format!("{who}: image sizes differ ({} vs {})", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!(
            "{who}: DRAM differs at byte {i} ({:#04x} vs {:#04x})",
            a[i], b[i]
        ),
        None => format!("{who}: images equal (internal oracle error)"),
    }
}

/// The case's inputs as `(byte offset, bytes)` overlays, each at its
/// symbol's base in the layout `Session::to_dataflow` builds, so the
/// images compare.
fn overlays(module: &Module, case: &Case, dram_bytes: usize) -> Vec<(u64, Vec<u8>)> {
    let layout = DramLayout::equal_slices(module.drams.len(), dram_bytes);
    let bases = layout.base.iter().map(|&b| u64::from(b));
    bases.zip(case.dram_inits.iter().cloned()).collect()
}

/// Runs `module` under the MIR interpreter with the case's inputs loaded;
/// returns the final DRAM image.
fn interp_dram(
    module: &Module,
    case: &Case,
    cfg: &OracleConfig,
    level: Option<u8>,
) -> Result<Vec<u8>, Failure> {
    let dram_bytes = cfg.dram_bytes();
    let inputs = overlays(module, case, dram_bytes);
    let mem = run_main(module, dram_bytes, &case.args, &inputs, cfg.interp_fuel())
        .map_err(|e| fail(FailureKind::InterpError, level, e.to_string()))?;
    Ok(mem.dram.to_vec())
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

/// The per-level artifacts compared across levels. (DRAM equality across
/// levels follows transitively from each level's reference comparison,
/// so only the sink stream needs to be carried.)
struct LevelRun {
    sink_planned: Vec<revet_machine::TTok>,
}

/// Judges one case. `Ok(())` means all ten runs agreed; `Err` carries the
/// first divergence found. Never panics: every stage runs under
/// `catch_unwind` and a panic is itself a reported failure.
pub fn run_case(case: &Case, cfg: &OracleConfig) -> Result<(), Failure> {
    match catch_unwind(AssertUnwindSafe(|| run_case_inner(case, cfg))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(fail(FailureKind::Panic, None, msg))
        }
    }
}

fn run_case_inner(case: &Case, cfg: &OracleConfig) -> Result<(), Failure> {
    // Run 1: the reference — the MIR interpreter over the unoptimized
    // module straight out of the front end.
    let module = revet_lang::compile_to_mir(&case.source)
        .map_err(|d| fail(FailureKind::CompileError, None, format!("frontend: {d}")))?;
    let reference = interp_dram(&module, case, cfg, None)?;

    let mut first_level: Option<LevelRun> = None;
    for level in [0u8, 1, 2] {
        let run = run_level(case, cfg, level, &reference)?;
        match &first_level {
            None => first_level = Some(run),
            Some(base) => {
                if base.sink_planned != run.sink_planned {
                    return Err(fail(
                        FailureKind::SinkMismatch,
                        level,
                        format!(
                            "planned sink stream differs from O0 ({} vs {} tokens)",
                            base.sink_planned.len(),
                            run.sink_planned.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Feeds `argsets` into a fresh streaming session in `chunk`-sized
/// groups, polling to quiescence between groups, then finishes; returns
/// the final DRAM image and the complete output stream (every poll's
/// tokens, then the close's tail).
fn stream_run(
    program: &CompiledProgram,
    argsets: &[Vec<Word>],
    chunk: usize,
    max_rounds: u64,
) -> Result<(Vec<u8>, Vec<TTok>), MachineError> {
    let mut stream = program.stream();
    let mut output = Vec::new();
    for group in argsets.chunks(chunk.max(1)) {
        stream.feed(group)?;
        output.extend(stream.poll(max_rounds)?.0);
    }
    let out = stream.finish(max_rounds)?;
    output.extend(out.tail);
    Ok((out.memory.dram.to_vec(), output))
}

fn run_level(
    case: &Case,
    cfg: &OracleConfig,
    level: u8,
    reference: &[u8],
) -> Result<LevelRun, Failure> {
    let dram_bytes = cfg.dram_bytes();
    let opts = PassOptions {
        opt_level: level,
        dram_bytes,
        ..PassOptions::default()
    };
    let mut session = Session::new(case.source.clone(), opts.clone());
    session
        .run_passes()
        .map_err(|e| fail(FailureKind::CompileError, level, e.to_string()))?;
    if !session.diagnostics().is_empty() {
        return Err(fail(
            FailureKind::DirtyDiagnostics,
            level,
            format!(
                "compile succeeded but left {} diagnostic(s)",
                session.diagnostics().as_slice().len()
            ),
        ));
    }

    // Runs 2/5/8: the interpreter over the *optimized* module.
    let optimized = session.mir().expect("run_passes succeeded").clone();
    let opt_dram = interp_dram(&optimized, case, cfg, Some(level))?;
    if opt_dram != reference {
        return Err(fail(
            FailureKind::DramMismatch,
            level,
            diff_dram(reference, &opt_dram, "optimized-interp vs reference"),
        ));
    }

    // Lower to dataflow — through the session unless a miscompile is
    // being injected, in which case the mutated module is lowered alone.
    let program = match cfg.inject {
        None => session.to_dataflow(),
        Some(inj) => {
            let mut module = optimized.clone();
            apply_injection(&mut module, inj);
            lower_to_dataflow(&module, &opts)
        }
    }
    .map_err(|e| fail(FailureKind::CompileError, level, e.to_string()))?;

    // Load the case's DRAM inputs into the compiled template; every
    // instance starts from a byte-identical image.
    let mut program = program;
    for (base, bytes) in overlays(&optimized, case, dram_bytes) {
        program
            .graph
            .mem
            .write_dram(base as usize, &bytes)
            .map_err(|e| fail(FailureKind::ExecError, level, format!("load: {e}")))?;
    }
    let args: Vec<Word> = case.args.iter().map(|&a| Word(a)).collect();

    // Runs 3/6/9: the compiled execution plan — twice. The first instance
    // returns its dirtied image to the template's pool when it drops, so
    // the second runs on the recycled image and must leave the same bits.
    let run_planned = || -> Result<(Vec<u8>, Vec<TTok>), Failure> {
        let mut inst = program.instance();
        inst.run_untimed(&args, cfg.max_rounds())
            .map_err(|e| fail(FailureKind::ExecError, level, format!("planned: {e}")))?;
        Ok((inst.memory().dram.to_vec(), inst.sink_tokens()))
    };
    let (planned_dram, planned_sink) = run_planned()?;
    let (recycled_dram, recycled_sink) = run_planned()?;
    if recycled_dram != planned_dram {
        return Err(fail(
            FailureKind::DramMismatch,
            level,
            diff_dram(&planned_dram, &recycled_dram, "recycled vs fresh image"),
        ));
    }
    if recycled_sink != planned_sink {
        return Err(fail(
            FailureKind::SinkMismatch,
            level,
            format!(
                "recycled vs fresh image sink streams ({} vs {} tokens)",
                recycled_sink.len(),
                planned_sink.len()
            ),
        ));
    }

    // Runs 4/7/10: the dense-sweep oracle, which shares no worklist, wake
    // rule or seeding with the plan.
    let mut dense = program.instance();
    dense.inject_args(&args);
    run_dense(&mut dense.graph, cfg.max_rounds())
        .map_err(|e| fail(FailureKind::ExecError, level, format!("dense: {e}")))?;

    if planned_dram != *reference {
        return Err(fail(
            FailureKind::DramMismatch,
            level,
            diff_dram(reference, &planned_dram, "planned vs reference"),
        ));
    }
    if dense.memory().dram[..] != *reference {
        return Err(fail(
            FailureKind::DramMismatch,
            level,
            diff_dram(reference, &dense.memory().dram, "dense vs reference"),
        ));
    }
    if planned_sink != dense.sink_tokens() {
        return Err(fail(
            FailureKind::SinkMismatch,
            level,
            format!(
                "planned vs dense sink streams ({} vs {} tokens)",
                planned_sink.len(),
                dense.sink_tokens().len()
            ),
        ));
    }

    // The chunked-feed streaming lane. First tie the streaming machinery
    // into the batch matrix: a session fed the single argset must leave
    // the reference image and the planned executor's sink stream.
    let stream_err = |e: MachineError| fail(FailureKind::ExecError, level, format!("stream: {e}"));
    let (solo_dram, solo_sink) =
        stream_run(&program, std::slice::from_ref(&args), 1, cfg.max_rounds())
            .map_err(stream_err)?;
    if solo_dram != *reference {
        return Err(fail(
            FailureKind::DramMismatch,
            level,
            diff_dram(reference, &solo_dram, "streamed vs reference"),
        ));
    }
    if solo_sink != planned_sink {
        return Err(fail(
            FailureKind::SinkMismatch,
            level,
            format!(
                "streamed vs planned sink streams ({} vs {} tokens)",
                solo_sink.len(),
                planned_sink.len()
            ),
        ));
    }

    // Then the invariant itself: the argset replicated `copies` times and
    // fed at a seed-derived chunk boundary must be bit-identical to one
    // session fed everything up front. (Replication
    // rather than fresh argsets keeps the lane cheap; distinct inputs per
    // chunk are covered by the dedicated property suite.)
    let copies = 2 + (case.seed % 2) as usize;
    let chunk = 1 + (case.seed >> 8) as usize % (copies - 1);
    let sets: Vec<Vec<Word>> = vec![args.clone(); copies];
    let (oneshot_dram, oneshot_sink) =
        stream_run(&program, &sets, copies, cfg.max_rounds()).map_err(stream_err)?;
    let (chunked_dram, chunked_sink) =
        stream_run(&program, &sets, chunk, cfg.max_rounds()).map_err(stream_err)?;
    if chunked_dram != oneshot_dram {
        return Err(fail(
            FailureKind::DramMismatch,
            level,
            diff_dram(
                &oneshot_dram,
                &chunked_dram,
                &format!("chunked vs one-shot stream ({copies} argsets, chunk {chunk})"),
            ),
        ));
    }
    if chunked_sink != oneshot_sink {
        return Err(fail(
            FailureKind::SinkMismatch,
            level,
            format!(
                "chunked vs one-shot stream sinks ({} vs {} tokens)",
                chunked_sink.len(),
                oneshot_sink.len()
            ),
        ));
    }

    Ok(LevelRun {
        sink_planned: planned_sink,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn a_known_good_program_passes() {
        let case = Case {
            seed: 1,
            ast: Default::default(),
            source: "dram<u32> d0;\ndram<u32> d1;\ndram<u8> d2;\n\
                     void main(u32 p0, u32 p1) {\n\
                       foreach (8) { u32 i => d1[i] = (i * p0) + p1; };\n\
                     }"
            .into(),
            args: vec![3, 9],
            dram_inits: vec![Vec::new(), Vec::new(), Vec::new()],
        };
        run_case(&case, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn an_ill_formed_program_is_a_compile_error_not_a_panic() {
        let case = Case {
            seed: 2,
            ast: Default::default(),
            source: "void main() { undeclared[0] = 1; }".into(),
            args: vec![],
            dram_inits: vec![],
        };
        let f = run_case(&case, &OracleConfig::default()).unwrap_err();
        assert_eq!(f.kind, FailureKind::CompileError);
    }

    #[test]
    fn injection_is_caught_on_a_seeded_case() {
        // Find a generated case that is green normally and diverges with
        // the miscompile injected; with arithmetic flowing into stores in
        // nearly every program, the first seeds suffice.
        let cfg = GenConfig::default();
        let clean = OracleConfig::default();
        let bad = OracleConfig {
            inject: Some(Injection::FlipLastAddToSub),
            ..OracleConfig::default()
        };
        let mut caught = false;
        for i in 0..24u64 {
            let case = generate_case(crate::rng::case_seed(0xACCE_D175, i), &cfg);
            if run_case(&case, &clean).is_err() {
                continue;
            }
            if run_case(&case, &bad).is_err() {
                caught = true;
                break;
            }
        }
        assert!(caught, "no seed in the probe window tripped the injection");
    }
}
