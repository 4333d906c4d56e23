//! The staged compile driver.
//!
//! The paper's pipeline (§V, Fig. 8) is explicitly staged — parse → typed
//! MIR → high-level lowering / optimization → CFG→dataflow — and
//! [`Session`] exposes exactly those stages. Each stage method is
//! idempotent (it memoizes its artifact and re-running is free), runs its
//! predecessors on demand, and accumulates every finding in a
//! [`Diagnostics`] sink that survives the whole session:
//!
//! ```
//! use revet_core::{PassOptions, Session};
//!
//! let mut s = Session::new(
//!     "dram<u32> output;
//!      void main(u32 n) { foreach (n) { u32 i => output[i] = i * i; }; }",
//!     PassOptions::default(),
//! );
//! let ast = s.parse().unwrap();
//! assert_eq!(ast.funcs[0].name, "main");
//! let mir_text = s.mir_text().unwrap();         // after lower_mir()
//! assert!(mir_text.contains("func @main"));
//! let program = s.to_dataflow().unwrap();
//! assert!(program.context_count() > 0);
//! assert!(s.diagnostics().is_empty());
//! ```
//!
//! On failure the diagnostics stay on the session for rendering:
//!
//! ```
//! use revet_core::{PassOptions, Session};
//!
//! let mut s = Session::new("void main() {\n  u32 a = ;\n  b = +;\n}", PassOptions::default());
//! assert!(s.to_dataflow().is_err());
//! assert_eq!(s.diagnostics().error_count(), 2); // recovery found both
//! let text = s.render_diagnostics(false);
//! assert!(text.contains("-->"));
//! ```

use crate::lower::{lower_timed, CompiledProgram, Laps};
use crate::{passes, CoreError, PassOptions};
use revet_diag::{Diagnostics, SourceMap};
use revet_lang::ast::Program;
use revet_mir::{Module, PassReport};

/// The pipeline stages a [`Session`] moves through, in order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// Nothing run yet.
    Start,
    /// `parse()` succeeded: the AST is available.
    Parsed,
    /// `lower_mir()` succeeded: the typed MIR module is available.
    Lowered,
    /// `run_passes()` succeeded: the optimized, verified module is
    /// available.
    Optimized,
    /// A stage failed; the session's diagnostics say why.
    Failed,
}

/// A staged compile: source in, per-stage artifacts out, diagnostics
/// accumulated throughout. See the module-level docs for the flow.
#[derive(Clone, Debug)]
pub struct Session {
    source: String,
    opts: PassOptions,
    map: SourceMap,
    diags: Diagnostics,
    stage: Stage,
    ast: Option<Program>,
    mir: Option<Module>,
    optimized: bool,
    report: Option<PassReport>,
    capture: Option<String>,
    captured: Option<String>,
    timings: Vec<(&'static str, std::time::Duration)>,
}

impl Session {
    /// Starts a session over `source` with the given pass options.
    pub fn new(source: impl Into<String>, opts: PassOptions) -> Session {
        let source = source.into();
        Session {
            map: SourceMap::new(&source),
            source,
            opts,
            diags: Diagnostics::new(),
            stage: Stage::Start,
            ast: None,
            mir: None,
            optimized: false,
            report: None,
            capture: None,
            captured: None,
            timings: Vec::new(),
        }
    }

    /// Names the source's origin (a file path, usually) in rendered
    /// diagnostics.
    pub fn with_source_name(mut self, name: impl Into<String>) -> Session {
        self.map = SourceMap::with_name(&self.source, name);
        self
    }

    /// Asks `run_passes()` to snapshot the MIR right after the named pass
    /// runs (see [`Session::captured_mir`]). Set before the pass stage; a
    /// name not in the pipeline simply captures nothing.
    pub fn capture_mir_after(mut self, pass: impl Into<String>) -> Session {
        self.capture = Some(pass.into());
        self
    }

    // ---- stages ----

    /// Stage 1: lex + parse (with recovery — every syntax error in the
    /// source is reported in one run).
    ///
    /// # Errors
    ///
    /// All lex/parse diagnostics, which also remain on
    /// [`Session::diagnostics`].
    pub fn parse(&mut self) -> Result<&Program, CoreError> {
        if self.stage == Stage::Failed {
            return Err(self.failure());
        }
        if self.ast.is_none() {
            let started = std::time::Instant::now();
            match revet_lang::parse_program(&self.source) {
                Ok(p) => {
                    self.ast = Some(p);
                    self.stage = self.stage.max(Stage::Parsed);
                    self.timings.push(("parse", started.elapsed()));
                }
                Err(diags) => return Err(self.fail(diags)),
            }
        }
        Ok(self.ast.as_ref().expect("just parsed"))
    }

    /// Stage 2: AST → typed MIR (symbol resolution, type checking, SSA
    /// conversion), verified.
    ///
    /// # Errors
    ///
    /// Parse diagnostics, or the first semantic diagnostic.
    pub fn lower_mir(&mut self) -> Result<&Module, CoreError> {
        self.parse()?;
        if self.mir.is_none() {
            let started = std::time::Instant::now();
            let ast = self.ast.as_ref().expect("parsed");
            match revet_lang::lower_program(ast) {
                Ok(module) => {
                    self.mir = Some(module);
                    self.stage = self.stage.max(Stage::Lowered);
                    self.timings.push(("lower_mir", started.elapsed()));
                }
                Err(diags) => return Err(self.fail(diags)),
            }
        }
        Ok(self.mir.as_ref().expect("just lowered"))
    }

    /// Stage 3: high-level lowering + optimization (§V-A/B, gated by the
    /// session's [`PassOptions`]), then MIR re-verification.
    ///
    /// # Errors
    ///
    /// Earlier-stage diagnostics, or a post-pass verification failure
    /// (which indicates a compiler bug, code `E0301`).
    pub fn run_passes(&mut self) -> Result<&Module, CoreError> {
        self.lower_mir()?;
        if !self.optimized {
            let started = std::time::Instant::now();
            let pipeline = passes::build_pipeline(&self.opts);
            let capture = self.capture.clone();
            let mut captured = None;
            let module = self.mir.as_mut().expect("lowered");
            let report = pipeline.run_observed(module, &mut |name, m| {
                if capture.as_deref() == Some(name) {
                    captured = Some(revet_mir::print_module(m));
                }
            });
            self.captured = captured;
            self.report = Some(report);
            if let Err(e) = revet_mir::verify_module(self.mir.as_ref().expect("lowered")) {
                let err = CoreError::from(e);
                return Err(self.fail(err.diagnostics.into_iter().collect()));
            }
            self.optimized = true;
            self.stage = self.stage.max(Stage::Optimized);
            self.timings.push(("run_passes", started.elapsed()));
        }
        Ok(self.mir.as_ref().expect("optimized"))
    }

    /// Stage 4: CFG→dataflow conversion, link assignment, and context
    /// splitting, reading the optimized module in place
    /// ([`crate::lower_to_dataflow`]). DRAM symbols are laid out
    /// back-to-back in equal slices of `opts.dram_bytes`, which must not
    /// exceed the 32-bit DRAM address space ([`crate::MAX_DRAM_BYTES`]).
    ///
    /// Callable repeatedly: each call materializes a fresh
    /// [`CompiledProgram`] from the memoized optimized module.
    ///
    /// # Errors
    ///
    /// Earlier-stage diagnostics, or dataflow-lowering diagnostics
    /// (code `E0401`).
    pub fn to_dataflow(&mut self) -> Result<CompiledProgram, CoreError> {
        self.run_passes()?;
        let started = std::time::Instant::now();
        let mut laps = Laps::start();
        let module = self.mir.as_ref().expect("optimized");
        match lower_timed(module, &self.opts, &mut laps) {
            Ok(p) => {
                self.timings.push(("to_dataflow", started.elapsed()));
                self.timings.extend(laps.laps);
                Ok(p)
            }
            Err(e) => Err(self.fail(e.diagnostics.into_iter().collect())),
        }
    }

    // ---- artifacts & reporting ----

    /// The parsed AST, if `parse()` has succeeded.
    pub fn ast(&self) -> Option<&Program> {
        self.ast.as_ref()
    }

    /// The current MIR module: typed MIR after `lower_mir()`, the
    /// optimized module after `run_passes()`.
    pub fn mir(&self) -> Option<&Module> {
        self.mir.as_ref()
    }

    /// The current MIR module printed as text (runs `lower_mir()` on
    /// demand; `None` if the front end failed).
    pub fn mir_text(&mut self) -> Option<String> {
        self.lower_mir().ok()?;
        Some(revet_mir::print_module(self.mir.as_ref()?))
    }

    /// How far the session has progressed.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Everything reported so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// The session's source map (byte offsets → line/col).
    pub fn source_map(&self) -> &SourceMap {
        &self.map
    }

    /// The source text being compiled.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The pass options in use.
    pub fn options(&self) -> &PassOptions {
        &self.opts
    }

    /// The source's `pragma(threads, N)` ([`Module::threads`]), once
    /// `lower_mir()` has run; `None` when the source states none and every
    /// thread-local buffer count is [`revet_mir::DEFAULT_THREADS`].
    pub fn thread_count(&self) -> Option<u32> {
        self.mir.as_ref().and_then(|m| m.threads)
    }

    /// Per-pass timing and op-count statistics, once `run_passes()` has
    /// run.
    pub fn pass_report(&self) -> Option<&PassReport> {
        self.report.as_ref()
    }

    /// The MIR snapshot requested with [`Session::capture_mir_after`], if
    /// that pass executed.
    pub fn captured_mir(&self) -> Option<&str> {
        self.captured.as_deref()
    }

    /// Wall time of every compile stage that actually executed this
    /// session, in execution order. Memoized re-runs add no entries, so a
    /// full compile yields exactly `parse`, `lower_mir`, `run_passes`,
    /// `to_dataflow` (the latter once per materialization). Each
    /// `to_dataflow` entry is followed by its sub-stages, which add up to
    /// it: `to_dataflow.memory` (the memory image of the module's
    /// declarations), `.free_uses` (the constant and free-use tables),
    /// `.walk` (the lowering walk) and `.plan` (the plan build). Complements [`Session::pass_report`], which times the
    /// individual passes *inside* the `run_passes` stage.
    pub fn stage_timings(&self) -> &[(&'static str, std::time::Duration)] {
        &self.timings
    }

    /// Records each stage timing into `obs` as a `compile_stage` trace
    /// event (for `--trace-out` Perfetto exports).
    pub fn emit_compile_trace(&self, obs: &revet_obs::ObsSink) {
        for (name, dur) in &self.timings {
            obs.compile_stage(name, dur.as_micros() as u64);
        }
    }

    /// Renders every accumulated diagnostic as a rustc-style snippet.
    pub fn render_diagnostics(&self, color: bool) -> String {
        self.diags.render(&self.map, color)
    }

    fn fail(&mut self, diags: Diagnostics) -> CoreError {
        self.stage = Stage::Failed;
        self.diags.extend(diags);
        self.failure()
    }

    fn failure(&self) -> CoreError {
        CoreError::from_diagnostics(self.diags.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_diag::codes;

    const GOOD: &str = "dram<u32> output;
        void main(u32 n) { foreach (n) { u32 i => output[i] = i * i; }; }";

    #[test]
    fn stages_progress_and_memoize() {
        let mut s = Session::new(GOOD, PassOptions::default());
        assert_eq!(s.stage(), Stage::Start);
        s.parse().unwrap();
        assert_eq!(s.stage(), Stage::Parsed);
        s.lower_mir().unwrap();
        assert_eq!(s.stage(), Stage::Lowered);
        let before = s.mir_text().unwrap();
        assert!(before.contains("main"));
        s.run_passes().unwrap();
        assert_eq!(s.stage(), Stage::Optimized);
        assert!(revet_mir::print_module(s.mir().unwrap()).contains("main"));
        // Two dataflow materializations from one optimized module.
        let p1 = s.to_dataflow().unwrap();
        let p2 = s.to_dataflow().unwrap();
        assert_eq!(p1.context_count(), p2.context_count());
        assert!(s.diagnostics().is_empty());
    }

    #[test]
    fn parse_failure_sticks_and_reports_every_error() {
        let mut s = Session::new(
            "void main() {\n  u32 a = ;\n  u32 ok = 1;\n  ok = @ 3;\n}",
            PassOptions::default(),
        );
        let e = s.to_dataflow().unwrap_err();
        assert_eq!(e.diagnostics.len(), 2, "{e}");
        assert!(e.diagnostics.iter().all(|d| d.span.is_some()));
        assert_eq!(s.stage(), Stage::Failed);
        // Later stage calls return the same failure, not a panic.
        let e2 = s.lower_mir().unwrap_err();
        assert_eq!(e.diagnostics, e2.diagnostics);
        assert!(s.mir_text().is_none());
    }

    #[test]
    fn semantic_failure_is_coded_and_spanned() {
        let mut s = Session::new(
            "void main(u32 n) {\n  output[n] = 1;\n}",
            PassOptions::default(),
        );
        let e = s.run_passes().unwrap_err();
        assert_eq!(e.diagnostics.len(), 1);
        assert_eq!(e.diagnostics[0].code, codes::SEM_UNKNOWN_NAME);
        let lc = s
            .source_map()
            .line_col(e.diagnostics[0].span.expect("spanned").start);
        assert_eq!(lc.line, 2);
        // parse() still succeeded — the AST artifact survives the failure.
        assert!(s.ast().is_some());
    }

    #[test]
    fn dram_bytes_past_the_32_bit_address_space_is_an_e0401() {
        let src = "dram<u32> a; dram<u32> b;
            void main(u32 n) { foreach (n) { u32 i => b[i] = a[i]; }; }";
        let compile = |dram_bytes| {
            let opts = PassOptions {
                dram_bytes,
                ..PassOptions::default()
            };
            Session::new(src, opts).to_dataflow()
        };
        // The whole space is allowed; its image is never allocated here.
        let whole = compile(1 << 32).expect("exactly 4 GiB fits");
        assert_eq!(whole.graph.mem.dram.len(), 1 << 32);
        // One byte more used to wrap both bases to 0, aliasing `a` and `b`.
        let e = compile((1 << 32) + 1).unwrap_err();
        assert_eq!(e.diagnostics.len(), 1);
        assert_eq!(e.diagnostics[0].code, codes::DATAFLOW_LOWER);
        assert!(e.diagnostics[0].message.contains("4294967296"), "{e}");
        assert!(compile(1 << 33).is_err());
    }

    /// Constant math the classical passes can chew on (2*3 folds, the
    /// operand constants then die). `opt_level` is pinned so the
    /// REVET_OPT_LEVEL environment override cannot change the pipeline
    /// under these assertions.
    const FOLDABLE: &str = "dram<u32> output;
        void main(u32 n) { u32 x = 2 * 3; output[n] = x + n; }";

    fn o2() -> PassOptions {
        PassOptions {
            opt_level: 2,
            ..PassOptions::default()
        }
    }

    #[test]
    fn pass_report_records_every_pipeline_pass() {
        let mut s = Session::new(FOLDABLE, o2());
        assert!(s.pass_report().is_none(), "no report before run_passes()");
        s.run_passes().unwrap();
        let report = s.pass_report().expect("report after run_passes()");
        let expected = crate::passes::build_pipeline(s.options()).names().len();
        assert_eq!(report.passes.len(), expected);
        assert!(report.ops_before() > 0);
        assert!(
            report
                .passes
                .iter()
                .any(|p| p.name == "const_fold" && p.changed),
            "2*3 must fold"
        );
        assert!(
            report.ops_after() < report.ops_before(),
            "folding + DCE must shrink the module"
        );
        let text = report.summary();
        assert!(text.contains("lower_views"));
        assert!(text.contains("total"));
    }

    #[test]
    fn capture_mir_after_snapshots_named_pass() {
        let mut s = Session::new(FOLDABLE, o2()).capture_mir_after("lower_views");
        s.run_passes().unwrap();
        let snap = s.captured_mir().expect("snapshot for a pipeline pass");
        assert!(snap.contains("main"));
        // The snapshot shows the mid-pipeline state — before the classical
        // passes folded 2*3 — so it must differ from the final module.
        let final_text = revet_mir::print_module(s.mir().unwrap());
        assert_ne!(snap, final_text);

        let mut none = Session::new(FOLDABLE, o2()).capture_mir_after("no_such");
        none.run_passes().unwrap();
        assert!(none.captured_mir().is_none());
    }

    #[test]
    fn stage_timings_record_each_stage_once() {
        const DATAFLOW: [&str; 5] = [
            "to_dataflow",
            "to_dataflow.memory",
            "to_dataflow.free_uses",
            "to_dataflow.walk",
            "to_dataflow.plan",
        ];
        let mut s = Session::new(GOOD, PassOptions::default());
        assert!(s.stage_timings().is_empty());
        s.to_dataflow().unwrap();
        let names: Vec<&str> = s.stage_timings().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [&["parse", "lower_mir", "run_passes"][..], &DATAFLOW].concat()
        );
        // The sub-stages split the dataflow stage; they cannot outlast it.
        let t = s.stage_timings();
        let subs: std::time::Duration = t[4..].iter().map(|(_, d)| *d).sum();
        assert!(subs <= t[3].1, "{subs:?} of sub-stages inside {:?}", t[3].1);
        // Memoized stages add nothing; a re-materialization adds only the
        // dataflow stage and its sub-stages.
        s.run_passes().unwrap();
        assert_eq!(s.stage_timings().len(), 8);
        s.to_dataflow().unwrap();
        let names: Vec<&str> = s.stage_timings().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                &["parse", "lower_mir", "run_passes"][..],
                &DATAFLOW,
                &DATAFLOW
            ]
            .concat()
        );
        // Stage timings flow into the trace ring as compile_stage events.
        let obs = revet_obs::ObsSink::with_trace_capacity(64);
        s.emit_compile_trace(&obs);
        assert_eq!(obs.trace_events().len(), 13);
        assert!(obs.chrome_trace_json().contains("compile:run_passes"));
        assert!(obs.chrome_trace_json().contains("compile:to_dataflow.walk"));
    }
}
