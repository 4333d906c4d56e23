//! # revet-core — the Revet compiler
//!
//! Lowers threaded imperative Revet programs to executable vRDA
//! dataflow (the paper's primary contribution, §V, Fig. 8):
//!
//! 1. **Front end** (`revet-lang`): parse → typed MIR.
//! 2. **High-level lowering** (§V-A): views & iterators → SRAM + allocator
//!    queues + bulk transfers; foreach hierarchy elimination (Fig. 9); bulk
//!    accesses → `foreach` loops.
//! 3. **Optimization** (§V-B): allocation fusion, if-to-select conversion
//!    with predicated memory ops, allocator hoisting + replicate
//!    bufferization, sub-word packing.
//! 4. **CFG→dataflow** (§V-C): structured regions → streaming contexts over
//!    the §III-B primitives, replicate distribution/merge networks.
//! 5. **Dataflow optimization** (§V-D): vector/scalar link assignment,
//!    context splitting to the Table II machine shape, and retiming/deadlock
//!    buffer insertion. Each context records the unit class it needs, and
//!    [`report::ResourceReport`] sums them into Table IV's rows.
//!
//! ```
//! use revet_core::{PassOptions, Session};
//!
//! let source = r#"
//!     dram<u32> output;
//!     void main(u32 n) {
//!         foreach (n) { u32 i =>
//!             output[i] = i * i;
//!         };
//!     }
//! "#;
//! let mut program = Session::new(source, PassOptions::default())
//!     .to_dataflow()
//!     .unwrap();
//! program.run_untimed(&[revet_sltf::Word(4)], 1_000_000).unwrap();
//! let d = &program.graph.mem.dram;
//! assert_eq!(u32::from_le_bytes(d[8..12].try_into().unwrap()), 4);
//! ```

#![warn(missing_docs)]

mod fingerprint;
mod instance;
mod lower;
pub mod passes;
pub mod report;
mod session;
mod stream;

pub use fingerprint::ProgramId;
pub use instance::{ProgramInstance, StreamExecutor};
pub use lower::{lower_to_dataflow, Category, CompiledProgram, ContextInfo, LinkInfo};
pub use session::{Session, Stage};
pub use stream::{StreamInstance, StreamOutcome};

use revet_diag::{codes, Diagnostic, SourceMap};
use std::fmt;

/// A compiler error: one or more structured, span-carrying diagnostics.
///
/// Every stage failure — lexing, parsing (possibly several errors thanks
/// to recovery), semantic lowering, MIR verification, dataflow lowering —
/// arrives here as [`Diagnostic`]s rather than a flattened string, so
/// callers (the `revetc` CLI, the serve layer's `CompileFailed` frame)
/// can render snippets or ship codes + line/col over the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoreError {
    /// The diagnostics, in source order (at least one).
    pub diagnostics: Vec<Diagnostic>,
}

impl CoreError {
    /// A single span-less dataflow-lowering diagnostic (the internal
    /// passes' escape hatch; front-end errors arrive already spanned).
    pub(crate) fn new(m: impl Into<String>) -> Self {
        CoreError {
            diagnostics: vec![Diagnostic::error(codes::DATAFLOW_LOWER, m)],
        }
    }

    /// Wraps already-structured diagnostics.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        assert!(!diagnostics.is_empty(), "an error needs ≥1 diagnostic");
        CoreError { diagnostics }
    }

    /// Renders every diagnostic as a rustc-style caret snippet against
    /// `source` (the text the failed compile was given).
    pub fn render(&self, source: &str, color: bool) -> String {
        let diags: revet_diag::Diagnostics = self.diagnostics.iter().cloned().collect();
        diags.render(&SourceMap::new(source), color)
    }
}

/// A post-pass MIR verification failure (code `E0301`: a compiler bug,
/// not a user error), spanned when the verifier could attribute it.
impl From<revet_mir::VerifyError> for CoreError {
    fn from(e: revet_mir::VerifyError) -> Self {
        let d = Diagnostic::error(
            codes::MIR_VERIFY,
            format!("post-pass verification failed: {e}"),
        );
        CoreError {
            diagnostics: vec![match e.span {
                Some(s) => d.with_span(s),
                None => d,
            }],
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: ")?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CoreError {}

/// Which optimizations run (the Fig. 12 ablation knobs).
///
/// `PassOptions` is part of a compiled program's identity: together with
/// the source text it determines the output, so it is `Eq + Hash` and
/// feeds the content-addressed [`ProgramId`] fingerprint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PassOptions {
    /// §V-B c: inline loop-free `if`s as selects + predicated memory ops.
    pub if_to_select: bool,
    /// §V-B a: one allocator pop per region instead of per object.
    pub fuse_allocators: bool,
    /// §V-B b: hoist a replicate body's allocation before the distribution
    /// network (enables pointer-keyed load balancing, Fig. 14).
    pub hoist_allocators: bool,
    /// §V-B b: park unused live values in SRAM around replicates.
    pub bufferize_replicate: bool,
    /// §V-B d: pack i8/i16 loop-carried values into shared 32-bit slots.
    pub pack_subwords: bool,
    /// §V-A b: rewrite pragma-annotated foreach loops to forks (Fig. 9).
    pub eliminate_hierarchy: bool,
    /// Classical-optimization level for the MIR pass pipeline: `0` runs no
    /// classical optimizations, `1` adds constant folding, identity
    /// simplification, and DCE, `2` (the default) additionally runs CSE
    /// plus a second clean-up round. Values above 2 behave like 2.
    pub opt_level: u8,
    /// DRAM image size for the compiled program's memory state: at most
    /// [`MAX_DRAM_BYTES`], or `Session::to_dataflow` fails.
    pub dram_bytes: usize,
}

/// The largest [`PassOptions::dram_bytes`]: DRAM addresses are 32-bit
/// words, so every DRAM symbol's base must fit in one.
pub const MAX_DRAM_BYTES: u64 = 1 << 32;

impl Default for PassOptions {
    /// Everything on. The default `opt_level` is 2, overridable through
    /// the `REVET_OPT_LEVEL` environment variable (`0`/`1`/`2`) so the
    /// whole test suite can be exercised at a different level without
    /// code changes — CI runs it at both 0 and the default.
    fn default() -> Self {
        PassOptions {
            if_to_select: true,
            fuse_allocators: true,
            hoist_allocators: true,
            bufferize_replicate: true,
            pack_subwords: true,
            eliminate_hierarchy: true,
            opt_level: default_opt_level(),
            dram_bytes: 1 << 20,
        }
    }
}

impl PassOptions {
    /// All optimizations off (the naïve lowering baseline): every paper
    /// toggle false and `opt_level` 0.
    pub fn none() -> Self {
        PassOptions {
            if_to_select: false,
            fuse_allocators: false,
            hoist_allocators: false,
            bufferize_replicate: false,
            pack_subwords: false,
            eliminate_hierarchy: false,
            opt_level: 0,
            dram_bytes: 1 << 20,
        }
    }
}

/// The `REVET_OPT_LEVEL` override, clamped to `0..=2`; 2 when unset or
/// unparsable.
fn default_opt_level() -> u8 {
    std::env::var("REVET_OPT_LEVEL")
        .ok()
        .and_then(|s| s.trim().parse::<u8>().ok())
        .map_or(2, |v| v.min(2))
}
