//! # revet-lang — the Revet language front end
//!
//! The Revet surface language (§IV of the paper): a small C-like imperative
//! language with user-annotated parallelism (`foreach`, `replicate`, `fork`,
//! `exit`) and access-pattern-optimized memory objects (Table I: SRAM,
//! read/write/modify views, read/peek/write/manual-write iterators).
//!
//! Pipeline: [`lex`] → [`parse_program`] → [`lower_program`] (symbol
//! resolution, type checking, SSA conversion) → verified [`revet_mir`]
//! module. [`print_program`] inverts the parser. Every spelling — operators
//! with their precedence, type names, view and iterator keywords — is one
//! table row in [`ast`], read by all three.
//!
//! Every stage reports through [`revet_diag`]: tokens and AST statements
//! carry byte [`Span`](revet_diag::Span)s, the parser *recovers* at `;` /
//! `}` boundaries so one run reports every syntax error, and failures come
//! back as a [`Diagnostics`] sink of structured, span-carrying
//! [`Diagnostic`](revet_diag::Diagnostic)s rather than strings.
//!
//! ## Example
//!
//! ```
//! let src = r#"
//!     dram<u32> output;
//!     void main(u32 n) {
//!         foreach (n) { u32 i =>
//!             output[i] = i * i;
//!         };
//!     }
//! "#;
//! let prog = revet_lang::parse_program(src).unwrap();
//! let module = revet_lang::lower_program(&prog).unwrap();
//! assert!(module.func("main").is_some());
//! ```
//!
//! Malformed source yields one spanned diagnostic per problem:
//!
//! ```
//! let diags = revet_lang::compile_to_mir("void main() {\n  u32 a = ;\n  b = 1 +;\n}")
//!     .unwrap_err();
//! assert_eq!(diags.error_count(), 2);
//! assert!(diags.iter().all(|d| d.span.is_some()));
//! ```

#![warn(missing_docs)]

pub mod ast;
mod lower;
mod parser;
pub mod print;
mod token;

pub use lower::lower_program;
pub use parser::parse_program;
pub use print::print_program;
pub use token::{lex, Spanned, Tok};

use revet_diag::Diagnostics;
use revet_mir::Module;

/// Parses and lowers source in one step.
///
/// # Errors
///
/// Returns the accumulated [`Diagnostics`]: every lex/parse error found by
/// recovery, or the first semantic error, each with a source span.
pub fn compile_to_mir(src: &str) -> Result<Module, Diagnostics> {
    let prog = parse_program(src)?;
    lower_program(&prog)
}
