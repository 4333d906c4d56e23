//! # revet-diag — spans, structured diagnostics, and rendering
//!
//! The diagnostics subsystem every compiler stage reports through. A
//! [`Span`] is a byte range into the source; a [`Diagnostic`] is one
//! finding (severity, stable `E`-prefixed code, message, primary span,
//! labels, notes); a [`Diagnostics`] sink accumulates many findings per
//! compile — parser recovery means one run can report every syntax error,
//! not just the first. [`SourceMap`] resolves byte offsets to 1-based
//! line/column pairs, and [`render_diagnostic`] produces the familiar
//! rustc-style snippet:
//!
//! ```text
//! error[E0101]: expected ';', found '}'
//!  --> <input>:3:17
//!   |
//! 3 |         u32 x = 1 + 2
//!   |                 ^
//! ```
//!
//! ```
//! use revet_diag::{codes, Diagnostic, Diagnostics, SourceMap, Span};
//!
//! let map = SourceMap::new("u32 x = ;\n");
//! let mut diags = Diagnostics::new();
//! diags.push(
//!     Diagnostic::error(codes::PARSE_EXPECTED_EXPR, "expected expression, found ';'")
//!         .with_span(Span::new(8, 9)),
//! );
//! let rendered = diags.render(&map, false);
//! assert!(rendered.contains("error[E0103]"));
//! assert!(rendered.contains("1 | u32 x = ;"));
//! assert!(rendered.contains("^"));
//! ```

#![warn(missing_docs)]

mod render;
mod span;

pub use render::render_diagnostic;
pub use span::{LineCol, SourceMap, Span};

use std::fmt;

/// Stable diagnostic codes, grouped by pipeline stage.
///
/// Codes are part of the machine-readable surface (the `revet-serve`
/// `CompileFailed` frame carries them), so they are append-only: never
/// renumber an existing code.
pub mod codes {
    /// Lexer: a character no token starts with.
    pub const LEX_UNEXPECTED_CHAR: &str = "E0001";
    /// Lexer: unterminated char literal or block comment.
    pub const LEX_UNTERMINATED: &str = "E0002";
    /// Lexer: malformed integer literal.
    pub const LEX_BAD_LITERAL: &str = "E0003";
    /// Parser: a specific token was required.
    pub const PARSE_EXPECTED: &str = "E0101";
    /// Parser: unknown type name.
    pub const PARSE_UNKNOWN_TYPE: &str = "E0102";
    /// Parser: an expression was required.
    pub const PARSE_EXPECTED_EXPR: &str = "E0103";
    /// Parser: malformed top-level item.
    pub const PARSE_BAD_ITEM: &str = "E0104";
    /// Parser: error budget exhausted, parse abandoned.
    pub const PARSE_TOO_MANY_ERRORS: &str = "E0105";
    /// Semantic: unknown variable, memory object, or DRAM symbol.
    pub const SEM_UNKNOWN_NAME: &str = "E0201";
    /// Semantic: a name was used as the wrong kind of thing.
    pub const SEM_KIND_MISUSE: &str = "E0202";
    /// Semantic: assignment into a foreach thread's read-only parent scope.
    pub const SEM_READONLY_ASSIGN: &str = "E0203";
    /// Semantic: misplaced or mistyped `yield` / `return`.
    pub const SEM_BAD_YIELD_RETURN: &str = "E0204";
    /// Semantic: any other front-end semantic failure.
    pub const SEM_GENERAL: &str = "E0205";
    /// Semantic: a thread count, memory-object size or thread-local SRAM
    /// region past one memory unit.
    pub const SEM_OVERSIZED: &str = "E0206";
    /// MIR structural verification failed (a compiler bug surfaced).
    pub const MIR_VERIFY: &str = "E0301";
    /// CFG→dataflow lowering failure.
    pub const DATAFLOW_LOWER: &str = "E0401";

    /// One-line description of a code, for `revetc --explain`-style use.
    pub fn describe(code: &str) -> Option<&'static str> {
        Some(match code {
            LEX_UNEXPECTED_CHAR => "a character no token starts with",
            LEX_UNTERMINATED => "unterminated char literal or block comment",
            LEX_BAD_LITERAL => "malformed integer literal",
            PARSE_EXPECTED => "a specific token was required here",
            PARSE_UNKNOWN_TYPE => "unknown type name",
            PARSE_EXPECTED_EXPR => "an expression was required here",
            PARSE_BAD_ITEM => "malformed top-level item",
            PARSE_TOO_MANY_ERRORS => "error budget exhausted, parse abandoned",
            SEM_UNKNOWN_NAME => "unknown variable, memory object, or DRAM symbol",
            SEM_KIND_MISUSE => "a name was used as the wrong kind of thing",
            SEM_READONLY_ASSIGN => "foreach threads see a read-only parent scope",
            SEM_BAD_YIELD_RETURN => "misplaced or mistyped yield/return",
            SEM_GENERAL => "front-end semantic failure",
            SEM_OVERSIZED => "a count, size or thread-local region past one memory unit",
            MIR_VERIFY => "MIR structural verification failed",
            DATAFLOW_LOWER => "CFG-to-dataflow lowering failure",
            _ => return None,
        })
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// The compile fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: severity, stable code, message, and source attribution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// How serious.
    pub severity: Severity,
    /// Stable `E`-prefixed code (see [`codes`]).
    pub code: &'static str,
    /// Human-readable one-liner.
    pub message: String,
    /// Primary location; `None` for diagnostics with no source anchor
    /// (e.g. internal verifier failures on synthesized ops).
    pub span: Option<Span>,
    /// Labeled secondary (or primary) spans; a label whose span equals the
    /// primary renders inline under the caret.
    pub labels: Vec<(Span, String)>,
    /// Free-form trailing notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error diagnostic with no span yet.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            span: None,
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A warning diagnostic with no span yet.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Sets the primary span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Sets the primary span only if none is attached yet (used by outer
    /// layers to supply coarser fallback locations).
    pub fn or_span(mut self, span: Span) -> Diagnostic {
        self.span.get_or_insert(span);
        self
    }

    /// Adds a labeled span.
    pub fn with_label(mut self, span: Span, label: impl Into<String>) -> Diagnostic {
        self.labels.push((span, label.into()));
        self
    }

    /// Adds a trailing note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    /// Compact one-line form (no source snippet — use
    /// [`render_diagnostic`] when a [`SourceMap`] is at hand).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// An accumulating sink of diagnostics — one compile, many findings.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty sink.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Records one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Absorbs another sink's diagnostics.
    pub fn extend(&mut self, other: Diagnostics) {
        self.diags.extend(other.diags);
    }

    /// All diagnostics, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// The diagnostics as a slice.
    pub fn as_slice(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Total recorded diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// True when at least one error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Stable-sorts diagnostics into source order (span-less ones last) —
    /// producers that interleave stages (lexer + recovering parser) call
    /// this so the report reads top-to-bottom.
    pub fn sort_by_span(&mut self) {
        self.diags
            .sort_by_key(|d| d.span.map_or((true, 0), |s| (false, s.start)));
    }

    /// Renders every diagnostic as a rustc-style snippet block (blocks
    /// separated by blank lines).
    pub fn render(&self, map: &SourceMap, color: bool) -> String {
        self.diags
            .iter()
            .map(|d| render_diagnostic(d, map, color))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl From<Diagnostic> for Diagnostics {
    fn from(d: Diagnostic) -> Diagnostics {
        Diagnostics { diags: vec![d] }
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Diagnostics {
        Diagnostics {
            diags: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

impl fmt::Display for Diagnostics {
    /// Compact multi-line form, one diagnostic per line (`Display` has no
    /// access to the source; use [`Diagnostics::render`] for snippets).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (SourceMap, Diagnostic) {
        let map = SourceMap::new("void main() {\n  u32 x = ;\n}\n");
        let d = Diagnostic::error(codes::PARSE_EXPECTED_EXPR, "expected expression, found ';'")
            .with_span(Span::new(24, 25))
            .with_label(Span::new(24, 25), "an initializer is required here")
            .with_note("declarations may omit '= init' entirely");
        (map, d)
    }

    #[test]
    fn renders_caret_snippet() {
        let (map, d) = sample();
        let r = render_diagnostic(&d, &map, false);
        assert_eq!(
            r,
            "error[E0103]: expected expression, found ';'\n \
             --> <input>:2:11\n  \
             |\n\
             2 |   u32 x = ;\n  \
             |           ^ an initializer is required here\n  \
             = note: declarations may omit '= init' entirely\n"
        );
    }

    #[test]
    fn color_render_wraps_but_preserves_text() {
        let (map, d) = sample();
        let plain = render_diagnostic(&d, &map, false);
        let colored = render_diagnostic(&d, &map, true);
        assert!(colored.contains("\x1b[1;31m"));
        // Stripping the escapes recovers exactly the plain render.
        let mut stripped = String::new();
        let mut rest = colored.as_str();
        while let Some(i) = rest.find('\x1b') {
            stripped.push_str(&rest[..i]);
            let after = &rest[i..];
            let m = after.find('m').expect("escape terminator");
            rest = &after[m + 1..];
        }
        stripped.push_str(rest);
        assert_eq!(stripped, plain);
    }

    #[test]
    fn spanless_diagnostic_renders_header_only() {
        let map = SourceMap::new("x");
        let d = Diagnostic::error(codes::MIR_VERIFY, "use of undefined value %9")
            .with_note("this is a compiler bug");
        let r = render_diagnostic(&d, &map, false);
        assert_eq!(
            r,
            "error[E0301]: use of undefined value %9\n  = note: this is a compiler bug\n"
        );
    }

    #[test]
    fn sink_accumulates_and_counts() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.push(Diagnostic::warning(codes::SEM_GENERAL, "w"));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::error(codes::PARSE_EXPECTED, "e1"));
        ds.push(Diagnostic::error(codes::PARSE_EXPECTED, "e2").with_span(Span::new(0, 1)));
        assert!(ds.has_errors());
        assert_eq!(ds.error_count(), 2);
        assert_eq!(ds.len(), 3);
        let text = ds.to_string();
        assert!(text.contains("warning[E0205]: w"));
        assert!(text.contains("error[E0101]: e2"));
    }

    #[test]
    fn codes_describe_themselves() {
        for c in [
            codes::LEX_UNEXPECTED_CHAR,
            codes::PARSE_EXPECTED,
            codes::SEM_READONLY_ASSIGN,
            codes::MIR_VERIFY,
            codes::DATAFLOW_LOWER,
        ] {
            assert!(codes::describe(c).is_some(), "{c}");
        }
        assert!(codes::describe("E9999").is_none());
    }

    #[test]
    fn carets_align_on_tabs_and_multibyte_prefixes() {
        // "\tu32 λ = ;" — a tab (1 byte, 4 display columns) and a 'λ'
        // (2 bytes, 1 column) precede the ';' at byte offset 10.
        let src = "\tu32 λ = ;";
        let map = SourceMap::new(src);
        let d = Diagnostic::error(codes::PARSE_EXPECTED_EXPR, "x").with_span(Span::new(10, 11));
        let r = render_diagnostic(&d, &map, false);
        // The line prints with the tab expanded…
        assert!(r.contains("1 |     u32 λ = ;\n"), "{r}");
        // …and the caret sits under the ';': 4 (tab) + "u32 λ = " (8
        // chars) = 12 display columns of padding.
        assert!(r.contains(&format!("| {}^\n", " ".repeat(12))), "{r}");
    }

    #[test]
    fn multi_line_span_clamps_to_first_line() {
        let map = SourceMap::new("abc\ndef\n");
        let d = Diagnostic::error(codes::PARSE_EXPECTED, "x").with_span(Span::new(1, 7));
        let r = render_diagnostic(&d, &map, false);
        assert!(r.contains("1 | abc\n"), "{r}");
        assert!(r.contains("|  ^^\n"), "{r}");
    }
}
