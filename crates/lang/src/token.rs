//! The Revet lexer.
//!
//! The surface language is a small C-like imperative language (§IV) with
//! explicit parallel constructs (`foreach`, `replicate`, `fork`, `exit`) and
//! access-pattern-optimized memory declarations (Table I).
//!
//! Tokens carry **byte spans** into the source; line/column pairs are
//! resolved lazily through a [`revet_diag::SourceMap`] at render time. The
//! lexer *recovers* from bad input — it reports a [`Diagnostic`] per
//! problem and keeps scanning, so one run surfaces every lexical error.

use crate::ast::{BinOp, UnOp};
use revet_diag::{codes, Diagnostic, Span};
use std::borrow::Cow;
use std::fmt;
use std::sync::LazyLock;

/// A lexical token. An identifier borrows its text from the source, so
/// lexing a keyword allocates nothing; the parser copies only the names
/// the AST keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok<'src> {
    /// An identifier or keyword.
    Ident(&'src str),
    /// An integer literal (decimal, hex `0x…`, or char `'a'`).
    Int(i64),
    /// Punctuation / operator, canonical spelling.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::Int(v) => write!(f, "'{v}'"),
            Tok::Punct(p) => write!(f, "'{p}'"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// Byte range in the source.
    pub span: Span,
}

/// Punctuation that is not an operator of [`crate::ast`]'s tables.
const STRUCTURAL: &[&str] = &[
    "++", "--", "::", "=>", "->", "=", "(", ")", "{", "}", "[", "]", ",", ";", ".", ":",
];

/// Every punctuation token, longest first (so the first match is the
/// longest): the operator tables' spellings — binary operators, their
/// compound-assignment forms, prefix operators — and the structural marks.
static PUNCTS: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    let binary = BinOp::TABLE
        .iter()
        .flat_map(|r| Some(r.symbol).into_iter().chain(r.compound));
    let unary = UnOp::TABLE.iter().map(|(_, symbol)| *symbol);
    let mut all: Vec<_> = binary
        .chain(unary)
        .chain(STRUCTURAL.iter().copied())
        .collect();
    all.sort_by_key(|p| std::cmp::Reverse(p.len()));
    all
});

/// Tokenizes Revet source.
///
/// Always returns the token stream (terminated by [`Tok::Eof`]) plus any
/// lexical diagnostics. Malformed input is skipped, not fatal: an
/// unexpected character yields one diagnostic and scanning continues, so
/// the parser still sees everything after it.
pub fn lex(src: &str) -> (Vec<Spanned<'_>>, Vec<Diagnostic>) {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut diags = Vec::new();
    let mut i = 0usize;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                let open = i;
                i += 2;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        continue 'outer;
                    }
                    i += 1;
                }
                diags.push(
                    Diagnostic::error(codes::LEX_UNTERMINATED, "unterminated block comment")
                        .with_span(Span::new(open as u32, (open + 2) as u32)),
                );
                break;
            }
        }
        let start = i;
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Spanned {
                tok: Tok::Ident(&src[start..i]),
                span: Span::new(start as u32, i as u32),
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let radix = if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] | 32) == b'x' {
                i += 2;
                16
            } else {
                10
            };
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let span = Span::new(start as u32, i as u32);
            let text: Cow<str> = match &src[start..i] {
                t if t.contains('_') => t.replace('_', "").into(),
                t => t.into(),
            };
            let digits = if radix == 16 { &text[2..] } else { &text[..] };
            match i64::from_str_radix(digits, radix) {
                Ok(v) => out.push(Spanned {
                    tok: Tok::Int(v),
                    span,
                }),
                Err(e) => diags.push(
                    Diagnostic::error(
                        codes::LEX_BAD_LITERAL,
                        format!("bad integer literal '{text}': {e}"),
                    )
                    .with_span(span),
                ),
            }
            continue;
        }
        // Char literals.
        if c == '\'' {
            match lex_char(bytes, start) {
                Ok((v, next)) => {
                    out.push(Spanned {
                        tok: Tok::Int(v as i64),
                        span: Span::new(start as u32, next as u32),
                    });
                    i = next;
                }
                Err((d, next)) => {
                    diags.push(d);
                    i = next;
                }
            }
            continue;
        }
        // Operators: longest first, tried only when the first byte matches.
        let rest = &bytes[i..];
        if let Some(p) = PUNCTS
            .iter()
            .find(|p| p.as_bytes()[0] == rest[0] && rest.starts_with(p.as_bytes()))
        {
            i += p.len();
            out.push(Spanned {
                tok: Tok::Punct(p),
                span: Span::new(start as u32, i as u32),
            });
            continue;
        }
        // Nothing matched: report the (full, possibly multi-byte) char and
        // keep scanning after it.
        let ch = src[i..].chars().next().expect("in bounds");
        let w = ch.len_utf8();
        diags.push(
            Diagnostic::error(
                codes::LEX_UNEXPECTED_CHAR,
                format!("unexpected character '{ch}'"),
            )
            .with_span(Span::new(start as u32, (start + w) as u32)),
        );
        i += w;
    }
    out.push(Spanned {
        tok: Tok::Eof,
        span: Span::point(src.len() as u32),
    });
    (out, diags)
}

/// Scans one char literal starting at the opening quote. Returns the value
/// and the index past the closing quote, or a diagnostic and a resync
/// index.
fn lex_char(bytes: &[u8], start: usize) -> Result<(u8, usize), (Diagnostic, usize)> {
    let unterminated = |end: usize| {
        (
            Diagnostic::error(codes::LEX_UNTERMINATED, "unterminated char literal")
                .with_span(Span::new(start as u32, end as u32)),
            end,
        )
    };
    let mut j = start + 1;
    let v: u8 = if j < bytes.len() && bytes[j] == b'\\' {
        j += 1;
        let Some(&e) = bytes.get(j) else {
            return Err(unterminated(j));
        };
        j += 1;
        match e {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            other => {
                // Skip the closing quote too when it is present, so one bad
                // escape doesn't cascade into "unexpected '''".
                let end = if bytes.get(j) == Some(&b'\'') {
                    j + 1
                } else {
                    j
                };
                return Err((
                    Diagnostic::error(
                        codes::LEX_BAD_LITERAL,
                        format!("unknown escape '\\{}'", other as char),
                    )
                    .with_span(Span::new(start as u32, end as u32)),
                    end,
                ));
            }
        }
    } else if j < bytes.len() {
        let v = bytes[j];
        j += 1;
        v
    } else {
        return Err(unterminated(j));
    };
    if j >= bytes.len() || bytes[j] != b'\'' {
        return Err(unterminated(j));
    }
    Ok((v, j + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_diag::SourceMap;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        let (ts, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        ts.into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn idents_numbers_ops() {
        assert_eq!(
            toks("x1 = 0x10 + 2;"),
            vec![
                Tok::Ident("x1"),
                Tok::Punct("="),
                Tok::Int(16),
                Tok::Punct("+"),
                Tok::Int(2),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn char_literals_and_escapes() {
        assert_eq!(toks("'a'"), vec![Tok::Int(97), Tok::Eof]);
        assert_eq!(toks("'\\n'"), vec![Tok::Int(10), Tok::Eof]);
        assert_eq!(toks("'\\0'"), vec![Tok::Int(0), Tok::Eof]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n/* block\n */ b"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn multi_char_ops_longest_match() {
        assert_eq!(
            toks("a >>= b << c => d"),
            vec![
                Tok::Ident("a"),
                Tok::Punct(">>="),
                Tok::Ident("b"),
                Tok::Punct("<<"),
                Tok::Ident("c"),
                Tok::Punct("=>"),
                Tok::Ident("d"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_resolve_to_positions() {
        let (ts, diags) = lex("a\n  b");
        assert!(diags.is_empty());
        let map = SourceMap::new("a\n  b");
        let lc0 = map.line_col(ts[0].span.start);
        let lc1 = map.line_col(ts[1].span.start);
        assert_eq!((lc0.line, lc0.col), (1, 1));
        assert_eq!((lc1.line, lc1.col), (2, 3));
        // Eof is a point span at the end of input.
        assert_eq!(ts.last().unwrap().span, Span::point(5));
    }

    #[test]
    fn lex_errors_are_spanned_diagnostics() {
        let (_, d) = lex("@");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::LEX_UNEXPECTED_CHAR);
        assert_eq!(d[0].span, Some(Span::new(0, 1)));
        let (_, d) = lex("'x");
        assert_eq!(d[0].code, codes::LEX_UNTERMINATED);
        let (_, d) = lex("/* unterminated");
        assert_eq!(d[0].code, codes::LEX_UNTERMINATED);
    }

    #[test]
    fn lexer_recovers_and_reports_every_error() {
        // Two independent bad characters; the tokens between them survive.
        let (ts, d) = lex("a @ b $ c");
        assert_eq!(d.len(), 2);
        assert_eq!(
            ts.iter().map(|s| s.tok).collect::<Vec<_>>(),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]
        );
        // Spans point at the two offenders.
        assert_eq!(d[0].span, Some(Span::new(2, 3)));
        assert_eq!(d[1].span, Some(Span::new(6, 7)));
    }

    #[test]
    fn non_ascii_reported_as_one_char() {
        let (_, d) = lex("λ");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].span, Some(Span::new(0, 2)));
        assert!(d[0].message.contains('λ'));
    }
}
