//! Byte spans and the source map that resolves them to lines and columns.

use std::fmt;

/// A half-open byte range `[start, end)` into one source text.
///
/// Spans are plain byte offsets — cheap to carry through every compiler
/// stage — and only turn into line/column pairs at render time, via a
/// [`SourceMap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Span {
    /// First byte of the spanned text.
    pub start: u32,
    /// One past the last byte.
    pub end: u32,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Span {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// A zero-width span at `at` (caret position for "expected X here").
    pub fn point(at: u32) -> Span {
        Span { start: at, end: at }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length in bytes.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// True for zero-width (point) spans.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A 1-based line/column pair resolved from a byte offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineCol {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (byte column within the line).
    pub col: u32,
}

/// One source text plus its precomputed line table.
///
/// Built once per compile; every [`Span`](crate::Span) produced while
/// compiling that text resolves through it.
#[derive(Clone, Debug)]
pub struct SourceMap {
    src: String,
    name: String,
    /// Byte offset of the first byte of each line (line 1 starts at 0).
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Builds the line table for `src`; the origin renders as `<input>`.
    pub fn new(src: impl Into<String>) -> SourceMap {
        SourceMap::with_name(src, "<input>")
    }

    /// Builds the line table for `src` with an explicit origin name (a
    /// file path, usually) used in rendered diagnostics.
    pub fn with_name(src: impl Into<String>, name: impl Into<String>) -> SourceMap {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            src,
            name: name.into(),
            line_starts,
        }
    }

    /// The underlying source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The origin name shown in rendered diagnostics.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resolves a byte offset to its 1-based line/column. Offsets past the
    /// end clamp to the last position.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let offset = offset.min(self.src.len() as u32);
        // Last line start <= offset.
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - self.line_starts[line_idx] + 1,
        }
    }

    /// The text of a 1-based line, without its trailing newline.
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line as usize).saturating_sub(1);
        let Some(&start) = self.line_starts.get(idx) else {
            return "";
        };
        let end = self
            .line_starts
            .get(idx + 1)
            .map_or(self.src.len(), |&n| n as usize);
        self.src[start as usize..end].trim_end_matches(['\n', '\r'])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Span::point(5).is_empty());
        assert_eq!(Span::new(1, 2).to(Span::new(5, 9)), Span::new(1, 9));
        // Inverted ranges clamp instead of underflowing.
        assert_eq!(Span::new(7, 3), Span::new(7, 7));
    }

    #[test]
    fn line_col_resolution() {
        let m = SourceMap::new("ab\ncd\n\nxyz");
        assert_eq!(m.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(m.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(m.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(m.line_col(6), LineCol { line: 3, col: 1 });
        assert_eq!(m.line_col(7), LineCol { line: 4, col: 1 });
        assert_eq!(m.line_col(9), LineCol { line: 4, col: 3 });
        // Past the end clamps.
        assert_eq!(m.line_col(1000), LineCol { line: 4, col: 4 });
    }

    #[test]
    fn line_text_lookup() {
        let m = SourceMap::new("ab\ncd\r\n\nxyz");
        assert_eq!(m.line_text(1), "ab");
        assert_eq!(m.line_text(2), "cd");
        assert_eq!(m.line_text(3), "");
        assert_eq!(m.line_text(4), "xyz");
        assert_eq!(m.line_text(99), "");
    }

    #[test]
    fn empty_source() {
        let m = SourceMap::new("");
        assert_eq!(m.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(m.line_text(1), "");
    }
}
