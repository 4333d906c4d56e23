//! Ragged k-dimensional tensors and their SLTF stream encodings.
//!
//! §III-A: "the hierarchy metadata represents ragged k-dimensional tensors,
//! where the number of dimensions is fixed but each dimension can have a
//! variable size." A `k`-D ragged tensor is streamed depth-first with barrier
//! tokens terminating each dimension. Two encodings exist:
//!
//! - **explicit**: every sub-tensor is terminated by its own barrier;
//! - **canonical**: a barrier Ωj immediately preceding a higher barrier is
//!   omitted when data precedes it (the paper: "Ω2 implies an Ω1 after
//!   element 2"). Decoding accepts both.
//!
//! Empty tensors stay distinct (§III-A b): `[[]]` ↔ Ω1 Ω2, `[[],[]]` ↔
//! Ω1 Ω1 Ω2, `[]` ↔ Ω2 — essential for composing reductions.

use core::fmt;
use revet_sltf::{BarrierLevel, Token, Word};

/// A node of a ragged tensor: either a run of leaf words (dimension 1) or a
/// list of sub-tensors.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Ragged {
    /// A 1-D run of data words.
    Leaf(Vec<Word>),
    /// A (k>1)-D tensor: a variable-length list of (k-1)-D sub-tensors.
    Node(Vec<Ragged>),
}

/// An error produced while decoding an SLTF stream into a ragged tensor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// A barrier level exceeded the declared tensor dimensionality.
    LevelTooHigh {
        /// The offending barrier level.
        level: u8,
        /// The declared number of dimensions.
        dims: u8,
    },
    /// The stream ended before the tensor was terminated by a top barrier.
    Truncated,
    /// Data tokens remained after the final top-level barrier.
    TrailingTokens,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::LevelTooHigh { level, dims } => {
                write!(f, "barrier Ω{level} exceeds tensor dimensionality {dims}")
            }
            DecodeError::Truncated => {
                write!(f, "stream ended before the closing top-level barrier")
            }
            DecodeError::TrailingTokens => write!(f, "tokens remained after the closing barrier"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Ragged {
    /// Creates a leaf from anything word-like.
    ///
    /// ```
    /// use revet_oracle::ragged::Ragged;
    /// let r = Ragged::leaf([1u32, 2, 3]);
    /// assert_eq!(r.element_count(), 3);
    /// ```
    pub fn leaf<I, W>(words: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: Into<Word>,
    {
        Ragged::Leaf(words.into_iter().map(Into::into).collect())
    }

    /// Creates an inner node from sub-tensors.
    pub fn node(children: impl IntoIterator<Item = Ragged>) -> Self {
        Ragged::Node(children.into_iter().collect())
    }

    /// Total number of data elements in the tensor.
    pub fn element_count(&self) -> usize {
        match self {
            Ragged::Leaf(ws) => ws.len(),
            Ragged::Node(children) => children.iter().map(Ragged::element_count).sum(),
        }
    }

    /// Flat list of all data elements in stream order.
    pub fn flatten_elements(&self) -> Vec<Word> {
        let mut out = Vec::with_capacity(self.element_count());
        self.collect_elements(&mut out);
        out
    }

    fn collect_elements(&self, out: &mut Vec<Word>) {
        match self {
            Ragged::Leaf(ws) => out.extend_from_slice(ws),
            Ragged::Node(children) => {
                for c in children {
                    c.collect_elements(out);
                }
            }
        }
    }

    /// Encodes the tensor **explicitly**: every sub-tensor is terminated by
    /// its own barrier, with the whole tensor terminated at level `dims`.
    ///
    /// The tensor's own declared dimensionality is `dims`; children encode at
    /// `dims - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is 0, exceeds 15, or is smaller than the structural
    /// depth of the tensor.
    pub fn encode_explicit(&self, dims: u8) -> Vec<Token> {
        let mut out = Vec::new();
        self.encode_inner(dims, &mut out);
        out.push(Token::Barrier(BarrierLevel::of(dims)));
        out
    }

    fn encode_inner(&self, dims: u8, out: &mut Vec<Token>) {
        match self {
            Ragged::Leaf(ws) => {
                assert!(dims >= 1, "leaf encoded at dimension 0");
                out.extend(ws.iter().map(|w| Token::Data(*w)));
            }
            Ragged::Node(children) => {
                assert!(dims >= 2, "node encoded at dimension {dims} < 2");
                for c in children {
                    c.encode_inner(dims - 1, out);
                    out.push(Token::Barrier(BarrierLevel::of(dims - 1)));
                }
            }
        }
    }

    /// Encodes the tensor in **canonical** SLTF form: redundant barriers
    /// implied by a following higher barrier are omitted (exactly when data
    /// immediately precedes them).
    ///
    /// ```
    /// use revet_oracle::ragged::Ragged;
    /// use revet_sltf::{data, omega};
    ///
    /// // [[0, 1], [2]]  ⇒  0 1 Ω1 2 Ω2         (paper §III-A)
    /// let t = Ragged::node([Ragged::leaf([0u32, 1]), Ragged::leaf([2u32])]);
    /// assert_eq!(
    ///     t.encode_canonical(2),
    ///     vec![data(0u32), data(1u32), omega(1), data(2u32), omega(2)]
    /// );
    /// ```
    pub fn encode_canonical(&self, dims: u8) -> Vec<Token> {
        canonicalize(self.encode_explicit(dims))
    }

    /// Decodes an SLTF token slice into a `dims`-dimensional ragged tensor.
    /// Accepts both canonical and explicit encodings. The stream must consist
    /// of exactly one tensor (one top-level barrier at level `dims`, at the
    /// end).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if a barrier exceeds `dims`, the stream is
    /// truncated, or tokens trail the closing barrier.
    pub fn decode(tokens: &[Token], dims: u8) -> Result<Ragged, DecodeError> {
        let mut decoder = Decoder::new(dims);
        let mut result = None;
        for tok in tokens {
            if result.is_some() {
                return Err(DecodeError::TrailingTokens);
            }
            if let Some(t) = decoder.push(*tok)? {
                result = Some(t);
            }
        }
        result.ok_or(DecodeError::Truncated)
    }

    /// Decodes a stream containing a *sequence* of `dims`-D tensors (each
    /// terminated at level `dims`).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input or a trailing partial
    /// tensor.
    pub fn decode_sequence(tokens: &[Token], dims: u8) -> Result<Vec<Ragged>, DecodeError> {
        let mut decoder = Decoder::new(dims);
        let mut out = Vec::new();
        for tok in tokens {
            if let Some(t) = decoder.push(*tok)? {
                out.push(t);
            }
        }
        if decoder.has_pending() {
            return Err(DecodeError::Truncated);
        }
        Ok(out)
    }
}

impl fmt::Display for Ragged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ragged::Leaf(ws) => {
                write!(f, "[")?;
                for (i, w) in ws.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, "]")
            }
            Ragged::Node(children) => {
                write!(f, "[")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Removes barriers implied by canonical form: an Ωj immediately followed by
/// an Ωk with `k > j` is dropped when the token before the Ωj is data.
///
/// This is §III-A's rule ("Ω2 implies an Ω1 after element 2"); removing a
/// barrier after another barrier would merge distinct empty sub-tensors, so
/// only data-preceded barriers are removable.
pub fn canonicalize(tokens: Vec<Token>) -> Vec<Token> {
    let mut out: Vec<Token> = Vec::with_capacity(tokens.len());
    for tok in tokens {
        if let Token::Barrier(level) = tok {
            // Drop a pending lower barrier if it directly follows data.
            while let Some(&Token::Barrier(prev)) = out.last() {
                if prev < level && preceded_by_data(&out) {
                    out.pop();
                } else {
                    break;
                }
            }
        }
        out.push(tok);
    }
    out
}

fn preceded_by_data(out: &[Token]) -> bool {
    out.len() >= 2 && out[out.len() - 2].is_data()
}

/// An incremental SLTF decoder: feed tokens, receive completed `dims`-D
/// tensors.
///
/// Maintains one builder per dimension. On Ωn, intermediate dimensions
/// `j < n` are closed only if they hold pending content (this is what makes
/// implied barriers decodable), while dimension `n` itself always closes —
/// possibly producing an empty sub-tensor, preserving `[[]]` vs `[]`.
#[derive(Debug, Clone)]
pub struct Decoder {
    dims: u8,
    /// `leaf` is the dimension-1 builder; `inner[j]` collects completed
    /// (j+1)-dimensional sub-tensors.
    leaf: Vec<Word>,
    inner: Vec<Vec<Ragged>>,
    leaf_pending: bool,
    inner_pending: Vec<bool>,
}

impl Decoder {
    /// Creates a decoder for `dims`-dimensional tensors.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= dims <= 15`.
    pub fn new(dims: u8) -> Self {
        assert!((1..=15).contains(&dims), "dims must be in 1..=15");
        Decoder {
            dims,
            leaf: Vec::new(),
            inner: vec![Vec::new(); dims.saturating_sub(1) as usize],
            leaf_pending: false,
            inner_pending: vec![false; dims.saturating_sub(1) as usize],
        }
    }

    /// True if a partially decoded tensor is buffered.
    pub fn has_pending(&self) -> bool {
        self.leaf_pending
            || !self.leaf.is_empty()
            || self.inner_pending.iter().any(|&p| p)
            || self.inner.iter().any(|v| !v.is_empty())
    }

    /// Feeds one token; returns a completed tensor when a level-`dims`
    /// barrier closes one.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LevelTooHigh`] for barriers above `dims`.
    pub fn push(&mut self, tok: Token) -> Result<Option<Ragged>, DecodeError> {
        match tok {
            Token::Data(w) => {
                self.leaf.push(w);
                self.leaf_pending = true;
                Ok(None)
            }
            Token::Barrier(level) => {
                let n = level.get();
                if n > self.dims {
                    return Err(DecodeError::LevelTooHigh {
                        level: n,
                        dims: self.dims,
                    });
                }
                // Close dimensions 1..n conditionally, n unconditionally.
                for j in 1..=n {
                    let unconditional = j == n;
                    if j == 1 {
                        if unconditional || self.leaf_pending || !self.leaf.is_empty() {
                            let run = Ragged::Leaf(std::mem::take(&mut self.leaf));
                            self.leaf_pending = false;
                            if self.dims == 1 && unconditional {
                                return Ok(Some(run));
                            }
                            self.inner[0].push(run);
                            self.inner_pending[0] = true;
                        }
                    } else {
                        let idx = (j - 2) as usize;
                        if unconditional || self.inner_pending[idx] {
                            let node = Ragged::Node(std::mem::take(&mut self.inner[idx]));
                            self.inner_pending[idx] = false;
                            if j == self.dims && unconditional {
                                return Ok(Some(node));
                            }
                            self.inner[idx + 1].push(node);
                            self.inner_pending[idx + 1] = true;
                        }
                    }
                }
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_sltf::{data, omega};

    fn t2(spec: &[&[i32]]) -> Ragged {
        Ragged::node(spec.iter().map(|r| Ragged::leaf(r.iter().copied())))
    }

    #[test]
    fn paper_example_canonical() {
        // [[0,1],[2]] → 0 1 Ω1 2 Ω2
        let t = t2(&[&[0, 1], &[2]]);
        assert_eq!(
            t.encode_canonical(2),
            vec![data(0), data(1), omega(1), data(2), omega(2)]
        );
    }

    #[test]
    fn paper_example_explicit_decodes_same() {
        let t = t2(&[&[0, 1], &[2]]);
        let explicit = t.encode_explicit(2);
        assert_eq!(
            explicit,
            vec![data(0), data(1), omega(1), data(2), omega(1), omega(2)]
        );
        assert_eq!(Ragged::decode(&explicit, 2).unwrap(), t);
        assert_eq!(Ragged::decode(&t.encode_canonical(2), 2).unwrap(), t);
    }

    #[test]
    fn empty_tensors_have_distinct_encodings() {
        // §III-A b: [[]] vs [[],[]] vs [] must stay distinguishable.
        let a = t2(&[&[]]); // [[]]
        let b = t2(&[&[], &[]]); // [[],[]]
        let c = Ragged::Node(vec![]); // []
        assert_eq!(a.encode_canonical(2), vec![omega(1), omega(2)]);
        assert_eq!(b.encode_canonical(2), vec![omega(1), omega(1), omega(2)]);
        assert_eq!(c.encode_canonical(2), vec![omega(2)]);
        for t in [&a, &b, &c] {
            assert_eq!(&Ragged::decode(&t.encode_canonical(2), 2).unwrap(), t);
        }
    }

    #[test]
    fn three_dim_mixed() {
        // [[[1]], []] → explicit 1 Ω1 Ω2 Ω2 Ω3, canonical 1 Ω2 Ω2 Ω3
        let t = Ragged::node([Ragged::node([Ragged::leaf([1])]), Ragged::Node(vec![])]);
        let canon = t.encode_canonical(3);
        assert_eq!(canon, vec![data(1), omega(2), omega(2), omega(3)]);
        assert_eq!(Ragged::decode(&canon, 3).unwrap(), t);
        assert_eq!(Ragged::decode(&t.encode_explicit(3), 3).unwrap(), t);
    }

    #[test]
    fn one_dim_roundtrip() {
        let t = Ragged::leaf([5, 6, 7]);
        let enc = t.encode_canonical(1);
        assert_eq!(enc, vec![data(5), data(6), data(7), omega(1)]);
        assert_eq!(Ragged::decode(&enc, 1).unwrap(), t);
    }

    #[test]
    fn sequence_decoding() {
        let a = Ragged::leaf([1]);
        let b = Ragged::leaf::<_, Word>([]);
        let mut stream = a.encode_canonical(1);
        stream.extend(b.encode_canonical(1));
        let seq = Ragged::decode_sequence(&stream, 1).unwrap();
        assert_eq!(seq, vec![a, b]);
    }

    #[test]
    fn errors() {
        assert_eq!(
            Ragged::decode(&[omega(3)], 2),
            Err(DecodeError::LevelTooHigh { level: 3, dims: 2 })
        );
        assert_eq!(Ragged::decode(&[data(1)], 1), Err(DecodeError::Truncated));
        assert_eq!(
            Ragged::decode(&[omega(1), data(1)], 1),
            Err(DecodeError::TrailingTokens)
        );
    }

    #[test]
    fn trailing_leading_empty_runs() {
        // [[],[1],[]] keeps its leading and trailing empties.
        let t = t2(&[&[], &[1], &[]]);
        let canon = t.encode_canonical(2);
        assert_eq!(canon, vec![omega(1), data(1), omega(1), omega(1), omega(2)]);
        assert_eq!(Ragged::decode(&canon, 2).unwrap(), t);
    }

    #[test]
    fn display() {
        let t = t2(&[&[0, 1], &[2]]);
        assert_eq!(t.to_string(), "[[0, 1], [2]]");
    }

    #[test]
    fn element_count_and_flatten() {
        let t = t2(&[&[0, 1], &[2]]);
        assert_eq!(t.element_count(), 3);
        assert_eq!(
            t.flatten_elements(),
            vec![Word::from_i32(0), Word::from_i32(1), Word::from_i32(2)]
        );
    }
}
