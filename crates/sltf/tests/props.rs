//! Property-based tests for SLTF encoding invariants.

use proptest::prelude::*;
use revet_oracle::ragged::{canonicalize, Ragged};
use revet_sltf::{Token, Word};

/// Strategy producing ragged tensors of exactly `dims` dimensions.
fn ragged(dims: u8) -> BoxedStrategy<Ragged> {
    if dims == 1 {
        prop::collection::vec(any::<u32>(), 0..8)
            .prop_map(|ws| Ragged::leaf(ws))
            .boxed()
    } else {
        prop::collection::vec(ragged(dims - 1), 0..5)
            .prop_map(Ragged::node)
            .boxed()
    }
}

proptest! {
    /// Canonical encode → decode is the identity, for 1..=4 dimensions.
    #[test]
    fn canonical_roundtrip(dims in 1u8..=4, seed in 0u32..u32::MAX) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed;
        let t = ragged(dims).new_tree(&mut runner).unwrap().current();
        let enc = t.encode_canonical(dims);
        prop_assert_eq!(Ragged::decode(&enc, dims).unwrap(), t);
    }

    /// Explicit encode → decode is also the identity.
    #[test]
    fn explicit_roundtrip(t in ragged(3)) {
        let enc = t.encode_explicit(3);
        prop_assert_eq!(Ragged::decode(&enc, 3).unwrap(), t);
    }

    /// Canonicalizing an explicit encoding equals the canonical encoding.
    #[test]
    fn canonicalize_matches_direct(t in ragged(3)) {
        prop_assert_eq!(canonicalize(t.encode_explicit(3)), t.encode_canonical(3));
    }

    /// Canonicalization is idempotent.
    #[test]
    fn canonicalize_idempotent(t in ragged(2)) {
        let once = canonicalize(t.encode_explicit(2));
        prop_assert_eq!(canonicalize(once.clone()), once);
    }

    /// Distinct tensors have distinct canonical encodings (injectivity over a
    /// sampled pair).
    #[test]
    fn encoding_injective(a in ragged(2), b in ragged(2)) {
        if a != b {
            prop_assert_ne!(a.encode_canonical(2), b.encode_canonical(2));
        }
    }

    /// Data words survive encoding in order, and barrier counts never exceed
    /// the explicit form.
    #[test]
    fn data_preserved_in_order(t in ragged(3)) {
        let enc = t.encode_canonical(3);
        let words: Vec<Word> = enc.iter().filter_map(|x| x.data().copied()).collect();
        prop_assert_eq!(words, t.flatten_elements());
        let barriers = |toks: &[Token]| toks.iter().filter(|x| x.is_barrier()).count();
        prop_assert!(barriers(&enc) <= barriers(&t.encode_explicit(3)));
    }

    /// Sequences of tensors on one link decode back to the same sequence.
    #[test]
    fn sequence_roundtrip(ts in prop::collection::vec(ragged(2), 0..5)) {
        let enc: Vec<Token> = ts.iter().flat_map(|t| t.encode_canonical(2)).collect();
        prop_assert_eq!(Ragged::decode_sequence(&enc, 2).unwrap(), ts);
    }
}

#[test]
fn tokens_are_small() {
    // A stream token should stay register-sized; the simulator moves a lot of
    // them around.
    assert!(std::mem::size_of::<Token>() <= 8);
    assert_eq!(std::mem::size_of::<Word>(), 4);
}
