//! Property tests for [`Channel`] through its owned-token surface
//! (`push` / `pop` / `drain_all`): random data, barrier and pop sequences
//! at tuple arities 0..=16 — canonicalising and not, across ring
//! wrap-around and growth — must behave exactly like a
//! `VecDeque<TTok>` model that restates the barrier-absorb rule.
//!
//! The suite speaks only the part of the channel API that does not depend
//! on how the queue is stored, so it pins the behaviour across a change of
//! storage.
//!
//! The model restates the absorb rule; the last property checks it against
//! the SLTF reference codec instead (`Decoder`, `canonicalize`), the
//! statement of §III-A's "an Ω2 implies an Ω1" that the channel does not
//! share code with.

use proptest::prelude::*;
use revet_machine::{tbar, tdata, Channel, TTok};
use revet_oracle::ragged::{canonicalize, Decoder, Ragged};
use revet_sltf::{Tok, Token, Word};
use std::collections::VecDeque;

/// The reference: a token deque plus the absorb rule of the `Channel` docs
/// (an Ωm still queued at the tail is replaced by a pushed Ωn, n > m, when
/// data directly preceded it; the chain x Ω1 Ω2 Ω3 collapses to x Ω3; the
/// tail context is forgotten once the queue drains).
#[derive(Default)]
struct Model {
    q: VecDeque<TTok>,
    canon: bool,
    tail_after_data: bool,
    pushed: u64,
    pushed_data: u64,
}

impl Model {
    fn push(&mut self, tok: TTok) {
        if let Tok::Barrier(level) = &tok {
            if let (true, Some(Tok::Barrier(tail))) = (self.canon, self.q.back()) {
                if tail < level && self.tail_after_data {
                    *self.q.back_mut().expect("tail matched") = tok;
                    return;
                }
            }
            self.tail_after_data = matches!(self.q.back(), Some(Tok::Data(_)));
        } else {
            self.pushed_data += 1;
        }
        self.pushed += 1;
        self.q.push_back(tok);
    }

    fn pop(&mut self) -> Option<TTok> {
        let tok = self.q.pop_front();
        if self.q.is_empty() {
            self.tail_after_data = false;
        }
        tok
    }
}

/// One step, decoded from a `u64` (the vendored proptest has no
/// `prop_oneof!`): 3:3:3:1 data / barrier / pop / drain, so queues fill far
/// enough to grow and wrap, barrier runs are long enough to chain, and the
/// drained-tail reset is exercised mid-sequence. Barrier levels are drawn
/// from Ω1..Ω4 so rising runs are common; the top nibble reaches Ω15.
fn decode(raw: u64, arity: usize) -> Option<TTok> {
    let payload = (raw >> 8) as u32;
    match raw % 10 {
        0..=2 => Some(tdata((0..arity as u32).map(|k| payload.wrapping_add(k)))),
        3..=5 if payload.is_multiple_of(16) => Some(tbar(15)),
        3..=5 => Some(tbar(1 + (payload % 4) as u8)),
        _ => None,
    }
}

/// Replays `steps` against a channel and a model in the same state,
/// comparing every storage-independent observable after each step and the
/// drained stream at the end.
fn check(chan: &mut Channel, mut model: Model, arity: usize, steps: &[u64]) {
    for (i, &raw) in steps.iter().enumerate() {
        match decode(raw, arity) {
            Some(tok) => {
                chan.push(tok.clone());
                model.push(tok);
            }
            None if raw % 10 == 9 => {
                let want: Vec<TTok> = std::mem::take(&mut model.q).into();
                model.tail_after_data = false;
                assert_eq!(chan.drain_all(), want, "step {i}: drained stream");
            }
            None => assert_eq!(chan.pop(), model.pop(), "step {i}: popped token"),
        }
        assert_eq!(chan.len(), model.q.len(), "step {i}: len");
        assert_eq!(chan.is_empty(), model.q.is_empty(), "step {i}: is_empty");
        assert_eq!(chan.total_pushed(), model.pushed, "step {i}: pushed");
        assert_eq!(
            chan.total_pushed_data(),
            model.pushed_data,
            "step {i}: pushed_data"
        );
    }
    let want: Vec<TTok> = model.q.into();
    assert_eq!(chan.drain_all(), want, "final drained stream");
    assert!(chan.is_empty(), "drain_all empties the channel");
}

/// A token as the single-word stream the SLTF reference speaks: a data
/// tuple becomes one digest word of its values.
fn digest(tok: &TTok) -> Token {
    match tok {
        Tok::Data(vals) => Tok::Data(Word(
            vals.iter()
                .fold(vals.len() as u32, |h, w| h.wrapping_mul(31) ^ w.0),
        )),
        Tok::Barrier(level) => Tok::Barrier(*level),
    }
}

/// The tensors a tuple stream decodes to at `dims`, and whether a partial
/// one is left pending.
fn decode_stream(toks: &[TTok], dims: u8) -> (Vec<Ragged>, bool) {
    let mut decoder = Decoder::new(dims);
    let mut tensors = Vec::new();
    for tok in toks {
        let done = decoder.push(digest(tok));
        tensors.extend(done.expect("no barrier exceeds the stream's dims"));
    }
    (tensors, decoder.has_pending())
}

/// Replays `steps` into `chan` — data tuples of `arity` words, barriers
/// Ω1..=Ω`dims` and, when `pops` is set, pops (4:4:2) — then closes the
/// stream with Ω`dims` and drains it. Returns what went in and what came
/// out, pops first.
fn replay(mut chan: Channel, arity: usize, dims: u8, steps: &[u64], pops: bool) -> [Vec<TTok>; 2] {
    let (mut input, mut output) = (Vec::new(), Vec::new());
    for &raw in steps {
        let payload = (raw >> 8) as u32;
        let tok = match raw % 10 {
            0..=3 => tdata((0..arity as u32).map(|k| payload.wrapping_add(k))),
            4..=7 => tbar(1 + (payload % u32::from(dims)) as u8),
            _ => {
                if pops {
                    output.extend(chan.pop());
                }
                continue;
            }
        };
        chan.push(tok.clone());
        input.push(tok);
    }
    chan.push(tbar(dims));
    input.push(tbar(dims));
    output.extend(chan.drain_all());
    [input, output]
}

fn steps() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Storage starts empty and grows by doubling under the push-heavy
    /// mix.
    #[test]
    fn unbounded_channel_matches_model(
        arity in 0usize..=16,
        canon in any::<bool>(),
        steps in steps(),
    ) {
        let chan = Channel::new(arity);
        let mut chan = if canon { chan } else { chan.without_canonicalization() };
        check(&mut chan, Model { canon, ..Model::default() }, arity, &steps);
    }

    /// The channel against the SLTF reference: whatever it absorbs, its
    /// output decodes to the same tensors as its input, with the same
    /// pending state. With no pop in between, a canonicalising channel
    /// emits exactly `canonicalize(input)`; a non-canonicalising one
    /// always emits its input.
    #[test]
    fn channel_output_is_the_reference_encoding(
        arity in 0usize..=2,
        dims in 1u8..=4,
        canon in any::<bool>(),
        steps in steps(),
    ) {
        let chan = || {
            let chan = Channel::new(arity);
            if canon { chan } else { chan.without_canonicalization() }
        };
        let [input, output] = replay(chan(), arity, dims, &steps, true);
        prop_assert_eq!(decode_stream(&output, dims), decode_stream(&input, dims));
        if !canon {
            prop_assert_eq!(&output, &input);
        }
        let [input, output] = replay(chan(), arity, dims, &steps, false);
        let input: Vec<Token> = input.iter().map(digest).collect();
        let want = if canon { canonicalize(input) } else { input };
        prop_assert_eq!(output.iter().map(digest).collect::<Vec<_>>(), want);
    }
}
