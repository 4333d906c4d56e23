//! Property tests for [`Ring`], the slab queue under every channel: random
//! push/pop/retag interleavings at slot widths 0..=8, on rings grown to
//! hold 1..64 tokens and on empty ones, must behave exactly like a `VecDeque` of owned tokens, across
//! wraparound (head chasing its own tail) and grow-on-full doublings — in
//! particular, no word window may bleed into a neighbouring slot.

use proptest::prelude::*;
use revet_machine::Ring;
use revet_sltf::{BarrierLevel, Tok, Word};
use std::collections::VecDeque;

type Owned = Tok<Vec<Word>>;

/// One step of the interleaving. Weighted toward pushes so runs actually
/// fill the ring and force a grow; `RetagBack` is the in-place tail
/// rewrite barrier canonicalization makes.
#[derive(Clone, Debug)]
enum Step {
    PushData(u32),
    PushBarrier(BarrierLevel),
    PopFront,
    RetagBack(BarrierLevel),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // 3:1:2:1 data/barrier/pop-front/retag, decoded from one u64 (the
    // vendored proptest has no `prop_oneof!`): high bits pick the variant,
    // low 32 bits are the pushed value or the level.
    any::<u64>().prop_map(|raw| {
        let level = BarrierLevel::of(1 + (raw % 15) as u8);
        match (raw >> 32) % 7 {
            0..=2 => Step::PushData(raw as u32),
            3 => Step::PushBarrier(level),
            4..=5 => Step::PopFront,
            _ => Step::RetagBack(level),
        }
    })
}

/// The `arity` words a data token pushed with seed `v` carries.
fn payload(arity: usize, v: u32) -> Vec<Word> {
    (0..arity as u32).map(|k| Word(v.wrapping_add(k))).collect()
}

fn view(tok: &Owned) -> Tok<&[Word]> {
    match tok {
        Tok::Data(vals) => Tok::Data(vals),
        Tok::Barrier(level) => Tok::Barrier(*level),
    }
}

/// A ring already grown to hold `cap` tokens, head left at `cap` modulo
/// its storage: what a recycled channel table hands its next run.
fn grown(arity: usize, cap: usize) -> Ring {
    let mut ring = Ring::new(arity);
    for _ in 0..cap {
        ring.push_barrier(BarrierLevel::of(1));
    }
    for _ in 0..cap {
        ring.pop_front();
    }
    ring
}

/// Replays `steps` against both the ring and the model, checking every
/// observable (popped kinds, len, front/back, full indexed contents) after
/// each step, and the drain order at the end.
fn check(mut ring: Ring, steps: &[Step]) {
    let arity = ring.arity();
    let mut model: VecDeque<Owned> = VecDeque::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::PushData(v) => {
                ring.push_slot().copy_from_slice(&payload(arity, *v));
                model.push_back(Tok::Data(payload(arity, *v)));
            }
            Step::PushBarrier(level) => {
                ring.push_barrier(*level);
                model.push_back(Tok::Barrier(*level));
            }
            Step::PopFront => {
                let want = model.pop_front().map(|tok| tok.map(|_| ()));
                assert_eq!(ring.pop_front(), want, "step {i}");
            }
            Step::RetagBack(level) => {
                if let Some(back) = model.back_mut() {
                    ring.retag_back(*level);
                    *back = Tok::Barrier(*level);
                }
            }
        }
        assert_eq!(ring.len(), model.len(), "step {i}: len diverged");
        assert_eq!(ring.is_empty(), model.is_empty(), "step {i}");
        assert_eq!(
            ring.front(),
            model.front().map(view),
            "step {i}: front diverged"
        );
        assert_eq!(
            ring.back(),
            model.back().map(view),
            "step {i}: back diverged"
        );
        assert!(
            ring.slots() >= ring.len(),
            "step {i}: len {} exceeds storage {}",
            ring.len(),
            ring.slots()
        );
        for k in 0..=model.len() {
            assert_eq!(
                ring.get(k),
                model.get(k).map(view),
                "step {i}: token {k} diverged after wraparound/grow"
            );
        }
    }
    for want in model {
        assert_eq!(ring.front(), Some(view(&want)), "drain order diverged");
        ring.pop_front();
    }
    assert!(ring.is_empty(), "draining must empty the ring");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rings grown to hold 1..64 tokens under random interleavings long
    /// enough to wrap head past the storage boundary many times and to
    /// overflow the grown storage (grow-on-full).
    #[test]
    fn presized_ring_matches_vecdeque(
        arity in 0usize..=8,
        cap in 1usize..64,
        steps in prop::collection::vec(step_strategy(), 0..200),
    ) {
        check(grown(arity, cap), &steps);
    }

    /// A `Ring::new()` ring starts with zero storage — the first push
    /// allocates — and must satisfy the same model.
    #[test]
    fn unsized_ring_matches_vecdeque(
        arity in 0usize..=8,
        steps in prop::collection::vec(step_strategy(), 0..200),
    ) {
        check(Ring::new(arity), &steps);
    }

    /// A grown ring keeps its storage: pushing as many tokens as it once
    /// held never changes `slots()`, and alternating pop-front/push at
    /// that occupancy (steady-state channel traffic) keeps wrapping
    /// without growing.
    #[test]
    fn bounded_fill_and_steady_state_never_reallocate(
        arity in 0usize..=8,
        cap in 1usize..64,
        traffic in prop::collection::vec(any::<u32>(), 0..150),
    ) {
        let mut ring = grown(arity, cap);
        let fixed = ring.slots();
        prop_assert!(fixed >= cap);
        let mut model: VecDeque<Vec<Word>> = VecDeque::new();
        for v in 0..cap as u32 {
            ring.push_slot().copy_from_slice(&payload(arity, v));
            model.push_back(payload(arity, v));
        }
        prop_assert_eq!(ring.slots(), fixed, "refilling to cap grew the ring");
        for (i, v) in traffic.iter().enumerate() {
            let want = model.pop_front().expect("model stays full");
            prop_assert_eq!(ring.front(), Some(Tok::Data(&want[..])), "step {}", i);
            ring.pop_front();
            ring.push_slot().copy_from_slice(&payload(arity, *v));
            model.push_back(payload(arity, *v));
            prop_assert_eq!(ring.slots(), fixed, "steady state grew the ring");
            prop_assert_eq!(ring.back(), model.back().map(|b| Tok::Data(&b[..])), "step {}", i);
        }
        prop_assert_eq!(ring.len(), model.len());
    }
}
