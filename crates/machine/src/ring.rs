//! The channel queue: a power-of-two ring of arity-typed slab slots.
//!
//! A logical edge's width is fixed at compile time (§II b, §III-B c: one
//! physical link per live value, consumed in lockstep), so a queued token
//! needs no container of its own. A [`Ring`] of arity `a` with `n` slots
//! is two flat lanes over one mask ring:
//!
//! ```text
//! words: | slot 0: a words | slot 1: a words | … | slot n-1 |   n × a words
//! tags:  |   t0   |   t1   | … |  t(n-1)  |                     n bytes
//! ```
//!
//! Slot `s` holds the token whose tag is `tags[s]`: `0` is a data token
//! whose live values are `words[s·a .. (s+1)·a]`; `1..=15` is the barrier
//! Ωn, whose word window is unused. The queued token `i` (0 = front) lives
//! in slot `(head + i) & (n - 1)`. A token is read as a borrowed window
//! (`Tok<&[Word]>`), popped by bumping `head`, and written in place into
//! the window [`Ring::push_slot`] opens — no per-token allocation, and an
//! arity-0 ring (void tokens) is simply a zero-width word lane.
//!
//! `n` is zero or a power of two, so indexing is a mask. Storage starts
//! empty and doubles when full, so a channel costs allocator calls only
//! for its high-water mark.

use revet_sltf::{BarrierLevel, Tok, Word};

/// The tag of a data slot (barrier slots carry their level, `1..=15`).
const DATA: u8 = 0;

/// A growable FIFO of fixed-width tokens over power-of-two slab storage.
///
/// Invariants: `tags.len()` is zero or a power of two; `words.len() ==
/// tags.len() * arity`; `len <= tags.len()`; `head < tags.len()` unless
/// both are zero.
#[derive(Clone, Debug)]
pub struct Ring {
    words: Vec<Word>,
    tags: Vec<u8>,
    arity: usize,
    head: usize,
    len: usize,
}

impl Ring {
    const MIN_POW2: usize = 4;

    /// An empty ring of `arity`-word slots with no storage (the first push
    /// allocates).
    pub fn new(arity: usize) -> Self {
        Ring {
            words: Vec::new(),
            tags: Vec::new(),
            arity,
            head: 0,
            len: 0,
        }
    }

    /// Words per data token.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Tokens currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots of storage: the tokens it holds before the next
    /// reallocation.
    pub fn slots(&self) -> usize {
        self.tags.len()
    }

    /// The slot of queued token `i`; meaningful only with storage.
    #[inline]
    fn slot_of(&self, i: usize) -> usize {
        (self.head + i) & self.tags.len().wrapping_sub(1)
    }

    /// Doubles storage. The tokens that wrapped around, if any, occupy
    /// slots `0..head`: moving them past the old end makes the queue
    /// contiguous from `head` again (short of full, some empty slots move
    /// with them).
    #[cold]
    fn grow(&mut self) {
        let old = self.tags.len();
        let new = (old * 2).max(Self::MIN_POW2);
        self.tags.resize(new, DATA);
        self.words.resize(new * self.arity, Word::ZERO);
        self.tags.copy_within(..self.head, old);
        self.words
            .copy_within(..self.head * self.arity, old * self.arity);
    }

    /// Claims the slot behind the back for a token tagged `tag`.
    #[inline]
    fn open(&mut self, tag: u8) -> usize {
        if self.len == self.tags.len() {
            self.grow();
        }
        let slot = self.slot_of(self.len);
        self.tags[slot] = tag;
        self.len += 1;
        slot
    }

    /// Appends a data token and returns its word window for the caller to
    /// fill; the window holds whatever the slot's last tenant left.
    #[inline]
    pub fn push_slot(&mut self) -> &mut [Word] {
        let slot = self.open(DATA);
        &mut self.words[slot * self.arity..(slot + 1) * self.arity]
    }

    /// Appends the barrier Ω`level`.
    #[inline]
    pub fn push_barrier(&mut self, level: BarrierLevel) {
        self.open(level.get());
    }

    /// Replaces the back token with the barrier Ω`level` in place (barrier
    /// canonicalization absorbs the queued tail).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn retag_back(&mut self, level: BarrierLevel) {
        assert!(self.len > 0, "retag_back on an empty ring");
        let slot = self.slot_of(self.len - 1);
        self.tags[slot] = level.get();
    }

    /// Removes the front token, returning its kind — the payload is gone;
    /// read it through [`Ring::front`] first.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Tok<()>> {
        let kind = self.front()?.map(|_| ());
        self.head = self.slot_of(1);
        self.len -= 1;
        Some(kind)
    }

    /// The token `i` positions behind the front, if present.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Tok<&[Word]>> {
        if i >= self.len {
            return None;
        }
        let slot = self.slot_of(i);
        Some(match BarrierLevel::new(self.tags[slot]) {
            Some(level) => Tok::Barrier(level),
            None => Tok::Data(&self.words[slot * self.arity..(slot + 1) * self.arity]),
        })
    }

    /// Removes the `n` tokens at the front, all data, handing each one's
    /// words to `f` with its position: a counted [`Ring::data_streak`]
    /// popped in one head bump.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` tokens are queued; debug builds also check
    /// that each is data.
    #[inline]
    pub fn pop_streak(&mut self, n: usize, mut f: impl FnMut(usize, &[Word])) {
        assert!(n <= self.len, "popping {n} of {} tokens", self.len);
        for k in 0..n {
            let slot = self.slot_of(k);
            debug_assert_eq!(self.tags[slot], DATA, "a streak holds data only");
            f(k, &self.words[slot * self.arity..(slot + 1) * self.arity]);
        }
        if n > 0 {
            self.head = self.slot_of(n);
            self.len -= n;
        }
    }

    /// Appends `n` data tokens, handing `f` each one's window (with its
    /// position) to fill, as `n` [`Ring::push_slot`]s would.
    #[inline]
    pub fn push_streak(&mut self, n: usize, mut f: impl FnMut(usize, &mut [Word])) {
        while self.len + n > self.tags.len() {
            self.grow();
        }
        for k in 0..n {
            let slot = self.slot_of(self.len + k);
            self.tags[slot] = DATA;
            f(
                k,
                &mut self.words[slot * self.arity..(slot + 1) * self.arity],
            );
        }
        self.len += n;
    }

    /// How many of the tokens at the front are data, counting at most
    /// `max`.
    #[inline]
    pub fn data_streak(&self, max: usize) -> usize {
        (0..self.len.min(max))
            .take_while(|&i| self.tags[self.slot_of(i)] == DATA)
            .count()
    }

    /// The front token, if any.
    #[inline]
    pub fn front(&self) -> Option<Tok<&[Word]>> {
        self.get(0)
    }

    /// The back token, if any.
    #[inline]
    pub fn back(&self) -> Option<Tok<&[Word]>> {
        self.get(self.len.wrapping_sub(1))
    }

    /// Makes `self` hold exactly `template`'s tokens, keeping its own
    /// storage (a recycled channel table's reset; the two share an arity,
    /// which only a retiring mutation could change): nothing is allocated
    /// unless `template` queues more tokens than `self` has slots.
    pub(crate) fn reset_from(&mut self, template: &Ring) {
        (self.head, self.len) = (0, 0);
        for tok in (0..template.len).filter_map(|i| template.get(i)) {
            match tok {
                Tok::Data(vals) => self.push_slot().copy_from_slice(vals),
                Tok::Barrier(level) => self.push_barrier(level),
            }
        }
    }

    /// Heap bytes of the storage, queued or not.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<Word>() + self.tags.capacity()
    }

    /// Overwrites every word slot with `word`, so a read of a slot no push
    /// has written since shows.
    #[cfg(debug_assertions)]
    pub(crate) fn poison(&mut self, word: Word) {
        self.words.fill(word);
    }
}

/// Equality of the queued tokens, in order; storage size and slot
/// positions are not compared.
impl PartialEq for Ring {
    fn eq(&self, other: &Ring) -> bool {
        self.arity == other.arity
            && self.len == other.len
            && (0..self.len).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for Ring {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-word ring of `u32`s, the shape the old generic tests used.
    fn push(r: &mut Ring, v: u32) {
        r.push_slot()[0] = Word(v);
    }

    fn front(r: &Ring) -> Option<u32> {
        r.front().and_then(|t| t.into_data()).map(|d| d[0].0)
    }

    fn pop(r: &mut Ring) -> Option<u32> {
        let v = front(r);
        r.pop_front();
        v
    }

    fn drain(r: &mut Ring) -> Vec<u32> {
        std::iter::from_fn(|| pop(r)).collect()
    }

    #[test]
    fn starts_empty_without_storage() {
        let mut r = Ring::new(3);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.slots(), 0);
        assert_eq!(r.front(), None);
        assert_eq!(r.back(), None);
        assert_eq!(r.get(0), None);
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn fifo_order_with_growth() {
        let mut r = Ring::new(1);
        for i in 0..100u32 {
            push(&mut r, i);
        }
        assert_eq!(r.len(), 100);
        assert!(r.slots().is_power_of_two());
        for i in 0..100u32 {
            assert_eq!(front(&r), Some(i));
            assert_eq!(pop(&mut r), Some(i));
        }
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn wraparound_across_many_cycles() {
        // Interleave pushes and pops so head orbits the storage repeatedly
        // without ever growing past the first allocation.
        let mut r = Ring::new(1);
        push(&mut r, u32::MAX);
        r.pop_front();
        let cap = r.slots();
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for _ in 0..1000 {
            push(&mut r, next_in);
            push(&mut r, next_in + 1);
            next_in += 2;
            assert_eq!(pop(&mut r), Some(next_out));
            assert_eq!(pop(&mut r), Some(next_out + 1));
            next_out += 2;
        }
        assert!(r.is_empty());
        assert_eq!(r.slots(), cap, "steady-state traffic must not grow");
    }

    #[test]
    fn full_and_empty_boundaries() {
        let mut r = Ring::new(1);
        for i in 0..4u32 {
            push(&mut r, i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.slots(), 4, "the first allocation holds four");
        // One more forces a doubling, preserving order.
        push(&mut r, 4);
        assert_eq!(r.slots(), 8);
        assert_eq!(drain(&mut r), vec![0, 1, 2, 3, 4]);
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_one_semantics() {
        // MIN_POW2 keeps physical storage ≥ 4, but logical single-slot use
        // (push, pop, push …) must behave like a 1-deep FIFO.
        let mut r = Ring::new(1);
        for i in 0..10u32 {
            push(&mut r, i);
            assert_eq!(r.len(), 1);
            assert_eq!(front(&r), Some(i));
            assert_eq!(r.back(), r.front());
            assert_eq!(pop(&mut r), Some(i));
            assert!(r.is_empty());
        }
    }

    #[test]
    fn retag_back_and_indexing() {
        let word = |v: u32| [Word(v)];
        let mut r = Ring::new(1);
        push(&mut r, 1);
        push(&mut r, 2);
        r.push_barrier(BarrierLevel::L1);
        assert_eq!(r.get(0), Some(Tok::Data(&word(1)[..])));
        assert_eq!(r.get(1), Some(Tok::Data(&word(2)[..])));
        assert_eq!(r.get(2), Some(Tok::Barrier(BarrierLevel::L1)));
        assert_eq!(r.get(3), None);
        r.retag_back(BarrierLevel::L3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.back(), Some(Tok::Barrier(BarrierLevel::L3)));
        assert_eq!(r.pop_front(), Some(Tok::Data(())));
        assert_eq!(r.pop_front(), Some(Tok::Data(())));
        assert_eq!(r.pop_front(), Some(Tok::Barrier(BarrierLevel::L3)));
    }

    #[test]
    fn data_streak_counts_front_data_across_the_wrap() {
        let mut r = Ring::new(1);
        assert_eq!(r.data_streak(64), 0);
        for i in 0..4u32 {
            push(&mut r, i);
        }
        r.pop_front();
        r.pop_front();
        push(&mut r, 4);
        push(&mut r, 5); // head in the middle: the streak wraps
        assert_eq!((r.data_streak(64), r.data_streak(3)), (4, 3));
        r.push_barrier(BarrierLevel::L1);
        push(&mut r, 6);
        assert_eq!(r.data_streak(64), 4, "a barrier ends the streak");
        while r.front().is_some_and(|t| t.is_data()) {
            r.pop_front();
        }
        assert_eq!(r.data_streak(64), 0, "a barrier at the front");
    }

    #[test]
    fn growth_repacks_wrapped_contents() {
        let mut r = Ring::new(1);
        // Wrap head partway around, then force a grow with a wrapped layout.
        for i in 0..4u32 {
            push(&mut r, i);
        }
        r.pop_front();
        r.pop_front();
        push(&mut r, 4);
        push(&mut r, 5); // storage full again, head in the middle
        push(&mut r, 6); // grow
        assert_eq!(drain(&mut r), vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn wide_and_void_slots_keep_their_windows() {
        // Arity 3: windows must not bleed into their neighbours across a
        // wrapped grow. Arity 0: a zero-width lane still queues tokens.
        let mut wide = Ring::new(3);
        for i in 0..4u32 {
            wide.push_slot()
                .copy_from_slice(&[Word(i), Word(10 + i), Word(20 + i)]);
        }
        wide.pop_front();
        wide.push_barrier(BarrierLevel::L2);
        wide.push_slot()
            .copy_from_slice(&[Word(4), Word(14), Word(24)]); // grows, wrapped
        for i in 1..4u32 {
            let want = [Word(i), Word(10 + i), Word(20 + i)];
            assert_eq!(wide.front(), Some(Tok::Data(&want[..])));
            wide.pop_front();
        }
        assert_eq!(wide.pop_front(), Some(Tok::Barrier(BarrierLevel::L2)));
        assert_eq!(
            wide.front(),
            Some(Tok::Data(&[Word(4), Word(14), Word(24)][..]))
        );

        let mut void = Ring::new(0);
        for _ in 0..9 {
            assert!(void.push_slot().is_empty());
        }
        assert_eq!(void.len(), 9);
        assert_eq!(void.front(), Some(Tok::Data(&[][..])));
    }
}
