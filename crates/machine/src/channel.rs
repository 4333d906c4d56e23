//! On-chip links between streaming contexts.
//!
//! A [`Channel`] carries tuple tokens between two nodes. Its queue is one
//! [`Ring`] of arity-typed slab slots — a flat `Word` lane of `arity`
//! words per slot plus a one-byte tag lane (`0` = data, `1..=15` = Ωn) —
//! so a token in flight is a window into the slab, never a heap object:
//!
//! - **reading** is [`Channel::front`], a borrowed `Tok<&[Word]>`;
//! - **popping** is [`Channel::pop_front`], a head bump;
//! - **writing** is [`Channel::push_slot`], which opens the next slot and
//!   hands the producer its word window to fill in place (or
//!   [`Channel::push_data`], which copies a `&[Word]` in), and
//!   [`Channel::push_barrier`], which writes only the tag lane.
//!
//! That is the surface the firing rules ride (through [`crate::Ports`]).
//! Owned tokens ([`TTok`], a `Tok<Vec<Word>>`) exist only at the edges of
//! a graph, where a token has to outlive its slot: [`Channel::push`],
//! [`Channel::pop`], [`Channel::drain_all`] and [`Channel::tokens`]
//! convert for host feeds, the host's read of an output link, and tests.
//!
//! Channels know their bandwidth class (§III-C: a scalar link moves one
//! data element and one barrier per cycle; a vector link moves up to 16
//! data elements and one barrier) and opportunistically canonicalize
//! barrier sequences on push — an Ωm still queued at the tail is absorbed
//! by a pushed Ωn (n > m) when data directly preceded it, mirroring the
//! paper's "Ω2 implies an Ω1" encoding rule without ever *holding back* a
//! token (which could deadlock cyclic regions). The absorb is one store to
//! the tag lane.

use crate::ring::Ring;
use crate::tuple::TTok;
use revet_sltf::{BarrierLevel, Tok, Word};

/// Bandwidth class of a link (§III-C).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LinkClass {
    /// Up to 16 data elements + 1 barrier per cycle; costs vector buffers.
    #[default]
    Vector,
    /// 1 data element + 1 barrier per cycle; costs scalar buffers.
    Scalar,
}

impl LinkClass {
    /// Data elements the link can move per cycle.
    pub const fn width(self) -> usize {
        match self {
            LinkClass::Vector => 16,
            LinkClass::Scalar => 1,
        }
    }
}

/// An unbounded FIFO link between two streaming contexts.
///
/// Storage grows by doubling up to the high-water mark of the queue. A
/// channel has no depth of its own: under Kahn semantics buffer sizes
/// cannot change a result, so the untimed executor never bounds a link,
/// and the timed simulator states each link's buffer depth on the port
/// budgets it fires nodes with ([`crate::PortBudget::bound`]).
///
/// Equality compares the queued tokens and every setting and counter, not
/// the ring's storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// The queue; its slot width is this edge's tuple arity.
    queue: Ring,
    /// Bandwidth class used by the timed simulator and resource accounting.
    pub class: LinkClass,
    /// Opportunistic barrier canonicalization on push (see module docs);
    /// the plan reads it too, so only
    /// [`Channel::without_canonicalization`] clears it.
    canonicalize: bool,
    /// Whether the token pushed immediately before the current tail barrier
    /// was a data token (tracked for the canonicalization rule).
    tail_preceded_by_data: bool,
    /// Total tokens ever pushed (for statistics).
    pushed: u64,
    /// Total data tokens ever pushed.
    pushed_data: u64,
}

impl Default for Channel {
    fn default() -> Self {
        Channel::new(1)
    }
}

impl Channel {
    /// Creates an unbounded vector channel of the given tuple arity.
    pub fn new(arity: usize) -> Self {
        Channel {
            queue: Ring::new(arity),
            class: LinkClass::Vector,
            canonicalize: true,
            tail_preceded_by_data: false,
            pushed: 0,
            pushed_data: 0,
        }
    }

    /// Sets the bandwidth class (builder style).
    pub fn with_class(mut self, class: LinkClass) -> Self {
        self.class = class;
        self
    }

    /// Disables push-side canonicalization (used on loop backedges, where the
    /// protocol wants to observe the explicit barrier sequence).
    pub fn without_canonicalization(mut self) -> Self {
        self.canonicalize = false;
        self
    }

    /// Whether a pushed barrier may absorb the one at the tail (see module
    /// docs).
    #[inline]
    pub fn canonicalizes(&self) -> bool {
        self.canonicalize
    }

    /// Number of live values per tuple (physical link count of this edge);
    /// fixed for the channel's lifetime, since it is the slab's slot width.
    #[inline]
    pub fn arity(&self) -> usize {
        self.queue.arity()
    }

    /// Tokens currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no tokens are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The token at the front, if any: a window into the slab.
    #[inline]
    pub fn front(&self) -> Option<Tok<&[Word]>> {
        self.queue.front()
    }

    /// How many of the queued tokens at the front are data, counting at
    /// most `max`: the threads a lane-batched commit may take.
    #[inline]
    pub fn data_streak(&self, max: usize) -> usize {
        self.queue.data_streak(max)
    }

    /// Pops the `n` data tokens at the front, handing each one's words to
    /// `f` with its position ([`crate::Ring::pop_streak`]).
    #[inline]
    pub fn pop_streak(&mut self, n: usize, f: impl FnMut(usize, &[Word])) {
        self.queue.pop_streak(n, f);
        if self.queue.is_empty() {
            self.tail_preceded_by_data = false;
        }
    }

    /// Appends `n` data tokens of `width` words, handing `f` each one's
    /// window to fill: `n` [`Channel::push_slot`]s.
    ///
    /// # Panics
    ///
    /// As [`Channel::push_slot`].
    #[inline]
    pub fn push_streak(&mut self, width: usize, n: usize, f: impl FnMut(usize, &mut [Word])) {
        assert_eq!(
            width,
            self.arity(),
            "tuple arity mismatch on channel (expected {}, got {width})",
            self.arity(),
        );
        self.pushed += n as u64;
        self.pushed_data += n as u64;
        self.queue.push_streak(n, f);
    }

    /// Drops the front token, returning its kind (data, or which barrier);
    /// read the payload through [`Channel::front`] first.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Tok<()>> {
        let kind = self.queue.pop_front();
        if self.queue.is_empty() {
            // The canonicalization tail context is gone once drained.
            self.tail_preceded_by_data = false;
        }
        kind
    }

    /// Pops the front token as an owned [`TTok`].
    pub fn pop(&mut self) -> Option<TTok> {
        let tok = self.front()?.map(<[Word]>::to_vec);
        self.pop_front();
        Some(tok)
    }

    /// Appends a data token of `width` words and returns its window for
    /// the caller to fill in place (every word: the slot is recycled).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not the channel's arity, in every build
    /// profile: a wrong-width tuple would otherwise land in its
    /// neighbour's slot.
    #[inline]
    pub fn push_slot(&mut self, width: usize) -> &mut [Word] {
        assert_eq!(
            width,
            self.arity(),
            "tuple arity mismatch on channel (expected {}, got {width})",
            self.arity(),
        );
        self.pushed += 1;
        self.pushed_data += 1;
        self.queue.push_slot()
    }

    /// Appends a data token copied from `vals`.
    ///
    /// # Panics
    ///
    /// As [`Channel::push_slot`].
    #[inline]
    pub fn push_data(&mut self, vals: &[Word]) {
        self.push_slot(vals.len()).copy_from_slice(vals);
    }

    /// Appends the barrier Ω`level`, applying opportunistic
    /// canonicalization.
    #[inline]
    pub fn push_barrier(&mut self, level: BarrierLevel) {
        let tail = self.queue.back();
        let after_data = matches!(tail, Some(Tok::Data(_)));
        if let (true, Some(Tok::Barrier(tail))) = (self.canonicalize, tail) {
            if tail < level && self.tail_preceded_by_data {
                // Ω(tail) is implied by Ω(level) after data: absorb. No
                // token is added, and `tail_preceded_by_data` stays true:
                // the chain rule lets x Ω1 Ω2 Ω3 collapse to x Ω3.
                self.queue.retag_back(level);
                return;
            }
        }
        // The new tail is this barrier; record whether data directly
        // precedes it in the stream (the canonicalization condition).
        self.tail_preceded_by_data = after_data;
        self.pushed += 1;
        self.queue.push_barrier(level);
    }

    /// Pushes an owned token ([`Channel::push_data`] or
    /// [`Channel::push_barrier`]).
    ///
    /// # Panics
    ///
    /// As [`Channel::push_data`].
    pub fn push(&mut self, tok: TTok) {
        match tok {
            Tok::Data(vals) => self.push_data(&vals),
            Tok::Barrier(level) => self.push_barrier(level),
        }
    }

    /// Total tokens pushed over the channel's lifetime (after
    /// canonicalization absorbed implied barriers). A fused edge of the
    /// execution plan is never written, so its count stays zero under
    /// [`crate::Graph::run`].
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total data tokens pushed over the channel's lifetime.
    pub fn total_pushed_data(&self) -> u64 {
        self.pushed_data
    }

    /// The queued tokens, copied out without popping: a look at a link no
    /// node consumes, leaving it as it is.
    pub fn tokens(&self) -> Vec<TTok> {
        (0..self.len())
            .filter_map(|i| self.queue.get(i))
            .map(|tok| tok.map(<[Word]>::to_vec))
            .collect()
    }

    /// Pops every queued token into a vector: how the host reads an
    /// output link, so a delivered token leaves the link.
    pub fn drain_all(&mut self) -> Vec<TTok> {
        std::iter::from_fn(|| self.pop()).collect()
    }

    /// Bytes of the queued tokens — per-session memory accounting for
    /// paused streaming instances: `arity` words and one tag byte each.
    pub fn resident_bytes(&self) -> usize {
        self.len() * (self.arity() * std::mem::size_of::<Word>() + 1)
    }

    /// Makes `self` equal to `template` while keeping its ring storage —
    /// the reset of a recycled channel table, whatever its last user left
    /// queued.
    pub(crate) fn reset_from(&mut self, template: &Channel) {
        let Channel {
            queue,
            class,
            canonicalize,
            tail_preceded_by_data,
            pushed,
            pushed_data,
        } = template;
        self.queue.reset_from(queue);
        self.class = *class;
        self.canonicalize = *canonicalize;
        self.tail_preceded_by_data = *tail_preceded_by_data;
        self.pushed = *pushed;
        self.pushed_data = *pushed_data;
    }

    /// Heap bytes of the ring's storage, queued or not (what an idle
    /// channel table retains).
    pub(crate) fn storage_bytes(&self) -> usize {
        self.queue.storage_bytes()
    }

    /// Overwrites every slot's words with `word` (see [`Ring::poison`]).
    #[cfg(debug_assertions)]
    pub(crate) fn poison(&mut self, word: Word) {
        self.queue.poison(word);
    }
}

/// Moves the front token of `chans[src]` to the back of `chans[dst]`, slab
/// to slab.
///
/// # Panics
///
/// Panics if `chans[src]` is empty.
#[inline]
pub(crate) fn transfer(chans: &mut [Channel], src: usize, dst: usize) {
    let Ok([from, to]) = chans.get_disjoint_mut([src, dst]) else {
        // A self-loop link: the token leaves the front and rejoins the
        // back of the same ring, so it has to exist in between.
        let tok = chans[src].pop().expect("transfer from an empty channel");
        chans[src].push(tok);
        return;
    };
    match from.front().expect("transfer from an empty channel") {
        Tok::Data(vals) => to.push_data(vals),
        Tok::Barrier(level) => to.push_barrier(level),
    }
    from.pop_front();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{tbar, tdata};

    #[test]
    fn fifo_order() {
        let mut c = Channel::new(1);
        c.push(tdata([1u32]));
        c.push(tdata([2u32]));
        assert_eq!(c.pop(), Some(tdata([1u32])));
        assert_eq!(c.pop(), Some(tdata([2u32])));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn canonicalizes_implied_barrier_after_data() {
        let mut c = Channel::new(1);
        c.push(tdata([1u32]));
        c.push(tbar(1));
        c.push(tbar(2));
        assert_eq!(c.drain_all(), vec![tdata([1u32]), tbar(2)]);
    }

    #[test]
    fn keeps_barrier_without_preceding_data() {
        let mut c = Channel::new(1);
        c.push(tbar(1));
        c.push(tbar(2));
        assert_eq!(c.drain_all(), vec![tbar(1), tbar(2)]);
    }

    #[test]
    fn keeps_equal_level_barriers() {
        let mut c = Channel::new(1);
        c.push(tdata([1u32]));
        c.push(tbar(1));
        c.push(tbar(1));
        assert_eq!(c.drain_all(), vec![tdata([1u32]), tbar(1), tbar(1)]);
    }

    #[test]
    fn chain_rule_collapses_runs() {
        let mut c = Channel::new(1);
        c.push(tdata([1u32]));
        c.push(tbar(1));
        c.push(tbar(2));
        c.push(tbar(3));
        assert_eq!(c.drain_all(), vec![tdata([1u32]), tbar(3)]);
    }

    #[test]
    fn no_merge_across_consumed_tail() {
        let mut c = Channel::new(1);
        c.push(tdata([1u32]));
        c.push(tbar(1));
        // Consumer drains everything…
        assert!(c.pop().is_some());
        assert!(c.pop().is_some());
        // …then a higher barrier arrives; nothing to absorb.
        c.push(tbar(2));
        assert_eq!(c.drain_all(), vec![tbar(2)]);
    }

    #[test]
    fn disabled_canonicalization() {
        let mut c = Channel::new(1).without_canonicalization();
        c.push(tdata([1u32]));
        c.push(tbar(1));
        c.push(tbar(2));
        assert_eq!(c.drain_all(), vec![tdata([1u32]), tbar(1), tbar(2)]);
    }

    #[test]
    fn capacity_one_channel_cycles() {
        // One token at a time, filled and drained repeatedly (the ring
        // wraps many times without reallocating).
        let mut c = Channel::new(1);
        for i in 0..100u32 {
            c.push(tdata([i]));
            assert_eq!(c.len(), 1);
            assert_eq!(c.pop(), Some(tdata([i])));
            assert!(c.is_empty());
        }
        assert_eq!(c.total_pushed(), 100);
    }

    #[test]
    fn bounded_channel_wraparound_preserves_order() {
        let mut c = Channel::new(1);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        // Keep the queue at 2/3 while head orbits the ring storage.
        c.push(tdata([next_in]));
        next_in += 1;
        c.push(tdata([next_in]));
        next_in += 1;
        for _ in 0..500 {
            c.push(tdata([next_in]));
            next_in += 1;
            assert_eq!(c.len(), 3);
            assert_eq!(c.pop(), Some(tdata([next_out])));
            next_out += 1;
        }
        assert_eq!(
            c.drain_all(),
            vec![tdata([next_out]), tdata([next_out + 1])]
        );
    }

    #[test]
    fn canonicalization_survives_wraparound() {
        // The absorb rule pops the ring's back slot; exercise it after the
        // ring has wrapped.
        let mut c = Channel::new(1);
        for i in 0..10u32 {
            c.push(tdata([i]));
            assert!(c.pop().is_some());
        }
        c.push(tdata([99u32]));
        c.push(tbar(1));
        c.push(tbar(2));
        assert_eq!(c.drain_all(), vec![tdata([99u32]), tbar(2)]);
    }

    #[test]
    fn stats_count_canonicalized_pushes_once() {
        let mut c = Channel::new(1);
        c.push(tdata([1u32]));
        c.push(tbar(1));
        c.push(tbar(2)); // absorbs Ω1
        assert_eq!(c.total_pushed(), 2);
        assert_eq!(c.total_pushed_data(), 1);
    }
}
