//! A graph's channel table, recycled between instances of one template.
//!
//! An instance's channels start as copies of its template's, and its run
//! grows every ring it uses from four slots to that channel's high-water
//! mark, one allocator call per doubling and lane — the same high-water
//! marks on every run of one program. [`ChanTable`] keeps them: a table
//! checked out of a template ([`ChanTable::checkout`], behind
//! [`crate::Graph::fresh_instance`]) goes back to the template's pool
//! ([`crate::pool`]) when the instance drops it, and the next checkout
//! resets each channel in place from the *current* template, ring storage
//! kept. The one-shot run's scheduler scratch (wake bitmaps, register
//! file, fused-edge tails) travels with the table, so a run on a recycled
//! table allocates neither.
//!
//! The DRAM image's rules, applied to the table:
//!
//! - **Template mutation retires the pool**: adding a channel or a node,
//!   and [`ChanTable::chan_mut`] on a template. The
//!   tables out at that moment are freed on return, not recycled.
//! - **Reset, not trust.** A table dropped after an error or an unwind,
//!   tokens still queued, is reset like any other: every field of every
//!   channel is copied from the template.
//! - **Debug builds check** every reset table against its template at
//!   checkout (queued tokens, class, canonicalisation, push
//!   counters), and poison the word slots of every table they return with
//!   [`POISON`]. Instances of one program now share ring storage, so the
//!   invariant that every push writes its whole window is what keeps them
//!   apart; a read of a slot no push has written shows up as the poison
//!   word in the differential suites.
//!
//! The table is a type of its own, not a `Drop` on [`crate::Graph`], so a
//! graph stays destructurable (an instance's memory moves out of it).

use crate::channel::Channel;
use crate::plan::ResumeState;
use crate::pool::{Home, PoolStats, Source};
use std::fmt;
use std::ops::Deref;

/// What a debug build writes into every word slot of a returned table.
#[cfg(debug_assertions)]
const POISON: revet_sltf::Word = revet_sltf::Word(0xDEAD_BEEF);

/// An idle table: the channels, ring storage kept, and the one-shot
/// scheduler scratch.
type Idle = (Vec<Channel>, ResumeState);

/// A graph's channels, plus the state that lets an instance's table be
/// recycled (module docs). Reads go through `Deref` to `[Channel]`.
#[derive(Default)]
pub(crate) struct ChanTable {
    chans: Vec<Channel>,
    /// The scheduler state of a run without a [`ResumeState`] of its own,
    /// restarted by each such run.
    pub(crate) one_shot: ResumeState,
    /// Tables checked out of *this* one come back here.
    pool: Source<Idle>,
    /// Where this table goes when dropped; dangling unless checked out.
    home: Home<Idle>,
}

impl ChanTable {
    /// Appends a channel (a template mutation).
    pub(crate) fn push(&mut self, chan: Channel) {
        self.retire();
        self.chans.push(chan);
    }

    /// One channel to change as a whole (a template mutation: a host feed,
    /// a new class, or a replacement of another arity).
    pub(crate) fn chan_mut(&mut self, i: usize) -> &mut Channel {
        self.retire();
        &mut self.chans[i]
    }

    /// The channels a run pushes to and pops from. Not a mutation of a
    /// template — a checkout resets every field from whatever the template
    /// holds — so the pool stays.
    pub(crate) fn run_mut(&mut self) -> &mut [Channel] {
        &mut self.chans
    }

    /// Retires the pool: the template is about to change (module docs).
    pub(crate) fn retire(&mut self) {
        self.pool.retire();
    }

    /// A private table equal to `self`: recycled from this template's pool
    /// and reset in place when one is idle, cloned otherwise.
    ///
    /// # Panics
    ///
    /// In debug builds, if a recycled table differs from `self` after the
    /// reset.
    pub(crate) fn checkout(&self) -> ChanTable {
        let ((chans, one_shot), home) = self.pool.checkout(
            |(chans, _)| {
                for (chan, template) in chans.iter_mut().zip(&self.chans) {
                    chan.reset_from(template);
                }
                #[cfg(debug_assertions)]
                self.assert_reset(chans);
                0
            },
            || (self.chans.clone(), ResumeState::new()),
        );
        ChanTable {
            chans,
            one_shot,
            pool: Source::default(),
            home,
        }
    }

    #[cfg(debug_assertions)]
    fn assert_reset(&self, chans: &[Channel]) {
        assert_eq!(
            chans.len(),
            self.chans.len(),
            "recycled channel table has the wrong length: the template \
             changed shape without retiring its pool"
        );
        if let Some(i) = (0..chans.len()).find(|&i| chans[i] != self.chans[i]) {
            panic!(
                "recycled channel table differs from its template at channel #{i}: \
                 {:?} != {:?}",
                chans[i], self.chans[i]
            );
        }
    }

    /// Counters of the pool behind [`ChanTable::checkout`] on this table.
    pub(crate) fn pool_stats(&self) -> PoolStats {
        self.pool.stats(|(chans, one_shot)| {
            chans.capacity() * std::mem::size_of::<Channel>()
                + chans.iter().map(Channel::storage_bytes).sum::<usize>()
                + one_shot.heap_bytes()
        })
    }
}

impl Deref for ChanTable {
    type Target = [Channel];

    #[inline]
    fn deref(&self) -> &[Channel] {
        &self.chans
    }
}

impl fmt::Debug for ChanTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.chans.fmt(f)
    }
}

impl Drop for ChanTable {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        for chan in &mut self.chans {
            chan.poison(POISON);
        }
        let idle = (
            std::mem::take(&mut self.chans),
            std::mem::take(&mut self.one_shot),
        );
        self.home.give_back(idle);
    }
}
