//! The per-template recycling pool behind every instance checkout.
//!
//! The paper's thread allocator (§V-B a, quoted in [`crate::mem`]) never
//! allocates a buffer: allocation "pops a pointer from this queue and
//! deallocation pushes it back". An instance of a compiled graph applies
//! that rule to the two parts of its state that are big or grown: the DRAM
//! image ([`crate::Dram`]) and the channel table with the one-shot
//! scheduler scratch ([`crate::Graph::fresh_instance`]). Both recycle
//! through this one pool, under the same rules:
//!
//! - The template holds a [`Source`]. Its first checkout creates the pool;
//!   any mutation of the template *retires* it ([`Source::retire`]).
//! - A checked-out item holds a [`Home`], a [`Weak`] to the pool it came
//!   from. Dropping the item gives it back, where it is kept while the
//!   pool still exists and holds fewer than [`POOL_IMAGES`] idle items, and
//!   freed otherwise — so items out while the template changed are never
//!   recycled against a template that no longer exists.
//! - A checkout pops an idle item and has its owner reset it in place from
//!   the *current* template (a hit), or builds a fresh copy (a miss).
//!   Owners reset whatever state the item's last user left, including an
//!   error return or an unwind, and debug builds compare every reset item
//!   with its template.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Most idle items (DRAM images, channel tables) one template's pool
/// retains; an item returned beyond that is freed. Four is what the
/// default server runs of one program at once on the smallest host it is
/// tuned for (2 executors × 2 batch threads); a wider batch still recycles
/// four and copies the rest, as every instance did before. Bounds the idle
/// images a live compiled program pins at `POOL_IMAGES × dram_bytes` (16
/// MiB at the apps' 4 MiB image), on top of its own image if that is
/// backed (see [`crate::Dram`]), and its idle channel tables at
/// `POOL_IMAGES` high-water marks of its rings.
pub const POOL_IMAGES: usize = 4;

/// Counters of one template's pool, from [`crate::Dram::pool_stats`] or
/// [`crate::Graph::chan_pool_stats`]. All zero until the first checkout,
/// and again after the template is mutated (the pool is retired).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by resetting a recycled item.
    pub hits: u64,
    /// Checkouts that had to copy the whole template.
    pub misses: u64,
    /// DRAM pages restored from the template over all hits (a channel
    /// table's reset is not counted in pages: zero there).
    pub reset_pages: u64,
    /// Bytes of idle items the pool holds right now (≤ [`POOL_IMAGES`]
    /// items).
    pub retained_bytes: u64,
}

impl PoolStats {
    /// Adds `other`'s counters into `self` (a server sums its programs).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.reset_pages += other.reset_pages;
        self.retained_bytes += other.retained_bytes;
    }
}

struct Pool<T> {
    free: Mutex<Vec<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    reset_pages: AtomicU64,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reset_pages: AtomicU64::new(0),
        }
    }
}

impl<T> Pool<T> {
    /// The free list is only ever pushed to or popped from under the
    /// lock, so it is valid even if a holder panicked.
    fn free(&self) -> MutexGuard<'_, Vec<T>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A template's side of the pool: where its checkouts come from.
pub(crate) struct Source<T>(OnceLock<Arc<Pool<T>>>);

impl<T> Default for Source<T> {
    fn default() -> Self {
        Source(OnceLock::new())
    }
}

impl<T> Source<T> {
    /// A private item and the [`Home`] it goes back to: an idle item
    /// `reset` in place from the template when the pool holds one (a hit;
    /// `reset` returns the DRAM pages it restored), `fresh()` otherwise (a
    /// miss). The first checkout creates the pool.
    pub(crate) fn checkout(
        &self,
        reset: impl FnOnce(&mut T) -> u64,
        fresh: impl FnOnce() -> T,
    ) -> (T, Home<T>) {
        let pool = self.0.get_or_init(Arc::default);
        let idle = pool.free().pop();
        let item = match idle {
            Some(mut item) => {
                let pages = reset(&mut item);
                pool.hits.fetch_add(1, Ordering::Relaxed);
                pool.reset_pages.fetch_add(pages, Ordering::Relaxed);
                item
            }
            None => {
                pool.misses.fetch_add(1, Ordering::Relaxed);
                fresh()
            }
        };
        (item, Home(Arc::downgrade(pool)))
    }

    /// Drops the pool: the template is about to change, so the items out
    /// now are freed on return, and the next checkout starts a new pool.
    #[inline]
    pub(crate) fn retire(&mut self) {
        self.0.take();
    }

    /// The pool's counters; `bytes` measures one idle item.
    pub(crate) fn stats(&self, bytes: impl Fn(&T) -> usize) -> PoolStats {
        self.0.get().map_or_else(PoolStats::default, |pool| {
            let retained: usize = pool.free().iter().map(bytes).sum();
            PoolStats {
                hits: pool.hits.load(Ordering::Relaxed),
                misses: pool.misses.load(Ordering::Relaxed),
                reset_pages: pool.reset_pages.load(Ordering::Relaxed),
                retained_bytes: retained as u64,
            }
        })
    }
}

/// A checked-out item's side of the pool: where it goes when dropped;
/// dangling unless checked out.
pub(crate) struct Home<T>(Weak<Pool<T>>);

impl<T> Default for Home<T> {
    fn default() -> Self {
        Home(Weak::new())
    }
}

impl<T> Home<T> {
    /// Returns `item` to its pool: kept while the pool exists and holds
    /// fewer than [`POOL_IMAGES`] idle items, freed otherwise.
    pub(crate) fn give_back(&self, item: T) {
        if let Some(pool) = self.0.upgrade() {
            let mut free = pool.free();
            if free.len() < POOL_IMAGES {
                free.push(item);
            }
        }
    }
}
