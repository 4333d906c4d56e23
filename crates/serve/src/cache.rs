//! Content-addressed program cache: compile once, execute many.
//!
//! Keys are [`ProgramId`]s — the stable fingerprint of (source,
//! [`PassOptions`]) — so byte-identical compile requests from any number
//! of clients resolve to one shared [`CompiledProgram`]:
//!
//! - **Single-flight**: concurrent requests for the same id wait on the
//!   one in-progress compile instead of compiling redundantly; a failed
//!   compile releases the slot (errors are *not* cached — the next
//!   request retries), so a bad request can never poison the cache.
//! - **LRU eviction**: a bounded number of programs stay resident;
//!   touching (hit or execute lookup) refreshes recency. Evicted programs
//!   that are still executing stay alive through their `Arc` until the
//!   batch drains.
//! - **Counters**: hits, misses, and evictions are exposed for the
//!   `Status` wire request and the load generator's report.

use revet_core::{CompiledProgram, CoreError, ProgramId};
use revet_machine::PoolStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Cache observability counters (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a resident program.
    pub hits: u64,
    /// Lookups that had to compile (including failed compiles).
    pub misses: u64,
    /// Programs evicted by the LRU policy.
    pub evictions: u64,
    /// Programs currently resident.
    pub resident: u64,
}

enum Slot {
    /// Compile in progress on some thread; waiters block on the condvar.
    Building,
    /// Resident program plus its LRU recency stamp.
    Ready(Arc<CompiledProgram>, u64),
}

struct Inner {
    slots: HashMap<ProgramId, Slot>,
    /// Monotonic recency clock; bumped on every touch.
    tick: u64,
}

/// A bounded, thread-safe, content-addressed store of compiled programs.
pub struct ProgramCache {
    inner: Mutex<Inner>,
    resolved: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ProgramCache {
    /// Creates a cache holding at most `capacity` programs (min 1).
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
            }),
            resolved: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let resident = {
            let inner = self.inner.lock().unwrap();
            inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready(..)))
                .count() as u64
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident,
        }
    }

    /// DRAM image pool counters ([`revet_machine::Dram::pool_stats`])
    /// summed over the resident programs. Evicting a program frees its
    /// pool and takes its share out of the sum.
    pub fn dram_pool_stats(&self) -> PoolStats {
        self.sum_pools(|program| program.graph.mem.dram.pool_stats())
    }

    /// Channel-table pool counters
    /// ([`revet_machine::Graph::chan_pool_stats`]: idle ring storage and
    /// scheduler scratch) summed over the resident programs, like
    /// [`ProgramCache::dram_pool_stats`].
    pub fn chan_pool_stats(&self) -> PoolStats {
        self.sum_pools(|program| program.graph.chan_pool_stats())
    }

    fn sum_pools(&self, stats: impl Fn(&CompiledProgram) -> PoolStats) -> PoolStats {
        let inner = self.inner.lock().unwrap();
        let mut total = PoolStats::default();
        for slot in inner.slots.values() {
            if let Slot::Ready(program, _) = slot {
                total.merge(&stats(program));
            }
        }
        total
    }

    /// Looks up `id`, waiting out any in-progress compile for it. `None`
    /// when the cache holds nothing under that id (never compiles).
    pub fn get(&self, id: ProgramId) -> Option<Arc<CompiledProgram>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            match inner.slots.get(&id) {
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Some(Slot::Building) => {
                    inner = self.resolved.wait(inner).unwrap();
                }
                Some(Slot::Ready(program, _)) => {
                    let program = Arc::clone(program);
                    let tick = inner.tick + 1;
                    inner.tick = tick;
                    if let Some(Slot::Ready(_, stamp)) = inner.slots.get_mut(&id) {
                        *stamp = tick;
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(program);
                }
            }
        }
    }

    /// Returns the program under `id`, compiling it with `compile` on a
    /// miss. Exactly one caller runs `compile` per miss; concurrent
    /// callers for the same id block until it resolves. The boolean is
    /// true on a cache hit (including waiting out someone else's
    /// successful compile).
    ///
    /// # Errors
    ///
    /// The compile error, delivered to the caller that compiled. Waiters
    /// observe the released slot and retry the compile themselves (the
    /// error itself is never cached).
    pub fn get_or_compile(
        &self,
        id: ProgramId,
        compile: impl FnOnce() -> Result<CompiledProgram, CoreError>,
    ) -> Result<(Arc<CompiledProgram>, bool), CoreError> {
        {
            let mut inner = self.inner.lock().unwrap();
            loop {
                match inner.slots.get(&id) {
                    None => {
                        // Claim the build: later requests for this id wait.
                        inner.slots.insert(id, Slot::Building);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Some(Slot::Building) => {
                        inner = self.resolved.wait(inner).unwrap();
                    }
                    Some(Slot::Ready(program, _)) => {
                        let program = Arc::clone(program);
                        let tick = inner.tick + 1;
                        inner.tick = tick;
                        if let Some(Slot::Ready(_, stamp)) = inner.slots.get_mut(&id) {
                            *stamp = tick;
                        }
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((program, true));
                    }
                }
            }
        }
        // Compile outside the lock — this is the expensive part and the
        // whole reason for single-flight.
        let outcome = compile();
        let mut inner = self.inner.lock().unwrap();
        match outcome {
            Ok(program) => {
                let program = Arc::new(program);
                let tick = inner.tick + 1;
                inner.tick = tick;
                inner
                    .slots
                    .insert(id, Slot::Ready(Arc::clone(&program), tick));
                self.evict_over_capacity(&mut inner);
                self.resolved.notify_all();
                Ok((program, false))
            }
            Err(e) => {
                // Release the claim so the next request can retry; never
                // leave a permanently-Building tombstone.
                inner.slots.remove(&id);
                self.resolved.notify_all();
                Err(e)
            }
        }
    }

    /// Evicts least-recently-used Ready programs down to capacity.
    /// Building slots are never evicted (someone is waiting on them).
    fn evict_over_capacity(&self, inner: &mut Inner) {
        loop {
            let ready = inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready(..)))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter_map(|(id, s)| match s {
                    Slot::Ready(_, stamp) => Some((*stamp, *id)),
                    Slot::Building => None,
                })
                .min()
                .map(|(_, id)| id);
            let Some(victim) = victim else { return };
            inner.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_core::{PassOptions, Session};
    use std::sync::atomic::AtomicUsize;

    const SRC_A: &str = "dram<u32> o; void main(u32 n) { foreach (n) { u32 i => o[i] = i; }; }";
    const SRC_B: &str = "dram<u32> o; void main(u32 n) { foreach (n) { u32 i => o[i] = i + 1; }; }";
    const SRC_C: &str = "dram<u32> o; void main(u32 n) { foreach (n) { u32 i => o[i] = i + 2; }; }";

    fn compile(src: &str) -> Result<CompiledProgram, CoreError> {
        Session::new(
            src,
            PassOptions {
                dram_bytes: 1 << 12,
                ..PassOptions::default()
            },
        )
        .to_dataflow()
    }

    fn opts() -> PassOptions {
        PassOptions {
            dram_bytes: 1 << 12,
            ..PassOptions::default()
        }
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ProgramCache::new(4);
        let id = ProgramId::of(SRC_A, &opts());
        assert!(cache.get(id).is_none());
        let (_, hit) = cache.get_or_compile(id, || compile(SRC_A)).unwrap();
        assert!(!hit);
        let (_, hit) = cache
            .get_or_compile(id, || panic!("must not recompile"))
            .unwrap();
        assert!(hit);
        assert!(cache.get(id).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (2, 2, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_program() {
        let cache = ProgramCache::new(2);
        let ids: Vec<ProgramId> = [SRC_A, SRC_B]
            .iter()
            .map(|src| {
                let id = ProgramId::of(src, &opts());
                cache.get_or_compile(id, || compile(src)).unwrap();
                id
            })
            .collect();
        // Touch A so B is the LRU victim when C arrives.
        assert!(cache.get(ids[0]).is_some());
        let id_c = ProgramId::of(SRC_C, &opts());
        cache.get_or_compile(id_c, || compile(SRC_C)).unwrap();
        assert!(cache.get(ids[0]).is_some(), "A was touched, must survive");
        assert!(
            cache.get(ids[1]).is_none(),
            "B was coldest, must be evicted"
        );
        assert!(cache.get(id_c).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 2);
    }

    #[test]
    fn single_flight_compiles_once_across_threads() {
        let cache = ProgramCache::new(4);
        let compiles = AtomicUsize::new(0);
        let id = ProgramId::of(SRC_A, &opts());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (program, _) = cache
                        .get_or_compile(id, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really pile up.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            compile(SRC_A)
                        })
                        .unwrap();
                    assert!(!program.graph.mem.dram.is_empty());
                });
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "exactly one compile");
    }

    #[test]
    fn failed_compile_releases_the_slot_instead_of_poisoning() {
        let cache = ProgramCache::new(4);
        let id = ProgramId::of("void main( {", &opts());
        let err = cache
            .get_or_compile(id, || compile("void main( {"))
            .unwrap_err();
        assert!(!err.diagnostics.is_empty());
        assert!(cache.get(id).is_none(), "failure must not be cached");
        // The same id can be retried — and a good compile now lands.
        let (_, hit) = cache.get_or_compile(id, || compile(SRC_A)).unwrap();
        assert!(!hit);
        assert!(cache.get(id).is_some());
    }
}
