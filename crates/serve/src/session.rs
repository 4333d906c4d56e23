//! The streaming-session table: bounded residency for long-lived
//! [`StreamInstance`]s fed incrementally over the wire.
//!
//! Each `OpenStream` request parks a resident instance here under a
//! server-assigned id; `Feed`/`Poll`/`CloseStream` look it up. Three
//! properties the protocol depends on live in this module:
//!
//! - **Bounded residency.** The table holds at most `capacity` sessions;
//!   an open beyond that answers [`SessionError::Busy`] immediately
//!   (backpressure, like `Execute`'s admission gate) instead of
//!   accepting unbounded resident state.
//! - **Idle eviction.** Every use of the table first drops the sessions
//!   untouched for longer than `idle_timeout`, so an idle session is
//!   freed at the next request of any kind and no thread keeps time.
//!   Later touches of an evicted id answer the *typed*
//!   [`SessionError::Expired`] — distinguishable from an id the server
//!   never issued ([`SessionError::Unknown`]).
//! - **Per-session locking.** The table mutex guards only the id map;
//!   each session has its own mutex, so a long poll of one session never
//!   blocks feeds into another.

use revet_core::StreamInstance;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Evicted ids remembered for `Expired` (vs `Unknown`) answers.
const TOMBSTONE_CAP: usize = 1024;

/// One resident streaming session.
pub(crate) struct SessionSlot {
    /// The resident incrementally-fed instance.
    pub stream: StreamInstance,
    /// `(offset, len)` of the DRAM window the close reply returns.
    pub window: (u64, u64),
    /// Last `open`/`with` touch — the idle deadline counts from here.
    last_touch: Instant,
}

/// Why a session operation was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SessionError {
    /// The table is at capacity — close or wait, then retry the open.
    Busy,
    /// The id was never issued, or the client already closed it.
    Unknown,
    /// The session sat idle past the deadline and was evicted.
    Expired,
}

/// A session's shared cell: `None` once closed or evicted. The
/// indirection lets `with` run the session's work outside the table
/// lock.
type Slot = Arc<Mutex<Option<SessionSlot>>>;

struct TableInner {
    next_id: u64,
    sessions: HashMap<u64, Slot>,
    /// Recently evicted ids, oldest first (bounded by [`TOMBSTONE_CAP`]).
    expired: VecDeque<u64>,
}

/// The bounded map from session id to resident instance, evicting idle
/// sessions as it is used.
pub(crate) struct SessionTable {
    capacity: usize,
    idle_timeout: Duration,
    inner: Mutex<TableInner>,
    evicted: AtomicU64,
}

impl SessionTable {
    pub(crate) fn new(capacity: usize, idle_timeout: Duration) -> Self {
        SessionTable {
            capacity: capacity.max(1),
            idle_timeout,
            inner: Mutex::new(TableInner {
                next_id: 1,
                sessions: HashMap::new(),
                expired: VecDeque::new(),
            }),
            evicted: AtomicU64::new(0),
        }
    }

    /// The table's lock, taken only after every session idle past the
    /// deadline has been evicted.
    fn lock(&self) -> MutexGuard<'_, TableInner> {
        let mut inner = self.inner.lock().unwrap();
        self.sweep(&mut inner, Instant::now());
        inner
    }

    /// Admits a new session, or refuses with `Busy` at capacity.
    pub(crate) fn open(
        &self,
        stream: StreamInstance,
        window: (u64, u64),
    ) -> Result<u64, SessionError> {
        let mut inner = self.lock();
        if inner.sessions.len() >= self.capacity {
            return Err(SessionError::Busy);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.sessions.insert(
            id,
            Arc::new(Mutex::new(Some(SessionSlot {
                stream,
                window,
                last_touch: Instant::now(),
            }))),
        );
        Ok(id)
    }

    /// Looks up `id` and distinguishes evicted from never-issued.
    fn checkout(&self, id: u64) -> Result<Slot, SessionError> {
        let inner = self.lock();
        match inner.sessions.get(&id) {
            Some(slot) => Ok(Arc::clone(slot)),
            None if inner.expired.contains(&id) => Err(SessionError::Expired),
            None => Err(SessionError::Unknown),
        }
    }

    /// Runs `f` on the session, holding only that session's lock (a slow
    /// poll of one session never blocks the others). Touching refreshes
    /// the idle deadline.
    pub(crate) fn with<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut SessionSlot) -> T,
    ) -> Result<T, SessionError> {
        let slot = self.checkout(id)?;
        let mut guard = slot.lock().unwrap();
        match guard.as_mut() {
            Some(session) => {
                session.last_touch = Instant::now();
                Ok(f(session))
            }
            // Closed or evicted between checkout and lock.
            None => match self.checkout(id) {
                Err(e) => Err(e),
                Ok(_) => Err(SessionError::Unknown),
            },
        }
    }

    /// Removes the session and hands it to the caller (the close path
    /// needs ownership — [`StreamInstance::finish`] consumes).
    pub(crate) fn close(&self, id: u64) -> Result<SessionSlot, SessionError> {
        let slot = {
            let mut inner = self.lock();
            match inner.sessions.remove(&id) {
                Some(slot) => slot,
                None if inner.expired.contains(&id) => return Err(SessionError::Expired),
                None => return Err(SessionError::Unknown),
            }
        };
        let taken = slot.lock().unwrap().take();
        taken.ok_or(SessionError::Unknown)
    }

    /// Evicts sessions idle past the deadline as of `now`; returns how
    /// many. Sessions whose lock is held (mid-poll) are by definition not
    /// idle and are skipped. Allocates only when it evicts.
    fn sweep(&self, inner: &mut TableInner, now: Instant) -> usize {
        let TableInner {
            sessions, expired, ..
        } = inner;
        let before = sessions.len();
        sessions.retain(|&id, slot| {
            let Ok(mut guard) = slot.try_lock() else {
                return true;
            };
            let stale = guard
                .as_ref()
                .is_some_and(|s| now.duration_since(s.last_touch) > self.idle_timeout);
            if stale {
                guard.take();
                expired.push_back(id);
                if expired.len() > TOMBSTONE_CAP {
                    expired.pop_front();
                }
            }
            !stale
        });
        let evicted = before - sessions.len();
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Drops every resident session (graceful drain).
    pub(crate) fn drain(&self) {
        let mut inner = self.inner.lock().unwrap();
        for (_, slot) in inner.sessions.drain() {
            slot.lock().unwrap().take();
        }
    }

    /// Sessions currently resident.
    pub(crate) fn open_count(&self) -> u64 {
        self.lock().sessions.len() as u64
    }

    /// Sessions evicted for sitting idle since boot.
    pub(crate) fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Total resident footprint of open sessions, bytes. Sessions whose
    /// lock is held are skipped — this is a monitoring gauge, not an
    /// accounting invariant.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let inner = self.lock();
        inner
            .sessions
            .values()
            .filter_map(|slot| {
                let guard = slot.try_lock().ok()?;
                Some(guard.as_ref()?.stream.resident_bytes())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_core::{PassOptions, Session};
    use revet_sltf::Word;

    fn stream() -> StreamInstance {
        let opts = PassOptions {
            dram_bytes: 1 << 12,
            ..PassOptions::default()
        };
        Session::new(
            "dram<u32> output;
                 void main(u32 n) {
                     foreach (n) { u32 i => output[i] = i * i; };
                 }",
            opts,
        )
        .to_dataflow()
        .unwrap()
        .stream()
    }

    #[test]
    fn capacity_overflow_answers_busy() {
        let table = SessionTable::new(2, Duration::from_secs(60));
        let a = table.open(stream(), (0, 0)).unwrap();
        let _b = table.open(stream(), (0, 0)).unwrap();
        assert_eq!(table.open(stream(), (0, 0)), Err(SessionError::Busy));
        // Closing frees a slot.
        table.close(a).unwrap();
        assert!(table.open(stream(), (0, 0)).is_ok());
        assert_eq!(table.open_count(), 2);
    }

    #[test]
    fn idle_sessions_are_evicted_and_answer_expired() {
        let table = SessionTable::new(4, Duration::from_millis(10));
        let id = table.open(stream(), (0, 0)).unwrap();
        let sweep = |now| table.sweep(&mut table.inner.lock().unwrap(), now);
        // Not yet stale.
        assert_eq!(sweep(Instant::now()), 0);
        // Well past the deadline (a faked future clock, no sleeping).
        assert_eq!(sweep(Instant::now() + Duration::from_secs(1)), 1);
        assert_eq!(table.evicted_total(), 1);
        assert_eq!(table.open_count(), 0);
        assert_eq!(table.with(id, |_| ()), Err(SessionError::Expired));
        assert_eq!(table.close(id).err(), Some(SessionError::Expired));
    }

    #[test]
    fn touching_a_session_resets_its_idle_deadline() {
        let table = SessionTable::new(4, Duration::from_millis(50));
        let id = table.open(stream(), (0, 0)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        table.with(id, |_| ()).unwrap(); // refresh
        std::thread::sleep(Duration::from_millis(30));
        // 60ms since open, but only 30ms since the touch.
        assert_eq!(table.open_count(), 1);
        assert_eq!(table.evicted_total(), 0);
    }

    #[test]
    fn a_full_table_of_idle_sessions_admits_the_next_open() {
        let table = SessionTable::new(1, Duration::from_millis(10));
        let first = table.open(stream(), (0, 0)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // The open itself evicts the idle session that filled the table.
        table.open(stream(), (0, 0)).expect("idle session evicted");
        assert_eq!(table.evicted_total(), 1);
        assert_eq!(table.with(first, |_| ()), Err(SessionError::Expired));
    }

    #[test]
    fn double_close_and_feed_after_close_answer_unknown() {
        let table = SessionTable::new(4, Duration::from_secs(60));
        let id = table.open(stream(), (0, 0)).unwrap();
        assert!(table.close(id).is_ok());
        assert_eq!(table.close(id).err(), Some(SessionError::Unknown));
        assert_eq!(table.with(id, |_| ()), Err(SessionError::Unknown));
        // An id never issued is Unknown too.
        assert_eq!(table.with(999, |_| ()), Err(SessionError::Unknown));
    }

    #[test]
    fn resident_bytes_sums_open_sessions() {
        let table = SessionTable::new(4, Duration::from_secs(60));
        let id = table.open(stream(), (0, 0)).unwrap();
        assert_eq!(table.resident_bytes(), 0, "nothing fed yet");
        table
            .with(id, |s| s.stream.feed(&[vec![Word(5)]]).unwrap())
            .unwrap();
        assert!(table.resident_bytes() > 0, "fed argset is resident");
        table.drain();
        assert_eq!(table.open_count(), 0);
        assert_eq!(table.resident_bytes(), 0);
    }
}
