//! # revet-obs — zero-cost-when-disabled observability
//!
//! The instrumentation substrate of the Revet reproduction's profiler: the
//! untimed executor (the compiled [`ExecPlan`]) in `revet-machine`, the
//! cycle-level simulator and the compile pipeline record into one type,
//! [`ObsSink`]. It holds only what no run's own report holds; the
//! dispatch, round and ready-set totals are the run's `ExecReport` (or,
//! timed, its `SimStats`), and a profile prints them from there.
//!
//! Four complementary views of a run:
//!
//! 1. **Counters** ([`ObsCounters`]) — a few lock-free atomics: wake
//!    causes, segment fires and the `exec.lanes` width histogram.
//! 2. **Trace** — a bounded ring of typed [`TraceEvent`]s (node dispatch,
//!    channel push/pop, wake cause, segment fire, DRAM access, compile
//!    stage) with monotonic-tick timestamps and dense thread ids,
//!    exportable as Chrome `trace_event` JSON via
//!    [`ObsSink::chrome_trace_json`] and loadable in Perfetto.
//! 3. **Stall attribution** — every unproductive scheduler visit is
//!    classified ([`StallClass`]: input-starved / output-full /
//!    allocator-gated / DRAM-gated) and tallied per node, surfaced as a
//!    sorted top-stalls table and as per-class totals
//!    ([`ObsSink::stall_totals`]).
//! 4. **Bound attribution** — the timed simulator also records every port
//!    that spent its whole per-cycle budget ([`BoundPort`]), tallied per
//!    link, as a sorted top-bound-links table: the productive fires a link
//!    caps, which no stall class sees.
//!
//! Views 3 and 4 are one tally type over two fixed class sets.
//!
//! ## Zero cost when disabled
//!
//! Executor hot loops take `&ObsSink` unconditionally. [`ObsSink::noop`]
//! returns a `&'static` sink whose `enabled` flag is `false`; every
//! recording method starts with that one predictable branch and returns
//! immediately, so the instrumented fast path costs a non-atomic load per
//! event site. Every un-profiled entry point — the batch runtime, the
//! serve tier, the `perf_ledger` benchmark — passes that disabled sink. An
//! enabled sink is one a profiler asks for — `revetc --profile`, a test —
//! and it is recorded into by one run at a time: there is no fork or merge
//! across worker threads.
//!
//! ```
//! use revet_obs::{ObsSink, StallClass, WakeCause};
//!
//! let sink = ObsSink::with_trace_capacity(1024);
//! sink.node_dispatch(3, true);
//! sink.wake(4, WakeCause::TokenArrival);
//! sink.stall(4, StallClass::InputStarved);
//! assert_eq!(sink.counters.wakes_token.get(), 1);
//! assert_eq!(sink.trace_events().len(), 2); // stalls feed the tally, not the ring
//! assert_eq!(sink.top_stalls(8)[0].id, 4);
//! assert_eq!(sink.stall_totals(), [1, 0, 0, 0]);
//! assert!(sink.chrome_trace_json().contains("\"traceEvents\""));
//!
//! // The static no-op sink records nothing.
//! let noop = ObsSink::noop();
//! noop.wake(4, WakeCause::TokenArrival);
//! assert_eq!(noop.counters.wakes_token.get(), 0);
//! ```
//!
//! [`ExecPlan`]: https://docs.rs/revet-machine

#![warn(missing_docs)]

mod bound;
mod metrics;
mod stall;
mod tally;
mod trace;

pub use bound::{BoundPort, BOUND_PORTS};
pub use metrics::{Counter, Histogram};
pub use stall::{StallClass, STALL_CLASSES};
pub use tally::TallyRow;
pub use trace::{EventKind, TraceEvent, WakeCause};

use bound::BOUNDS;
use stall::STALLS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tally::Tally;
use trace::{thread_tag, TraceRing};

/// The counters no run report holds, fed by the executors.
///
/// These are plain public atomics so the hot loops touch them without
/// hashing or locking. [`ObsCounters::snapshot`] gives them stable dotted
/// names.
#[derive(Debug, Default)]
pub struct ObsCounters {
    /// Fused plan segments fired.
    pub segment_fires: Counter,
    /// Wakes caused by tokens arriving on an input channel.
    pub wakes_token: Counter,
    /// Wakes caused by a full output link regaining room (timed simulator
    /// only).
    pub wakes_capacity: Counter,
    /// Wakes caused by an allocator queue receiving a pointer.
    pub wakes_alloc: Counter,
    /// `exec.lanes`: one sample per lane-batched commit of the plan, its
    /// width.
    pub lanes: Histogram,
}

impl ObsCounters {
    /// All counters at zero (`const` for the static no-op sink).
    pub const fn new() -> Self {
        ObsCounters {
            segment_fires: Counter::new(),
            wakes_token: Counter::new(),
            wakes_capacity: Counter::new(),
            wakes_alloc: Counter::new(),
            lanes: Histogram::new(),
        }
    }

    /// Stable `(name, value)` pairs for every counter and the lane
    /// histogram (as `exec.lanes.count`, `.p50`, `.p95`, `.p99`).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = [
            ("exec.segment_fires", &self.segment_fires),
            ("exec.wakes.token", &self.wakes_token),
            ("exec.wakes.capacity", &self.wakes_capacity),
            ("exec.wakes.alloc", &self.wakes_alloc),
        ]
        .iter()
        .map(|(n, c)| (n.to_string(), c.get()))
        .collect();
        out.push(("exec.lanes.count".to_string(), self.lanes.count()));
        for (suffix, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            let v = self.lanes.percentile(p).unwrap_or(0);
            out.push((format!("exec.lanes.{suffix}"), v));
        }
        out
    }
}

/// The unified observability sink threaded through every execution layer.
///
/// Construct one with [`ObsSink::with_trace_capacity`] (full tracing),
/// [`ObsSink::counters_only`] (metrics + stalls, no trace ring), or borrow
/// the process-wide disabled sink with [`ObsSink::noop`].
#[derive(Debug)]
pub struct ObsSink {
    enabled: bool,
    trace_cap: usize,
    /// Fixed executor counters, recorded lock-free.
    pub counters: ObsCounters,
    tick: AtomicU64,
    ring: Mutex<TraceRing>,
    stalls: Mutex<Tally<STALL_CLASSES>>,
    bounds: Mutex<Tally<BOUND_PORTS>>,
    labels: Mutex<Vec<String>>,
    link_labels: Mutex<Vec<String>>,
}

static NOOP: ObsSink = ObsSink::disabled();

impl ObsSink {
    const fn disabled() -> Self {
        ObsSink {
            enabled: false,
            trace_cap: 0,
            counters: ObsCounters::new(),
            tick: AtomicU64::new(0),
            ring: Mutex::new(TraceRing::new()),
            stalls: Mutex::new(Tally::new(&STALLS)),
            bounds: Mutex::new(Tally::new(&BOUNDS)),
            labels: Mutex::new(Vec::new()),
            link_labels: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide no-op sink: every recording method returns after
    /// one predictable branch. This is what un-instrumented entry points
    /// pass to the executors.
    pub fn noop() -> &'static ObsSink {
        &NOOP
    }

    /// An enabled sink whose trace ring keeps the most recent
    /// `trace_capacity` events (`0` disables the ring but keeps the
    /// counters and both tallies).
    pub fn with_trace_capacity(trace_capacity: usize) -> Self {
        ObsSink {
            enabled: true,
            trace_cap: trace_capacity,
            ..Self::disabled()
        }
    }

    /// An enabled sink with the counters and both tallies but no trace
    /// ring: a dispatch takes no trace lock, but every recorded stall (each
    /// unproductive dispatch) still locks the stall tally.
    pub fn counters_only() -> Self {
        Self::with_trace_capacity(0)
    }

    /// Whether this sink records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Name the graph nodes (index = node id) for table and trace output.
    /// Executors never publish them; whoever renders a table or a trace
    /// calls this once.
    pub fn set_labels(&self, labels: Vec<String>) {
        if self.enabled {
            *self.labels.lock().unwrap() = labels;
        }
    }

    /// Name the graph's channels (index = channel id) for the
    /// top-bound-links table, like [`ObsSink::set_labels`] for nodes.
    pub fn set_link_labels(&self, labels: Vec<String>) {
        if self.enabled {
            *self.link_labels.lock().unwrap() = labels;
        }
    }

    #[inline]
    fn record(&self, kind: EventKind) {
        if self.trace_cap == 0 {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            tick,
            thread: thread_tag(),
            kind,
        };
        self.ring.lock().unwrap().push(self.trace_cap, ev);
    }

    /// Trace a scheduler step of `node` (`productive` = it moved tokens).
    /// The run's own report counts it.
    #[inline]
    pub fn node_dispatch(&self, node: u32, productive: bool) {
        if !self.enabled {
            return;
        }
        self.record(EventKind::NodeDispatch { node, productive });
    }

    /// Record a classified wake of `node`.
    #[inline]
    pub fn wake(&self, node: u32, cause: WakeCause) {
        if !self.enabled {
            return;
        }
        match cause {
            WakeCause::TokenArrival => self.counters.wakes_token.inc(),
            WakeCause::CapacityRelease => self.counters.wakes_capacity.inc(),
            WakeCause::AllocatorPush => self.counters.wakes_alloc.inc(),
        }
        self.record(EventKind::Wake { node, cause });
    }

    /// Record a classified stall of `node`.
    #[inline]
    pub fn stall(&self, node: u32, class: StallClass) {
        if !self.enabled {
            return;
        }
        self.stalls.lock().unwrap().record(node, class as usize);
    }

    /// Record that one end of channel `chan` spent its whole per-cycle
    /// budget (timed simulator only).
    #[inline]
    pub fn link_bound(&self, chan: u32, port: BoundPort) {
        if !self.enabled {
            return;
        }
        self.bounds.lock().unwrap().record(chan, port as usize);
    }

    /// Record tokens entering channel `chan`.
    #[inline]
    pub fn channel_push(&self, chan: u32) {
        if !self.enabled {
            return;
        }
        self.record(EventKind::ChannelPush { chan });
    }

    /// Record a fused plan segment firing.
    #[inline]
    pub fn segment_fire(&self, seg: u32, stages: u32) {
        if !self.enabled {
            return;
        }
        self.counters.segment_fires.inc();
        self.record(EventKind::SegmentFire { seg, stages });
    }

    /// Trace DRAM traffic for one simulator cycle. `SimStats` counts it.
    #[inline]
    pub fn dram_access(&self, read_bytes: u64, written_bytes: u64) {
        if !self.enabled {
            return;
        }
        self.record(EventKind::DramAccess {
            read_bytes,
            written_bytes,
        });
    }

    /// Record a finished compile stage with its wall time.
    #[inline]
    pub fn compile_stage(&self, stage: &'static str, micros: u64) {
        if !self.enabled {
            return;
        }
        self.record(EventKind::CompileStage { stage, micros });
    }

    /// Clone out the trace ring's current contents, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap().events().cloned().collect()
    }

    /// Events dropped because the ring was full (or had zero capacity).
    pub fn trace_dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped()
    }

    /// Export the trace as a Chrome `trace_event` JSON document (open in
    /// Perfetto or `chrome://tracing`).
    pub fn chrome_trace_json(&self) -> String {
        let events = self.trace_events();
        let labels = self.labels.lock().unwrap();
        trace::chrome_trace_json(&events, &labels)
    }

    /// The `limit` most-stalled nodes, sorted by total stalls descending
    /// (counts indexed by `StallClass as usize`).
    pub fn top_stalls(&self, limit: usize) -> Vec<TallyRow<STALL_CLASSES>> {
        self.stalls.lock().unwrap().top(limit)
    }

    /// Stalls per class over every node, indexed by `StallClass as usize`.
    pub fn stall_totals(&self) -> [u64; STALL_CLASSES] {
        self.stalls.lock().unwrap().totals()
    }

    /// Render the top-stalls table as aligned text.
    pub fn top_stalls_table(&self, limit: usize) -> String {
        let labels = self.labels.lock().unwrap();
        self.stalls.lock().unwrap().render(limit, &labels)
    }

    /// The `limit` most-bound links, sorted by bound cycles descending
    /// (counts indexed by `BoundPort as usize`).
    pub fn top_bound_links(&self, limit: usize) -> Vec<TallyRow<BOUND_PORTS>> {
        self.bounds.lock().unwrap().top(limit)
    }

    /// Render the top-bound-links table as aligned text.
    pub fn top_bound_links_table(&self, limit: usize) -> String {
        let labels = self.link_labels.lock().unwrap();
        self.bounds.lock().unwrap().render(limit, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let s = ObsSink::noop();
        s.node_dispatch(0, true);
        s.wake(1, WakeCause::TokenArrival);
        s.stall(1, StallClass::OutputFull);
        s.dram_access(10, 20);
        s.segment_fire(0, 2);
        s.link_bound(4, BoundPort::Push);
        assert!(!s.is_enabled());
        assert_eq!(s.counters.wakes_token.get(), 0);
        assert_eq!(s.counters.segment_fires.get(), 0);
        assert!(s.trace_events().is_empty());
        assert_eq!(s.stall_totals(), [0; STALL_CLASSES]);
        assert!(s.top_stalls(10).is_empty());
        assert!(s.top_bound_links(10).is_empty());
    }

    #[test]
    fn enabled_sink_counts_and_traces() {
        let s = ObsSink::with_trace_capacity(8);
        s.node_dispatch(0, true);
        s.node_dispatch(1, false);
        s.stall(1, StallClass::InputStarved);
        s.wake(0, WakeCause::CapacityRelease);
        s.segment_fire(2, 3);
        assert_eq!(s.counters.wakes_capacity.get(), 1);
        assert_eq!(s.counters.segment_fires.get(), 1);
        assert_eq!(s.stall_totals(), [1, 0, 0, 0]);
        let dispatches = s
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeDispatch { .. }))
            .count();
        assert_eq!(dispatches, 2);
        // Ticks are strictly increasing in recording order.
        let ticks: Vec<u64> = s.trace_events().iter().map(|e| e.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn counters_only_sink_skips_the_ring() {
        let s = ObsSink::counters_only();
        s.node_dispatch(0, true);
        s.wake(1, WakeCause::AllocatorPush);
        s.channel_push(3);
        assert_eq!(s.counters.wakes_alloc.get(), 1);
        assert!(s.trace_events().is_empty());
    }

    #[test]
    fn snapshot_has_stable_names() {
        let s = ObsSink::counters_only();
        s.wake(0, WakeCause::TokenArrival);
        s.counters.lanes.record(8);
        s.counters.lanes.record(8);
        let snap = s.counters.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("exec.wakes.token"), Some(1));
        assert_eq!(get("exec.segment_fires"), Some(0));
        assert_eq!(get("exec.lanes.count"), Some(2));
        // Bucket [8, 15] reports its upper bound.
        assert_eq!(get("exec.lanes.p50"), Some(15));
        assert_eq!(get("exec.lanes.p99"), Some(15));
    }

    #[test]
    fn chrome_trace_uses_labels() {
        let s = ObsSink::with_trace_capacity(4);
        s.set_labels(vec!["main.src".to_string()]);
        s.node_dispatch(0, true);
        let json = s.chrome_trace_json();
        assert!(json.contains("dispatch main.src"));
    }
}
