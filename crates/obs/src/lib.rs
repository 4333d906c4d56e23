//! # revet-obs — zero-cost-when-disabled observability
//!
//! The instrumentation substrate shared by every layer of the Revet
//! reproduction: the untimed executor (the compiled [`ExecPlan`]) in
//! `revet-machine`, the cycle-level simulator, the batch runtime, the
//! compile pipeline, and the serve tier all report through one type —
//! [`ObsSink`].
//!
//! Three complementary views of a run:
//!
//! 1. **Counters** ([`ObsCounters`]) — a fixed set of lock-free atomics,
//!    the same dispatch / round / watermark totals a run's `ExecReport`
//!    returns, plus what no report holds: wake causes, stall classes,
//!    segment fires, DRAM bytes and the `exec.lanes` width histogram.
//! 2. **Trace** — a bounded ring of typed [`TraceEvent`]s (node dispatch,
//!    channel push/pop, wake cause, segment fire, DRAM access, compile
//!    stage) with monotonic-tick timestamps and dense thread ids,
//!    exportable as Chrome `trace_event` JSON via
//!    [`ObsSink::chrome_trace_json`] and loadable in Perfetto.
//! 3. **Stall attribution** — every unproductive scheduler visit is
//!    classified ([`StallClass`]: input-starved / output-full /
//!    allocator-gated / DRAM-gated) and accumulated per node, surfaced as
//!    a sorted top-stalls table.
//! 4. **Bound attribution** — the timed simulator also records every port
//!    that spent its whole per-cycle budget ([`BoundPort`]), per link, as
//!    a sorted top-bound-links table: the productive fires a link caps,
//!    which no stall class sees.
//!
//! ## Zero cost when disabled
//!
//! Executor hot loops take `&ObsSink` unconditionally. [`ObsSink::noop`]
//! returns a `&'static` sink whose `enabled` flag is `false`; every
//! recording method starts with that one predictable branch and returns
//! immediately, so the instrumented fast path costs a non-atomic load per
//! event site (the `perf_ledger` benchmark and the serve tier run with the
//! disabled sink). An enabled sink is one a profiler asks for — `revetc
//! --profile`, a test — and it is recorded into by one run at a time: there
//! is no fork or merge across worker threads.
//!
//! ```
//! use revet_obs::{ObsSink, StallClass, WakeCause};
//!
//! let sink = ObsSink::with_trace_capacity(1024);
//! sink.node_dispatch(3, true);
//! sink.wake(4, WakeCause::TokenArrival);
//! sink.stall(4, StallClass::InputStarved);
//! assert_eq!(sink.counters.dispatches.get(), 1);
//! assert_eq!(sink.trace_events().len(), 2); // stalls feed the table, not the ring
//! assert_eq!(sink.top_stalls(8)[0].node, 4);
//! assert!(sink.chrome_trace_json().contains("\"traceEvents\""));
//!
//! // The static no-op sink records nothing.
//! let noop = ObsSink::noop();
//! noop.node_dispatch(3, true);
//! assert_eq!(noop.counters.dispatches.get(), 0);
//! ```
//!
//! [`ExecPlan`]: https://docs.rs/revet-machine

#![warn(missing_docs)]

mod bound;
mod metrics;
mod stall;
mod trace;

pub use bound::{BoundPort, BoundRow};
pub use metrics::{Counter, Gauge, Histogram, HIST_BUCKETS};
pub use stall::{StallClass, StallRow, STALL_CLASSES};
pub use trace::{EventKind, TraceEvent, WakeCause};

use bound::BoundTable;
use stall::StallTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use trace::{thread_tag, TraceRing};

/// The fixed counter set every executor feeds.
///
/// These are plain public atomics so the hot loops touch them without
/// hashing or locking. [`ObsCounters::snapshot`] gives them stable dotted
/// names.
#[derive(Debug, Default)]
pub struct ObsCounters {
    /// Scheduler steps attempted (one per worklist pop / context fire).
    pub dispatches: Counter,
    /// Dispatches that moved at least one token.
    pub productive: Counter,
    /// Worklist generations (executor rounds / sim cycles).
    pub rounds: Counter,
    /// Fused plan segments fired.
    pub segment_fires: Counter,
    /// Wakes caused by tokens arriving on an input channel.
    pub wakes_token: Counter,
    /// Wakes caused by a full output link regaining room (timed simulator
    /// only).
    pub wakes_capacity: Counter,
    /// Wakes caused by an allocator queue receiving a pointer.
    pub wakes_alloc: Counter,
    /// Stalls classified input-starved.
    pub stalls_input_starved: Counter,
    /// Stalls classified output-full.
    pub stalls_output_full: Counter,
    /// Stalls classified allocator-gated.
    pub stalls_alloc_gated: Counter,
    /// Stalls classified DRAM-gated (timed simulator only).
    pub stalls_dram_gated: Counter,
    /// DRAM bytes read (timed simulator only).
    pub dram_read_bytes: Counter,
    /// DRAM bytes written (timed simulator only).
    pub dram_written_bytes: Counter,
    /// High watermark of ready nodes in any one scheduler round.
    pub peak_ready: Gauge,
    /// `exec.lanes`: one sample per lane-batched commit of the plan, its
    /// width.
    pub lanes: Histogram,
}

impl ObsCounters {
    /// All counters at zero (`const` for the static no-op sink).
    pub const fn new() -> Self {
        ObsCounters {
            dispatches: Counter::new(),
            productive: Counter::new(),
            rounds: Counter::new(),
            segment_fires: Counter::new(),
            wakes_token: Counter::new(),
            wakes_capacity: Counter::new(),
            wakes_alloc: Counter::new(),
            stalls_input_starved: Counter::new(),
            stalls_output_full: Counter::new(),
            stalls_alloc_gated: Counter::new(),
            stalls_dram_gated: Counter::new(),
            dram_read_bytes: Counter::new(),
            dram_written_bytes: Counter::new(),
            peak_ready: Gauge::new(),
            lanes: Histogram::new(),
        }
    }

    fn all(&self) -> [(&'static str, &Counter); 13] {
        [
            ("exec.dispatches", &self.dispatches),
            ("exec.productive", &self.productive),
            ("exec.rounds", &self.rounds),
            ("exec.segment_fires", &self.segment_fires),
            ("exec.wakes.token", &self.wakes_token),
            ("exec.wakes.capacity", &self.wakes_capacity),
            ("exec.wakes.alloc", &self.wakes_alloc),
            ("exec.stalls.input_starved", &self.stalls_input_starved),
            ("exec.stalls.output_full", &self.stalls_output_full),
            ("exec.stalls.alloc_gated", &self.stalls_alloc_gated),
            ("exec.stalls.dram_gated", &self.stalls_dram_gated),
            ("sim.dram_read_bytes", &self.dram_read_bytes),
            ("sim.dram_written_bytes", &self.dram_written_bytes),
        ]
    }

    /// Stable `(name, value)` pairs for every counter, the watermark and
    /// the lane histogram (as `exec.lanes.count`, `.p50`, `.p95`, `.p99`).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .all()
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect();
        out.push(("exec.peak_ready".to_string(), self.peak_ready.get()));
        out.push(("exec.lanes.count".to_string(), self.lanes.count()));
        for (suffix, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            let v = self.lanes.percentile(p).unwrap_or(0);
            out.push((format!("exec.lanes.{suffix}"), v));
        }
        out
    }

    /// Record a stall in the matching fixed counter.
    fn stall(&self, class: StallClass) {
        match class {
            StallClass::InputStarved => self.stalls_input_starved.inc(),
            StallClass::OutputFull => self.stalls_output_full.inc(),
            StallClass::AllocGated => self.stalls_alloc_gated.inc(),
            StallClass::DramGated => self.stalls_dram_gated.inc(),
        }
    }

    /// Record a wake in the matching fixed counter.
    fn wake(&self, cause: WakeCause) {
        match cause {
            WakeCause::TokenArrival => self.wakes_token.inc(),
            WakeCause::CapacityRelease => self.wakes_capacity.inc(),
            WakeCause::AllocatorPush => self.wakes_alloc.inc(),
        }
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
    stalls: Mutex<StallTable>,
    bounds: Mutex<BoundTable>,
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
            stalls: Mutex::new(StallTable::new()),
            bounds: Mutex::new(BoundTable::new()),
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
    /// `trace_capacity` events (`0` disables the ring but keeps counters
    /// and stall attribution).
    pub fn with_trace_capacity(trace_capacity: usize) -> Self {
        ObsSink {
            enabled: true,
            trace_cap: trace_capacity,
            ..Self::disabled()
        }
    }

    /// An enabled sink with counters and stall attribution but no trace
    /// ring: a dispatch takes no trace lock, but every recorded stall (each
    /// unproductive dispatch) still locks the stall table.
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

    /// Record a scheduler step of `node` (`productive` = it moved tokens).
    #[inline]
    pub fn node_dispatch(&self, node: u32, productive: bool) {
        if !self.enabled {
            return;
        }
        self.counters.dispatches.inc();
        if productive {
            self.counters.productive.inc();
        }
        self.record(EventKind::NodeDispatch { node, productive });
    }

    /// Record the start of a scheduler round with `ready` runnable nodes.
    #[inline]
    pub fn round(&self, ready: u64) {
        if !self.enabled {
            return;
        }
        self.counters.rounds.inc();
        self.counters.peak_ready.record_max(ready);
    }

    /// Record a classified wake of `node`.
    #[inline]
    pub fn wake(&self, node: u32, cause: WakeCause) {
        if !self.enabled {
            return;
        }
        self.counters.wake(cause);
        self.record(EventKind::Wake { node, cause });
    }

    /// Record a classified stall of `node`.
    #[inline]
    pub fn stall(&self, node: u32, class: StallClass) {
        if !self.enabled {
            return;
        }
        self.counters.stall(class);
        self.stalls.lock().unwrap().record(node, class);
    }

    /// Record that one end of channel `chan` spent its whole per-cycle
    /// budget (timed simulator only).
    #[inline]
    pub fn link_bound(&self, chan: u32, port: BoundPort) {
        if !self.enabled {
            return;
        }
        self.bounds.lock().unwrap().record(chan, port);
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

    /// Record DRAM traffic for one simulator cycle.
    #[inline]
    pub fn dram_access(&self, read_bytes: u64, written_bytes: u64) {
        if !self.enabled {
            return;
        }
        self.counters.dram_read_bytes.add(read_bytes);
        self.counters.dram_written_bytes.add(written_bytes);
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

    /// The `limit` most-stalled nodes, sorted by total stalls descending.
    pub fn top_stalls(&self, limit: usize) -> Vec<StallRow> {
        self.stalls.lock().unwrap().top(limit)
    }

    /// Render the top-stalls table as aligned text.
    pub fn top_stalls_table(&self, limit: usize) -> String {
        let rows = self.top_stalls(limit);
        let labels = self.labels.lock().unwrap();
        stall::render_top_stalls(&rows, &labels)
    }

    /// The `limit` most-bound links, sorted by bound cycles descending.
    pub fn top_bound_links(&self, limit: usize) -> Vec<BoundRow> {
        self.bounds.lock().unwrap().top(limit)
    }

    /// Render the top-bound-links table as aligned text.
    pub fn top_bound_links_table(&self, limit: usize) -> String {
        let rows = self.top_bound_links(limit);
        let labels = self.link_labels.lock().unwrap();
        bound::render_top_bound(&rows, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let s = ObsSink::noop();
        s.node_dispatch(0, true);
        s.round(9);
        s.wake(1, WakeCause::TokenArrival);
        s.stall(1, StallClass::OutputFull);
        s.dram_access(10, 20);
        s.segment_fire(0, 2);
        s.link_bound(4, BoundPort::Push);
        assert!(!s.is_enabled());
        assert_eq!(s.counters.dispatches.get(), 0);
        assert_eq!(s.counters.peak_ready.get(), 0);
        assert!(s.trace_events().is_empty());
        assert!(s.top_stalls(10).is_empty());
        assert!(s.top_bound_links(10).is_empty());
    }

    #[test]
    fn enabled_sink_counts_and_traces() {
        let s = ObsSink::with_trace_capacity(8);
        s.round(3);
        s.node_dispatch(0, true);
        s.node_dispatch(1, false);
        s.stall(1, StallClass::InputStarved);
        s.wake(0, WakeCause::CapacityRelease);
        s.segment_fire(2, 3);
        assert_eq!(s.counters.dispatches.get(), 2);
        assert_eq!(s.counters.productive.get(), 1);
        assert_eq!(s.counters.rounds.get(), 1);
        assert_eq!(s.counters.peak_ready.get(), 3);
        assert_eq!(s.counters.wakes_capacity.get(), 1);
        assert_eq!(s.counters.stalls_input_starved.get(), 1);
        assert_eq!(s.counters.segment_fires.get(), 1);
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
        s.channel_push(3);
        assert_eq!(s.counters.dispatches.get(), 1);
        assert!(s.trace_events().is_empty());
    }

    #[test]
    fn snapshot_has_stable_names() {
        let s = ObsSink::counters_only();
        s.node_dispatch(0, true);
        s.counters.lanes.record(8);
        s.counters.lanes.record(8);
        let snap = s.counters.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("exec.dispatches"), Some(1));
        assert_eq!(get("exec.peak_ready"), Some(0));
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
