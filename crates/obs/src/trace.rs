//! Bounded ring-buffered trace of typed events, exportable as Chrome
//! `trace_event` JSON (the format Perfetto and `chrome://tracing` load).
//!
//! Timestamps are *monotonic ticks* — a per-sink atomic sequence number, not
//! wall clock — so event order is exact and recording never calls into the
//! OS. Thread ids are small dense integers assigned on first use.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};

/// Why the scheduler woke a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCause {
    /// An input channel gained tokens.
    TokenArrival,
    /// A full output link regained room (timed simulator only: untimed
    /// links are unbounded).
    CapacityRelease,
    /// An allocator queue the node can block on received a pointer.
    AllocatorPush,
}

impl WakeCause {
    /// Stable lowercase name, used in trace export.
    pub fn name(self) -> &'static str {
        match self {
            WakeCause::TokenArrival => "token_arrival",
            WakeCause::CapacityRelease => "capacity_release",
            WakeCause::AllocatorPush => "allocator_push",
        }
    }
}

/// The typed payload of one trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The scheduler stepped a node (`productive` = it made progress).
    NodeDispatch {
        /// Graph node id.
        node: u32,
        /// Whether the step moved tokens.
        productive: bool,
    },
    /// Tokens entered a channel.
    ChannelPush {
        /// Channel id.
        chan: u32,
    },
    /// The scheduler re-queued a node for a classified reason.
    Wake {
        /// Graph node id.
        node: u32,
        /// The classified wake cause.
        cause: WakeCause,
    },
    /// A fused plan segment fired.
    SegmentFire {
        /// Segment index within the plan.
        seg: u32,
        /// Number of fused stages in the segment.
        stages: u32,
    },
    /// The timed simulator moved DRAM bytes this cycle.
    DramAccess {
        /// Bytes read this cycle.
        read_bytes: u64,
        /// Bytes written this cycle.
        written_bytes: u64,
    },
    /// A compile stage finished.
    CompileStage {
        /// Stage name (`parse`, `lower_mir`, ...).
        stage: &'static str,
        /// Stage wall time in microseconds.
        micros: u64,
    },
}

impl EventKind {
    /// Stable lowercase name, used in trace export and tests.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::NodeDispatch { .. } => "node_dispatch",
            EventKind::ChannelPush { .. } => "channel_push",
            EventKind::Wake { .. } => "wake",
            EventKind::SegmentFire { .. } => "segment_fire",
            EventKind::DramAccess { .. } => "dram_access",
            EventKind::CompileStage { .. } => "compile_stage",
        }
    }
}

/// One recorded event: what happened, when (tick), and on which thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic per-sink sequence number (used as the timestamp).
    pub tick: u64,
    /// Dense id of the recording thread.
    pub thread: u32,
    /// The typed payload.
    pub kind: EventKind,
}

/// Dense per-thread tag for trace events (assigned on first use).
pub(crate) fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// Bounded FIFO of trace events: when full, the oldest event is dropped and
/// counted, so a long run keeps its most recent window.
#[derive(Debug, Default)]
pub(crate) struct TraceRing {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    pub(crate) const fn new() -> Self {
        TraceRing {
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, cap: usize, ev: TraceEvent) {
        if cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() >= cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render events as a Chrome `trace_event` JSON document.
///
/// Instantaneous events use `"ph":"i"`; compile stages render as complete
/// (`"ph":"X"`) events with their measured duration. Ticks are reported in
/// the `ts` microsecond field, so relative order (not wall time) is what
/// the Perfetto timeline shows. `labels[node]`, when present, names the
/// node in the event title.
pub(crate) fn chrome_trace_json(events: &[TraceEvent], labels: &[String]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        let mut name = String::new();
        let mut args = String::new();
        let mut phase = "i";
        let mut dur = 0u64;
        match &ev.kind {
            EventKind::NodeDispatch { node, productive } => {
                name.push_str("dispatch ");
                node_name(&mut name, *node, labels);
                let _ = write!(args, "\"node\":{node},\"productive\":{productive}");
            }
            EventKind::ChannelPush { chan } => {
                let _ = write!(name, "push chan {chan}");
                let _ = write!(args, "\"chan\":{chan}");
            }
            EventKind::Wake { node, cause } => {
                name.push_str("wake ");
                node_name(&mut name, *node, labels);
                let _ = write!(args, "\"node\":{node},\"cause\":\"{}\"", cause.name());
            }
            EventKind::SegmentFire { seg, stages } => {
                let _ = write!(name, "segment {seg}");
                let _ = write!(args, "\"seg\":{seg},\"stages\":{stages}");
            }
            EventKind::DramAccess {
                read_bytes,
                written_bytes,
            } => {
                name.push_str("dram");
                let _ = write!(
                    args,
                    "\"read_bytes\":{read_bytes},\"written_bytes\":{written_bytes}"
                );
            }
            EventKind::CompileStage { stage, micros } => {
                phase = "X";
                dur = (*micros).max(1);
                let _ = write!(name, "compile:{stage}");
                let _ = write!(args, "\"micros\":{micros}");
            }
        }
        out.push_str("{\"name\":\"");
        json_escape(&mut out, &name);
        let _ = write!(
            out,
            "\",\"cat\":\"{}\",\"ph\":\"{phase}\",\"ts\":{},\"pid\":0,\"tid\":{}",
            ev.kind.name(),
            ev.tick,
            ev.thread
        );
        if phase == "X" {
            let _ = write!(out, ",\"dur\":{dur}");
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        out.push_str(&args);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

fn node_name(out: &mut String, node: u32, labels: &[String]) {
    match labels.get(node as usize) {
        Some(l) if !l.is_empty() => out.push_str(l),
        _ => {
            let _ = write!(out, "node {node}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut r = TraceRing::new();
        for i in 0..5u64 {
            r.push(
                3,
                TraceEvent {
                    tick: i,
                    thread: 1,
                    kind: EventKind::ChannelPush { chan: 0 },
                },
            );
        }
        let ticks: Vec<u64> = r.events().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn chrome_json_escapes_and_shapes() {
        let events = vec![
            TraceEvent {
                tick: 0,
                thread: 1,
                kind: EventKind::NodeDispatch {
                    node: 0,
                    productive: true,
                },
            },
            TraceEvent {
                tick: 1,
                thread: 1,
                kind: EventKind::CompileStage {
                    stage: "parse",
                    micros: 12,
                },
            },
        ];
        let labels = vec!["a\"b".to_string()];
        let json = chrome_trace_json(&events, &labels);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("dispatch a\\\"b"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":12"));
    }
}
