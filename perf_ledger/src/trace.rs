//! In-memory spans around the calls into each layer, recorded from outside
//! the layers, and the per-layer ledger computed from them.
//!
//! A run is cut into *sections* — the set-up sequence, each step of the
//! script, the teardown — and every execution of a section must open the
//! same spans in the same order, so span `k` of a section is one series over
//! passes. A series' floor is the benchmark's low quantile of its durations;
//! a span's *self* floor is its floor minus its children's floors, so the
//! self floors of a section add up to the floors of its root spans.

use crate::stats::floor_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Section ids: the set-up sequence, one per step of the script, the
/// teardown.
pub const SETUP: usize = 0;
pub const TEARDOWN: usize = usize::MAX;

pub fn step_section(step: usize) -> usize {
    1 + step
}

/// Handle to an open (or closed) span of the current section.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    pass: u32,
}

struct Series {
    name: &'static str,
    /// Index of the parent's series within the same section.
    parent: Option<usize>,
    durations_ns: Vec<u64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    section: usize,
    section_start: usize,
    pass: u32,
    series: BTreeMap<usize, Vec<Series>>,
}

impl Tracer {
    /// A tracer that records nothing: `begin`/`end` cost one branch.
    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    pub fn enabled() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            section: 0,
            section_start: 0,
            pass: 0,
            series: BTreeMap::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts one execution of `section` (spans opened until
    /// [`Tracer::end_section`] belong to it).
    pub fn begin_section(&mut self, section: usize, pass: u32) {
        self.section = section;
        self.section_start = self.spans.len();
        self.pass = pass;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let parent = self.stack.last().copied();
        self.open(name, parent)
    }

    /// Opens a span attributed to `parent`, which has already closed: a
    /// sub-call the parent makes internally, re-executed on the same inputs
    /// right after it so that the parent's self time excludes it. In the
    /// trace file it sits after its parent, not inside it.
    pub fn begin_under(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        self.open(name, Some(parent.0))
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            pass: self.pass,
        });
        self.stack.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0 as usize].end_ns = now;
    }

    /// A leaf span around `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// A leaf span around `f`, attributed to the closed span `parent`.
    pub fn span_under<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin_under(parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Files the section's spans into their series.
    pub fn end_section(&mut self) {
        if !self.enabled {
            return;
        }
        assert!(self.stack.is_empty(), "a section ended with an open span");
        let start = self.section_start;
        let fresh = &self.spans[start..];
        let series = self.series.entry(self.section).or_insert_with(|| {
            fresh
                .iter()
                .map(|s| Series {
                    name: s.name,
                    parent: s.parent.map(|p| p as usize - start),
                    durations_ns: Vec::new(),
                })
                .collect()
        });
        assert_eq!(series.len(), fresh.len(), "a section must repeat its spans");
        for (series, span) in series.iter_mut().zip(fresh) {
            assert_eq!(series.name, span.name, "a section must repeat its spans");
            series.durations_ns.push(span.end_ns - span.start_ns);
        }
    }

    /// The per-span floors, summed over sections by span name.
    pub fn ledger(&self) -> Ledger {
        let mut ledger = Ledger::default();
        for (&section, series) in &self.series {
            let in_step = section != SETUP && section != TEARDOWN;
            let floors: Vec<f64> = series
                .iter()
                .map(|s| floor_ns(&s.durations_ns) as f64 / 1e3)
                .collect();
            let mut self_us = floors.clone();
            for (s, floor) in series.iter().zip(&floors) {
                match s.parent {
                    Some(p) => self_us[p] -= floor,
                    None if in_step => *ledger.step_root_us.entry(s.name).or_default() += floor,
                    None => {}
                }
            }
            for (i, s) in series.iter().enumerate() {
                *ledger.total_us.entry(s.name).or_default() += floors[i];
                *ledger.self_us.entry(s.name).or_default() += self_us[i];
            }
        }
        ledger
    }

    /// Writes every span as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events in microseconds, `args` carrying the
    /// span's id, its parent's id and its pass.
    pub fn write_chrome_trace(&self, w: &mut impl Write, process: &str) -> std::io::Result<()> {
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"pass\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.pass
            )?;
        }
        writeln!(w, "]}}")
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Floors in microseconds, keyed by span name and summed over every section
/// the name appears in.
#[derive(Default)]
pub struct Ledger {
    total_us: BTreeMap<&'static str, f64>,
    self_us: BTreeMap<&'static str, f64>,
    step_root_us: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// The span's floor, children included. 0 when the span never ran.
    pub fn total_us(&self, name: &str) -> f64 {
        self.total_us.get(name).copied().unwrap_or(0.0)
    }

    /// The span's floor minus its children's floors.
    pub fn self_us(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0)
    }

    /// Sum, over the steps of one pass, of the floors of the parentless
    /// spans whose name `pick` accepts.
    pub fn step_roots_us(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.step_root_us
            .iter()
            .filter(|(name, _)| pick(name))
            .map(|(_, us)| us)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_floor_is_floor_minus_children() {
        let mut t = Tracer::enabled();
        for pass in 0..3 {
            t.begin_section(1, pass);
            let outer = t.begin("outer");
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.end(outer);
            t.span_under(outer, "replayed", || ());
            t.end_section();
        }
        let l = t.ledger();
        assert!(l.total_us("outer") >= l.total_us("inner"));
        let rebuilt = l.self_us("outer") + l.self_us("inner") + l.self_us("replayed");
        assert!((rebuilt - l.total_us("outer")).abs() < 1e-6);
        assert!((l.step_roots_us(|_| true) - l.total_us("outer")).abs() < 1e-6);
        assert_eq!(l.total_us("absent"), 0.0);

        let mut out = Vec::new();
        t.write_chrome_trace(&mut out, "test").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.begin_section(0, 0);
        let id = t.begin("x");
        t.end(id);
        t.end_section();
        assert_eq!(t.span_count(), 0);
    }
}
