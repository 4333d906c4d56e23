//! Per-link bound attribution.
//!
//! The timed simulator gives every port a per-cycle budget: its link's
//! class bandwidth (§III-C), or an address generator's issue cap. A fire
//! that spends the whole budget of a port is productive, so the stall table
//! never sees it; yet that link is what keeps the context from moving more.
//! The simulator records each such port here, once per cycle at most (a
//! context fires at most once per cycle), on the link's producer side
//! (`push`) or consumer side (`pop`).

use std::fmt::Write as _;

/// Which end of a link spent its whole per-cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundPort {
    /// The producer's output port.
    Push,
    /// The consumer's input port.
    Pop,
}

/// One row of the rendered top-bound-links table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundRow {
    /// Channel id.
    pub chan: u32,
    /// Cycles on which the producer's port was bound.
    pub push: u64,
    /// Cycles on which the consumer's port was bound.
    pub pop: u64,
}

impl BoundRow {
    /// Both sides together.
    pub fn total(&self) -> u64 {
        self.push + self.pop
    }
}

/// Dense per-channel bound counts, grown on demand.
#[derive(Debug, Default)]
pub(crate) struct BoundTable {
    rows: Vec<[u64; 2]>,
}

impl BoundTable {
    pub(crate) const fn new() -> Self {
        BoundTable { rows: Vec::new() }
    }

    pub(crate) fn record(&mut self, chan: u32, port: BoundPort) {
        let idx = chan as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, [0; 2]);
        }
        self.rows[idx][port as usize] += 1;
    }

    /// Non-zero rows sorted by total bound cycles, descending (ties by
    /// channel id).
    pub(crate) fn top(&self, limit: usize) -> Vec<BoundRow> {
        let mut rows: Vec<BoundRow> = (0..)
            .zip(&self.rows)
            .filter(|(_, c)| c[0] + c[1] != 0)
            .map(|(chan, c)| BoundRow {
                chan,
                push: c[0],
                pop: c[1],
            })
            .collect();
        rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.chan.cmp(&b.chan)));
        rows.truncate(limit);
        rows
    }
}

/// Render a sorted top-bound-links table; `labels[chan]` names links when
/// known.
pub(crate) fn render_top_bound(rows: &[BoundRow], labels: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>10} {:>10} {:>10}",
        "link", "total", "push", "pop"
    );
    if rows.is_empty() {
        let _ = writeln!(out, "(no bound links recorded)");
        return out;
    }
    for row in rows {
        let mut name = match labels.get(row.chan as usize) {
            Some(l) if !l.is_empty() => format!("ch{} {l}", row.chan),
            _ => format!("ch{}", row.chan),
        };
        if name.len() > 52 {
            name.truncate(49);
            name.push_str("...");
        }
        let _ = writeln!(
            out,
            "{:<52} {:>10} {:>10} {:>10}",
            name,
            row.total(),
            row.push,
            row.pop
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merge_and_top_ordering() {
        let mut a = BoundTable::new();
        a.record(3, BoundPort::Push);
        a.record(3, BoundPort::Pop);
        a.record(1, BoundPort::Pop);
        // Records of one link merge into its row, port by port.
        a.record(3, BoundPort::Push);
        let top = a.top(10);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].chan, top[0].push, top[0].pop), (3, 2, 1));
        assert_eq!((top[1].chan, top[1].push, top[1].pop), (1, 0, 1));
        assert_eq!(a.top(1).len(), 1);
    }

    #[test]
    fn render_names_links() {
        let mut t = BoundTable::new();
        t.record(1, BoundPort::Push);
        let labels = ["".to_string(), "rep.merge7 -> rep.free9".to_string()];
        let rendered = render_top_bound(&t.top(10), &labels);
        assert!(rendered.contains("ch1 rep.merge7 -> rep.free9"));
        assert!(render_top_bound(&[], &[]).contains("no bound links recorded"));
    }
}
