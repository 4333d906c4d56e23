//! Per-node stall attribution.
//!
//! Every time a scheduler steps a node and it makes no progress (or defers
//! it without stepping), the executor classifies *why* and records it here.
//! The four classes mirror the ways a Revet context can be gated:
//!
//! * **input-starved** — some input channel has no tokens to consume;
//! * **output-full** — every input is ready but an output link holds as
//!   many tokens as its buffer depth (the timed simulator's; untimed links
//!   are unbounded);
//! * **allocator-gated** — I/O is ready but the node blocks on an
//!   allocator queue that has not produced a pointer;
//! * **DRAM-gated** — the timed simulator deferred an address generator
//!   because the cycle's DRAM token bucket is empty.

use std::fmt::Write as _;

/// Why a node failed to make progress when the scheduler visited it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallClass {
    /// An input channel had no tokens.
    InputStarved,
    /// An output link held its buffer depth (timed simulator only).
    OutputFull,
    /// The node blocks on an allocator queue with no pointer available.
    AllocGated,
    /// The simulator's DRAM token bucket was exhausted this cycle.
    DramGated,
}

/// Number of [`StallClass`] variants (row width of the table).
pub const STALL_CLASSES: usize = 4;

impl StallClass {
    /// Dense row index.
    pub fn index(self) -> usize {
        match self {
            StallClass::InputStarved => 0,
            StallClass::OutputFull => 1,
            StallClass::AllocGated => 2,
            StallClass::DramGated => 3,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::InputStarved => "input-starved",
            StallClass::OutputFull => "output-full",
            StallClass::AllocGated => "alloc-gated",
            StallClass::DramGated => "dram-gated",
        }
    }
}

/// One row of the rendered top-stalls table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallRow {
    /// Graph node id.
    pub node: u32,
    /// Per-class stall counts, indexed by [`StallClass::index`].
    pub counts: [u64; STALL_CLASSES],
}

impl StallRow {
    /// Sum across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Dense per-node stall counts, grown on demand.
#[derive(Debug, Default)]
pub(crate) struct StallTable {
    rows: Vec<[u64; STALL_CLASSES]>,
}

impl StallTable {
    pub(crate) const fn new() -> Self {
        StallTable { rows: Vec::new() }
    }

    pub(crate) fn record(&mut self, node: u32, class: StallClass) {
        let idx = node as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, [0; STALL_CLASSES]);
        }
        self.rows[idx][class.index()] += 1;
    }

    /// Non-zero rows sorted by total stalls, descending (ties by node id).
    pub(crate) fn top(&self, limit: usize) -> Vec<StallRow> {
        let mut rows: Vec<StallRow> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, c)| c.iter().any(|&n| n != 0))
            .map(|(node, counts)| StallRow {
                node: node as u32,
                counts: *counts,
            })
            .collect();
        rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.node.cmp(&b.node)));
        rows.truncate(limit);
        rows
    }
}

/// Render a sorted top-stalls table; `labels[node]` names nodes when known.
pub(crate) fn render_top_stalls(rows: &[StallRow], labels: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "node", "total", "input-starv", "output-full", "alloc-gated", "dram-gated"
    );
    if rows.is_empty() {
        let _ = writeln!(out, "(no stalls recorded)");
        return out;
    }
    for row in rows {
        let name = match labels.get(row.node as usize) {
            Some(l) if !l.is_empty() => format!("{} (#{})", l, row.node),
            _ => format!("#{}", row.node),
        };
        let mut name = name;
        if name.len() > 28 {
            name.truncate(25);
            name.push_str("...");
        }
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>12} {:>12} {:>12}",
            name,
            row.total(),
            row.counts[0],
            row.counts[1],
            row.counts[2],
            row.counts[3]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merge_and_top_ordering() {
        let mut a = StallTable::new();
        a.record(0, StallClass::InputStarved);
        a.record(2, StallClass::OutputFull);
        a.record(2, StallClass::OutputFull);
        // Records of one node merge into its row, class by class.
        a.record(2, StallClass::DramGated);
        a.record(5, StallClass::AllocGated);
        let top = a.top(10);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].node, 2);
        assert_eq!(top[0].counts, [0, 2, 0, 1]);
        assert_eq!(top[0].total(), 3);
        // Ties (node 0 and node 5 both total 1) break by node id.
        assert_eq!(top[1].node, 0);
        assert_eq!(top[2].node, 5);
        // Limit truncates.
        assert_eq!(a.top(1).len(), 1);
    }

    #[test]
    fn render_includes_labels_and_header() {
        let mut t = StallTable::new();
        t.record(1, StallClass::InputStarved);
        let rendered =
            render_top_stalls(&t.top(10), &["src".to_string(), "main.filter".to_string()]);
        assert!(rendered.contains("main.filter (#1)"));
        assert!(rendered.contains("input-starv"));
        let empty = render_top_stalls(&[], &[]);
        assert!(empty.contains("no stalls recorded"));
    }
}
