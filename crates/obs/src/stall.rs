//! Stall attribution, per node. Every time a scheduler steps a node and it
//! makes no progress (or defers it without stepping), the executor
//! classifies *why*. The four classes mirror the ways a Revet context can
//! be gated:
//!
//! * **input-starved** — some input channel has no tokens to consume;
//! * **output-full** — every input is ready but an output link holds as
//!   many tokens as its buffer depth (the timed simulator's; untimed links
//!   are unbounded);
//! * **allocator-gated** — I/O is ready but the node blocks on an
//!   allocator queue that has not produced a pointer;
//! * **DRAM-gated** — the timed simulator deferred an address generator
//!   because the cycle's DRAM token bucket is empty.

use crate::tally::Layout;

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

/// Number of [`StallClass`] variants (row width of the stall tally).
pub const STALL_CLASSES: usize = 4;

impl StallClass {
    /// Every class, in column order (`class as usize` is its column).
    pub const ALL: [StallClass; STALL_CLASSES] = [
        StallClass::InputStarved,
        StallClass::OutputFull,
        StallClass::AllocGated,
        StallClass::DramGated,
    ];

    /// Stable snake-case name, the suffix of its `exec.stalls.*` counter.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::InputStarved => "input_starved",
            StallClass::OutputFull => "output_full",
            StallClass::AllocGated => "alloc_gated",
            StallClass::DramGated => "dram_gated",
        }
    }
}

/// The top-stalls table: one row per node, named by its label.
pub(crate) static STALLS: Layout<STALL_CLASSES> = Layout {
    key: "node",
    key_width: 28,
    classes: ["input-starv", "output-full", "alloc-gated", "dram-gated"],
    width: 12,
    name: |id, label| match label {
        "" => format!("#{id}"),
        label => format!("{label} (#{id})"),
    },
    none: "(no stalls recorded)",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::Tally;

    #[test]
    fn record_merge_and_top_ordering() {
        let mut a = Tally::new(&STALLS);
        a.record(0, StallClass::InputStarved as usize);
        a.record(2, StallClass::OutputFull as usize);
        a.record(2, StallClass::OutputFull as usize);
        // Records of one node merge into its row, class by class.
        a.record(2, StallClass::DramGated as usize);
        a.record(5, StallClass::AllocGated as usize);
        let top = a.top(10);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].id, 2);
        assert_eq!(top[0].counts, [0, 2, 0, 1]);
        assert_eq!(top[0].total(), 3);
        // Ties (node 0 and node 5 both total 1) break by node id.
        assert_eq!(top[1].id, 0);
        assert_eq!(top[2].id, 5);
        // Limit truncates.
        assert_eq!(a.top(1).len(), 1);
        assert_eq!(a.totals(), [1, 2, 1, 1]);
        a.assert_top_invariants();
    }

    #[test]
    fn render_includes_labels_and_header() {
        let empty = Tally::new(&STALLS);
        assert_eq!(
            empty.render(10, &[]),
            "\
node                                total  input-starv  output-full  alloc-gated   dram-gated
(no stalls recorded)
"
        );
        let mut t = Tally::new(&STALLS);
        for (id, class) in [
            (0, StallClass::InputStarved),
            (2, StallClass::OutputFull),
            (2, StallClass::OutputFull),
            (2, StallClass::DramGated),
            (5, StallClass::AllocGated),
            (7, StallClass::InputStarved),
        ] {
            t.record(id, class as usize);
        }
        let labels: Vec<String> = [
            "src",
            "",
            "main.filter",
            "",
            "",
            "a.very.long.context.label.that.overflows",
        ]
        .map(String::from)
        .into();
        // Unlabelled ids print as `#id`; long labels are cut to the column.
        assert_eq!(
            t.render(10, &labels),
            "\
node                                total  input-starv  output-full  alloc-gated   dram-gated
main.filter (#2)                        3            0            2            0            1
src (#0)                                1            1            0            0            0
a.very.long.context.label...            1            0            0            1            0
#7                                      1            1            0            0            0
"
        );
    }
}
