//! Bound attribution, per link. The timed simulator gives every port a
//! per-cycle budget: its link's class bandwidth (§III-C), or an address
//! generator's issue cap. A fire that spends the whole budget of a port is
//! productive, so the stall tally never sees it; yet that link is what
//! keeps the context from moving more. The simulator records each such
//! port, once per cycle at most (a context fires at most once per cycle),
//! on the link's producer side (`push`) or consumer side (`pop`).

use crate::tally::Layout;

/// Which end of a link spent its whole per-cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundPort {
    /// The producer's output port.
    Push,
    /// The consumer's input port.
    Pop,
}

/// Number of [`BoundPort`] variants (row width of the bound tally).
pub const BOUND_PORTS: usize = 2;

/// The top-bound-links table: one row per channel, named by its link.
pub(crate) static BOUNDS: Layout<BOUND_PORTS> = Layout {
    key: "link",
    key_width: 52,
    classes: ["push", "pop"],
    width: 10,
    name: |id, label| match label {
        "" => format!("ch{id}"),
        label => format!("ch{id} {label}"),
    },
    none: "(no bound links recorded)",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::Tally;

    #[test]
    fn record_merge_and_top_ordering() {
        let mut a = Tally::new(&BOUNDS);
        a.record(3, BoundPort::Push as usize);
        a.record(3, BoundPort::Pop as usize);
        a.record(1, BoundPort::Pop as usize);
        // Records of one link merge into its row, port by port.
        a.record(3, BoundPort::Push as usize);
        let top = a.top(10);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].id, top[0].counts), (3, [2, 1]));
        assert_eq!((top[1].id, top[1].counts), (1, [0, 1]));
        assert_eq!(a.top(1).len(), 1);
        assert_eq!(a.totals(), [2, 2]);
        a.assert_top_invariants();
    }

    #[test]
    fn render_names_links() {
        let empty = Tally::new(&BOUNDS);
        assert_eq!(
            empty.render(10, &[]),
            "\
link                                                      total       push        pop
(no bound links recorded)
"
        );
        let mut t = Tally::new(&BOUNDS);
        for (id, port) in [
            (3, BoundPort::Push),
            (3, BoundPort::Push),
            (3, BoundPort::Pop),
            (1, BoundPort::Pop),
            (4, BoundPort::Push),
        ] {
            t.record(id, port as usize);
        }
        let labels: Vec<String> = [
            "",
            "rep.merge7 -> rep.free9",
            "",
            "",
            "while.filter29,while.head26 -> blk30,while.exit37 [vector]",
        ]
        .map(String::from)
        .into();
        // Unlabelled links print as `chN`; long labels are cut to the column.
        assert_eq!(
            t.render(10, &labels),
            "\
link                                                      total       push        pop
ch3                                                           3          2          1
ch1 rep.merge7 -> rep.free9                                   1          0          1
ch4 while.filter29,while.head26 -> blk30,while.ex...          1          1          0
"
        );
    }
}
