//! Per-id attribution: one dense tally type, counting each id (a node or a
//! link) by the class of a fixed set it was recorded under, read back as a
//! sorted, labelled table. Two class sets are tallied: stalls per node
//! ([`StallClass`](crate::StallClass), `stall.rs`) and bound ports per link
//! ([`BoundPort`](crate::BoundPort), `bound.rs`); each module holds its
//! class enum and the static [`Layout`] its table is rendered with.

use std::fmt::Write as _;

/// One row of a tally: an id and its per-class counts, indexed by
/// `class as usize`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TallyRow<const K: usize> {
    /// Node id (stall tally) or channel id (bound tally).
    pub id: u32,
    /// Per-class counts.
    pub counts: [u64; K],
}

impl<const K: usize> TallyRow<K> {
    /// Sum across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// How a tally's table reads: the id column's title and width, the class
/// columns' titles and width, how a row's id is named, and the line an
/// empty table prints.
#[derive(Debug)]
pub(crate) struct Layout<const K: usize> {
    pub(crate) key: &'static str,
    pub(crate) key_width: usize,
    pub(crate) classes: [&'static str; K],
    pub(crate) width: usize,
    pub(crate) name: fn(u32, &str) -> String,
    pub(crate) none: &'static str,
}

/// Dense per-id counts over `K` classes, grown on demand.
#[derive(Debug)]
pub(crate) struct Tally<const K: usize> {
    rows: Vec<[u64; K]>,
    layout: &'static Layout<K>,
}

impl<const K: usize> Tally<K> {
    pub(crate) const fn new(layout: &'static Layout<K>) -> Self {
        Tally {
            rows: Vec::new(),
            layout,
        }
    }

    pub(crate) fn record(&mut self, id: u32, class: usize) {
        let idx = id as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, [0; K]);
        }
        self.rows[idx][class] += 1;
    }

    /// At most `limit` non-zero rows, sorted by total, descending (ties by
    /// id).
    pub(crate) fn top(&self, limit: usize) -> Vec<TallyRow<K>> {
        let mut rows: Vec<TallyRow<K>> = (0..)
            .zip(&self.rows)
            .map(|(id, &counts)| TallyRow { id, counts })
            .filter(|row| row.total() != 0)
            .collect();
        rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.id.cmp(&b.id)));
        rows.truncate(limit);
        rows
    }

    /// Per-class sums over every id.
    pub(crate) fn totals(&self) -> [u64; K] {
        let mut sums = [0; K];
        for row in &self.rows {
            for (sum, n) in sums.iter_mut().zip(row) {
                *sum += n;
            }
        }
        sums
    }

    /// The `limit` top rows as aligned text; `labels[id]` names an id when
    /// known.
    pub(crate) fn render(&self, limit: usize, labels: &[String]) -> String {
        let &Layout {
            key,
            key_width,
            classes,
            width,
            name,
            none,
        } = self.layout;
        let mut out = format!("{key:<key_width$}");
        for title in ["total"].iter().chain(&classes) {
            let _ = write!(out, " {title:>width$}");
        }
        out.push('\n');
        let rows = self.top(limit);
        if rows.is_empty() {
            let _ = writeln!(out, "{none}");
        }
        for row in rows {
            let label = labels.get(row.id as usize).map_or("", String::as_str);
            let mut id = name(row.id, label);
            if id.len() > key_width {
                id.truncate(key_width - 3);
                id.push_str("...");
            }
            let _ = write!(out, "{id:<key_width$}");
            for n in [row.total()].iter().chain(&row.counts) {
                let _ = write!(out, " {n:>width$}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
impl<const K: usize> Tally<K> {
    /// Checks what every table relies on: zero rows are filtered, rows
    /// sort by total descending (ties by id), `totals()` is the column sum
    /// of the rows and a limit truncates.
    pub(crate) fn assert_top_invariants(&self) {
        let rows = self.top(usize::MAX);
        assert!(
            rows.iter().all(|row| row.total() != 0),
            "zero rows filtered"
        );
        assert!(
            rows.windows(2)
                .all(|w| (std::cmp::Reverse(w[0].total()), w[0].id)
                    < (std::cmp::Reverse(w[1].total()), w[1].id)),
            "sorted by total descending, ties by id"
        );
        let mut sums = [0; K];
        for row in &rows {
            for (sum, n) in sums.iter_mut().zip(row.counts) {
                *sum += n;
            }
        }
        assert_eq!(self.totals(), sums);
        assert_eq!(self.top(1)[..], rows[..rows.len().min(1)]);
    }
}
