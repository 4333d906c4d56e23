//! Per-op source spans, kept as a side-table beside each function.
//!
//! Ops themselves stay span-free (passes clone and rebuild them freely);
//! instead the front end records, per SSA value, the span of the surface
//! statement that produced the op defining it. Because passes reuse value
//! ids when they rewrite regions, the attribution survives optimization —
//! values synthesized by passes simply have no entry.

use crate::ops::{Op, Value};
use crate::table::ValueMap;
use revet_diag::Span;

/// `Value → Span` side-table: where in the source each SSA value's
/// defining op came from.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SpanTable {
    map: ValueMap<Span>,
}

impl SpanTable {
    /// An empty table.
    pub fn new() -> SpanTable {
        SpanTable::default()
    }

    /// Records (or overwrites) the span for a value.
    pub fn set(&mut self, v: Value, span: Span) {
        self.map.insert(v, span);
    }

    /// Records the span for a value unless one is already present —
    /// outer lowering layers use this to supply coarser fallbacks without
    /// clobbering finer inner attributions.
    pub fn set_if_absent(&mut self, v: Value, span: Span) {
        self.map.get_or_insert_with(v, || span);
    }

    /// The span recorded for a value, if any.
    pub fn get(&self, v: Value) -> Option<Span> {
        self.map.get(v).copied()
    }

    /// Best-effort span for an op: its first spanned result, else its
    /// first spanned operand (useful for result-less ops like stores).
    pub fn op_span(&self, op: &Op) -> Option<Span> {
        op.results
            .iter()
            .copied()
            .chain(op.kind.operands())
            .find_map(|v| self.get(v))
    }

    /// Removes the span recorded for a value (if any), returning it.
    /// Passes that delete a value's defining op call this so the table
    /// never points at values with no definition.
    pub fn remove(&mut self, v: Value) -> Option<Span> {
        self.map.remove(v)
    }

    /// Keeps only entries whose value satisfies the predicate — the bulk
    /// form of [`remove`](Self::remove) used by sweeps like DCE.
    pub fn retain(&mut self, mut keep: impl FnMut(Value) -> bool) {
        self.map.retain(|v, _| keep(v));
    }

    /// Iterates over the attributed values, in ascending order.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.map.keys()
    }

    /// Number of attributed values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no value is attributed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AluOp, OpKind, Results};

    #[test]
    fn set_get_and_fallback() {
        let mut t = SpanTable::new();
        t.set(Value(1), Span::new(10, 14));
        t.set_if_absent(Value(1), Span::new(0, 100));
        assert_eq!(t.get(Value(1)), Some(Span::new(10, 14)));
        t.set_if_absent(Value(2), Span::new(20, 21));
        assert_eq!(t.get(Value(2)), Some(Span::new(20, 21)));
        assert_eq!(t.get(Value(3)), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_and_retain() {
        let mut t = SpanTable::new();
        t.set(Value(1), Span::new(0, 1));
        t.set(Value(2), Span::new(2, 3));
        t.set(Value(3), Span::new(4, 5));
        assert_eq!(t.remove(Value(2)), Some(Span::new(2, 3)));
        assert_eq!(t.remove(Value(2)), None);
        t.retain(|v| v != Value(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.values().collect::<Vec<_>>(), vec![Value(1)]);
    }

    #[test]
    fn op_span_prefers_results_then_operands() {
        let mut t = SpanTable::new();
        t.set(Value(5), Span::new(1, 2));
        t.set(Value(9), Span::new(7, 9));
        // Result attributed: wins.
        let op = Op {
            kind: OpKind::Bin(AluOp::Add, Value(5), Value(6)),
            results: [Value(9)].into(),
        };
        assert_eq!(t.op_span(&op), Some(Span::new(7, 9)));
        // Result-less store: falls back to the spanned operand.
        let store = Op {
            kind: OpKind::Bin(AluOp::Add, Value(5), Value(6)),
            results: Results::default(),
        };
        assert_eq!(t.op_span(&store), Some(Span::new(1, 2)));
        let cold = Op {
            kind: OpKind::Bin(AluOp::Add, Value(6), Value(7)),
            results: Results::default(),
        };
        assert_eq!(t.op_span(&cold), None);
    }
}
