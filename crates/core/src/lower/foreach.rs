//! `foreach` = counter + broadcast + reduce + zip (§V-C c, Fig. 8): a
//! counter expands each parent thread into its iterations, the body's
//! live-ins are broadcast onto them, a reduce folds the yields back to
//! parent level, and the result re-joins the parent tuple that bypassed
//! the body.

use super::frame::{dedup, slots_of, Frame};
use super::{Carries, Cur, DfLower, Term};
use crate::CoreError;
use revet_machine::instr::{AluOp, Reg};
use revet_machine::nodes::{EwNode, OutputSpec};
use revet_machine::UnitClass;
use revet_mir::{Region, Value};
use std::sync::Arc;

impl DfLower<'_> {
    pub(super) fn lower_foreach(
        &mut self,
        frame: Frame<'_>,
        bounds: [Value; 3],
        body: &Region,
        reduce: &[AluOp],
    ) -> Result<Cur, CoreError> {
        if reduce.len() > 1 {
            return Err(CoreError::new(
                "foreach with more than one reduction is not supported",
            ));
        }
        let out_tuple = frame.out_tuple();
        let index = body.args[0];
        let at = frame.region(0);
        // A bound rides into the body only if the body itself reads it.
        let mut live_in = frame.free;
        live_in.retain(|v| !bounds.contains(v) || self.uses.reads(at, *v));
        // Parent tuple entering the counter: bounds, live-ins, passthrough.
        let mut in_tuple: Vec<Value> = bounds.to_vec();
        in_tuple.retain(|v| !self.consts.contains_key(*v));
        in_tuple.extend(live_in.iter().chain(&frame.passthrough));
        let in_tuple = dedup(in_tuple);
        let cur = self.emit_block(&frame.pending, frame.cur, &in_tuple, "fe_in")?;
        let [lo, hi, step] = bounds;
        let bounds = [
            self.operand_in(&in_tuple, lo, "foreach")?,
            self.operand_in(&in_tuple, hi, "foreach")?,
            self.operand_in(&in_tuple, step, "foreach")?,
        ];
        let (child, parent) = self.counter("foreach.counter", &cur, bounds);
        self.depth += 1;
        let (body_cur, bypass) = if live_in.is_empty() {
            let vars = vec![index];
            (Cur { chan: child, vars }, parent)
        } else {
            // Split the parent into a data-only broadcast feed (one tuple
            // per parent thread) and the bypass, then broadcast the feed
            // onto the children.
            let n = in_tuple.len() as Reg;
            let feed = self.chan(live_in.len(), Carries::PerParent);
            let bypass = self.chan(in_tuple.len(), Carries::PerThread);
            let outputs = [
                OutputSpec::stripped(slots_of(&in_tuple, &live_in, "foreach")?),
                OutputSpec::plain((0..n).collect::<Arc<[Reg]>>()),
            ];
            let split = EwNode::new(n, [], outputs);
            let (unit, category) = (UnitClass::Compute, self.category());
            let (ins, outs) = ([parent], [feed, bypass]);
            self.ew_into("foreach.split", "ew", unit, category, split, ins, outs);
            let chan = self.broadcast("foreach.bcast", feed, child, 1 + live_in.len());
            let vars = [&[index], &live_in[..]].concat();
            (Cur { chan, vars }, bypass)
        };
        let (body_out, term) = self.lower_ops(&body.ops, at, body_cur, &[])?;
        if !matches!(term, Term::Yield | Term::Exit) {
            return Err(CoreError::new("foreach body must end in yield or exit"));
        }
        // Even when every iteration exits, the reduce sees the barriers.
        let reduced = self.reduce("foreach.reduce", body_out.chan, reduce.first().copied());
        self.depth -= 1;
        // Zip the reduced result with the parent bypass.
        let vars = [frame.results, &in_tuple].concat();
        let zip = EwNode::passthrough(vars.len() as u16);
        let (unit, category) = (UnitClass::Compute, self.category());
        let chan = self.ew("foreach.join", unit, category, zip, [reduced, bypass]);
        self.emit_block(&[], Cur { chan, vars }, &out_tuple, "fe_out")
    }
}
