//! `if` = filter + forward merge (§V-C a, Fig. 8): the live tuple is
//! filtered on the condition onto two branch pipelines, and their
//! `results ++ passthrough` tuples merge back into one stream.

use super::frame::{Frame, RegionId};
use super::{Carries, Cur, DfLower, Term};
use crate::CoreError;
use revet_machine::instr::Reg;
use revet_machine::ChanId;
use revet_mir::{Region, Value};

impl DfLower<'_> {
    pub(super) fn lower_if(
        &mut self,
        frame: Frame<'_>,
        cond: Value,
        then: &Region,
        else_: &Region,
    ) -> Result<Cur, CoreError> {
        let out_tuple = frame.out_tuple();
        let (then_at, else_at) = (frame.region(0), frame.region(1));
        let (in_tuple, passthrough) = (frame.in_tuple, frame.passthrough);
        let cur = self.emit_block(&frame.pending, frame.cur, &in_tuple, "if_in")?;
        let cond = self.operand_in(&in_tuple, cond, "if")?;
        let all = (0..in_tuple.len() as Reg).collect();
        let (on_then, on_else) = self.filter("if.filter", &cur, cond, all);
        let mut branch = |region: &Region, at: RegionId, chan: ChanId| {
            let cur = Cur {
                chan,
                vars: in_tuple.clone(),
            };
            let (out, term) = self.lower_ops(&region.ops, at, cur, &passthrough)?;
            match term {
                Term::Yield => Ok(out.chan),
                Term::Exit => {
                    // Every thread of this side is gone; the merge still
                    // needs its barriers.
                    let barriers = self.chan(out_tuple.len(), Carries::BarriersOnly);
                    self.drop_all("exit.drop", out.chan, barriers, out_tuple.len());
                    Ok(barriers)
                }
                _ => Err(CoreError::new("if branch must end in yield or exit")),
            }
        };
        let sides = [
            branch(then, then_at, on_then)?,
            branch(else_, else_at, on_else)?,
        ];
        let category = self.category();
        let merged = self.fwd_merge("if.merge", category, sides, out_tuple.len());
        Ok(Cur {
            chan: merged,
            vars: out_tuple,
        })
    }
}
