//! `while` = fb-merge head + filter + backedge + flatten (§V-C b, Fig. 8):
//! threads enter through a forward-backward merge, the `before` region
//! computes the condition, a filter sends them round the body and back or
//! out through a flatten that strips the loop's barrier level. The
//! recirculating tuple is sub-word packed (§V-B d) when that is enabled.

use super::frame::{slot_of, slots_of, Frame};
use super::{Category, Cur, DfLower, Term};
use crate::CoreError;
use revet_machine::instr::Operand;
use revet_machine::nodes::EwNode;
use revet_machine::UnitClass;
use revet_mir::{Region, Value};

impl DfLower<'_> {
    pub(super) fn lower_while(
        &mut self,
        frame: Frame<'_>,
        inits: &[Value],
        before: &Region,
        after: &Region,
    ) -> Result<Cur, CoreError> {
        let exit_tuple = frame.out_tuple();
        let (before_at, after_at) = (frame.region(0), frame.region(1));
        let passthrough = &frame.passthrough;
        // Loop-invariant captures ride the tuple too (no cross-wave
        // broadcast inside a recirculating region). An init value normally
        // rides only its carried slot, renamed to the region arg at the
        // body head; but if a region also names it directly — through a
        // pre-loop alias of a reassigned variable, say — that use means
        // "the value from before the loop" on every iteration, so it
        // needs an invariant slot as well.
        let invariant = frame.free.iter().copied().filter(|v| {
            let direct = || self.uses.reads(before_at, *v) || self.uses.reads(after_at, *v);
            !passthrough.contains(v) && (!inits.contains(v) || direct())
        });
        // Every tuple round the loop is `carried ++ invariant ++ passthrough`,
        // the carried part under the name it has at that point.
        let rest: Vec<Value> = invariant.chain(passthrough.iter().copied()).collect();
        let with_rest = |carried: &[Value]| [carried, &rest].concat();
        let cur = self.emit_block(&frame.pending, frame.cur, &with_rest(inits), "loop_in")?;
        let loop_tuple = with_rest(&before.args);
        let packing = self.pack_layout(&loop_tuple);
        let fwd = match &packing {
            Some(pack) => self.emit_pack(cur, pack),
            None => cur,
        };
        let arity = fwd.vars.len();
        let (body_chan, back_chan) = self.fb_merge("while.head", fwd.chan, arity);
        // One deadlock-avoidance buffer MU per recirculating region.
        self.buffer_mu(Category::Deadlock, "while.buf");
        self.depth += 1;
        let head = match &packing {
            Some(pack) => self.emit_unpack(body_chan, &loop_tuple, pack),
            None => Cur {
                chan: body_chan,
                vars: loop_tuple,
            },
        };
        // `before` leaves [cond, fwd…, invariant…, passthrough…].
        let (cond_cur, term) = self.lower_ops(&before.ops, before_at, head, &rest)?;
        let Term::Condition(cond, fwd_vals) = term else {
            return Err(CoreError::new("while before-region must end in condition"));
        };
        let cond = slot_of(&cond_cur.vars, cond, "while condition")?;
        let slots = slots_of(&cond_cur.vars, &with_rest(&fwd_vals), "while condition")?;
        let width = slots.len();
        let (body_path, exit_path) =
            self.filter("while.filter", &cond_cur, Operand::Reg(cond), slots.into());
        // Body: `after`'s args are bound positionally to the forwarded values.
        let body_cur = Cur {
            chan: body_path,
            vars: with_rest(&after.args),
        };
        let (body_out, term) = self.lower_ops(&after.ops, after_at, body_cur, &rest)?;
        match term {
            Term::Yield => {
                let back = match &packing {
                    Some(pack) => self.emit_pack(body_out, pack),
                    None => body_out,
                };
                let (unit, category) = (UnitClass::Compute, self.category());
                let hop = EwNode::passthrough(arity as u16);
                let (ins, outs) = ([back.chan], [back_chan]);
                self.ew_into("while.back", "ew", unit, category, hop, ins, outs);
            }
            // All threads exit: the backedge still needs barriers.
            Term::Exit => self.drop_all("while.back.drop", body_out.chan, back_chan, arity),
            _ => return Err(CoreError::new("while body must end in yield or exit")),
        }
        self.depth -= 1;
        // Exit edge: strip one barrier level, name the forwarded values as
        // the op's results and drop the invariants.
        let exit = Cur {
            chan: self.flatten("while.exit", exit_path, width),
            vars: with_rest(frame.results),
        };
        self.emit_block(&[], exit, &exit_tuple, "while_out")
    }
}
