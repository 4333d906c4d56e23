//! `fork` = the fork node (§V-A b, Fig. 9): each thread spawns `count`
//! copies of itself, live values duplicated, with no new hierarchy level —
//! so the continuation needs no reduce, and threads that `exit` in the
//! body simply never reach it.

use super::frame::Frame;
use super::{Carries, Cur, DfLower, Term};
use crate::CoreError;
use revet_machine::nodes::ForkNode;
use revet_mir::{Region, Value};

impl DfLower<'_> {
    pub(super) fn lower_fork(
        &mut self,
        frame: Frame<'_>,
        count: Value,
        body: &Region,
    ) -> Result<Cur, CoreError> {
        let out_tuple = frame.out_tuple();
        let at = frame.region(0);
        let in_tuple = frame.in_tuple;
        let cur = self.emit_block(&frame.pending, frame.cur, &in_tuple, "fork_in")?;
        let count = self.operand_in(&in_tuple, count, "fork")?;
        // Each spawn carries the parent's tuple plus its own index.
        let n = in_tuple.len() + 1;
        let spawned = self.chan(n, Carries::PerThread);
        let (node, category) = (ForkNode::new(count), self.category());
        let (ins, outs) = ([cur.chan], [spawned]);
        self.fixed("fork", "fork", category, n, node, ins, outs);
        let body_cur = Cur {
            chan: spawned,
            vars: [&in_tuple[..], &body.args[..1]].concat(),
        };
        let (out, term) = self.lower_ops(&body.ops, at, body_cur, &frame.passthrough)?;
        let vars = match term {
            // The body left [yields ++ passthrough]: the yields are the
            // fork's results.
            Term::Yield => out_tuple,
            Term::Exit => vec![],
            _ => return Err(CoreError::new("fork body must end in yield or exit")),
        };
        Ok(Cur {
            chan: out.chan,
            vars,
        })
    }
}
