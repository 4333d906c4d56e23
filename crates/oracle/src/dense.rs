//! The dense-sweep oracle.
//!
//! [`run_dense`] is the simplest scheduler that can run a graph: every
//! round steps every node, until a whole round makes no progress. It is
//! deliberately written against the public stepping surface
//! ([`Graph::step_node`], [`Graph::stuck_channels`]) and shares none of
//! [`Graph::run`]'s scheduling — no worklist, no wake-ups, no seeding
//! rule, its own verdict — so every differential suite (`scheduler_equiv`,
//! the apps' `plan_differential` and `opt_differential`, the fuzz
//! oracle's dense lanes) holds the one shipped scheduler against it.
//!
//! Every step also checks the precondition the cycle-level simulator
//! elides steps on: a node [`Graph::starved`] reports starved returns
//! `Ok(false)`. So every differential suite checks it for free.

use revet_machine::{ExecReport, Graph, MachineError, NodeId, NodeSlot, PortBudget};

/// Runs `g` one-shot by dense sweeps. Semantically equivalent to
/// `g.run(RunOptions::new(max_rounds))`, with the same error texts;
/// `rounds` counts sweeps and `steps` is `rounds × nodes`.
///
/// # Errors
///
/// A node protocol error, the round cap, or the deadlock diagnosis.
pub fn run_dense(g: &mut Graph, max_rounds: u64) -> Result<ExecReport, MachineError> {
    let n = g.node_count();
    let widest = |ports: fn(&NodeSlot) -> usize| g.nodes().iter().map(ports).max().unwrap_or(0);
    let mut ib = vec![PortBudget::UNLIMITED; widest(|s| s.ins.len())];
    let mut ob = vec![PortBudget::UNLIMITED; widest(|s| s.outs.len())];
    let mut report = ExecReport::default();
    loop {
        if report.rounds >= max_rounds {
            return Err(MachineError::new(format!(
                "no quiescence after {max_rounds} rounds (livelock or huge workload)"
            )));
        }
        report.rounds += 1;
        // Every node is "ready" in a dense sweep.
        report.peak_ready = n as u64;
        let mut any = false;
        for i in 0..n {
            let id = NodeId(i as u32);
            let (n_in, n_out) = (g.node(id).ins.len(), g.node(id).outs.len());
            ib[..n_in].fill(PortBudget::UNLIMITED);
            ob[..n_out].fill(PortBudget::UNLIMITED);
            report.steps += 1;
            let starved = g.starved(id);
            let result = g.step_node(id, &mut ib[..n_in], &mut ob[..n_out], None);
            // The precondition the simulator elides steps on: a starved
            // node's rule moves nothing and raises nothing.
            assert!(
                !starved || matches!(result, Ok(false)),
                "node '{}' was starved but its rule returned {result:?}",
                g.node(id).label()
            );
            if result? {
                any = true;
                report.productive_steps += 1;
            }
        }
        if !any {
            break;
        }
    }
    let stuck = g.stuck_channels();
    if !stuck.is_empty() {
        return Err(MachineError::new(format!(
            "deadlock at quiescence: {}",
            stuck.join("; ")
        )));
    }
    Ok(report)
}
