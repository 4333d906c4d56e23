//! Scheduling a graph stays linear in its ports. A replicate's `rep.dist`
//! filter has one output per way, so a wide replicate is one stage with
//! tens of thousands of ports, and a pairwise scan of them made planning
//! quadratic. CI runs this suite under `--release`; the printed time is the
//! release build's.

use revet_machine::nodes::{EwNode, OutputSpec};
use revet_machine::{ChanId, Channel, ExecPlan, Graph};
use std::time::{Duration, Instant};

/// Ways of the synthetic filter: past 32 768, where a pairwise scan of
/// its outputs took the plan 378 ms.
const OUTPUTS: usize = 100_000;

#[test]
fn a_filter_with_a_hundred_thousand_outputs_plans_in_linear_time() {
    let mut g = Graph::new();
    let input = g.add_chan(Channel::new(1));
    let outs: Vec<ChanId> = (0..OUTPUTS).map(|_| g.add_chan(Channel::new(1))).collect();
    // Every way takes the thread its register 0 marks; the program is not
    // run, only scheduled.
    let way = OutputSpec::filtered([0], 0, true);
    let filter = EwNode::new(1, [], vec![way; OUTPUTS]);
    g.add_node("rep.dist", filter, [input], outs);

    let start = Instant::now();
    let plan = ExecPlan::build(&g);
    let took = start.elapsed();
    println!("planned a {OUTPUTS}-output filter in {took:?}");

    assert_eq!(plan.stats().fused_ew, 1, "the filter is a chained stage");
    assert!(
        took < Duration::from_millis(250),
        "planning a {OUTPUTS}-output filter took {took:?}: is a stage's port scan quadratic again?"
    );
}
