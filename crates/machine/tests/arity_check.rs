//! A channel checks tuple width on every slot write, in every build
//! profile. Slots are fixed-width windows of one slab, so a wrong-width
//! tuple must stop the run where it is written instead of being carried —
//! CI runs this suite under `--release`, the profile `revet-serve` ships
//! in, where a `debug_assert!` would say nothing. A fused edge of the
//! execution plan has no slot write, so its width is checked when the plan
//! is built.

use revet_machine::nodes::EwNode;
use revet_machine::{tbar, tdata, Channel, Graph, RunOptions};
use revet_oracle::dense::run_dense;

#[test]
#[should_panic(expected = "tuple arity mismatch on channel (expected 1, got 2)")]
fn owned_push_of_a_wide_tuple_panics() {
    Channel::new(1).push(tdata([1u32, 2]));
}

#[test]
#[should_panic(expected = "tuple arity mismatch on channel (expected 3, got 0)")]
fn owned_push_of_a_void_tuple_on_a_wide_link_panics() {
    Channel::new(3).push(tdata::<[u32; 0], u32>([]));
}

#[test]
#[should_panic(expected = "tuple arity mismatch on channel (expected 2, got 1)")]
fn slot_write_of_the_wrong_width_panics() {
    Channel::new(2).push_slot(1);
}

/// A pass-through(1) stage with one thread queued on its input and its
/// output link mis-sized to two words: what a lowering bug would produce.
fn mis_sized_link() -> Graph {
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let b = g.add_chan(Channel::new(2));
    g.add_node("stage", EwNode::passthrough(1), [a], [b]);
    g.chan_mut(a).push(tdata([7u32]));
    g.chan_mut(a).push(tbar(1));
    g
}

/// The `NodeIo` side of the assert (simulator, dense oracle); the name
/// predates the interpreter's removal.
#[test]
#[should_panic(expected = "tuple arity mismatch on channel (expected 2, got 1)")]
fn interpreted_rule_writing_a_mis_sized_link_panics() {
    let _ = run_dense(&mut mis_sized_link(), 1_000);
}

/// The `PlanPorts` side.
#[test]
#[should_panic(expected = "tuple arity mismatch on channel (expected 2, got 1)")]
fn planned_rule_writing_a_mis_sized_link_panics() {
    let _ = mis_sized_link().run(RunOptions::new(1_000));
}

/// The same mis-sized link between two chained stages is a fused edge: no
/// token is ever written to it, so scheduling the graph refuses it, before
/// anything runs.
#[test]
#[should_panic(
    expected = "fused edge 'stage' -> 'wide' mis-wired: the producer writes 1 words, \
                           channel #1 carries 2"
)]
fn mis_sized_fused_edge_panics_when_the_plan_is_built() {
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let b = g.add_chan(Channel::new(2));
    let c = g.add_chan(Channel::new(2));
    g.add_node("stage", EwNode::passthrough(1), [a], [b]);
    g.add_node("wide", EwNode::passthrough(2), [b], [c]);
    g.plan();
}
