//! # revet-machine — the abstract dataflow-threads machine
//!
//! Executable semantics for the generic dataflow model of §III of *"Revet:
//! A Language and Compiler for Dataflow Threads"* (HPCA 2024): streaming
//! tensor primitives over SLTF links, composed into dataflow graphs, plus an
//! untimed Kahn-style executor used as the functional reference for compiled
//! programs.
//!
//! The primitive set ([`nodes`]) matches §III-B:
//!
//! | Paper primitive          | Node                              |
//! |--------------------------|-----------------------------------|
//! | element-wise / filter    | [`nodes::EwNode`] (+ predicated outputs) |
//! | expansion: counter       | [`nodes::CounterNode`]            |
//! | expansion: broadcast     | [`nodes::BroadcastNode`]          |
//! | fork (expand + flatten)  | [`nodes::ForkNode`]               |
//! | reduction                | [`nodes::ReduceNode`]             |
//! | flattening / loop exit   | [`nodes::FlattenNode`]            |
//! | forward merge            | [`nodes::FwdMergeNode`]           |
//! | forward-backward merge   | [`nodes::FbMergeNode`]            |
//!
//! All primitives observe the two SLTF composability rules: barriers pass
//! through exactly once, in order, and data never reorders across barriers.
//!
//! The untimed executor is **event-driven**: a precomputed [`TopologyIndex`]
//! maps channels to their endpoints, and a ready worklist re-steps a node
//! only when an input channel gains tokens, a full output channel regains
//! capacity, or an allocator queue it can block on receives a pointer. Kahn
//! semantics make the results scheduler-order independent, so the ready-set
//! executor and the dense-sweep oracle ([`reference::run_dense`]) produce
//! identical streams and memory — the ready set just attempts far fewer
//! steps (see [`ExecReport::productive_ratio`]).
//!
//! The hot path does not interpret boxed nodes at all: a finished graph
//! flattens once into an [`ExecPlan`] — fused element-wise segments,
//! native sink drains, a bitmap worklist, and a boxed fallback for
//! everything else — with bit-identical results (see the [`ExecPlan`]
//! docs).
//!
//! There is one way in to execute, [`Graph::run`]; its [`RunOptions`] name
//! the four things a run can vary on:
//!
//! | `RunOptions` field | unset                                  | set                                          |
//! |--------------------|----------------------------------------|----------------------------------------------|
//! | `plan`             | interpreted reference executor         | run through that [`ExecPlan`]                |
//! | `resume`           | one-shot: leftover tokens are a deadlock error | streaming: leftover tokens are [`RunStatus::Paused`], resumable with the same [`ResumeState`] |
//! | `obs`              | no-op sink                             | dispatches, wakes and stalls recorded        |
//! | `max_rounds`       | (required)                             | livelock cap on scheduler generations        |
//!
//! ## Example: a `foreach` as counter + reduce (paper Fig. 2)
//!
//! ```
//! use revet_machine::{Channel, Graph, RunOptions, tdata, tbar};
//! use revet_machine::nodes::{CounterNode, ReduceNode, SinkNode, SourceNode};
//! use revet_machine::instr::{AluOp, Operand};
//!
//! let mut g = Graph::new();
//! let a = g.add_chan(Channel::new(1));
//! let b = g.add_chan(Channel::new(1));
//! let d = g.add_chan(Channel::new(1));
//! g.add_node("enter", Box::new(SourceNode::new(vec![tdata([3u32]), tbar(1)])), vec![], vec![a]);
//! g.add_node(
//!     "counter",
//!     Box::new(CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32))),
//!     vec![a],
//!     vec![b],
//! );
//! g.add_node("reduce", Box::new(ReduceNode::new(AluOp::Add, 0u32)), vec![b], vec![d]);
//! let (sink, out) = SinkNode::new();
//! g.add_node("exit", Box::new(sink), vec![d], vec![]);
//! g.run(RunOptions::new(1_000)).unwrap();
//! // sum(0..3) = 3, still a 1-D stream of one thread.
//! assert_eq!(out.tokens(), vec![tdata([3u32]), tbar(1)]);
//! ```

#![warn(missing_docs)]

mod channel;
mod dram;
mod graph;
pub mod instr;
mod mem;
mod node;
pub mod nodes;
mod plan;
pub mod reference;
mod ring;
mod tuple;

pub use channel::{Channel, LinkClass};
pub use dram::{Dram, PoolStats, PAGE_BYTES, POOL_IMAGES};
pub use graph::{
    ExecReport, Graph, NodeSlot, ResumeState, RunOptions, RunStatus, TopologyIndex, UnitClass,
};
pub use mem::{AllocId, AllocQueue, MemoryState, SramId, SramRegion};
pub use node::{ChanId, FusedSpec, IoEvents, MachineError, Node, NodeId, NodeIo, PortBudget};
pub use plan::{ExecPlan, PlanStats};
pub use ring::Ring;
pub use tuple::{tbar, tdata, TTok, Tuple};
