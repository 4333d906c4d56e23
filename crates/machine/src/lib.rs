//! # revet-machine — the abstract dataflow-threads machine
//!
//! Executable semantics for the generic dataflow model of §III of *"Revet:
//! A Language and Compiler for Dataflow Threads"* (HPCA 2024): streaming
//! tensor primitives over SLTF links, composed into dataflow graphs, plus an
//! untimed Kahn-style executor used as the functional reference for compiled
//! programs.
//!
//! The primitive set ([`nodes`]) is §III-B's seven plus §IV-A's fork, and
//! it is closed: a graph holds each node as a [`Prim`], one variant per
//! primitive, and every question asked of a node — how it fires, its kind,
//! whether it can stall on an allocator — is one `match` over it. Each
//! primitive states its firing rule once, as a generic `fire<P: Ports>`
//! over its links:
//!
//! | Paper primitive          | Node                              | Firing rule |
//! |--------------------------|-----------------------------------|-------------|
//! | element-wise / filter    | [`nodes::EwNode`] (+ predicated outputs) | [`nodes::EwNode::fire`] |
//! | expansion: counter       | [`nodes::CounterNode`]            | [`nodes::CounterNode::fire`] |
//! | expansion: broadcast     | [`nodes::BroadcastNode`]          | [`nodes::BroadcastNode::fire`] |
//! | fork (expand + flatten)  | [`nodes::ForkNode`]               | [`nodes::ForkNode::fire`] |
//! | reduction                | [`nodes::ReduceNode`]             | [`nodes::ReduceNode::fire`] |
//! | flattening / loop exit   | [`nodes::FlattenNode`]            | [`nodes::FlattenNode::fire`] |
//! | forward merge            | [`nodes::FwdMergeNode`]           | [`nodes::FwdMergeNode::fire`] |
//! | forward-backward merge   | [`nodes::FbMergeNode`]            | [`nodes::FbMergeNode::fire`] |
//!
//! A graph's inputs and outputs are its channels: the host pushes onto a
//! link no node writes ([`Channel::push`]) and pops a link no node
//! consumes ([`Channel::drain_all`]), which a drained graph may leave
//! holding tokens ([`Graph::stuck_channels`] counts only consumed links).
//!
//! All primitives observe the two SLTF composability rules: barriers pass
//! through exactly once, in order, and data never reorders across barriers.
//! Adding one is its rule in [`nodes`], one [`Prim`] variant with its
//! `From`, and one arm in each `match` over `Prim`; the compiler names any
//! arm that is missing.
//!
//! Tokens ride arity-typed slab slots: a [`Channel`]'s queue is one flat
//! `Word` lane of `arity` words per slot plus a one-byte tag lane (data or
//! Ωn) over a power-of-two [`Ring`], so a rule reads a thread's live
//! values as a borrowed window, pops by bumping the ring head and writes
//! its outputs in place. Owned tokens ([`TTok`]) exist only at a graph's
//! edges — what the host feeds in and reads out.
//!
//! A rule runs behind either [`Ports`] implementation, and the protocol
//! lives there, not in the rule: [`NodeIo`] carries per-port budgets
//! (§III-C link bandwidth and, through [`PortBudget::bound`], buffer
//! depth) and [`IoEvents`] — the cycle-level simulator and the dense
//! oracle; [`PlanPorts`] has direct channel access and applies wake-ups
//! inside `push`/`pop_in` — the execution plan. Channels themselves are
//! unbounded FIFOs: a buffer depth is the simulator's, never the graph's.
//!
//! The untimed executor is **event-driven**: a precomputed [`TopologyIndex`]
//! maps channels to their endpoints, and a ready worklist re-fires a node
//! only when an input channel gains tokens or an allocator queue it can
//! block on receives a pointer. Kahn
//! semantics make the results scheduler-order independent, so it and the
//! dense-sweep oracle (`revet_oracle::dense::run_dense`) produce identical
//! streams and memory — the ready set just attempts far fewer steps (see
//! [`ExecReport::productive_ratio`]).
//!
//! There is one scheduler, and the graph owns its schedule: the wiring is
//! scheduled once into an [`ExecPlan`] — a partition of the nodes into wake
//! units (maximal chains of element-wise stages fire as one), a bitmap
//! worklist, and the topology index — cached on the graph
//! ([`Graph::plan`]), shared by every [`Graph::fresh_instance`], and
//! dropped when the wiring changes (see the [`ExecPlan`] docs).
//!
//! There is one way in to execute, [`Graph::run`]; its [`RunOptions`] name
//! the three things a run can vary on:
//!
//! | `RunOptions` field | unset                                  | set                                          |
//! |--------------------|----------------------------------------|----------------------------------------------|
//! | `resume`           | one-shot: leftover tokens are a deadlock error | streaming: leftover tokens are [`RunStatus::Paused`], resumable with the same [`ResumeState`] |
//! | `obs`              | no-op sink                             | dispatches, wakes and stalls recorded        |
//! | `max_rounds`       | (required)                             | livelock cap on rounds; one round is one ascending sweep of the wake units |
//!
//! ## Example: a `foreach` as counter + reduce (paper Fig. 2)
//!
//! ```
//! use revet_machine::{Channel, Graph, RunOptions, tdata, tbar};
//! use revet_machine::nodes::{CounterNode, ReduceNode};
//! use revet_machine::instr::{AluOp, Operand};
//!
//! let mut g = Graph::new();
//! let a = g.add_chan(Channel::new(1));
//! let b = g.add_chan(Channel::new(1));
//! let d = g.add_chan(Channel::new(1));
//! g.add_node(
//!     "counter",
//!     CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32)),
//!     vec![a],
//!     vec![b],
//! );
//! g.add_node("reduce", ReduceNode::new(AluOp::Add, 0u32), vec![b], vec![d]);
//! // Enter on `a`: one thread counting to 3.
//! g.chan_mut(a).push(tdata([3u32]));
//! g.chan_mut(a).push(tbar(1));
//! g.run(RunOptions::new(1_000)).unwrap();
//! // Exit on `d`: sum(0..3) = 3, still a 1-D stream of one thread.
//! assert_eq!(g.chans()[d.0 as usize].tokens(), vec![tdata([3u32]), tbar(1)]);
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
mod pool;
mod ring;
mod table;
mod tuple;

pub use channel::{Channel, LinkClass};
pub use dram::{Dram, PAGE_BYTES};
pub use graph::{
    ExecReport, Graph, Label, NodeSlot, PortList, RunOptions, RunStatus, TopologyIndex, UnitClass,
};
pub use mem::{AllocId, AllocQueue, MemoryState, SramId, SramRegion};
pub use node::{ChanId, IoEvents, MachineError, NodeId, NodeIo, PortBudget, Ports, Prim};
pub use plan::{ExecPlan, PlanPorts, PlanStats, ResumeState};
pub use pool::{PoolStats, POOL_IMAGES};
pub use ring::Ring;
pub use tuple::{tbar, tdata, TTok, Tuple};
