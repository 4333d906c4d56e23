//! # revet-oracle — the reference semantics the product is checked against
//!
//! Each module states what the shipped stack must compute without the
//! machinery it checks:
//!
//! - [`interp`]: the MIR interpreter, entered through [`interp::run_main`]
//!   on a DRAM image laid out the way the compiler lays it out;
//! - [`dense`]: the dense-sweep scheduler, [`dense::run_dense`];
//! - [`ragged`]: the SLTF ragged-tensor codec.
//!
//! Tests, the fuzzer and tools depend on this crate. A shipped crate takes
//! it only as a dev-dependency: an oracle the product called would check
//! nothing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dense;
pub mod interp;
pub mod ragged;

// `revet-machine`'s unit tests that run `dense::run_dense` (the plan's, and
// three of the graph's), under the machine's module paths and test ids: in
// the machine's own test build they would link a second copy of it.
#[cfg(test)]
mod graph;
#[cfg(test)]
mod plan;
