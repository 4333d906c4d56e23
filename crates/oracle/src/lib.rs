//! # revet-oracle — the reference semantics the product is checked against
//!
//! Each module states what the shipped stack must compute without the
//! machinery it checks:
//!
//! - [`interp`]: the MIR interpreter, entered through [`interp::run_main`]
//!   on a DRAM image laid out the way the compiler lays it out;
//! - [`dense`]: the dense-sweep scheduler, [`dense::run_dense`];
//! - [`ragged`]: the SLTF ragged-tensor codec;
//! - [`mod@judge`]: the one checker every corpus goes through. [`judge()`]
//!   runs a [`judge::Case`] (source, argsets, DRAM overlays, an optional
//!   expected output window) through the lanes a [`judge::Lanes`] turns on
//!   — the interpreter unoptimized and per opt level, the plan, the dense
//!   sweep, the chunked stream, the simulator and a `PassOptions` toggle
//!   mask — and returns each lane's reports or the first divergence. The
//!   eight apps, the directed goldens, the fuzz corpus and every generated
//!   case are its callers.
//!
//! Tests, the fuzzer and tools depend on this crate. A shipped crate takes
//! it only as a dev-dependency: an oracle the product called would check
//! nothing. The judge drives the product (front end, compiler, simulator)
//! through normal dependencies, the direction that check allows.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dense;
pub mod interp;
pub mod judge;
pub mod ragged;

pub use judge::judge;

// `revet-machine`'s unit tests that run `dense::run_dense` (the plan's, and
// three of the graph's), under the machine's module paths and test ids: in
// the machine's own test build they would link a second copy of it.
#[cfg(test)]
mod graph;
#[cfg(test)]
mod plan;
