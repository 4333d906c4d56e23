//! # revet-sltf — the Structured-Link Tensor Format
//!
//! The on-chip data representation of the Revet dataflow-threads machine
//! (§III-A of *"Revet: A Language and Compiler for Dataflow Threads"*,
//! HPCA 2024).
//!
//! Dataflow threads are sets of live values kept together in a pipeline.
//! Hierarchy across groups of threads (loop nests, parallel regions) is
//! encoded as **barrier tokens** Ωn terminating dimension `n` of a ragged
//! tensor, streamed in-band with the data. This crate provides:
//!
//! - [`Word`]: the 32-bit lane payload,
//! - [`Token`]/[`Tok`]: data-or-barrier stream tokens and [`BarrierLevel`].
//!
//! The machine queues tokens and canonicalises barriers itself
//! (`revet_machine::Channel`). The ragged-tensor codec its tests check
//! those streams against is `revet_oracle::ragged`, outside the product.
//!
//! ## Example
//!
//! The paper's running example: the 2-D tensor `[[0, 1], [2]]` is encoded as
//! `0 1 Ω1 2 Ω2` — the trailing Ω1 is implied by Ω2 following data.
//!
//! ```
//! use revet_sltf::{data, omega, BarrierLevel, Word};
//!
//! let tokens = [data(0u32), data(1u32), omega(1), data(2u32), omega(2)];
//! let words: Vec<Word> = tokens.iter().filter_map(|t| t.data().copied()).collect();
//! assert_eq!(words, [Word(0), Word(1), Word(2)]);
//! assert_eq!(tokens[4].barrier_level(), Some(BarrierLevel::L2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod token;
mod word;

pub use token::{data, omega, BarrierLevel, Tok, Token, MAX_BARRIER_LEVEL};
pub use word::Word;
