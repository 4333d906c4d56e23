//! # revet-serve — a compile-and-execute service over compiled dataflow
//! programs
//!
//! The paper's execution model — one compiled dataflow program, many
//! concurrent thread instances (§V) — maps directly onto a long-lived
//! service: compile once, cache by content, execute many. This crate is
//! that serving layer, std-only, over `std::net::TcpListener`:
//!
//! - [`protocol`] — a versioned, length-prefixed binary wire protocol
//!   (`Compile` / `Execute` / `Status` / `Metrics` / `Shutdown`, plus the
//!   streaming `OpenStream` / `Feed` / `Poll` / `CloseStream` session
//!   frames), every failure a typed error frame. Each frame type is
//!   declared once; its encoder, decoder and decode-time size guards are
//!   derived from that declaration;
//! - [`ProgramCache`] — content-addressed by
//!   [`revet_core::ProgramId`] (hash of source + pass options), with
//!   single-flight compilation dedup, LRU eviction, and hit/miss/eviction
//!   counters;
//! - [`Server`] — an acceptor and one thread per connection, on which
//!   every request runs: an admission gate with backpressure bounds the
//!   execute jobs running a `revet-runtime` batch pool at once, a bounded
//!   session table keeps streaming instances resident between feeds
//!   (evicting idle ones whenever it is next used), and graceful
//!   shutdown drains in-flight work and resident sessions. A connection
//!   is decode → `respond` → one send: no request handler touches the
//!   socket. Execution is counted once, in the `ExecReport` each run
//!   returns: `Metrics` reports the merge of the reports the `Execute` and
//!   `CloseStream` replies carried, and the server records into no
//!   observability sink (a profile of one program is `revetc --profile`);
//! - [`ServeClient`] — a blocking client (used by the integration tests
//!   and by the `perf_ledger` benchmark's serve workloads).
//!
//! ## Example: boot, compile, execute, drain
//!
//! ```
//! use revet_core::PassOptions;
//! use revet_serve::protocol::{ExecuteRequest, InstanceOutcome};
//! use revet_serve::{ServeClient, ServeConfig, Server};
//!
//! let server = Server::spawn(ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//!
//! let opts = PassOptions { dram_bytes: 1 << 12, ..PassOptions::default() };
//! let compiled = client
//!     .compile(
//!         "dram<u32> output;
//!          void main(u32 n) {
//!              foreach (n) { u32 i => output[i] = i * i; };
//!          }",
//!         &opts,
//!     )
//!     .unwrap();
//! assert!(!compiled.cached);
//!
//! // Two instances (n=2, n=3); read back the first 16 output bytes.
//! let reply = client
//!     .execute(ExecuteRequest {
//!         program_id: compiled.program_id,
//!         argsets: vec![vec![2], vec![3]],
//!         dram_inits: vec![],
//!         window: (0, 16),
//!     })
//!     .unwrap();
//! let InstanceOutcome::Ok { dram, .. } = &reply.instances[1] else { panic!() };
//! assert_eq!(&dram[4..8], &1u32.to_le_bytes());
//! assert_eq!(&dram[8..12], &4u32.to_le_bytes());
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.executed_instances, 2);
//! ```

#![warn(missing_docs)]

mod cache;
mod client;
pub mod protocol;
mod server;
mod session;

pub use cache::{CacheStats, ProgramCache};
pub use client::{ClientError, CompileOutcome, ServeClient};
pub use server::{ServeConfig, Server};
