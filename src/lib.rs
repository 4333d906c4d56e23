//! # Revet
//!
//! A reproduction of *"Revet: A Language and Compiler for Dataflow Threads"*
//! (HPCA 2024). This facade crate re-exports the whole stack:
//!
//! - [`diag`] — byte spans, structured diagnostics, rustc-style rendering
//! - [`sltf`] — the structured-link tensor format (on-chip streams, barriers)
//! - [`machine`] — streaming primitives and the abstract dataflow machine
//! - [`mir`] — the SSA mid-level IR the compiler operates on
//! - [`lang`] — the Revet language front-end
//! - [`compiler`] — passes, CFG→dataflow lowering, splitting, resource reports
//! - [`runtime`] — parallel batch execution of compiled program instances
//! - [`serve`] — the compile-and-execute service (wire protocol, program
//!   cache, admission gate)
//! - [`sim`] — the cycle-level vRDA simulator
//! - [`baselines`] — GPU/CPU baseline models
//! - [`apps`] — the eight evaluation applications
//!
//! See `ARCHITECTURE.md` at the repository root for how the layers fit
//! together.
//!
//! ## Quickstart: compile, load DRAM, simulate, check
//!
//! The documented happy path (the same flow as `examples/quickstart.rs`,
//! exercised here by `cargo test`): write a threaded Revet program,
//! compile it to a dataflow graph, put inputs into the program's DRAM
//! image, run the cycle-level simulator, and read the outputs back.
//!
//! ```
//! use revet::compiler::{PassOptions, Session};
//! use revet::sim::{IdealModels, RdaConfig, Simulator};
//! use revet::sltf::Word;
//!
//! let source = r#"
//!     dram<u32> input;
//!     dram<u32> output;
//!     void main(u32 n) {
//!         foreach (n) { u32 i =>
//!             u32 x = input[i];
//!             u32 steps = 0;
//!             while (x != 1) {
//!                 if (x & 1) {
//!                     x = 3 * x + 1;
//!                 } else {
//!                     x = x / 2;
//!                 };
//!                 steps = steps + 1;
//!             };
//!             output[i] = steps;
//!         };
//!     }
//! "#;
//! let opts = PassOptions { dram_bytes: 1 << 16, ..PassOptions::default() };
//! let mut program = Session::new(source, opts).to_dataflow().unwrap();
//! assert!(program.context_count() > 0);
//!
//! // DRAM symbols are laid out in equal slices: `input` at 0, `output`
//! // at dram_bytes/2. Load the inputs…
//! let n = 8u32;
//! let input: Vec<u8> = (2..n + 2).flat_map(u32::to_le_bytes).collect();
//! program.graph.mem.write_dram(0, &input).unwrap();
//! // …run the timed simulator…
//! let sim = Simulator::new(RdaConfig::default(), IdealModels::default());
//! let stats = sim.run(&mut program, &[Word(n)], 10_000_000).unwrap();
//! assert!(stats.cycles > 0);
//!
//! // …and check every Collatz step count against a host-side oracle.
//! let collatz = |mut x: u32| {
//!     let mut steps = 0;
//!     while x != 1 {
//!         x = if x & 1 == 1 { 3 * x + 1 } else { x / 2 };
//!         steps += 1;
//!     }
//!     steps
//! };
//! let half = (1 << 16) / 2;
//! for i in 0..n as usize {
//!     let got = u32::from_le_bytes(
//!         program.graph.mem.dram[half + 4 * i..half + 4 * i + 4].try_into().unwrap(),
//!     );
//!     assert_eq!(got, collatz(i as u32 + 2));
//! }
//! ```
//!
//! ## Batch execution: compile once, run many
//!
//! One [`compiler::CompiledProgram`] can be instantiated any number of
//! times; the [`runtime`] layer shards instances across a thread pool and
//! the results are bit-identical to sequential runs:
//!
//! ```
//! use revet::compiler::{PassOptions, Session};
//! use revet::runtime::{BatchJob, BatchRunner};
//! use revet::sltf::Word;
//!
//! let program = Session::new(
//!     "dram<u32> output;
//!      void main(u32 n) {
//!          foreach (n) { u32 i => output[i] = i * i; };
//!      }",
//!     PassOptions::default(),
//! )
//! .to_dataflow()
//! .unwrap();
//! let jobs: Vec<BatchJob> = (1..=8).map(|n| BatchJob::new(&program, vec![Word(n)])).collect();
//! let report = BatchRunner::new(4).run(&jobs);
//! assert_eq!(report.ok_count(), 8);
//! ```
//!
//! ## Serving: compile-once / execute-many over the network
//!
//! The [`serve`] layer runs the same compile-and-batch flow as a
//! long-lived TCP service with a content-addressed program cache —
//! repeated sources hit the cache instead of recompiling, and every
//! failure comes back as a typed error frame:
//!
//! ```
//! use revet::compiler::PassOptions;
//! use revet::serve::protocol::{ExecuteRequest, InstanceOutcome};
//! use revet::serve::{ServeClient, ServeConfig, Server};
//!
//! let server = Server::spawn(ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//!
//! let opts = PassOptions { dram_bytes: 1 << 12, ..PassOptions::default() };
//! let source = "dram<u32> output;
//!               void main(u32 n) {
//!                   foreach (n) { u32 i => output[i] = i * i; };
//!               }";
//! let first = client.compile(source, &opts).unwrap();
//! assert!(!first.cached);
//! // Byte-identical source + options → same ProgramId, served from cache.
//! assert!(client.compile(source, &opts).unwrap().cached);
//!
//! let reply = client
//!     .execute(ExecuteRequest {
//!         program_id: first.program_id,
//!         argsets: vec![vec![4]],
//!         dram_inits: vec![],
//!         window: (0, 16),
//!     })
//!     .unwrap();
//! let InstanceOutcome::Ok { dram, .. } = &reply.instances[0] else { panic!() };
//! assert_eq!(&dram[12..16], &9u32.to_le_bytes());
//! let stats = server.shutdown();
//! assert_eq!(stats.executed_instances, 1);
//! ```
//!
//! ## Staged compiles and structured diagnostics
//!
//! [`compiler::Session`] exposes the pipeline stage by stage — `parse()`
//! → `lower_mir()` → `run_passes()` → `to_dataflow()` — and reports
//! through span-carrying diagnostics instead of strings. Parser recovery
//! means one run surfaces *every* syntax error, rendered rustc-style:
//!
//! ```
//! use revet::compiler::{PassOptions, Session};
//!
//! let mut session = Session::new(
//!     "void main() {\n  u32 a = ;\n  u32 ok = 1;\n  u32 b = 1 +;\n}",
//!     PassOptions::default(),
//! );
//! assert!(session.to_dataflow().is_err());
//! assert_eq!(session.diagnostics().error_count(), 2); // both, in one run
//! let report = session.render_diagnostics(false);
//! assert!(report.contains("error[E0103]"));
//! assert!(report.contains("--> <input>:2:11"));
//! assert!(report.contains("u32 a = ;"));
//! ```

#![warn(missing_docs)]

pub use revet_apps as apps;
pub use revet_baselines as baselines;
pub use revet_core as compiler;
pub use revet_diag as diag;
pub use revet_lang as lang;
pub use revet_machine as machine;
pub use revet_mir as mir;
pub use revet_runtime as runtime;
pub use revet_serve as serve;
pub use revet_sim as sim;
pub use revet_sltf as sltf;
