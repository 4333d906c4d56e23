//! # revet-apps — the eight evaluation applications (Table III)
//!
//! Each application provides: parameterized Revet source (the replicate
//! width is the paper's "outer parallelism" knob), a seeded workload
//! generator matching the Table III data distributions, and an oracle Rust
//! implementation used to validate both the MIR interpreter and dataflow
//! execution — and reused as the instruction-cost kernel for the CPU/GPU
//! baseline models.
//!
//! | app | description | key features |
//! |-----|-------------|--------------|
//! | isipv4 | DFA regex over address records | replicate, predicated selects |
//! | ip2int | IPv4 parsing | replicate, data-dependent while |
//! | murmur3 | hashing 64 B blobs | ReadIt |
//! | hash-table | open-addressing lookup | random DRAM probes, while |
//! | search | exact-match search (Horspool skips) | nested while (×2) |
//! | huff-dec | canonical Huffman decode | ReadIt + WriteIt, nested while |
//! | huff-enc | canonical Huffman encode | ManualWriteIt |
//! | kD-tree | count points in rectangle | foreach-reduce inside while |

#![warn(missing_docs)]

pub mod gen;
mod hash;
mod huffman;
mod kdtree;
mod text;

pub use hash::{hash_table_app, murmur3_app};
pub use huffman::{huff_dec_app, huff_enc_app};
pub use kdtree::kdtree_app;
pub use text::{ip2int_app, isipv4_app, search_app};

use revet_core::{CompiledProgram, PassOptions, Session};
use revet_mir::DramLayout;
use revet_sltf::Word;

/// Per-run workload: arguments, DRAM images, and validation data.
#[derive(Clone, Debug)]
pub struct Workload {
    /// `main` arguments.
    pub args: Vec<u32>,
    /// DRAM initialization: (symbol index, bytes).
    pub inits: Vec<(usize, Vec<u8>)>,
    /// Expected bytes at the output symbol after the run.
    pub expected: Vec<u8>,
    /// Output symbol index.
    pub out_sym: usize,
    /// Input+output bytes for throughput normalization (§VI-A b).
    pub app_bytes: u64,
    /// Per-thread bytes touched (Table III "Per-Thread" flavor; drives the
    /// GPU coalescing model).
    pub bytes_per_thread: u64,
    /// Number of parallel threads in the workload.
    pub threads: u64,
}

/// One evaluation application.
#[derive(Clone)]
pub struct App {
    /// Table III name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Key features (Table III column).
    pub key_features: &'static str,
    /// Revet source for a given replicate width.
    pub source: fn(outer: u32) -> String,
    /// Seeded workload generator at a given scale (record count).
    pub workload: fn(scale: usize, seed: u64) -> Workload,
    /// Relative CPU cost per byte (calibrates the baseline models; derived
    /// from the oracle's per-byte instruction counts).
    pub cpu_ops_per_byte: f64,
    /// Whether GPU threads of this app can coalesce their loads (§VI-B b:
    /// short per-thread records coalesce; long/random accesses do not).
    pub gpu_coalesces: bool,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App").field("name", &self.name).finish()
    }
}

impl App {
    /// Number of DRAM symbols the source declares.
    pub fn dram_symbols(&self) -> usize {
        let src = (self.source)(1);
        src.matches("dram<").count()
    }

    /// Source lines (Table III "Lines").
    pub fn lines(&self) -> usize {
        (self.source)(1).trim().lines().count()
    }

    /// Compiles the app at the given replicate width.
    ///
    /// # Errors
    ///
    /// Propagates compiler errors.
    pub fn compile(
        &self,
        outer: u32,
        opts: &PassOptions,
    ) -> Result<CompiledProgram, revet_core::CoreError> {
        let mut opts = opts.clone();
        opts.dram_bytes = DRAM_BYTES;
        Session::new((self.source)(outer), opts).to_dataflow()
    }

    /// The map from symbol index to byte offset in the [`DRAM_BYTES`]
    /// image: the compiler's layout ([`DramLayout::equal_slices`]).
    fn symbol_offsets(&self) -> impl Fn(usize) -> usize {
        let layout = DramLayout::equal_slices(self.dram_symbols(), DRAM_BYTES);
        move |sym| layout.base[sym] as usize
    }

    /// The workload's inputs as DRAM overlays `(byte offset, bytes)` — what
    /// [`App::load`] writes, in the shape a remote `Execute` or
    /// `OpenStream` request carries.
    pub fn overlays(&self, w: &Workload) -> Vec<(u64, Vec<u8>)> {
        let offset = self.symbol_offsets();
        w.inits
            .iter()
            .map(|(sym, bytes)| (offset(*sym) as u64, bytes.clone()))
            .collect()
    }

    /// `(byte offset, length)` of the workload's output: the window
    /// [`App::check_dram`] compares with the oracle, and the one a remote
    /// request asks to have returned.
    pub fn output_window(&self, w: &Workload) -> (u64, u64) {
        let offset = self.symbol_offsets();
        (offset(w.out_sym) as u64, w.expected.len() as u64)
    }

    /// Loads a workload into a compiled program's DRAM: [`App::overlays`]
    /// written in place, without copying the input bytes first.
    ///
    /// # Panics
    ///
    /// Panics if an input does not fit the image (a workload-generator
    /// bug, not an input condition).
    pub fn load(&self, program: &mut CompiledProgram, w: &Workload) {
        let offset = self.symbol_offsets();
        for (sym, bytes) in &w.inits {
            program
                .graph
                .mem
                .write_dram(offset(*sym), bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        }
    }

    /// Compile + workload + load, in one call — the app-construction
    /// boilerplate every harness needs before it can run anything.
    /// Returns the loaded program, the `main` arguments, and the workload
    /// (oracle bytes, byte counts).
    ///
    /// # Panics
    ///
    /// Panics on compile failure (harnesses treat that as a test failure).
    pub fn prepare(
        &self,
        outer: u32,
        scale: usize,
        seed: u64,
        opts: &PassOptions,
    ) -> (CompiledProgram, Vec<Word>, Workload) {
        let w = (self.workload)(scale, seed);
        let mut program = self
            .compile(outer, opts)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        self.load(&mut program, &w);
        let args = w.args.iter().map(|&a| Word(a)).collect();
        (program, args, w)
    }

    /// Checks the output symbol against the oracle bytes.
    ///
    /// # Panics
    ///
    /// Panics with a diff message on mismatch.
    pub fn check(&self, program: &CompiledProgram, w: &Workload) {
        self.check_dram(&program.graph.mem.dram, w);
    }

    /// Like [`App::check`], but against a raw DRAM image — batch harnesses
    /// validate each instance's private memory this way, and interpreter
    /// harnesses the image `revet_oracle::interp::run_main` returns.
    ///
    /// # Panics
    ///
    /// Panics with a diff message on mismatch.
    pub fn check_dram(&self, dram: &[u8], w: &Workload) {
        let (base, len) = self.output_window(w);
        let got = &dram[base as usize..][..len as usize];
        assert_eq!(
            got,
            &w.expected[..],
            "{}: output differs from oracle",
            self.name
        );
    }
}

/// DRAM image size shared by all app runs.
pub const DRAM_BYTES: usize = 1 << 22;

/// The Table III application registry.
pub fn all_apps() -> Vec<App> {
    vec![
        isipv4_app(),
        ip2int_app(),
        murmur3_app(),
        hash_table_app(),
        search_app(),
        huff_dec_app(),
        huff_enc_app(),
        kdtree_app(),
    ]
}

/// Looks up one app by name.
pub fn app(name: &str) -> Option<App> {
    all_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let apps = all_apps();
        assert_eq!(apps.len(), 8);
        let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        for want in [
            "isipv4",
            "ip2int",
            "murmur3",
            "hash-table",
            "search",
            "huff-dec",
            "huff-enc",
            "kD-tree",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
        assert!(app("murmur3").is_some());
        assert!(app("nope").is_none());
    }

    #[test]
    fn sources_have_plausible_line_counts() {
        // Table III reports 34–74 lines per app; ours should be in the same
        // ballpark.
        for a in all_apps() {
            let lines = a.lines();
            assert!(
                (15..160).contains(&lines),
                "{}: {} lines looks wrong",
                a.name,
                lines
            );
        }
    }
}
