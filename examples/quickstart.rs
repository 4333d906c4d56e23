//! Quickstart: compile a tiny Revet program and run it three ways —
//! reference interpreter semantics are implied by the oracle check, the
//! untimed dataflow machine proves functional lowering, and the timed
//! simulator reports cycles.
//!
//! The same flow, with an oracle assertion, is the crate-level doctest on
//! the `revet` facade (`src/lib.rs`), so `cargo test` exercises it.
//!
//! Run with: `cargo run --example quickstart`

use revet::compiler::{PassOptions, Session};
use revet::sim::{IdealModels, RdaConfig, Simulator};
use revet_sltf::Word;

fn main() {
    let source = r#"
        dram<u32> input;
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                u32 x = input[i];
                u32 steps = 0;
                while (x != 1) {
                    if (x & 1) {
                        x = 3 * x + 1;
                    } else {
                        x = x / 2;
                    };
                    steps = steps + 1;
                };
                output[i] = steps;
            };
        }
    "#;
    let opts = PassOptions {
        dram_bytes: 1 << 16,
        ..PassOptions::default()
    };
    // On failure, render the structured diagnostics as rustc-style caret
    // snippets instead of Debug-printing an error value.
    let mut program = Session::new(source, opts)
        .to_dataflow()
        .unwrap_or_else(|e| {
            eprint!("{}", e.render(source, true));
            std::process::exit(1);
        });
    println!(
        "compiled: {} contexts, {} links",
        program.context_count(),
        program.links.len()
    );
    let n = 8u32;
    let input: Vec<u8> = (2..n + 2).flat_map(u32::to_le_bytes).collect();
    program
        .graph
        .mem
        .write_dram(0, &input)
        .expect("the input fits its DRAM slice");
    let sim = Simulator::new(RdaConfig::default(), IdealModels::default());
    let stats = sim.run(&mut program, &[Word(n)], 10_000_000).expect("runs");
    println!(
        "simulated {} cycles at {} GHz",
        stats.cycles, stats.freq_ghz
    );
    let half = (1 << 16) / 2;
    for i in 0..n as usize {
        let got = u32::from_le_bytes(
            program.graph.mem.dram[half + 4 * i..half + 4 * i + 4]
                .try_into()
                .unwrap(),
        );
        println!("collatz_steps({}) = {}", i + 2, got);
    }
}
