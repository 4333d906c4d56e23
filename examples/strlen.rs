//! The paper's Fig. 7 case study: strlen() over a string table, using
//! views, replicate, demand-filled read iterators, and a data-dependent
//! while loop — compiled to dataflow and timed.
//!
//! Run with: `cargo run --example strlen`

use revet::compiler::{PassOptions, Session};
use revet::sim::{IdealModels, RdaConfig, Simulator};
use revet_sltf::Word;

fn main() {
    let source = r#"
        dram<u8> input;
        dram<u32> offsets;
        dram<u32> lengths;
        void main(u32 count) {
            foreach (count by 4) { u32 outer =>
                readview<4> in_view(offsets, outer);
                writeview<4> out_view(lengths, outer);
                foreach (4) { u32 idx =>
                    u32 len = 0;
                    u32 off = in_view[idx];
                    replicate (4) {
                        readit<8> it(input, off);
                        while (*it) {
                            len = len + 1;
                            it++;
                        };
                    };
                    out_view[idx] = len;
                };
            };
        }
    "#;
    let strings: Vec<String> = (0..16)
        .map(|i| {
            "dataflow-threads!"
                .chars()
                .cycle()
                .take(i * 3 % 23)
                .collect()
        })
        .collect();
    let mut input = Vec::new();
    let mut offsets = Vec::new();
    for s in &strings {
        offsets.extend((input.len() as u32).to_le_bytes());
        input.extend(s.as_bytes());
        input.push(0);
    }
    let opts = PassOptions {
        dram_bytes: 3 << 16,
        ..PassOptions::default()
    };
    let mut program = Session::new(source, opts)
        .to_dataflow()
        .unwrap_or_else(|e| {
            eprint!("{}", e.render(source, true));
            std::process::exit(1);
        });
    let slice = (3 << 16) / 3;
    let mem = &mut program.graph.mem;
    mem.write_dram(0, &input)
        .expect("the strings fit their DRAM slice");
    mem.write_dram(slice, &offsets)
        .expect("the offsets fit their DRAM slice");
    let sim = Simulator::new(RdaConfig::default(), IdealModels::default());
    let stats = sim
        .run(&mut program, &[Word(strings.len() as u32)], 50_000_000)
        .expect("runs");
    println!(
        "strlen over {} strings in {} cycles:",
        strings.len(),
        stats.cycles
    );
    for (i, s) in strings.iter().enumerate() {
        let got = u32::from_le_bytes(
            program.graph.mem.dram[2 * slice + 4 * i..2 * slice + 4 * i + 4]
                .try_into()
                .unwrap(),
        );
        assert_eq!(got as usize, s.len());
        println!("  strlen({s:?}) = {got}");
    }
}
