//! Differential fuzzing: seeded random Revet programs executed both by the
//! MIR reference interpreter and by the compiled dataflow machine must
//! produce identical DRAM images — for every pass configuration.

use revet_core::{PassOptions, Session};
use revet_oracle::interp::{run_main, DEFAULT_FUEL};
use revet_sltf::Word;

const DRAM: usize = 1 << 16;

/// A tiny seeded PRNG (no external dependency needed here).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates a random program over `input`/`output` symbols: a parallel
/// foreach whose body mixes arithmetic, data-dependent ifs, and a bounded
/// data-dependent while.
fn random_program(seed: u64) -> String {
    let mut r = Rng(seed | 1);
    let mut body_expr = String::from("x");
    for _ in 0..r.below(4) {
        let op = ["+", "*", "^", "|"][r.below(4) as usize];
        let k = r.below(17) + 1;
        body_expr = format!("({body_expr} {op} {k})");
    }
    let if_stmt = match r.below(3) {
        0 => format!(
            "if (x & {}) {{ acc = acc + {}; }} else {{ acc = acc ^ x; }};",
            1 + r.below(7),
            r.below(100)
        ),
        1 => format!("if (x > {}) {{ acc = acc * 3; }};", r.below(50)),
        _ => String::new(),
    };
    let trip = 1 + r.below(6);
    format!(
        r#"
        dram<u32> input;
        dram<u32> output;
        void main(u32 n) {{
            foreach (n) {{ u32 i =>
                u32 x = input[i];
                u32 acc = {};
                {if_stmt}
                u32 t = x % {trip};
                while (t != 0) {{
                    acc = acc + {body_expr};
                    t = t - 1;
                }};
                output[i] = acc;
            }};
        }}
    "#,
        r.below(1000)
    )
}

fn run_interp(src: &str, inputs: &[u32]) -> Vec<u8> {
    let module = revet_lang::compile_to_mir(src).unwrap();
    let input = inputs.iter().copied().flat_map(u32::to_le_bytes).collect();
    let n = inputs.len() as u32;
    let mem = run_main(&module, DRAM, &[n], &[(0, input)], DEFAULT_FUEL).unwrap();
    mem.dram[DRAM / 2..DRAM / 2 + 4 * inputs.len()].to_vec()
}

fn run_dataflow(src: &str, inputs: &[u32], opts: PassOptions) -> Vec<u8> {
    let mut opts = opts;
    opts.dram_bytes = DRAM;
    let mut program = Session::new(src, opts).to_dataflow().unwrap();
    let input: Vec<u8> = inputs.iter().copied().flat_map(u32::to_le_bytes).collect();
    program.graph.mem.write_dram(0, &input).unwrap();
    program
        .run_untimed(&[Word(inputs.len() as u32)], 50_000_000)
        .unwrap();
    program.graph.mem.dram[DRAM / 2..DRAM / 2 + 4 * inputs.len()].to_vec()
}

#[test]
fn random_programs_agree_across_backends() {
    for seed in 0..24u64 {
        let src = random_program(seed);
        let mut r = Rng(seed.wrapping_mul(77) | 3);
        let inputs: Vec<u32> = (0..8).map(|_| r.below(1 << 16) as u32).collect();
        let want = run_interp(&src, &inputs);
        for opts in [PassOptions::default(), PassOptions::none()] {
            let got = run_dataflow(&src, &inputs, opts.clone());
            assert_eq!(
                got, want,
                "seed {seed} diverged (opts default={})\n{src}",
                opts.if_to_select
            );
        }
    }
}
