//! A generated case, judged: [`run_case`] hands it to
//! [`revet_oracle::judge()`] on the caller's lanes, with the stream's shape
//! and a toggle mask of the six §V switches derived from the case seed (so
//! a reproducer replays the same lanes).

use crate::gen::Case;
use revet_mir::DramLayout;
use revet_oracle::judge::{self, Stream};
pub use revet_oracle::judge::{Failure, FailureKind, Injection, Lanes};

/// The DRAM image every generated case runs on.
const DRAM_BYTES: usize = 1 << 16;

/// Judges one case on `lanes` (`Lanes::default()`: every lane at
/// -O0/-O1/-O2), its stream shape and toggle mask replaced by the case
/// seed's. `Ok(())` means every lane agreed; `Err` carries the first
/// divergence. Never panics.
pub fn run_case(case: &Case, lanes: &Lanes) -> Result<(), Failure> {
    let copies = 2 + (case.seed % 2) as usize;
    let lanes = Lanes {
        stream: Some(Stream {
            copies,
            chunk: 1 + (case.seed >> 8) as usize % (copies - 1),
        }),
        toggles: vec![(case.seed >> 16) as u8 & 0x3f],
        ..lanes.clone()
    };
    judge::judge(&judge_case(case), &lanes).map(drop)
}

/// `case` as the judge takes it: one argset, each symbol's init written at
/// its base in the compiler's layout of the image (`dram_inits` has one
/// entry per symbol).
pub fn judge_case(case: &Case) -> judge::Case {
    let layout = DramLayout::equal_slices(case.dram_inits.len(), DRAM_BYTES);
    let bases = layout.base.iter().map(|&b| u64::from(b));
    judge::Case {
        source: case.source.clone(),
        argsets: vec![case.args.clone()],
        overlays: bases.zip(case.dram_inits.iter().cloned()).collect(),
        dram_bytes: DRAM_BYTES,
        expected: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn a_known_good_program_passes() {
        let case = Case {
            seed: 1,
            ast: Default::default(),
            source: "dram<u32> d0;\ndram<u32> d1;\ndram<u8> d2;\n\
                     void main(u32 p0, u32 p1) {\n\
                       foreach (8) { u32 i => d1[i] = (i * p0) + p1; };\n\
                     }"
            .into(),
            args: vec![3, 9],
            dram_inits: vec![Vec::new(), Vec::new(), Vec::new()],
        };
        run_case(&case, &Lanes::default()).unwrap();
    }

    #[test]
    fn an_ill_formed_program_is_a_compile_error_not_a_panic() {
        let case = Case {
            seed: 2,
            ast: Default::default(),
            source: "void main() { undeclared[0] = 1; }".into(),
            args: vec![],
            dram_inits: vec![],
        };
        let f = run_case(&case, &Lanes::default()).unwrap_err();
        assert_eq!(f.kind, FailureKind::CompileError);
    }

    #[test]
    fn injection_is_caught_on_a_seeded_case() {
        // Find a generated case that is green normally and diverges with
        // the miscompile injected; with arithmetic flowing into stores in
        // nearly every program, the first seeds suffice.
        let cfg = GenConfig::default();
        let clean = Lanes::default();
        let bad = Lanes {
            inject: Some(Injection::FlipLastAddToSub),
            ..Lanes::default()
        };
        let mut caught = false;
        for i in 0..24u64 {
            let case = generate_case(crate::rng::case_seed(0xACCE_D175, i), &cfg);
            if run_case(&case, &clean).is_err() {
                continue;
            }
            if run_case(&case, &bad).is_err() {
                caught = true;
                break;
            }
        }
        assert!(caught, "no seed in the probe window tripped the injection");
    }
}
