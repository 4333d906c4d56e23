//! Generated programs under `PassOptions` toggle masks: each case from the
//! fuzz generator, judged against the MIR interpreter with every §V switch
//! on at -O2 and -O0, and at -O0 with every switch off and with one
//! seed-picked switch off.

use revet_fuzz::{case_seed, generate_case, judge_case, GenConfig, Lanes};
use revet_oracle::judge::judge;

#[test]
fn random_programs_agree_across_backends() {
    for i in 0..24u64 {
        let case = generate_case(case_seed(0xD1FF, i), &GenConfig::default());
        let lanes = Lanes {
            interp: true,
            toggles: vec![0, 0x3f ^ (1 << (case.seed % 6))],
            ..Lanes::plan(&[2, 0])
        };
        if let Err(f) = judge(&judge_case(&case), &lanes) {
            panic!("case {i} (seed {:#x}): {f}\n{}", case.seed, case.source);
        }
    }
}
