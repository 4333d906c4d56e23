//! # revet-fuzz
//!
//! Generative differential testing for the whole Revet stack. A seeded
//! generator ([`gen`]) emits well-typed, terminating Revet source
//! programs; [`run_case`] hands each one to the judge
//! ([`revet_oracle::judge()`]), which runs it at -O0/-O1/-O2 through every
//! lane — the MIR interpreter, the compiled execution plan, the dense-sweep
//! oracle, the chunked stream, the Table II simulator and a toggle mask of
//! the six §V switches — and demands bit-identical final DRAM and exit
//! streams. Failures become self-contained `.rvt` reproducers ([`repro`])
//! and are automatically minimized ([`reduce`]) before they reach a human.
//!
//! The `revet-fuzz` binary drives campaigns:
//!
//! ```text
//! revet-fuzz --seed 42 --cases 500 [--out DIR] [--keep-going] [--quiet]
//! ```
//!
//! See the "Fuzzing & differential oracles" section of `ARCHITECTURE.md`
//! for the lanes and the design constraints on the generator.

pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod repro;
pub mod rng;

pub use gen::{generate_case, Case, GenConfig};
pub use oracle::{judge_case, run_case, Failure, FailureKind, Injection, Lanes};
pub use reduce::{reduce_case, ReduceConfig, ReduceReport};
pub use repro::{format_repro, parse_repro};
pub use rng::{case_seed, Rng};

/// One campaign failure: the case, its divergence, and the minimized
/// reproducer.
#[derive(Clone, Debug)]
pub struct CampaignFailure {
    /// Zero-based index of the case within the campaign.
    pub case_index: u64,
    /// The failing case as generated.
    pub case: Case,
    /// The divergence the oracle reported.
    pub failure: Failure,
    /// The reduced case (same failure kind, fewer statements).
    pub reduced: Case,
    /// What the reducer did.
    pub reduce_report: ReduceReport,
}

/// Aggregate campaign result.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Cases generated and judged.
    pub cases_run: u64,
    /// Every failure found (empty = green campaign).
    pub failures: Vec<CampaignFailure>,
}

/// Runs a `cases`-long campaign from `seed`. Failing cases are reduced
/// immediately; `keep_going` continues past the first failure.
/// `progress` is called after every case with (index, failures-so-far).
pub fn run_campaign(
    seed: u64,
    cases: u64,
    gen_cfg: &GenConfig,
    lanes: &Lanes,
    reduce_cfg: &ReduceConfig,
    keep_going: bool,
    mut progress: impl FnMut(u64, usize),
) -> CampaignReport {
    let mut report = CampaignReport::default();
    for i in 0..cases {
        let case = generate_case(case_seed(seed, i), gen_cfg);
        report.cases_run += 1;
        if let Err(failure) = run_case(&case, lanes) {
            let (reduced, reduce_report) = reduce_case(&case, &failure, lanes, reduce_cfg);
            report.failures.push(CampaignFailure {
                case_index: i,
                case,
                failure,
                reduced,
                reduce_report,
            });
            if !keep_going {
                break;
            }
        }
        progress(i, report.failures.len());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree smoke slice of the CLI acceptance run (`--seed 42
    /// --cases 500` runs in CI and locally; here a shorter prefix keeps
    /// `cargo test` snappy while still crossing every generator feature).
    #[test]
    fn short_campaign_from_seed_42_is_green() {
        let report = run_campaign(
            42,
            60,
            &GenConfig::default(),
            &Lanes::default(),
            &ReduceConfig::default(),
            true,
            |_, _| {},
        );
        assert_eq!(report.cases_run, 60);
        let msgs: Vec<String> = report
            .failures
            .iter()
            .map(|f| {
                format!(
                    "case {} (seed {:#x}): {}\n{}",
                    f.case_index, f.case.seed, f.failure, f.reduced.source
                )
            })
            .collect();
        assert!(msgs.is_empty(), "{}", msgs.join("\n---\n"));
    }
}
