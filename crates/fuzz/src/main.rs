//! `revet-fuzz` — seeded differential fuzzing campaigns from the
//! command line.
//!
//! ```text
//! revet-fuzz [--seed N] [--cases K] [--out DIR] [--keep-going]
//!            [--max-rounds R] [--quiet] [--replay FILE]
//!            [--write-corpus DIR [--corpus-size N]]
//! ```
//!
//! Generates `K` programs from `--seed` (default 42/500) and judges each
//! with `revet_oracle::judge` (every lane at three opt levels,
//! bit-identical DRAM + exit streams, clean diagnostics, no panics). On
//! failure, writes `case-<seed>.rvt` (the full reproducer)
//! and `case-<seed>.min.rvt` (reducer-minimized) under `--out` (default
//! `fuzz-out/`) and exits 1. `--replay FILE` re-judges one existing
//! reproducer instead. `--write-corpus` regenerates the checked-in
//! `corpus/` seed set. Exit codes: 0 green, 1 failures, 2 usage/io.

use revet_fuzz::{
    case_seed, format_repro, generate_case, parse_repro, run_campaign, run_case, GenConfig, Lanes,
    ReduceConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: revet-fuzz [--seed N] [--cases K] [--out DIR] [--keep-going]
       [--max-rounds R] [--quiet] [--replay FILE]
       [--write-corpus DIR [--corpus-size N]]
       (exit 0 = green, 1 = divergence found, 2 = usage/io)";

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut cases = 500u64;
    let mut out_dir = PathBuf::from("fuzz-out");
    let mut keep_going = false;
    let mut quiet = false;
    let mut lanes = Lanes::default();
    let mut replay: Option<PathBuf> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut corpus_size = 20usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("{what} needs a value\n{USAGE}");
            }
            v
        };
        match a.as_str() {
            "--seed" => match take("--seed").and_then(|v| parse_u64(&v)) {
                Some(v) => seed = v,
                None => return ExitCode::from(2),
            },
            "--cases" => match take("--cases").and_then(|v| parse_u64(&v)) {
                Some(v) => cases = v,
                None => return ExitCode::from(2),
            },
            "--max-rounds" => match take("--max-rounds").and_then(|v| parse_u64(&v)) {
                Some(v) => lanes.max_rounds = v,
                None => return ExitCode::from(2),
            },
            "--out" => match take("--out") {
                Some(v) => out_dir = PathBuf::from(v),
                None => return ExitCode::from(2),
            },
            "--replay" => match take("--replay") {
                Some(v) => replay = Some(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--write-corpus" => match take("--write-corpus") {
                Some(v) => corpus_dir = Some(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--corpus-size" => match take("--corpus-size").and_then(|v| parse_u64(&v)) {
                Some(v) => corpus_size = v as usize,
                None => return ExitCode::from(2),
            },
            "--keep-going" => keep_going = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // Panics inside the pipeline are an expected failure class: the
    // oracle catches them and reports `FailureKind::Panic` with the
    // payload, so the default hook's backtrace spew is pure noise.
    std::panic::set_hook(Box::new(|_| {}));

    if let Some(file) = replay {
        return replay_one(&file, &lanes);
    }
    if let Some(dir) = corpus_dir {
        return write_corpus(&dir, seed, corpus_size, &lanes, quiet);
    }

    let gen_cfg = GenConfig::default();
    let reduce_cfg = ReduceConfig::default();
    let report = run_campaign(
        seed,
        cases,
        &gen_cfg,
        &lanes,
        &reduce_cfg,
        keep_going,
        |i, fails| {
            if !quiet && (i + 1) % 50 == 0 {
                eprintln!("[revet-fuzz] {}/{cases} cases, {fails} failure(s)", i + 1);
            }
        },
    );

    if report.failures.is_empty() {
        if !quiet {
            eprintln!(
                "[revet-fuzz] campaign green: {} cases from seed {seed} \
                 (interp/plan/dense/stream/timed/toggles x 3 opt levels, bit-identical)",
                report.cases_run
            );
        }
        return ExitCode::SUCCESS;
    }

    if std::fs::create_dir_all(&out_dir).is_err() {
        eprintln!("cannot create --out dir {}", out_dir.display());
        return ExitCode::from(2);
    }
    for f in &report.failures {
        let full = out_dir.join(format!("case-{:016x}.rvt", f.case.seed));
        let min = out_dir.join(format!("case-{:016x}.min.rvt", f.case.seed));
        let _ = std::fs::write(&full, format_repro(&f.case, Some(&f.failure)));
        let _ = std::fs::write(&min, format_repro(&f.reduced, Some(&f.failure)));
        eprintln!(
            "[revet-fuzz] case {} FAILED: {}\n  reproducer: {}\n  minimized:  {} \
             ({} -> {} stmts in {} oracle runs)",
            f.case_index,
            f.failure,
            full.display(),
            min.display(),
            f.reduce_report.stmts_before,
            f.reduce_report.stmts_after,
            f.reduce_report.oracle_runs,
        );
    }
    ExitCode::FAILURE
}

fn parse_u64(s: &str) -> Option<u64> {
    let r = if let Some(hexpart) = s.strip_prefix("0x") {
        u64::from_str_radix(hexpart, 16)
    } else {
        s.parse()
    };
    if r.is_err() {
        eprintln!("bad number {s:?}\n{USAGE}");
    }
    r.ok()
}

fn replay_one(file: &Path, lanes: &Lanes) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(file) else {
        eprintln!("cannot read {}", file.display());
        return ExitCode::from(2);
    };
    let case = match parse_repro(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    match run_case(&case, lanes) {
        Ok(()) => {
            eprintln!("{}: PASS", file.display());
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("{}: FAIL ({f})", file.display());
            ExitCode::FAILURE
        }
    }
}

/// Regenerates the checked-in corpus: scans case seeds from `seed`,
/// keeps oracle-green programs that hit interesting features (loops,
/// reductions, views), minimizes nothing (they pass), and writes
/// `seed-<hex>.rvt` files until `want` are collected.
fn write_corpus(dir: &Path, seed: u64, want: usize, lanes: &Lanes, quiet: bool) -> ExitCode {
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("cannot create corpus dir {}", dir.display());
        return ExitCode::from(2);
    }
    let gen_cfg = GenConfig::default();
    let features = ["while (", "foreach (", "reduce(", "readview<", "if ("];
    let mut kept = 0usize;
    let mut feature_counts = [0usize; 5];
    let mut i = 0u64;
    while kept < want && i < 10_000 {
        let case = generate_case(case_seed(seed, i), &gen_cfg);
        i += 1;
        let hits: Vec<usize> = features
            .iter()
            .enumerate()
            .filter(|(_, f)| case.source.contains(*f))
            .map(|(k, _)| k)
            .collect();
        // Require at least two structured features so the corpus stays
        // diverse, and steer toward under-represented ones.
        if hits.len() < 2 {
            continue;
        }
        let rare = hits
            .iter()
            .any(|&k| feature_counts[k] <= feature_counts.iter().min().copied().unwrap_or(0));
        if !rare && kept > want / 2 {
            continue;
        }
        if run_case(&case, lanes).is_err() {
            continue;
        }
        for &k in &hits {
            feature_counts[k] += 1;
        }
        let path = dir.join(format!("seed-{:016x}.rvt", case.seed));
        if std::fs::write(&path, format_repro(&case, None)).is_err() {
            eprintln!("cannot write {}", path.display());
            return ExitCode::from(2);
        }
        kept += 1;
        if !quiet {
            eprintln!("[revet-fuzz] corpus {}: {}", kept, path.display());
        }
    }
    if kept < want {
        eprintln!("only collected {kept}/{want} corpus programs");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
