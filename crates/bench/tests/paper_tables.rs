//! The paper's evaluation, pinned: [`revet_bench::paper`] at scale 16 must
//! print `golden/paper_tables.txt` byte for byte.
//!
//! Every table prints the integers its ratios come from — Table IV's link
//! counts and fit verdict, Table V's cycles under each ideal-model preset,
//! Fig. 12's raw CU/MU per ablation, Fig. 13's unit totals and cycles — so
//! a change to the optimizer, the lowering or the machine model that moves
//! a paper number shows here as a row diff. A change meant to move one
//! regenerates the file from the recomputed text the failing assertion
//! prints (or from `revetc --emit paper`, whose default scale is 16).

const PAPER_GOLDEN: &str = include_str!("golden/paper_tables.txt");

const SCALE: usize = 16;

#[test]
fn paper_tables_match_the_golden() {
    let text = revet_bench::paper(SCALE);
    let actual: Vec<&str> = text.lines().collect();
    let golden: Vec<&str> = PAPER_GOLDEN.lines().collect();
    for (row, line) in actual.iter().enumerate() {
        let want = golden.get(row).copied().unwrap_or("<missing row>");
        assert!(
            *line == want,
            "paper tables moved at row {row}\n  golden: {want}\n  actual: {line}\n\
             recomputed golden/paper_tables.txt:\n{text}"
        );
    }
    assert_eq!(actual.len(), golden.len(), "golden has extra rows");
    assert_eq!(text, PAPER_GOLDEN, "rows match but bytes differ");
}

#[test]
fn emit_paper_with_an_input_is_a_usage_error() {
    for input in [&["prog.rvt"][..], &["--app", "murmur3"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_revetc"))
            .args(["--emit", "paper"])
            .args(input)
            .output()
            .expect("revetc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{input:?}: {stderr}");
        assert!(stderr.contains("usage: revetc"), "{input:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{input:?} printed a report");
    }
}
