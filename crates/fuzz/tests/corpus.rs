//! Corpus replay regression: every checked-in `corpus/*.rvt` seed is judged
//! by every lane at three opt levels ([`run_case`]). The corpus was
//! generated with `revet-fuzz --write-corpus crates/fuzz/corpus --seed
//! 1000` and is feature-steered — each file exercises at least two of
//! {while, foreach, reduce, readview, if} — so a lowering or pass
//! regression in any of those constructs turns a named file red instead of
//! waiting for the random campaign to resample it.

use revet_fuzz::{parse_repro, run_case, Lanes};
use std::path::PathBuf;

#[test]
fn every_corpus_seed_is_green_at_all_opt_levels() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rvt"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 20,
        "corpus shrank to {} files (want >= 20)",
        entries.len()
    );
    let bad: Vec<String> = entries
        .iter()
        .filter_map(|path| {
            let text = std::fs::read_to_string(path).expect("corpus file reads");
            let case = parse_repro(&text).map_err(|e| format!("unparseable: {e}"));
            let judged =
                case.and_then(|c| run_case(&c, &Lanes::default()).map_err(|f| f.to_string()));
            judged.err().map(|e| format!("{}: {e}", path.display()))
        })
        .collect();
    assert!(bad.is_empty(), "corpus regressions:\n{}", bad.join("\n"));
}
