//! Printer/parser round-trip over what the fuzz generator never emits:
//! for every source behind the golden digests — the eight Table III apps,
//! the fuzz corpus, the directed `apps/tests/golden/*.rvt` — and every
//! `examples/*.rvt` that parses, `print(parse(print(parse(src))))` equals
//! `print(parse(src))`. Between them these reach the printer's iterator,
//! `fork`, `replicate`, write/modify-view, pragma, `inc(last)` and bulk
//! arms, which `fuzz/tests/roundtrip.rs` (generated programs only) cannot.

use revet_lang::{parse_program, print_program};
use std::path::{Path, PathBuf};

fn rvt_files(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rvt"))
        .collect();
    files.sort();
    files
}

fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = revet_apps::all_apps()
        .iter()
        .map(|app| (format!("app/{}", app.name), (app.source)(4)))
        .collect();
    for dir in ["../fuzz/corpus", "../apps/tests/golden", "../../examples"] {
        for file in rvt_files(dir) {
            let text = std::fs::read_to_string(&file).expect("readable source");
            out.push((file.display().to_string(), text));
        }
    }
    out
}

#[test]
fn print_parse_print_is_a_fixpoint_on_every_checked_in_source() {
    let mut round_tripped = 0;
    let mut printed_all = String::new();
    for (name, src) in sources() {
        // `examples/bad_two_errors.rvt` is there to not parse.
        let Ok(ast) = parse_program(&src) else {
            assert!(name.contains("bad_"), "{name} does not parse");
            continue;
        };
        let printed = print_program(&ast);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|d| panic!("{name}: printed form does not parse: {d}\n{printed}"));
        assert_eq!(printed, print_program(&reparsed), "{name}");
        round_tripped += 1;
        printed_all.push_str(&printed);
    }
    assert!(round_tripped >= 36 + 2, "only {round_tripped} sources");
    // The arms the generator cannot reach are reached here.
    for needle in [
        "readit<",
        "peekreadit<",
        "writeit<",
        "manualwriteit<",
        "writeview<",
        "modifyview<",
        "fork (",
        "replicate (",
        "pragma(",
        ".inc(",
        ".peek(",
        ".load(",
        ".store(",
        "++;",
        "exit;",
        "reduce(",
    ] {
        assert!(printed_all.contains(needle), "no source prints `{needle}`");
    }
}
