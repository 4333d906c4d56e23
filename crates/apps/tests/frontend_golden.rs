//! Golden digest of the front end: one row per *distinct source* behind
//! `dataflow_golden.rs`'s rows — the eight Table III apps at replicate
//! width 4, every `fuzz/corpus/*.rvt`, and every directed
//! `tests/golden/*.rvt`. Four columns pin what the parser and the AST→MIR
//! lowering produce:
//!
//! - `stmts=` — statements in pre-order (`Program::walk_stmts`: nested
//!   bodies and a declaration's reducing-`foreach` body included);
//! - `spans=` — digest of every DRAM declaration's, function's and
//!   statement's byte span, in that pre-order;
//! - `printed=` — digest of `print_program(parse(src))`. The printer
//!   parenthesizes every composite expression, so this pins precedence and
//!   associativity without hashing the AST's `Debug` form;
//! - `front=` — digest of `print_module` straight after
//!   `Session::lower_mir` (op order and value numbering), each function's
//!   value→span table, and `thread_count()`.
//!
//! A refactor of `revet-lang` that keeps `golden/frontend.digest`
//! unedited has kept all of it bit-for-bit. On a mismatch the recomputed
//! table is written to `target/frontend_golden/actual.digest`.

use revet_apps::all_apps;
use revet_core::{PassOptions, Session};
use revet_mir::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rvt` file in `dir`, sorted, as (`prefix/stem`, text).
fn rvt_files(dir: &Path, prefix: &str) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rvt"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let stem = p.file_stem().expect("file stem").to_string_lossy();
            (format!("{prefix}/{stem}"), read(p))
        })
        .collect()
}

fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_apps()
        .iter()
        .map(|app| (format!("app/{}", app.name), (app.source)(4)))
        .collect();
    out.extend(rvt_files(&manifest_dir().join("../fuzz/corpus"), "corpus"));
    out.extend(rvt_files(&manifest_dir().join("tests/golden"), "directed"));
    out
}

/// FNV-1a, 64-bit (the digest `dataflow_golden.rs` uses).
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(name: &str, src: &str) -> String {
    let mut session = Session::new(src, PassOptions::default());
    let fail = |e| -> ! { panic!("{name}: {e}") };
    let prog = session.parse().unwrap_or_else(|e| fail(e)).clone();

    let mut spans = String::new();
    for d in &prog.drams {
        writeln!(spans, "dram {}..{}", d.span.start, d.span.end).unwrap();
    }
    for f in &prog.funcs {
        writeln!(spans, "func {}..{}", f.span.start, f.span.end).unwrap();
    }
    let mut stmts = 0usize;
    prog.walk_stmts(&mut |s| {
        stmts += 1;
        writeln!(spans, "stmt {}..{}", s.span.start, s.span.end).unwrap();
    });

    let printed = revet_lang::print_program(&prog);

    let module = session.lower_mir().unwrap_or_else(|e| fail(e));
    let mut front = revet_mir::print_module(module);
    for f in &module.funcs {
        writeln!(front, "spans @{}", f.name).unwrap();
        for v in 0..f.value_count() as u32 {
            if let Some(s) = f.spans.get(Value(v)) {
                writeln!(front, "%{v} {}..{}", s.start, s.end).unwrap();
            }
        }
    }
    writeln!(front, "threads={:?}", session.thread_count()).unwrap();

    format!(
        "{name} stmts={stmts} spans={:016x} printed={:016x} front={:016x}\n",
        digest(&spans),
        digest(&printed),
        digest(&front)
    )
}

#[test]
fn front_end_output_matches_the_golden_digest() {
    let golden_path = manifest_dir().join("tests/golden/frontend.digest");
    let golden = read(&golden_path);
    let sources = sources();
    assert_eq!(sources.len(), 37, "8 apps + 20 corpus files + 9 directed");
    let actual: String = sources.iter().map(|(n, s)| row(n, s)).collect();
    if actual != golden {
        let out = manifest_dir().join("../../target/frontend_golden");
        std::fs::create_dir_all(&out).expect("create target/frontend_golden");
        std::fs::write(out.join("actual.digest"), &actual).expect("write actual.digest");
        let first = actual
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .find(|(a, g)| a != g)
            .map_or("row count differs", |(a, _)| a);
        panic!(
            "front-end output differs from {}; first differing row: `{first}`; \
             the recomputed table is in {}",
            golden_path.display(),
            out.display()
        );
    }
}
