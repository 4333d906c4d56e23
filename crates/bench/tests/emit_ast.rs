//! `revetc --emit ast` prints the parsed program back as source, so its
//! output grows with the source: a left-deep chain of N terms prints in
//! O(N) bytes, where the AST's indented debug form grew with the square of
//! its depth (12 MB for 1 000 terms).

use std::process::Command;

/// `revetc --emit ast`'s output for a `main` whose one expression chains
/// `terms` additions of `i`.
fn emit_chain(terms: usize) -> String {
    let chain = vec!["i"; terms].join(" + ");
    let src = format!("void main() {{\n    u32 i = 1;\n    u32 x = {chain};\n}}\n");
    let path = std::env::temp_dir().join(format!(
        "revetc_emit_ast_{}_{terms}.rvt",
        std::process::id()
    ));
    std::fs::write(&path, &src).expect("write the source");
    let out = Command::new(env!("CARGO_BIN_EXE_revetc"))
        .args(["--emit", "ast"])
        .arg(&path)
        .output()
        .expect("revetc runs");
    std::fs::remove_file(&path).expect("remove the source");
    assert!(
        out.status.success(),
        "{terms} terms: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn emit_ast_of_a_long_chain_grows_linearly() {
    let (short, long) = (emit_chain(500), emit_chain(1_000));
    assert!(long.contains("u32 x = "), "{long}");
    // Doubling the terms adds the same bytes again, give or take the
    // fixed lines around the chain.
    let per_term = (long.len() - short.len()) as f64 / 500.0;
    assert!(
        per_term <= 8.0 && long.len() <= 2 * short.len(),
        "500 terms print {} bytes, 1 000 print {}",
        short.len(),
        long.len()
    );
}
