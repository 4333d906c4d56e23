//! One minimal source per front-end error site: every diagnostic the
//! lexer, the parser and the AST→MIR lowering can construct, pinned by
//! code, full message and `line:col`.
//!
//! [`SITES`] is the literal list of construction sites, by file; every one
//! must be reached by a [`CASES`] row or be listed, with the reason, in
//! [`UNREACHED`]. [`CONSTRUCTIONS`] ties the list to the code: it counts
//! the diagnostic constructions in each source file, so a new error arm
//! without a site (and hence without a row) fails here.

use revet_diag::SourceMap;
use std::collections::BTreeSet;

/// Every error site, as `file:label`.
const SITES: &[&str] = &[
    "token:unterminated-block-comment",
    "token:bad-integer-literal",
    "token:unterminated-char-literal",
    "token:unknown-escape",
    "token:unexpected-char",
    "parser:too-many-errors",
    "parser:expected-punct",
    "parser:expected-ident",
    "parser:expected-int",
    "parser:bad-item",
    "parser:unknown-type",
    "parser:expected-type",
    "parser:unclosed-block",
    "parser:unknown-method",
    "parser:foreach-needs-reduce",
    "parser:unknown-reduce-op",
    "parser:expected-expr",
    "lower:missing-return",
    "lower:mir-verify",
    "lower:readonly-assign",
    "lower:assign-unknown",
    "lower:handle-as-scalar",
    "lower:unknown-variable",
    "lower:index-iterator",
    "lower:index-scalar",
    "lower:unknown-memory-object",
    "lower:cast-to-void",
    "lower:reduce-without-yield",
    "lower:iterator-kind",
    "lower:not-an-iterator",
    "lower:unreachable",
    "lower:unknown-dram",
    "lower:store-read-view",
    "lower:store-iterator",
    "lower:unknown-store-target",
    "lower:stray-yield",
    "lower:void-returns-value",
    "lower:nonvoid-returns-nothing",
    "lower:return-in-loop",
    "lower:bad-pragma",
    "lower:not-raw-sram",
    "lower:out-of-range",
    "lower:region-past-mu",
];

/// Sites no row reaches, each with the reason.
const UNREACHED: &[(&str, &str)] = &[(
    "lower:mir-verify",
    "wraps a verifier failure on the module the front end itself built, i.e. a front-end \
     bug; the one source shape that used to reach it (`return` directly inside a loop \
     body) is `lower:return-in-loop` now",
)];

/// (file, needle, occurrences above the file's `#[cfg(test)]`): how many
/// diagnostics each file constructs. `lower.rs` has one construction per
/// site; `parser.rs` has eleven `err` / `err_code` call sites (eight and
/// three) plus the helper pair's own two `err_code` lines, the one
/// construction inside it, and the too-many-errors diagnostic.
const CONSTRUCTIONS: &[(&str, &str, usize)] = &[
    ("token.rs", "Diagnostic::error(", 5),
    ("parser.rs", "self.err(", 8),
    ("parser.rs", "err_code", 5),
    ("parser.rs", "Diagnostic::error(", 2),
    ("lower.rs", "Diagnostic::error(", 25),
];

struct Case {
    site: &'static str,
    src: &'static str,
    code: &'static str,
    message: &'static str,
    at: (u32, u32),
}

const fn case(
    site: &'static str,
    src: &'static str,
    code: &'static str,
    message: &'static str,
    at: (u32, u32),
) -> Case {
    Case {
        site,
        src,
        code,
        message,
        at,
    }
}

const CASES: &[Case] = &[
    // ---- lexer ----
    case(
        "token:unterminated-block-comment",
        "void main() { } /* open",
        "E0002",
        "unterminated block comment",
        (1, 17),
    ),
    case(
        "token:bad-integer-literal",
        "void main() { u32 x = 12ab; }",
        "E0003",
        "bad integer literal '12ab': invalid digit found in string",
        (1, 23),
    ),
    case(
        "token:bad-integer-literal",
        "void main() { u32 x = 0x; }",
        "E0003",
        "bad integer literal '0x': cannot parse integer from empty string",
        (1, 23),
    ),
    case(
        "token:unterminated-char-literal",
        "void main() { u32 x = 'a; }",
        "E0002",
        "unterminated char literal",
        (1, 23),
    ),
    case(
        "token:unterminated-char-literal",
        "void main() { u32 x = '",
        "E0002",
        "unterminated char literal",
        (1, 23),
    ),
    case(
        "token:unterminated-char-literal",
        "void main() { u32 x = '\\",
        "E0002",
        "unterminated char literal",
        (1, 23),
    ),
    case(
        "token:unknown-escape",
        "void main() { u32 x = '\\q'; }",
        "E0003",
        "unknown escape '\\q'",
        (1, 23),
    ),
    case(
        "token:unexpected-char",
        "void main() { u32 x = 1 @ 2; }",
        "E0001",
        "unexpected character '@'",
        (1, 25),
    ),
    // ---- parser ----
    case(
        "parser:expected-punct",
        "void main() { u32 x = 1 }",
        "E0101",
        "expected ';', found '}'",
        (1, 25),
    ),
    case(
        "parser:expected-ident",
        "void main() { *3 = 1; }",
        "E0101",
        "expected identifier, found '3'",
        (1, 16),
    ),
    case(
        "parser:expected-int",
        "void main() { replicate (x) { }; }",
        "E0101",
        "expected integer, found 'x'",
        (1, 26),
    ),
    case(
        "parser:bad-item",
        "42",
        "E0104",
        "expected 'dram' declaration or function, found '42'",
        (1, 1),
    ),
    case(
        "parser:unknown-type",
        "dram<float> d;",
        "E0102",
        "unknown type 'float'",
        (1, 6),
    ),
    case(
        "parser:expected-type",
        "dram<3> d;",
        "E0101",
        "expected type name, found '3'",
        (1, 6),
    ),
    case(
        "parser:unclosed-block",
        "void main() { u32 x = 1;",
        "E0101",
        "expected '}', found end of input",
        (1, 25),
    ),
    case(
        "parser:unknown-method",
        "void main() { sram<u32, 4> b; b.flush(); }",
        "E0101",
        "unknown method 'flush'",
        (1, 38),
    ),
    case(
        "parser:foreach-needs-reduce",
        "void main() { u32 x = foreach (4) { u32 i => yield i; }; }",
        "E0101",
        "foreach in expression position needs 'reduce(op)'",
        (1, 35),
    ),
    case(
        "parser:unknown-reduce-op",
        "void main() { u32 x = foreach (4) reduce(avg) { u32 i => yield i; }; }",
        "E0101",
        "unknown reduction operator 'avg'",
        (1, 42),
    ),
    case(
        "parser:expected-expr",
        "void main() { u32 x = ; }",
        "E0103",
        "expected expression, found ';'",
        (1, 23),
    ),
    // The 20th error is followed by the budget diagnostic, at the token
    // the abandoned parse stopped on.
    case(
        "parser:too-many-errors",
        "void main() { x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=;x=; }",
        "E0105",
        "too many errors (20); abandoning the parse",
        (1, 74),
    ),
    // ---- lowering ----
    case(
        "lower:missing-return",
        "u32 f() { u32 x = 1; }",
        "E0204",
        "function 'f' must end with return of a value",
        (1, 1),
    ),
    case(
        "lower:readonly-assign",
        "void main() {\n  u32 acc = 0;\n  foreach (4) { u32 i =>\n    acc = acc + i;\n  };\n}",
        "E0203",
        "cannot assign 'acc': foreach threads have a read-only view of parent variables \
         (allocate memory to communicate)",
        (4, 5),
    ),
    case(
        "lower:assign-unknown",
        "void main() { ghost = 1; }",
        "E0201",
        "assignment to unknown variable 'ghost'",
        (1, 15),
    ),
    case(
        "lower:handle-as-scalar",
        "void main() { sram<u32, 4> buf; u32 x = buf; }",
        "E0202",
        "'buf' is a memory object, not a scalar value",
        (1, 33),
    ),
    case(
        "lower:unknown-variable",
        "void main() { u32 x = ghost; }",
        "E0201",
        "unknown variable 'ghost'",
        (1, 15),
    ),
    case(
        "lower:index-iterator",
        "dram<u8> d; void main() { readit<4> it(d, 0); u32 x = it[0]; }",
        "E0202",
        "iterator 'it' cannot be indexed; use *it",
        (1, 47),
    ),
    case(
        "lower:index-scalar",
        "void main() { u32 s = 0; u32 x = s[0]; }",
        "E0202",
        "'s' is a scalar and cannot be indexed",
        (1, 26),
    ),
    case(
        "lower:unknown-memory-object",
        "void main() { u32 x = ghost[0]; }",
        "E0201",
        "unknown memory object 'ghost'",
        (1, 15),
    ),
    case(
        "lower:cast-to-void",
        "void main() { u32 x = (void) 1; }",
        "E0205",
        "cannot cast to void",
        (1, 15),
    ),
    case(
        "lower:reduce-without-yield",
        "void main() { u32 x = foreach (4) reduce(+) { u32 i => u32 y = i; }; }",
        "E0204",
        "reducing foreach body must end with 'yield expr;'",
        (1, 15),
    ),
    case(
        "lower:iterator-kind",
        "dram<u8> d; void main() { readit<4> it(d, 0); *it = 1; }",
        "E0202",
        "iterator 'it' of kind Read does not support this operation",
        (1, 47),
    ),
    case(
        "lower:iterator-kind",
        "dram<u8> d; void main() { readit<4> it(d, 0); u32 x = it.peek(1); }",
        "E0202",
        "iterator 'it' of kind Read does not support this operation",
        (1, 47),
    ),
    case(
        "lower:iterator-kind",
        "dram<u8> d; void main() { manualwriteit<4> w(d, 0); u32 x = *w; }",
        "E0202",
        "iterator 'w' of kind ManualWrite does not support this operation",
        (1, 53),
    ),
    case(
        "lower:not-an-iterator",
        "void main() { u32 s = 0; s++; }",
        "E0202",
        "'s' is not an iterator",
        (1, 26),
    ),
    case(
        "lower:not-an-iterator",
        "void main() { u32 x = *ghost; }",
        "E0202",
        "'ghost' is not an iterator",
        (1, 15),
    ),
    case(
        "lower:unreachable",
        "void main() { foreach (4) { u32 i => exit; u32 x = 1; }; }",
        "E0205",
        "unreachable statements after exit/return",
        (1, 44),
    ),
    case(
        "lower:unknown-dram",
        "void main() { readview<4> v(ghost, 0); }",
        "E0201",
        "unknown dram 'ghost'",
        (1, 15),
    ),
    case(
        "lower:unknown-dram",
        "void main() { writeit<4> w(ghost, 0); }",
        "E0201",
        "unknown dram 'ghost'",
        (1, 15),
    ),
    case(
        "lower:unknown-dram",
        "void main() { sram<u32, 4> b; b.load(ghost, 0, 4); }",
        "E0201",
        "unknown dram 'ghost'",
        (1, 31),
    ),
    case(
        "lower:store-read-view",
        "dram<u32> d; void main() { readview<4> v(d, 0); v[0] = 1; }",
        "E0202",
        "cannot write through read view 'v'",
        (1, 49),
    ),
    case(
        "lower:store-iterator",
        "dram<u32> d; void main() { writeit<4> w(d, 0); w[0] = 1; }",
        "E0202",
        "cannot index-store through iterator 'w'",
        (1, 48),
    ),
    case(
        "lower:unknown-store-target",
        "void main() { ghost[0] = 1; }",
        "E0201",
        "unknown store target 'ghost'",
        (1, 15),
    ),
    case(
        "lower:unknown-store-target",
        "void main() { u32 s = 0; s[0] = 1; }",
        "E0201",
        "unknown store target 's'",
        (1, 26),
    ),
    case(
        "lower:stray-yield",
        "void main() { yield 1; }",
        "E0204",
        "'yield' is only allowed as the final statement of a reducing foreach",
        (1, 15),
    ),
    case(
        "lower:void-returns-value",
        "void main() { return 1; }",
        "E0204",
        "void function returns a value",
        (1, 15),
    ),
    case(
        "lower:nonvoid-returns-nothing",
        "u32 f() { return; }",
        "E0204",
        "non-void function returns nothing",
        (1, 11),
    ),
    case(
        "lower:return-in-loop",
        "void main(u32 n) {\n  u32 i = 0;\n  while (i < n) {\n    i = i + 1;\n    return;\n  };\n}",
        "E0204",
        "'return' cannot end a while body: its region yields to the construct (only a \
         function body or an 'if' branch may return)",
        (5, 5),
    ),
    case(
        "lower:return-in-loop",
        "void main() { foreach (4) { u32 i => return; }; }",
        "E0204",
        "'return' cannot end a foreach body: its region yields to the construct (only a \
         function body or an 'if' branch may return)",
        (1, 38),
    ),
    case(
        "lower:return-in-loop",
        "void main() { replicate (2) { return; }; }",
        "E0204",
        "'return' cannot end a replicate body: its region yields to the construct (only a \
         function body or an 'if' branch may return)",
        (1, 31),
    ),
    case(
        "lower:return-in-loop",
        "void main() { fork (2) { u32 i => return; }; }",
        "E0204",
        "'return' cannot end a fork body: its region yields to the construct (only a \
         function body or an 'if' branch may return)",
        (1, 35),
    ),
    case(
        "lower:return-in-loop",
        "void main() { u32 x = foreach (4) reduce(+) { u32 i => return; }; }",
        "E0204",
        "'return' cannot end a foreach body: its region yields to the construct (only a \
         function body or an 'if' branch may return)",
        (1, 56),
    ),
    case(
        "lower:bad-pragma",
        "void main() { pragma(unroll, 4); }",
        "E0205",
        "pragma 'unroll' is not valid here",
        (1, 15),
    ),
    case(
        "lower:bad-pragma",
        "void main() { pragma(eliminate_hierarchy); }",
        "E0205",
        "pragma 'eliminate_hierarchy' is not valid here",
        (1, 15),
    ),
    case(
        "lower:bad-pragma",
        "void main() { u32 x = foreach (4) reduce(+) { u32 i => pragma(eliminate_hierarchy); yield i; }; }",
        "E0205",
        "pragma 'eliminate_hierarchy' is not valid here",
        (1, 56),
    ),
    case(
        "lower:not-raw-sram",
        "dram<u32> d; void main() { readview<4> v(d, 0); v.load(d, 0, 4); }",
        "E0202",
        "'v' is not a raw SRAM",
        (1, 49),
    ),
    case(
        "lower:out-of-range",
        "void main() { pragma(threads, 0); }",
        "E0206",
        "the thread count is 0, outside 1..=65536",
        (1, 15),
    ),
    case(
        "lower:out-of-range",
        "void main() { foreach (4) { u32 i => pragma(threads, 4294967295); }; }",
        "E0206",
        "the thread count is 4294967295, outside 1..=65536",
        (1, 38),
    ),
    case(
        "lower:out-of-range",
        "void main() { sram<u32, 0> b; }",
        "E0206",
        "the size of 'b' is 0, outside 1..=65536",
        (1, 15),
    ),
    case(
        "lower:out-of-range",
        "dram<u32> d; void main() { readview<67108864> v(d, 0); }",
        "E0206",
        "the size of 'v' is 67108864, outside 1..=65536",
        (1, 28),
    ),
    case(
        "lower:region-past-mu",
        "dram<u32> d; void main() { readview<2048> v(d, 0); }",
        "E0206",
        "'v' needs 131072 SRAM words, 2048 for each of 64 threads: more than one memory unit \
         (65536 words)",
        (1, 28),
    ),
    case(
        "lower:region-past-mu",
        "dram<u8> d; void main() { pragma(threads, 65536); readit<1> it(d, 0); }",
        "E0206",
        "'it' needs 131072 SRAM words, 2 for each of 65536 threads: more than one memory unit \
         (65536 words)",
        (1, 51),
    ),
    case(
        "lower:region-past-mu",
        "dram<u8> d; void main() { pragma(threads, 1024); peekreadit<64> it(d, 0); }",
        "E0206",
        "'it' needs 131072 SRAM words, 128 for each of 1024 threads: more than one memory \
         unit (65536 words)",
        (1, 50),
    ),
];

#[test]
fn every_site_reports_its_pinned_diagnostic() {
    let mut failures = Vec::new();
    for c in CASES {
        let Err(diags) = revet_lang::compile_to_mir(c.src) else {
            failures.push(format!("{}: `{}` compiled", c.site, c.src));
            continue;
        };
        let map = SourceMap::new(c.src);
        let got: Vec<String> = diags
            .iter()
            .map(|d| {
                let at = d.span.map(|s| map.line_col(s.start));
                let at = at.map_or("-".to_string(), |lc| format!("{}:{}", lc.line, lc.col));
                format!("{} {at} {}", d.code, d.message)
            })
            .collect();
        let want = format!("{} {}:{} {}", c.code, c.at.0, c.at.1, c.message);
        if !got.contains(&want) {
            failures.push(format!(
                "{}: `{}`\n  want {want}\n  got  {}",
                c.site,
                c.src,
                got.join("\n       ")
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn every_site_has_a_row_or_a_reason() {
    let reached: BTreeSet<&str> = CASES.iter().map(|c| c.site).collect();
    let unreached: BTreeSet<&str> = UNREACHED.iter().map(|(s, _)| *s).collect();
    for site in &reached {
        assert!(SITES.contains(site), "row for unlisted site `{site}`");
        assert!(
            !unreached.contains(site),
            "`{site}` has a row now; drop it from UNREACHED"
        );
    }
    for site in SITES {
        assert!(
            reached.contains(site) || unreached.contains(site),
            "site `{site}` has neither a row nor a reason"
        );
    }
}

#[test]
fn the_site_list_covers_every_construction() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (file, needle, want) in CONSTRUCTIONS {
        let text = std::fs::read_to_string(src_dir.join(file)).expect("source file");
        let shipped = text.split("#[cfg(test)]").next().expect("non-empty");
        assert_eq!(
            shipped.matches(needle).count(),
            *want,
            "{file} constructs `{needle}` a different number of times: add the new site to \
             SITES with a row, then update CONSTRUCTIONS"
        );
    }
}
