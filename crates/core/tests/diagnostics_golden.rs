//! Golden tests for rendered diagnostics: the exact rustc-style output of
//! eight malformed programs, pinned byte-for-byte. These are the
//! contract the `revetc` CLI, the serve `CompileFailed` frame, and the
//! README examples all rely on — renderer changes must be deliberate.

use revet_core::{lower_to_dataflow, passes, CoreError, PassOptions, Session, Stage};
use revet_diag::codes;
use revet_mir::{Func, Module, OpKind, RegionBuilder, Value};

/// Runs the full staged pipeline on `src`, expecting failure, and returns
/// the session for artifact/diagnostic inspection.
fn fail(src: &str) -> Session {
    let mut s = Session::new(src, PassOptions::default());
    s.to_dataflow().expect_err("source must not compile");
    assert_eq!(s.stage(), Stage::Failed);
    s
}

fn render(src: &str) -> String {
    fail(src).render_diagnostics(false)
}

#[test]
fn golden_lex_unexpected_char() {
    // The lexer recovers past '$', so the parser also reports the token
    // stream's resulting shape error — two diagnostics, one run.
    assert_eq!(
        render("void main() {\n  u32 x = 3 $ 4;\n}"),
        "error[E0001]: unexpected character '$'\n \
         --> <input>:2:13\n  \
         |\n\
         2 |   u32 x = 3 $ 4;\n  \
         |             ^\n\
         \n\
         error[E0101]: expected ';', found '4'\n \
         --> <input>:2:15\n  \
         |\n\
         2 |   u32 x = 3 $ 4;\n  \
         |               ^\n"
    );
}

#[test]
fn golden_lex_unterminated_char_literal() {
    assert_eq!(
        render("void main() {\n  u32 c = 'a;\n}"),
        "error[E0002]: unterminated char literal\n \
         --> <input>:2:11\n  \
         |\n\
         2 |   u32 c = 'a;\n  \
         |           ^^\n\
         \n\
         error[E0103]: expected expression, found ';'\n \
         --> <input>:2:13\n  \
         |\n\
         2 |   u32 c = 'a;\n  \
         |             ^\n"
    );
}

#[test]
fn golden_parse_missing_expression() {
    assert_eq!(
        render("void main() {\n  u32 x = ;\n}"),
        "error[E0103]: expected expression, found ';'\n \
         --> <input>:2:11\n  \
         |\n\
         2 |   u32 x = ;\n  \
         |           ^\n"
    );
}

#[test]
fn golden_parse_unknown_type() {
    assert_eq!(
        render("dram<float> x;\nvoid main() { return; }"),
        "error[E0102]: unknown type 'float'\n \
         --> <input>:1:6\n  \
         |\n\
         1 | dram<float> x;\n  \
         |      ^^^^^\n"
    );
}

/// The acceptance case: two *independent* syntax errors in one
/// source produce two spanned diagnostics in one `Session` run, each with
/// a caret snippet, and the statement between them parses fine.
#[test]
fn golden_parse_multi_error_recovery() {
    let src = "void main() {\n  u32 a = ;\n  u32 ok = 1;\n  u32 b = 1 +;\n}";
    let s = fail(src);
    assert_eq!(
        s.render_diagnostics(false),
        "error[E0103]: expected expression, found ';'\n \
         --> <input>:2:11\n  \
         |\n\
         2 |   u32 a = ;\n  \
         |           ^\n\
         \n\
         error[E0103]: expected expression, found ';'\n \
         --> <input>:4:14\n  \
         |\n\
         4 |   u32 b = 1 +;\n  \
         |              ^\n"
    );
    // Machine-readable side of the same pair: codes + line/col.
    let positions: Vec<(&str, u32, u32)> = s
        .diagnostics()
        .iter()
        .map(|d| {
            let lc = s.source_map().line_col(d.span.expect("spanned").start);
            (d.code, lc.line, lc.col)
        })
        .collect();
    assert_eq!(
        positions,
        vec![
            (codes::PARSE_EXPECTED_EXPR, 2, 11),
            (codes::PARSE_EXPECTED_EXPR, 4, 14)
        ]
    );
}

#[test]
fn golden_semantic_unknown_variable() {
    assert_eq!(
        render("void main(u32 n) {\n  u32 x = n + missing;\n}"),
        "error[E0201]: unknown variable 'missing'\n \
         --> <input>:2:3\n  \
         |\n\
         2 |   u32 x = n + missing;\n  \
         |   ^^^^^^^^^^^^^^^^^^^^\n"
    );
}

#[test]
fn golden_semantic_readonly_foreach_assignment() {
    assert_eq!(
        render(
            "void main(u32 n) {\n  u32 acc = 0;\n  foreach (n) { u32 i =>\n    acc = acc + i;\n  };\n}"
        ),
        "error[E0203]: cannot assign 'acc': foreach threads have a read-only view of parent \
         variables (allocate memory to communicate)\n \
         --> <input>:4:5\n  \
         |\n\
         4 |     acc = acc + i;\n  \
         |     ^^^^^^^^^^^^^^\n"
    );
}

#[test]
fn golden_semantic_missing_return() {
    assert_eq!(
        render("u32 main(u32 n) {\n  u32 x = n * 2;\n}"),
        "error[E0204]: function 'main' must end with return of a value\n \
         --> <input>:1:1\n  \
         |\n\
         1 | u32 main(u32 n) {\n  \
         | ^^^^^^^^^^^^^^^\n"
    );
}

/// Post-pass verification failures (compiler bugs) surface as `E0301`
/// diagnostics too — span-less for a hand-built module, but still
/// structured and coded rather than a bare string.
#[test]
fn golden_post_pass_verify_failure() {
    let mut m = Module::default();
    let mut f = Func::new("main", &[], vec![]);
    let ghost = Value(99);
    let mut b = RegionBuilder::new();
    b.push(OpKind::Return(vec![ghost]), vec![]);
    f.body = b.build();
    m.funcs.push(f);

    // A hand-built module enters where `Session::run_passes` would hand
    // over: pipeline, re-verification, dataflow lowering.
    let opts = PassOptions::default();
    passes::build_pipeline(&opts).run(&mut m);
    let err = revet_mir::verify_module(&m)
        .map_err(CoreError::from)
        .and_then(|()| lower_to_dataflow(&m, &opts))
        .expect_err("bad module must not verify");
    assert_eq!(err.diagnostics.len(), 1);
    let d = &err.diagnostics[0];
    assert_eq!(d.code, codes::MIR_VERIFY);
    assert_eq!(d.span, None);
    assert_eq!(
        err.render("", false),
        "error[E0301]: post-pass verification failed: verify error in @main: \
         use of undefined value %99\n"
    );

    // A front-end-built module, by contrast, retains spans end-to-end: a
    // value table entry created from source is attributed by the span
    // side-table even after passes rewrite regions.
    let mut s = Session::new(
        "dram<u32> output;\nvoid main(u32 n) {\n  output[n] = n * 2;\n}",
        PassOptions::default(),
    );
    let module = s.run_passes().expect("compiles");
    let func = module.func("main").expect("main");
    assert!(
        !func.spans.is_empty(),
        "front-end lowering must populate the span side-table"
    );
}

/// The `-O0` path reports through the same machinery.
#[test]
fn unoptimized_options_share_the_diagnostic_path() {
    let mut s = Session::new("void main() { u32 x = ; }", PassOptions::none());
    let e = s.parse().expect_err("parse must fail");
    assert_eq!(e.diagnostics[0].code, codes::PARSE_EXPECTED_EXPR);
}
