//! Printer/parser round-trip property: for every generated program,
//! `print(parse(print(ast)))` is a fixpoint. This pins the printer to
//! the grammar — a printer that emits something the parser reads back
//! differently would silently decouple the reducer's AST edits from the
//! reproducer files it writes.

use revet_fuzz::{case_seed, generate_case, GenConfig};
use revet_lang::print_program;

#[test]
fn print_parse_print_is_a_fixpoint_across_many_seeds() {
    let cfg = GenConfig::default();
    for i in 0..300 {
        let case = generate_case(case_seed(0x5EED_F00D, i), &cfg);
        let reparsed = revet_lang::parse_program(&case.source).unwrap_or_else(|d| {
            panic!(
                "seed {:#x} does not re-parse: {d}\n{}",
                case.seed, case.source
            )
        });
        let reprinted = print_program(&reparsed);
        assert_eq!(
            case.source, reprinted,
            "round-trip diverged for seed {:#x}",
            case.seed
        );
    }
}
