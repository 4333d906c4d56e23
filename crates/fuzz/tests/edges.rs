//! Edge-of-grammar pins, each judged by every lane at three opt levels
//! (`run_case`): zero-iteration `while`,
//! zero-trip `foreach`, a trip count that collapses to zero only at
//! runtime, and reads through a minimum-size ragged view. These are the
//! shapes most likely to regress in loop lowering, so they get explicit
//! names instead of relying on the random campaign to resample them.
//!
//! Each case is written as a reproducer document (source + header), so
//! the same text also replays via `revet-fuzz --replay`.

use revet_fuzz::{parse_repro, run_case, Lanes};

fn judge(doc: &str) {
    let case = parse_repro(doc).expect("edge-case document parses");
    if let Err(f) = run_case(&case, &Lanes::default()) {
        panic!("edge case failed the oracle: {f}\n{}", case.source);
    }
}

#[test]
fn zero_iteration_while_leaves_memory_untouched() {
    judge(
        "// seed: 0x0000000000000001\n\
         // args: 7 9\n\
         \n\
         dram<u32> d1;\n\
         void main(u32 p0, u32 p1) {\n\
             d1[0] = 11;\n\
             u32 c0 = 5;\n\
             while ((c0 < 2)) {\n\
                 d1[0] = 99;\n\
                 c0 = (c0 + 1);\n\
             };\n\
             d1[1] = c0;\n\
         }\n",
    );
}

#[test]
fn zero_trip_foreach_runs_no_threads() {
    judge(
        "// seed: 0x0000000000000002\n\
         // args: 3 4\n\
         \n\
         dram<u32> d1;\n\
         void main(u32 p0, u32 p1) {\n\
             d1[0] = 1;\n\
             foreach (0) { u32 k0 =>\n\
                 d1[k0] = 77;\n\
             };\n\
             d1[1] = 2;\n\
         }\n",
    );
}

#[test]
fn runtime_zero_trip_count_from_an_argument() {
    // p0 % 1 == 0 for every argument: the trip count is only knowably
    // zero at runtime, so no pass may fold the region away statically.
    judge(
        "// seed: 0x0000000000000003\n\
         // args: 3982531098 5\n\
         \n\
         dram<u32> d1;\n\
         void main(u32 p0, u32 p1) {\n\
             foreach ((p0 % 1)) { u32 k0 =>\n\
                 d1[k0] = p1;\n\
             };\n\
             d1[2] = 6;\n\
         }\n",
    );
}

#[test]
fn minimum_size_view_reads_agree() {
    // A 4-word readview at a base chosen per thread (ragged tiles), with
    // in-bounds reads only; all evaluators must agree on every lane.
    judge(
        "// seed: 0x0000000000000004\n\
         // args: 2 3\n\
         // init d0: 0da6261907b375d5bff0b1d64295d883e77e8237dd22daf02130430e9d7472f5\n\
         \n\
         dram<u32> d0;\n\
         dram<u32> d1;\n\
         void main(u32 p0, u32 p1) {\n\
             foreach (4) { u32 k0 =>\n\
                 readview<4> w(d0, k0);\n\
                 d1[((k0 * 9) + 8)] = (w[(k0 % 4)] + p1);\n\
             };\n\
         }\n",
    );
}

#[test]
fn zero_iteration_while_nested_in_foreach() {
    judge(
        "// seed: 0x0000000000000005\n\
         // args: 8 1\n\
         \n\
         dram<u32> d1;\n\
         void main(u32 p0, u32 p1) {\n\
             foreach (3) { u32 k0 =>\n\
                 u32 c0 = 9;\n\
                 while ((c0 < 3)) {\n\
                     c0 = (c0 + 1);\n\
                 };\n\
                 d1[((k0 * 9) + 8)] = c0;\n\
             };\n\
         }\n",
    );
}
