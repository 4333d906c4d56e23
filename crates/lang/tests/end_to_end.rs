//! End-to-end front-end tests: source → MIR → reference interpreter, checked
//! against hand-computed results.

use revet_lang::compile_to_mir;
use revet_oracle::interp::{run_main, DEFAULT_FUEL};

/// Runs `main(args)` with DRAM symbols laid out back-to-back, 4 KiB each.
/// Returns the final DRAM image.
fn run(src: &str, args: &[u32], dram_init: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let module = &compile_to_mir(src).unwrap_or_else(|e| panic!("{e}"));
    let image_bytes = module.drams.len() * 4096;
    run_main(module, image_bytes, args, dram_init, DEFAULT_FUEL)
        .unwrap_or_else(|e| panic!("{e}"))
        .dram
        .to_vec()
}

fn read_u32(dram: &[u8], addr: usize) -> u32 {
    u32::from_le_bytes(dram[addr..addr + 4].try_into().unwrap())
}

#[test]
fn squares_via_foreach() {
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                output[i] = i * i;
            };
        }
    "#;
    let dram = run(src, &[5], &[]);
    for i in 0..5 {
        assert_eq!(read_u32(&dram, 4 * i), (i * i) as u32);
    }
}

#[test]
fn while_loop_collatz_steps() {
    let src = r#"
        dram<u32> output;
        void main(u32 x) {
            u32 n = x;
            u32 steps = 0;
            while (n != 1) {
                if (n & 1) {
                    n = 3 * n + 1;
                } else {
                    n = n / 2;
                };
                steps = steps + 1;
            };
            output[0] = steps;
        }
    "#;
    let dram = run(src, &[6], &[]);
    // 6 → 3 → 10 → 5 → 16 → 8 → 4 → 2 → 1: 8 steps.
    assert_eq!(read_u32(&dram, 0), 8);
}

#[test]
fn strlen_case_study_figure7() {
    // The paper's running example, scaled down: strings at offsets, lengths
    // out. Uses views, replicate, iterators, and a data-dependent while.
    let src = r#"
        dram<u8> input;
        dram<u32> offsets;
        dram<u32> lengths;
        void main(u32 count) {
            foreach (count by 4) { u32 outer =>
                readview<4> in_view(offsets, outer);
                writeview<4> out_view(lengths, outer);
                foreach (4) { u32 idx =>
                    pragma(eliminate_hierarchy);
                    u32 len = 0;
                    u32 off = in_view[idx];
                    replicate (2) {
                        readit<8> it(input, off);
                        while (*it) {
                            len = len + 1;
                            it++;
                        };
                    };
                    out_view[idx] = len;
                };
            };
        }
    "#;
    let strings: &[&str] = &["hello", "", "dataflow", "ab", "xyz", "q", "", "threads!"];
    let mut input = Vec::new();
    let mut offsets = Vec::new();
    for s in strings {
        offsets.extend((input.len() as u32).to_le_bytes());
        input.extend(s.as_bytes());
        input.push(0);
    }
    let dram = run(src, &[strings.len() as u32], &[(0, input), (4096, offsets)]);
    for (i, s) in strings.iter().enumerate() {
        assert_eq!(
            read_u32(&dram, 8192 + 4 * i),
            s.len() as u32,
            "strlen of {s:?}"
        );
    }
}

#[test]
fn foreach_reduce_and_masks() {
    // kD-tree-style lane reduction: AND of comparison masks.
    let src = r#"
        dram<u32> vals;
        dram<u32> output;
        void main(u32 n) {
            u32 m = foreach (n) reduce(&) { u32 lane =>
                yield vals[lane];
            };
            output[0] = m;
        }
    "#;
    let mut vals = Vec::new();
    for v in [0xFFu32, 0x3F, 0x7F] {
        vals.extend(v.to_le_bytes());
    }
    let dram = run(src, &[3], &[(0, vals)]);
    assert_eq!(read_u32(&dram, 4096), 0x3F);
}

#[test]
fn fork_with_counter_continuation() {
    // The Fig. 9 pattern, hand-written: fork + shared decrement, survivor
    // writes the result.
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            sram<u32, 1> counter;
            counter[0] = n;
            fork (n) { u32 i =>
                u32 remaining = counter[0] - 1;
                counter[0] = remaining;
                if (remaining) {
                    exit;
                };
            };
            output[0] = 7;
        }
    "#;
    let dram = run(src, &[5], &[]);
    assert_eq!(read_u32(&dram, 0), 7, "exactly one survivor continues");
}

#[test]
fn write_iterator_stream() {
    let src = r#"
        dram<u8> out;
        void main(u32 n) {
            writeit<4> w(out, 0);
            u32 i = 0;
            while (i < n) {
                *w = 65 + i;
                w++;
                i = i + 1;
            };
        }
    "#;
    let dram = run(src, &[4], &[]);
    assert_eq!(&dram[0..4], b"ABCD");
}

#[test]
fn peek_iterator_boyer_moore_flavor() {
    let src = r#"
        dram<u8> text;
        dram<u32> output;
        void main(u32 n) {
            peekreadit<8> it(text, 0);
            u32 hits = 0;
            u32 i = 0;
            while (i < n) {
                // match "ab" using peek
                if ((*it == 'a') && (it.peek(1) == 'b')) {
                    hits = hits + 1;
                };
                it++;
                i = i + 1;
            };
            output[0] = hits;
        }
    "#;
    let text = b"abxabyab";
    let dram = run(src, &[text.len() as u32 - 1], &[(0, text.to_vec())]);
    assert_eq!(read_u32(&dram, 4096), 3);
}

#[test]
fn subword_types_truncate() {
    let src = r#"
        dram<u32> output;
        void main() {
            u8 x = 300;
            output[0] = x;
            i8 y = (i8) 255;
            if (y < 0) {
                output[1] = 1;
            };
        }
    "#;
    let dram = run(src, &[], &[]);
    assert_eq!(read_u32(&dram, 0), 300 % 256);
    assert_eq!(read_u32(&dram, 4), 1, "i8 sign-extension");
}

#[test]
fn read_only_parent_vars_rejected() {
    let src = r#"
        void main(u32 n) {
            u32 acc = 0;
            foreach (n) { u32 i =>
                acc = acc + i;
            };
        }
    "#;
    let err = compile_to_mir(src).unwrap_err();
    assert!(err.to_string().contains("read-only"), "got: {err}");
    // The diagnostic is structured: coded and spanned at the offending
    // statement.
    let d = &err.as_slice()[0];
    assert_eq!(d.code, revet_diag::codes::SEM_READONLY_ASSIGN);
    let map = revet_diag::SourceMap::new(src);
    let lc = map.line_col(d.span.expect("spanned").start);
    assert_eq!(lc.line, 5, "span should point at the assignment");
}

#[test]
fn replicate_passes_assignments_through() {
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            u32 len = 0;
            replicate (4) {
                u32 i = 0;
                while (i < n) {
                    len = len + 2;
                    i = i + 1;
                };
            };
            output[0] = len;
        }
    "#;
    let dram = run(src, &[3], &[]);
    assert_eq!(read_u32(&dram, 0), 6);
}

#[test]
fn nested_while_string_search() {
    // Exact-match search with restart — the doubly nested while pattern
    // the paper highlights for search.
    let src = r#"
        dram<u8> text;
        dram<u8> pat;
        dram<u32> output;
        void main(u32 n) {
            u32 found = 0;
            u32 i = 0;
            while (i < n) {
                u32 j = 0;
                u32 ok = 1;
                while (ok && (pat[j] != 0)) {
                    if (text[i + j] != pat[j]) {
                        ok = 0;
                    } else {
                        j = j + 1;
                    };
                };
                if (ok) {
                    found = found + 1;
                };
                i = i + 1;
            };
            output[0] = found;
        }
    "#;
    let text = b"the cat sat on the mat";
    let pat = b"at\0";
    // i ranges over every start position where "at" fits: 0..=len-2.
    let dram = run(
        src,
        &[text.len() as u32 - 1],
        &[(0, text.to_vec()), (4096, pat.to_vec())],
    );
    assert_eq!(read_u32(&dram, 8192), 3);
}

#[test]
fn compound_stores_cover_the_shifts() {
    // `a[i] <<= e` / `a[i] >>= e` used to be `E0101 expected '='` while the
    // variable forms parsed: the two compound tables had drifted.
    let src = r#"
        dram<u32> a;
        void main(u32 n) {
            a[0] = 3;
            a[0] <<= n;
            a[1] = 256;
            a[1] >>= 2;
            a[2] = 5;
            a[2] += 1;
            u32 x = 1;
            x <<= 3;
            a[3] = x;
        }
    "#;
    let dram = run(src, &[4], &[]);
    assert_eq!(read_u32(&dram, 0), 48);
    assert_eq!(read_u32(&dram, 4), 64);
    assert_eq!(read_u32(&dram, 8), 6);
    assert_eq!(read_u32(&dram, 12), 8);
}

#[test]
fn else_assigns_what_then_shadows() {
    // Each branch is its own declaration scope: a `u32 x` declared in the
    // `then` branch must not hide the `else` branch's assignment to the
    // outer `x` from the carried-variable analysis.
    let src = r#"
        dram<u32> out;
        void main(u32 c) {
            u32 x = 7;
            if (c) {
                u32 x = 1;
                out[1] = x;
            } else {
                x = 2;
            };
            out[0] = x;
        }
    "#;
    assert_eq!(read_u32(&run(src, &[0], &[]), 0), 2);
    assert_eq!(read_u32(&run(src, &[1], &[]), 0), 7);
}

#[test]
fn a_loop_carries_the_variable_its_body_later_hides() {
    // `x = x + 1` assigns the outer `x`; the `u32 x` after it is a new
    // variable of the body, and must not be what the loop carries.
    let src = r#"
        dram<u32> out;
        void main(u32 n) {
            u32 x = 0;
            u32 i = 0;
            while (i < n) {
                x = x + 1;
                u32 x = 100;
                out[1] = x;
                i = i + 1;
            };
            out[0] = x;
        }
    "#;
    let dram = run(src, &[3], &[]);
    assert_eq!((read_u32(&dram, 0), read_u32(&dram, 4)), (3, 100));
}

#[test]
fn min_max_reductions_honour_a_signed_yield() {
    // `reduce(min)` over -2, -1, 0, 1 is -2; folded unsigned (as it used to
    // be, whatever the yielded type) it is 0.
    let src = r#"
        dram<u32> out;
        void main() {
            i32 m = foreach (4) reduce(min) { u32 i => i32 v = (i32)i - 2; yield v; };
            i32 x = foreach (4) reduce(max) { u32 i => i32 v = (i32)i - 5; yield v; };
            u32 u = foreach (4) reduce(max) { u32 i => yield i + 4294967290; };
            out[0] = m;
            out[1] = x;
            out[2] = u;
        }
    "#;
    let dram = run(src, &[], &[]);
    assert_eq!(read_u32(&dram, 0) as i32, -2);
    assert_eq!(read_u32(&dram, 4) as i32, -2);
    assert_eq!(
        read_u32(&dram, 8),
        4294967293,
        "unsigned yields still fold unsigned"
    );
}
