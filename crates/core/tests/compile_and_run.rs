//! Full-pipeline integration tests: Revet source → compiler → dataflow
//! graph → untimed machine execution, differentially checked against the
//! MIR reference interpreter and hand-computed oracles.

use revet_core::{PassOptions, Session};
use revet_diag::codes;
use revet_mir::{Module, OpKind};
use revet_sltf::Word;

const DRAM_BYTES: usize = 1 << 20;

/// Compiles and runs; returns final DRAM. Inits are (symbol_index, bytes).
fn run_with(
    opts: PassOptions,
    src: &str,
    args: &[u32],
    inits: &[(usize, &[u8])],
    n_drams: usize,
) -> Vec<u8> {
    let mut opts = opts;
    opts.dram_bytes = DRAM_BYTES;
    let mut program = Session::new(src, opts)
        .to_dataflow()
        .unwrap_or_else(|e| panic!("{e}"));
    let slice = DRAM_BYTES / n_drams;
    for (sym, bytes) in inits {
        program
            .graph
            .mem
            .write_dram(sym * slice, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    let words: Vec<Word> = args.iter().map(|&a| Word(a)).collect();
    program
        .run_untimed(&words, 10_000_000)
        .unwrap_or_else(|e| panic!("{e}"));
    program.graph.mem.dram.to_vec()
}

fn run(src: &str, args: &[u32], inits: &[(usize, &[u8])], n_drams: usize) -> Vec<u8> {
    run_with(PassOptions::default(), src, args, inits, n_drams)
}

fn read_u32(d: &[u8], addr: usize) -> u32 {
    u32::from_le_bytes(d[addr..addr + 4].try_into().unwrap())
}

#[test]
fn foreach_squares() {
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                output[i] = i * i;
            };
        }
    "#;
    let d = run(src, &[8], &[], 1);
    for i in 0..8usize {
        assert_eq!(read_u32(&d, 4 * i), (i * i) as u32);
    }
}

#[test]
fn data_dependent_while() {
    // Collatz steps per element — data-dependent loop trip counts across
    // parallel threads, the core dataflow-threads capability.
    let src = r#"
        dram<u32> input;
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                u32 x = input[i];
                u32 steps = 0;
                while (x != 1) {
                    if (x & 1) {
                        x = 3 * x + 1;
                    } else {
                        x = x / 2;
                    };
                    steps = steps + 1;
                };
                output[i] = steps;
            };
        }
    "#;
    let vals: Vec<u32> = vec![6, 1, 27, 2, 7, 97, 5, 3];
    let mut input = Vec::new();
    for v in &vals {
        input.extend(v.to_le_bytes());
    }
    let d = run(src, &[vals.len() as u32], &[(0, &input)], 2);
    let collatz = |mut x: u32| {
        let mut s = 0;
        while x != 1 {
            x = if x % 2 == 1 { 3 * x + 1 } else { x / 2 };
            s += 1;
        }
        s
    };
    let slice = DRAM_BYTES / 2;
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(read_u32(&d, slice + 4 * i), collatz(*v), "collatz({v})");
    }
}

#[test]
fn strlen_full_pipeline() {
    // The paper's Fig. 7 case study, end to end through the dataflow
    // machine: views, hierarchy-eliminated inner foreach, replicate with
    // hoisted allocation, iterators with demand fills, nested while.
    let src = r#"
        dram<u8> input;
        dram<u32> offsets;
        dram<u32> lengths;
        void main(u32 count) {
            foreach (count by 4) { u32 outer =>
                readview<4> in_view(offsets, outer);
                writeview<4> out_view(lengths, outer);
                foreach (4) { u32 idx =>
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
    let strings: &[&str] = &[
        "hello",
        "",
        "dataflow",
        "ab",
        "xyz",
        "q",
        "",
        "threads!",
        "a-much-longer-string-spanning-tiles",
        "7",
        "zz",
        "end",
    ];
    let mut input = Vec::new();
    let mut offsets = Vec::new();
    for s in strings {
        offsets.extend((input.len() as u32).to_le_bytes());
        input.extend(s.as_bytes());
        input.push(0);
    }
    let slice = DRAM_BYTES / 3;
    let d = run(
        src,
        &[strings.len() as u32],
        &[(0, &input), (1, &offsets)],
        3,
    );
    for (i, s) in strings.iter().enumerate() {
        assert_eq!(
            read_u32(&d, 2 * slice + 4 * i),
            s.len() as u32,
            "strlen({s:?})"
        );
    }
}

#[test]
fn strlen_with_all_optimizations_off() {
    // The naïve lowering must be semantically identical (Fig. 12 compares
    // resources, not results).
    let src = r#"
        dram<u8> input;
        dram<u32> offsets;
        dram<u32> lengths;
        void main(u32 count) {
            foreach (count) { u32 idx =>
                u32 len = 0;
                u32 off = offsets[idx];
                readit<8> it(input, off);
                while (*it) {
                    len = len + 1;
                    it++;
                };
                lengths[idx] = len;
            };
        }
    "#;
    let strings: &[&str] = &["opt", "", "off", "still-works"];
    let mut input = Vec::new();
    let mut offsets = Vec::new();
    for s in strings {
        offsets.extend((input.len() as u32).to_le_bytes());
        input.extend(s.as_bytes());
        input.push(0);
    }
    let slice = DRAM_BYTES / 3;
    for opts in [PassOptions::default(), PassOptions::none()] {
        let d = run_with(
            opts,
            src,
            &[strings.len() as u32],
            &[(0, &input), (1, &offsets)],
            3,
        );
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(read_u32(&d, 2 * slice + 4 * i), s.len() as u32);
        }
    }
}

#[test]
fn foreach_reduction_through_machine() {
    let src = r#"
        dram<u32> vals;
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                u32 m = foreach (4) reduce(+) { u32 lane =>
                    yield vals[i * 4 + lane];
                };
                output[i] = m;
            };
        }
    "#;
    let mut vals = Vec::new();
    for v in 0..16u32 {
        vals.extend((v * 10).to_le_bytes());
    }
    let d = run(src, &[4], &[(0, &vals)], 2);
    let slice = DRAM_BYTES / 2;
    for i in 0..4usize {
        let want: u32 = (0..4).map(|l| ((i * 4 + l) as u32) * 10).sum();
        assert_eq!(read_u32(&d, slice + 4 * i), want);
    }
}

#[test]
fn fork_with_shared_counter() {
    // Note: a *non-atomic* shared read-modify-write counter here would be a
    // data race on the dataflow machine (threads run concurrently across
    // contexts) — the Fig. 9 pattern uses the atomic decrement-and-fetch,
    // which the hierarchy-elimination pass emits. Here the survivor is
    // chosen by index instead.
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            fork (n) { u32 i =>
                output[i] = i + 100;
                if (i != n - 1) {
                    exit;
                };
            };
            output[63] = 1234;
        }
    "#;
    let d = run(src, &[5], &[], 1);
    for i in 0..5usize {
        assert_eq!(read_u32(&d, 4 * i), (i as u32) + 100);
    }
    assert_eq!(read_u32(&d, 252), 1234, "continuation ran once");
}

#[test]
fn replicate_load_distribution() {
    // Threads spread across replicated regions and all results come back.
    let src = r#"
        dram<u32> input;
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                u32 acc = 0;
                u32 x = input[i];
                replicate (4) {
                    sram<u32, 4> scratch;
                    scratch[0] = x;
                    u32 j = 0;
                    while (j < x) {
                        acc = acc + scratch[0];
                        j = j + 1;
                    };
                };
                output[i] = acc;
            };
        }
    "#;
    let vals: Vec<u32> = vec![3, 0, 5, 1, 2, 7, 4, 6];
    let mut input = Vec::new();
    for v in &vals {
        input.extend(v.to_le_bytes());
    }
    let d = run(src, &[vals.len() as u32], &[(0, &input)], 2);
    let slice = DRAM_BYTES / 2;
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(read_u32(&d, slice + 4 * i), v * v, "acc = x*x for x={v}");
    }
}

#[test]
fn hierarchy_elimination_preserves_results() {
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 outer =>
                foreach (4) { u32 idx =>
                    pragma(eliminate_hierarchy);
                    output[outer * 4 + idx] = outer * 1000 + idx;
                };
            };
        }
    "#;
    for opts in [
        PassOptions::default(),
        PassOptions {
            eliminate_hierarchy: false,
            ..PassOptions::default()
        },
    ] {
        let d = run_with(opts, src, &[3], &[], 1);
        for outer in 0..3u32 {
            for idx in 0..4u32 {
                assert_eq!(
                    read_u32(&d, (outer * 4 + idx) as usize * 4),
                    outer * 1000 + idx
                );
            }
        }
    }
}

#[test]
fn resource_report_sanity() {
    let src = r#"
        dram<u8> input;
        dram<u32> offsets;
        dram<u32> lengths;
        void main(u32 count) {
            foreach (count) { u32 idx =>
                u32 len = 0;
                u32 off = offsets[idx];
                replicate (2) {
                    readit<8> it(input, off);
                    while (*it) {
                        len = len + 1;
                        it++;
                    };
                };
                lengths[idx] = len;
            };
        }
    "#;
    let program = Session::new(src, PassOptions::default())
        .to_dataflow()
        .unwrap();
    let report = revet_core::report::ResourceReport::for_program("strlen", &program);
    assert!(report.total.0 > 0, "uses CUs");
    assert!(report.total.1 > 0, "uses MUs");
    assert!(report.total.2 > 0, "uses AGs");
    assert!(report.replicate.0 > 0, "replicate dist/merge CUs counted");
    assert!(report.deadlock_mu > 0, "while-loop deadlock buffer counted");
    assert_eq!(report.outer, 2, "outer parallelism = replicate ways");
}

#[test]
fn subword_packing_reduces_link_width() {
    // Loop-carried u8/u16 variables pack into shared 32-bit slots: the
    // recirculating tuple gets narrower (Fig. 12 "No Pack" ablation).
    let src = r#"
        dram<u8> input;
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                u8 a = input[i];
                u8 b = 0;
                u8 c = 1;
                u16 d = 2;
                u32 steps = 0;
                while (a != 0) {
                    a = a - 1;
                    b = b + 1;
                    c = c + 2;
                    d = d + 3;
                    steps = steps + 1;
                };
                output[i] = b + c + d + steps;
            };
        }
    "#;
    let input: Vec<u8> = vec![3, 0, 7, 1];
    let packed = Session::new(src, PassOptions::default())
        .to_dataflow()
        .unwrap();
    let unpacked = Session::new(
        src,
        PassOptions {
            pack_subwords: false,
            ..PassOptions::default()
        },
    )
    .to_dataflow()
    .unwrap();
    // §V-B d: "Every variable that is live into a merge operation consumes
    // a significant number of network resources and input buffers" — so the
    // relevant metric is the physical width of merge inputs.
    let merge_input_width = |p: &revet_core::CompiledProgram| -> usize {
        p.graph
            .nodes()
            .iter()
            .filter(|n| n.behavior.kind().contains("merge"))
            .flat_map(|n| n.ins.iter())
            .map(|c| p.graph.chans()[c.0 as usize].arity())
            .sum()
    };
    let w_packed = merge_input_width(&packed);
    let w_unpacked = merge_input_width(&unpacked);
    assert!(
        w_packed < w_unpacked,
        "packing narrows merge inputs: {w_packed} vs {w_unpacked}"
    );
    // And results match.
    let d1 = run_with(PassOptions::default(), src, &[4], &[(0, &input)], 2);
    let d2 = run_with(
        PassOptions {
            pack_subwords: false,
            ..PassOptions::default()
        },
        src,
        &[4],
        &[(0, &input)],
        2,
    );
    let slice = DRAM_BYTES / 2;
    for i in 0..4usize {
        assert_eq!(read_u32(&d1, slice + 4 * i), read_u32(&d2, slice + 4 * i));
    }
}

/// A constant is an immediate wherever it is read, so where its `ConstI`
/// sits in the MIR never reaches a link: a `while` body, a `foreach` body
/// and an `if` arm that read a constant defined before the construct give
/// the same link arities as the same program with the constant written
/// inside. (A constant threaded into the construct would widen its entry
/// tuple, and a loop's backedge with it.)
#[test]
fn a_constant_read_inside_a_construct_widens_no_link() {
    let bodies = [
        (
            "while",
            "u32 x = n; u32 acc = 0; while (x != 0) { acc = acc + K; x = x - 1; }; output[0] = acc;",
        ),
        ("foreach", "foreach (n) { u32 i => output[i] = i + K; };"),
        (
            "if",
            "if (n & 1) { output[0] = n + K; } else { output[1] = n; };",
        ),
    ];
    let outer_const = |m: &Module| {
        let main = m.func("main").expect("main");
        main.body
            .ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::ConstI(12345, _)))
    };
    for (what, body) in bodies {
        let outside = format!(
            "dram<u32> output; void main(u32 n) {{ u32 k = 12345; {} }}",
            body.replace('K', "k")
        );
        let inside = format!(
            "dram<u32> output; void main(u32 n) {{ {} }}",
            body.replace('K', "12345")
        );
        // `if_to_select` would turn the `if` into predicated ops.
        let o2 = PassOptions {
            opt_level: 2,
            if_to_select: false,
            ..PassOptions::default()
        };
        for opts in [PassOptions::none(), o2] {
            let level = opts.opt_level;
            let arities = |src: &str, outer: bool| {
                let mut session = Session::new(src, opts.clone());
                let module = session.run_passes().unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(
                    outer_const(module),
                    outer,
                    "{what} at O{level}: the constant's placement in\n{}",
                    revet_mir::print_module(module)
                );
                let program = session.to_dataflow().unwrap_or_else(|e| panic!("{e}"));
                program.links.iter().map(|l| l.arity).collect::<Vec<_>>()
            };
            assert_eq!(
                arities(&outside, true),
                arities(&inside, false),
                "{what} at O{level}: link arities with the constant outside vs inside"
            );
        }
    }
}

/// A refused compile's one diagnostic: its code, the line it points at
/// and its message.
fn refusal(src: &str) -> (&'static str, Option<u32>, String) {
    let mut s = Session::new(src, PassOptions::default());
    let e = s
        .to_dataflow()
        .expect_err("an oversized source must be refused");
    assert_eq!(e.diagnostics.len(), 1, "{e}");
    let d = &e.diagnostics[0];
    let line = d.span.map(|sp| s.source_map().line_col(sp.start).line);
    (d.code, line, d.message.clone())
}

#[test]
fn a_thread_count_outside_one_memory_unit_is_refused() {
    for (n, value) in [
        ("0", 0u64),
        ("65537", 65537),
        ("4294967295", 4294967295),
        ("0x100000040", 4294967360),
    ] {
        let top = format!("dram<u32> d;\nvoid main() {{\n  pragma(threads, {n});\n}}");
        let body = format!(
            "dram<u32> d;\nvoid main() {{\n  foreach (4) {{ u32 i =>\n    pragma(threads, {n});\n    d[i] = i;\n  }};\n}}"
        );
        let msg = format!("the thread count is {value}, outside 1..=65536");
        assert_eq!(refusal(&top), (codes::SEM_OVERSIZED, Some(3), msg.clone()));
        assert_eq!(refusal(&body), (codes::SEM_OVERSIZED, Some(4), msg));
    }
}

#[test]
fn a_memory_object_size_outside_one_memory_unit_is_refused() {
    // `67108864 * 64` overflowed `u32` in `LowerViews`.
    for decl in [
        "sram<u32, 0> m;",
        "readview<67108864> m(d, 0);",
        "writeit<65537> m(d, 0);",
        "peekreadit<4294967296> m(d, 0);",
    ] {
        let src = format!("dram<u32> d;\nvoid main() {{\n  {decl}\n}}");
        let (code, line, msg) = refusal(&src);
        assert_eq!(
            (code, line),
            (codes::SEM_OVERSIZED, Some(3)),
            "{decl}: {msg}"
        );
        assert!(msg.starts_with("the size of 'm' is "), "{decl}: {msg}");
    }
}

#[test]
fn a_thread_local_region_past_one_memory_unit_is_refused() {
    let src = |threads: &str, decl: &str| {
        format!("dram<u32> d;\nvoid main() {{\n  {threads}\n  {decl}\n}}")
    };
    // Exactly one unit compiles: 1024 × 64 and 4096 × 16 words.
    for (threads, decl) in [
        ("", "readview<1024> m(d, 0);"),
        ("pragma(threads, 16);", "writeview<4096> m(d, 0);"),
        ("pragma(threads, 512);", "peekreadit<64> m(d, 0);"),
    ] {
        let src = src(threads, decl);
        Session::new(src.as_str(), PassOptions::default())
            .to_dataflow()
            .unwrap_or_else(|e| panic!("{decl}: {e}"));
    }
    for (threads, decl, words) in [
        ("", "readview<1025> m(d, 0);", 65600),
        ("pragma(threads, 16);", "sram<u32, 4097> m;", 65552),
        ("pragma(threads, 1024);", "peekreadit<64> m(d, 0);", 131072),
        // An iterator's two state words per thread are a region too.
        ("pragma(threads, 65536);", "readit<1> m(d, 0);", 131072),
    ] {
        let (code, line, msg) = refusal(&src(threads, decl));
        assert_eq!(
            (code, line),
            (codes::SEM_OVERSIZED, Some(4)),
            "{decl}: {msg}"
        );
        assert!(
            msg.starts_with(&format!("'m' needs {words} SRAM words")),
            "{msg}"
        );
    }
}

/// `i`, `parked` and `tag` wait around the replicate in one SRAM region of
/// three words per thread.
const BUFFERIZED: &str = "dram<u32> input;
dram<u32> output;
void main(u32 n) {
    pragma(threads, THREADS);
    foreach (n) { u32 i =>
        u32 x = input[i];
        u32 parked = x * 3;
        u32 tag = i + 7;
        u32 acc = 0;
        replicate (3) {
            sram<u32, 1> scratch;
            scratch[0] = x;
            acc = acc + scratch[0];
        };
        output[i] = acc + parked + tag + x;
    };
}";

#[test]
fn a_replicate_buffer_past_one_memory_unit_is_refused() {
    let at = |threads: u32| BUFFERIZED.replace("THREADS", &threads.to_string());
    // 3 × 21845 words fit one unit; 3 × 32768 do not, and the front end
    // cannot see it: the region is the lowering's own.
    Session::new(at(21845), PassOptions::default())
        .to_dataflow()
        .unwrap_or_else(|e| panic!("{e}"));
    let (code, line, msg) = refusal(&at(32768));
    assert_eq!((code, line), (codes::DATAFLOW_LOWER, None), "{msg}");
    assert!(msg.starts_with("SRAM region rep_buf"), "{msg}");
    assert!(msg.contains("needs 98304 words"), "{msg}");
    // Without bufferization nothing is parked, and the compile fits.
    let opts = PassOptions {
        bufferize_replicate: false,
        ..PassOptions::default()
    };
    let program = Session::new(at(32768), opts).to_dataflow();
    program.unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn a_program_past_the_machines_memory_units_is_refused() {
    // Each raw SRAM is one full unit (1024 words × 64 threads); the regions
    // share one allocator of 64 pointers.
    let src = |n: usize| {
        let decls: String = (0..n).map(|i| format!("sram<u32, 1024> m{i}; ")).collect();
        format!("void main() {{ {decls}}}")
    };
    Session::new(src(8), PassOptions::default())
        .to_dataflow()
        .unwrap_or_else(|e| panic!("{e}"));
    let (code, line, msg) = refusal(&src(201));
    assert_eq!((code, line), (codes::DATAFLOW_LOWER, None), "{msg}");
    assert_eq!(
        msg,
        "the program's SRAM regions and allocator pointers need 13172800 words, more than \
         the machine's 200 memory units (13107200 words)"
    );
}

/// Every region kind the compiler sizes by the thread count: a view, an
/// iterator's buffer and state, a hierarchy-elimination counter, and the
/// region a replicate parks `i`, `parked` and the views' pointer in.
const SIZED_BY_THREADS: &str = "dram<u32> input;
dram<u8> text;
dram<u32> output;
void main(u32 n) {
    PRAGMA
    foreach (n) { u32 i =>
        pragma(eliminate_hierarchy);
        output[i] = i;
    };
    foreach (n) { u32 i =>
        readview<4> v(input, 0);
        readit<8> it(text, i);
        u32 x = v[1] + *it;
        u32 parked = x * 3;
        u32 acc = 0;
        replicate (2) {
            sram<u32, 4> scratch;
            scratch[0] = x;
            acc = acc + scratch[0];
        };
        output[i] = acc + parked + i;
    };
}";

#[test]
fn pragma_threads_sizes_every_thread_local_region_and_allocator() {
    use revet_machine::{AllocId, SramId};
    // (region base, words) and (allocator base, pointers) in the image.
    let image = |pragma: &str, threads: Option<u32>| {
        let src = SIZED_BY_THREADS.replace("PRAGMA", pragma);
        let mut session = Session::new(src, PassOptions::default());
        let program = session.to_dataflow().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(session.thread_count(), threads);
        let mem = &program.graph.mem;
        let base = |name: &str| {
            name.trim_end_matches(|c: char| c.is_ascii_digit())
                .to_string()
        };
        let srams: Vec<(String, usize)> = (0..mem.sram_count() as u32)
            .map(|i| mem.sram(SramId(i)))
            .map(|r| (base(&r.name), r.words.len()))
            .collect();
        let allocs: Vec<(String, u32)> = (0..mem.alloc_count() as u32)
            .map(|i| mem.alloc(AllocId(i)))
            .map(|a| (base(&a.name), a.max))
            .collect();
        (srams, allocs)
    };
    let (srams16, allocs16) = image("pragma(threads, 16);", Some(16));
    let (srams64, allocs64) = image("", None);
    let bases = |t: &[(String, usize)]| t.iter().map(|(b, _)| b.clone()).collect::<Vec<_>>();
    assert_eq!(bases(&srams16), bases(&srams64));
    for kind in ["view", "itbuf", "itstate", "fe_count", "rep_buf"] {
        assert!(
            bases(&srams16).iter().any(|b| b == kind),
            "no {kind} region"
        );
    }
    // Each region holds the same words per thread under either count.
    for ((base, w16), (_, w64)) in srams16.iter().zip(&srams64) {
        assert!(
            w16 % 16 == 0 && w64 % 64 == 0,
            "{base}: {w16} / {w64} words"
        );
        assert_eq!(w16 / 16, w64 / 64, "{base}: {w16} words at 16, {w64} at 64");
    }
    for (allocs, threads) in [(&allocs16, 16), (&allocs64, 64)] {
        assert!(allocs.iter().any(|(b, _)| b == "alloc"), "{allocs:?}");
        assert!(allocs.iter().any(|(b, _)| b == "fe_alloc"), "{allocs:?}");
        assert!(allocs.iter().all(|(_, max)| *max == threads), "{allocs:?}");
    }
}
