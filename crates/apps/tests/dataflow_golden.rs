//! Golden digest of the CFG→dataflow lowering: every row compiles one
//! source under pinned options and hashes a structural dump of the
//! resulting [`CompiledProgram`] — per node its label, wiring, context,
//! unit and the `Debug` of its behaviour (every `EwInstr` and
//! `OutputSpec`); per channel its arity, class and
//! canonicalization; then `contexts`, `links`, `entry`, `exit`,
//! `outer_parallelism` and the module's SRAM / allocator tables. Node,
//! channel and label numbering all depend on the lowering's emission
//! order, so a refactor of `revet_core`'s lowering that keeps this file
//! and `golden/dataflow.digest` unedited has kept the output bit-for-bit.
//!
//! Two further columns pin the middle of the pipeline the same way:
//! `mir=` hashes `print_module` of the module `Session::run_passes`
//! leaves (op order and value numbering of every MIR→MIR pass), and
//! `passes=` hashes the pass report without its wall times (each pass's
//! name, changed flag and op counts, in pipeline order).
//!
//! On a mismatch the message counts the rows that moved in each column,
//! so `nodes 0/90, chans 0/90, digest 0/90` says no graph changed, and
//! the test writes `target/dataflow_golden/actual.digest`
//! (the full table as this build computes it) and the first differing
//! row's dump next to it. To see *what* changed, produce the same dump
//! from the other commit (edit that row's digest there so it mismatches)
//! and `diff` the two. An intended change to the lowering's output copies
//! `actual.digest` over `golden/dataflow.digest` in its own commit.

use revet_apps::{all_apps, DRAM_BYTES};
use revet_core::{CompiledProgram, PassOptions, Session};
use revet_machine::{AllocId, SramId};
use revet_mir::{Module, OpKind, PassReport, Value};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[path = "common/moved_columns.rs"]
mod moved_columns;
use moved_columns::moved_columns;

/// Every label base the lowering can emit (a label is a base and its
/// context id, `revet_machine::Label`).
const LABEL_BASES: &[&str] = &[
    "blk",
    "cond",
    "exit.drop",
    "exit_fx",
    "fe_in",
    "fe_out",
    "foreach.bcast",
    "foreach.counter",
    "foreach.join",
    "foreach.reduce",
    "foreach.split",
    "fork",
    "fork_in",
    "if.filter",
    "if.merge",
    "if_in",
    "loop_in",
    "pack",
    "rep.alloc",
    "rep.bufload",
    "rep.bufstore",
    "rep.dist",
    "rep.free",
    "rep.merge",
    "rep.retime",
    "rep_in",
    "rep_out",
    "ret",
    "tail",
    "unpack",
    "while.back",
    "while.back.drop",
    "while.buf",
    "while.exit",
    "while.filter",
    "while.head",
    "while_out",
];

/// Bases no row reaches, each with the reason it cannot be reached from
/// source text. Anything listed here is *not* pinned by the digest.
const UNVERIFIED: &[(&str, &str)] = &[(
    "tail",
    "emitted only for a region whose last op is not a terminator; the front end \
     and every pass close each region with yield/exit/condition/return, so only \
     a hand-built MIR module reaches it",
)];

/// Every `op:kind` arm of the view & iterator dialect (Table I) the rows'
/// front-end MIR contains — the arms `lower_views` rewrites. A view's
/// flush at region teardown follows from its `view_new` kind, a write
/// iterator's from `it_new:Write`. An arm the language allows but that is
/// missing here (reading a write view, `w++` on a `manualwriteit`, ...) is
/// *not* pinned by the `mir=` column.
const MEMORY_ARMS: &[&str] = &[
    "it_deref:PeekRead",
    "it_deref:Read",
    "it_inc:ManualWrite:last",
    "it_inc:PeekRead",
    "it_inc:Read",
    "it_inc:Write",
    "it_new:ManualWrite",
    "it_new:PeekRead",
    "it_new:Read",
    "it_new:Write",
    "it_peek:PeekRead",
    "it_write:ManualWrite",
    "it_write:Write",
    "view_new:Modify",
    "view_new:Read",
    "view_new:Sram",
    "view_new:Write",
    "view_read:Modify",
    "view_read:Read",
    "view_read:Sram",
    "view_write:Modify",
    "view_write:Sram",
    "view_write:Write",
];

struct Row {
    name: String,
    opts_label: String,
    source: String,
    opts: PassOptions,
}

fn base_opts(none: bool, opt_level: u8, dram_bytes: usize) -> PassOptions {
    PassOptions {
        opt_level,
        dram_bytes,
        ..if none {
            PassOptions::none()
        } else {
            PassOptions::default()
        }
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    // The eight Table III apps at replicate width 4.
    for app in all_apps() {
        for level in [0u8, 2] {
            for none in [false, true] {
                rows.push(Row {
                    name: format!("app/{}", app.name),
                    opts_label: format!("{},O{level}", if none { "none" } else { "default" }),
                    source: (app.source)(4),
                    opts: base_opts(none, level, DRAM_BYTES),
                });
            }
        }
    }
    // The fuzz corpus (repro headers are comments), as the oracle compiles it.
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap_or_else(|e| panic!("{}: {e}", corpus.display()))
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rvt"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "fuzz corpus is empty");
    for file in files {
        for level in [0u8, 2] {
            rows.push(Row {
                name: format!("corpus/{}", file.file_stem().unwrap().to_string_lossy()),
                opts_label: format!("default,O{level}"),
                source: read(&file),
                opts: base_opts(false, level, 1 << 16),
            });
        }
    }
    // Directed sources for the constructs neither of the above reaches.
    let directed = |file: &str, label: &str, opts: PassOptions| Row {
        name: format!("directed/{file}"),
        opts_label: label.to_string(),
        source: read(&golden_dir().join(format!("{file}.rvt"))),
        opts,
    };
    let small = 1 << 16;
    for level in [0u8, 2] {
        rows.push(directed(
            "fork_exit",
            &format!("default,O{level}"),
            base_opts(false, level, small),
        ));
        rows.push(directed(
            "while_exit",
            &format!("default,O{level}"),
            base_opts(false, level, small),
        ));
    }
    for eliminate in [true, false] {
        rows.push(directed(
            "eliminate_hierarchy",
            &format!("default,O2,threads=64,eliminate={eliminate}"),
            PassOptions {
                eliminate_hierarchy: eliminate,
                ..base_opts(false, 2, small)
            },
        ));
    }
    for bufferize in [true, false] {
        rows.push(directed(
            "replicate_bufferize",
            &format!("default,O2,bufferize={bufferize}"),
            PassOptions {
                bufferize_replicate: bufferize,
                ..base_opts(false, 2, small)
            },
        ));
    }
    rows.push(directed(
        "replicate_nested",
        "default,O2",
        base_opts(false, 2, small),
    ));
    rows.push(directed(
        "replicate_bufferize",
        "default,O2,hoist=false",
        PassOptions {
            hoist_allocators: false,
            ..base_opts(false, 2, small)
        },
    ));
    for pack in [true, false] {
        rows.push(directed(
            "pack_subwords",
            &format!("default,O2,pack={pack}"),
            PassOptions {
                pack_subwords: pack,
                ..base_opts(false, 2, small)
            },
        ));
    }
    for file in ["peek_iterator", "modify_view", "bulk_sram"] {
        for level in [0u8, 2] {
            rows.push(directed(
                file,
                &format!("default,O{level}"),
                base_opts(false, level, small),
            ));
        }
    }
    rows
}

/// Adds the `op:kind` arms of the view & iterator dialect `m` contains.
fn memory_arms(m: &Module, seen: &mut BTreeSet<String>) {
    for f in &m.funcs {
        let mut kinds: HashMap<Value, String> = HashMap::new();
        f.walk(&mut |op| {
            let (name, handle, suffix) = match &op.kind {
                OpKind::ViewNew { kind, .. } => {
                    kinds.insert(op.results[0], format!("{kind:?}"));
                    ("view_new", op.results[0], "")
                }
                OpKind::ItNew { kind, .. } => {
                    kinds.insert(op.results[0], format!("{kind:?}"));
                    ("it_new", op.results[0], "")
                }
                OpKind::ViewRead { view, .. } => ("view_read", *view, ""),
                OpKind::ViewWrite { view, .. } => ("view_write", *view, ""),
                OpKind::ItDeref { it } => ("it_deref", *it, ""),
                OpKind::ItPeek { it, .. } => ("it_peek", *it, ""),
                OpKind::ItWrite { it, .. } => ("it_write", *it, ""),
                OpKind::ItInc { it, last } => {
                    ("it_inc", *it, if last.is_some() { ":last" } else { "" })
                }
                _ => return,
            };
            seen.insert(format!("{name}:{}{suffix}", kinds[&handle]));
        });
    }
}

/// The changed-flag law of `mir/tests/opt_props.rs`, over the whole
/// pipeline (lowering passes included) on a golden row: a pass that
/// reports `Unchanged` left the printed module byte-identical, and one
/// that reports `Changed` did not.
fn assert_changed_flags_are_exact(row: &Row, mut module: Module) {
    let mut texts = vec![revet_mir::print_module(&module)];
    let report =
        revet_core::passes::build_pipeline(&row.opts).run_observed(&mut module, &mut |_, m| {
            texts.push(revet_mir::print_module(m));
        });
    for (stat, pair) in report.passes.iter().zip(texts.windows(2)) {
        assert_eq!(
            stat.changed,
            pair[0] != pair[1],
            "{} [{}]: `{}` reported changed={} but the printed module says otherwise",
            row.name,
            row.opts_label,
            stat.name,
            stat.changed
        );
    }
}

/// The pass report without its wall times.
fn pass_table(report: &PassReport) -> String {
    let mut s = String::new();
    for p in &report.passes {
        writeln!(
            s,
            "{}/{}/{}/{}",
            p.name, p.changed, p.ops_before, p.ops_after
        )
        .unwrap();
    }
    s
}

/// The structural dump the digest is taken over. A node's behavior prints
/// inside `Some(…)`, as it did while slots held an `Option`, so the digest
/// outlived that wrapper.
fn dump(p: &CompiledProgram) -> String {
    let mut s = String::new();
    for (i, n) in p.graph.nodes().iter().enumerate() {
        writeln!(
            s,
            "node {i} {:?} ins={:?} outs={:?} ctx={} unit={:?}\n  Some({:?})",
            n.label(),
            n.ins,
            n.outs,
            n.context,
            n.unit,
            n.behavior
        )
        .unwrap();
    }
    for (i, c) in p.graph.chans().iter().enumerate() {
        writeln!(
            s,
            "chan {i} arity={} class={:?} canon={}",
            c.arity(),
            c.class,
            c.canonicalizes()
        )
        .unwrap();
    }
    for c in &p.contexts {
        writeln!(s, "{c:?}").unwrap();
    }
    for l in &p.links {
        writeln!(s, "{l:?}").unwrap();
    }
    writeln!(
        s,
        "entry={:?} exit={:?} outer_parallelism={}",
        p.entry, p.exit, p.outer_parallelism
    )
    .unwrap();
    let mem = &p.graph.mem;
    for d in (0..mem.sram_count() as u32).map(|i| mem.sram(SramId(i))) {
        writeln!(s, "sram {} words={}", d.name, d.words.len()).unwrap();
    }
    for a in (0..mem.alloc_count() as u32).map(|i| mem.alloc(AllocId(i))) {
        writeln!(s, "alloc {} max={}", a.name, a.max).unwrap();
    }
    s
}

/// FNV-1a, 64-bit.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn moved_columns_counts_each_column_by_row_name() {
    let golden = "a x n=1 d=5\nb x n=2 d=6\nc y n=3 d=7\n";
    let actual = "b x n=2 d=9\na x n=1 d=5\nc z n=3 d=7\n";
    assert_eq!(
        moved_columns(golden, actual),
        "n 0/2, d 1/2; 1 rows new, 1 rows gone"
    );
    assert_eq!(moved_columns(golden, golden), "n 0/3, d 0/3");
    // Unnamed columns go by position; a key may hold `=` (`buf=1/1`).
    let golden = "p O0 1 2 | 3\nq O0 1 2 | 3\n";
    let actual = "p O0 1 4 | 3\nq O0 1 2 | 5\n";
    assert_eq!(moved_columns(golden, actual), "#3 0/2, #4 1/2, #6 1/2");
    assert_eq!(
        moved_columns(
            "buf=1/1 a cycles=3\na cycles=3\n",
            "buf=1/1 a cycles=4\na cycles=3\n"
        ),
        "cycles 1/2"
    );
}

/// The law that lets a label be a base and a context id: on every app at
/// every width, a node's label prints its base and its context id plus
/// one, a context's label its base and its index plus one, and a node
/// and its context share one label.
#[test]
fn a_label_is_its_base_and_its_context_number() {
    for app in all_apps() {
        for outer in [1, 2, 4, 8] {
            let program = app
                .compile(outer, &PassOptions::default())
                .unwrap_or_else(|e| panic!("{}@{outer}: {e}", app.name));
            let at = |what: String| format!("{}@{outer}: {what}", app.name);
            for (i, c) in program.contexts.iter().enumerate() {
                let (base, text) = (c.label.base(), c.label.to_string());
                assert_eq!(
                    text,
                    format!("{base}{}", i + 1),
                    "{}",
                    at(format!("context {i}"))
                );
            }
            for (id, n) in program.graph.nodes().iter().enumerate() {
                let (base, text) = (n.label().base(), n.label().to_string());
                let ctx = n.context as usize;
                let node = at(format!("node {id}"));
                assert_eq!(text, format!("{base}{}", ctx + 1), "{node}");
                assert_eq!(program.contexts[ctx].id as usize, id, "{node}");
                assert_eq!(program.contexts[ctx].label, n.label(), "{node}");
            }
        }
    }
}

#[test]
fn lowering_output_matches_the_golden_digest() {
    let golden_path = golden_dir().join("dataflow.digest");
    let golden = read(&golden_path);
    let mut actual = String::new();
    let mut dumps = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut arms: BTreeSet<String> = BTreeSet::new();
    for row in rows() {
        let mut session = Session::new(row.source.as_str(), row.opts.clone());
        let fail = |e| -> ! { panic!("{} [{}]: {e}", row.name, row.opts_label) };
        let high = session.lower_mir().unwrap_or_else(|e| fail(e)).clone();
        memory_arms(&high, &mut arms);
        assert_changed_flags_are_exact(&row, high);
        let mir = revet_mir::print_module(session.run_passes().unwrap_or_else(|e| fail(e)));
        let passes = pass_table(session.pass_report().expect("run_passes leaves a report"));
        let program = session.to_dataflow().unwrap_or_else(|e| fail(e));
        let labels = program
            .graph
            .nodes()
            .iter()
            .map(|n| n.label())
            .chain(program.contexts.iter().map(|c| c.label));
        seen.extend(labels.map(|l| l.base()));
        let text = dump(&program);
        writeln!(
            actual,
            "{} {} nodes={} chans={} digest={:016x} mir={:016x} passes={:016x}",
            row.name,
            row.opts_label,
            program.graph.node_count(),
            program.graph.chan_count(),
            digest(&text),
            digest(&mir),
            digest(&passes)
        )
        .unwrap();
        dumps.push((
            row.name,
            row.opts_label,
            format!("{text}---- mir ----\n{mir}---- passes ----\n{passes}"),
        ));
    }
    assert_eq!(
        arms,
        MEMORY_ARMS.iter().map(|a| (*a).to_string()).collect(),
        "view/iterator arms reached by the golden rows vs. MEMORY_ARMS"
    );

    // Coverage: the rows together reach every base the lowering can emit,
    // except the ones listed (with a reason) as unverified.
    let unverified: BTreeSet<&str> = UNVERIFIED.iter().map(|(b, _)| *b).collect();
    for (base, reason) in UNVERIFIED {
        assert!(
            !seen.contains(*base),
            "`{base}` is reached by a row now; drop it from UNVERIFIED ({reason})"
        );
    }
    let expected: BTreeSet<&str> = LABEL_BASES
        .iter()
        .copied()
        .filter(|b| !unverified.contains(b))
        .collect();
    assert_eq!(
        seen, expected,
        "label bases reached by the golden rows vs. every base the lowering can emit"
    );

    if actual != golden {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/dataflow_golden");
        std::fs::create_dir_all(&out).expect("create target/dataflow_golden");
        std::fs::write(out.join("actual.digest"), &actual).expect("write actual.digest");
        let mut want = golden.lines();
        let first = actual
            .lines()
            .zip(&dumps)
            .find(|(line, _)| want.next() != Some(*line));
        let mut what = format!(
            "row count differs: {} vs {} golden",
            actual.lines().count(),
            golden.lines().count()
        );
        if let Some((line, (name, opts, text))) = first {
            let file = format!("{name}@{opts}.dump").replace(['/', ','], "_");
            std::fs::write(out.join(&file), text).expect("write dump");
            what = format!("first differing row: `{line}` (dump in {file})");
        }
        panic!(
            "lowering output differs from {}; rows moved per column: {}; {what}; see {}",
            golden_path.display(),
            moved_columns(&golden, &actual),
            out.display()
        );
    }
}
