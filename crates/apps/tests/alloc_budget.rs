//! Allocation budget of the execute path: never per token. Tokens travel
//! as windows into the channels' slabs (`revet_machine::Channel`), and an
//! instance's channel table, rings and one-shot scheduler scratch included,
//! is recycled through its program's pool (`Graph::fresh_instance`):
//!
//! - The first instance of a program runs on a copy of the template's
//!   table, so its run may grow each ring it uses to that channel's
//!   high-water mark and size the scheduler's buffers. The call count is
//!   bounded by what doubling each ring can explain — a small multiple of
//!   the channel count — and grows with the input only as deeper queues
//!   double once more, logarithmically, while the data tokens crossing
//!   edges grow linearly.
//! - Every later instance gets a table back with its rings already grown,
//!   so its run makes a fixed handful of calls, whatever the app.
//!
//! This is the tier-1 guard for what `perf_ledger`'s `allocs_per_op`
//! measures on `exec_control` and `serve_oneshot`: a reintroduced
//! per-token `Vec` fails here, and so does a table that stops being
//! recycled.
//!
//! The compile path has a byte budget instead: a compiled program's DRAM
//! image is all zero until something loads it, and an all-zero image owns
//! no bytes (`revet_machine::Dram`), so compiling allocates none of it and
//! the first instance of an unloaded program allocates it once.
//! `alloc_kb_per_op` on `compile_cold` is the same check in the ledger.
//! It also has a call budget, the one `allocs_per_op` on `compile_cold`
//! reads in the ledger, and one for replicate width: a replicate's ways
//! after the first are copies of what the first way emitted, so widening
//! every app's replicate adds a few allocator calls per context it adds,
//! where lowering each way again would add about fifteen.
//!
//! The call budget's count, 5 535 in a release build, by stage (summed
//! over the eight apps at outer 2; `revetc --app NAME --profile` prints
//! one app's):
//!
//! | stage | calls | what is left |
//! |---|---|---|
//! | `parse` | 958 | tokens, the AST, and the names it keeps |
//! | `lower_mir` | 700 | the MIR, its value and span tables |
//! | `run_passes` | 1 007 | the passes' rewrites and the pass report |
//! | `to_dataflow` | 2 808 | the graph, its element-wise programs, the plan |
//!
//! The other 62 make the session and its options. At the previous count,
//! 7 203, parse took 1 171 (an identifier `String` per token, keywords
//! included) and `to_dataflow` 4 247 (a shared string per label, and live
//! and free-use sets that grew a slot at a time).

use revet_apps::{all_apps, app, DRAM_BYTES};
use revet_core::{PassOptions, Session};
use revet_machine::{Channel, Prim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::Arc;

thread_local! {
    /// Allocator calls made by this thread (the harness's other threads
    /// allocate too, so a process-wide counter would not repeat).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls requested (`realloc` at its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator is still called while a thread tears down
    // its locals.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// `f`'s result and the bytes this thread requested while it ran.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The only addition is a bump of two const-initialised
// thread-local `Cell`s with no destructor: it neither allocates nor unwinds,
// so the allocator is not re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one planned one-shot run cost and moved.
struct Run {
    allocator_calls: u64,
    data_tokens: u64,
    chan_count: u64,
    /// The most the channel rings can have asked of the allocator: a ring
    /// starts at four slots and doubles, one call per lane (the word lane
    /// is absent at arity 0), up to at most the tokens it ever carried.
    ring_growth_bound: u64,
}

fn run(name: &str, scale: usize) -> Run {
    let app = app(name).expect("a Table III app");
    let (program, args, w) = app.prepare(2, scale, 0xA110C, &PassOptions::default());
    let mut inst = program.instance();
    let before = CALLS.with(Cell::get);
    let result = inst.run_untimed(&args, 200_000_000);
    let allocator_calls = CALLS.with(Cell::get) - before;
    result.unwrap_or_else(|e| panic!("{name}@{scale}: {e}"));
    app.check_dram(&inst.memory().dram, &w);
    let chans = inst.graph.chans();
    let ring_growth = |c: &Channel| {
        let doublings = c.total_pushed().div_ceil(4).next_power_of_two().ilog2();
        (1 + u64::from(c.arity() > 0)) * (1 + u64::from(doublings))
    };
    Run {
        allocator_calls,
        data_tokens: chans.iter().map(Channel::total_pushed_data).sum(),
        chan_count: chans.len() as u64,
        ring_growth_bound: chans
            .iter()
            .filter(|c| c.total_pushed() > 0)
            .map(ring_growth)
            .sum(),
    }
}

/// The scheduler's own buffers (wake bitmaps, the register file, the
/// seed list): a fixed handful per run.
const FIXED_CALLS: u64 = 32;

#[test]
fn run_phase_allocations_do_not_scale_with_tokens() {
    for (name, small, large) in [("huff-dec", 4usize, 16usize), ("kD-tree", 32, 128)] {
        let (a, b) = (run(name, small), run(name, large));
        assert_eq!(a.chan_count, b.chan_count, "{name}: one program");
        assert!(
            b.data_tokens >= 2 * a.data_tokens,
            "{name}: the larger input must move at least twice the tokens \
             for the comparison to mean anything ({} vs {})",
            a.data_tokens,
            b.data_tokens
        );
        for r in [&a, &b] {
            assert!(
                r.allocator_calls <= r.ring_growth_bound + FIXED_CALLS,
                "{name}: {} allocator calls in the run phase, but growing \
                 the rings of its {} channels explains at most {} \
                 ({} data tokens moved)",
                r.allocator_calls,
                r.chan_count,
                r.ring_growth_bound,
                r.data_tokens
            );
        }
        // The untimed executor lets queues deepen with the input, so a ring
        // may double once more per doubling of the scale, on each of its
        // two lanes: logarithmic in the input. A cost per token is linear.
        let doublings = u64::from((large / small).ilog2());
        let (more_calls, more_tokens) = (
            b.allocator_calls.saturating_sub(a.allocator_calls),
            b.data_tokens - a.data_tokens,
        );
        assert!(
            more_calls <= 2 * doublings * a.chan_count && 20 * more_calls <= more_tokens,
            "{name}: {more_tokens} more data tokens cost {more_calls} more \
             allocator calls ({} -> {}) on {} channels",
            a.allocator_calls,
            b.allocator_calls,
            a.chan_count
        );
    }
}

/// Compiling a Table III app costs well under its 4 MiB image, and so does
/// every instance but the first.
const COMPILE_BYTES: u64 = 1 << 20;

#[test]
fn compiles_allocate_no_dram_image_and_instances_allocate_it_once() {
    let opts = PassOptions {
        dram_bytes: DRAM_BYTES,
        ..PassOptions::default()
    };
    for app in all_apps() {
        let name = app.name;
        let mut session = Session::new((app.source)(2), opts.clone());
        let (program, compiled) = bytes_during(|| session.to_dataflow());
        let program = program.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            compiled < COMPILE_BYTES,
            "{name}: compiling requested {compiled} bytes (the DRAM image is {DRAM_BYTES})"
        );
        let (inst, first) = bytes_during(|| program.instance());
        let image = DRAM_BYTES as u64;
        assert!(
            (image..image + COMPILE_BYTES).contains(&first),
            "{name}: the first instance requested {first} bytes, not the image once"
        );
        drop(inst);
        let (_inst, second) = bytes_during(|| program.instance());
        assert!(
            second < COMPILE_BYTES,
            "{name}: a recycled instance requested {second} bytes"
        );
    }
}

/// What a recycled instance may ask of the allocator, whatever the node
/// count: the node, channel, SRAM and allocator tables, and each SRAM
/// region's and allocator queue's own storage.
const INSTANCE_CALLS: u64 = 16;

#[test]
fn a_recycled_instance_allocates_a_fixed_handful() {
    for app in all_apps() {
        let name = app.name;
        let program = app
            .compile(2, &PassOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        drop(program.instance());
        let before = CALLS.with(Cell::get);
        let inst = program.instance();
        let calls = CALLS.with(Cell::get) - before;
        assert!(
            calls <= INSTANCE_CALLS,
            "{name}: a recycled instance of {} nodes made {calls} allocator calls",
            inst.graph.node_count()
        );
    }
}

/// What a run on a recycled instance may still ask of the allocator: the
/// node state copied with the node slots (a node's own buffers) — not the
/// rings or the scheduler scratch, which come back with the recycled
/// channel table already grown, the exit channel's included.
const RECYCLED_RUN_CALLS: u64 = 16;

#[test]
fn a_recycled_instance_runs_without_growing_rings() {
    for app in all_apps() {
        let name = app.name;
        let (program, args, w) = app.prepare(2, 16, 0xA110C, &PassOptions::default());
        let run = || {
            let mut inst = program.instance();
            let before = CALLS.with(Cell::get);
            let result = inst.run_untimed(&args, 200_000_000);
            let calls = CALLS.with(Cell::get) - before;
            result.unwrap_or_else(|e| panic!("{name}: {e}"));
            app.check_dram(&inst.memory().dram, &w);
            calls
        };
        let cold = run();
        let warm = run();
        assert!(
            warm <= RECYCLED_RUN_CALLS,
            "{name}: the run of a recycled instance made {warm} allocator calls \
             (the first instance's run made {cold}) on {} channels",
            program.graph.chan_count()
        );
        let stats = program.graph.chan_pool_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{name}");
    }
}

/// What one more replicate way may cost a compile, in allocator calls per
/// context it adds. Lowering places the ways after the first by copying
/// what the first emitted, so a copied context costs its label (its port
/// lists are held in place and its program is shared), and the ways'
/// distribution outputs and merge contexts add a little on top. Lowering any part of a way's body again costs at least
/// 15 calls per context it emits. Only `Session::to_dataflow` is counted:
/// the front end and the MIR passes run before.
const CALLS_PER_ADDED_CONTEXT: f64 = 8.0;

#[test]
fn replicate_ways_are_stamped_not_lowered_again() {
    let opts = PassOptions {
        dram_bytes: DRAM_BYTES,
        ..PassOptions::default()
    };
    let compile_all = |outer: u32| {
        let (mut calls, mut contexts) = (0u64, 0usize);
        for app in all_apps() {
            let mut session = Session::new((app.source)(outer), opts.clone());
            let fail = |e| -> ! { panic!("{}@{outer}: {e}", app.name) };
            session.run_passes().unwrap_or_else(|e| fail(e));
            let before = CALLS.with(Cell::get);
            let program = session.to_dataflow();
            calls += CALLS.with(Cell::get) - before;
            contexts += program.unwrap_or_else(|e| fail(e)).contexts.len();
        }
        (calls, contexts)
    };
    let (narrow, wide) = (compile_all(1), compile_all(4));
    let added = (wide.1 - narrow.1) as f64;
    let per_context = (wide.0 - narrow.0) as f64 / added;
    assert!(
        per_context <= CALLS_PER_ADDED_CONTEXT,
        "going from outer 1 to outer 4 added {added} contexts and {} allocator \
         calls ({} -> {}): {per_context:.1} per context",
        wide.0 - narrow.0,
        narrow.0,
        wide.0
    );
}

/// Allocator calls of one cold -O2 compile of all eight Table III apps at
/// outer 2, source to execution plan: the count at the last change to the
/// compile path, plus 5% (the module docs give it by stage). A compile
/// allocates what it keeps once. Element-wise programs are shared slices,
/// which the plan's stages and the stamped replicate ways share too. Short
/// port lists are held in place, and a label is a static base and a
/// context id, not a string. The lexer borrows identifiers from the
/// source, and the parser copies only the names the AST keeps. The
/// dataflow lowering reuses its per-block scratch and its live set, and
/// gathers each free-use set at its final size. Copying all of those cost
/// 16 567 calls (`allocs_per_op` on `compile_cold` is the same count in
/// the ledger). Debug builds also re-verify the module after every MIR
/// pass, which allocates.
const COMPILE_CALLS: u64 = if cfg!(debug_assertions) {
    6_211 * 105 / 100
} else {
    5_535 * 105 / 100
};

#[test]
fn compiles_stay_within_a_call_budget() {
    let opts = PassOptions {
        dram_bytes: DRAM_BYTES,
        opt_level: 2,
        ..PassOptions::default()
    };
    let mut calls = 0;
    for app in all_apps() {
        let source = (app.source)(2);
        let before = CALLS.with(Cell::get);
        let program = Session::new(source, opts.clone()).to_dataflow();
        calls += CALLS.with(Cell::get) - before;
        program.unwrap_or_else(|e| panic!("{}: {e}", app.name));
    }
    assert!(
        calls <= COMPILE_CALLS,
        "compiling the eight apps made {calls} allocator calls (budget {COMPILE_CALLS})"
    );
}

/// The execution plan holds each chained stage's element-wise program
/// inline, but its slices are the graph node's own: building the plan
/// copies no program, and neither does any instance.
#[test]
fn a_plan_shares_each_program_with_its_graph() {
    for app in all_apps() {
        let name = app.name;
        let mut program = app
            .compile(2, &PassOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let graph = &mut program.graph;
        let plan = Arc::clone(graph.plan());
        let mut stages = 0;
        for (node, ew) in plan.chained_stages() {
            let Prim::Ew(own) = &graph.node(node).behavior else {
                panic!("{name}: chained node {} is not element-wise", node.0);
            };
            let label = graph.node(node).label();
            assert!(
                ptr::eq(ew.instrs.as_ptr(), own.instrs.as_ptr()),
                "{name}: {label}'s instructions were copied into the plan"
            );
            assert!(
                ptr::eq(ew.outputs.as_ptr(), own.outputs.as_ptr()),
                "{name}: {label}'s outputs were copied into the plan"
            );
            stages += 1;
        }
        assert!(stages > 0, "{name}: no chained stage to check");
    }
}
