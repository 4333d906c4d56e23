//! `revetc` — the human entry point for the staged `Session` compile API.
//!
//! ```text
//! revetc FILE|--app NAME [--emit ast|mir|mir-after=<pass>|dataflow|report]
//!        [--opt-level N | -O0|-O1|-O2] [--print-pass-pipeline]
//!        [--profile [--timed]] [--trace-out FILE.json] [--args A,B,…]
//!        [--scale N] [--color|--no-color]
//! revetc --emit paper [--scale N]
//! ```
//!
//! Compiles one Revet source file and prints the requested artifact to
//! stdout. On compile failure, prints every diagnostic as a rustc-style
//! caret snippet to stderr and exits with code 1 (code 2 for usage /
//! I/O problems). `--emit`:
//!
//! - `ast` — the parsed AST, printed back as source by
//!   `revet_lang::print_program` (the printer `frontend.digest` hashes), so
//!   the output grows with the source, not with its nesting depth
//! - `mir` — the optimized MIR module (after high-level lowering +
//!   passes), in `revet_mir::print` textual form
//! - `mir-after=<pass>` — the MIR snapshot right after the named pipeline
//!   pass (e.g. `mir-after=lower_views`, `mir-after=cse`)
//! - `dataflow` — the dataflow graph's contexts (with their unit class)
//!   and links
//! - `report` — the Table IV-style resource report, with whether it fits
//!   the Table II machine (`fits=`), plus the per-pass timing/op-delta
//!   table (default)
//! - `paper` — the paper's evaluation (`revet_bench::paper`: Tables
//!   II–V, Figs. 12–14) with the timed runs at
//!   `--scale` records per app; it takes no FILE or `--app`, and at the
//!   default scale (16) it prints `tests/golden/paper_tables.txt`
//!
//! `--opt-level N` (or the `-ON` shorthand) selects the classical
//! optimization level: 0 disables them, 1 enables fold/simplify/DCE, 2
//! (the default) adds CSE and a second clean-up round. `-O0` additionally
//! disables the optional lowering rewrites (`PassOptions::none`), matching
//! the pre-framework behavior of the flag. `--print-pass-pipeline` lists
//! the pass names the current options would run and exits; it needs no
//! FILE.
//!
//! ## Profiling
//!
//! `--profile` and `--trace-out FILE.json` *run* the compiled program
//! (instead of emitting a compile artifact) with an observability sink
//! attached. `--profile` prints the per-stage compile timings (with the
//! allocator calls of parse, lower_mir, run_passes and to_dataflow, which
//! it drives one at a time), the plan's shape (segments, fused runs, fused
//! edges), the execution counters, and the stall-attribution "top stalls"
//! table. Each counter is printed from its one source: the run's
//! dispatch, productive, round and peak-ready totals from its report, the
//! `exec.stalls.*` totals from the stall tally, and the rest (wake causes,
//! segment fires, lane widths) from the sink. `--trace-out` writes a
//! Chrome `trace_event` JSON file loadable in Perfetto (ui.perfetto.dev)
//! or `chrome://tracing`. `--app NAME` selects one of the registered
//! Table III evaluation apps (its workload supplies `main` arguments and
//! DRAM inputs; `--scale` sizes it); for a FILE, `--args` passes
//! comma-separated u32 `main` arguments.
//!
//! `--timed` makes that run the cycle-level simulator on the Table II
//! machine instead of the untimed plan. `--profile` then also prints the
//! simulated cycles, the DRAM bytes read and written, and the "top bound
//! links" table: per link, the cycles on which its producer's (`push`) or
//! consumer's (`pop`) port spent its whole per-cycle budget — the fires a
//! link capped, which the stall table counts as productive. Each link is
//! named `producer -> consumer [class]`. Timed, the run's totals come
//! from its `SimStats`: `exec.rounds` is the cycle count,
//! `exec.productive` the busy context-cycles, `exec.dispatches` those
//! plus the classified stalls, and `exec.peak_ready` the most contexts
//! stepped in one cycle — which is every context, since the first cycle
//! steps them all (`SimStats::peak_busy_nodes`), so timed it reads the
//! context count.

use revet_apps::{app, DRAM_BYTES};
use revet_core::passes::build_pipeline;
use revet_core::report::ResourceReport;
use revet_core::{CompiledProgram, CoreError, PassOptions, Session};
use revet_machine::{ChanId, NodeId};
use revet_obs::{ObsSink, StallClass};
use revet_sim::{RdaConfig, Simulator};
use revet_sltf::Word;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::IsTerminal;
use std::process::ExitCode;

thread_local! {
    /// Allocator calls made by this thread: a compile runs on one thread,
    /// so the count around a stage is that stage's own.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting each thread's allocator calls for `--profile`.
struct Counting;

fn count() {
    // `try_with`: the allocator is still called while a thread tears down
    // its locals.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The only addition is a bump of a const-initialised
// thread-local `Cell` with no destructor: it neither allocates nor unwinds,
// so the allocator is not re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// `f`'s result and the allocator calls this thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The compile stages `--profile` drives one at a time, in order.
const COUNTED_STAGES: [&str; 4] = ["parse", "lower_mir", "run_passes", "to_dataflow"];

/// Compiles through each of [`COUNTED_STAGES`] in turn; returns the
/// program and each stage's allocator calls.
fn compile_counted(session: &mut Session) -> Result<(CompiledProgram, [u64; 4]), CoreError> {
    let (parsed, parse) = counted(|| session.parse().map(drop));
    parsed?;
    let (lowered, lower_mir) = counted(|| session.lower_mir().map(drop));
    lowered?;
    let (optimized, run_passes) = counted(|| session.run_passes().map(drop));
    optimized?;
    let (program, to_dataflow) = counted(|| session.to_dataflow());
    Ok((program?, [parse, lower_mir, run_passes, to_dataflow]))
}

const USAGE: &str =
    "usage: revetc FILE|--app NAME [--emit ast|mir|mir-after=<pass>|dataflow|report]
       [--opt-level N | -O0|-O1|-O2] [--print-pass-pipeline]
       [--profile [--timed]] [--trace-out FILE.json] [--args A,B,...] [--scale N]
       [--color|--no-color]
       revetc --emit paper [--scale N]   (the paper's tables and figures)
       (stderr gets rustc-style diagnostics; exit 1 = compile error, 2 = usage/i/o)";

/// Trace-ring capacity for `--trace-out`: big enough for the Table III
/// apps at smoke scale, bounded so a huge run cannot eat memory.
const TRACE_CAPACITY: usize = 1 << 18;

const MAX_ROUNDS: u64 = 200_000_000;

/// Cycle cap of a `--timed` run.
const MAX_CYCLES: u64 = 2_000_000_000;

enum Emit {
    Ast,
    Mir,
    MirAfter(String),
    Dataflow,
    Report,
    Paper,
}

fn main() -> ExitCode {
    let mut file: Option<String> = None;
    let mut app_name: Option<String> = None;
    let mut emit = Emit::Report;
    let mut color: Option<bool> = None;
    let mut opts = PassOptions::default();
    let mut print_pipeline = false;
    let mut profile = false;
    let mut timed = false;
    let mut trace_out: Option<String> = None;
    let mut main_args: Vec<u32> = Vec::new();
    let mut scale: usize = 16;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--app" => {
                let Some(name) = args.next() else {
                    eprintln!("--app needs a name\n{USAGE}");
                    return ExitCode::from(2);
                };
                app_name = Some(name);
            }
            "--profile" => profile = true,
            "--timed" => timed = true,
            "--trace-out" => {
                let Some(path) = args.next() else {
                    eprintln!("--trace-out needs a file path\n{USAGE}");
                    return ExitCode::from(2);
                };
                trace_out = Some(path);
            }
            "--args" => {
                let parsed = args
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().parse::<u32>()).collect());
                match parsed {
                    Some(Ok(list)) => main_args = list,
                    _ => {
                        eprintln!("--args needs comma-separated u32s\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--scale" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--scale needs a number\n{USAGE}");
                    return ExitCode::from(2);
                };
                scale = n.max(1);
            }
            "--emit" => {
                let Some(what) = args.next() else {
                    eprintln!("--emit needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                emit = match what.as_str() {
                    "ast" => Emit::Ast,
                    "mir" => Emit::Mir,
                    "dataflow" => Emit::Dataflow,
                    "report" => Emit::Report,
                    "paper" => Emit::Paper,
                    other => match other.strip_prefix("mir-after=") {
                        Some(pass) if !pass.is_empty() => Emit::MirAfter(pass.to_string()),
                        _ => {
                            eprintln!("unknown --emit '{other}'\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                };
            }
            "--opt-level" => {
                let level = args.next().and_then(|v| v.parse::<u8>().ok());
                let Some(level) = level else {
                    eprintln!("--opt-level needs a number\n{USAGE}");
                    return ExitCode::from(2);
                };
                opts.opt_level = level.min(2);
            }
            "--print-pass-pipeline" => print_pipeline = true,
            "--color" => color = Some(true),
            "--no-color" => color = Some(false),
            // -O0 predates the optimizer and also turns off the optional
            // lowering rewrites; -O1/-O2 only select the classical level.
            "-O0" => {
                opts = PassOptions {
                    dram_bytes: opts.dram_bytes,
                    ..PassOptions::none()
                };
            }
            "-O1" => opts.opt_level = 1,
            "-O2" => opts.opt_level = 2,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(a),
            other => {
                eprintln!("unexpected argument '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if timed && !profile && trace_out.is_none() {
        eprintln!("revetc: --timed needs --profile or --trace-out\n{USAGE}");
        return ExitCode::from(2);
    }
    if print_pipeline {
        for name in build_pipeline(&opts).names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if let Emit::Paper = emit {
        if file.is_some() || app_name.is_some() {
            eprintln!("revetc: --emit paper takes no FILE or --app\n{USAGE}");
            return ExitCode::from(2);
        }
        print!("{}", revet_bench::paper(scale));
        return ExitCode::SUCCESS;
    }
    // Resolve the input: a source FILE, or a registered evaluation app
    // (which also supplies the workload `--profile` runs).
    let selected_app = match &app_name {
        Some(name) => match app(name) {
            Some(a) => Some(a),
            None => {
                let known: Vec<&str> = revet_apps::all_apps().iter().map(|a| a.name).collect();
                eprintln!("revetc: unknown app '{name}' (known: {})", known.join(", "));
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let (file, source) = if let Some(a) = &selected_app {
        if file.is_some() {
            eprintln!("revetc: FILE and --app are mutually exclusive\n{USAGE}");
            return ExitCode::from(2);
        }
        // Apps are compiled against the shared evaluation DRAM budget.
        opts.dram_bytes = DRAM_BYTES;
        (format!("app:{}", a.name), (a.source)(2))
    } else {
        let Some(file) = file else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        match std::fs::read_to_string(&file) {
            Ok(s) => (file, s),
            Err(e) => {
                eprintln!("revetc: cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let color = color.unwrap_or_else(|| std::io::stderr().is_terminal());

    let mut session = Session::new(source, opts).with_source_name(&file);
    if profile || trace_out.is_some() {
        return run_profiled(
            session,
            selected_app.as_ref(),
            &main_args,
            scale,
            profile,
            timed,
            trace_out.as_deref(),
            color,
        );
    }
    if let Emit::MirAfter(pass) = &emit {
        session = session.capture_mir_after(pass);
    }
    let failed = match &emit {
        Emit::Ast => session
            .parse()
            .map(|ast| print!("{}", revet_lang::print_program(ast)))
            .is_err(),
        Emit::Mir => {
            // The optimized module is the interesting MIR artifact; the
            // pre-pass form is reachable through the library API.
            session
                .run_passes()
                .map(|m| print!("{}", revet_mir::print_module(m)))
                .is_err()
        }
        Emit::MirAfter(pass) => match session.run_passes() {
            Ok(_) => match session.captured_mir() {
                Some(text) => {
                    print!("{text}");
                    false
                }
                None => {
                    eprintln!("revetc: no pipeline pass named '{pass}' ran");
                    eprintln!("hint: --print-pass-pipeline lists the passes for these options");
                    return ExitCode::from(2);
                }
            },
            Err(_) => true,
        },
        Emit::Dataflow => session
            .to_dataflow()
            .map(|p| {
                println!("contexts: {}", p.contexts.len());
                for c in &p.contexts {
                    println!(
                        "  #{:<4} {:<10} unit={:<8} depth={} instrs={:<3} regs={:<3} {}",
                        c.id,
                        c.kind,
                        format!("{:?}", c.unit),
                        c.depth,
                        c.instrs,
                        c.regs,
                        c.label
                    );
                }
                println!("links: {}", p.links.len());
                for l in &p.links {
                    println!(
                        "  ch{:<4} arity={} class={:?} depth={}",
                        l.id, l.arity, l.class, l.depth
                    );
                }
            })
            .is_err(),
        Emit::Report => session
            .to_dataflow()
            .map(|p| {
                let resources = ResourceReport::for_program(&file, &p);
                let fits = RdaConfig::default().fits(resources.total);
                println!("{} fits={fits}", resources.summary());
                if let Some(report) = session.pass_report() {
                    println!("{}", report.summary());
                }
            })
            .is_err(),
        Emit::Paper => unreachable!("--emit paper returns before an input is read"),
    };
    if failed {
        eprint!("{}", session.render_diagnostics(color));
        let n = session.diagnostics().error_count();
        eprintln!("error: compilation failed with {n} error(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Compile, run once (through the plan, or the simulator when `timed`)
/// with an enabled observability sink, and report: `--profile` prints
/// counters / compile-stage timings / the top-stalls table (and, timed,
/// the cycles and the top-bound-links table), `--trace-out` writes Chrome
/// `trace_event` JSON.
#[allow(clippy::too_many_arguments)]
fn run_profiled(
    mut session: Session,
    selected_app: Option<&revet_apps::App>,
    main_args: &[u32],
    scale: usize,
    profile: bool,
    timed: bool,
    trace_out: Option<&str>,
    color: bool,
) -> ExitCode {
    let (mut program, allocs) = match compile_counted(&mut session) {
        Ok(compiled) => compiled,
        Err(_) => {
            eprint!("{}", session.render_diagnostics(color));
            let n = session.diagnostics().error_count();
            eprintln!("error: compilation failed with {n} error(s)");
            return ExitCode::FAILURE;
        }
    };
    // A registered app brings its own workload (args + DRAM inputs);
    // a plain FILE runs with the `--args` list.
    let args: Vec<Word> = if let Some(a) = selected_app {
        let w = (a.workload)(scale, 0x5EED);
        a.load(&mut program, &w);
        w.args.iter().map(|&x| Word(x)).collect()
    } else {
        main_args.iter().map(|&x| Word(x)).collect()
    };

    let obs = if trace_out.is_some() {
        ObsSink::with_trace_capacity(TRACE_CAPACITY)
    } else {
        ObsSink::counters_only()
    };
    session.emit_compile_trace(&obs);
    // The stall table and the trace name nodes by label.
    obs.set_labels(
        program
            .graph
            .nodes()
            .iter()
            .map(|slot| slot.label().to_string())
            .collect(),
    );
    obs.set_link_labels(link_labels(&mut program));
    let plan = program.graph.plan().stats();
    // The run's own totals, each from its one source: the `ExecReport`
    // untimed; timed, the `SimStats` and the stall tally, where every fire
    // is busy or a stall of a class a fire can have (a DRAM-gated address
    // generator is deferred unfired).
    let (cycles, totals) = if timed {
        let stats = match Simulator::default().run_obs(&mut program, &args, MAX_CYCLES, &obs) {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("revetc: timed run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let busy: u64 = stats.busy_cycles.iter().sum();
        let [starved, full, alloc_gated, _] = obs.stall_totals();
        let totals = vec![
            ("exec.dispatches", busy + starved + full + alloc_gated),
            ("exec.productive", busy),
            ("exec.rounds", stats.cycles),
            // The context count: cycle 1 steps every context.
            ("exec.peak_ready", stats.peak_busy_nodes),
            ("sim.dram_read_bytes", stats.dram_read_bytes),
            ("sim.dram_written_bytes", stats.dram_written_bytes),
        ];
        (Some(stats.cycles), totals)
    } else {
        let report = match program.instance().run(&args, MAX_ROUNDS, &obs) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("revetc: execution failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let totals = vec![
            ("exec.dispatches", report.steps),
            ("exec.productive", report.productive_steps),
            ("exec.rounds", report.rounds),
            ("exec.peak_ready", report.peak_ready),
        ];
        (None, totals)
    };

    if profile {
        println!("== compile stages ==");
        for (stage, wall) in session.stage_timings() {
            let us = wall.as_micros();
            match COUNTED_STAGES.iter().position(|s| s == stage) {
                Some(i) => println!("  {stage:<22} {us:>8} us {:>8} allocs", allocs[i]),
                None => println!("  {stage:<22} {us:>8} us"),
            }
        }
        println!("\n== execution counters ==");
        if let Some(cycles) = cycles {
            println!("  simulated cycles: {cycles}");
        }
        println!(
            "  plan shape: {} segments, {} fused runs, {} fused edges",
            plan.segments,
            plan.fused_runs,
            plan.fused_ew - plan.fused_runs
        );
        let stalls = StallClass::ALL
            .iter()
            .zip(obs.stall_totals())
            .map(|(class, n)| (format!("exec.stalls.{}", class.name()), n));
        let totals = totals.into_iter().map(|(name, n)| (name.to_string(), n));
        for (name, value) in totals.chain(stalls).chain(obs.counters.snapshot()) {
            println!("  {name:<28} {value}");
        }
        println!("\n== top stalls ==");
        print!("{}", obs.top_stalls_table(10));
        if timed {
            println!("\n== top bound links ==");
            print!("{}", obs.top_bound_links_table(10));
        }
    }
    if let Some(path) = trace_out {
        let json = obs.chrome_trace_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("revetc: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        let dropped = obs.trace_dropped();
        println!(
            "wrote {path} ({} events{}) — load it at ui.perfetto.dev",
            obs.trace_events().len(),
            if dropped > 0 {
                format!(", {dropped} dropped by the ring")
            } else {
                String::new()
            }
        );
    }
    ExitCode::SUCCESS
}

/// Names every link `producer -> consumer [class]` by its endpoints'
/// context labels; the entry link, written by the argument injection, has
/// no producer context.
fn link_labels(program: &mut CompiledProgram) -> Vec<String> {
    let topo = std::sync::Arc::clone(program.graph.plan().topology());
    let nodes = program.graph.nodes();
    let names = |ids: &[NodeId], none: &str| match ids {
        [] => none.to_string(),
        ids => ids
            .iter()
            .map(|n| nodes[n.0 as usize].label().to_string())
            .collect::<Vec<_>>()
            .join(","),
    };
    program
        .links
        .iter()
        .map(|l| {
            let c = ChanId(l.id);
            let class = format!("{:?}", l.class).to_lowercase();
            let (from, to) = (topo.producers(c), topo.consumers(c));
            format!("{} -> {} [{class}]", names(from, "entry"), names(to, "-"))
        })
        .collect()
}
