//! # revet-bench — the paper's evaluation as one report
//!
//! [`paper`] runs the paper's evaluation and prints it in a fixed order:
//! Tables II–V, then Figs. 12–14. `revetc --emit paper [--scale N]` prints
//! it, and `tests/paper_tables.rs` pins it at scale 16 against
//! `tests/golden/paper_tables.txt`. Each table prints the integers its ratios
//! come from, so a change that moves a paper number is a row diff there.
//! The §VI-B c Aurochs comparison is not in it: the simulator has no Aurochs
//! machine to time, and a ratio of assumed factors is not a measurement.
//!
//! Each Table III app is compiled at -O2 (pinned, so `REVET_OPT_LEVEL`
//! cannot move the report) and timed once per Table V preset; every section
//! that needs a timed run reads those runs. The simulator and the baseline
//! models are deterministic, so none of this needs wall-clock timing.
//!
//! Scales are small: absolute GB/s therefore differ from the paper (whose
//! runs used multi-GiB datasets on the authors' RTL-calibrated simulator),
//! while the *shape* — who wins, by roughly what factor, where the
//! crossovers fall — is the reproduction target.

#![warn(missing_docs)]

use revet_apps::{all_apps, App, Workload};
use revet_baselines::{traits_for, CpuModel, GpuModel};
use revet_core::report::ResourceReport;
use revet_core::PassOptions;
use revet_sim::{IdealModels, RdaConfig, SimStats, Simulator};
use revet_sltf::Word;

/// Replicate width every app is compiled at.
const OUTER: u32 = 8;
/// Workload seed.
const SEED: u64 = 0x5EED;
/// Cycle cap of one timed run.
const MAX_CYCLES: u64 = 2_000_000_000;
/// Input counts of the Fig. 14 sweep.
const FIG14_INPUTS: [usize; 7] = [1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000];

/// The paper's evaluation as one report: Tables II–V and Figs. 12–14, in
/// that order, with the timed runs at `scale` records per app. The output
/// is deterministic; at scale 16 it is pinned by
/// `tests/golden/paper_tables.txt`.
///
/// # Panics
///
/// Panics if an app fails to compile, run or match its oracle (the report
/// is also a test).
pub fn paper(scale: usize) -> String {
    let opts = PassOptions {
        opt_level: 2,
        ..PassOptions::default()
    };
    let runs: Vec<AppRuns> = all_apps()
        .into_iter()
        .map(|app| AppRuns::new(app, scale, &opts))
        .collect();
    let sections = [
        (
            "Table II: RDA parameters".to_string(),
            RdaConfig::default().table2() + "\n",
        ),
        ("Table III: applications".to_string(), table3(&runs)),
        (
            format!("Table IV: resources (scale={scale})"),
            table4(&runs),
        ),
        (
            format!("Table V: performance (scale={scale})"),
            table5(&runs),
        ),
        (
            "Figure 12: optimization ablations".to_string(),
            fig12(&runs, &opts),
        ),
        (
            format!("Figure 13: hierarchy removal scaling (scale={scale})"),
            fig13(scale, &opts),
        ),
        (
            "Figure 14: per-region load vs inputs".to_string(),
            fig14_table(&fig14(&FIG14_INPUTS)),
        ),
    ];
    sections
        .iter()
        .map(|(title, body)| format!("=== {title} ===\n{body}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One Table III app, compiled at [`OUTER`] and timed once under each
/// Table V preset, every run checked against the app's oracle.
struct AppRuns {
    app: App,
    /// Resource report of the compiled program.
    report: ResourceReport,
    workload: Workload,
    /// Real machine, then ideal D, SN and SND.
    stats: [SimStats; 4],
}

impl AppRuns {
    fn new(app: App, scale: usize, opts: &PassOptions) -> Self {
        let run = |ideal: IdealModels| {
            let (mut program, args, w) = app.prepare(OUTER, scale, SEED, opts);
            let stats = Simulator::new(RdaConfig::default(), ideal)
                .run(&mut program, &args, MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            app.check(&program, &w);
            (program, stats, w)
        };
        let (program, real, workload) = run(IdealModels::default());
        let report = ResourceReport::for_program(app.name, &program);
        let stats = [
            real,
            run(IdealModels::dram_only()).1,
            run(IdealModels::sram_network()).1,
            run(IdealModels::all()).1,
        ];
        AppRuns {
            app,
            report,
            workload,
            stats,
        }
    }
}

/// Table III: application inventory.
fn table3(runs: &[AppRuns]) -> String {
    let mut s = String::from(
        "app          lines  description                                        key features\n",
    );
    for AppRuns { app, .. } in runs {
        s.push_str(&format!(
            "{:<12} {:>5}  {:<50} {}\n",
            app.name,
            app.lines(),
            app.description,
            app.key_features
        ));
    }
    s
}

/// Table IV: resources used by Revet applications, with HBM2 utilization
/// from the real timed run.
fn table4(runs: &[AppRuns]) -> String {
    let machine = RdaConfig::default();
    let mut s = String::from(
        "app          outer lanes | inner CU/MU/AG | outer CU/MU/AG | repl CU/MU | dlk buf rtm | total CU/MU/AG | HBM2 r/w/tot % | links s/v | fits\n",
    );
    for r in runs {
        let rep = &r.report;
        let (read, write) = r.stats[0].dram_rw_utilization();
        s.push_str(&format!(
            "{:<12} {:>5} {:>5} | {:>4}/{:>3}/{:>3} | {:>4}/{:>3}/{:>3} | {:>4}/{:>3} | {:>3} {:>3} {:>3} | {:>4}/{:>3}/{:>3} | {:>4.1}/{:>4.1}/{:>4.1} | {:>4}/{:>4} | {}\n",
            rep.name,
            rep.outer,
            rep.lanes,
            rep.inner.0,
            rep.inner.1,
            rep.inner.2,
            rep.outer_units.0,
            rep.outer_units.1,
            rep.outer_units.2,
            rep.replicate.0,
            rep.replicate.1,
            rep.deadlock_mu,
            rep.buffer_mu,
            rep.retime_mu,
            rep.total.0,
            rep.total.1,
            rep.total.2,
            100.0 * read,
            100.0 * write,
            100.0 * (read + write),
            rep.links.0,
            rep.links.1,
            machine.fits(rep.total),
        ));
    }
    s
}

/// Table V: performance vs the V100 and CPU models, ideal-model speedups,
/// and the geomean row.
fn table5(runs: &[AppRuns]) -> String {
    let gpu = GpuModel::default();
    let cpu = CpuModel::default();
    let mut s = String::from(
        "app          Revet GB/s   V100 GB/s (x)   CPU GB/s (x)   | ideal D    SN   SND | cycles real/D/SN/SND\n",
    );
    let mut gx = 1.0f64;
    let mut cx = 1.0f64;
    for r in runs {
        let [real, d, sn, snd] = &r.stats;
        let t = traits_for(r.app.name);
        let revet_gbps = real.throughput_gbps(r.workload.app_bytes);
        let gpu_gbps = gpu.throughput_gbps(&t);
        let cpu_gbps = cpu.throughput_gbps(&t);
        let g = revet_gbps / gpu_gbps;
        let c = revet_gbps / cpu_gbps;
        gx *= g;
        cx *= c;
        let speedup = |ideal: &SimStats| real.cycles as f64 / ideal.cycles as f64;
        s.push_str(&format!(
            "{:<12} {:>10.2} {:>9.2} ({:>5.2}) {:>8.2} ({:>6.1}) | {:>7.2} {:>5.2} {:>5.2} | {}\n",
            r.app.name,
            revet_gbps,
            gpu_gbps,
            g,
            cpu_gbps,
            c,
            speedup(d),
            speedup(sn),
            speedup(snd),
            r.stats.each_ref().map(|st| st.cycles.to_string()).join("/"),
        ));
    }
    let n = runs.len() as f64;
    s.push_str(&format!(
        "geomean speedup vs GPU: {:.2}x   vs CPU: {:.1}x\n",
        gx.powf(1.0 / n),
        cx.powf(1.0 / n)
    ));
    s
}

/// Figure 12: CU/MU with each optimization disabled, raw and relative to
/// the default compile (Table IV's totals).
fn fig12(runs: &[AppRuns], opts: &PassOptions) -> String {
    let ablations = [
        PassOptions {
            if_to_select: false,
            ..opts.clone()
        },
        PassOptions {
            hoist_allocators: false,
            bufferize_replicate: false,
            ..opts.clone()
        },
        PassOptions {
            pack_subwords: false,
            ..opts.clone()
        },
    ];
    let mut s = String::from(
        "app          default CU/MU | NoIfConv CU/MU (x/x)     | NoBuffer CU/MU (x/x)     | NoPack CU/MU (x/x)\n",
    );
    for r in runs {
        let (cu0, mu0, _) = r.report.total;
        let cols = ablations.each_ref().map(|ablated| {
            let program = r
                .app
                .compile(OUTER, ablated)
                .unwrap_or_else(|e| panic!("{}: {e}", r.app.name));
            let (cu, mu, _) = ResourceReport::for_program(r.app.name, &program).total;
            format!(
                "{cu:>4}/{mu:<4} ({:.2}/{:.2})",
                cu as f64 / cu0.max(1) as f64,
                mu as f64 / mu0.max(1) as f64,
            )
        });
        s.push_str(&format!(
            "{:<12} {:>8}/{:<4} | {:<24} | {:<24} | {}\n",
            r.app.name, cu0, mu0, cols[0], cols[1], cols[2],
        ));
    }
    s
}

/// Figure 13: performance vs area with and without hierarchy removal
/// (murmur3 case study, ideal S/N/D models), sweeping outer parallelism.
/// Uses a murmur3-with-inner-foreach variant so hierarchy removal has a
/// barrier to eliminate; area and performance are normalized to the first
/// point (outer 1, hierarchy removed).
fn fig13(scale: usize, opts: &PassOptions) -> String {
    let source = |outer: u32, eliminate: bool| -> String {
        let pragma = if eliminate {
            "pragma(eliminate_hierarchy);"
        } else {
            ""
        };
        format!(
            r#"
dram<u32> input;
dram<u32> output;
void main(u32 count) {{
    foreach (count by 4) {{ u32 base =>
        foreach (4) {{ u32 sub =>
            {pragma}
            u32 i = base + sub;
            replicate ({outer}) {{
                readit<16> it(input, i * 16);
                u32 h = 0;
                u32 j = 0;
                while (j < 16) {{
                    u32 k = *it;
                    k = k * 0xcc9e2d51;
                    k = (k << 15) | (k >> 17);
                    k = k * 0x1b873593;
                    h = h ^ k;
                    h = (h << 13) | (h >> 19);
                    h = h * 5 + 0xe6546b64;
                    it++;
                    j = j + 1;
                }};
                output[i] = h;
            }};
        }};
    }};
}}
"#
        )
    };
    // Workload: `scale` 64 B blobs (reuses murmur3's generator).
    let w = (revet_apps::murmur3_app().workload)(scale, SEED);
    let slice = revet_apps::DRAM_BYTES / 2;
    let sim = Simulator::new(RdaConfig::default(), IdealModels::all());
    let mut s = String::from("variant          outer  norm.area  norm.perf  units    cycles\n");
    let mut baseline: Option<(usize, u64)> = None;
    for eliminate in [true, false] {
        for outer in 1..=6u32 {
            let opts = PassOptions {
                eliminate_hierarchy: eliminate,
                dram_bytes: revet_apps::DRAM_BYTES,
                ..opts.clone()
            };
            let mut program = revet_core::Session::new(source(outer, eliminate), opts)
                .to_dataflow()
                .unwrap_or_else(|e| panic!("fig13 outer {outer}: {e}"));
            for (sym, bytes) in &w.inits {
                program
                    .graph
                    .mem
                    .write_dram(sym * slice, bytes)
                    .expect("murmur3 inputs fit the two-symbol image");
            }
            let cycles = sim
                .run(&mut program, &[Word(scale as u32)], MAX_CYCLES)
                .unwrap_or_else(|e| panic!("fig13 outer {outer}: {e}"))
                .cycles;
            let (cu, mu, ag) = ResourceReport::for_program("murmur3-fig13", &program).total;
            let units = cu + mu + ag;
            let (units0, cycles0) = *baseline.get_or_insert((units, cycles));
            s.push_str(&format!(
                "{:<16} {:>5}  {:>9.2}  {:>9.2}  {:>5}  {:>8}\n",
                if eliminate {
                    "hier-removed"
                } else {
                    "hierarchical"
                },
                outer,
                units as f64 / units0 as f64,
                cycles0 as f64 / cycles as f64,
                units,
                cycles,
            ));
        }
    }
    s
}

/// One Fig. 14 point: per-region load at one input count.
#[derive(Debug)]
struct Fig14Point {
    /// Number of input elements.
    inputs: usize,
    /// Work fraction (%) of the slow region.
    slow_share: f64,
    /// Work fraction (%) of the fastest region.
    fast_share: f64,
}

/// Figure 14: per-region load vs input count for `search`, with one
/// replicate region slowed 30%. Models the allocator-queue feedback loop
/// directly (the mechanism of §V-B b): each of 8 regions holds a buffer
/// for `service` cycles per item, the slow region 30% longer, with a
/// bounded shared pointer pool.
fn fig14(inputs: &[usize]) -> Vec<Fig14Point> {
    const REGIONS: usize = 8;
    const BUFFERS: usize = 4096;
    inputs
        .iter()
        .map(|&n| {
            // Discrete-event model of the hoisted allocator: pops hand work
            // to the region `ptr % REGIONS` (exactly the compiled dist key).
            let service = |region: usize| -> u64 {
                if region == 0 {
                    13
                } else {
                    10
                }
            };
            let mut free: std::collections::VecDeque<usize> = (0..BUFFERS).collect();
            let mut busy: Vec<(u64, usize)> = Vec::new(); // (done_time, ptr)
            let mut done_per_region = vec![0u64; REGIONS];
            let mut now = 0u64;
            let mut issued = 0usize;
            while issued < n || !busy.is_empty() {
                while issued < n {
                    if let Some(ptr) = free.pop_front() {
                        let region = ptr % REGIONS;
                        busy.push((now + service(region), ptr));
                        done_per_region[region] += 1;
                        issued += 1;
                    } else {
                        break;
                    }
                }
                if let Some((t, _)) = busy.iter().min_by_key(|(t, _)| *t).copied() {
                    now = t;
                    let mut i = 0;
                    while i < busy.len() {
                        if busy[i].0 <= now {
                            free.push_back(busy.swap_remove(i).1);
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            let total: u64 = done_per_region.iter().sum();
            let slow = 100.0 * done_per_region[0] as f64 / total as f64;
            let fast = 100.0 * done_per_region[1..].iter().copied().max().unwrap_or(0) as f64
                / total as f64;
            Fig14Point {
                inputs: n,
                slow_share: slow,
                fast_share: fast,
            }
        })
        .collect()
}

/// Formats Fig. 14.
fn fig14_table(points: &[Fig14Point]) -> String {
    let mut s = String::from("inputs      slow-region %   fastest-region %   (even = 12.5%)\n");
    for p in points {
        s.push_str(&format!(
            "{:>8}    {:>12.2}    {:>15.2}\n",
            p.inputs, p.slow_share, p.fast_share
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_shows_load_balancing_shape() {
        let pts = fig14(&[1_000, 100_000]);
        // Small inputs: near-even split. Large inputs: slow region starved
        // below even share, fast regions above.
        assert!((pts[0].slow_share - 12.5).abs() < 1.5, "{:?}", pts[0]);
        assert!(pts[1].slow_share < 11.0, "{:?}", pts[1]);
        assert!(pts[1].fast_share > 12.5, "{:?}", pts[1]);
    }
}
