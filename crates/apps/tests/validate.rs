//! Every Table III application, compiled by the full pipeline and executed
//! on the dataflow machine, validated against its oracle — untimed, and in
//! the simulator on the Table II machine and with every input buffer one
//! token deep; and every directed golden, judged by every lane.

use revet_apps::all_apps;
use revet_core::PassOptions;
use revet_oracle::judge::{Lanes, Stream};
use revet_sim::RdaConfig;

#[path = "common/corpus.rs"]
mod corpus;
use corpus::{app_case, directed_cases, judged};

/// The plan at the default level (`REVET_OPT_LEVEL` moves it).
fn plan() -> Lanes {
    Lanes::plan(&[PassOptions::default().opt_level])
}

macro_rules! validate {
    ($fn_name:ident, $app:literal, $outer:expr, $scale:expr) => {
        #[test]
        fn $fn_name() {
            let one_deep = RdaConfig {
                vector_buffer_tokens: 1,
                scalar_buffer_tokens: 1,
                ..RdaConfig::default()
            };
            let lanes = Lanes {
                timed: vec![RdaConfig::default(), one_deep],
                ..plan()
            };
            let app = revet_apps::app($app).expect("app registered");
            judged($app, &app_case(&app, $outer, $scale, 0xD0E5), &lanes);
        }
    };
}

validate!(isipv4_dataflow, "isipv4", 2, 24);
validate!(ip2int_dataflow, "ip2int", 2, 24);
validate!(murmur3_dataflow, "murmur3", 2, 16);
validate!(hash_table_dataflow, "hash-table", 2, 32);
validate!(search_dataflow, "search", 2, 8);
validate!(huff_dec_dataflow, "huff-dec", 2, 6);
validate!(huff_enc_dataflow, "huff-enc", 2, 6);
validate!(kdtree_dataflow, "kD-tree", 2, 8);

/// All apps also validate at replicate width 1 (no distribution network).
#[test]
fn all_apps_at_width_one() {
    for app in all_apps() {
        judged(app.name, &app_case(&app, 1, 4, 7), &plan());
    }
}

/// Regression: workloads larger than the allocator pool must recycle
/// pointers through the replicate distribution network (a leaked hoisted
/// pointer deadlocks the pool).
#[test]
fn pointer_pool_recycles_beyond_capacity() {
    let app = revet_apps::app("murmur3").unwrap();
    judged(app.name, &app_case(&app, 4, 200, 3), &plan());
}

/// Each directed golden under every lane, and with all six §V switches
/// off and with each one off alone. Streamed one copy at a time: a second
/// copy of `modify_view` would update the same tile concurrently.
#[test]
fn every_directed_golden_is_judged() {
    let lanes = Lanes {
        stream: Some(Stream {
            copies: 1,
            chunk: 1,
        }),
        toggles: vec![0, 0x3e, 0x3d, 0x3b, 0x37, 0x2f, 0x1f],
        ..Lanes::default()
    };
    for (name, case) in directed_cases() {
        judged(name, &case, &lanes);
    }
}
