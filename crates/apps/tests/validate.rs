//! Every Table III application, compiled by the full pipeline and executed
//! on the dataflow machine, validated against its oracle.

use revet_apps::all_apps;

macro_rules! validate {
    ($fn_name:ident, $app:literal, $outer:expr, $scale:expr) => {
        #[test]
        fn $fn_name() {
            let app = revet_apps::app($app).expect("app registered");
            app.validate_untimed($outer, $scale, 0xD0E5);
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
        app.validate_untimed(1, 4, 7);
    }
}

/// Regression: workloads larger than the allocator pool must recycle
/// pointers through the replicate distribution network (a leaked hoisted
/// pointer deadlocks the pool).
#[test]
fn pointer_pool_recycles_beyond_capacity() {
    let app = revet_apps::app("murmur3").unwrap();
    app.validate_untimed(4, 200, 3);
}
