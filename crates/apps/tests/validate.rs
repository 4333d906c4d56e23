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

/// Apps validate against the MIR reference interpreter too (pre-dataflow),
/// pinning down which layer a regression lives in.
#[test]
fn all_apps_through_mir_interp() {
    use revet_mir::{DramLayout, Interp};
    use revet_sltf::Word;
    for app in all_apps() {
        let w = (app.workload)(4, 13);
        let module = revet_lang::compile_to_mir(&(app.source)(2)).unwrap();
        let layout = DramLayout::equal_slices(module.drams.len(), revet_apps::DRAM_BYTES);
        let mut mem = module.build_memory(revet_apps::DRAM_BYTES);
        for (sym, bytes) in &w.inits {
            let base = layout.base[*sym] as usize;
            mem.dram[base..base + bytes.len()].copy_from_slice(bytes);
        }
        let args: Vec<Word> = w.args.iter().map(|&a| Word(a)).collect();
        Interp::new(&module, &layout, &mut mem)
            .with_fuel(1_000_000_000)
            .run("main", &args)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let base = layout.base[w.out_sym] as usize;
        assert_eq!(
            &mem.dram[base..base + w.expected.len()],
            &w.expected[..],
            "{}: MIR interp output differs from oracle",
            app.name
        );
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
