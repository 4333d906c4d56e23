//! The app corpus as judge cases: each Table III app at a workload, and
//! each directed golden (`tests/golden/*.rvt`) with its argsets.

#![allow(dead_code)] // each harness uses part of the corpus

use revet_apps::{App, DRAM_BYTES};
use revet_oracle::judge::{judge, Case, Lanes, Verdict};

/// `app` at replicate width `outer` on its `(scale, seed)` workload, the
/// workload's oracle bytes as the expected output window.
pub fn app_case(app: &App, outer: u32, scale: usize, seed: u64) -> Case {
    let w = (app.workload)(scale, seed);
    let (base, _) = app.output_window(&w);
    Case {
        source: (app.source)(outer),
        argsets: vec![w.args.clone()],
        overlays: app.overlays(&w),
        dram_bytes: DRAM_BYTES,
        expected: Some((base, w.expected)),
    }
}

/// Judges `case`, panicking with `name` and the divergence.
pub fn judged(name: &str, case: &Case, lanes: &Lanes) -> Verdict {
    judge(case, lanes).unwrap_or_else(|f| panic!("{name}: {f}"))
}

/// Each directed golden's `main` argsets and the bytes of its first DRAM
/// symbol (none for the two that only write). The `.rvt` files are left as
/// they are: `frontend.digest` hashes their spans.
pub fn directed_cases() -> Vec<(&'static str, Case)> {
    let small: Vec<u8> = (0..256u32).flat_map(|k| (k % 5).to_le_bytes()).collect();
    let rows: [(&str, &[&[u32]], &[u8]); 9] = [
        ("bulk_sram", &[&[0], &[16]], &small),
        ("eliminate_hierarchy", &[&[8]], &small),
        ("fork_exit", &[&[1]], &[]),
        ("modify_view", &[&[12]], &small),
        ("pack_subwords", &[&[9]], &[0, 1, 2, 7, 3, 0, 255, 4, 5]),
        ("peek_iterator", &[&[0], &[19]], b"abcabbaab ab aabbbab"),
        ("replicate_bufferize", &[&[6]], &small),
        ("replicate_nested", &[&[5]], &small),
        ("while_exit", &[&[8]], &[]),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let on_disk = std::fs::read_dir(&dir)
        .expect("golden directory")
        .filter(|e| {
            let path = e.as_ref().expect("directory entry").path();
            path.extension().is_some_and(|x| x == "rvt")
        });
    assert_eq!(
        on_disk.count(),
        rows.len(),
        "every directed golden needs a row"
    );
    rows.iter()
        .map(|&(name, argsets, input)| {
            let path = dir.join(format!("{name}.rvt"));
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let case = Case {
                source,
                argsets: argsets.iter().map(|a| a.to_vec()).collect(),
                overlays: vec![(0, input.to_vec())],
                dram_bytes: 1 << 16,
                expected: None,
            };
            (name, case)
        })
        .collect()
}
