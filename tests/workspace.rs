//! Workspace-level integration: the facade crate exposes the whole stack
//! and the layers agree with each other.

use revet::compiler::{PassOptions, Session};
use revet_sltf::Word;

#[test]
fn facade_compiles_and_runs() {
    let src = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                output[i] = i + 1;
            };
        }
    "#;
    let mut p = Session::new(
        src,
        PassOptions {
            dram_bytes: 1 << 14,
            ..PassOptions::default()
        },
    )
    .to_dataflow()
    .unwrap();
    p.run_untimed(&[Word(6)], 1_000_000).unwrap();
    for i in 0..6usize {
        let got = u32::from_le_bytes(p.graph.mem.dram[4 * i..4 * i + 4].try_into().unwrap());
        assert_eq!(got, i as u32 + 1);
    }
}

#[test]
fn untimed_and_timed_agree_on_dram_contents() {
    let app = revet::apps::app("ip2int").unwrap();
    let w = (app.workload)(16, 99);
    let opts = PassOptions::default();

    let mut p1 = app.compile(2, &opts).unwrap();
    app.load(&mut p1, &w);
    let args: Vec<Word> = w.args.iter().map(|&a| Word(a)).collect();
    p1.run_untimed(&args, 100_000_000).unwrap();

    let mut p2 = app.compile(2, &opts).unwrap();
    app.load(&mut p2, &w);
    let sim = revet::sim::Simulator::default();
    sim.run(&mut p2, &args, 500_000_000).unwrap();

    assert_eq!(p1.graph.mem.dram, p2.graph.mem.dram);
}

#[test]
fn sltf_reexports_work() {
    use revet::sltf::{data, omega};
    use revet_oracle::ragged::Ragged;
    let t = Ragged::node([Ragged::leaf([1u32]), Ragged::leaf::<_, u32>([])]);
    assert_eq!(
        t.encode_canonical(2),
        vec![data(1u32), omega(1), omega(1), omega(2)]
    );
}
