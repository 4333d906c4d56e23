//! Streaming-session differential: on every Table III app, feeding K
//! argument sets one at a time through a [`StreamInstance`] — polling the
//! resumable executor to quiescence between chunks — must be bit-identical
//! (sink token stream and full DRAM image) to one dense-oracle run
//! ([`run_dense`]) of an instance given all K argsets up front, at O0 and
//! O2. The DRAM image must also pass the app's own oracle: repeated
//! argsets re-run `main` with the same inputs, and every app's writes are
//! idempotent, so the workload's expected image stays valid however many
//! times it is fed.
//!
//! [`StreamInstance`]: revet_core::StreamInstance

use revet_apps::all_apps;
use revet_core::PassOptions;
use revet_oracle::dense::run_dense;

const SEED: u64 = 0x57AE;
const MAX_ROUNDS: u64 = 200_000_000;
const CHUNKS: usize = 3;

#[test]
fn chunked_feed_matches_one_shot_on_all_apps() {
    for app in all_apps() {
        for level in [0u8, 2] {
            let opts = PassOptions {
                opt_level: level,
                ..PassOptions::default()
            };
            let (program, args, w) = app.prepare(2, 8, SEED, &opts);
            let argsets: Vec<_> = (0..CHUNKS).map(|_| args.clone()).collect();

            // One-shot reference: one instance, all argsets up front, run
            // by the dense oracle.
            let mut reference = program.instance();
            for args in &argsets {
                reference.inject_args(args);
            }
            run_dense(&mut reference.graph, MAX_ROUNDS)
                .unwrap_or_else(|e| panic!("{} (O{level}, dense one-shot): {e}", app.name));
            let reference_sink = reference.sink_tokens();
            app.check_dram(&reference.memory().dram, &w);

            // A one-shot run first, so the session gets its channel table
            // back from the program's pool: a read of a slot that run left
            // behind (debug builds poison them) would break the identity.
            let mut warm = program.instance();
            warm.run_untimed(&args, MAX_ROUNDS)
                .unwrap_or_else(|e| panic!("{} (O{level}, warm-up): {e}", app.name));
            drop(warm);
            let mut stream = program.stream();
            let mut deltas = Vec::new();
            for args in &argsets {
                assert_eq!(stream.feed(std::slice::from_ref(args)).unwrap(), 1);
                let (delta, _) = stream
                    .poll(MAX_ROUNDS)
                    .unwrap_or_else(|e| panic!("{} (O{level}): {e}", app.name));
                deltas.extend(delta);
            }
            let out = stream
                .finish(MAX_ROUNDS)
                .unwrap_or_else(|e| panic!("{} (O{level}, finish): {e}", app.name));
            deltas.extend(out.tail);
            assert_eq!(
                deltas, reference_sink,
                "{} (O{level}): poll deltas and the close's tail must concatenate to the one-shot stream",
                app.name
            );
            assert_eq!(
                out.memory.dram,
                reference.memory().dram,
                "{} (O{level}): full DRAM image must match one-shot",
                app.name
            );
            app.check_dram(&out.memory.dram, &w);
        }
    }
}
