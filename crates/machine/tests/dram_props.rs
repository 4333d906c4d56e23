//! DRAM image recycling: a checked-out image must be byte-identical to
//! the *current* template whatever its previous users wrote, through
//! whichever `&mut` path, and however they went away.
//!
//! Every template starts unbacked (an all-zero image owns no bytes), and
//! the random lifetimes read and write it, so checkouts are drawn from
//! unbacked, read-backed and written templates alike.
//!
//! Debug builds also compare the whole image inside `Dram::checkout` and
//! panic there; CI additionally runs this file with `--release`, where
//! that compare is compiled out and only the assertions below stand
//! between a dirty-tracking bug and a cross-instance leak.

use proptest::prelude::*;
use revet_machine::{MemoryState, PoolStats, PAGE_BYTES, POOL_IMAGES};
use revet_sltf::Word;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

/// Five pages and a short sixth, so the last page is partial.
const LEN: usize = 5 * PAGE_BYTES + 123;

/// One step of a random lifetime, decoded from raw bits (the vendored
/// proptest has no `prop_oneof!`). `who` picks a live instance, `at` an
/// offset, `val` the bytes written.
#[derive(Clone, Debug)]
struct Step {
    kind: u8,
    who: usize,
    at: usize,
    val: u32,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    any::<u64>().prop_map(|raw| Step {
        kind: (raw % 12) as u8,
        who: (raw >> 4) as usize & 0xFF,
        // A little past the end, so out-of-range overlays are exercised.
        at: ((raw >> 12) as usize & 0xF_FFFF) % (LEN + 8),
        val: (raw >> 32) as u32,
    })
}

/// An instance's memory beside the plain bytes it must hold.
struct Live {
    mem: MemoryState,
    model: Vec<u8>,
}

fn checkout(template: &MemoryState, model: &[u8], live: &mut Vec<Live>) {
    let mem = template.fresh_instance();
    assert!(
        mem.dram[..] == *model,
        "checked-out image differs from the current template"
    );
    live.push(Live {
        mem,
        model: model.to_vec(),
    });
}

fn retire(inst: Live) {
    assert!(
        inst.mem.dram[..] == inst.model[..],
        "instance diverged from its own model"
    );
}

fn run_steps(steps: &[Step]) {
    let mut template = MemoryState::with_dram_size(LEN);
    let mut model = vec![0u8; LEN];
    let mut live: Vec<Live> = Vec::new();
    for step in steps {
        let bytes = step.val.to_le_bytes();
        match step.kind {
            0 | 1 => checkout(&template, &model, &mut live),
            2 if !live.is_empty() => retire(live.swap_remove(step.who % live.len())),
            // Template mutation: the images out now must not be recycled
            // against the new bytes.
            3 => {
                let at = step.at.min(LEN - 4);
                template.write_dram(at, &bytes).unwrap();
                model[at..at + 4].copy_from_slice(&bytes);
            }
            // Reading the template backs it; it must still read as the model.
            10 => {
                let at = step.at.min(LEN - 1);
                assert_eq!(template.dram[at], model[at], "template read at {at}");
            }
            // Writing it through range indexing: a mutation, like kind 3.
            11 => {
                let at = step.at.min(LEN - 1);
                template.dram[at..=at].copy_from_slice(&bytes[3..]);
                model[at] = bytes[3];
            }
            kind if !live.is_empty() => {
                let k = step.who % live.len();
                let Live { mem, model } = &mut live[k];
                match kind {
                    4 => {
                        let at = step.at.min(LEN - 4);
                        mem.dram_write_word(at as u32, Word(step.val));
                        model[at..at + 4].copy_from_slice(&bytes);
                    }
                    5 => {
                        let at = step.at.min(LEN - 1);
                        mem.dram_write_byte(at as u32, Word(step.val));
                        model[at] = bytes[0];
                    }
                    6 => {
                        // A run long enough to cross page boundaries.
                        let run = vec![bytes[0]; step.val as usize % (2 * PAGE_BYTES)];
                        let fits = step.at + run.len() <= LEN;
                        assert_eq!(mem.write_dram(step.at, &run).is_ok(), fits);
                        if fits {
                            model[step.at..step.at + run.len()].copy_from_slice(&run);
                        }
                    }
                    7 => {
                        let at = step.at.min(LEN - 4);
                        mem.dram[at..at + 4].copy_from_slice(&bytes);
                        model[at..at + 4].copy_from_slice(&bytes);
                    }
                    8 => {
                        let at = step.at.min(LEN - 1);
                        mem.dram[at..].fill(bytes[1]);
                        model[at..].fill(bytes[1]);
                    }
                    _ => {
                        // A whole-slice `&mut [u8]`: no range to go by.
                        let at = step.at.min(LEN - 1);
                        let whole: &mut [u8] = &mut mem.dram;
                        whole[at] = bytes[2];
                        model[at] = bytes[2];
                    }
                }
            }
            _ => {}
        }
        let stats = template.dram.pool_stats();
        assert!(stats.retained_bytes <= (POOL_IMAGES * LEN) as u64);
    }
    live.drain(..).for_each(retire);
    // Whatever the pool now holds, every image it hands out is pristine.
    for _ in 0..POOL_IMAGES + 1 {
        checkout(&template, &model, &mut live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_checkout_equals_the_current_template(
        steps in prop::collection::vec(step_strategy(), 0..160),
    ) {
        run_steps(&steps);
    }
}

#[test]
fn concurrent_checkout_scribble_drop_stays_pristine_and_bounded() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 200;
    let mut template = MemoryState::with_dram_size(LEN);
    template.write_dram(7, b"template").unwrap();
    let pristine = template.dram.to_vec();
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (template, pristine, start) = (&template, &pristine, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let mut inst = template.fresh_instance();
                    assert!(inst.dram[..] == pristine[..], "thread {t} round {round}");
                    let at = (t * 7919 + round * 104_729) % (LEN - 4);
                    inst.dram_write_word(at as u32, Word(!0));
                    inst.dram[at % PAGE_BYTES..][..2].copy_from_slice(&[t as u8 + 1; 2]);
                    if round % 16 == 0 {
                        inst.dram.fill(0xEE);
                    }
                    let retained = template.dram.pool_stats().retained_bytes;
                    assert!(retained <= (POOL_IMAGES * LEN) as u64);
                }
            });
        }
    });
    let stats = template.dram.pool_stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
    // Each thread holds one image at a time, so at most THREADS images
    // ever exist and (THREADS ≤ POOL_IMAGES) none is ever freed: the miss
    // count stops at the warm-up.
    assert!(stats.misses <= THREADS as u64, "{stats:?}");
    assert!(stats.retained_bytes <= (POOL_IMAGES * LEN) as u64);
}

#[test]
fn steady_state_stops_missing() {
    let template = MemoryState::with_dram_size(LEN);
    for _ in 0..50 {
        let mut a = template.fresh_instance();
        let mut b = template.fresh_instance();
        a.dram_write_byte(1, Word(1));
        b.write_dram(PAGE_BYTES, &[2; 3]).unwrap();
    }
    let stats = template.dram.pool_stats();
    assert_eq!((stats.misses, stats.hits), (2, 98));
    assert_eq!(stats.reset_pages, 98, "one page per recycled image");
    assert_eq!(stats.retained_bytes, (2 * LEN) as u64);
}

#[test]
fn instance_may_outlive_its_template() {
    let mut inst = {
        let template = MemoryState::with_dram_size(LEN);
        drop(template.fresh_instance()); // one idle image dies with the pool
        template.fresh_instance()
    };
    inst.dram_write_word(0, Word(5));
    assert_eq!(inst.dram_read_word(0), Word(5));
    drop(inst); // home pool is gone: freed, not pushed anywhere
}

#[test]
fn template_mutation_retires_images_that_are_out() {
    let mut template = MemoryState::with_dram_size(LEN);
    let mut out = template.fresh_instance();
    out.dram_write_word(0, Word(0xAAAA_AAAA));
    template.write_dram(PAGE_BYTES, b"new input").unwrap();
    assert_eq!(
        template.dram.pool_stats(),
        PoolStats::default(),
        "a mutated template starts a new pool"
    );
    drop(out);
    let fresh = template.fresh_instance();
    assert_eq!(fresh.dram, template.dram);
    let stats = template.dram.pool_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 1),
        "the stale image was not recycled"
    );
}

#[test]
fn image_dropped_during_unwind_is_reset_on_the_next_checkout() {
    let template = MemoryState::with_dram_size(LEN);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut inst = template.fresh_instance();
        inst.dram_write_word(2 * PAGE_BYTES as u32, Word(0xDEAD_BEEF));
        inst.dram_write_word(LEN as u32, Word(0)); // past the end: panics
    }));
    assert!(unwound.is_err());
    assert_eq!(template.dram.pool_stats().retained_bytes, LEN as u64);
    let next = template.fresh_instance();
    assert!(next.dram.iter().all(|&b| b == 0));
    let stats = template.dram.pool_stats();
    assert_eq!((stats.hits, stats.reset_pages), (1, 1));
}
