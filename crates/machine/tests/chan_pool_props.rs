//! Channel-table recycling: every instance's channels must equal the
//! *current* template's — queued tokens, class, canonicalisation state
//! and push counters — whatever its previous users pushed, popped,
//! left behind, failed on or unwound through.
//!
//! Channels are compared through what the public surface shows (a drained
//! clone, the settings, the counters, and how a pushed Ω15 canonicalizes),
//! not through `Channel`'s `==`, which the debug build's own check uses.
//! Debug builds also compare every reset table inside `Graph::fresh_instance`
//! and poison returned ring slots; CI additionally runs this file with
//! `--release`, where both are compiled out and only the assertions below
//! stand between a reset bug and a leak between instances.

use proptest::prelude::*;
use revet_machine::nodes::EwNode;
use revet_machine::{
    tbar, tdata, ChanId, Channel, Graph, LinkClass, PoolStats, RunOptions, TTok, POOL_IMAGES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

/// The template's channels: `A` and `B` feed a two-input zip (fed
/// unevenly, a run deadlocks) whose output link no node reads; `D`, `E`
/// and `F` have no endpoint, so tokens pushed there, like the zip's
/// output, stay behind after a clean run.
const A: ChanId = ChanId(0);
const B: ChanId = ChanId(1);
const D: ChanId = ChanId(3);
const E: ChanId = ChanId(4);
const F: ChanId = ChanId(5);

fn template() -> Graph {
    let mut g = Graph::new();
    let a = g.add_chan(Channel::new(1));
    let b = g.add_chan(Channel::new(1));
    let zipped = g.add_chan(Channel::new(2));
    g.add_chan(Channel::new(3));
    g.add_chan(
        Channel::new(0)
            .with_class(LinkClass::Scalar)
            .without_canonicalization(),
    );
    g.add_chan(Channel::new(2));
    g.add_node("zip", EwNode::passthrough(2), vec![a, b], vec![zipped]);
    g.plan();
    g
}

/// Everything observable about one channel.
#[derive(Debug, PartialEq)]
struct View {
    tokens: Vec<TTok>,
    arity: usize,
    class: LinkClass,
    canonicalizes: bool,
    pushed: u64,
    pushed_data: u64,
    /// The queue after pushing Ω15 onto a copy: whether the tail barrier
    /// is absorbed depends on the hidden "data preceded it" flag.
    with_top_barrier: Vec<TTok>,
}

fn view(c: &Channel) -> View {
    let mut probe = c.clone();
    probe.push(tbar(15));
    View {
        tokens: c.clone().drain_all(),
        arity: c.arity(),
        class: c.class,
        canonicalizes: c.canonicalizes(),
        pushed: c.total_pushed(),
        pushed_data: c.total_pushed_data(),
        with_top_barrier: probe.drain_all(),
    }
}

fn views(g: &Graph) -> Vec<View> {
    g.chans().iter().map(view).collect()
}

fn assert_pristine(inst: &Graph, template: &Graph) {
    assert_eq!(
        views(inst),
        views(template),
        "a checked-out table differs from the current template"
    );
}

/// A token for a channel of `arity` (`val`'s low bits pick data or a
/// barrier level).
fn token(arity: usize, val: u32) -> TTok {
    match val % 5 {
        0 => tbar(1 + (val >> 3) as u8 % 3),
        _ => tdata((0..arity as u32).map(|i| val.rotate_left(i))),
    }
}

/// One step of a random lifetime, decoded from raw bits (the vendored
/// proptest has no `prop_oneof!`). `who` picks a live instance, `val` the
/// tokens.
#[derive(Clone, Debug)]
struct Step {
    kind: u8,
    who: usize,
    val: u32,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    any::<u64>().prop_map(|raw| Step {
        kind: (raw % 13) as u8,
        who: (raw >> 4) as usize & 0xFF,
        val: (raw >> 32) as u32,
    })
}

fn checkout(template: &Graph, live: &mut Vec<Graph>) {
    let inst = template.fresh_instance();
    assert_pristine(&inst, template);
    live.push(inst);
}

/// Queues `n` data tokens on `A`, and on `B` too when `even`.
fn feed(g: &mut Graph, n: u32, even: bool) {
    for i in 0..n {
        g.chan_mut(A).push(tdata([i]));
        if even {
            g.chan_mut(B).push(tdata([!i]));
        }
    }
}

fn run_steps(steps: &[Step]) {
    let mut template = template();
    let mut live: Vec<Graph> = Vec::new();
    for step in steps {
        let Step { kind, who, val } = *step;
        match kind {
            0 | 1 => checkout(&template, &mut live),
            2 if !live.is_empty() => drop(live.swap_remove(who % live.len())),
            // Template mutations: what is out now must not be recycled
            // against the changed template.
            3 | 4 => {
                let c = [D, E, F][who % 3];
                let chan = template.chan_mut(c);
                if kind == 3 {
                    chan.push(token(chan.arity(), val));
                } else {
                    chan.pop();
                }
                assert_eq!(template.chan_pool_stats(), PoolStats::default());
            }
            5 => {
                template.chan_mut(F).class = if val % 2 == 0 {
                    LinkClass::Scalar
                } else {
                    LinkClass::Vector
                };
                assert_eq!(template.chan_pool_stats(), PoolStats::default());
            }
            kind if !live.is_empty() => {
                let k = who % live.len();
                let inst = &mut live[k];
                match kind {
                    // Push a few tokens onto an endpoint-less channel, or
                    // pop some off any the test feeds.
                    6 | 7 => {
                        let c = if kind == 6 {
                            [D, E, F][who % 3]
                        } else {
                            [A, B, D, E, F][who % 5]
                        };
                        let chan = inst.chan_mut(c);
                        for i in 0..1 + val % 7 {
                            if kind == 6 {
                                chan.push(token(chan.arity(), val.wrapping_add(i)));
                            } else {
                                chan.pop();
                            }
                        }
                    }
                    // The zip drains `A` and `B` pairwise: a clean run if
                    // they hold as many tokens, a deadlock otherwise.
                    8 | 9 => {
                        feed(inst, 1 + val % 9, kind == 8);
                        let len = |c: ChanId| inst.chans()[c.0 as usize].len();
                        let even = len(A) == len(B);
                        assert_eq!(inst.run(RunOptions::new(1_000)).is_ok(), even);
                    }
                    // The round cap, before anything moved.
                    10 => {
                        feed(inst, 1 + val % 9, true);
                        assert!(inst.run(RunOptions::new(0)).is_err());
                    }
                    // An unwind: a one-word tuple pushed onto `D`, whose
                    // arity is 3, panics in every build profile, and the
                    // instance is dropped on the way out, tokens queued.
                    _ => {
                        let mut inst = live.swap_remove(k);
                        let unwound = catch_unwind(AssertUnwindSafe(move || {
                            feed(&mut inst, 3, false);
                            for i in 0..4 {
                                inst.chan_mut(D).push(tdata([i, i, val]));
                            }
                            inst.chan_mut(D).push(tdata([val]));
                        }));
                        assert!(unwound.is_err());
                    }
                }
            }
            _ => {}
        }
    }
    live.clear();
    // Whatever the pool now holds, every table it hands out is pristine,
    // and it holds at most `POOL_IMAGES`.
    let before = template.chan_pool_stats();
    for _ in 0..POOL_IMAGES + 1 {
        checkout(&template, &mut live);
    }
    let after = template.chan_pool_stats();
    assert!(after.hits - before.hits <= POOL_IMAGES as u64, "{after:?}");
    assert_eq!(after.retained_bytes, 0, "every idle table is out");
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
fn a_recycled_table_keeps_its_rings_and_forgets_its_tokens() {
    let template = template();
    let mut inst = template.fresh_instance();
    feed(&mut inst, 100, false);
    inst.chan_mut(F).push(tdata([1, 2]));
    assert!(inst.run(RunOptions::new(1_000)).is_err(), "deadlock on A");
    drop(inst);
    let retained = template.chan_pool_stats().retained_bytes;
    assert!(retained > 0);
    let inst = template.fresh_instance();
    assert_pristine(&inst, &template);
    drop(inst);
    let stats = template.chan_pool_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    assert_eq!(
        stats.retained_bytes, retained,
        "the same rings, not regrown"
    );
}

#[test]
fn the_canonicalisation_flag_is_reset_with_the_tokens() {
    let mut template = template();
    template.chan_mut(F).push(tdata([1, 2]));
    template.chan_mut(F).push(tbar(1)); // data precedes the tail barrier
    let mut inst = template.fresh_instance();
    inst.chan_mut(F).drain_all(); // and no token precedes anything here
    drop(inst);
    assert_pristine(&template.fresh_instance(), &template);
}

#[test]
fn pool_retains_at_most_the_cap() {
    let template = template();
    let out: Vec<Graph> = (0..POOL_IMAGES + 3)
        .map(|_| template.fresh_instance())
        .collect();
    drop(out);
    let held: Vec<Graph> = (0..POOL_IMAGES + 1)
        .map(|_| template.fresh_instance())
        .collect();
    let stats = template.chan_pool_stats();
    assert_eq!(stats.hits, POOL_IMAGES as u64);
    assert_eq!(stats.misses, (POOL_IMAGES + 3 + 1) as u64);
    drop(held);
}

#[test]
fn template_mutation_retires_tables_that_are_out() {
    let mut template = template();
    let mut out = template.fresh_instance();
    out.chan_mut(D).push(tdata([7, 7, 7]));
    template.add_chan(Channel::new(1));
    assert_eq!(
        template.chan_pool_stats(),
        PoolStats::default(),
        "a mutated template starts a new pool"
    );
    drop(out);
    let fresh = template.fresh_instance();
    assert_pristine(&fresh, &template);
    let stats = template.chan_pool_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 1),
        "the stale table was not recycled"
    );
}

#[test]
fn instance_may_outlive_its_template() {
    let mut inst = {
        let template = template();
        drop(template.fresh_instance()); // one idle table dies with the pool
        template.fresh_instance()
    };
    feed(&mut inst, 3, true);
    inst.run(RunOptions::new(1_000)).unwrap();
    drop(inst); // home pool is gone: freed, not pushed anywhere
}

#[test]
fn concurrent_checkout_run_drop_stays_pristine_and_bounded() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 200;
    let mut template = template();
    template.chan_mut(F).push(tdata([5, 6]));
    let pristine = views(&template);
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (template, pristine, start) = (&template, &pristine, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let mut inst = template.fresh_instance();
                    assert!(views(&inst) == *pristine, "thread {t} round {round}");
                    let n = (t * 7 + round) as u32 % 23;
                    feed(&mut inst, n, round % 3 != 0);
                    inst.chan_mut(E).push(token(0, n));
                    let ran = inst.run(RunOptions::new(1_000));
                    assert_eq!(ran.is_ok(), round % 3 != 0 || n == 0);
                }
            });
        }
    });
    let stats = template.chan_pool_stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
    // Each thread holds one table at a time, so at most THREADS tables
    // ever exist and (THREADS ≤ POOL_IMAGES) none is ever freed: the miss
    // count stops at the warm-up.
    assert!(stats.misses <= THREADS as u64, "{stats:?}");
}
