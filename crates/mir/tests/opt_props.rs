//! Property test for the classical optimization pipeline: on randomly
//! generated straight-line MIR (constants, ALU ops, selects, casts, and
//! DRAM writes), the optimized module must be interpreter-equivalent to
//! the original — same final DRAM image — and must keep its `SpanTable`
//! free of dangling entries and the module structurally valid.

use revet_diag::Span;
use revet_mir::{
    add_classical, print_module, verify_module, AluOp, Cse, ForeachFlags, Module, OpKind,
    PassManager, Region, RegionBuilder, Ty, Value,
};
use revet_oracle::interp::run_main;

/// Deterministic xorshift64* — the workspace has no RNG dependency, and
/// the test must reproduce from its printed seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

const ALU_OPS: &[AluOp] = &[
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::DivS,
    AluOp::DivU,
    AluOp::RemS,
    AluOp::RemU,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::ShrU,
    AluOp::ShrS,
    AluOp::Eq,
    AluOp::Ne,
    AluOp::LtS,
    AluOp::LtU,
    AluOp::LeS,
    AluOp::LeU,
    AluOp::GtS,
    AluOp::GtU,
    AluOp::GeS,
    AluOp::GeU,
    AluOp::MinS,
    AluOp::MinU,
    AluOp::MaxS,
    AluOp::MaxU,
    AluOp::Rotl,
];

const DRAM_WORDS: u64 = 64;
const DRAM_BYTES: usize = 1 << 12;

/// Builds a random straight-line `main(i32, i32)` with `len` ops: pure
/// compute over a growing pool of i32 values, interleaved with DRAM
/// writes at bounded indices. Every op result gets a span so DCE/CSE
/// exercise the side-table maintenance.
fn random_module(rng: &mut Rng, len: usize) -> Module {
    let mut m = Module::default();
    let dram = m.add_dram("out", 4);
    let mut f = revet_mir::Func::new("main", &[Ty::I32, Ty::I32], vec![]);
    let mut pool: Vec<Value> = f.params.clone();
    let mut b = RegionBuilder::new();
    let mut span_at = 0u32;
    let mut emit = |b: &mut RegionBuilder, f: &mut revet_mir::Func, kind: OpKind, ty: Ty| {
        let v = b.emit(f, kind, ty);
        f.spans.set(v, Span::new(span_at, span_at + 1));
        span_at += 2;
        v
    };
    for _ in 0..len {
        match rng.below(10) {
            0 | 1 => {
                // Mix of small, boundary, and subword-hostile constants.
                let c = [0i64, 1, -1, 7, 200, 0x7fff_ffff, -40_000][rng.below(7) as usize];
                let v = emit(&mut b, &mut f, OpKind::ConstI(c, Ty::I32), Ty::I32);
                pool.push(v);
            }
            2 => {
                let (c, t, fv) = (*rng.pick(&pool), *rng.pick(&pool), *rng.pick(&pool));
                let v = emit(&mut b, &mut f, OpKind::Select(c, t, fv), Ty::I32);
                pool.push(v);
            }
            3 => {
                let to = *rng.pick(&[Ty::I8, Ty::I16, Ty::I32]);
                let signed = rng.below(2) == 0;
                let src = *rng.pick(&pool);
                // Cast back to i32 width so the result can rejoin the pool
                // without violating operand typing; the intermediate
                // subword semantics still run through `Cast`.
                let narrowed = emit(&mut b, &mut f, OpKind::Cast { v: src, to, signed }, to);
                let widened = emit(
                    &mut b,
                    &mut f,
                    OpKind::Cast {
                        v: narrowed,
                        to: Ty::I32,
                        signed,
                    },
                    Ty::I32,
                );
                pool.push(widened);
            }
            4 => {
                let idx = emit(
                    &mut b,
                    &mut f,
                    OpKind::ConstI(rng.below(DRAM_WORDS) as i64, Ty::I32),
                    Ty::I32,
                );
                let val = *rng.pick(&pool);
                b.push(OpKind::DramWrite { dram, idx, val }, vec![]);
            }
            _ => {
                let op = *rng.pick(ALU_OPS);
                let (a, c) = (*rng.pick(&pool), *rng.pick(&pool));
                let v = emit(&mut b, &mut f, OpKind::Bin(op, a, c), Ty::I32);
                pool.push(v);
            }
        }
    }
    b.emit0(OpKind::Return(vec![]));
    f.body = b.build();
    m.funcs.push(f);
    m
}

fn interp_dram(m: &Module, args: &[u32]) -> Vec<u8> {
    run_main(m, DRAM_BYTES, args, &[], 10_000_000)
        .expect("straight-line program cannot fail")
        .dram
        .to_vec()
}

/// The `-O2` classical group, exactly as the compiler's pipeline ends.
fn classical_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    add_classical(&mut pm, 2);
    pm
}

/// Runs the classical pipeline over `m` and holds every pass to the
/// changed-flag law: a pass that reports `Unchanged` left the printed
/// module byte-identical, and one that reports `Changed` did not.
fn run_classical(m: &mut Module, what: &str) -> revet_mir::PassReport {
    let mut texts = vec![print_module(m)];
    let report = classical_pipeline().run_observed(m, &mut |_, m| texts.push(print_module(m)));
    for (stat, pair) in report.passes.iter().zip(texts.windows(2)) {
        assert_eq!(
            stat.changed,
            pair[0] != pair[1],
            "{what}: `{}` reported changed={} but the printed module says otherwise",
            stat.name,
            stat.changed
        );
    }
    report
}

#[test]
fn random_straight_line_programs_are_opt_invariant() {
    let mut rng = Rng(0x0BAD_5EED_CAFE_F00D);
    for case in 0..120 {
        let seed = rng.next() | 1;
        let mut gen = Rng(seed);
        let len = 4 + gen.below(60) as usize;
        let mut m = random_module(&mut gen, len);
        verify_module(&m).unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): {e}"));

        let args = [gen.next() as u32, gen.next() as u32];
        let before = interp_dram(&m, &args);

        let report = run_classical(&mut m, &format!("case {case} (seed {seed:#x})"));
        assert!(
            report.ops_after() <= report.ops_before(),
            "case {case} (seed {seed:#x}): optimizer grew the module"
        );
        verify_module(&m)
            .unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): broken after opt: {e}"));
        for f in &m.funcs {
            let dangling = f.dangling_spans();
            assert!(
                dangling.is_empty(),
                "case {case} (seed {seed:#x}): dangling spans {dangling:?}"
            );
        }

        let after = interp_dram(&m, &args);
        assert_eq!(
            before, after,
            "case {case} (seed {seed:#x}, len {len}): optimized program diverged"
        );
    }
}

// ---------------- nested-region properties ----------------

/// Emits random pure compute + bounded DRAM writes into `b`, growing
/// `pool`. Every result gets a span.
struct NestedGen<'a> {
    rng: &'a mut Rng,
    span_at: u32,
}

impl NestedGen<'_> {
    fn emit(&mut self, b: &mut RegionBuilder, f: &mut revet_mir::Func, kind: OpKind) -> Value {
        let v = b.emit(f, kind, Ty::I32);
        f.spans.set(v, Span::new(self.span_at, self.span_at + 1));
        self.span_at += 2;
        v
    }

    fn payload(
        &mut self,
        b: &mut RegionBuilder,
        f: &mut revet_mir::Func,
        pool: &mut Vec<Value>,
        dram: revet_mir::DramRef,
        n: usize,
    ) {
        for _ in 0..n {
            match self.rng.below(6) {
                0 => {
                    let c = [0i64, 1, -1, 7, 200, 0x7fff_ffff][self.rng.below(6) as usize];
                    let v = self.emit(b, f, OpKind::ConstI(c, Ty::I32));
                    pool.push(v);
                }
                1 => {
                    let slot = self.rng.below(DRAM_WORDS) as i64;
                    let idx = self.emit(b, f, OpKind::ConstI(slot, Ty::I32));
                    let val = *self.rng.pick(pool);
                    b.push(OpKind::DramWrite { dram, idx, val }, vec![]);
                }
                _ => {
                    let op = *self.rng.pick(ALU_OPS);
                    let (a, c) = (*self.rng.pick(pool), *self.rng.pick(pool));
                    let v = self.emit(b, f, OpKind::Bin(op, a, c));
                    pool.push(v);
                }
            }
        }
    }

    /// One nested construct chosen at random; region-local values never
    /// leak back into `pool` except through op results.
    fn nested(
        &mut self,
        b: &mut RegionBuilder,
        f: &mut revet_mir::Func,
        pool: &mut Vec<Value>,
        dram: revet_mir::DramRef,
        depth: usize,
    ) {
        match self.rng.below(3) {
            // Counted while: carried counter runs 0..limit (limit ≤ 4).
            0 => {
                let bound = 1 + self.rng.below(4) as i64;
                let limit = self.emit(b, f, OpKind::ConstI(bound, Ty::I32));
                let zero = self.emit(b, f, OpKind::ConstI(0, Ty::I32));
                let one = self.emit(b, f, OpKind::ConstI(1, Ty::I32));
                let cv = f.new_value(Ty::I32);
                let mut before = RegionBuilder::with_args(vec![cv]);
                let cond = self.emit(&mut before, f, OpKind::Bin(AluOp::LtU, cv, limit));
                before.emit0(OpKind::Condition {
                    cond,
                    fwd: vec![cv],
                });
                let av = f.new_value(Ty::I32);
                let mut after = RegionBuilder::with_args(vec![av]);
                let mut inner = pool.clone();
                inner.push(av);
                self.payload(&mut after, f, &mut inner, dram, 3);
                if depth > 0 && self.rng.below(2) == 0 {
                    self.nested(&mut after, f, &mut inner, dram, depth - 1);
                }
                let next = self.emit(&mut after, f, OpKind::Bin(AluOp::Add, av, one));
                after.emit0(OpKind::Yield(vec![next]));
                let r = f.new_value(Ty::I32);
                b.push(
                    OpKind::While {
                        inits: vec![zero],
                        before: before.build(),
                        after: after.build(),
                    },
                    vec![r],
                );
                pool.push(r);
            }
            // Foreach, plain or add-reducing over the thread index.
            1 => {
                let lo = self.emit(b, f, OpKind::ConstI(0, Ty::I32));
                let trips = self.rng.below(5) as i64;
                let hi = self.emit(b, f, OpKind::ConstI(trips, Ty::I32));
                let step = self.emit(b, f, OpKind::ConstI(1, Ty::I32));
                let idx = f.new_value(Ty::I32);
                let mut body = RegionBuilder::with_args(vec![idx]);
                let mut inner = pool.clone();
                inner.push(idx);
                self.payload(&mut body, f, &mut inner, dram, 3);
                if depth > 0 && self.rng.below(2) == 0 {
                    self.nested(&mut body, f, &mut inner, dram, depth - 1);
                }
                if self.rng.below(2) == 0 {
                    let y = *self.rng.pick(&inner);
                    body.emit0(OpKind::Yield(vec![y]));
                    let r = f.new_value(Ty::I32);
                    b.push(
                        OpKind::Foreach {
                            lo,
                            hi,
                            step,
                            body: body.build(),
                            reduce: vec![AluOp::Add],
                            flags: ForeachFlags::default(),
                        },
                        vec![r],
                    );
                    pool.push(r);
                } else {
                    body.emit0(OpKind::Yield(vec![]));
                    b.push(
                        OpKind::Foreach {
                            lo,
                            hi,
                            step,
                            body: body.build(),
                            reduce: vec![],
                            flags: ForeachFlags::default(),
                        },
                        vec![],
                    );
                }
            }
            // If whose branches each yield one value.
            _ => {
                let cond = *self.rng.pick(pool);
                let mut then_b = RegionBuilder::new();
                let mut then_pool = pool.clone();
                self.payload(&mut then_b, f, &mut then_pool, dram, 2);
                let tv = *self.rng.pick(&then_pool);
                then_b.emit0(OpKind::Yield(vec![tv]));
                let mut else_b = RegionBuilder::new();
                let mut else_pool = pool.clone();
                self.payload(&mut else_b, f, &mut else_pool, dram, 2);
                let ev = *self.rng.pick(&else_pool);
                else_b.emit0(OpKind::Yield(vec![ev]));
                let r = f.new_value(Ty::I32);
                b.push(
                    OpKind::If {
                        cond,
                        then: then_b.build(),
                        else_: else_b.build(),
                    },
                    vec![r],
                );
                pool.push(r);
            }
        }
    }
}

/// A random `main` whose body mixes straight-line batches with nested
/// while/foreach/if regions (two levels deep).
fn random_nested_module(rng: &mut Rng) -> Module {
    let mut m = Module::default();
    let dram = m.add_dram("out", 4);
    let mut f = revet_mir::Func::new("main", &[Ty::I32, Ty::I32], vec![]);
    let mut pool: Vec<Value> = f.params.clone();
    let mut b = RegionBuilder::new();
    let mut g = NestedGen { rng, span_at: 0 };
    g.payload(&mut b, &mut f, &mut pool, dram, 4);
    for _ in 0..(1 + g.rng.below(3)) {
        g.nested(&mut b, &mut f, &mut pool, dram, 1);
        g.payload(&mut b, &mut f, &mut pool, dram, 3);
    }
    b.emit0(OpKind::Return(vec![]));
    f.body = b.build();
    m.funcs.push(f);
    m
}

#[test]
fn random_nested_region_programs_are_opt_invariant() {
    let mut rng = Rng(0x00DD_BA11_DEAD_BEEF);
    for case in 0..80 {
        let seed = rng.next() | 1;
        let mut gen = Rng(seed);
        let mut m = random_nested_module(&mut gen);
        verify_module(&m).unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): {e}"));

        let args = [gen.next() as u32, gen.next() as u32];
        let before = interp_dram(&m, &args);

        run_classical(&mut m, &format!("case {case} (seed {seed:#x})"));
        verify_module(&m)
            .unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): broken after opt: {e}"));
        for f in &m.funcs {
            let dangling = f.dangling_spans();
            assert!(
                dangling.is_empty(),
                "case {case} (seed {seed:#x}): dangling spans {dangling:?}"
            );
        }

        let after = interp_dram(&m, &args);
        assert_eq!(
            before, after,
            "case {case} (seed {seed:#x}): nested-region program diverged"
        );
    }
}

// ---------------- directed region-boundary tests ----------------

/// Counts ops matching `pred` in `region` and every nested region.
fn count_ops(region: &Region, pred: &mut dyn FnMut(&OpKind) -> bool) -> usize {
    let mut n = 0;
    for op in &region.ops {
        if pred(&op.kind) {
            n += 1;
        }
        for sub in op.kind.regions() {
            n += count_ops(sub, pred);
        }
    }
    n
}

/// Builds `main` computing `xor(p0, p1)` both before a counted loop and
/// inside its body (or inside an `if` branch when `use_if`). Both uses
/// feed DRAM writes so DCE can't interfere with the count.
fn boundary_module(use_if: bool) -> Module {
    let mut m = Module::default();
    let dram = m.add_dram("out", 4);
    let mut f = revet_mir::Func::new("main", &[Ty::I32, Ty::I32], vec![]);
    let (p0, p1) = (f.params[0], f.params[1]);
    let mut b = RegionBuilder::new();
    let x_outer = b.emit(&mut f, OpKind::Bin(AluOp::Xor, p0, p1), Ty::I32);
    let i0 = b.emit(&mut f, OpKind::ConstI(0, Ty::I32), Ty::I32);
    b.push(
        OpKind::DramWrite {
            dram,
            idx: i0,
            val: x_outer,
        },
        vec![],
    );
    if use_if {
        let mut then_b = RegionBuilder::new();
        let x_inner = then_b.emit(&mut f, OpKind::Bin(AluOp::Xor, p0, p1), Ty::I32);
        then_b.emit0(OpKind::Yield(vec![x_inner]));
        let mut else_b = RegionBuilder::new();
        else_b.emit0(OpKind::Yield(vec![p0]));
        let r = f.new_value(Ty::I32);
        b.push(
            OpKind::If {
                cond: p0,
                then: then_b.build(),
                else_: else_b.build(),
            },
            vec![r],
        );
        let i1 = b.emit(&mut f, OpKind::ConstI(1, Ty::I32), Ty::I32);
        b.push(
            OpKind::DramWrite {
                dram,
                idx: i1,
                val: r,
            },
            vec![],
        );
    } else {
        let zero = b.emit(&mut f, OpKind::ConstI(0, Ty::I32), Ty::I32);
        let two = b.emit(&mut f, OpKind::ConstI(2, Ty::I32), Ty::I32);
        let one = b.emit(&mut f, OpKind::ConstI(1, Ty::I32), Ty::I32);
        let cv = f.new_value(Ty::I32);
        let mut before = RegionBuilder::with_args(vec![cv]);
        let cond = before.emit(&mut f, OpKind::Bin(AluOp::LtU, cv, two), Ty::I32);
        before.emit0(OpKind::Condition {
            cond,
            fwd: vec![cv],
        });
        let av = f.new_value(Ty::I32);
        let mut after = RegionBuilder::with_args(vec![av]);
        let x_inner = after.emit(&mut f, OpKind::Bin(AluOp::Xor, p0, p1), Ty::I32);
        let i1 = after.emit(&mut f, OpKind::ConstI(1, Ty::I32), Ty::I32);
        after.push(
            OpKind::DramWrite {
                dram,
                idx: i1,
                val: x_inner,
            },
            vec![],
        );
        let next = after.emit(&mut f, OpKind::Bin(AluOp::Add, av, one), Ty::I32);
        after.emit0(OpKind::Yield(vec![next]));
        let r = f.new_value(Ty::I32);
        b.push(
            OpKind::While {
                inits: vec![zero],
                before: before.build(),
                after: after.build(),
            },
            vec![r],
        );
    }
    b.emit0(OpKind::Return(vec![]));
    f.body = b.build();
    m.funcs.push(f);
    m
}

/// `while` bodies recirculate their free uses as loop-carried state, so
/// CSE must NOT treat expressions from the enclosing region as available
/// inside — the redundant `xor` stays.
#[test]
fn cse_keeps_redundant_exprs_across_while_boundaries() {
    let mut m = boundary_module(false);
    verify_module(&m).expect("fixture is valid");
    let mut pm = PassManager::new();
    pm.add(Cse);
    pm.run(&mut m);
    verify_module(&m).expect("valid after cse");
    let xors = count_ops(&m.funcs[0].body, &mut |k| {
        matches!(k, OpKind::Bin(AluOp::Xor, _, _))
    });
    assert_eq!(
        xors, 2,
        "cse must not merge a while-body expr with the enclosing region"
    );
}

/// The same redundancy across an `if` boundary IS merged — `if` lowers to
/// filter/merge pipelines, not a recirculating tuple, so availability
/// flows in.
#[test]
fn cse_merges_redundant_exprs_into_if_branches() {
    let mut m = boundary_module(true);
    verify_module(&m).expect("fixture is valid");
    let mut pm = PassManager::new();
    pm.add(Cse);
    pm.run(&mut m);
    verify_module(&m).expect("valid after cse");
    let xors = count_ops(&m.funcs[0].body, &mut |k| {
        matches!(k, OpKind::Bin(AluOp::Xor, _, _))
    });
    assert_eq!(xors, 1, "cse should merge across an if boundary");
}
