//! Seeded generation of well-typed, terminating Revet source programs.
//!
//! Every program the generator emits is correct by construction along
//! four axes, so any downstream disagreement is a compiler/executor bug
//! rather than a generator artifact:
//!
//! - **Well-typed**: expressions are built against a declared target
//!   type; cross-type variable reads go through explicit casts; scope
//!   tracking honors the front end's rule that a `foreach` body may read
//!   but never assign variables declared outside it.
//! - **Terminating**: `foreach` trip counts are masked to `< 8`, `while`
//!   loops use a dedicated counter variable that is frozen inside the
//!   body and unconditionally incremented as its last statement, and
//!   loop constructs nest at most [`GenConfig::max_loop_nest`] deep.
//! - **Memory-safe**: every DRAM/view index is masked into bounds, and
//!   view declarations keep `base + size` inside the backing symbol, so
//!   no evaluator can fault or read past an image edge.
//! - **Deterministic under parallelism**: stores inside `foreach` bodies
//!   index by an injective linear thread id (`(..(i0*8 + i1)*8..)`), so
//!   no two threads of one construct ever race on an address; the input
//!   symbol `d0` is never written, so view staging can't go stale.
//!
//! The grammar subset covers scalars of all six integer types, DRAM
//! declarations with seeded init data, bounded `readview` tiles (ragged
//! when the base depends on a loop index), `foreach` (statement and
//! `reduce` expression forms, with optional `by` steps), `while`, and
//! `if`/`else`. Iterators, `fork`/`replicate`, and raw SRAM bulk
//! transfers are deliberately out of scope for generation; the grammar
//! has no function-call expression, so `main` is the whole program.
//!
//! The generator builds [`revet_lang::ast`] values and is the only part
//! of this crate that names constructs: the source text is
//! [`revet_lang::print_program`]'s, and the reducer walks programs
//! through the AST's accessors — so teaching the generator a construct is
//! a change to this file alone.

use crate::rng::Rng;
use revet_diag::Span;
use revet_lang::ast::{
    BinOp, DramDeclAst, Expr, Foreach, FuncAst, Init, MemDecl, Program, ReduceOp, Stmt, StmtKind,
    TileKind, TyName, UnOp, ViewKindName,
};
use revet_lang::print_program;

/// Words in the read-only input symbol `d0`.
pub const IN_WORDS: u64 = 64;
/// Elements in each output symbol (`d1` is u32, `d2` is u8). Thread-id
/// store addresses use a base-9 positional code padded with a sentinel
/// digit (see `Gen::tid_expr`), so with `max_loop_nest` ≤ 2 levels of
/// ≤ 8 threads every address stays below 9² = 81.
pub const OUT_ELEMS: u64 = 81;

/// Size/depth budgets and feature weights for one generated program.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Most statements generated into one region.
    pub max_region_stmts: u64,
    /// Most nested statement regions (if/while/foreach bodies).
    pub max_region_depth: usize,
    /// Most nested `foreach` constructs (bounds the thread-id product).
    pub max_loop_nest: usize,
    /// Most nested expression operators.
    pub max_expr_depth: usize,
    /// Total statement budget for the whole program.
    pub max_total_stmts: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_region_stmts: 6,
            max_region_depth: 3,
            max_loop_nest: 2,
            max_expr_depth: 3,
            max_total_stmts: 28,
        }
    }
}

/// One self-contained fuzz case: the program (AST + printed source) and
/// the run inputs every evaluator receives.
#[derive(Clone, Debug)]
pub struct Case {
    /// The case seed (prints in every failure report).
    pub seed: u64,
    /// The generated program.
    pub ast: Program,
    /// `print_program(ast)` — what actually gets compiled.
    pub source: String,
    /// Arguments for `main(u32 p0, u32 p1)`.
    pub args: Vec<u32>,
    /// Initial bytes per DRAM symbol, written at each symbol's slice
    /// base (empty = left zeroed).
    pub dram_inits: Vec<Vec<u8>>,
}

/// The fixed DRAM universe every generated program declares:
/// `d0` (u32, seeded input, never stored to), `d1` (u32 output),
/// `d2` (u8 output).
fn drams() -> Vec<DramDeclAst> {
    let mk = |name: &str, ty| DramDeclAst {
        name: name.to_string(),
        ty,
        span: Span::new(0, 0),
    };
    vec![
        mk("d0", TyName::U32),
        mk("d1", TyName::U32),
        mk("d2", TyName::U8),
    ]
}

/// Seeded init image for `d0` (the only pre-loaded symbol).
pub fn input_image(seed: u64) -> Vec<u8> {
    let mut r = Rng(seed ^ 0xD0D0_D0D0_D0D0_D0D0);
    (0..IN_WORDS * 4).map(|_| r.next() as u8).collect()
}

/// Generates the complete case for `seed`.
pub fn generate_case(seed: u64, cfg: &GenConfig) -> Case {
    let mut rng = Rng(seed);
    let mut g = Gen {
        rng: &mut rng,
        cfg,
        frames: vec![Frame::root()],
        next_name: 0,
        budget: cfg.max_total_stmts,
        tid: Vec::new(),
    };
    g.frames[0].vars.push(("p0".into(), TyName::U32));
    g.frames[0].vars.push(("p1".into(), TyName::U32));
    let body = g.gen_region(cfg.max_region_depth, cfg.max_region_stmts);
    let ast = Program {
        drams: drams(),
        funcs: vec![FuncAst {
            name: "main".into(),
            ret: TyName::Void,
            params: vec![(TyName::U32, "p0".into()), (TyName::U32, "p1".into())],
            body,
            span: Span::new(0, 0),
        }],
    };
    let source = print_program(&ast);
    let mut arg_rng = Rng(seed ^ 0xA46A_A46A_A46A_A46A);
    let args = vec![arg_rng.next() as u32, arg_rng.next() as u32];
    Case {
        seed,
        ast,
        source,
        args,
        dram_inits: vec![input_image(seed), Vec::new(), Vec::new()],
    }
}

const SCALAR_TYS: &[TyName] = &[
    TyName::U32,
    TyName::U32,
    TyName::U32,
    TyName::I32,
    TyName::I32,
    TyName::U16,
    TyName::U8,
    TyName::I16,
    TyName::I8,
];

/// Wide types comparisons and logical ops are generated at.
const WIDE_TYS: &[TyName] = &[TyName::U32, TyName::I32];

struct Frame {
    /// True for `foreach`/reduce bodies: everything declared in frames
    /// below is read-only here.
    foreach_boundary: bool,
    vars: Vec<(String, TyName)>,
    /// In-scope readviews over `d0`: (name, tile size).
    views: Vec<(String, u64)>,
    /// Vars declared here that must not be reassigned (loop counters).
    frozen: Vec<String>,
}

impl Frame {
    fn root() -> Frame {
        Frame {
            foreach_boundary: false,
            vars: Vec::new(),
            views: Vec::new(),
            frozen: Vec::new(),
        }
    }
    fn new(foreach_boundary: bool) -> Frame {
        Frame {
            foreach_boundary,
            ..Frame::root()
        }
    }
}

struct Gen<'a> {
    rng: &'a mut Rng,
    cfg: &'a GenConfig,
    frames: Vec<Frame>,
    next_name: u32,
    budget: u64,
    /// Loop-index variables of enclosing `foreach` constructs, innermost
    /// last; each contributes a `< 8` digit to the injective thread id.
    tid: Vec<(String, TyName)>,
}

fn stmt(kind: StmtKind) -> Stmt {
    Stmt::new(kind, Span::new(0, 0))
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_name;
        self.next_name += 1;
        format!("{prefix}{n}")
    }

    /// All readable scalar variables.
    fn readable(&self) -> Vec<(String, TyName)> {
        self.frames
            .iter()
            .flat_map(|f| f.vars.iter().cloned())
            .collect()
    }

    /// Variables the front end lets this scope assign: declared at or
    /// inside the innermost enclosing `foreach` body, and not frozen.
    fn assignable(&self) -> Vec<(String, TyName)> {
        let start = self
            .frames
            .iter()
            .rposition(|f| f.foreach_boundary)
            .unwrap_or(0);
        self.frames[start..]
            .iter()
            .flat_map(|f| {
                f.vars
                    .iter()
                    .filter(|(n, _)| !f.frozen.iter().any(|z| z == n))
                    .cloned()
            })
            .collect()
    }

    fn views(&self) -> Vec<(String, u64)> {
        self.frames
            .iter()
            .flat_map(|f| f.views.iter().cloned())
            .collect()
    }

    /// The injective linear thread id of the current `foreach` nest as a
    /// u32 expression, if inside one. Each index is `< 8` by
    /// construction, so the id stays below `8^nest ≤ 64`.
    fn tid_expr(&self) -> Option<Expr> {
        let mut it = self.tid.iter();
        let (first, fty) = it.next()?;
        let as_u32 = |name: &str, t: TyName| {
            let v = Expr::Var(name.to_string());
            if t == TyName::U32 {
                v
            } else {
                Expr::Cast(TyName::U32, Box::new(v))
            }
        };
        // Base-9 positional code over the live foreach indices (each < 8),
        // padded with the sentinel digit 8 for every unused nesting level.
        // Two stores race only if they run in distinct threads of the same
        // foreach; distinct (index-prefix, depth) pairs always produce
        // distinct padded digit strings — real digits are < 8, the pad is
        // exactly 8 — so concurrent stores never alias, at any mix of
        // nesting depths. Max address: 8*9 + 8 = 80 < OUT_ELEMS.
        let mut acc = as_u32(first, *fty);
        for (name, t) in it {
            acc = Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Bin(BinOp::Mul, Box::new(acc), Box::new(Expr::Int(9)))),
                Box::new(as_u32(name, *t)),
            );
        }
        for _ in self.tid.len()..self.cfg.max_loop_nest {
            acc = Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Bin(BinOp::Mul, Box::new(acc), Box::new(Expr::Int(9)))),
                Box::new(Expr::Int(8)),
            );
        }
        Some(acc)
    }

    /// `((u32)(e)) % k` — a non-negative index strictly below `k`.
    fn masked(&mut self, e: Expr, k: u64) -> Expr {
        Expr::Bin(
            BinOp::Rem,
            Box::new(Expr::Cast(TyName::U32, Box::new(e))),
            Box::new(Expr::Int(k as i64)),
        )
    }

    // ---- expressions ----

    /// An expression of type `want`, at most `depth` operators deep.
    fn gen_expr(&mut self, want: TyName, depth: usize) -> Expr {
        if depth == 0 || self.rng.chance(25) {
            return self.gen_leaf(want);
        }
        match self.rng.below(10) {
            0..=3 => {
                let op = *self.rng.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                    BinOp::Shl,
                    BinOp::Shr,
                ]);
                let a = self.gen_expr(want, depth - 1);
                let b = self.gen_expr(want, depth - 1);
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            4 if WIDE_TYS.contains(&want) => {
                let op = *self.rng.pick(&[
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::LAnd,
                    BinOp::LOr,
                ]);
                let a = self.gen_expr(want, depth - 1);
                let b = self.gen_expr(want, depth - 1);
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            5 => {
                let op = *self.rng.pick(&[UnOp::Neg, UnOp::Not, UnOp::BitNot]);
                Expr::Un(op, Box::new(self.gen_expr(want, depth - 1)))
            }
            6 => {
                let mid = *self.rng.pick(SCALAR_TYS);
                Expr::Cast(want, Box::new(self.gen_expr(mid, depth - 1)))
            }
            7 => {
                // d0[masked] — a bounded random input-tensor read.
                let idx = self.gen_expr(TyName::U32, depth - 1);
                let idx = self.masked(idx, IN_WORDS);
                self.cast_to(want, Expr::Index("d0".into(), Box::new(idx)), TyName::U32)
            }
            8 => {
                let views = self.views();
                if views.is_empty() {
                    self.gen_leaf(want)
                } else {
                    let (name, size) = self.rng.pick(&views).clone();
                    let idx = if self.rng.chance(50) {
                        Expr::Int(self.rng.below(size) as i64)
                    } else {
                        let e = self.gen_expr(TyName::U32, depth - 1);
                        self.masked(e, size)
                    };
                    self.cast_to(want, Expr::Index(name, Box::new(idx)), TyName::U32)
                }
            }
            _ => self.gen_leaf(want),
        }
    }

    fn cast_to(&self, want: TyName, e: Expr, have: TyName) -> Expr {
        if want == have {
            e
        } else {
            Expr::Cast(want, Box::new(e))
        }
    }

    fn gen_leaf(&mut self, want: TyName) -> Expr {
        let vars = self.readable();
        if !vars.is_empty() && self.rng.chance(55) {
            // Prefer a same-typed variable; fall back to a cast read.
            let same: Vec<_> = vars.iter().filter(|(_, t)| *t == want).cloned().collect();
            let (name, t) = if !same.is_empty() {
                self.rng.pick(&same).clone()
            } else {
                self.rng.pick(&vars).clone()
            };
            return self.cast_to(want, Expr::Var(name), t);
        }
        let c = *self.rng.pick(&[0i64, 1, 2, 3, 5, 7, 8, 15, 63, 100, 255]);
        let c = match want {
            TyName::U8 | TyName::I8 => c.min(100),
            _ => c,
        };
        if want.signed() && self.rng.chance(25) && c != 0 {
            Expr::Un(UnOp::Neg, Box::new(Expr::Int(c)))
        } else {
            Expr::Int(c)
        }
    }

    // ---- statements ----

    fn gen_region(&mut self, depth: usize, max_stmts: u64) -> Vec<Stmt> {
        let n = self.rng.range(1, max_stmts.max(1));
        let mut out = Vec::new();
        for _ in 0..n {
            if self.budget == 0 {
                break;
            }
            self.budget = self.budget.saturating_sub(1);
            self.gen_stmt(depth, &mut out);
        }
        out
    }

    fn gen_stmt(&mut self, depth: usize, out: &mut Vec<Stmt>) {
        let in_loop = self.tid.len() >= self.cfg.max_loop_nest;
        let roll = self.rng.below(14);
        match roll {
            0..=3 => self.gen_decl(out),
            4 => self.gen_assign(out),
            5 | 6 => self.gen_store(out),
            7 => {
                if depth > 0 {
                    self.gen_if(depth, out)
                } else {
                    self.gen_store(out)
                }
            }
            8 | 9 => {
                if depth > 0 {
                    self.gen_while(depth, out)
                } else {
                    self.gen_decl(out)
                }
            }
            10 | 11 => {
                if depth > 0 && !in_loop {
                    self.gen_foreach(depth, out)
                } else {
                    self.gen_store(out)
                }
            }
            12 => {
                if depth > 0 && !in_loop {
                    self.gen_reduce_decl(out)
                } else {
                    self.gen_decl(out)
                }
            }
            _ => self.gen_view_decl(out),
        }
    }

    fn gen_decl(&mut self, out: &mut Vec<Stmt>) {
        let ty = *self.rng.pick(SCALAR_TYS);
        let name = self.fresh("v");
        let init = if self.rng.chance(85) {
            Some(Init::Expr(self.gen_expr(ty, self.cfg.max_expr_depth)))
        } else {
            None
        };
        out.push(stmt(StmtKind::Decl {
            ty,
            name: name.clone(),
            init,
        }));
        self.frames.last_mut().expect("scope").vars.push((name, ty));
    }

    fn gen_assign(&mut self, out: &mut Vec<Stmt>) {
        let targets = self.assignable();
        if targets.is_empty() {
            return self.gen_decl(out);
        }
        let (name, ty) = self.rng.pick(&targets).clone();
        let value = self.gen_expr(ty, self.cfg.max_expr_depth);
        out.push(stmt(StmtKind::Assign { name, value }));
    }

    fn gen_store(&mut self, out: &mut Vec<Stmt>) {
        let (base, ty) = if self.rng.chance(70) {
            ("d1", TyName::U32)
        } else {
            ("d2", TyName::U8)
        };
        let idx = match self.tid_expr() {
            // Inside a foreach nest: the injective thread id, so sibling
            // threads never race on an address.
            Some(tid) => tid,
            None => {
                let e = self.gen_expr(TyName::U32, self.cfg.max_expr_depth);
                self.masked(e, OUT_ELEMS)
            }
        };
        let value = self.gen_expr(ty, self.cfg.max_expr_depth);
        out.push(stmt(StmtKind::Store {
            base: base.into(),
            idx,
            value,
        }));
    }

    fn gen_if(&mut self, depth: usize, out: &mut Vec<Stmt>) {
        let cty = *self.rng.pick(WIDE_TYS);
        let cond = self.gen_expr(cty, self.cfg.max_expr_depth);
        self.frames.push(Frame::new(false));
        let then = self.gen_region(depth - 1, self.cfg.max_region_stmts / 2);
        self.frames.pop();
        let els = if self.rng.chance(45) {
            self.frames.push(Frame::new(false));
            let e = self.gen_region(depth - 1, self.cfg.max_region_stmts / 2);
            self.frames.pop();
            e
        } else {
            Vec::new()
        };
        out.push(stmt(StmtKind::If { cond, then, els }));
    }

    /// `u32 c = init; while (c < limit) { …; c = c + 1; };` — the counter
    /// is frozen inside the body, so the final increment is the only
    /// assignment to it and the loop provably terminates. `init ≥ limit`
    /// (possible by construction) gives zero-iteration loops.
    fn gen_while(&mut self, depth: usize, out: &mut Vec<Stmt>) {
        let counter = self.fresh("c");
        let init = self.rng.below(7) as i64;
        let limit = self.rng.range(1, 5) as i64;
        out.push(stmt(StmtKind::Decl {
            ty: TyName::U32,
            name: counter.clone(),
            init: Some(Init::Expr(Expr::Int(init))),
        }));
        let top = self.frames.last_mut().expect("scope");
        top.vars.push((counter.clone(), TyName::U32));
        top.frozen.push(counter.clone());

        let cond = Expr::Bin(
            BinOp::Lt,
            Box::new(Expr::Var(counter.clone())),
            Box::new(Expr::Int(limit)),
        );
        self.frames.push(Frame::new(false));
        let mut body = self.gen_region(depth - 1, self.cfg.max_region_stmts / 2);
        self.frames.pop();
        body.push(stmt(StmtKind::Assign {
            name: counter.clone(),
            value: Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var(counter.clone())),
                Box::new(Expr::Int(1)),
            ),
        }));
        out.push(stmt(StmtKind::While { cond, body }));

        // The loop is over; let later statements reuse the counter.
        let top = self.frames.last_mut().expect("scope");
        top.frozen.retain(|z| z != &counter);
    }

    fn gen_trip_count(&mut self) -> Expr {
        if self.rng.chance(50) {
            Expr::Int(self.rng.below(9) as i64)
        } else {
            let e = self.gen_expr(TyName::U32, 1);
            self.masked(e, 8)
        }
    }

    fn gen_foreach(&mut self, depth: usize, out: &mut Vec<Stmt>) {
        let count = self.gen_trip_count();
        let step = if self.rng.chance(25) {
            Some(Expr::Int(self.rng.range(1, 3) as i64))
        } else {
            None
        };
        let ity = if self.rng.chance(85) {
            TyName::U32
        } else {
            TyName::I32
        };
        let ivar = self.fresh("k");
        self.frames.push(Frame::new(true));
        {
            // The index is readable but must never be reassigned: thread-id
            // store indexing assumes `ivar < count` throughout the body.
            let top = self.frames.last_mut().expect("scope");
            top.vars.push((ivar.clone(), ity));
            top.frozen.push(ivar.clone());
        }
        self.tid.push((ivar.clone(), ity));
        let body = self.gen_region(depth - 1, self.cfg.max_region_stmts / 2);
        self.tid.pop();
        self.frames.pop();
        out.push(stmt(StmtKind::Foreach(Foreach {
            count,
            step,
            ity,
            ivar,
            body,
        })));
    }

    /// `ty x = foreach (n) reduce(op) { u32 i => … yield e; };` — the body
    /// is kept pure (decls + yield), parallel threads reduce associatively.
    fn gen_reduce_decl(&mut self, out: &mut Vec<Stmt>) {
        let ty = *self.rng.pick(WIDE_TYS);
        let op = *self.rng.pick(&[
            ReduceOp::Add,
            ReduceOp::Mul,
            ReduceOp::And,
            ReduceOp::Or,
            ReduceOp::Xor,
            ReduceOp::Min,
            ReduceOp::Max,
        ]);
        let count = self.gen_trip_count();
        let step = if self.rng.chance(20) {
            Some(Expr::Int(self.rng.range(1, 3) as i64))
        } else {
            None
        };
        let ivar = self.fresh("k");
        self.frames.push(Frame::new(true));
        {
            let top = self.frames.last_mut().expect("scope");
            top.vars.push((ivar.clone(), TyName::U32));
            top.frozen.push(ivar.clone());
        }
        let mut body = Vec::new();
        for _ in 0..self.rng.below(3) {
            self.gen_decl(&mut body);
        }
        let y = self.gen_expr(ty, self.cfg.max_expr_depth);
        body.push(stmt(StmtKind::Yield(y)));
        self.frames.pop();

        let name = self.fresh("v");
        out.push(stmt(StmtKind::Decl {
            ty,
            name: name.clone(),
            init: Some(Init::Reduce(
                op,
                Foreach {
                    count,
                    step,
                    ity: TyName::U32,
                    ivar,
                    body,
                },
            )),
        }));
        self.frames.last_mut().expect("scope").vars.push((name, ty));
    }

    /// `readview<sz> w(d0, base);` with `base + sz ≤ IN_WORDS`; inside a
    /// foreach the base may depend on the loop index (ragged tiles).
    fn gen_view_decl(&mut self, out: &mut Vec<Stmt>) {
        let size = *self.rng.pick(&[4u64, 8, 16]);
        let base_bound = IN_WORDS - size + 1;
        let base = if self.rng.chance(50) {
            Expr::Int(self.rng.below(base_bound) as i64)
        } else {
            let e = self.gen_expr(TyName::U32, 2);
            self.masked(e, base_bound)
        };
        let name = self.fresh("w");
        out.push(stmt(StmtKind::Mem {
            name: name.clone(),
            decl: MemDecl::Tile {
                kind: TileKind::View(ViewKindName::Read),
                size: size as i64,
                dram: "d0".into(),
                at: base,
            },
        }));
        self.frames
            .last_mut()
            .expect("scope")
            .views
            .push((name, size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate_case(0xFEED, &cfg);
        let b = generate_case(0xFEED, &cfg);
        assert_eq!(a.source, b.source);
        assert_eq!(a.args, b.args);
        assert_eq!(a.dram_inits, b.dram_inits);
    }

    #[test]
    fn every_generated_program_parses() {
        let cfg = GenConfig::default();
        for i in 0..50u64 {
            let case = generate_case(crate::rng::case_seed(1, i), &cfg);
            revet_lang::parse_program(&case.source)
                .unwrap_or_else(|d| panic!("seed {:#x}: {d}\n{}", case.seed, case.source));
        }
    }
}
