//! Automatic reproducer minimization.
//!
//! Given a failing [`Case`], the reducer repeatedly applies structural
//! mutations — statement deletion, `if`/`while` body hoisting, and
//! integer-constant shrinking — and keeps a mutation only when the
//! re-run oracle still fails *the same way*: same [`crate::FailureKind`], same
//! opt level, and the same failure detail up to embedded numbers (so a
//! moving byte offset still matches, but e.g. a deletion that turns a
//! lowering bug into an unknown-variable error is rejected). Candidate
//! programs that stop compiling simply report a non-matching
//! `CompileError`, so the mutations don't need to preserve scoping by
//! construction. Constants inside store *index* expressions are never
//! shrunk — those encode the generator's race-freedom invariant, and
//! rewriting them can manufacture a divergence the original program
//! never had. The loop runs to fixpoint (or an oracle-run budget),
//! which in practice shrinks a ~30-statement divergence to a handful
//! of lines.
//!
//! Every walk here goes through the AST's own accessors
//! (`Program::walk_stmts`, `Stmt::blocks_mut`, `Stmt::exprs_mut`), so a
//! construct the generator learns to emit is counted, deleted from and
//! constant-shrunk without an edit to this file; only the two hoists name
//! the statements they rewrite.

use crate::gen::Case;
use crate::oracle::{run_case, Failure, Lanes};
use revet_lang::ast::{Expr, Program, Stmt, StmtKind};
use revet_lang::print_program;

/// Reducer limits.
#[derive(Clone, Debug)]
pub struct ReduceConfig {
    /// Most oracle re-runs to spend.
    pub max_oracle_runs: usize,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig {
            max_oracle_runs: 600,
        }
    }
}

/// What happened during a reduction.
#[derive(Clone, Debug)]
pub struct ReduceReport {
    /// Oracle runs spent.
    pub oracle_runs: usize,
    /// Statements before → after.
    pub stmts_before: usize,
    /// Statements after the final fixpoint.
    pub stmts_after: usize,
}

/// A structural mutation addressed by pre-order statement index.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    Delete(usize),
    HoistThen(usize),
    HoistElse(usize),
    HoistWhileBody(usize),
    ShrinkConst { index: usize, to: i64 },
}

/// Two failures count as "the same" for reduction purposes when their
/// kind, opt level, and number-stripped detail all agree. Numbers (and
/// hex digits) are blanked because byte offsets and mismatched values
/// legitimately move as the program shrinks, while the surrounding text
/// — which evaluator pair diverged, which error was reported — must not.
fn same_failure(a: &Failure, b: &Failure) -> bool {
    fn skeleton(s: &str) -> String {
        s.chars()
            .filter(|c| !c.is_ascii_hexdigit() && *c != 'x')
            .collect()
    }
    a.kind == b.kind && a.level == b.level && skeleton(&a.detail) == skeleton(&b.detail)
}

/// Minimizes `case` while the oracle keeps failing like `failure`.
/// Returns the reduced case and a report. The input case's
/// `args`/`dram_inits` are preserved verbatim — only the program shrinks.
pub fn reduce_case(
    case: &Case,
    failure: &Failure,
    lanes: &Lanes,
    cfg: &ReduceConfig,
) -> (Case, ReduceReport) {
    let mut best = case.clone();
    let mut runs = 0usize;
    let stmts_before = count_stmts(&best.ast);

    loop {
        let mut improved = false;
        for m in candidate_mutations(&best.ast) {
            if runs >= cfg.max_oracle_runs {
                break;
            }
            let Some(ast) = apply_mutation(&best.ast, m) else {
                continue;
            };
            let candidate = Case {
                source: print_program(&ast),
                ast,
                ..best.clone()
            };
            runs += 1;
            if matches!(run_case(&candidate, lanes), Err(f) if same_failure(&f, failure)) {
                best = candidate;
                improved = true;
            }
        }
        if !improved || runs >= cfg.max_oracle_runs {
            break;
        }
    }

    let stmts_after = count_stmts(&best.ast);
    (
        best,
        ReduceReport {
            oracle_runs: runs,
            stmts_before,
            stmts_after,
        },
    )
}

/// All mutations worth trying against the current program, deletions
/// last-statement-first so whole trailing regions vanish early.
fn candidate_mutations(p: &Program) -> Vec<Mutation> {
    let n = count_stmts(p);
    let mut out = Vec::new();
    for k in (0..n).rev() {
        out.push(Mutation::Delete(k));
    }
    for k in 0..n {
        out.push(Mutation::HoistThen(k));
        out.push(Mutation::HoistElse(k));
        out.push(Mutation::HoistWhileBody(k));
    }
    for (index, v) in collect_consts(p).into_iter().enumerate() {
        for to in [0i64, 1, v / 2] {
            if to != v {
                out.push(Mutation::ShrinkConst { index, to });
            }
        }
    }
    out
}

fn apply_mutation(p: &Program, m: Mutation) -> Option<Program> {
    let mut p = p.clone();
    let changed = match m {
        Mutation::Delete(k) => edit_stmt(&mut p, k, |s| {
            let _ = s;
            EditAction::Remove
        }),
        Mutation::HoistThen(k) => edit_stmt(&mut p, k, |s| match &s.kind {
            StmtKind::If { then, .. } => EditAction::Splice(then.clone()),
            _ => EditAction::Keep,
        }),
        Mutation::HoistElse(k) => edit_stmt(&mut p, k, |s| match &s.kind {
            StmtKind::If { els, .. } if !els.is_empty() => EditAction::Splice(els.clone()),
            _ => EditAction::Keep,
        }),
        Mutation::HoistWhileBody(k) => edit_stmt(&mut p, k, |s| match &s.kind {
            StmtKind::While { body, .. } => EditAction::Splice(body.clone()),
            _ => EditAction::Keep,
        }),
        Mutation::ShrinkConst { index, to } => set_const(&mut p, index, to),
    };
    changed.then_some(p)
}

enum EditAction {
    Keep,
    Remove,
    Splice(Vec<Stmt>),
}

/// Counts statements in pre-order (regions included, reduce bodies too).
fn count_stmts(p: &Program) -> usize {
    let mut n = 0;
    p.walk_stmts(&mut |_| n += 1);
    n
}

/// Applies `action` to the `k`-th statement in pre-order; true if the
/// program changed.
fn edit_stmt(p: &mut Program, k: usize, action: impl Fn(&Stmt) -> EditAction) -> bool {
    fn walk(
        body: &mut Vec<Stmt>,
        next: &mut usize,
        k: usize,
        action: &dyn Fn(&Stmt) -> EditAction,
    ) -> bool {
        for i in 0..body.len() {
            let at = *next;
            *next += 1;
            if at == k {
                return match action(&body[i]) {
                    EditAction::Keep => false,
                    EditAction::Remove => {
                        body.remove(i);
                        true
                    }
                    EditAction::Splice(repl) => {
                        body.splice(i..=i, repl);
                        true
                    }
                };
            }
            if body[i].blocks_mut().any(|b| walk(b, next, k, action)) {
                return true;
            }
        }
        false
    }
    let mut next = 0;
    p.funcs
        .iter_mut()
        .any(|f| walk(&mut f.body, &mut next, k, &action))
}

/// All integer literals in the program, pre-order. (Traverses a clone
/// through the mutable walker — the AST is tiny and this avoids a
/// duplicate immutable traversal.)
fn collect_consts(p: &Program) -> Vec<i64> {
    let mut out = Vec::new();
    let mut q = p.clone();
    for_each_const_mut(&mut q, &mut |v| out.push(*v));
    out
}

/// Sets the `index`-th literal to `to`; true if it changed.
fn set_const(p: &mut Program, index: usize, to: i64) -> bool {
    let mut at = 0usize;
    let mut changed = false;
    for_each_const_mut(p, &mut |v: &mut i64| {
        if at == index && *v != to {
            *v = to;
            changed = true;
        }
        at += 1;
    });
    changed
}

fn for_each_const_mut(p: &mut Program, f: &mut dyn FnMut(&mut i64)) {
    fn expr(e: &mut Expr, f: &mut dyn FnMut(&mut i64)) {
        match e {
            Expr::Int(v) => f(v),
            Expr::Var(_) | Expr::Deref(_) => {}
            Expr::Bin(_, a, b) => {
                expr(a, f);
                expr(b, f);
            }
            Expr::Un(_, a) | Expr::Cast(_, a) | Expr::Index(_, a) | Expr::Peek(_, a) => expr(a, f),
        }
    }
    fn stmts(body: &mut [Stmt], f: &mut dyn FnMut(&mut i64)) {
        for s in body {
            // A store's index (its first expression) is deliberately
            // skipped: thread-id index expressions carry the base-9 digits
            // that keep parallel stores race-free, and shrinking them would
            // let the reducer invent schedule-dependent divergences.
            let skipped = usize::from(matches!(s.kind, StmtKind::Store { .. }));
            s.exprs_mut().skip(skipped).for_each(|e| expr(e, f));
            s.blocks_mut().for_each(|b| stmts(b, f));
        }
    }
    for func in &mut p.funcs {
        stmts(&mut func.body, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_diag::Span;
    use revet_lang::ast::{FuncAst, Init, TyName};

    fn tiny() -> Program {
        let s = |kind| Stmt::new(kind, Span::new(0, 0));
        Program {
            drams: vec![],
            funcs: vec![FuncAst {
                name: "main".into(),
                ret: TyName::Void,
                params: vec![],
                body: vec![
                    s(StmtKind::Decl {
                        ty: TyName::U32,
                        name: "a".into(),
                        init: Some(Init::Expr(Expr::Int(7))),
                    }),
                    s(StmtKind::If {
                        cond: Expr::Int(1),
                        then: vec![s(StmtKind::Assign {
                            name: "a".into(),
                            value: Expr::Int(9),
                        })],
                        els: vec![],
                    }),
                ],
                span: Span::new(0, 0),
            }],
        }
    }

    #[test]
    fn counting_and_deletion_agree() {
        let p = tiny();
        assert_eq!(count_stmts(&p), 3);
        let mut q = p.clone();
        assert!(edit_stmt(&mut q, 2, |_| EditAction::Remove));
        assert_eq!(count_stmts(&q), 2);
        let mut r = p.clone();
        assert!(edit_stmt(&mut r, 1, |_| EditAction::Remove));
        assert_eq!(count_stmts(&r), 1, "deleting the if removes its body");
    }

    #[test]
    fn hoisting_replaces_an_if_with_its_branch() {
        let mut p = tiny();
        assert!(edit_stmt(&mut p, 1, |s| match &s.kind {
            StmtKind::If { then, .. } => EditAction::Splice(then.clone()),
            _ => EditAction::Keep,
        }));
        assert_eq!(count_stmts(&p), 2);
        assert!(matches!(p.funcs[0].body[1].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn const_shrinking_targets_by_index() {
        let mut p = tiny();
        let consts = collect_consts(&p);
        assert_eq!(consts, vec![7, 1, 9]);
        assert!(set_const(&mut p, 2, 0));
        assert_eq!(collect_consts(&p), vec![7, 1, 0]);
        assert!(!set_const(&mut p, 2, 0), "idempotent set reports no change");
    }
}
