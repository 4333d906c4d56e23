//! AST → MIR lowering: symbol resolution, type checking, and conversion of
//! mutable variables to SSA form.
//!
//! Mutable-variable conversion follows the structured-control-flow shape:
//! variables assigned inside an `if` become region yields and op results;
//! variables assigned inside a `while` become loop-carried values; `foreach`
//! bodies get a *read-only* view of parent variables (§IV-A a — the language
//! guarantee that makes threads trivially parallel), while `replicate` and
//! `fork` bodies may assign (the continuation thread's values flow out as op
//! results).
//!
//! Every nested region goes through [`Lowerer::region`]: it opens a scope
//! for the [`Construct`], binds the region's arguments, lowers the body and
//! closes the region by one rule — `yield` the carried variables' current
//! values unless the body already ended in a terminator. [`Lowerer::rebind`]
//! then mints the construct's results and installs them as the variables'
//! new values. Each construct's arm is those two calls around its own op.

#![warn(clippy::too_many_lines)]

use crate::ast::{
    BinOp, Block, Expr, Foreach, Init, ItKindName, MemDecl, Program, ReduceOp, Stmt, StmtKind,
    TileKind, TyName, UnOp, ViewKindName,
};
use revet_diag::{codes, Diagnostic, Diagnostics};
use revet_mir::{
    AluOp, DramRef, ForeachFlags, Func, ItKind, Module, OpKind, Region, RegionBuilder, Ty, Value,
    ViewKind, MU_WORDS,
};
use std::collections::HashMap;

type LResult<T> = Result<T, Diagnostic>;

/// Lowers a parsed program to a verified MIR module; a
/// `pragma(threads, N)` anywhere in the source becomes
/// [`Module::threads`].
///
/// # Errors
///
/// Returns spanned [`Diagnostics`] for unknown names, type mismatches,
/// writes to read-only parent variables inside `foreach`, malformed
/// yields, and a thread count, memory-object size or thread-local region
/// past one memory unit ([`MU_WORDS`]), so that no source can make the
/// compiler allocate more than the machine holds. Lowering stops at the
/// first semantic error (multi-error reporting is the parser's recovery
/// job); errors raised deep in expression lowering start span-less and
/// take the span of the enclosing statement.
pub fn lower_program(prog: &Program) -> Result<Module, Diagnostics> {
    lower_program_inner(prog).map_err(Diagnostics::from)
}

fn lower_program_inner(prog: &Program) -> LResult<Module> {
    let mut module = Module::default();
    let mut drams = HashMap::new();
    for d in &prog.drams {
        let r = module.add_dram(d.name.clone(), d.ty.bytes());
        drams.insert(d.name.as_str(), (r, d.ty));
    }
    for fast in &prog.funcs {
        let param_tys: Vec<Ty> = fast.params.iter().map(|(t, _)| storage_ty(*t)).collect();
        let results = if fast.ret == TyName::Void {
            vec![]
        } else {
            vec![storage_ty(fast.ret)]
        };
        let mut func = Func::new(fast.name.clone(), &param_tys, results);
        let mut lw = Lowerer {
            func: &mut func,
            drams: &drams,
            scopes: vec![Scope::default()],
            threads: &mut module.threads,
            ret: fast.ret,
        };
        for ((ty, name), val) in fast.params.iter().zip(lw.func.params.clone()) {
            lw.set_var(name, val, *ty);
        }
        let mut b = RegionBuilder::new();
        lw.lower_block(&fast.body, &mut b)
            .map_err(|e| e.or_span(fast.span))?;
        // Ensure a return terminator.
        if !matches!(b.last_kind(), Some(OpKind::Return(_) | OpKind::Exit)) {
            if fast.ret != TyName::Void {
                return Err(Diagnostic::error(
                    codes::SEM_BAD_YIELD_RETURN,
                    format!("function '{}' must end with return of a value", fast.name),
                )
                .with_span(fast.span));
            }
            b.emit0(OpKind::Return(vec![]));
        }
        func.body = b.build();
        module.funcs.push(func);
    }
    check_regions(prog, module.thread_count())?;
    revet_mir::verify_module(&module).map_err(|e| {
        let d = Diagnostic::error(codes::MIR_VERIFY, e.to_string());
        match e.span {
            Some(s) => d.with_span(s),
            None => d,
        }
    })?;
    Ok(module)
}

/// Storage type for a surface type.
fn storage_ty(t: TyName) -> Ty {
    match t {
        TyName::U8 | TyName::I8 => Ty::I8,
        TyName::U16 | TyName::I16 => Ty::I16,
        TyName::U32 | TyName::I32 => Ty::I32,
        TyName::Void => Ty::Void,
    }
}

#[derive(Clone, Copy, Debug)]
struct VarInfo {
    val: Value,
    ty: TyName,
}

#[derive(Clone, Copy, Debug)]
enum HandleKind {
    Sram,
    Tile(TileKind),
}

#[derive(Clone, Copy, Debug)]
enum Binding {
    Var(VarInfo),
    Handle {
        val: Value,
        kind: HandleKind,
        elem: TyName,
    },
}

/// The constructs that nest a region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Construct {
    If,
    While,
    Foreach,
    Replicate,
    Fork,
}

impl Construct {
    fn name(self) -> &'static str {
        match self {
            Construct::If => "if",
            Construct::While => "while",
            Construct::Foreach => "foreach",
            Construct::Replicate => "replicate",
            Construct::Fork => "fork",
        }
    }
}

/// One scope's names, borrowed from the AST the lowering reads.
#[derive(Debug, Default)]
struct Scope<'p> {
    /// Keyed by source identifiers, so `std`'s seeded hashing: a client
    /// sending source cannot choose colliding keys.
    bindings: HashMap<&'p str, Binding>,
    /// What opened the scope; `None` for a function body. A `Foreach` scope
    /// is a thread boundary: assignments cannot cross it. Only a function
    /// body and an `if` branch may end in `return`.
    construct: Option<Construct>,
    /// Variables of enclosing scopes that a declaration in this scope
    /// hides, as they were when hidden: the values the region carries out.
    hidden: HashMap<&'p str, VarInfo>,
}

/// Lowers one function of the program `'p` borrows.
struct Lowerer<'l, 'p> {
    func: &'l mut Func,
    drams: &'l HashMap<&'p str, (DramRef, TyName)>,
    scopes: Vec<Scope<'p>>,
    /// The module's `pragma(threads, N)`.
    threads: &'l mut Option<u32>,
    ret: TyName,
}

impl<'p> Lowerer<'_, 'p> {
    fn lookup(&self, name: &str) -> Option<Binding> {
        let mut scopes = self.scopes.iter().rev();
        scopes.find_map(|s| s.bindings.get(name).copied())
    }

    /// The DRAM symbol `name` and its element type.
    fn dram(&self, name: &str) -> LResult<(DramRef, TyName)> {
        self.drams.get(name).copied().ok_or_else(|| {
            Diagnostic::error(codes::SEM_UNKNOWN_NAME, format!("unknown dram '{name}'"))
        })
    }

    /// The variable an assignment to `name` targets. The new value is
    /// always written as a *shadow* in the innermost scope ([`set_var`]) so
    /// that region lowering never mutates enclosing-scope bindings (the
    /// enclosing construct re-binds from region results instead).
    ///
    /// [`set_var`]: Lowerer::set_var
    fn assignable(&self, name: &str) -> LResult<TyName> {
        let mut crossed_boundary = false;
        for s in self.scopes.iter().rev() {
            if let Some(Binding::Var(v)) = s.bindings.get(name) {
                if crossed_boundary {
                    return Err(Diagnostic::error(
                        codes::SEM_READONLY_ASSIGN,
                        format!(
                            "cannot assign '{name}': foreach threads have a read-only view \
                             of parent variables (allocate memory to communicate)"
                        ),
                    ));
                }
                return Ok(v.ty);
            }
            crossed_boundary |= s.construct == Some(Construct::Foreach);
        }
        Err(Diagnostic::error(
            codes::SEM_UNKNOWN_NAME,
            format!("assignment to unknown variable '{name}'"),
        ))
    }

    /// Binds `name` in the innermost scope.
    fn set_var(&mut self, name: &'p str, val: Value, ty: TyName) {
        let scope = self.scopes.last_mut().expect("a function scope");
        let var = Binding::Var(VarInfo { val, ty });
        scope.bindings.insert(name, var);
    }

    /// Declares `name` in the innermost scope. A variable it hides keeps
    /// the value it has now for the rest of the scope.
    fn declare(&mut self, name: &'p str, binding: Binding) {
        let outer = self.var(name);
        let scope = self.scopes.last_mut().expect("a function scope");
        if let Some(outer) = outer {
            scope.hidden.entry(name).or_insert(outer);
        }
        scope.bindings.insert(name, binding);
    }

    /// A variable visible from here (for carried-value bookkeeping).
    fn var(&self, name: &str) -> Option<VarInfo> {
        match self.lookup(name) {
            Some(Binding::Var(v)) => Some(v),
            _ => None,
        }
    }

    /// The current values of the carried variables.
    fn current(&self, carried: &[&str]) -> Vec<Value> {
        let val = |n: &&str| self.var(n).expect("carried variables are visible").val;
        carried.iter().map(val).collect()
    }

    // ---- regions ----

    /// Lowers one nested region of `construct`: opens its scope, mints and
    /// binds the region arguments `args` (name, surface type, MIR type),
    /// runs `body`, and closes the region — unless the body already ended
    /// in a terminator, it yields the `carried` variables' current values.
    fn region(
        &mut self,
        construct: Construct,
        args: &[(&'p str, TyName, Ty)],
        carried: &[&'p str],
        body: impl FnOnce(&mut Self, &mut RegionBuilder) -> LResult<()>,
    ) -> LResult<Region> {
        let vals: Vec<Value> = args.iter().map(|a| self.func.new_value(a.2)).collect();
        self.scopes.push(Scope {
            construct: Some(construct),
            ..Scope::default()
        });
        for ((name, ty, _), val) in args.iter().zip(&vals) {
            self.set_var(name, *val, *ty);
        }
        let mut b = RegionBuilder::with_args(vals);
        body(self, &mut b)?;
        let terminated = matches!(
            b.last_kind(),
            Some(OpKind::Exit | OpKind::Return(_) | OpKind::Yield(_) | OpKind::Condition { .. })
        );
        let scope = self.scopes.pop().expect("pushed above");
        if !terminated {
            // A carried variable is one of an enclosing scope: where the
            // region declared the name anew, the value it hid.
            let val = |n: &&str| match (scope.hidden.get(n), scope.bindings.get(n)) {
                (Some(v), _) | (None, Some(Binding::Var(v))) => v.val,
                _ => self.var(n).expect("carried variables are visible").val,
            };
            b.emit0(OpKind::Yield(carried.iter().map(val).collect()));
        }
        Ok(b.build())
    }

    /// Mints one result per carried variable and installs it as the
    /// variable's value after the construct.
    fn rebind(&mut self, carried: &[&'p str]) -> LResult<Vec<Value>> {
        let mut results = Vec::with_capacity(carried.len());
        for name in carried {
            let ty = self.assignable(name)?;
            let result = self.func.new_value(storage_ty(ty));
            self.set_var(name, result, ty);
            results.push(result);
        }
        Ok(results)
    }

    /// Variables from enclosing scopes assigned anywhere in the blocks of
    /// `s` (deterministic order): what the construct carries.
    fn carried(&self, s: &'p Stmt) -> Vec<&'p str> {
        let (mut out, mut declared) = (Vec::new(), Vec::new());
        for b in s.blocks() {
            collect_assigned(b, &mut declared, &mut out);
        }
        out.retain(|n| self.var(n).is_some());
        out
    }

    // ---- expressions ----

    fn lower_expr(&mut self, e: &Expr, b: &mut RegionBuilder) -> LResult<(Value, TyName)> {
        match e {
            Expr::Int(v) => {
                let val = b.emit(self.func, OpKind::ConstI(*v, Ty::I32), Ty::I32);
                Ok((val, if *v < 0 { TyName::I32 } else { TyName::U32 }))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some(Binding::Var(v)) => Ok((v.val, v.ty)),
                Some(Binding::Handle { .. }) => Err(Diagnostic::error(
                    codes::SEM_KIND_MISUSE,
                    format!("'{name}' is a memory object, not a scalar value"),
                )),
                None => Err(Diagnostic::error(
                    codes::SEM_UNKNOWN_NAME,
                    format!("unknown variable '{name}'"),
                )),
            },
            Expr::Bin(op, l, r) => {
                let (lv, lt) = self.lower_expr(l, b)?;
                let (rv, rt) = self.lower_expr(r, b)?;
                let signed = lt.signed() || rt.signed();
                let res = match op {
                    // No short-circuit: operands are effect-free; evaluate
                    // both and combine (documented divergence from C).
                    BinOp::LAnd => {
                        let zero = b.const_i32(self.func, 0);
                        let ln = b.bin(self.func, AluOp::Ne, lv, zero);
                        let rn = b.bin(self.func, AluOp::Ne, rv, zero);
                        b.bin(self.func, AluOp::And, ln, rn)
                    }
                    BinOp::LOr => {
                        let or = b.bin(self.func, AluOp::Or, lv, rv);
                        let zero = b.const_i32(self.func, 0);
                        b.bin(self.func, AluOp::Ne, or, zero)
                    }
                    _ => b.bin(self.func, op.row().alu[usize::from(signed)], lv, rv),
                };
                Ok((res, wide(signed)))
            }
            Expr::Un(op, inner) => {
                let (v, t) = self.lower_expr(inner, b)?;
                let k = b.const_i32(self.func, if *op == UnOp::BitNot { -1 } else { 0 });
                Ok(match op {
                    UnOp::Neg => (b.bin(self.func, AluOp::Sub, k, v), TyName::I32),
                    UnOp::Not => (b.bin(self.func, AluOp::Eq, v, k), TyName::U32),
                    UnOp::BitNot => (b.bin(self.func, AluOp::Xor, v, k), t),
                })
            }
            Expr::Index(base, idx) => {
                let (iv, _) = self.lower_expr(idx, b)?;
                if let Some(&(dram, ety)) = self.drams.get(base.as_str()) {
                    return Ok(self.load(OpKind::DramRead { dram, idx: iv }, ety, b));
                }
                match self.lookup(base) {
                    Some(Binding::Handle { val, kind, elem }) => match kind {
                        HandleKind::Sram | HandleKind::Tile(TileKind::View(_)) => {
                            Ok(self.load(OpKind::ViewRead { view: val, idx: iv }, elem, b))
                        }
                        HandleKind::Tile(TileKind::It(_)) => Err(Diagnostic::error(
                            codes::SEM_KIND_MISUSE,
                            format!("iterator '{base}' cannot be indexed; use *{base}"),
                        )),
                    },
                    Some(Binding::Var(_)) => Err(Diagnostic::error(
                        codes::SEM_KIND_MISUSE,
                        format!("'{base}' is a scalar and cannot be indexed"),
                    )),
                    None => Err(Diagnostic::error(
                        codes::SEM_UNKNOWN_NAME,
                        format!("unknown memory object '{base}'"),
                    )),
                }
            }
            Expr::Deref(name) => {
                let (it, elem) = self.it_handle(name, |k| {
                    matches!(k, ItKindName::Read | ItKindName::PeekRead)
                })?;
                Ok(self.load(OpKind::ItDeref { it }, elem, b))
            }
            Expr::Peek(name, ahead) => {
                let (ahead, _) = self.lower_expr(ahead, b)?;
                let (it, elem) = self.it_handle(name, |k| k == ItKindName::PeekRead)?;
                Ok(self.load(OpKind::ItPeek { it, ahead }, elem, b))
            }
            Expr::Cast(ty, inner) => {
                let (v, _) = self.lower_expr(inner, b)?;
                if *ty == TyName::Void {
                    return Err(Diagnostic::error(codes::SEM_GENERAL, "cannot cast to void"));
                }
                Ok((self.cast(v, *ty, b), *ty))
            }
        }
    }

    /// Emits `v` cast to the storage type of `ty`.
    fn cast(&mut self, v: Value, ty: TyName, b: &mut RegionBuilder) -> Value {
        let (to, signed) = (storage_ty(ty), ty.signed());
        b.emit(self.func, OpKind::Cast { v, to, signed }, to)
    }

    /// Emits the load `op` of an `elem`-typed element and sign-extends a
    /// narrow signed result (loads zero-extend), so variables always hold
    /// canonical 32-bit lane values.
    fn load(&mut self, op: OpKind, elem: TyName, b: &mut RegionBuilder) -> (Value, TyName) {
        let mut v = b.emit(self.func, op, storage_ty(elem));
        if elem.bytes() < 4 && elem.signed() {
            v = self.cast(v, TyName::I32, b);
        }
        (v, wide(elem.signed()))
    }

    /// The iterator `name`, if its kind is one the operation `allows`.
    fn it_handle(
        &self,
        name: &str,
        allows: impl Fn(ItKindName) -> bool,
    ) -> LResult<(Value, TyName)> {
        let Some(Binding::Handle {
            val,
            kind: HandleKind::Tile(TileKind::It(k)),
            elem,
        }) = self.lookup(name)
        else {
            let msg = format!("'{name}' is not an iterator");
            return Err(Diagnostic::error(codes::SEM_KIND_MISUSE, msg));
        };
        if !allows(k) {
            let msg = format!("iterator '{name}' of kind {k:?} does not support this operation");
            return Err(Diagnostic::error(codes::SEM_KIND_MISUSE, msg));
        }
        Ok((val, elem))
    }

    /// Truncates a value to a narrow declared type (keeps lane values
    /// canonical for u8/u16 variables).
    fn narrow_to(&mut self, v: Value, ty: TyName, b: &mut RegionBuilder) -> Value {
        if ty.bytes() >= 4 {
            return v;
        }
        self.cast(v, ty, b)
    }

    // ---- statements ----

    fn lower_block(
        &mut self,
        stmts: impl IntoIterator<Item = &'p Stmt>,
        b: &mut RegionBuilder,
    ) -> LResult<()> {
        let mut terminated = false;
        for s in stmts {
            if terminated {
                let msg = "unreachable statements after exit/return";
                return Err(Diagnostic::error(codes::SEM_GENERAL, msg).with_span(s.span));
            }
            // Every value created while lowering this statement inherits
            // its span (unless an inner statement pinned a finer one) —
            // this is what lets MIR verification and dataflow lowering
            // point back at source lines long after the AST is gone.
            let first_new = self.func.value_count() as u32;
            terminated = self.lower_stmt(s, b).map_err(|e| e.or_span(s.span))?;
            for v in first_new..self.func.value_count() as u32 {
                self.func.spans.set_if_absent(Value(v), s.span);
            }
        }
        Ok(())
    }

    /// Lowers one statement; returns true if it terminated the region.
    fn lower_stmt(&mut self, s: &'p Stmt, b: &mut RegionBuilder) -> LResult<bool> {
        match &s.kind {
            StmtKind::Decl { ty, name, init } => {
                let v = match init {
                    Some(Init::Expr(e)) => self.lower_expr(e, b)?.0,
                    Some(Init::Reduce(op, fe)) => {
                        let result = self.lower_foreach(fe, Some(*op), b)?;
                        result.expect("a reducing foreach has a result")
                    }
                    None => b.const_i32(self.func, 0),
                };
                let val = self.narrow_to(v, *ty, b);
                self.declare(name, Binding::Var(VarInfo { val, ty: *ty }));
            }
            StmtKind::Mem { name, decl } => self.lower_mem(name, decl, b)?,
            StmtKind::Assign { name, value } => {
                let (v, _) = self.lower_expr(value, b)?;
                let ty = self.assignable(name)?;
                let v = self.narrow_to(v, ty, b);
                self.set_var(name, v, ty);
            }
            StmtKind::Store { base, idx, value } => self.lower_store(base, idx, value, b)?,
            StmtKind::DerefStore { it, value } => {
                let (val, _) = self.lower_expr(value, b)?;
                let (it, _) = self.it_handle(it, |k| {
                    matches!(k, ItKindName::Write | ItKindName::ManualWrite)
                })?;
                b.emit0(OpKind::ItWrite { it, val });
            }
            StmtKind::Inc { it, last } => {
                let last = match last {
                    Some(e) => Some(self.lower_expr(e, b)?.0),
                    None => None,
                };
                let (it, _) = self.it_handle(it, |_| true)?;
                b.emit0(OpKind::ItInc { it, last });
            }
            StmtKind::If { cond, then, els } => self.lower_if(cond, [then, els], s, b)?,
            StmtKind::While { cond, body } => self.lower_while(cond, body, s, b)?,
            StmtKind::Foreach(fe) => {
                self.lower_foreach(fe, None, b)?;
            }
            StmtKind::Replicate { ways, body } => {
                self.body_pragmas(body)?;
                let carried = self.carried(s);
                let body = self.region(Construct::Replicate, &[], &carried, |lw, rb| {
                    lw.lower_block(body.iter().filter(|s| body_pragma(s).is_none()), rb)
                })?;
                let results = self.rebind(&carried)?;
                b.push(OpKind::Replicate { ways: *ways, body }, results);
            }
            StmtKind::Fork {
                count,
                ity,
                ivar,
                body,
            } => {
                let (count, _) = self.lower_expr(count, b)?;
                let carried = self.carried(s);
                let index = [(ivar.as_str(), *ity, Ty::I32)];
                let body = self.region(Construct::Fork, &index, &carried, |lw, rb| {
                    lw.lower_block(body, rb)
                })?;
                let results = self.rebind(&carried)?;
                b.push(OpKind::Fork { count, body }, results);
            }
            StmtKind::Exit => {
                b.emit0(OpKind::Exit);
                return Ok(true);
            }
            StmtKind::Yield(_) => {
                return Err(Diagnostic::error(
                    codes::SEM_BAD_YIELD_RETURN,
                    "'yield' is only allowed as the final statement of a reducing foreach",
                ))
            }
            StmtKind::Return(e) => {
                let vals = self.lower_return(e.as_ref(), b)?;
                b.emit0(OpKind::Return(vals));
                return Ok(true);
            }
            StmtKind::Pragma { name, value } => {
                if name != "threads" {
                    let msg = format!("pragma '{name}' is not valid here");
                    return Err(Diagnostic::error(codes::SEM_GENERAL, msg));
                }
                self.set_threads(*value)?;
            }
            StmtKind::Bulk {
                sram,
                load,
                dram,
                base,
                len,
            } => self.lower_bulk(sram, *load, dram, (base, len), b)?,
        }
        Ok(false)
    }

    /// `if`: both branches yield what either assigns.
    fn lower_if(
        &mut self,
        cond: &Expr,
        [then, els]: [&'p [Stmt]; 2],
        s: &'p Stmt,
        b: &mut RegionBuilder,
    ) -> LResult<()> {
        let (cond, _) = self.lower_expr(cond, b)?;
        let carried = self.carried(s);
        let mut branch = |stmts: &'p [Stmt]| {
            self.region(Construct::If, &[], &carried, |lw, rb| {
                lw.lower_block(stmts, rb)
            })
        };
        let (then, else_) = (branch(then)?, branch(els)?);
        let results = self.rebind(&carried)?;
        b.push(OpKind::If { cond, then, else_ }, results);
        Ok(())
    }

    /// `while`: the carried variables are the arguments of both regions —
    /// `before` evaluates the condition on them, `after` is the body.
    fn lower_while(
        &mut self,
        cond: &Expr,
        body: &'p [Stmt],
        s: &'p Stmt,
        b: &mut RegionBuilder,
    ) -> LResult<()> {
        let carried = self.carried(s);
        let inits = self.current(&carried);
        let mut args = Vec::with_capacity(carried.len());
        for name in &carried {
            let ty = self.var(name).expect("carried variables are visible").ty;
            args.push((*name, ty, storage_ty(ty)));
        }
        let before = self.region(Construct::While, &args, &carried, |lw, rb| {
            let (cond, _) = lw.lower_expr(cond, rb)?;
            let fwd = lw.current(&carried);
            rb.emit0(OpKind::Condition { cond, fwd });
            Ok(())
        })?;
        let after = self.region(Construct::While, &args, &carried, |lw, rb| {
            lw.lower_block(body, rb)
        })?;
        let results = self.rebind(&carried)?;
        b.push(
            OpKind::While {
                inits,
                before,
                after,
            },
            results,
        );
        Ok(())
    }

    /// The values a `return` carries, checked against where it stands and
    /// the function's type.
    fn lower_return(&mut self, e: Option<&Expr>, b: &mut RegionBuilder) -> LResult<Vec<Value>> {
        let innermost = self.scopes.last().and_then(|s| s.construct);
        if let Some(c) = innermost.filter(|c| *c != Construct::If) {
            let msg = format!(
                "'return' cannot end a {} body: its region yields to the construct \
                 (only a function body or an 'if' branch may return)",
                c.name()
            );
            return Err(Diagnostic::error(codes::SEM_BAD_YIELD_RETURN, msg));
        }
        let msg = match (e, self.ret == TyName::Void) {
            (Some(_), true) => "void function returns a value",
            (None, false) => "non-void function returns nothing",
            (Some(e), false) => return Ok(vec![self.lower_expr(e, b)?.0]),
            (None, true) => return Ok(vec![]),
        };
        Err(Diagnostic::error(codes::SEM_BAD_YIELD_RETURN, msg))
    }

    fn lower_mem(&mut self, name: &'p str, decl: &MemDecl, b: &mut RegionBuilder) -> LResult<()> {
        let size = match decl {
            MemDecl::Sram { size, .. } | MemDecl::Tile { size, .. } => *size,
        };
        let size = in_mu(&format!("the size of '{name}'"), size)?;
        let (op, kind, elem) = match decl {
            MemDecl::Sram { ty, .. } => {
                let op = OpKind::ViewNew {
                    kind: ViewKind::Sram,
                    dram: None,
                    base: None,
                    size,
                };
                (op, HandleKind::Sram, *ty)
            }
            MemDecl::Tile { kind, dram, at, .. } => {
                let (dram, elem) = self.dram(dram)?;
                let (at, _) = self.lower_expr(at, b)?;
                let op = match kind {
                    TileKind::View(v) => OpKind::ViewNew {
                        kind: v.mir(),
                        dram: Some(dram),
                        base: Some(at),
                        size,
                    },
                    TileKind::It(i) => OpKind::ItNew {
                        kind: i.mir(),
                        dram,
                        seek: at,
                        tile: size,
                    },
                };
                (op, HandleKind::Tile(*kind), elem)
            }
        };
        let val = b.emit(self.func, op, Ty::Handle);
        self.declare(name, Binding::Handle { val, kind, elem });
        Ok(())
    }

    fn lower_store(
        &mut self,
        base: &str,
        idx: &Expr,
        value: &Expr,
        b: &mut RegionBuilder,
    ) -> LResult<()> {
        let (idx, _) = self.lower_expr(idx, b)?;
        let (val, _) = self.lower_expr(value, b)?;
        if let Some(&(dram, _)) = self.drams.get(base) {
            b.emit0(OpKind::DramWrite { dram, idx, val });
            return Ok(());
        }
        let Some(Binding::Handle {
            val: view, kind, ..
        }) = self.lookup(base)
        else {
            return Err(Diagnostic::error(
                codes::SEM_UNKNOWN_NAME,
                format!("unknown store target '{base}'"),
            ));
        };
        match kind {
            HandleKind::Tile(TileKind::View(ViewKindName::Read)) => Err(Diagnostic::error(
                codes::SEM_KIND_MISUSE,
                format!("cannot write through read view '{base}'"),
            )),
            HandleKind::Tile(TileKind::It(_)) => Err(Diagnostic::error(
                codes::SEM_KIND_MISUSE,
                format!("cannot index-store through iterator '{base}'"),
            )),
            HandleKind::Sram | HandleKind::Tile(TileKind::View(_)) => {
                b.emit0(OpKind::ViewWrite { view, idx, val });
                Ok(())
            }
        }
    }

    /// Both `foreach` forms: the statement (`reduce` is `None`, no result)
    /// and a declaration's reducing initializer, whose body ends in the
    /// `yield` that feeds the reduction.
    fn lower_foreach(
        &mut self,
        fe: &'p Foreach,
        reduce: Option<ReduceOp>,
        b: &mut RegionBuilder,
    ) -> LResult<Option<Value>> {
        let (hi, _) = self.lower_expr(&fe.count, b)?;
        let step = match &fe.step {
            Some(s) => self.lower_expr(s, b)?.0,
            None => b.const_i32(self.func, 1),
        };
        let lo = b.const_i32(self.func, 0);
        let reducing = reduce.is_some();
        let yielded = match fe.body.last().map(|s| &s.kind) {
            Some(StmtKind::Yield(e)) if reducing => Some(e),
            _ => None,
        };
        let stmts = &fe.body[..fe.body.len() - usize::from(yielded.is_some())];
        // Only the statement form interprets pragmas of its own.
        let flags = if reducing {
            ForeachFlags::default()
        } else {
            self.body_pragmas(stmts)?
        };
        let index = [(fe.ivar.as_str(), fe.ity, Ty::I32)];
        // Whether the yielded value is signed: picks `min` / `max`.
        let mut signed = false;
        let body = self.region(Construct::Foreach, &index, &[], |lw, rb| {
            let lowered = stmts
                .iter()
                .filter(|s| reducing || body_pragma(s).is_none());
            lw.lower_block(lowered, rb)?;
            if reducing {
                let yielded = yielded.ok_or_else(|| {
                    Diagnostic::error(
                        codes::SEM_BAD_YIELD_RETURN,
                        "reducing foreach body must end with 'yield expr;'",
                    )
                })?;
                let (v, ty) = lw.lower_expr(yielded, rb)?;
                signed = ty.signed();
                rb.emit0(OpKind::Yield(vec![v]));
            }
            Ok(())
        })?;
        let result = reduce.map(|_| self.func.new_value(Ty::I32));
        let kind = OpKind::Foreach {
            lo,
            hi,
            step,
            body,
            reduce: reduce.map(|op| op.alu(signed)).into_iter().collect(),
            flags,
        };
        b.push(kind, result);
        Ok(result)
    }

    /// Interprets the pragmas that sit directly in a `foreach` or
    /// `replicate` body, on entry; the body is then lowered without them.
    fn body_pragmas(&mut self, body: &[Stmt]) -> LResult<ForeachFlags> {
        let mut flags = ForeachFlags::default();
        for s in body {
            match body_pragma(s) {
                Some(("threads", value)) => {
                    self.set_threads(value).map_err(|e| e.or_span(s.span))?;
                }
                Some(_) => flags.eliminate_hierarchy = true,
                None => {}
            }
        }
        Ok(flags)
    }

    /// `pragma(threads, N)`: the module's thread-local buffer count.
    fn set_threads(&mut self, value: Option<i64>) -> LResult<()> {
        *self.threads = value.map(|v| in_mu("the thread count", v)).transpose()?;
        Ok(())
    }

    /// `sram.load(dram, base, len)` / `sram.store(dram, base, len)`. Bulk
    /// ops through raw SRAM handles are expressed as a loop of view
    /// accesses; the high-level lowering pass turns views into physical
    /// SRAM + real bulk ops.
    fn lower_bulk(
        &mut self,
        sram: &str,
        load: bool,
        dram: &str,
        (base, len): (&Expr, &Expr),
        b: &mut RegionBuilder,
    ) -> LResult<()> {
        let (dram, _) = self.dram(dram)?;
        let (base, _) = self.lower_expr(base, b)?;
        let (hi, _) = self.lower_expr(len, b)?;
        let Some(Binding::Handle {
            val: view,
            kind: HandleKind::Sram,
            ..
        }) = self.lookup(sram)
        else {
            return Err(Diagnostic::error(
                codes::SEM_KIND_MISUSE,
                format!("'{sram}' is not a raw SRAM"),
            ));
        };
        let lo = b.const_i32(self.func, 0);
        let step = b.const_i32(self.func, 1);
        let idx = self.func.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![idx]);
        if load {
            let at = body.bin(self.func, AluOp::Add, base, idx);
            let val = body.emit(self.func, OpKind::DramRead { dram, idx: at }, Ty::I32);
            body.emit0(OpKind::ViewWrite { view, idx, val });
        } else {
            let val = body.emit(self.func, OpKind::ViewRead { view, idx }, Ty::I32);
            let at = body.bin(self.func, AluOp::Add, base, idx);
            body.emit0(OpKind::DramWrite { dram, idx: at, val });
        }
        body.emit0(OpKind::Yield(vec![]));
        let kind = OpKind::Foreach {
            lo,
            hi,
            step,
            body: body.build(),
            reduce: vec![],
            flags: ForeachFlags::default(),
        };
        b.emit0(kind);
        Ok(())
    }
}

/// Adds the enclosing-scope names `block` assigns to `out`. `declared` is
/// a stack of the names the enclosing blocks have declared so far; each
/// block pushes its own declarations and pops them on the way out.
fn collect_assigned<'p>(block: Block<'p>, declared: &mut Vec<&'p str>, out: &mut Vec<&'p str>) {
    // A foreach thread cannot assign a parent variable (`assignable`
    // rejects it when the body is lowered), so its body carries nothing.
    if block.isolated {
        return;
    }
    let outer = declared.len();
    declared.extend(block.ivar);
    for s in block.stmts {
        match &s.kind {
            StmtKind::Decl { name, .. } | StmtKind::Mem { name, .. } => declared.push(name),
            StmtKind::Assign { name, .. }
                if !declared.contains(&name.as_str()) && !out.contains(&name.as_str()) =>
            {
                out.push(name);
            }
            _ => {}
        }
        for inner in s.blocks() {
            collect_assigned(inner, declared, out);
        }
    }
    declared.truncate(outer);
}

/// `v` as a count of at most one memory unit: a thread count or a memory
/// object's size, in `1..=MU_WORDS`.
fn in_mu(what: &str, v: i64) -> LResult<u32> {
    let count = u32::try_from(v).ok().filter(|n| (1..=MU_WORDS).contains(n));
    count.ok_or_else(|| {
        let msg = format!("{what} is {v}, outside 1..={MU_WORDS}");
        Diagnostic::error(codes::SEM_OVERSIZED, msg)
    })
}

/// Rejects the first memory object whose thread-local region, one buffer
/// for each of `threads` threads, would not fit one memory unit (an
/// iterator also keeps [`ItKind::STATE_WORDS`] per thread). Runs after
/// lowering, so every size is already in `1..=MU_WORDS`.
fn check_regions(prog: &Program, threads: u32) -> LResult<()> {
    let mut found = Ok(());
    prog.walk_stmts(&mut |s| {
        let StmtKind::Mem { name, decl } = &s.kind else {
            return;
        };
        let per_thread = match decl {
            MemDecl::Sram { size, .. }
            | MemDecl::Tile {
                kind: TileKind::View(_),
                size,
                ..
            } => *size as u32,
            MemDecl::Tile {
                kind: TileKind::It(i),
                size,
                ..
            } => i.mir().window(*size as u32).max(ItKind::STATE_WORDS),
        };
        let words = u64::from(per_thread) * u64::from(threads);
        if words > u64::from(MU_WORDS) && found.is_ok() {
            let msg = format!(
                "'{name}' needs {words} SRAM words, {per_thread} for each of {threads} threads: \
                 more than one memory unit ({MU_WORDS} words)"
            );
            found = Err(Diagnostic::error(codes::SEM_OVERSIZED, msg).with_span(s.span));
        }
    });
    found
}

/// A pragma a `foreach` / `replicate` body interprets on entry.
fn body_pragma(s: &Stmt) -> Option<(&str, Option<i64>)> {
    match &s.kind {
        StmtKind::Pragma { name, value } if name == "eliminate_hierarchy" || name == "threads" => {
            Some((name, *value))
        }
        _ => None,
    }
}

/// The 32-bit compute type of the given signedness: what every operator
/// yields and every load promotes to.
fn wide(signed: bool) -> TyName {
    if signed {
        TyName::I32
    } else {
        TyName::U32
    }
}
