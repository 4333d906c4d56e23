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

use crate::ast::{
    BinOp, Expr, ItKindName, MemDecl, Program, ReduceOp, Stmt, StmtKind, TyName, UnOp, ViewKindName,
};
use revet_diag::{codes, Diagnostic, Diagnostics, Span};
use revet_mir::{
    AluOp, ForeachFlags, Func, ItKind, Module, OpKind, RegionBuilder, Ty, Value, ViewKind,
};
use std::collections::{HashMap, HashSet};

/// A lowering (semantic) error: internal carrier, converted to a
/// [`Diagnostic`] at the `lower_program` boundary. Errors raised deep in
/// expression lowering start span-less; the statement-walking loop
/// attributes them to the enclosing statement's span.
#[derive(Clone, PartialEq, Eq, Debug)]
struct LowerError {
    code: &'static str,
    message: String,
    span: Option<Span>,
}

impl LowerError {
    fn new(m: impl Into<String>) -> Self {
        LowerError::code(codes::SEM_GENERAL, m)
    }

    fn code(code: &'static str, m: impl Into<String>) -> Self {
        LowerError {
            code,
            message: m.into(),
            span: None,
        }
    }

    fn or_span(mut self, span: Span) -> Self {
        self.span.get_or_insert(span);
        self
    }

    fn into_diagnostic(self) -> Diagnostic {
        let d = Diagnostic::error(self.code, self.message);
        match self.span {
            Some(s) => d.with_span(s),
            None => d,
        }
    }
}

/// Lowering output: the module plus module-level attributes gathered from
/// pragmas.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The MIR module (verified).
    pub module: Module,
    /// `pragma(threads, N)` hint: thread-local buffer count for allocators.
    pub thread_count_hint: Option<u32>,
}

/// Lowers a parsed program to MIR.
///
/// # Errors
///
/// Returns spanned [`Diagnostics`] for unknown names, type mismatches,
/// writes to read-only parent variables inside `foreach`, and malformed
/// yields. Lowering stops at the first semantic error (multi-error
/// reporting is the parser's recovery job).
pub fn lower_program(prog: &Program) -> Result<Lowered, Diagnostics> {
    lower_program_inner(prog).map_err(|e| Diagnostics::from(e.into_diagnostic()))
}

fn lower_program_inner(prog: &Program) -> Result<Lowered, LowerError> {
    let mut module = Module::default();
    let mut dram_map = HashMap::new();
    let mut dram_tys = HashMap::new();
    for d in &prog.drams {
        let r = module.add_dram(d.name.clone(), d.ty.bytes());
        dram_map.insert(d.name.clone(), r);
        dram_tys.insert(d.name.clone(), d.ty);
    }
    let mut thread_count_hint = None;
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
            drams: &dram_map,
            dram_tys: &dram_tys,
            scopes: vec![Scope::new(false)],
            thread_count_hint: &mut thread_count_hint,
            ret: fast.ret,
        };
        for ((ty, name), val) in fast.params.iter().zip(lw.func.params.clone()) {
            lw.scopes[0]
                .bindings
                .insert(name.clone(), Binding::Var(VarInfo { val, ty: *ty }));
        }
        let mut b = RegionBuilder::new();
        lw.lower_block(&fast.body, &mut b)
            .map_err(|e| e.or_span(fast.span))?;
        // Ensure a return terminator.
        if !matches!(b.last_kind(), Some(OpKind::Return(_)) | Some(OpKind::Exit)) {
            if fast.ret != TyName::Void {
                return Err(LowerError::code(
                    codes::SEM_BAD_YIELD_RETURN,
                    format!("function '{}' must end with return of a value", fast.name),
                )
                .or_span(fast.span));
            }
            b.emit0(OpKind::Return(vec![]));
        }
        func.body = b.build();
        module.funcs.push(func);
    }
    revet_mir::verify_module(&module).map_err(|e| {
        let le = LowerError::code(codes::MIR_VERIFY, e.to_string());
        match e.span {
            Some(s) => le.or_span(s),
            None => le,
        }
    })?;
    Ok(Lowered {
        module,
        thread_count_hint,
    })
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

#[derive(Clone, Debug)]
struct VarInfo {
    val: Value,
    ty: TyName,
}

#[derive(Clone, Copy, Debug)]
enum HandleKind {
    Sram,
    View(ViewKindName),
    It(ItKindName),
}

#[derive(Clone, Debug)]
enum Binding {
    Var(VarInfo),
    Handle {
        val: Value,
        kind: HandleKind,
        elem: TyName,
    },
}

#[derive(Debug)]
struct Scope {
    bindings: HashMap<String, Binding>,
    /// A thread boundary: assignments cannot cross it (foreach bodies).
    read_only_below: bool,
}

impl Scope {
    fn new(read_only_below: bool) -> Self {
        Scope {
            bindings: HashMap::new(),
            read_only_below,
        }
    }
}

struct Lowerer<'a> {
    func: &'a mut Func,
    drams: &'a HashMap<String, revet_mir::DramRef>,
    dram_tys: &'a HashMap<String, TyName>,
    scopes: Vec<Scope>,
    thread_count_hint: &'a mut Option<u32>,
    ret: TyName,
}

impl Lowerer<'_> {
    fn lookup(&self, name: &str) -> Option<&Binding> {
        for s in self.scopes.iter().rev() {
            if let Some(b) = s.bindings.get(name) {
                return Some(b);
            }
        }
        None
    }

    /// Finds the variable for assignment. Returns its info; the new value is
    /// always written as a *shadow* in the innermost scope so that region
    /// lowering never mutates enclosing-scope bindings (the enclosing
    /// construct re-binds from region results instead).
    fn lookup_var_for_assign(&mut self, name: &str) -> Result<(usize, VarInfo), LowerError> {
        let mut crossed_boundary = false;
        for (i, s) in self.scopes.iter().enumerate().rev() {
            if let Some(Binding::Var(v)) = s.bindings.get(name) {
                if crossed_boundary {
                    return Err(LowerError::code(
                        codes::SEM_READONLY_ASSIGN,
                        format!(
                            "cannot assign '{name}': foreach threads have a read-only view \
                             of parent variables (allocate memory to communicate)"
                        ),
                    ));
                }
                let _ = i;
                return Ok((self.scopes.len() - 1, v.clone()));
            }
            if s.read_only_below {
                crossed_boundary = true;
            }
        }
        Err(LowerError::code(
            codes::SEM_UNKNOWN_NAME,
            format!("assignment to unknown variable '{name}'"),
        ))
    }

    fn set_var(&mut self, scope_idx: usize, name: &str, val: Value, ty: TyName) {
        self.scopes[scope_idx]
            .bindings
            .insert(name.to_string(), Binding::Var(VarInfo { val, ty }));
    }

    /// Current value of a variable visible from here (for carried-value
    /// bookkeeping).
    fn var(&self, name: &str) -> Option<VarInfo> {
        match self.lookup(name) {
            Some(Binding::Var(v)) => Some(v.clone()),
            _ => None,
        }
    }

    // ---- expressions ----

    fn lower_expr(
        &mut self,
        e: &Expr,
        b: &mut RegionBuilder,
    ) -> Result<(Value, TyName), LowerError> {
        match e {
            Expr::Int(v) => {
                let val = b.emit(self.func, OpKind::ConstI(*v, Ty::I32), Ty::I32);
                Ok((val, if *v < 0 { TyName::I32 } else { TyName::U32 }))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some(Binding::Var(v)) => Ok((v.val, v.ty)),
                Some(Binding::Handle { .. }) => Err(LowerError::code(
                    codes::SEM_KIND_MISUSE,
                    format!("'{name}' is a memory object, not a scalar value"),
                )),
                None => Err(LowerError::code(
                    codes::SEM_UNKNOWN_NAME,
                    format!("unknown variable '{name}'"),
                )),
            },
            Expr::Bin(op, l, r) => {
                let (lv, lt) = self.lower_expr(l, b)?;
                let (rv, rt) = self.lower_expr(r, b)?;
                let signed = lt.signed() || rt.signed();
                let (alu, out_ty) = select_alu(*op, signed)?;
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
                    _ => b.bin(self.func, alu, lv, rv),
                };
                Ok((res, out_ty_for(out_ty, lt, rt, signed)))
            }
            Expr::Un(op, inner) => {
                let (v, t) = self.lower_expr(inner, b)?;
                match op {
                    UnOp::Neg => {
                        let zero = b.const_i32(self.func, 0);
                        Ok((b.bin(self.func, AluOp::Sub, zero, v), TyName::I32))
                    }
                    UnOp::Not => {
                        let zero = b.const_i32(self.func, 0);
                        Ok((b.bin(self.func, AluOp::Eq, v, zero), TyName::U32))
                    }
                    UnOp::BitNot => {
                        let ones = b.const_i32(self.func, -1);
                        Ok((b.bin(self.func, AluOp::Xor, v, ones), t))
                    }
                }
            }
            Expr::Index(base, idx) => {
                let (iv, _) = self.lower_expr(idx, b)?;
                if let Some(&dram) = self.drams.get(base) {
                    let ety = self.dram_tys[base];
                    let raw = b.emit(
                        self.func,
                        OpKind::DramRead { dram, idx: iv },
                        storage_ty(ety),
                    );
                    return Ok((self.extend(raw, ety, b), promote(ety)));
                }
                match self.lookup(base).cloned() {
                    Some(Binding::Handle { val, kind, elem }) => match kind {
                        HandleKind::Sram | HandleKind::View(_) => {
                            let raw = b.emit(
                                self.func,
                                OpKind::ViewRead { view: val, idx: iv },
                                storage_ty(elem),
                            );
                            Ok((self.extend(raw, elem, b), promote(elem)))
                        }
                        HandleKind::It(_) => Err(LowerError::code(
                            codes::SEM_KIND_MISUSE,
                            format!("iterator '{base}' cannot be indexed; use *{base}"),
                        )),
                    },
                    Some(Binding::Var(_)) => Err(LowerError::code(
                        codes::SEM_KIND_MISUSE,
                        format!("'{base}' is a scalar and cannot be indexed"),
                    )),
                    None => Err(LowerError::code(
                        codes::SEM_UNKNOWN_NAME,
                        format!("unknown memory object '{base}'"),
                    )),
                }
            }
            Expr::Deref(name) => {
                let (val, elem) =
                    self.it_handle(name, &[ItKindName::Read, ItKindName::PeekRead])?;
                let raw = b.emit(self.func, OpKind::ItDeref { it: val }, storage_ty(elem));
                Ok((self.extend(raw, elem, b), promote(elem)))
            }
            Expr::Peek(name, ahead) => {
                let (av, _) = self.lower_expr(ahead, b)?;
                let (val, elem) = self.it_handle(name, &[ItKindName::PeekRead])?;
                let raw = b.emit(
                    self.func,
                    OpKind::ItPeek { it: val, ahead: av },
                    storage_ty(elem),
                );
                Ok((self.extend(raw, elem, b), promote(elem)))
            }
            Expr::Cast(ty, inner) => {
                let (v, _) = self.lower_expr(inner, b)?;
                if *ty == TyName::Void {
                    return Err(LowerError::new("cannot cast to void"));
                }
                let res = b.emit(
                    self.func,
                    OpKind::Cast {
                        v,
                        to: storage_ty(*ty),
                        signed: ty.signed(),
                    },
                    storage_ty(*ty),
                );
                Ok((res, *ty))
            }
            Expr::ForeachReduce {
                count,
                step,
                op,
                ity,
                ivar,
                body,
            } => {
                let (cv, _) = self.lower_expr(count, b)?;
                let sv = match step {
                    Some(s) => self.lower_expr(s, b)?.0,
                    None => b.const_i32(self.func, 1),
                };
                let lo = b.const_i32(self.func, 0);
                let idx = self.func.new_value(Ty::I32);
                self.scopes.push(Scope::new(true));
                self.scopes
                    .last_mut()
                    .expect("just pushed")
                    .bindings
                    .insert(ivar.clone(), Binding::Var(VarInfo { val: idx, ty: *ity }));
                let mut body_b = RegionBuilder::with_args(vec![idx]);
                let (stmts, yielded) = split_trailing_yield(body)?;
                self.lower_block(stmts, &mut body_b)?;
                let yielded = yielded.ok_or_else(|| {
                    LowerError::code(
                        codes::SEM_BAD_YIELD_RETURN,
                        "reducing foreach body must end with 'yield expr;'",
                    )
                })?;
                let (yv, _) = self.lower_expr(yielded, &mut body_b)?;
                body_b.emit0(OpKind::Yield(vec![yv]));
                self.scopes.pop();
                let result = self.func.new_value(Ty::I32);
                b.push(
                    OpKind::Foreach {
                        lo,
                        hi: cv,
                        step: sv,
                        body: body_b.build(),
                        reduce: vec![reduce_alu(*op)],
                        flags: ForeachFlags::default(),
                    },
                    vec![result],
                );
                Ok((result, TyName::U32))
            }
        }
    }

    /// Zero/sign-extends a narrow load so variables always hold canonical
    /// 32-bit lane values.
    fn extend(&mut self, v: Value, ty: TyName, b: &mut RegionBuilder) -> Value {
        if ty.bytes() >= 4 || !ty.signed() {
            return v; // loads are already zero-extended
        }
        b.emit(
            self.func,
            OpKind::Cast {
                v,
                to: Ty::I32,
                signed: true,
            },
            Ty::I32,
        )
    }

    fn it_handle(&self, name: &str, allowed: &[ItKindName]) -> Result<(Value, TyName), LowerError> {
        match self.lookup(name) {
            Some(Binding::Handle {
                val,
                kind: HandleKind::It(k),
                elem,
            }) => {
                if allowed.contains(k) {
                    Ok((*val, *elem))
                } else {
                    Err(LowerError::code(
                        codes::SEM_KIND_MISUSE,
                        format!("iterator '{name}' of kind {k:?} does not support this operation"),
                    ))
                }
            }
            _ => Err(LowerError::code(
                codes::SEM_KIND_MISUSE,
                format!("'{name}' is not an iterator"),
            )),
        }
    }

    /// Truncates a value to a narrow declared type (keeps lane values
    /// canonical for u8/u16 variables).
    fn narrow_to(&mut self, v: Value, ty: TyName, b: &mut RegionBuilder) -> Value {
        if ty.bytes() >= 4 {
            return v;
        }
        b.emit(
            self.func,
            OpKind::Cast {
                v,
                to: storage_ty(ty),
                signed: ty.signed(),
            },
            storage_ty(ty),
        )
    }

    // ---- statements ----

    fn lower_block(&mut self, stmts: &[Stmt], b: &mut RegionBuilder) -> Result<(), LowerError> {
        for (i, s) in stmts.iter().enumerate() {
            // Every value created while lowering this statement inherits
            // its span (unless an inner statement pinned a finer one) —
            // this is what lets MIR verification and dataflow lowering
            // point back at source lines long after the AST is gone.
            let first_new = self.func.value_count() as u32;
            let terminated = self.lower_stmt(s, b).map_err(|e| e.or_span(s.span))?;
            for v in first_new..self.func.value_count() as u32 {
                self.func.spans.set_if_absent(Value(v), s.span);
            }
            if terminated && i + 1 < stmts.len() {
                return Err(LowerError::new("unreachable statements after exit/return")
                    .or_span(stmts[i + 1].span));
            }
        }
        Ok(())
    }

    /// Lowers one statement; returns true if it terminated the region.
    #[allow(clippy::too_many_lines)]
    fn lower_stmt(&mut self, s: &Stmt, b: &mut RegionBuilder) -> Result<bool, LowerError> {
        match &s.kind {
            StmtKind::Decl { ty, name, init } => {
                let (v, _) = match init {
                    Some(e) => self.lower_expr(e, b)?,
                    None => (b.const_i32(self.func, 0), TyName::U32),
                };
                let v = self.narrow_to(v, *ty, b);
                let idx = self.scopes.len() - 1;
                self.set_var(idx, name, v, *ty);
                Ok(false)
            }
            StmtKind::Mem { name, decl } => {
                let (kind, handle_kind, elem) = match decl {
                    MemDecl::Sram { ty, size } => (
                        OpKind::ViewNew {
                            kind: ViewKind::Sram,
                            dram: None,
                            base: None,
                            size: *size,
                        },
                        HandleKind::Sram,
                        *ty,
                    ),
                    MemDecl::View {
                        kind,
                        size,
                        dram,
                        base,
                    } => {
                        let d = *self.drams.get(dram).ok_or_else(|| {
                            LowerError::code(
                                codes::SEM_UNKNOWN_NAME,
                                format!("unknown dram '{dram}'"),
                            )
                        })?;
                        let ety = self.dram_tys[dram];
                        let (bv, _) = self.lower_expr(base, b)?;
                        (
                            OpKind::ViewNew {
                                kind: match kind {
                                    ViewKindName::Read => ViewKind::Read,
                                    ViewKindName::Write => ViewKind::Write,
                                    ViewKindName::Modify => ViewKind::Modify,
                                },
                                dram: Some(d),
                                base: Some(bv),
                                size: *size,
                            },
                            HandleKind::View(*kind),
                            ety,
                        )
                    }
                    MemDecl::It {
                        kind,
                        tile,
                        dram,
                        seek,
                    } => {
                        let d = *self.drams.get(dram).ok_or_else(|| {
                            LowerError::code(
                                codes::SEM_UNKNOWN_NAME,
                                format!("unknown dram '{dram}'"),
                            )
                        })?;
                        let ety = self.dram_tys[dram];
                        let (sv, _) = self.lower_expr(seek, b)?;
                        (
                            OpKind::ItNew {
                                kind: match kind {
                                    ItKindName::Read => ItKind::Read,
                                    ItKindName::PeekRead => ItKind::PeekRead,
                                    ItKindName::Write => ItKind::Write,
                                    ItKindName::ManualWrite => ItKind::ManualWrite,
                                },
                                dram: d,
                                seek: sv,
                                tile: *tile,
                            },
                            HandleKind::It(*kind),
                            ety,
                        )
                    }
                };
                let val = b.emit(self.func, kind, Ty::Handle);
                let idx = self.scopes.len() - 1;
                self.scopes[idx].bindings.insert(
                    name.clone(),
                    Binding::Handle {
                        val,
                        kind: handle_kind,
                        elem,
                    },
                );
                Ok(false)
            }
            StmtKind::Assign { name, value } => {
                let (v, _) = self.lower_expr(value, b)?;
                let (idx, info) = self.lookup_var_for_assign(name)?;
                let v = self.narrow_to(v, info.ty, b);
                self.set_var(idx, name, v, info.ty);
                Ok(false)
            }
            StmtKind::Store { base, idx, value } => {
                let (iv, _) = self.lower_expr(idx, b)?;
                let (vv, _) = self.lower_expr(value, b)?;
                if let Some(&dram) = self.drams.get(base) {
                    b.emit0(OpKind::DramWrite {
                        dram,
                        idx: iv,
                        val: vv,
                    });
                    return Ok(false);
                }
                match self.lookup(base).cloned() {
                    Some(Binding::Handle { val, kind, .. }) => match kind {
                        HandleKind::Sram
                        | HandleKind::View(ViewKindName::Write | ViewKindName::Modify) => {
                            b.emit0(OpKind::ViewWrite {
                                view: val,
                                idx: iv,
                                val: vv,
                            });
                            Ok(false)
                        }
                        HandleKind::View(ViewKindName::Read) => Err(LowerError::code(
                            codes::SEM_KIND_MISUSE,
                            format!("cannot write through read view '{base}'"),
                        )),
                        HandleKind::It(_) => Err(LowerError::code(
                            codes::SEM_KIND_MISUSE,
                            format!("cannot index-store through iterator '{base}'"),
                        )),
                    },
                    _ => Err(LowerError::code(
                        codes::SEM_UNKNOWN_NAME,
                        format!("unknown store target '{base}'"),
                    )),
                }
            }
            StmtKind::DerefStore { it, value } => {
                let (vv, _) = self.lower_expr(value, b)?;
                let (val, _) = self.it_handle(it, &[ItKindName::Write, ItKindName::ManualWrite])?;
                b.emit0(OpKind::ItWrite { it: val, val: vv });
                Ok(false)
            }
            StmtKind::Inc { it, last } => {
                let lv = match last {
                    Some(e) => Some(self.lower_expr(e, b)?.0),
                    None => None,
                };
                let (val, _) = self.it_handle(
                    it,
                    &[
                        ItKindName::Read,
                        ItKindName::PeekRead,
                        ItKindName::Write,
                        ItKindName::ManualWrite,
                    ],
                )?;
                b.emit0(OpKind::ItInc { it: val, last: lv });
                Ok(false)
            }
            StmtKind::If { cond, then, els } => {
                let (cv, _) = self.lower_expr(cond, b)?;
                let assigned = self.assigned_outer_vars(then.iter().chain(els.iter()));
                // Lower both branches in child scopes.
                let mut then_b = RegionBuilder::new();
                self.scopes.push(Scope::new(false));
                self.lower_block(then, &mut then_b)?;
                if !matches!(
                    then_b.last_kind(),
                    Some(OpKind::Exit) | Some(OpKind::Return(_))
                ) {
                    let vals: Vec<Value> = assigned
                        .iter()
                        .map(|n| self.var(n).expect("assigned var exists").val)
                        .collect();
                    then_b.emit0(OpKind::Yield(vals));
                }
                self.scopes.pop();
                let mut else_b = RegionBuilder::new();
                self.scopes.push(Scope::new(false));
                self.lower_block(els, &mut else_b)?;
                if !matches!(
                    else_b.last_kind(),
                    Some(OpKind::Exit) | Some(OpKind::Return(_))
                ) {
                    let vals: Vec<Value> = assigned
                        .iter()
                        .map(|n| self.var(n).expect("assigned var exists").val)
                        .collect();
                    else_b.emit0(OpKind::Yield(vals));
                }
                self.scopes.pop();
                let results: Vec<Value> = assigned
                    .iter()
                    .map(|n| {
                        let ty = self.var(n).expect("assigned var exists").ty;
                        self.func.new_value(storage_ty(ty))
                    })
                    .collect();
                b.push(
                    OpKind::If {
                        cond: cv,
                        then: then_b.build(),
                        else_: else_b.build(),
                    },
                    results.clone(),
                );
                for (n, r) in assigned.iter().zip(&results) {
                    let (idx, info) = self.lookup_var_for_assign(n)?;
                    self.set_var(idx, n, *r, info.ty);
                }
                Ok(false)
            }
            StmtKind::While { cond, body } => {
                let assigned = self.assigned_outer_vars(body.iter());
                let inits: Vec<Value> = assigned
                    .iter()
                    .map(|n| self.var(n).expect("assigned var exists").val)
                    .collect();
                let tys: Vec<TyName> = assigned
                    .iter()
                    .map(|n| self.var(n).expect("assigned var exists").ty)
                    .collect();
                // before region: carried args, evaluate cond.
                let before_args: Vec<Value> = tys
                    .iter()
                    .map(|t| self.func.new_value(storage_ty(*t)))
                    .collect();
                self.scopes.push(Scope::new(false));
                for ((n, t), v) in assigned.iter().zip(&tys).zip(&before_args) {
                    let idx = self.scopes.len() - 1;
                    self.set_var(idx, n, *v, *t);
                }
                let mut before_b = RegionBuilder::with_args(before_args.clone());
                let (cv, _) = self.lower_expr(cond, &mut before_b)?;
                before_b.emit0(OpKind::Condition {
                    cond: cv,
                    fwd: before_args.clone(),
                });
                self.scopes.pop();
                // after region: body.
                let after_args: Vec<Value> = tys
                    .iter()
                    .map(|t| self.func.new_value(storage_ty(*t)))
                    .collect();
                self.scopes.push(Scope::new(false));
                for ((n, t), v) in assigned.iter().zip(&tys).zip(&after_args) {
                    let idx = self.scopes.len() - 1;
                    self.set_var(idx, n, *v, *t);
                }
                let mut after_b = RegionBuilder::with_args(after_args);
                self.lower_block(body, &mut after_b)?;
                if !matches!(after_b.last_kind(), Some(OpKind::Exit)) {
                    let next: Vec<Value> = assigned
                        .iter()
                        .map(|n| self.var(n).expect("assigned var exists").val)
                        .collect();
                    after_b.emit0(OpKind::Yield(next));
                }
                self.scopes.pop();
                let results: Vec<Value> = tys
                    .iter()
                    .map(|t| self.func.new_value(storage_ty(*t)))
                    .collect();
                b.push(
                    OpKind::While {
                        inits,
                        before: before_b.build(),
                        after: after_b.build(),
                    },
                    results.clone(),
                );
                for ((n, t), r) in assigned.iter().zip(&tys).zip(&results) {
                    let (idx, _) = self.lookup_var_for_assign(n)?;
                    self.set_var(idx, n, *r, *t);
                }
                Ok(false)
            }
            StmtKind::Foreach {
                count,
                step,
                ity,
                ivar,
                body,
            } => {
                let (cv, _) = self.lower_expr(count, b)?;
                let sv = match step {
                    Some(e) => self.lower_expr(e, b)?.0,
                    None => b.const_i32(self.func, 1),
                };
                let lo = b.const_i32(self.func, 0);
                let (body_stmts, flags) = strip_pragmas(body, self.thread_count_hint);
                let idx = self.func.new_value(Ty::I32);
                self.scopes.push(Scope::new(true));
                let sidx = self.scopes.len() - 1;
                self.set_var(sidx, ivar, idx, *ity);
                let mut body_b = RegionBuilder::with_args(vec![idx]);
                self.lower_block(&body_stmts, &mut body_b)?;
                if !matches!(body_b.last_kind(), Some(OpKind::Exit)) {
                    body_b.emit0(OpKind::Yield(vec![]));
                }
                self.scopes.pop();
                b.push(
                    OpKind::Foreach {
                        lo,
                        hi: cv,
                        step: sv,
                        body: body_b.build(),
                        reduce: vec![],
                        flags,
                    },
                    vec![],
                );
                Ok(false)
            }
            StmtKind::Replicate { ways, body } => {
                let (body_stmts, _) = strip_pragmas(body, self.thread_count_hint);
                let assigned = self.assigned_outer_vars(body_stmts.iter());
                self.scopes.push(Scope::new(false));
                let mut body_b = RegionBuilder::new();
                self.lower_block(&body_stmts, &mut body_b)?;
                let exits = matches!(body_b.last_kind(), Some(OpKind::Exit));
                if !exits {
                    let vals: Vec<Value> = assigned
                        .iter()
                        .map(|n| self.var(n).expect("assigned var exists").val)
                        .collect();
                    body_b.emit0(OpKind::Yield(vals));
                }
                self.scopes.pop();
                let results: Vec<Value> = assigned
                    .iter()
                    .map(|n| {
                        let ty = self.var(n).expect("assigned var exists").ty;
                        self.func.new_value(storage_ty(ty))
                    })
                    .collect();
                b.push(
                    OpKind::Replicate {
                        ways: *ways,
                        body: body_b.build(),
                    },
                    results.clone(),
                );
                for (n, r) in assigned.iter().zip(&results) {
                    let (idx, info) = self.lookup_var_for_assign(n)?;
                    self.set_var(idx, n, *r, info.ty);
                }
                Ok(false)
            }
            StmtKind::Fork {
                count,
                ity,
                ivar,
                body,
            } => {
                let (cv, _) = self.lower_expr(count, b)?;
                let assigned = self.assigned_outer_vars(body.iter());
                let idx = self.func.new_value(Ty::I32);
                self.scopes.push(Scope::new(false));
                let sidx = self.scopes.len() - 1;
                self.set_var(sidx, ivar, idx, *ity);
                let mut body_b = RegionBuilder::with_args(vec![idx]);
                self.lower_block(body, &mut body_b)?;
                if !matches!(body_b.last_kind(), Some(OpKind::Exit)) {
                    let vals: Vec<Value> = assigned
                        .iter()
                        .map(|n| self.var(n).expect("assigned var exists").val)
                        .collect();
                    body_b.emit0(OpKind::Yield(vals));
                }
                self.scopes.pop();
                let results: Vec<Value> = assigned
                    .iter()
                    .map(|n| {
                        let ty = self.var(n).expect("assigned var exists").ty;
                        self.func.new_value(storage_ty(ty))
                    })
                    .collect();
                b.push(
                    OpKind::Fork {
                        count: cv,
                        body: body_b.build(),
                    },
                    results.clone(),
                );
                for (n, r) in assigned.iter().zip(&results) {
                    let (idx, info) = self.lookup_var_for_assign(n)?;
                    self.set_var(idx, n, *r, info.ty);
                }
                Ok(false)
            }
            StmtKind::Exit => {
                b.emit0(OpKind::Exit);
                Ok(true)
            }
            StmtKind::Yield(_) => Err(LowerError::code(
                codes::SEM_BAD_YIELD_RETURN,
                "'yield' is only allowed as the final statement of a reducing foreach",
            )),
            StmtKind::Return(e) => {
                let vals = match e {
                    Some(e) => {
                        if self.ret == TyName::Void {
                            return Err(LowerError::code(
                                codes::SEM_BAD_YIELD_RETURN,
                                "void function returns a value",
                            ));
                        }
                        vec![self.lower_expr(e, b)?.0]
                    }
                    None => {
                        if self.ret != TyName::Void {
                            return Err(LowerError::code(
                                codes::SEM_BAD_YIELD_RETURN,
                                "non-void function returns nothing",
                            ));
                        }
                        vec![]
                    }
                };
                b.emit0(OpKind::Return(vals));
                Ok(true)
            }
            StmtKind::Pragma { name, value } => {
                if name == "threads" {
                    *self.thread_count_hint = value.map(|v| v as u32);
                    Ok(false)
                } else {
                    Err(LowerError::new(format!(
                        "pragma '{name}' is not valid here"
                    )))
                }
            }
            StmtKind::Bulk {
                sram,
                load,
                dram,
                base,
                len,
            } => {
                let d = *self.drams.get(dram).ok_or_else(|| {
                    LowerError::code(codes::SEM_UNKNOWN_NAME, format!("unknown dram '{dram}'"))
                })?;
                let (bv, _) = self.lower_expr(base, b)?;
                let (lv, _) = self.lower_expr(len, b)?;
                match self.lookup(sram).cloned() {
                    Some(Binding::Handle {
                        val,
                        kind: HandleKind::Sram,
                        ..
                    }) => {
                        // Bulk ops through raw SRAM handles are expressed as
                        // a loop of view accesses; the high-level lowering
                        // pass turns views into physical SRAM + real bulk
                        // ops. Here we emit the simple elementwise loop.
                        let zero = b.const_i32(self.func, 0);
                        let one = b.const_i32(self.func, 1);
                        let idx = self.func.new_value(Ty::I32);
                        let mut body_b = RegionBuilder::with_args(vec![idx]);
                        if *load {
                            let di = body_b.bin(self.func, AluOp::Add, bv, idx);
                            let v = body_b.emit(
                                self.func,
                                OpKind::DramRead { dram: d, idx: di },
                                Ty::I32,
                            );
                            body_b.push(
                                OpKind::ViewWrite {
                                    view: val,
                                    idx,
                                    val: v,
                                },
                                vec![],
                            );
                        } else {
                            let v = body_b.emit(
                                self.func,
                                OpKind::ViewRead { view: val, idx },
                                Ty::I32,
                            );
                            let di = body_b.bin(self.func, AluOp::Add, bv, idx);
                            body_b.push(
                                OpKind::DramWrite {
                                    dram: d,
                                    idx: di,
                                    val: v,
                                },
                                vec![],
                            );
                        }
                        body_b.emit0(OpKind::Yield(vec![]));
                        b.push(
                            OpKind::Foreach {
                                lo: zero,
                                hi: lv,
                                step: one,
                                body: body_b.build(),
                                reduce: vec![],
                                flags: ForeachFlags::default(),
                            },
                            vec![],
                        );
                        Ok(false)
                    }
                    _ => Err(LowerError::code(
                        codes::SEM_KIND_MISUSE,
                        format!("'{sram}' is not a raw SRAM"),
                    )),
                }
            }
        }
    }

    /// Variables from enclosing scopes assigned anywhere in `stmts`
    /// (deterministic order).
    fn assigned_outer_vars<'s>(&self, stmts: impl Iterator<Item = &'s Stmt>) -> Vec<String> {
        let mut declared = HashSet::new();
        let mut out = Vec::new();
        for s in stmts {
            collect_assigned(s, &mut declared, &mut out);
        }
        out.retain(|n| self.var(n).is_some());
        out
    }
}

fn collect_assigned(s: &Stmt, declared: &mut HashSet<String>, out: &mut Vec<String>) {
    let add = |n: &String, declared: &HashSet<String>, out: &mut Vec<String>| {
        if !declared.contains(n) && !out.contains(n) {
            out.push(n.clone());
        }
    };
    match &s.kind {
        StmtKind::Decl { name, .. } | StmtKind::Mem { name, .. } => {
            declared.insert(name.clone());
        }
        StmtKind::Assign { name, .. } => add(name, declared, out),
        StmtKind::If { then, els, .. } => {
            // Each branch has its own declaration scope.
            let mut d1 = declared.clone();
            for t in then {
                collect_assigned(t, &mut d1, out);
            }
            let mut d2 = declared.clone();
            for t in els {
                collect_assigned(t, &mut d2, out);
            }
        }
        StmtKind::While { body, .. } | StmtKind::Replicate { body, .. } => {
            let mut d = declared.clone();
            for t in body {
                collect_assigned(t, &mut d, out);
            }
        }
        StmtKind::Fork { body, ivar, .. } => {
            let mut d = declared.clone();
            d.insert(ivar.clone());
            for t in body {
                collect_assigned(t, &mut d, out);
            }
        }
        // foreach bodies cannot assign parent variables (checked later).
        StmtKind::Foreach { .. } => {}
        _ => {}
    }
}

/// Splits a trailing `yield e;` from a statement list.
fn split_trailing_yield(stmts: &[Stmt]) -> Result<(&[Stmt], Option<&Expr>), LowerError> {
    match stmts.last().map(|s| &s.kind) {
        Some(StmtKind::Yield(e)) => Ok((&stmts[..stmts.len() - 1], Some(e))),
        _ => Ok((stmts, None)),
    }
}

/// Removes leading pragmas from a body, interpreting them.
fn strip_pragmas<'s>(
    stmts: &'s [Stmt],
    thread_hint: &mut Option<u32>,
) -> (Vec<Stmt>, ForeachFlags) {
    let mut flags = ForeachFlags::default();
    let mut rest: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for s in stmts {
        if let StmtKind::Pragma { name, value } = &s.kind {
            match name.as_str() {
                "eliminate_hierarchy" => {
                    flags.eliminate_hierarchy = true;
                    continue;
                }
                "threads" => {
                    *thread_hint = value.map(|v| v as u32);
                    continue;
                }
                _ => {}
            }
        }
        rest.push(s.clone());
    }
    let _ = &rest;
    (rest, flags)
}

/// Picks the ALU op for a surface operator given operand signedness.
fn select_alu(op: BinOp, signed: bool) -> Result<(AluOp, TyName), LowerError> {
    use AluOp as A;
    let t = if signed { TyName::I32 } else { TyName::U32 };
    Ok(match op {
        BinOp::Add => (A::Add, t),
        BinOp::Sub => (A::Sub, t),
        BinOp::Mul => (A::Mul, t),
        BinOp::Div => (if signed { A::DivS } else { A::DivU }, t),
        BinOp::Rem => (if signed { A::RemS } else { A::RemU }, t),
        BinOp::And => (A::And, t),
        BinOp::Or => (A::Or, t),
        BinOp::Xor => (A::Xor, t),
        BinOp::Shl => (A::Shl, t),
        BinOp::Shr => (if signed { A::ShrS } else { A::ShrU }, t),
        BinOp::Eq => (A::Eq, TyName::U32),
        BinOp::Ne => (A::Ne, TyName::U32),
        BinOp::Lt => (if signed { A::LtS } else { A::LtU }, TyName::U32),
        BinOp::Le => (if signed { A::LeS } else { A::LeU }, TyName::U32),
        BinOp::Gt => (if signed { A::GtS } else { A::GtU }, TyName::U32),
        BinOp::Ge => (if signed { A::GeS } else { A::GeU }, TyName::U32),
        BinOp::LAnd | BinOp::LOr => (A::And, TyName::U32),
    })
}

fn out_ty_for(base: TyName, _l: TyName, _r: TyName, signed: bool) -> TyName {
    match base {
        TyName::U32 if signed => TyName::I32,
        other => other,
    }
}

/// Promotes a storage type to its 32-bit compute type.
fn promote(t: TyName) -> TyName {
    if t.signed() {
        TyName::I32
    } else {
        TyName::U32
    }
}

fn reduce_alu(op: ReduceOp) -> AluOp {
    match op {
        ReduceOp::Add => AluOp::Add,
        ReduceOp::Mul => AluOp::Mul,
        ReduceOp::And => AluOp::And,
        ReduceOp::Or => AluOp::Or,
        ReduceOp::Xor => AluOp::Xor,
        ReduceOp::Min => AluOp::MinU,
        ReduceOp::Max => AluOp::MaxU,
    }
}
