//! Recursive-descent parser for the Revet language, with error recovery.
//!
//! The parser accumulates every syntax error into a
//! [`Diagnostics`] sink instead of stopping at the first: a failed
//! statement resynchronizes at the next `;` or the enclosing `}` (nested
//! braces are skipped as a unit), a failed top-level item resynchronizes
//! at the next plausible item start. One run therefore reports *all*
//! independent syntax errors, each with a byte [`Span`] pointing at the
//! offending token.
//!
//! Operators, type names and view / iterator keywords are read from the
//! tables in [`crate::ast`]; nothing here spells one.

#![warn(clippy::too_many_lines)]

use crate::ast::*;
use crate::token::{lex, Spanned, Tok};
use revet_diag::{codes, Diagnostic, Diagnostics, Span};

/// Hard error budget: after this many diagnostics the parse is abandoned
/// (prevents error avalanches on pathological input).
const MAX_ERRORS: usize = 20;

type PResult<T> = Result<T, Diagnostic>;

/// Parses a complete program.
///
/// # Errors
///
/// Returns **all** lex and parse diagnostics found in one pass (parser
/// recovery resynchronizes at `;` / `}` boundaries), each carrying a span.
pub fn parse_program(src: &str) -> Result<Program, Diagnostics> {
    let (toks, lex_diags) = lex(src);
    let mut p = Parser {
        toks,
        pos: 0,
        diags: lex_diags.into_iter().collect(),
    };
    let prog = p.program();
    if p.diags.has_errors() {
        // Lexer and parser diagnostics interleave; report in source order.
        p.diags.sort_by_span();
        Err(p.diags)
    } else {
        Ok(prog)
    }
}

struct Parser<'src> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
    diags: Diagnostics,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    fn peek2(&self) -> Tok<'src> {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    /// Span of the token about to be consumed.
    fn cur_span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Span of the last consumed token (statement-end attribution).
    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    /// Consumes the current token and returns it. The last token is `Eof`
    /// and stays current.
    fn bump(&mut self) -> Tok<'src> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        self.err_code(codes::PARSE_EXPECTED, msg)
    }

    fn err_code<T>(&self, code: &'static str, msg: impl Into<String>) -> PResult<T> {
        Err(Diagnostic::error(code, msg).with_span(self.cur_span()))
    }

    fn over_budget(&self) -> bool {
        self.diags.len() >= MAX_ERRORS
    }

    fn report(&mut self, e: Diagnostic) {
        self.diags.push(e);
        if self.diags.len() == MAX_ERRORS {
            self.diags.push(
                Diagnostic::error(
                    codes::PARSE_TOO_MANY_ERRORS,
                    format!("too many errors ({MAX_ERRORS}); abandoning the parse"),
                )
                .with_span(self.cur_span()),
            );
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        match self.peek() {
            Tok::Punct(q) if q == p => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected '{p}', found {other}")),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> PResult<&'src str> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// An identifier the AST keeps: the one place a name is copied out of
    /// the source.
    fn name(&mut self) -> PResult<String> {
        self.expect_ident().map(str::to_owned)
    }

    fn expect_int(&mut self) -> PResult<i64> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => self.err(format!("expected integer, found {other}")),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// `< inner >` — type and size arguments (the comparison signs).
    fn angled<T>(&mut self, inner: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.expect_punct(BinOp::Lt.symbol())?;
        let t = inner(self)?;
        self.expect_punct(BinOp::Gt.symbol())?;
        Ok(t)
    }

    /// `( expr )`.
    fn paren_expr(&mut self) -> PResult<Expr> {
        self.expect_punct("(")?;
        let e = self.expr()?;
        self.expect_punct(")")?;
        Ok(e)
    }

    // ---- recovery ----

    /// After a failed statement: skip to just past the next `;` at this
    /// nesting depth, or stop before the enclosing `}` / end of input.
    /// Nested `{ … }` groups are skipped whole.
    fn recover_stmt(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Punct(";") if depth == 0 => {
                    self.bump();
                    return;
                }
                Tok::Punct("{") => {
                    depth += 1;
                    self.bump();
                }
                Tok::Punct("}") => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// After a failed top-level item: skip to the next plausible item
    /// start (`dram`, a type name, or end of input), consuming any
    /// intervening brace groups whole.
    fn recover_item(&mut self) {
        // Always make progress, even if the current token looks like an
        // item start (it was part of the failed item).
        if !matches!(self.peek(), Tok::Eof) {
            if self.eat_punct("{") {
                self.skip_brace_group();
            } else {
                self.bump();
            }
        }
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Ident(s) if s == "dram" || TyName::parse(s).is_some() => return,
                Tok::Punct("{") => {
                    self.bump();
                    self.skip_brace_group();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Consumes tokens up to and including the `}` matching an already
    /// consumed `{`.
    fn skip_brace_group(&mut self) {
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                Tok::Eof => return,
                Tok::Punct("{") => depth += 1,
                Tok::Punct("}") => depth -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    // ---- items ----

    fn program(&mut self) -> Program {
        let mut prog = Program::default();
        while !self.over_budget() {
            let item = match self.peek() {
                Tok::Eof => break,
                Tok::Ident("dram") => self.dram_decl().map(|d| prog.drams.push(d)),
                Tok::Ident(s) if TyName::parse(s).is_some() => {
                    self.func().map(|f| prog.funcs.push(f))
                }
                other => self.err_code(
                    codes::PARSE_BAD_ITEM,
                    format!("expected 'dram' declaration or function, found {other}"),
                ),
            };
            if let Err(e) = item {
                self.report(e);
                self.recover_item();
            }
        }
        prog
    }

    fn dram_decl(&mut self) -> PResult<DramDeclAst> {
        let start = self.cur_span().start;
        self.bump(); // dram
        let ty = self.angled(Self::ty)?;
        let name = self.name()?;
        self.expect_punct(";")?;
        Ok(DramDeclAst {
            name,
            ty,
            span: Span::new(start, self.prev_span().end),
        })
    }

    fn ty(&mut self) -> PResult<TyName> {
        match self.peek() {
            Tok::Ident(name) => match TyName::parse(name) {
                Some(t) => {
                    self.bump();
                    Ok(t)
                }
                None => self.err_code(codes::PARSE_UNKNOWN_TYPE, format!("unknown type '{name}'")),
            },
            other => self.err(format!("expected type name, found {other}")),
        }
    }

    fn func(&mut self) -> PResult<FuncAst> {
        let start = self.cur_span().start;
        let ret = self.ty()?;
        let name = self.name()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pty = self.ty()?;
                let pname = self.name()?;
                params.push((pty, pname));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let span = Span::new(start, self.prev_span().end);
        let body = self.block()?;
        Ok(FuncAst {
            name,
            ret,
            params,
            body,
            span,
        })
    }

    // ---- statements ----

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect_punct("{")?;
        self.stmt_seq()
    }

    /// A block followed by an optional semicolon (the paper writes `};`).
    fn block_semi(&mut self) -> PResult<Vec<Stmt>> {
        let b = self.block()?;
        self.eat_punct(";");
        Ok(b)
    }

    /// `{ ty i => stmts }` — a thread body binding its index variable.
    fn thread_body(&mut self) -> PResult<(TyName, String, Vec<Stmt>)> {
        self.expect_punct("{")?;
        let ity = self.ty()?;
        let ivar = self.name()?;
        self.expect_punct("=>")?;
        Ok((ity, ivar, self.stmt_seq()?))
    }

    /// Parses statements until the closing `}` (consumed), recovering from
    /// individual statement failures so every statement-level error in the
    /// block is reported.
    fn stmt_seq(&mut self) -> PResult<Vec<Stmt>> {
        let mut stmts = Vec::new();
        loop {
            if self.eat_punct("}") {
                return Ok(stmts);
            }
            if matches!(self.peek(), Tok::Eof) {
                return self.err("expected '}', found end of input");
            }
            if self.over_budget() {
                return Ok(stmts);
            }
            match self.stmt() {
                Ok(s) => stmts.push(s),
                Err(e) => {
                    self.report(e);
                    self.recover_stmt();
                }
            }
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let start = self.cur_span().start;
        let kind = if self.eat_punct(DEREF) {
            // `*it = e;`
            let it = self.name()?;
            self.expect_punct("=")?;
            let value = self.expr_semi()?;
            StmtKind::DerefStore { it, value }
        } else if let Some(kind) = self.keyword_stmt()? {
            kind
        } else {
            self.named_stmt()?
        };
        Ok(Stmt::new(kind, Span::new(start, self.prev_span().end)))
    }

    /// `expr ;`
    fn expr_semi(&mut self) -> PResult<Expr> {
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(e)
    }

    /// A statement introduced by a keyword, if the current token is one.
    fn keyword_stmt(&mut self) -> PResult<Option<StmtKind>> {
        let Tok::Ident(kw) = self.peek() else {
            return Ok(None);
        };
        if let Some(kind) = TileKind::parse(kw) {
            self.bump();
            return self.tile_decl(kind).map(Some);
        }
        if TyName::parse(kw).is_some() && matches!(self.peek2(), Tok::Ident(_)) {
            return self.decl().map(Some);
        }
        let parse: fn(&mut Self) -> PResult<StmtKind> = match kw {
            "if" => Self::if_stmt,
            "while" => |p| {
                let cond = p.paren_expr()?;
                let body = p.block_semi()?;
                Ok(StmtKind::While { cond, body })
            },
            "foreach" => |p| {
                let (_, fe) = p.foreach(false)?;
                p.eat_punct(";");
                Ok(StmtKind::Foreach(fe))
            },
            "replicate" => |p| {
                p.expect_punct("(")?;
                let ways = p.expect_int()? as u32;
                p.expect_punct(")")?;
                let body = p.block_semi()?;
                Ok(StmtKind::Replicate { ways, body })
            },
            "fork" => |p| {
                let count = p.paren_expr()?;
                let (ity, ivar, body) = p.thread_body()?;
                p.eat_punct(";");
                Ok(StmtKind::Fork {
                    count,
                    ity,
                    ivar,
                    body,
                })
            },
            "exit" => |p| p.expect_punct(";").map(|()| StmtKind::Exit),
            "yield" => |p| p.expr_semi().map(StmtKind::Yield),
            "return" => |p| {
                if p.eat_punct(";") {
                    return Ok(StmtKind::Return(None));
                }
                p.expr_semi().map(|e| StmtKind::Return(Some(e)))
            },
            "pragma" => Self::pragma,
            "sram" => Self::sram_decl,
            _ => return Ok(None),
        };
        self.bump();
        parse(self).map(Some)
    }

    /// After `if`.
    fn if_stmt(&mut self) -> PResult<StmtKind> {
        let cond = self.paren_expr()?;
        let then = self.block()?;
        let els = if self.eat_kw("else") {
            self.block_semi()?
        } else {
            self.eat_punct(";");
            Vec::new()
        };
        Ok(StmtKind::If { cond, then, els })
    }

    /// After `pragma`.
    fn pragma(&mut self) -> PResult<StmtKind> {
        self.expect_punct("(")?;
        let name = self.name()?;
        let value = if self.eat_punct(",") {
            Some(self.expect_int()?)
        } else {
            None
        };
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok(StmtKind::Pragma { name, value })
    }

    /// After `sram`: `<ty, size> name;`.
    fn sram_decl(&mut self) -> PResult<StmtKind> {
        let (ty, size) = self.angled(|p| {
            let ty = p.ty()?;
            p.expect_punct(",")?;
            Ok((ty, p.expect_int()?))
        })?;
        let name = self.name()?;
        self.expect_punct(";")?;
        let decl = MemDecl::Sram { ty, size };
        Ok(StmtKind::Mem { name, decl })
    }

    /// After a view or iterator keyword: `<size> name(dram, at);`.
    fn tile_decl(&mut self, kind: TileKind) -> PResult<StmtKind> {
        let size = self.angled(Self::expect_int)?;
        let name = self.name()?;
        self.expect_punct("(")?;
        let dram = self.name()?;
        self.expect_punct(",")?;
        let at = self.expr()?;
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        let decl = MemDecl::Tile {
            kind,
            size,
            dram,
            at,
        };
        Ok(StmtKind::Mem { name, decl })
    }

    /// `ty name [= init];` — the initializer an expression or a reducing
    /// `foreach`.
    fn decl(&mut self) -> PResult<StmtKind> {
        let ty = self.ty()?;
        let name = self.name()?;
        let init = if !self.eat_punct("=") {
            None
        } else if self.eat_kw("foreach") {
            let (op, fe) = self.foreach(true)?;
            Some(Init::Reduce(op.expect("a reducing foreach"), fe))
        } else {
            Some(Init::Expr(self.expr()?))
        };
        self.expect_punct(";")?;
        Ok(StmtKind::Decl { ty, name, init })
    }

    /// After `foreach`: `(count [by step]) [reduce(op)] { ty i => stmts }`,
    /// the `reduce(op)` exactly when the position is `reducing`.
    fn foreach(&mut self, reducing: bool) -> PResult<(Option<ReduceOp>, Foreach)> {
        self.expect_punct("(")?;
        let count = self.expr()?;
        let step = if self.eat_kw("by") {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(")")?;
        let op = if reducing {
            if !self.eat_kw("reduce") {
                return self.err("foreach in expression position needs 'reduce(op)'");
            }
            self.expect_punct("(")?;
            let spelled = match self.peek() {
                Tok::Punct(p) => ReduceOp::TABLE.iter().find(|(_, s, _)| *s == p),
                Tok::Ident(i) => ReduceOp::TABLE.iter().find(|(_, s, _)| *s == i),
                _ => None,
            };
            let Some(&(op, ..)) = spelled else {
                let other = self.peek();
                return self.err(format!("unknown reduction operator {other}"));
            };
            self.bump();
            self.expect_punct(")")?;
            Some(op)
        } else {
            None
        };
        let (ity, ivar, body) = self.thread_body()?;
        let fe = Foreach {
            count,
            step,
            ity,
            ivar,
            body,
        };
        Ok((op, fe))
    }

    /// A statement that starts with a name: assignment, store, their
    /// compound forms, increment, or a method call.
    fn named_stmt(&mut self) -> PResult<StmtKind> {
        let name = self.name()?;
        if self.eat_punct(".") {
            return self.method_stmt(name);
        }
        if self.eat_punct("++") {
            self.expect_punct(";")?;
            return Ok(StmtKind::Inc {
                it: name,
                last: None,
            });
        }
        let idx = if self.eat_punct("[") {
            let idx = self.expr()?;
            self.expect_punct("]")?;
            Some(idx)
        } else {
            None
        };
        // `target op= e` desugars to `target = target op e`.
        let compound = match self.peek() {
            Tok::Punct(p) => BinOp::TABLE.iter().find(|r| r.compound == Some(p)),
            _ => None,
        };
        if compound.is_some() {
            self.bump();
        } else {
            self.expect_punct("=")?;
        }
        let rhs = self.expr_semi()?;
        let value = |cur: Expr| match compound {
            Some(row) => Expr::Bin(row.op, Box::new(cur), Box::new(rhs)),
            None => rhs,
        };
        Ok(match idx {
            Some(idx) => StmtKind::Store {
                value: value(Expr::Index(name.clone(), Box::new(idx.clone()))),
                base: name,
                idx,
            },
            None => StmtKind::Assign {
                value: value(Expr::Var(name.clone())),
                name,
            },
        })
    }

    /// After `name .`: `load` / `store` bulk transfers and `inc(last)`.
    fn method_stmt(&mut self, name: String) -> PResult<StmtKind> {
        let method = self.expect_ident()?;
        let kind = match method {
            "load" | "store" => {
                self.expect_punct("(")?;
                let dram = self.name()?;
                self.expect_punct(",")?;
                let base = self.expr()?;
                self.expect_punct(",")?;
                let len = self.expr()?;
                self.expect_punct(")")?;
                StmtKind::Bulk {
                    sram: name,
                    load: method == "load",
                    dram,
                    base,
                    len,
                }
            }
            "inc" => StmtKind::Inc {
                it: name,
                last: Some(self.paren_expr()?),
            },
            other => return self.err(format!("unknown method '{other}'")),
        };
        self.expect_punct(";")?;
        Ok(kind)
    }

    // ---- expressions ----

    fn expr(&mut self) -> PResult<Expr> {
        self.binary(1)
    }

    /// Precedence climbing over [`BinOp::TABLE`]: an operand, then every
    /// operator binding at least as tightly as `min_prec`, each taking a
    /// right operand of strictly tighter operators (left associativity).
    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let row = match self.peek() {
                Tok::Punct(p) => BinOp::TABLE.iter().find(|r| r.symbol == p),
                _ => None,
            };
            let Some(row) = row.filter(|r| r.prec >= min_prec) else {
                return Ok(lhs);
            };
            self.bump();
            let rhs = self.binary(row.prec + 1)?;
            lhs = Expr::Bin(row.op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> PResult<Expr> {
        if let Tok::Punct(p) = self.peek() {
            if let Some(&(op, _)) = UnOp::TABLE.iter().find(|(_, s)| *s == p) {
                self.bump();
                return Ok(Expr::Un(op, Box::new(self.unary()?)));
            }
        }
        if self.eat_punct(DEREF) {
            return Ok(Expr::Deref(self.name()?));
        }
        // Cast: `(ty) e` — lookahead for `( tyname )`.
        if matches!(self.peek(), Tok::Punct("(")) {
            if let Tok::Ident(s) = self.peek2() {
                if TyName::parse(s).is_some()
                    && matches!(
                        self.toks.get(self.pos + 2).map(|t| &t.tok),
                        Some(Tok::Punct(")"))
                    )
                {
                    self.bump(); // (
                    let ty = self.ty()?;
                    self.bump(); // )
                    let e = self.unary()?;
                    return Ok(Expr::Cast(ty, Box::new(e)));
                }
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        if matches!(self.peek(), Tok::Punct("(")) {
            return self.paren_expr();
        }
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::Ident(name) => {
                self.bump();
                let name = name.to_owned();
                if self.eat_punct("[") {
                    let idx = self.expr()?;
                    self.expect_punct("]")?;
                    return Ok(Expr::Index(name, Box::new(idx)));
                }
                if matches!(self.peek(), Tok::Punct(".")) {
                    if let Tok::Ident(m) = self.peek2() {
                        if m == "peek" {
                            self.bump(); // .
                            self.bump(); // peek
                            return Ok(Expr::Peek(name, Box::new(self.paren_expr()?)));
                        }
                    }
                }
                Ok(Expr::Var(name))
            }
            other => self.err_code(
                codes::PARSE_EXPECTED_EXPR,
                format!("expected expression, found {other}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_diag::SourceMap;

    #[test]
    fn parses_minimal_program() {
        let p = parse_program(
            "dram<u32> output;\nvoid main(u32 n) { foreach (n) { u32 i => output[i] = i * i; }; }",
        )
        .unwrap();
        assert_eq!(p.drams.len(), 1);
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::Foreach(_)));
    }

    #[test]
    fn parses_strlen_shape() {
        // The Fig. 7 structure (simplified sizes).
        let src = r#"
            dram<u8> input; dram<u32> offsets; dram<u32> lengths;
            void main(u32 count) {
                foreach (count by 4) { u32 outer =>
                    readview<4> in_view(offsets, outer);
                    writeview<4> out_view(lengths, outer);
                    foreach (4) { u32 idx =>
                        pragma(eliminate_hierarchy);
                        u32 len = 0;
                        u32 off = in_view[idx];
                        replicate (2) {
                            readit<8> it(input, off);
                            while (*it) {
                                len = len + 1;
                                it++;
                            };
                        };
                        out_view[idx] = len;
                    };
                };
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.drams.len(), 3);
        let f = &p.funcs[0];
        let StmtKind::Foreach(Foreach { body, step, .. }) = &f.body[0].kind else {
            panic!("expected foreach");
        };
        assert!(step.is_some());
        assert!(matches!(body[0].kind, StmtKind::Mem { .. }));
    }

    #[test]
    fn precedence() {
        let p = parse_program("void main() { u32 x = 1 + 2 * 3 == 7; }").unwrap();
        let StmtKind::Decl {
            init: Some(Init::Expr(e)),
            ..
        } = &p.funcs[0].body[0].kind
        else {
            panic!()
        };
        // (1 + (2*3)) == 7
        assert!(matches!(e, Expr::Bin(BinOp::Eq, ..)));
    }

    #[test]
    fn foreach_reduce_expression() {
        let p = parse_program(
            "void main() { u32 m = foreach (15) reduce(&) { u32 lane => yield lane; }; }",
        )
        .unwrap();
        assert!(matches!(
            p.funcs[0].body[0].kind,
            StmtKind::Decl {
                init: Some(Init::Reduce(ReduceOp::And, _)),
                ..
            }
        ));
    }

    #[test]
    fn fork_exit_and_pragmas() {
        let p = parse_program(
            "void main() { fork (3) { u32 i => if (i) { exit; }; }; pragma(threads, 64); }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::Fork { .. }));
        assert!(matches!(
            p.funcs[0].body[1].kind,
            StmtKind::Pragma {
                value: Some(64),
                ..
            }
        ));
    }

    #[test]
    fn iterators_and_stores() {
        let p = parse_program(
            r#"dram<u8> d; void main() {
                manualwriteit<4> w(d, 0);
                *w = 65;
                w.inc(1);
                peekreadit<4> r(d, 0);
                u32 x = r.peek(2);
                u32 y = *r;
            }"#,
        )
        .unwrap();
        let b = &p.funcs[0].body;
        assert!(matches!(b[1].kind, StmtKind::DerefStore { .. }));
        assert!(matches!(b[2].kind, StmtKind::Inc { last: Some(_), .. }));
        assert!(matches!(
            b[4].kind,
            StmtKind::Decl {
                init: Some(Init::Expr(Expr::Peek(..))),
                ..
            }
        ));
    }

    #[test]
    fn compound_assignment_desugars() {
        let p = parse_program("void main() { u32 x = 0; x += 2; }").unwrap();
        let StmtKind::Assign { value, .. } = &p.funcs[0].body[1].kind else {
            panic!()
        };
        assert!(matches!(value, Expr::Bin(BinOp::Add, ..)));
    }

    #[test]
    fn every_compound_form_desugars_on_variables_and_elements() {
        for row in BinOp::TABLE {
            let Some(tok) = row.compound else { continue };
            let src = format!("dram<u32> a; void main() {{ u32 x = 0; x {tok} 2; a[x] {tok} 3; }}");
            let p = parse_program(&src).unwrap_or_else(|d| panic!("{tok}: {d}"));
            let StmtKind::Assign { value, .. } = &p.funcs[0].body[1].kind else {
                panic!("{tok}")
            };
            assert!(matches!(value, Expr::Bin(op, l, _) if *op == row.op
                && **l == Expr::Var("x".into())));
            let StmtKind::Store { idx, value, .. } = &p.funcs[0].body[2].kind else {
                panic!("{tok}")
            };
            assert!(matches!(value, Expr::Bin(op, l, _) if *op == row.op
                && **l == Expr::Index("a".into(), Box::new(idx.clone()))));
        }
    }

    #[test]
    fn binary_operators_climb_the_table() {
        // Every pair of operators: the tighter one nests under the looser
        // one, and equal precedence associates to the left.
        for a in BinOp::TABLE {
            for b in BinOp::TABLE {
                let src = format!("void main() {{ u32 x = 1 {} 2 {} 3; }}", a.symbol, b.symbol);
                let p = parse_program(&src).unwrap_or_else(|d| panic!("{src}: {d}"));
                let StmtKind::Decl {
                    init: Some(Init::Expr(Expr::Bin(top, l, r))),
                    ..
                } = &p.funcs[0].body[0].kind
                else {
                    panic!("{src}")
                };
                if a.prec >= b.prec {
                    assert_eq!(*top, b.op, "{src}");
                    assert!(matches!(**l, Expr::Bin(op, ..) if op == a.op), "{src}");
                } else {
                    assert_eq!(*top, a.op, "{src}");
                    assert!(matches!(**r, Expr::Bin(op, ..) if op == b.op), "{src}");
                }
            }
        }
    }

    #[test]
    fn bulk_transfers() {
        let p = parse_program(
            "dram<u32> d; void main() { sram<u32, 16> buf; buf.load(d, 0, 16); buf.store(d, 0, 16); }",
        )
        .unwrap();
        assert!(matches!(
            p.funcs[0].body[1].kind,
            StmtKind::Bulk { load: true, .. }
        ));
        assert!(matches!(
            p.funcs[0].body[2].kind,
            StmtKind::Bulk { load: false, .. }
        ));
    }

    #[test]
    fn errors_have_spans() {
        let src = "void main() {\n  u32 x = ;\n}";
        let diags = parse_program(src).unwrap_err();
        assert_eq!(diags.error_count(), 1);
        let d = &diags.as_slice()[0];
        assert_eq!(d.code, codes::PARSE_EXPECTED_EXPR);
        let lc = SourceMap::new(src).line_col(d.span.expect("spanned").start);
        assert_eq!((lc.line, lc.col), (2, 11));
    }

    #[test]
    fn recovery_reports_multiple_statement_errors() {
        // Two independent bad statements; the good one between them parses.
        let src = "void main() {\n  u32 x = ;\n  u32 y = 1;\n  y = @ 2;\n}";
        let diags = parse_program(src).unwrap_err();
        assert_eq!(diags.error_count(), 2, "{diags}");
        let map = SourceMap::new(src);
        let lines: Vec<u32> = diags
            .iter()
            .map(|d| map.line_col(d.span.expect("spanned").start).line)
            .collect();
        assert_eq!(lines, vec![2, 4]);
    }

    #[test]
    fn recovery_crosses_functions() {
        // A broken function does not hide errors in the next one.
        let src = "void f() { u32 a = ; }\nvoid g() { return 3 }";
        let diags = parse_program(src).unwrap_err();
        assert_eq!(diags.error_count(), 2, "{diags}");
    }

    #[test]
    fn statement_spans_cover_the_text() {
        let src = "void main() { u32 x = 1 + 2; }";
        let p = parse_program(src).unwrap();
        let s = &p.funcs[0].body[0];
        assert_eq!(
            &src[s.span.start as usize..s.span.end as usize],
            "u32 x = 1 + 2;"
        );
        assert_eq!(
            &src[p.funcs[0].span.start as usize..p.funcs[0].span.end as usize],
            "void main()"
        );
    }

    #[test]
    fn error_budget_caps_the_avalanche() {
        let bad = "void main() { ".to_string() + &"u32 x = ;\n".repeat(100) + "}";
        let diags = parse_program(&bad).unwrap_err();
        assert!(diags.len() <= MAX_ERRORS + 1, "{}", diags.len());
        assert!(diags.iter().any(|d| d.code == codes::PARSE_TOO_MANY_ERRORS));
    }

    #[test]
    fn unclosed_block_is_a_single_clean_error() {
        let diags = parse_program("void main() { u32 x = 1;").unwrap_err();
        assert_eq!(diags.error_count(), 1, "{diags}");
        assert!(diags.as_slice()[0].message.contains("end of input"));
    }

    #[test]
    fn cast_expression() {
        let p = parse_program("void main() { u32 x = (u8) 300; }").unwrap();
        let StmtKind::Decl {
            init: Some(Init::Expr(e)),
            ..
        } = &p.funcs[0].body[0].kind
        else {
            panic!()
        };
        assert!(matches!(e, Expr::Cast(TyName::U8, _)));
    }
}
