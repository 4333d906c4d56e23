//! AST → Revet source printer: the inverse of [`crate::parse_program`].
//!
//! Generators build [`crate::ast`] values directly (with dummy spans) and
//! this module renders them back to concrete syntax, spelling every
//! operator, type and keyword through the same tables the parser reads.
//! Every composite expression is printed fully parenthesized, so operator
//! precedence can never reassociate a printed program, and `(ty)(e)` casts
//! stay unambiguous under the parser's three-token cast lookahead.
//! `print_program(parse(print_program(ast)))` is a fixpoint —
//! `tests/roundtrip.rs` pins that over every construct.

#![warn(clippy::too_many_lines)]

use crate::ast::{Expr, Foreach, FuncAst, Init, MemDecl, Program, ReduceOp, Stmt, StmtKind, DEREF};
use std::fmt::Write;

/// Renders a whole program as compilable Revet source.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for d in &p.drams {
        let _ = writeln!(out, "dram<{}> {};", d.ty.name(), d.name);
    }
    for f in &p.funcs {
        if !p.drams.is_empty() {
            out.push('\n');
        }
        print_func(f, &mut out);
    }
    out
}

fn print_func(f: &FuncAst, out: &mut String) {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(t, n)| format!("{} {}", t.name(), n))
        .collect();
    let _ = writeln!(out, "{} {}({}) {{", f.ret.name(), f.name, params.join(", "));
    print_body(&f.body, 1, out);
    out.push_str("}\n");
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("    ");
    }
}

fn print_body(body: &[Stmt], depth: usize, out: &mut String) {
    for s in body {
        print_stmt(s, depth, out);
    }
}

/// `header {\n body }` closed at `depth` with `};`.
fn print_block(header: &str, body: &[Stmt], depth: usize, out: &mut String) {
    let _ = writeln!(out, "{header}");
    print_body(body, depth + 1, out);
    indent(depth, out);
    out.push_str("};\n");
}

/// `foreach (count [by step]) [reduce(op) ]{ ty i =>` — both forms' header.
fn foreach_header(fe: &Foreach, reduce: Option<ReduceOp>) -> String {
    let mut out = format!("foreach ({}", expr(&fe.count));
    if let Some(st) = &fe.step {
        let _ = write!(out, " by {}", expr(st));
    }
    out.push_str(") ");
    if let Some(op) = reduce {
        let _ = write!(out, "reduce({}) ", op.symbol());
    }
    let _ = write!(out, "{{ {} {} =>", fe.ity.name(), fe.ivar);
    out
}

fn print_stmt(s: &Stmt, depth: usize, out: &mut String) {
    indent(depth, out);
    let line = match &s.kind {
        StmtKind::Decl { ty, name, init } => match init {
            Some(Init::Expr(e)) => format!("{} {} = {};", ty.name(), name, expr(e)),
            Some(Init::Reduce(op, fe)) => {
                // Reduce bodies sit at a fixed two-level indent whatever the
                // declaration's depth (the parser is whitespace-insensitive,
                // and reproducer files depend on this text byte for byte).
                let mut body = String::new();
                print_body(&fe.body, 2, &mut body);
                let header = foreach_header(fe, Some(*op));
                format!("{} {} = {header}\n{body}    }};", ty.name(), name)
            }
            None => format!("{} {};", ty.name(), name),
        },
        StmtKind::Mem { name, decl } => match decl {
            MemDecl::Sram { ty, size } => format!("sram<{}, {}> {};", ty.name(), size, name),
            MemDecl::Tile {
                kind,
                size,
                dram,
                at,
            } => format!("{}<{size}> {name}({dram}, {});", kind.keyword(), expr(at)),
        },
        StmtKind::Assign { name, value } => format!("{} = {};", name, expr(value)),
        StmtKind::Store { base, idx, value } => {
            format!("{}[{}] = {};", base, expr(idx), expr(value))
        }
        StmtKind::DerefStore { it, value } => format!("{DEREF}{} = {};", it, expr(value)),
        StmtKind::Inc { it, last } => match last {
            Some(e) => format!("{}.inc({});", it, expr(e)),
            None => format!("{it}++;"),
        },
        StmtKind::If { cond, then, els } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond));
            print_body(then, depth + 1, out);
            indent(depth, out);
            if els.is_empty() {
                out.push_str("};\n");
            } else {
                print_block("} else {", els, depth, out);
            }
            return;
        }
        StmtKind::While { cond, body } => {
            return print_block(&format!("while ({}) {{", expr(cond)), body, depth, out);
        }
        StmtKind::Foreach(fe) => {
            return print_block(&foreach_header(fe, None), &fe.body, depth, out);
        }
        StmtKind::Replicate { ways, body } => {
            return print_block(&format!("replicate ({ways}) {{"), body, depth, out);
        }
        StmtKind::Fork {
            count,
            ity,
            ivar,
            body,
        } => {
            let header = format!("fork ({}) {{ {} {} =>", expr(count), ity.name(), ivar);
            return print_block(&header, body, depth, out);
        }
        StmtKind::Exit => "exit;".to_string(),
        StmtKind::Yield(e) => format!("yield {};", expr(e)),
        StmtKind::Return(None) => "return;".to_string(),
        StmtKind::Return(Some(e)) => format!("return {};", expr(e)),
        StmtKind::Pragma { name, value } => match value {
            Some(v) => format!("pragma({name}, {v});"),
            None => format!("pragma({name});"),
        },
        StmtKind::Bulk {
            sram,
            load,
            dram,
            base,
            len,
        } => {
            let op = if *load { "load" } else { "store" };
            format!("{sram}.{op}({dram}, {}, {});", expr(base), expr(len))
        }
    };
    out.push_str(&line);
    out.push('\n');
}

/// Renders one expression, fully parenthesized.
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) => {
            if *n < 0 {
                format!("(-{})", n.unsigned_abs())
            } else {
                n.to_string()
            }
        }
        Expr::Var(name) => name.clone(),
        Expr::Bin(op, a, b) => format!("({} {} {})", expr(a), op.symbol(), expr(b)),
        Expr::Un(op, a) => format!("({}{})", op.symbol(), expr(a)),
        Expr::Index(base, idx) => format!("{}[{}]", base, expr(idx)),
        Expr::Deref(it) => format!("({DEREF}{it})"),
        Expr::Peek(it, e) => format!("{}.peek({})", it, expr(e)),
        Expr::Cast(t, e) => format!("(({})({}))", t.name(), expr(e)),
    }
}
