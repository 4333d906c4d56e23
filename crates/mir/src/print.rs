//! A human-readable textual form of MIR, for debugging and golden tests.

use crate::func::{Func, Module};
use crate::ops::{Op, OpKind, Region, Results};
use std::fmt::Write as _;

/// Renders a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    for d in &m.drams {
        let _ = writeln!(s, "dram<{}B> @{};", d.elem_bytes, d.name);
    }
    for r in &m.srams {
        let _ = writeln!(s, "sram @{} [{} words];", r.name, r.words);
    }
    for a in &m.allocs {
        let _ = writeln!(s, "alloc @{} [max {}];", a.name, a.max);
    }
    for f in &m.funcs {
        s.push_str(&print_func(f));
    }
    s
}

/// Renders one function.
pub fn print_func(f: &Func) -> String {
    let mut s = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|p| format!("%{}: {}", p.0, f.ty(*p)))
        .collect();
    let results: Vec<String> = f.results.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(
        s,
        "func @{}({}) -> ({}) {{",
        f.name,
        params.join(", "),
        results.join(", ")
    );
    print_region(&f.body, f, 1, &mut s);
    s.push_str("}\n");
    s
}

fn indent(n: usize, s: &mut String) {
    for _ in 0..n {
        s.push_str("  ");
    }
}

fn print_region(r: &Region, f: &Func, depth: usize, s: &mut String) {
    if !r.args.is_empty() {
        indent(depth, s);
        let args: Vec<String> = r
            .args
            .iter()
            .map(|a| format!("%{}: {}", a.0, f.ty(*a)))
            .collect();
        let _ = writeln!(s, "^({}):", args.join(", "));
    }
    for op in &r.ops {
        print_op(op, f, depth, s);
    }
}

fn vals(vs: &[crate::ops::Value]) -> String {
    vs.iter()
        .map(|v| format!("%{}", v.0))
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_op(op: &Op, f: &Func, depth: usize, s: &mut String) {
    indent(depth, s);
    if !op.results.is_empty() {
        let _ = write!(s, "{} = ", vals(&op.results));
    }
    match &op.kind {
        OpKind::ConstI(v, ty) => {
            let _ = writeln!(s, "const {v} : {ty}");
        }
        OpKind::Bin(alu, a, b) => {
            let _ = writeln!(s, "{alu:?} %{}, %{}", a.0, b.0);
        }
        OpKind::Select(c, t, fl) => {
            let _ = writeln!(s, "select %{}, %{}, %{}", c.0, t.0, fl.0);
        }
        OpKind::Cast { v, to, signed } => {
            let _ = writeln!(s, "cast %{} to {to} (signed={signed})", v.0);
        }
        OpKind::SramRead { sram, addr } => {
            let _ = writeln!(s, "sram.read #{}[%{}]", sram.0, addr.0);
        }
        OpKind::SramWrite { sram, addr, val } => {
            let _ = writeln!(s, "sram.write #{}[%{}] = %{}", sram.0, addr.0, val.0);
        }
        OpKind::SramDecFetch { sram, addr } => {
            let _ = writeln!(s, "sram.decfetch #{}[%{}]", sram.0, addr.0);
        }
        OpKind::DramRead { dram, idx } => {
            let _ = writeln!(s, "dram.read @{}[%{}]", dram.0, idx.0);
        }
        OpKind::DramWrite { dram, idx, val } => {
            let _ = writeln!(s, "dram.write @{}[%{}] = %{}", dram.0, idx.0, val.0);
        }
        OpKind::AllocPop { alloc } => {
            let _ = writeln!(s, "alloc.pop #{}", alloc.0);
        }
        OpKind::AllocPush { alloc, ptr } => {
            let _ = writeln!(s, "alloc.push #{} %{}", alloc.0, ptr.0);
        }
        OpKind::BulkLoad {
            dram,
            dram_base,
            sram,
            sram_base,
            len,
        } => {
            let _ = writeln!(
                s,
                "bulk.load @{}[%{}..] -> #{}[%{}..] x %{}",
                dram.0, dram_base.0, sram.0, sram_base.0, len.0
            );
        }
        OpKind::BulkStore {
            dram,
            dram_base,
            sram,
            sram_base,
            len,
        } => {
            let _ = writeln!(
                s,
                "bulk.store #{}[%{}..] -> @{}[%{}..] x %{}",
                sram.0, sram_base.0, dram.0, dram_base.0, len.0
            );
        }
        OpKind::If { cond, then, else_ } => {
            let _ = writeln!(s, "if %{} {{", cond.0);
            print_region(then, f, depth + 1, s);
            indent(depth, s);
            s.push_str("} else {\n");
            print_region(else_, f, depth + 1, s);
            indent(depth, s);
            s.push_str("}\n");
        }
        OpKind::While {
            inits,
            before,
            after,
        } => {
            let _ = writeln!(s, "while ({}) {{", vals(inits));
            print_region(before, f, depth + 1, s);
            indent(depth, s);
            s.push_str("} do {\n");
            print_region(after, f, depth + 1, s);
            indent(depth, s);
            s.push_str("}\n");
        }
        OpKind::Foreach {
            lo,
            hi,
            step,
            body,
            reduce,
            flags,
        } => {
            let _ = writeln!(
                s,
                "foreach %{}..%{} by %{} reduce {:?}{} {{",
                lo.0,
                hi.0,
                step.0,
                reduce,
                if flags.eliminate_hierarchy {
                    " [eliminate_hierarchy]"
                } else {
                    ""
                }
            );
            print_region(body, f, depth + 1, s);
            indent(depth, s);
            s.push_str("}\n");
        }
        OpKind::Replicate { ways, body } => {
            let _ = writeln!(s, "replicate ({ways}) {{");
            print_region(body, f, depth + 1, s);
            indent(depth, s);
            s.push_str("}\n");
        }
        OpKind::Fork { count, body } => {
            let _ = writeln!(s, "fork (%{}) {{", count.0);
            print_region(body, f, depth + 1, s);
            indent(depth, s);
            s.push_str("}\n");
        }
        OpKind::Predicated {
            pred,
            expect,
            inner,
        } => {
            let _ = write!(s, "when %{}=={} : ", pred.0, expect);
            let inner_op = Op {
                kind: (**inner).clone(),
                results: Results::default(),
            };
            print_op(&inner_op, f, 0, s);
        }
        OpKind::Exit => s.push_str("exit\n"),
        OpKind::Yield(vs) => {
            let _ = writeln!(s, "yield {}", vals(vs));
        }
        OpKind::Condition { cond, fwd } => {
            let _ = writeln!(s, "condition %{} fwd [{}]", cond.0, vals(fwd));
        }
        OpKind::Return(vs) => {
            let _ = writeln!(s, "return {}", vals(vs));
        }
        OpKind::ViewNew {
            kind,
            dram,
            base,
            size,
        } => {
            let _ = writeln!(
                s,
                "view.new {kind:?} dram={dram:?} base={base:?} size={size}"
            );
        }
        OpKind::ViewRead { view, idx } => {
            let _ = writeln!(s, "view.read %{}[%{}]", view.0, idx.0);
        }
        OpKind::ViewWrite { view, idx, val } => {
            let _ = writeln!(s, "view.write %{}[%{}] = %{}", view.0, idx.0, val.0);
        }
        OpKind::ItNew {
            kind, dram, seek, ..
        } => {
            let _ = writeln!(s, "it.new {kind:?} @{} seek=%{}", dram.0, seek.0);
        }
        OpKind::ItDeref { it } => {
            let _ = writeln!(s, "it.deref %{}", it.0);
        }
        OpKind::ItPeek { it, ahead } => {
            let _ = writeln!(s, "it.peek %{} + %{}", it.0, ahead.0);
        }
        OpKind::ItWrite { it, val } => {
            let _ = writeln!(s, "it.write %{} = %{}", it.0, val.0);
        }
        OpKind::ItInc { it, last } => {
            let _ = writeln!(s, "it.inc %{} last={last:?}", it.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RegionBuilder;
    use crate::ops::AluOp;
    use crate::types::Ty;

    #[test]
    fn prints_function() {
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let one = b.const_i32(&mut f, 1);
        let r = b.bin(&mut f, AluOp::Add, p, one);
        b.emit0(OpKind::Return(vec![r]));
        f.body = b.build();
        let text = print_func(&f);
        assert!(text.contains("func @main"));
        assert!(text.contains("const 1"));
        assert!(text.contains("Add"));
        assert!(text.contains("return %2"));
    }
}
