//! Bulk-access lowering (§V-A: "Lower Bulk Accesses").
//!
//! `BulkLoad`/`BulkStore` become explicitly parallel `foreach` loops of
//! element transfers. On the machine these vectorize: the counter expands
//! the transfer into 16-lane child threads whose DRAM reads coalesce into
//! bursts at the AGs (the backend "bulk store can process 32 bits per
//! cycle" of §V-A a).

#![warn(clippy::too_many_lines)]

use revet_mir::{
    AluOp, ForeachFlags, Func, Module, Op, OpKind, Pass, PassResult, RegionBuilder, Rewriter, Ty,
};

/// Bulk-access lowering (§V-A): `BulkLoad`/`BulkStore` become explicitly
/// parallel `foreach` loops of element transfers.
pub struct LowerBulk;

impl Pass for LowerBulk {
    fn name(&self) -> &str {
        "lower_bulk"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        m.rewrite(&mut LowerBulk)
    }
}

impl Rewriter for LowerBulk {
    fn op(
        &mut self,
        out: &mut RegionBuilder,
        func: &mut Func,
        _module: &mut Module,
        op: Op,
    ) -> Option<Op> {
        let (OpKind::BulkLoad {
            dram,
            dram_base,
            sram,
            sram_base,
            len,
        }
        | OpKind::BulkStore {
            dram,
            dram_base,
            sram,
            sram_base,
            len,
        }) = op.kind
        else {
            return Some(op);
        };
        let zero = out.const_i32(func, 0);
        let one = out.const_i32(func, 1);
        let idx = func.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![idx]);
        if matches!(op.kind, OpKind::BulkLoad { .. }) {
            let di = body.bin(func, AluOp::Add, dram_base, idx);
            let v = body.emit(func, OpKind::DramRead { dram, idx: di }, Ty::I32);
            let si = body.bin(func, AluOp::Add, sram_base, idx);
            body.sram_write(sram, si, v);
        } else {
            let si = body.bin(func, AluOp::Add, sram_base, idx);
            let v = body.sram_read(func, sram, si);
            let di = body.bin(func, AluOp::Add, dram_base, idx);
            body.emit0(OpKind::DramWrite {
                dram,
                idx: di,
                val: v,
            });
        }
        body.emit0(OpKind::Yield(vec![]));
        out.emit0(OpKind::Foreach {
            lo: zero,
            hi: len,
            step: one,
            body: body.build(),
            reduce: vec![],
            flags: ForeachFlags::default(),
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::LowerViews;
    use revet_lang::compile_to_mir;
    use revet_oracle::interp::{run_main, DEFAULT_FUEL};

    #[test]
    fn bulk_becomes_foreach_and_preserves_semantics() {
        let src = r#"
            dram<u32> input;
            dram<u32> output;
            void main(u32 n) {
                foreach (n by 4) { u32 outer =>
                    readview<4> v(input, outer);
                    writeview<4> w(output, outer);
                    foreach (4) { u32 i =>
                        w[i] = v[i] * 3;
                    };
                };
            }
        "#;
        let mut module = compile_to_mir(src).unwrap();
        module.threads = Some(8);
        assert!(LowerViews { fuse: true }.run(&mut module).changed());
        assert!(LowerBulk.run(&mut module).changed());
        assert!(
            !LowerBulk.run(&mut module).changed(),
            "nothing left to lower"
        );
        revet_mir::verify_module(&module).unwrap();
        assert_eq!(
            module.funcs[0].count_ops(|k| k.is_high_level()),
            0,
            "fully lowered to physical ops"
        );
        let input = (1..=8u32).flat_map(u32::to_le_bytes).collect();
        let mem = run_main(&module, 8192, &[8], &[(0, input)], DEFAULT_FUEL).unwrap();
        for i in 0..8u32 {
            let got = u32::from_le_bytes(
                mem.dram[4096 + 4 * i as usize..4096 + 4 * i as usize + 4]
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(got, (i + 1) * 3);
        }
    }
}
