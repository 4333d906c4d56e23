//! # revet-mir — the Revet compiler's SSA intermediate representation
//!
//! An MLIR-inspired IR (§V of the paper, Fig. 8): SSA values, ops with
//! nested regions, a structured-control-flow dialect (`if`/`while`/
//! `foreach`/`replicate`/`fork`), physical memory ops (SRAM/DRAM/allocator
//! queues), and a high-level Revet dialect (views & iterators, Table I) that
//! front-end lowering removes.
//!
//! The crate also provides:
//!
//! - [`verify_module`]: a structural verifier run between passes,
//! - [`print_module`]/[`print_func`]: a textual form for debugging,
//! - the **pass framework**: one [`Pass`] trait over a [`Module`], an
//!   ordered [`PassManager`] and the per-pass statistics it reports
//!   ([`PassReport`]),
//! - the **one way MIR is rewritten**: [`Module::rewrite`] walks every
//!   region post-order and hands each op to a [`Rewriter`] together with
//!   the [`RegionBuilder`] of the region being rebuilt — every lowering
//!   pass is a `Rewriter`, and every op one builds goes through the
//!   builder's emitters,
//! - the classical optimizations: [`ConstFold`], [`Simplify`], [`Cse`]
//!   and [`Dce`] (over [`Liveness`]), grouped by level in
//!   [`add_classical`],
//! - the dense tables every per-value side table and pass state is kept
//!   in: [`ValueMap`] and [`ValueSet`], vectors indexed by the value's id
//!   (ids are issued densely, so a lookup is an index, not a hash).
//!
//! The reference interpreter that defines MIR's sequential semantics, the
//! oracle every lowering pass and the final dataflow execution are
//! differentially tested against, is not here: it is
//! `revet_oracle::interp`, outside the product.
//!
//! ## Example
//!
//! ```
//! use revet_mir::{Func, Module, RegionBuilder, OpKind, AluOp, Ty};
//!
//! let mut m = Module::default();
//! let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
//! let p = f.params[0];
//! let mut b = RegionBuilder::new();
//! let one = b.const_i32(&mut f, 1);
//! let s = b.bin(&mut f, AluOp::Add, p, one);
//! b.emit0(OpKind::Return(vec![s]));
//! f.body = b.build();
//! m.funcs.push(f);
//! revet_mir::verify_module(&m).unwrap();
//!
//! let text = revet_mir::print_module(&m);
//! assert!(text.contains("func @main(%0: i32) -> (i32)"), "{text}");
//! ```

#![warn(missing_docs)]

mod analysis;
mod func;
mod ops;
mod opt;
mod pass;
mod print;
mod spans;
mod table;
mod types;
mod verify;

pub use analysis::Liveness;
pub use func::{
    AllocDecl, Func, Module, RegionBuilder, Rewriter, SramDecl, DEFAULT_THREADS, MACHINE_MUS,
    MU_WORDS,
};
pub use ops::{
    AluOp, ForeachFlags, ItKind, Op, OpKind, Operands, Region, Results, Value, ViewKind,
};
pub use opt::{add_classical, ConstFold, Cse, Dce, Simplify};
pub use pass::{Pass, PassManager, PassReport, PassResult, PassStat};
pub use print::{print_func, print_module};
pub use spans::SpanTable;
pub use table::{ValueMap, ValueSet};
pub use types::{DramDecl, DramLayout, DramRef, Ty};
pub use verify::{verify_func, verify_module, VerifyError};
