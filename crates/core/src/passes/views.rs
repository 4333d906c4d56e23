//! View & iterator lowering (§V-A a) plus allocation fusion (§V-B a).
//!
//! Rewrites the high-level Revet memory dialect into physical SRAM regions,
//! allocator queues, and bulk transfers:
//!
//! - Every view/iterator instance gets an SRAM region holding `max_threads`
//!   fixed-size thread-local buffers, addressed as `ptr*size + off` — the
//!   fragmentation-free scheme of §V-B a.
//! - All allocations at the top level of one region share a single fused
//!   allocator pop (allocation fusion); deallocation pushes the pointer back
//!   just before the region's terminator.
//! - `ReadIt` fills its tile *at dereference* (the data-dependent miss path
//!   of Fig. 5/6: an `if` containing a bulk load, later a nested `foreach`).
//! - `PeekReadIt` keeps a double-width window so `peek(a)`, `a ≤ tile`,
//!   never faults (filled eagerly at creation — a documented deviation).
//! - `WriteIt` flushes full tiles at increment and the partial tile at
//!   deallocation; `ManualWriteIt` flushes on the caller's `last` hint and
//!   skips the deallocation flush (§V-A a).

use revet_mir::{AluOp, Func, ItKind, Module, Op, OpKind, Region, Ty, Value, ViewKind};
use std::collections::HashMap;

/// Default thread-local buffer count when no `pragma(threads, N)` is given:
/// one MU's worth of small buffers.
pub const DEFAULT_THREADS: u32 = 64;

/// One lowered memory object.
#[derive(Clone, Debug)]
enum Obj {
    View {
        kind: ViewKind,
        dram: Option<revet_mir::DramRef>,
        base: Option<Value>,
        size: u32,
        sram: revet_machine::SramId,
        ptr: Value,
    },
    It {
        kind: ItKind,
        dram: revet_mir::DramRef,
        tile: u32,
        buf: revet_machine::SramId,
        state: revet_machine::SramId,
        ptr: Value,
    },
}

/// Pass state.
struct ViewsPass<'m> {
    module: &'m mut Module,
    threads: u32,
    fuse: bool,
    /// Objects by handle value (visible to nested regions).
    objs: HashMap<Value, Obj>,
    counter: u32,
}

/// Runs the pass over every function.
pub fn lower_views(module: &mut Module, threads: Option<u32>, fuse: bool) {
    let mut funcs = std::mem::take(&mut module.funcs);
    for func in &mut funcs {
        let mut pass = ViewsPass {
            module,
            threads: threads.unwrap_or(DEFAULT_THREADS),
            fuse,
            objs: HashMap::new(),
            counter: 0,
        };
        let body = std::mem::take(&mut func.body);
        func.body = pass.rewrite_region(func, body);
    }
    module.funcs = funcs;
}

impl ViewsPass<'_> {
    fn fresh(&mut self, func: &mut Func, ty: Ty) -> Value {
        func.new_value(ty)
    }

    fn konst(&mut self, func: &mut Func, out: &mut Vec<Op>, v: i64) -> Value {
        let r = self.fresh(func, Ty::I32);
        out.push(Op {
            kind: OpKind::ConstI(v, Ty::I32),
            results: vec![r],
        });
        r
    }

    fn bin(&mut self, func: &mut Func, out: &mut Vec<Op>, op: AluOp, a: Value, b: Value) -> Value {
        let r = self.fresh(func, Ty::I32);
        out.push(Op {
            kind: OpKind::Bin(op, a, b),
            results: vec![r],
        });
        r
    }

    /// `ptr * scale + off`
    fn buf_addr(
        &mut self,
        func: &mut Func,
        out: &mut Vec<Op>,
        ptr: Value,
        scale: u32,
        off: Value,
    ) -> Value {
        let s = self.konst(func, out, scale as i64);
        let mul = self.bin(func, out, AluOp::Mul, ptr, s);
        self.bin(func, out, AluOp::Add, mul, off)
    }

    #[allow(clippy::too_many_lines)]
    fn rewrite_region(&mut self, func: &mut Func, region: Region) -> Region {
        let mut out: Vec<Op> = Vec::with_capacity(region.ops.len());
        // Fused allocator for this region: created lazily at the first
        // allocation site.
        let mut region_ptrs: Vec<(Value, revet_machine::AllocId)> = Vec::new();
        let mut region_objs: Vec<Value> = Vec::new();

        // First pass over ops, rewriting.
        let n_ops = region.ops.len();
        for (op_idx, op) in region.ops.into_iter().enumerate() {
            let is_terminator = op_idx + 1 == n_ops && op.kind.is_terminator();
            if is_terminator {
                // Flush/deallocate region-local objects before terminating.
                self.emit_region_teardown(func, &mut out, &region_objs, &region_ptrs);
            }
            match op.kind {
                OpKind::ViewNew {
                    kind,
                    dram,
                    base,
                    size,
                } => {
                    let ptr = self.get_ptr(func, &mut out, &mut region_ptrs);
                    self.counter += 1;
                    let sram = self
                        .module
                        .add_sram(format!("view{}", self.counter), size * self.threads);
                    let handle = op.results[0];
                    if matches!(kind, ViewKind::Read | ViewKind::Modify) {
                        let dram = dram.expect("read view needs a dram symbol");
                        let base_v = base.expect("read view needs a base");
                        let zero = self.konst(func, &mut out, 0);
                        let sbase = self.buf_addr(func, &mut out, ptr, size, zero);
                        let len = self.konst(func, &mut out, size as i64);
                        out.push(Op {
                            kind: OpKind::BulkLoad {
                                dram,
                                dram_base: base_v,
                                sram,
                                sram_base: sbase,
                                len,
                            },
                            results: vec![],
                        });
                    }
                    self.objs.insert(
                        handle,
                        Obj::View {
                            kind,
                            dram,
                            base,
                            size,
                            sram,
                            ptr,
                        },
                    );
                    region_objs.push(handle);
                }
                OpKind::ItNew {
                    kind,
                    dram,
                    seek,
                    tile,
                } => {
                    let ptr = self.get_ptr(func, &mut out, &mut region_ptrs);
                    self.counter += 1;
                    let win = if kind == ItKind::PeekRead {
                        2 * tile
                    } else {
                        tile
                    };
                    let buf = self
                        .module
                        .add_sram(format!("itbuf{}", self.counter), win * self.threads);
                    let state = self
                        .module
                        .add_sram(format!("itstate{}", self.counter), 2 * self.threads);
                    let handle = op.results[0];
                    // State layout: [g, l] at ptr*2.
                    let two = self.konst(func, &mut out, 2);
                    let saddr = self.bin(func, &mut out, AluOp::Mul, ptr, two);
                    let one = self.konst(func, &mut out, 1);
                    let laddr = self.bin(func, &mut out, AluOp::Add, saddr, one);
                    match kind {
                        ItKind::Read => {
                            // g = seek - tile; l = tile ⇒ first deref fills.
                            let t = self.konst(func, &mut out, tile as i64);
                            let g0 = self.bin(func, &mut out, AluOp::Sub, seek, t);
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: saddr,
                                    val: g0,
                                },
                                results: vec![],
                            });
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: laddr,
                                    val: t,
                                },
                                results: vec![],
                            });
                        }
                        ItKind::PeekRead => {
                            // Eager fill of the 2×tile window at creation.
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: saddr,
                                    val: seek,
                                },
                                results: vec![],
                            });
                            let zero = self.konst(func, &mut out, 0);
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: laddr,
                                    val: zero,
                                },
                                results: vec![],
                            });
                            let sbase = self.buf_addr(func, &mut out, ptr, win, zero);
                            let len = self.konst(func, &mut out, win as i64);
                            out.push(Op {
                                kind: OpKind::BulkLoad {
                                    dram,
                                    dram_base: seek,
                                    sram: buf,
                                    sram_base: sbase,
                                    len,
                                },
                                results: vec![],
                            });
                        }
                        ItKind::Write | ItKind::ManualWrite => {
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: saddr,
                                    val: seek,
                                },
                                results: vec![],
                            });
                            let zero = self.konst(func, &mut out, 0);
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: laddr,
                                    val: zero,
                                },
                                results: vec![],
                            });
                        }
                    }
                    self.objs.insert(
                        handle,
                        Obj::It {
                            kind,
                            dram,
                            tile,
                            buf,
                            state,
                            ptr,
                        },
                    );
                    region_objs.push(handle);
                }
                OpKind::ViewRead { view, idx } => {
                    let Obj::View {
                        size, sram, ptr, ..
                    } = self.objs[&view].clone()
                    else {
                        unreachable!("view read on iterator");
                    };
                    let addr = self.buf_addr(func, &mut out, ptr, size, idx);
                    out.push(Op {
                        kind: OpKind::SramRead { sram, addr },
                        results: op.results,
                    });
                }
                OpKind::ViewWrite { view, idx, val } => {
                    let Obj::View {
                        size, sram, ptr, ..
                    } = self.objs[&view].clone()
                    else {
                        unreachable!("view write on iterator");
                    };
                    let addr = self.buf_addr(func, &mut out, ptr, size, idx);
                    out.push(Op {
                        kind: OpKind::SramWrite { sram, addr, val },
                        results: vec![],
                    });
                }
                OpKind::ItDeref { it } => {
                    let obj = self.objs[&it].clone();
                    let Obj::It {
                        kind,
                        dram,
                        tile,
                        buf,
                        state,
                        ptr,
                    } = obj
                    else {
                        unreachable!("deref on view");
                    };
                    let win = if kind == ItKind::PeekRead {
                        2 * tile
                    } else {
                        tile
                    };
                    let two = self.konst(func, &mut out, 2);
                    let saddr = self.bin(func, &mut out, AluOp::Mul, ptr, two);
                    let one = self.konst(func, &mut out, 1);
                    let laddr = self.bin(func, &mut out, AluOp::Add, saddr, one);
                    let l = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: laddr,
                        },
                        results: vec![l],
                    });
                    let t = self.konst(func, &mut out, tile as i64);
                    let need = self.bin(func, &mut out, AluOp::GeU, l, t);
                    // Miss path: advance window and refill (an `if`
                    // containing a bulk load — the Fig. 6 structure).
                    let mut then_ops: Vec<Op> = Vec::new();
                    let g = self.fresh(func, Ty::I32);
                    then_ops.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: saddr,
                        },
                        results: vec![g],
                    });
                    let t2 = self.konst(func, &mut then_ops, tile as i64);
                    let g2 = self.bin(func, &mut then_ops, AluOp::Add, g, t2);
                    then_ops.push(Op {
                        kind: OpKind::SramWrite {
                            sram: state,
                            addr: saddr,
                            val: g2,
                        },
                        results: vec![],
                    });
                    let lnew = self.bin(func, &mut then_ops, AluOp::Sub, l, t2);
                    then_ops.push(Op {
                        kind: OpKind::SramWrite {
                            sram: state,
                            addr: laddr,
                            val: lnew,
                        },
                        results: vec![],
                    });
                    let zero = self.konst(func, &mut then_ops, 0);
                    let sbase = self.buf_addr(func, &mut then_ops, ptr, win, zero);
                    let wlen = self.konst(func, &mut then_ops, win as i64);
                    then_ops.push(Op {
                        kind: OpKind::BulkLoad {
                            dram,
                            dram_base: g2,
                            sram: buf,
                            sram_base: sbase,
                            len: wlen,
                        },
                        results: vec![],
                    });
                    then_ops.push(Op {
                        kind: OpKind::Yield(vec![lnew]),
                        results: vec![],
                    });
                    let mut else_ops: Vec<Op> = Vec::new();
                    else_ops.push(Op {
                        kind: OpKind::Yield(vec![l]),
                        results: vec![],
                    });
                    let lcur = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::If {
                            cond: need,
                            then: Region::new(vec![], then_ops),
                            else_: Region::new(vec![], else_ops),
                        },
                        results: vec![lcur],
                    });
                    let addr = self.buf_addr(func, &mut out, ptr, win, lcur);
                    out.push(Op {
                        kind: OpKind::SramRead { sram: buf, addr },
                        results: op.results,
                    });
                }
                OpKind::ItPeek { it, ahead } => {
                    let Obj::It {
                        tile,
                        buf,
                        state,
                        ptr,
                        ..
                    } = self.objs[&it].clone()
                    else {
                        unreachable!("peek on view");
                    };
                    // peek(a) reads buf[l + a]; the 2×tile window guarantees
                    // validity for a ≤ tile (no fill here; deref faults).
                    let two = self.konst(func, &mut out, 2);
                    let saddr = self.bin(func, &mut out, AluOp::Mul, ptr, two);
                    let one = self.konst(func, &mut out, 1);
                    let laddr = self.bin(func, &mut out, AluOp::Add, saddr, one);
                    let l = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: laddr,
                        },
                        results: vec![l],
                    });
                    let la = self.bin(func, &mut out, AluOp::Add, l, ahead);
                    let addr = self.buf_addr(func, &mut out, ptr, 2 * tile, la);
                    out.push(Op {
                        kind: OpKind::SramRead { sram: buf, addr },
                        results: op.results,
                    });
                }
                OpKind::ItWrite { it, val } => {
                    let Obj::It {
                        tile,
                        buf,
                        state,
                        ptr,
                        ..
                    } = self.objs[&it].clone()
                    else {
                        unreachable!("write on view");
                    };
                    let two = self.konst(func, &mut out, 2);
                    let saddr = self.bin(func, &mut out, AluOp::Mul, ptr, two);
                    let one = self.konst(func, &mut out, 1);
                    let laddr = self.bin(func, &mut out, AluOp::Add, saddr, one);
                    let l = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: laddr,
                        },
                        results: vec![l],
                    });
                    let addr = self.buf_addr(func, &mut out, ptr, tile, l);
                    out.push(Op {
                        kind: OpKind::SramWrite {
                            sram: buf,
                            addr,
                            val,
                        },
                        results: vec![],
                    });
                }
                OpKind::ItInc { it, last } => {
                    let obj = self.objs[&it].clone();
                    let Obj::It {
                        kind,
                        dram,
                        tile,
                        buf,
                        state,
                        ptr,
                    } = obj
                    else {
                        unreachable!("inc on view");
                    };
                    let two = self.konst(func, &mut out, 2);
                    let saddr = self.bin(func, &mut out, AluOp::Mul, ptr, two);
                    let one = self.konst(func, &mut out, 1);
                    let laddr = self.bin(func, &mut out, AluOp::Add, saddr, one);
                    let l = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: laddr,
                        },
                        results: vec![l],
                    });
                    let linc = self.bin(func, &mut out, AluOp::Add, l, one);
                    match kind {
                        ItKind::Read | ItKind::PeekRead => {
                            // Just advance; deref handles refills.
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: laddr,
                                    val: linc,
                                },
                                results: vec![],
                            });
                        }
                        ItKind::Write | ItKind::ManualWrite => {
                            let t = self.konst(func, &mut out, tile as i64);
                            let full = self.bin(func, &mut out, AluOp::GeU, linc, t);
                            let flush = if kind == ItKind::ManualWrite {
                                match last {
                                    Some(lv) => {
                                        let zero = self.konst(func, &mut out, 0);
                                        let lastb = self.bin(func, &mut out, AluOp::Ne, lv, zero);
                                        self.bin(func, &mut out, AluOp::Or, full, lastb)
                                    }
                                    None => full,
                                }
                            } else {
                                full
                            };
                            // if (flush) { store l+1 words; g += l+1; l = 0 }
                            // else { l = l+1 }
                            let mut then_ops: Vec<Op> = Vec::new();
                            let g = self.fresh(func, Ty::I32);
                            then_ops.push(Op {
                                kind: OpKind::SramRead {
                                    sram: state,
                                    addr: saddr,
                                },
                                results: vec![g],
                            });
                            let zero = self.konst(func, &mut then_ops, 0);
                            let sbase = self.buf_addr(func, &mut then_ops, ptr, tile, zero);
                            then_ops.push(Op {
                                kind: OpKind::BulkStore {
                                    dram,
                                    dram_base: g,
                                    sram: buf,
                                    sram_base: sbase,
                                    len: linc,
                                },
                                results: vec![],
                            });
                            let g2 = self.bin(func, &mut then_ops, AluOp::Add, g, linc);
                            then_ops.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: saddr,
                                    val: g2,
                                },
                                results: vec![],
                            });
                            then_ops.push(Op {
                                kind: OpKind::Yield(vec![zero]),
                                results: vec![],
                            });
                            let mut else_ops: Vec<Op> = Vec::new();
                            else_ops.push(Op {
                                kind: OpKind::Yield(vec![linc]),
                                results: vec![],
                            });
                            let lnext = self.fresh(func, Ty::I32);
                            out.push(Op {
                                kind: OpKind::If {
                                    cond: flush,
                                    then: Region::new(vec![], then_ops),
                                    else_: Region::new(vec![], else_ops),
                                },
                                results: vec![lnext],
                            });
                            out.push(Op {
                                kind: OpKind::SramWrite {
                                    sram: state,
                                    addr: laddr,
                                    val: lnext,
                                },
                                results: vec![],
                            });
                        }
                    }
                }
                // Recurse into regions of structured ops.
                mut kind => {
                    for r in kind.regions_mut() {
                        let taken = std::mem::take(r);
                        *r = self.rewrite_region(func, taken);
                    }
                    out.push(Op {
                        kind,
                        results: op.results,
                    });
                }
            }
        }
        // Regions without a terminator as last op (shouldn't happen for
        // well-formed IR, but foreach bodies end in Yield which is handled
        // above). If no terminator at all, still tear down.
        if !out.last().is_some_and(|o| o.kind.is_terminator()) {
            self.emit_region_teardown(func, &mut out, &region_objs, &region_ptrs);
        }
        Region::new(region.args, out)
    }

    /// Returns the region's fused pointer, popping it on first use. With
    /// fusion disabled each allocation site gets its own pop (ablation).
    fn get_ptr(
        &mut self,
        func: &mut Func,
        out: &mut Vec<Op>,
        region_ptrs: &mut Vec<(Value, revet_machine::AllocId)>,
    ) -> Value {
        if self.fuse {
            if let Some((p, _)) = region_ptrs.first() {
                return *p;
            }
        }
        self.counter += 1;
        let alloc = self
            .module
            .add_alloc(format!("alloc{}", self.counter), self.threads);
        let p = self.fresh(func, Ty::I32);
        out.push(Op {
            kind: OpKind::AllocPop { alloc },
            results: vec![p],
        });
        region_ptrs.push((p, alloc));
        p
    }

    /// Emits write-view/write-iterator flushes and the allocator push.
    fn emit_region_teardown(
        &mut self,
        func: &mut Func,
        out: &mut Vec<Op>,
        region_objs: &[Value],
        region_ptrs: &[(Value, revet_machine::AllocId)],
    ) {
        for handle in region_objs {
            match self.objs[handle].clone() {
                Obj::View {
                    kind: ViewKind::Write | ViewKind::Modify,
                    dram: Some(dram),
                    base: Some(base),
                    size,
                    sram,
                    ptr,
                    ..
                } => {
                    let zero = self.konst(func, out, 0);
                    let sbase = self.buf_addr(func, out, ptr, size, zero);
                    let len = self.konst(func, out, size as i64);
                    out.push(Op {
                        kind: OpKind::BulkStore {
                            dram,
                            dram_base: base,
                            sram,
                            sram_base: sbase,
                            len,
                        },
                        results: vec![],
                    });
                }
                Obj::It {
                    kind: ItKind::Write,
                    dram,
                    tile,
                    buf,
                    state,
                    ptr,
                } => {
                    // Flush the partial tile (l words from buf).
                    let two = self.konst(func, out, 2);
                    let saddr = self.bin(func, out, AluOp::Mul, ptr, two);
                    let one = self.konst(func, out, 1);
                    let laddr = self.bin(func, out, AluOp::Add, saddr, one);
                    let l = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: laddr,
                        },
                        results: vec![l],
                    });
                    let g = self.fresh(func, Ty::I32);
                    out.push(Op {
                        kind: OpKind::SramRead {
                            sram: state,
                            addr: saddr,
                        },
                        results: vec![g],
                    });
                    let zero = self.konst(func, out, 0);
                    let sbase = self.buf_addr(func, out, ptr, tile, zero);
                    out.push(Op {
                        kind: OpKind::BulkStore {
                            dram,
                            dram_base: g,
                            sram: buf,
                            sram_base: sbase,
                            len: l,
                        },
                        results: vec![],
                    });
                }
                _ => {}
            }
        }
        for (p, alloc) in region_ptrs {
            out.push(Op {
                kind: OpKind::AllocPush {
                    alloc: *alloc,
                    ptr: *p,
                },
                results: vec![],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_lang::compile_to_mir;
    use revet_mir::{DramLayout, Interp};
    use revet_sltf::Word;

    /// Differential test: the strlen case study must compute identical DRAM
    /// contents before and after view/iterator lowering.
    #[test]
    fn strlen_lowering_preserves_semantics() {
        let src = r#"
            dram<u8> input;
            dram<u32> offsets;
            dram<u32> lengths;
            void main(u32 count) {
                foreach (count by 4) { u32 outer =>
                    readview<4> in_view(offsets, outer);
                    writeview<4> out_view(lengths, outer);
                    foreach (4) { u32 idx =>
                        u32 len = 0;
                        u32 off = in_view[idx];
                        readit<8> it(input, off);
                        while (*it) {
                            len = len + 1;
                            it++;
                        };
                        out_view[idx] = len;
                    };
                };
            }
        "#;
        let strings: &[&str] = &["hello", "", "dataflow-threads", "ab", "x", "yz", "", "末"];
        let mut input = Vec::new();
        let mut offsets = Vec::new();
        for s in strings {
            offsets.extend((input.len() as u32).to_le_bytes());
            input.extend(s.as_bytes());
            input.push(0);
        }

        let run = |module: &Module| -> Vec<u8> {
            let layout = DramLayout {
                base: vec![0, 4096, 8192],
            };
            let mut mem = module.build_memory(16 * 1024);
            mem.dram[..input.len()].copy_from_slice(&input);
            mem.dram[4096..4096 + offsets.len()].copy_from_slice(&offsets);
            Interp::new(module, &layout, &mut mem)
                .run("main", &[Word(strings.len() as u32)])
                .unwrap();
            mem.dram.to_vec()
        };

        let lowered = compile_to_mir(src).unwrap();
        let before = run(&lowered.module);

        let mut module = lowered.module.clone();
        lower_views(&mut module, Some(16), true);
        revet_mir::verify_module(&module).unwrap();
        assert_eq!(
            module.funcs[0].count_ops(|k| k.is_high_level()
                && !matches!(k, OpKind::BulkLoad { .. } | OpKind::BulkStore { .. })),
            0,
            "no view/iterator ops remain"
        );
        let after = run(&module);
        assert_eq!(before, after, "lowering changed observable DRAM state");
    }

    /// Write iterators flush full tiles at increment and the partial tile at
    /// deallocation.
    #[test]
    fn write_iterator_flush_paths() {
        let src = r#"
            dram<u8> out;
            void main(u32 n) {
                writeit<4> w(out, 0);
                u32 i = 0;
                while (i < n) {
                    *w = 65 + i;
                    w++;
                    i = i + 1;
                };
            }
        "#;
        let lowered = compile_to_mir(src).unwrap();
        let mut module = lowered.module.clone();
        lower_views(&mut module, Some(4), true);
        revet_mir::verify_module(&module).unwrap();
        let layout = DramLayout { base: vec![0] };
        let mut mem = module.build_memory(4096);
        Interp::new(&module, &layout, &mut mem)
            .run("main", &[Word(6)])
            .unwrap();
        assert_eq!(&mem.dram[0..6], b"ABCDEF", "6 = one full tile + partial");
    }

    /// Fusion means one allocator per region; without fusion each object
    /// gets its own.
    #[test]
    fn allocation_fusion_counts() {
        let src = r#"
            dram<u32> a;
            dram<u32> b;
            void main(u32 n) {
                foreach (n) { u32 i =>
                    readview<4> va(a, i);
                    readview<4> vb(b, i);
                    u32 x = va[0] + vb[1];
                };
            }
        "#;
        let lowered = compile_to_mir(src).unwrap();
        let mut fused = lowered.module.clone();
        lower_views(&mut fused, Some(8), true);
        let mut unfused = lowered.module.clone();
        lower_views(&mut unfused, Some(8), false);
        assert_eq!(fused.allocs.len(), 1, "one fused allocator");
        assert_eq!(unfused.allocs.len(), 2, "one allocator per object");
        let pops_fused = fused.funcs[0].count_ops(|k| matches!(k, OpKind::AllocPop { .. }));
        let pops_unfused = unfused.funcs[0].count_ops(|k| matches!(k, OpKind::AllocPop { .. }));
        assert_eq!(pops_fused, 1);
        assert_eq!(pops_unfused, 2);
    }

    /// Peek iterators keep a double window so peeks never fault.
    #[test]
    fn peek_iterator_window() {
        let src = r#"
            dram<u8> text;
            dram<u32> output;
            void main(u32 n) {
                peekreadit<4> it(text, 0);
                u32 hits = 0;
                u32 i = 0;
                while (i < n) {
                    if ((*it == 'a') && (it.peek(1) == 'b')) {
                        hits = hits + 1;
                    };
                    it++;
                    i = i + 1;
                };
                output[0] = hits;
            }
        "#;
        let lowered = compile_to_mir(src).unwrap();
        let mut module = lowered.module.clone();
        lower_views(&mut module, Some(4), true);
        let layout = DramLayout {
            base: vec![0, 4096],
        };
        let mut mem = module.build_memory(8192);
        let text = b"ababxxab";
        mem.dram[..text.len()].copy_from_slice(text);
        Interp::new(&module, &layout, &mut mem)
            .run("main", &[Word(text.len() as u32 - 1)])
            .unwrap();
        let hits = u32::from_le_bytes(mem.dram[4096..4100].try_into().unwrap());
        assert_eq!(hits, 3);
    }
}
