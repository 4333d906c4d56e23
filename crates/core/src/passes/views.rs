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

#![warn(clippy::too_many_lines)]

use revet_machine::{AllocId, SramId};
use revet_mir::{
    AluOp, DramRef, Func, ItKind, Module, Op, OpKind, Pass, PassResult, RegionBuilder, Results,
    Rewriter, Ty, Value, ValueMap, ViewKind,
};

/// View & iterator lowering plus allocation fusion (§V-A a, §V-B a):
/// rewrites the high-level memory dialect into SRAM regions, allocator
/// queues, and bulk transfers.
///
/// Every region holds one buffer per thread ([`Module::thread_count`]).
pub struct LowerViews {
    /// §V-B a: share one allocator pop per region (allocation fusion).
    pub fuse: bool,
}

impl Pass for LowerViews {
    fn name(&self) -> &str {
        "lower_views"
    }

    fn run(&self, m: &mut Module) -> PassResult {
        m.rewrite(&mut Views {
            threads: m.thread_count(),
            fuse: self.fuse,
            objs: ValueMap::new(),
            counter: 0,
            frames: Vec::new(),
        })
    }
}

/// One lowered memory object.
#[derive(Clone, Copy)]
enum Obj {
    View(View),
    It(It),
}

#[derive(Clone, Copy)]
struct View {
    kind: ViewKind,
    dram: Option<DramRef>,
    base: Option<Value>,
    size: u32,
    sram: SramId,
    ptr: Value,
}

#[derive(Clone, Copy)]
struct It {
    kind: ItKind,
    dram: DramRef,
    tile: u32,
    /// Buffer words per thread: the tile, doubled for `PeekRead`.
    win: u32,
    buf: SramId,
    state: SramId,
    ptr: Value,
}

/// What one region allocated, torn down before its terminator.
#[derive(Default)]
struct Frame {
    ptrs: Vec<(Value, AllocId)>,
    objs: Vec<Value>,
}

/// Pass state.
struct Views {
    threads: u32,
    fuse: bool,
    /// Objects by handle value (visible to nested regions).
    objs: ValueMap<Obj>,
    counter: u32,
    /// One frame per region the walk is inside of, innermost last.
    frames: Vec<Frame>,
}

/// `ptr * scale + off`
fn buf_addr(out: &mut RegionBuilder, func: &mut Func, ptr: Value, scale: u32, off: Value) -> Value {
    let s = out.const_i32(func, scale as i64);
    let mul = out.bin(func, AluOp::Mul, ptr, s);
    out.bin(func, AluOp::Add, mul, off)
}

/// The addresses of an iterator's [`ItKind::STATE_WORDS`] state words,
/// laid out `[g, l]` at `ptr*2`: `g` is the DRAM position of the buffered
/// window, `l` the cursor within it.
struct ItState {
    g: Value,
    l: Value,
    one: Value,
}

impl It {
    fn state_addrs(&self, out: &mut RegionBuilder, func: &mut Func) -> ItState {
        let two = out.const_i32(func, ItKind::STATE_WORDS.into());
        let g = out.bin(func, AluOp::Mul, self.ptr, two);
        let one = out.const_i32(func, 1);
        let l = out.bin(func, AluOp::Add, g, one);
        ItState { g, l, one }
    }

    fn init(&self, out: &mut RegionBuilder, func: &mut Func, seek: Value) {
        let st = self.state_addrs(out, func);
        if self.kind == ItKind::Read {
            // g = seek - tile; l = tile ⇒ first deref fills.
            let t = out.const_i32(func, self.tile as i64);
            let g0 = out.bin(func, AluOp::Sub, seek, t);
            out.sram_write(self.state, st.g, g0);
            out.sram_write(self.state, st.l, t);
            return;
        }
        out.sram_write(self.state, st.g, seek);
        let zero = out.const_i32(func, 0);
        out.sram_write(self.state, st.l, zero);
        if self.kind == ItKind::PeekRead {
            // Eager fill of the 2×tile window at creation.
            let sbase = buf_addr(out, func, self.ptr, self.win, zero);
            let len = out.const_i32(func, self.win as i64);
            out.bulk_load(self.dram, seek, self.buf, sbase, len);
        }
    }

    fn deref(&self, out: &mut RegionBuilder, func: &mut Func, results: Results) {
        let st = self.state_addrs(out, func);
        let l = out.sram_read(func, self.state, st.l);
        let t = out.const_i32(func, self.tile as i64);
        let need = out.bin(func, AluOp::GeU, l, t);
        // Miss path: advance window and refill (an `if` containing a bulk
        // load — the Fig. 6 structure).
        let mut then = RegionBuilder::new();
        let g = then.sram_read(func, self.state, st.g);
        let t2 = then.const_i32(func, self.tile as i64);
        let g2 = then.bin(func, AluOp::Add, g, t2);
        then.sram_write(self.state, st.g, g2);
        let lnew = then.bin(func, AluOp::Sub, l, t2);
        then.sram_write(self.state, st.l, lnew);
        let zero = then.const_i32(func, 0);
        let sbase = buf_addr(&mut then, func, self.ptr, self.win, zero);
        let wlen = then.const_i32(func, self.win as i64);
        then.bulk_load(self.dram, g2, self.buf, sbase, wlen);
        let lcur = out.if_else(func, need, then, lnew, l);
        let addr = buf_addr(out, func, self.ptr, self.win, lcur);
        let sram = self.buf;
        out.push(OpKind::SramRead { sram, addr }, results);
    }

    /// peek(a) reads buf[l + a]; the 2×tile window guarantees validity for
    /// a ≤ tile (no fill here; deref faults).
    fn peek(&self, out: &mut RegionBuilder, func: &mut Func, ahead: Value, results: Results) {
        let st = self.state_addrs(out, func);
        let l = out.sram_read(func, self.state, st.l);
        let la = out.bin(func, AluOp::Add, l, ahead);
        let addr = buf_addr(out, func, self.ptr, 2 * self.tile, la);
        let sram = self.buf;
        out.push(OpKind::SramRead { sram, addr }, results);
    }

    fn write(&self, out: &mut RegionBuilder, func: &mut Func, val: Value) {
        let st = self.state_addrs(out, func);
        let l = out.sram_read(func, self.state, st.l);
        let addr = buf_addr(out, func, self.ptr, self.tile, l);
        out.sram_write(self.buf, addr, val);
    }

    fn inc(&self, out: &mut RegionBuilder, func: &mut Func, last: Option<Value>) {
        let st = self.state_addrs(out, func);
        let l = out.sram_read(func, self.state, st.l);
        let linc = out.bin(func, AluOp::Add, l, st.one);
        if matches!(self.kind, ItKind::Read | ItKind::PeekRead) {
            // Just advance; deref handles refills.
            out.sram_write(self.state, st.l, linc);
            return;
        }
        let t = out.const_i32(func, self.tile as i64);
        let full = out.bin(func, AluOp::GeU, linc, t);
        let flush = match last {
            Some(lv) if self.kind == ItKind::ManualWrite => {
                let zero = out.const_i32(func, 0);
                let lastb = out.bin(func, AluOp::Ne, lv, zero);
                out.bin(func, AluOp::Or, full, lastb)
            }
            _ => full,
        };
        // if (flush) { store l+1 words; g += l+1; l = 0 }
        // else { l = l+1 }
        let mut then = RegionBuilder::new();
        let g = then.sram_read(func, self.state, st.g);
        let zero = then.const_i32(func, 0);
        let sbase = buf_addr(&mut then, func, self.ptr, self.tile, zero);
        then.bulk_store(self.dram, g, self.buf, sbase, linc);
        let g2 = then.bin(func, AluOp::Add, g, linc);
        then.sram_write(self.state, st.g, g2);
        let lnext = out.if_else(func, flush, then, zero, linc);
        out.sram_write(self.state, st.l, lnext);
    }

    /// Flushes the partial tile (l words from buf).
    fn flush(&self, out: &mut RegionBuilder, func: &mut Func) {
        let st = self.state_addrs(out, func);
        let l = out.sram_read(func, self.state, st.l);
        let g = out.sram_read(func, self.state, st.g);
        let zero = out.const_i32(func, 0);
        let sbase = buf_addr(out, func, self.ptr, self.tile, zero);
        out.bulk_store(self.dram, g, self.buf, sbase, l);
    }
}

impl Views {
    fn view(&self, handle: Value) -> View {
        match self.objs[handle] {
            Obj::View(v) => v,
            Obj::It(_) => unreachable!("view access on iterator"),
        }
    }

    fn it(&self, handle: Value) -> It {
        match self.objs[handle] {
            Obj::It(it) => it,
            Obj::View(_) => unreachable!("iterator access on view"),
        }
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("ops live inside a region")
    }

    fn declare(&mut self, handle: Value, obj: Obj) {
        self.objs.insert(handle, obj);
        self.frame().objs.push(handle);
    }

    /// Returns the region's fused pointer, popping it on first use. With
    /// fusion disabled each allocation site gets its own pop (ablation).
    fn get_ptr(&mut self, out: &mut RegionBuilder, func: &mut Func, module: &mut Module) -> Value {
        if let (true, Some((p, _))) = (self.fuse, self.frame().ptrs.first()) {
            return *p;
        }
        self.counter += 1;
        let alloc = module.add_alloc(format!("alloc{}", self.counter), self.threads);
        let p = out.emit(func, OpKind::AllocPop { alloc }, Ty::I32);
        self.frame().ptrs.push((p, alloc));
        p
    }
}

impl Rewriter for Views {
    fn enter_region(&mut self) {
        if self.frames.is_empty() {
            // A function body: handles and object numbering are per function.
            self.objs.clear();
            self.counter = 0;
        }
        self.frames.push(Frame::default());
    }

    fn op(
        &mut self,
        out: &mut RegionBuilder,
        func: &mut Func,
        module: &mut Module,
        op: Op,
    ) -> Option<Op> {
        match op.kind {
            OpKind::ViewNew {
                kind,
                dram,
                base,
                size,
            } => {
                let ptr = self.get_ptr(out, func, module);
                self.counter += 1;
                let sram = module.add_sram(format!("view{}", self.counter), size * self.threads);
                if matches!(kind, ViewKind::Read | ViewKind::Modify) {
                    let dram = dram.expect("read view needs a dram symbol");
                    let base = base.expect("read view needs a base");
                    let zero = out.const_i32(func, 0);
                    let sbase = buf_addr(out, func, ptr, size, zero);
                    let len = out.const_i32(func, size as i64);
                    out.bulk_load(dram, base, sram, sbase, len);
                }
                let view = View {
                    kind,
                    dram,
                    base,
                    size,
                    sram,
                    ptr,
                };
                self.declare(op.results[0], Obj::View(view));
            }
            OpKind::ItNew {
                kind,
                dram,
                seek,
                tile,
            } => {
                let ptr = self.get_ptr(out, func, module);
                self.counter += 1;
                let win = kind.window(tile);
                let n = self.counter;
                let buf = module.add_sram(format!("itbuf{n}"), win * self.threads);
                let words = ItKind::STATE_WORDS * self.threads;
                let state = module.add_sram(format!("itstate{n}"), words);
                let it = It {
                    kind,
                    dram,
                    tile,
                    win,
                    buf,
                    state,
                    ptr,
                };
                it.init(out, func, seek);
                self.declare(op.results[0], Obj::It(it));
            }
            OpKind::ViewRead { view, idx } => {
                let v = self.view(view);
                let addr = buf_addr(out, func, v.ptr, v.size, idx);
                out.push(OpKind::SramRead { sram: v.sram, addr }, op.results);
            }
            OpKind::ViewWrite { view, idx, val } => {
                let v = self.view(view);
                let addr = buf_addr(out, func, v.ptr, v.size, idx);
                out.sram_write(v.sram, addr, val);
            }
            OpKind::ItDeref { it } => self.it(it).deref(out, func, op.results),
            OpKind::ItPeek { it, ahead } => self.it(it).peek(out, func, ahead, op.results),
            OpKind::ItWrite { it, val } => self.it(it).write(out, func, val),
            OpKind::ItInc { it, last } => self.it(it).inc(out, func, last),
            _ => return Some(op),
        }
        None
    }

    /// Emits write-view/write-iterator flushes and the allocator pushes.
    fn before_terminator(
        &mut self,
        out: &mut RegionBuilder,
        func: &mut Func,
        _module: &mut Module,
    ) {
        let frame = self.frames.pop().expect("entered this region");
        for handle in &frame.objs {
            match self.objs[*handle] {
                Obj::View(View {
                    kind: ViewKind::Write | ViewKind::Modify,
                    dram: Some(dram),
                    base: Some(base),
                    size,
                    sram,
                    ptr,
                }) => {
                    let zero = out.const_i32(func, 0);
                    let sbase = buf_addr(out, func, ptr, size, zero);
                    let len = out.const_i32(func, size as i64);
                    out.bulk_store(dram, base, sram, sbase, len);
                }
                // `ManualWrite` flushes on the caller's `last` hint instead.
                Obj::It(it) if it.kind == ItKind::Write => it.flush(out, func),
                _ => {}
            }
        }
        for (ptr, alloc) in frame.ptrs {
            out.emit0(OpKind::AllocPush { alloc, ptr });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_lang::compile_to_mir;
    use revet_oracle::interp::{run_main, DEFAULT_FUEL};

    fn lower(module: &mut Module, threads: u32, fuse: bool) -> PassResult {
        module.threads = Some(threads);
        LowerViews { fuse }.run(module)
    }

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

        // Three 4 KiB slices: input, offsets, output.
        let overlays = [(0, input), (4096, offsets)];
        let run = |module: &Module| -> Vec<u8> {
            let n = strings.len() as u32;
            let mem = run_main(module, 12 * 1024, &[n], &overlays, DEFAULT_FUEL).unwrap();
            mem.dram.to_vec()
        };

        let lowered = compile_to_mir(src).unwrap();
        let before = run(&lowered);

        let mut module = lowered.clone();
        assert!(lower(&mut module, 16, true).changed());
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
        let mut module = compile_to_mir(src).unwrap();
        lower(&mut module, 4, true);
        revet_mir::verify_module(&module).unwrap();
        let mem = run_main(&module, 4096, &[6], &[], DEFAULT_FUEL).unwrap();
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
        let mut fused = lowered.clone();
        lower(&mut fused, 8, true);
        let mut unfused = lowered.clone();
        lower(&mut unfused, 8, false);
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
        let mut module = compile_to_mir(src).unwrap();
        lower(&mut module, 4, true);
        let text = b"ababxxab";
        let n = text.len() as u32 - 1;
        let mem = run_main(&module, 8192, &[n], &[(0, text.to_vec())], DEFAULT_FUEL).unwrap();
        let hits = u32::from_le_bytes(mem.dram[4096..4100].try_into().unwrap());
        assert_eq!(hits, 3);
    }
}
