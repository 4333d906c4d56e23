//! A reference interpreter for MIR.
//!
//! Defines the *sequential* semantics that the dataflow compiler must
//! preserve: `foreach` iterations and `fork` spawns are executed in index
//! order (legal because the language only admits unordered, data-race-free
//! parallelism), views and iterators operate directly on DRAM (tile staging
//! is a performance transformation, not a semantic one). The interpreter
//! runs both *before* and *after* lowering passes, making every pass
//! differentially testable, and serves as the oracle for compiled dataflow
//! execution.

use revet_machine::MemoryState;
use revet_mir::{DramLayout, DramRef, Module, Op, OpKind, Region, Ty, Value};
use revet_sltf::Word;
use std::collections::HashMap;
use std::fmt;

/// An interpretation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterpError {
    /// Description.
    pub message: String,
}

impl InterpError {
    fn new(m: impl Into<String>) -> Self {
        InterpError { message: m.into() }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interp error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

/// The dynamic-op budget [`Interp::new`] starts with.
pub const DEFAULT_FUEL: u64 = 100_000_000;

/// Runs `main(args)` on a fresh `dram_bytes` image laid out as the compiler
/// lays it out ([`DramLayout::equal_slices`]), with each `(byte offset,
/// bytes)` overlay written in first; returns the final memory.
///
/// # Errors
///
/// [`MemoryState::write_dram`]'s error for an overlay past the image, or
/// [`Interp::run`]'s (fuel exhaustion included).
pub fn run_main(
    module: &Module,
    dram_bytes: usize,
    args: &[u32],
    overlays: &[(u64, Vec<u8>)],
    fuel: u64,
) -> Result<MemoryState, InterpError> {
    let layout = DramLayout::equal_slices(module.drams.len(), dram_bytes);
    let mut mem = module.build_memory(dram_bytes);
    for (offset, bytes) in overlays {
        let offset = usize::try_from(*offset).unwrap_or(usize::MAX);
        mem.write_dram(offset, bytes)
            .map_err(|e| InterpError::new(e.to_string()))?;
    }
    let args: Vec<Word> = args.iter().map(|&a| Word(a)).collect();
    Interp::new(module, &layout, &mut mem)
        .with_fuel(fuel)
        .run("main", &args)?;
    Ok(mem)
}

/// Thread-level control flow.
enum Flow {
    /// Fell off the end of a region (no terminator encountered).
    Normal,
    /// `Yield(vals)`.
    Yield(Vec<Word>),
    /// `Condition { cond, fwd }`.
    Cond(bool, Vec<Word>),
    /// `Return(vals)`.
    Return(Vec<Word>),
    /// `Exit` — the thread terminated.
    Exit,
}

/// Per-handle state for high-level view/iterator ops.
#[derive(Clone, Debug)]
enum HandleObj {
    View {
        dram: Option<DramRef>,
        /// Base element index in the DRAM symbol.
        base: u32,
        /// Thread-local scratch for `ViewKind::Sram`.
        local: Vec<Word>,
    },
    It {
        dram: DramRef,
        cursor: u32,
    },
}

/// The MIR interpreter. Owns nothing: module, layout, and memory are
/// borrowed so callers can inspect DRAM afterwards.
pub struct Interp<'m> {
    module: &'m Module,
    layout: &'m DramLayout,
    mem: &'m mut MemoryState,
    fuel: u64,
    /// Dynamic op count (reported for rough workload sizing).
    pub ops_executed: u64,
}

impl fmt::Debug for Interp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("fuel", &self.fuel)
            .field("ops_executed", &self.ops_executed)
            .finish_non_exhaustive()
    }
}

/// Everything a single function activation needs.
struct Frame {
    env: Vec<Word>,
    handles: HashMap<Value, HandleObj>,
}

impl<'m> Interp<'m> {
    /// Creates an interpreter with [`DEFAULT_FUEL`].
    pub fn new(module: &'m Module, layout: &'m DramLayout, mem: &'m mut MemoryState) -> Self {
        Interp {
            module,
            layout,
            mem,
            fuel: DEFAULT_FUEL,
            ops_executed: 0,
        }
    }

    /// Overrides the dynamic-op budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs a function by name with word arguments.
    ///
    /// # Errors
    ///
    /// Fails on unknown functions, fuel exhaustion, or malformed IR.
    pub fn run(&mut self, name: &str, args: &[Word]) -> Result<Vec<Word>, InterpError> {
        let func = self
            .module
            .func(name)
            .ok_or_else(|| InterpError::new(format!("no function '{name}'")))?;
        if args.len() != func.params.len() {
            return Err(InterpError::new(format!(
                "'{name}' takes {} arguments, got {}",
                func.params.len(),
                args.len()
            )));
        }
        let mut frame = Frame {
            env: vec![Word::ZERO; func.value_count()],
            handles: HashMap::new(),
        };
        for (p, a) in func.params.iter().zip(args) {
            frame.env[p.0 as usize] = *a;
        }
        match self.exec_region(&mut frame, &func.body, &[])? {
            Flow::Return(vals) => Ok(vals),
            Flow::Exit => Ok(Vec::new()),
            Flow::Normal => Ok(Vec::new()),
            _ => Err(InterpError::new(
                "function body ended with a non-return terminator",
            )),
        }
    }

    fn burn(&mut self) -> Result<(), InterpError> {
        if self.fuel == 0 {
            return Err(InterpError::new("fuel exhausted (runaway loop?)"));
        }
        self.fuel -= 1;
        self.ops_executed += 1;
        Ok(())
    }

    fn exec_region(
        &mut self,
        fr: &mut Frame,
        region: &Region,
        args: &[Word],
    ) -> Result<Flow, InterpError> {
        if args.len() != region.args.len() {
            return Err(InterpError::new(format!(
                "region expects {} args, got {}",
                region.args.len(),
                args.len()
            )));
        }
        for (v, a) in region.args.iter().zip(args) {
            fr.env[v.0 as usize] = *a;
        }
        for op in &region.ops {
            match self.exec_op(fr, op)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn get(&self, fr: &Frame, v: Value) -> Word {
        fr.env[v.0 as usize]
    }

    fn set_results(&mut self, fr: &mut Frame, op: &Op, vals: &[Word]) {
        for (r, v) in op.results.iter().zip(vals) {
            fr.env[r.0 as usize] = *v;
        }
    }

    fn dram_addr(&self, d: DramRef, idx: Word) -> (u32, u32) {
        let eb = self.module.drams[d.0 as usize].elem_bytes;
        (self.layout.addr(d, eb, idx.as_u32()), eb)
    }

    fn dram_load(&mut self, d: DramRef, idx: Word) -> Word {
        let (addr, eb) = self.dram_addr(d, idx);
        match eb {
            1 => self.mem.dram_read_byte(addr),
            2 => {
                let lo = self.mem.dram_read_byte(addr).as_u32();
                let hi = self.mem.dram_read_byte(addr + 1).as_u32();
                Word(lo | (hi << 8))
            }
            _ => self.mem.dram_read_word(addr),
        }
    }

    fn dram_store(&mut self, d: DramRef, idx: Word, val: Word) {
        let (addr, eb) = self.dram_addr(d, idx);
        match eb {
            1 => self.mem.dram_write_byte(addr, val),
            2 => {
                self.mem.dram_write_byte(addr, Word(val.as_u32() & 0xFF));
                self.mem
                    .dram_write_byte(addr + 1, Word((val.as_u32() >> 8) & 0xFF));
            }
            _ => self.mem.dram_write_word(addr, val),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_op(&mut self, fr: &mut Frame, op: &Op) -> Result<Flow, InterpError> {
        self.burn()?;
        match &op.kind {
            OpKind::ConstI(v, ty) => {
                // The oracle's own copy of `Ty::materialize`, independent on purpose.
                let w = match ty {
                    Ty::I8 => Word((*v as u8) as u32),
                    Ty::I16 => Word((*v as u16) as u32),
                    _ => Word(*v as u32),
                };
                self.set_results(fr, op, &[w]);
            }
            OpKind::Bin(alu, a, b) => {
                let r = alu.apply(self.get(fr, *a), self.get(fr, *b));
                self.set_results(fr, op, &[r]);
            }
            OpKind::Select(c, t, f) => {
                let r = if self.get(fr, *c).as_bool() {
                    self.get(fr, *t)
                } else {
                    self.get(fr, *f)
                };
                self.set_results(fr, op, &[r]);
            }
            OpKind::Cast { v, to, signed } => {
                let w = self.get(fr, *v);
                let r = match (to, signed) {
                    (Ty::I8, false) => Word(w.as_u32() & 0xFF),
                    (Ty::I8, true) => Word::from_i32(w.as_u32() as u8 as i8 as i32),
                    (Ty::I16, false) => Word(w.as_u32() & 0xFFFF),
                    (Ty::I16, true) => Word::from_i32(w.as_u32() as u16 as i16 as i32),
                    _ => w,
                };
                self.set_results(fr, op, &[r]);
            }
            OpKind::SramRead { sram, addr } => {
                let a = self.get(fr, *addr).as_u32();
                let r = self.mem.sram_read(*sram, a);
                self.set_results(fr, op, &[r]);
            }
            OpKind::SramWrite { sram, addr, val } => {
                let a = self.get(fr, *addr).as_u32();
                let v = self.get(fr, *val);
                self.mem.sram_write(*sram, a, v);
            }
            OpKind::SramDecFetch { sram, addr } => {
                let a = self.get(fr, *addr).as_u32();
                let new = Word(self.mem.sram_read(*sram, a).as_u32().wrapping_sub(1));
                self.mem.sram_write(*sram, a, new);
                self.set_results(fr, op, &[new]);
            }
            OpKind::DramRead { dram, idx } => {
                let i = self.get(fr, *idx);
                let r = self.dram_load(*dram, i);
                self.set_results(fr, op, &[r]);
            }
            OpKind::DramWrite { dram, idx, val } => {
                let i = self.get(fr, *idx);
                let v = self.get(fr, *val);
                self.dram_store(*dram, i, v);
            }
            OpKind::AllocPop { alloc } => {
                let ptr = self
                    .mem
                    .alloc_pop(*alloc)
                    .ok_or_else(|| InterpError::new("allocator exhausted in sequential interp"))?;
                self.set_results(fr, op, &[Word(ptr)]);
            }
            OpKind::AllocPush { alloc, ptr } => {
                let p = self.get(fr, *ptr).as_u32();
                self.mem.alloc_push(*alloc, p);
            }
            OpKind::BulkLoad {
                dram,
                dram_base,
                sram,
                sram_base,
                len,
            } => {
                let db = self.get(fr, *dram_base).as_u32();
                let sb = self.get(fr, *sram_base).as_u32();
                let n = self.get(fr, *len).as_u32();
                for i in 0..n {
                    let v = self.dram_load(*dram, Word(db + i));
                    self.mem.sram_write(*sram, sb + i, v);
                }
            }
            OpKind::BulkStore {
                dram,
                dram_base,
                sram,
                sram_base,
                len,
            } => {
                let db = self.get(fr, *dram_base).as_u32();
                let sb = self.get(fr, *sram_base).as_u32();
                let n = self.get(fr, *len).as_u32();
                for i in 0..n {
                    let v = self.mem.sram_read(*sram, sb + i);
                    self.dram_store(*dram, Word(db + i), v);
                }
            }
            OpKind::If { cond, then, else_ } => {
                let taken = self.get(fr, *cond).as_bool();
                let region = if taken { then } else { else_ };
                match self.exec_region(fr, region, &[])? {
                    Flow::Yield(vals) => self.set_results(fr, op, &vals),
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            OpKind::While {
                inits,
                before,
                after,
            } => {
                let mut carried: Vec<Word> = inits.iter().map(|v| self.get(fr, *v)).collect();
                loop {
                    match self.exec_region(fr, before, &carried)? {
                        Flow::Cond(true, fwd) => match self.exec_region(fr, after, &fwd)? {
                            Flow::Yield(next) => carried = next,
                            Flow::Exit => return Ok(Flow::Exit),
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            _ => return Err(InterpError::new("while body must end in yield")),
                        },
                        Flow::Cond(false, fwd) => {
                            self.set_results(fr, op, &fwd);
                            break;
                        }
                        Flow::Exit => return Ok(Flow::Exit),
                        _ => {
                            return Err(InterpError::new(
                                "while condition region must end in condition op",
                            ))
                        }
                    }
                }
            }
            OpKind::Foreach {
                lo,
                hi,
                step,
                body,
                reduce,
                ..
            } => {
                let lo = self.get(fr, *lo).as_i32() as i64;
                let hi = self.get(fr, *hi).as_i32() as i64;
                let step = self.get(fr, *step).as_i32() as i64;
                if step == 0 {
                    return Err(InterpError::new("foreach step is zero"));
                }
                let mut accs: Vec<Word> = reduce.iter().map(|op| op.reduction_identity()).collect();
                let mut i = lo;
                while (step > 0 && i < hi) || (step < 0 && i > hi) {
                    match self.exec_region(fr, body, &[Word::from_i32(i as i32)])? {
                        Flow::Yield(vals) => {
                            for ((acc, op_), v) in accs.iter_mut().zip(reduce).zip(&vals) {
                                *acc = op_.apply(*acc, *v);
                            }
                        }
                        Flow::Normal => {}
                        Flow::Exit => {} // exited threads contribute nothing
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Cond(..) => return Err(InterpError::new("condition outside while")),
                    }
                    i += step;
                }
                self.set_results(fr, op, &accs);
            }
            OpKind::Replicate { body, .. } => {
                // Semantically identity: execute the body once per thread.
                match self.exec_region(fr, body, &[])? {
                    Flow::Yield(vals) => self.set_results(fr, op, &vals),
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            OpKind::Fork { count, body } => {
                let n = self.get(fr, *count).as_i32() as i64;
                let mut survivor: Option<Vec<Word>> = None;
                for i in 0..n {
                    match self.exec_region(fr, body, &[Word::from_i32(i as i32)])? {
                        Flow::Yield(vals) => {
                            if survivor.is_some() {
                                return Err(InterpError::new(
                                    "fork: more than one spawned thread reached the \
                                     continuation (yield)",
                                ));
                            }
                            survivor = Some(vals);
                        }
                        Flow::Normal | Flow::Exit => {}
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Cond(..) => return Err(InterpError::new("condition outside while")),
                    }
                }
                match survivor {
                    Some(vals) => self.set_results(fr, op, &vals),
                    None => return Ok(Flow::Exit), // no continuation thread
                }
            }
            OpKind::Predicated {
                pred,
                expect,
                inner,
            } => {
                if self.get(fr, *pred).as_bool() == *expect {
                    let inner_op = Op {
                        kind: (**inner).clone(),
                        results: op.results.clone(),
                    };
                    return self.exec_op(fr, &inner_op);
                }
                let zeros = vec![Word::ZERO; op.results.len()];
                self.set_results(fr, op, &zeros);
            }
            OpKind::Exit => return Ok(Flow::Exit),
            OpKind::Yield(vs) => {
                let vals = vs.iter().map(|v| self.get(fr, *v)).collect();
                return Ok(Flow::Yield(vals));
            }
            OpKind::Condition { cond, fwd } => {
                let c = self.get(fr, *cond).as_bool();
                let vals = fwd.iter().map(|v| self.get(fr, *v)).collect();
                return Ok(Flow::Cond(c, vals));
            }
            OpKind::Return(vs) => {
                let vals = vs.iter().map(|v| self.get(fr, *v)).collect();
                return Ok(Flow::Return(vals));
            }
            OpKind::ViewNew {
                dram, base, size, ..
            } => {
                let base_elem = base.map_or(0, |b| self.get(fr, b).as_u32());
                let result = op.results[0];
                fr.handles.insert(
                    result,
                    HandleObj::View {
                        dram: *dram,
                        base: base_elem,
                        local: if dram.is_none() {
                            vec![Word::ZERO; *size as usize]
                        } else {
                            Vec::new()
                        },
                    },
                );
                self.set_results(fr, op, &[Word::ZERO]);
            }
            OpKind::ViewRead { view, idx } => {
                let i = self.get(fr, *idx).as_u32();
                let obj = fr
                    .handles
                    .get(view)
                    .ok_or_else(|| InterpError::new("view read on unknown handle"))?
                    .clone();
                let r = match obj {
                    HandleObj::View {
                        dram: Some(d),
                        base,
                        ..
                    } => self.dram_load(d, Word(base + i)),
                    HandleObj::View {
                        dram: None, local, ..
                    } => local.get(i as usize).copied().unwrap_or(Word::ZERO),
                    HandleObj::It { .. } => {
                        return Err(InterpError::new("view read on iterator handle"))
                    }
                };
                self.set_results(fr, op, &[r]);
            }
            OpKind::ViewWrite { view, idx, val } => {
                let i = self.get(fr, *idx).as_u32();
                let v = self.get(fr, *val);
                let obj = fr
                    .handles
                    .get_mut(view)
                    .ok_or_else(|| InterpError::new("view write on unknown handle"))?;
                match obj {
                    HandleObj::View {
                        dram: Some(d),
                        base,
                        ..
                    } => {
                        let (d, base) = (*d, *base);
                        self.dram_store(d, Word(base + i), v);
                    }
                    HandleObj::View {
                        dram: None, local, ..
                    } => {
                        let len = local.len();
                        *local.get_mut(i as usize).ok_or_else(|| {
                            InterpError::new(format!("SRAM view write {i} out of {len}"))
                        })? = v;
                    }
                    HandleObj::It { .. } => {
                        return Err(InterpError::new("view write on iterator handle"))
                    }
                }
            }
            OpKind::ItNew { dram, seek, .. } => {
                let cursor = self.get(fr, *seek).as_u32();
                fr.handles.insert(
                    op.results[0],
                    HandleObj::It {
                        dram: *dram,
                        cursor,
                    },
                );
                self.set_results(fr, op, &[Word::ZERO]);
            }
            OpKind::ItDeref { it } => {
                let (d, c) = self.it_state(fr, *it)?;
                let r = self.dram_load(d, Word(c));
                self.set_results(fr, op, &[r]);
            }
            OpKind::ItPeek { it, ahead } => {
                let a = self.get(fr, *ahead).as_u32();
                let (d, c) = self.it_state(fr, *it)?;
                let r = self.dram_load(d, Word(c + a));
                self.set_results(fr, op, &[r]);
            }
            OpKind::ItWrite { it, val } => {
                let v = self.get(fr, *val);
                let (d, c) = self.it_state(fr, *it)?;
                self.dram_store(d, Word(c), v);
            }
            OpKind::ItInc { it, .. } => {
                match fr.handles.get_mut(it) {
                    Some(HandleObj::It { cursor, .. }) => *cursor += 1,
                    _ => return Err(InterpError::new("it++ on non-iterator handle")),
                };
            }
        }
        Ok(Flow::Normal)
    }

    fn it_state(&self, fr: &Frame, it: Value) -> Result<(DramRef, u32), InterpError> {
        match fr.handles.get(&it) {
            Some(HandleObj::It { dram, cursor }) => Ok((*dram, *cursor)),
            _ => Err(InterpError::new("iterator op on non-iterator handle")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_mir::{AluOp, ForeachFlags, Func, RegionBuilder};

    /// What `main(args)` returns, for a module without DRAM symbols.
    fn returns(module: &Module, args: &[Word]) -> Vec<Word> {
        let mut mem = module.build_memory(64);
        let layout = DramLayout::default();
        Interp::new(module, &layout, &mut mem)
            .run("main", args)
            .unwrap()
    }

    #[test]
    fn arith_and_return() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let p = f.params[0];
        let mut b = RegionBuilder::new();
        let c = b.const_i32(&mut f, 10);
        let s = b.bin(&mut f, AluOp::Mul, p, c);
        b.emit0(OpKind::Return(vec![s]));
        f.body = b.build();
        m.funcs.push(f);
        let out = returns(&m, &[Word(7)]);
        assert_eq!(out, vec![Word(70)]);
    }

    #[test]
    fn foreach_sum_reduction() {
        // main(n) = sum over i in 0..n of i*i
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let n = f.params[0];
        let mut b = RegionBuilder::new();
        let lo = b.const_i32(&mut f, 0);
        let step = b.const_i32(&mut f, 1);
        let i = f.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![i]);
        let sq = body.bin(&mut f, AluOp::Mul, i, i);
        body.emit0(OpKind::Yield(vec![sq]));
        let sum = f.new_value(Ty::I32);
        b.push(
            OpKind::Foreach {
                lo,
                hi: n,
                step,
                body: body.build(),
                reduce: vec![AluOp::Add],
                flags: ForeachFlags::default(),
            },
            vec![sum],
        );
        b.emit0(OpKind::Return(vec![sum]));
        f.body = b.build();
        m.funcs.push(f);
        let out = returns(&m, &[Word(5)]);
        // squares of 0..5
        assert_eq!(out, vec![Word(1 + 4 + 9 + 16)]);
    }

    #[test]
    fn while_countdown() {
        // main(n): while (n > 0) { n = n - 1 }; return n
        let mut m = Module::default();
        let mut f = Func::new("main", &[Ty::I32], vec![Ty::I32]);
        let n = f.params[0];
        let cv = f.new_value(Ty::I32);
        let mut before = RegionBuilder::with_args(vec![cv]);
        let zero = before.const_i32(&mut f, 0);
        let c = before.bin(&mut f, AluOp::GtS, cv, zero);
        before.emit0(OpKind::Condition {
            cond: c,
            fwd: vec![cv],
        });
        let av = f.new_value(Ty::I32);
        let mut after = RegionBuilder::with_args(vec![av]);
        let one = after.const_i32(&mut f, 1);
        let dec = after.bin(&mut f, AluOp::Sub, av, one);
        after.emit0(OpKind::Yield(vec![dec]));
        let out_v = f.new_value(Ty::I32);
        let mut b = RegionBuilder::new();
        b.push(
            OpKind::While {
                inits: vec![n],
                before: before.build(),
                after: after.build(),
            },
            vec![out_v],
        );
        b.emit0(OpKind::Return(vec![out_v]));
        f.body = b.build();
        m.funcs.push(f);
        let out = returns(&m, &[Word(9)]);
        assert_eq!(out, vec![Word(0)]);
    }

    #[test]
    fn fork_with_single_survivor() {
        // fork(3): thread 2 survives and yields its index; others exit.
        let mut m = Module::default();
        let mut f = Func::new("main", &[], vec![Ty::I32]);
        let mut b = RegionBuilder::new();
        let count = b.const_i32(&mut f, 3);
        let iv = f.new_value(Ty::I32);
        let mut body = RegionBuilder::with_args(vec![iv]);
        let two = body.const_i32(&mut f, 2);
        let is2 = body.bin(&mut f, AluOp::Eq, iv, two);
        // if !is2 { exit }
        let mut then_b = RegionBuilder::new();
        then_b.emit0(OpKind::Yield(vec![]));
        let mut else_b = RegionBuilder::new();
        else_b.emit0(OpKind::Exit);
        body.push(
            OpKind::If {
                cond: is2,
                then: then_b.build(),
                else_: else_b.build(),
            },
            vec![],
        );
        body.emit0(OpKind::Yield(vec![iv]));
        let res = f.new_value(Ty::I32);
        b.push(
            OpKind::Fork {
                count,
                body: body.build(),
            },
            vec![res],
        );
        b.emit0(OpKind::Return(vec![res]));
        f.body = b.build();
        m.funcs.push(f);
        let out = returns(&m, &[]);
        assert_eq!(out, vec![Word(2)]);
    }

    #[test]
    fn dram_rw_and_iterators() {
        // main(): it = ReadIt(input, 0); out[0] = *it + (*it after ++).
        let mut m = Module::default();
        let input = m.add_dram("input", 1);
        let output = m.add_dram("output", 4);
        let mut f = Func::new("main", &[], vec![]);
        let mut b = RegionBuilder::new();
        let zero = b.const_i32(&mut f, 0);
        let it = b.emit(
            &mut f,
            OpKind::ItNew {
                kind: revet_mir::ItKind::Read,
                dram: input,
                seek: zero,
                tile: 16,
            },
            Ty::Handle,
        );
        let a = b.emit(&mut f, OpKind::ItDeref { it }, Ty::I32);
        b.emit0(OpKind::ItInc { it, last: None });
        let c = b.emit(&mut f, OpKind::ItDeref { it }, Ty::I32);
        let sum = b.bin(&mut f, AluOp::Add, a, c);
        b.emit0(OpKind::DramWrite {
            dram: output,
            idx: zero,
            val: sum,
        });
        b.emit0(OpKind::Return(vec![]));
        f.body = b.build();
        m.funcs.push(f);
        let mem = run_main(&m, 8192, &[], &[(0, vec![11, 22])], DEFAULT_FUEL).unwrap();
        // output is the second of two 4 KiB slices.
        let v = u32::from_le_bytes(mem.dram[4096..4100].try_into().unwrap());
        assert_eq!(v, 33);
    }

    #[test]
    fn fuel_limit_reported() {
        // while (1) {} must hit the fuel limit.
        let mut m = Module::default();
        let mut f = Func::new("main", &[], vec![]);
        let cv = f.new_value(Ty::I32);
        let mut before = RegionBuilder::with_args(vec![cv]);
        let one = before.const_i32(&mut f, 1);
        before.emit0(OpKind::Condition {
            cond: one,
            fwd: vec![cv],
        });
        let av = f.new_value(Ty::I32);
        let mut after = RegionBuilder::with_args(vec![av]);
        after.emit0(OpKind::Yield(vec![av]));
        let r = f.new_value(Ty::I32);
        let mut b = RegionBuilder::new();
        let init = b.const_i32(&mut f, 0);
        b.push(
            OpKind::While {
                inits: vec![init],
                before: before.build(),
                after: after.build(),
            },
            vec![r],
        );
        b.emit0(OpKind::Return(vec![]));
        f.body = b.build();
        m.funcs.push(f);
        let err = run_main(&m, 64, &[], &[], 10_000).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn an_overlay_past_the_image_is_an_error_not_a_panic() {
        let mut m = Module::default();
        let mut f = Func::new("main", &[], vec![]);
        let mut b = RegionBuilder::new();
        b.emit0(OpKind::Return(vec![]));
        f.body = b.build();
        m.funcs.push(f);
        let bytes = vec![7u8; 8];
        let want = m.build_memory(64).write_dram(60, &bytes).unwrap_err();
        let err = run_main(&m, 64, &[], &[(60, bytes)], DEFAULT_FUEL).unwrap_err();
        assert_eq!(err.message, want.to_string());
    }
}
