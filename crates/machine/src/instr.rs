//! The element-wise instruction set executed inside pipeline stages.
//!
//! §III-B a: element-wise operations transform live values one thread at a
//! time and never change thread ordering, hierarchy, or count. Memory
//! operations are element-wise too — "an allocation transforms a void value
//! into a pointer, a read transforms an address into a result, and a write
//! transforms an address and data into a void value". Memory ordering within
//! a thread is enforced with data-free void tokens threaded through the
//! operations (modelled as ordinary registers carrying no payload semantics).

use crate::graph::UnitClass;
use crate::mem::{AllocId, MemoryState, SramId};
use revet_sltf::Word;

/// A register index in a context's per-thread register file.
pub type Reg = u16;

/// An instruction operand: a register or an immediate word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Read the per-thread register.
    Reg(Reg),
    /// An immediate constant.
    Const(Word),
}

impl Operand {
    /// Immediate from anything word-like.
    pub fn imm(v: impl Into<Word>) -> Operand {
        Operand::Const(v.into())
    }

    /// Evaluates the operand against a register file.
    #[inline]
    pub fn eval(self, regs: &[Word]) -> Word {
        match self {
            Operand::Reg(r) => regs[r as usize],
            Operand::Const(w) => w,
        }
    }
}

/// Binary ALU operations (32-bit lanes; comparison results are 0/1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Signed division; division by zero yields 0 (machine-defined).
    DivS,
    /// Unsigned division; division by zero yields 0.
    DivU,
    /// Signed remainder; by zero yields 0.
    RemS,
    /// Unsigned remainder; by zero yields 0.
    RemU,
    And,
    Or,
    Xor,
    /// Shift left (shift amount taken mod 32).
    Shl,
    /// Logical shift right.
    ShrU,
    /// Arithmetic shift right.
    ShrS,
    Eq,
    Ne,
    LtS,
    LtU,
    LeS,
    LeU,
    GtS,
    GtU,
    GeS,
    GeU,
    MinS,
    MinU,
    MaxS,
    MaxU,
    /// 32-bit rotate left (murmur3 uses this).
    Rotl,
}

/// The ALU's semantics, stated once per operation over two words `a` and
/// `b`, and expanded twice: [`AluOp::apply`] for one thread and
/// [`AluOp::apply_lanes`] for a column of lanes, whose loop runs with the
/// operation already matched.
macro_rules! alu_semantics {
    ($($op:ident($a:ident, $b:ident) => $e:expr,)*) => {
        impl AluOp {
            /// Applies the operation to two words. Always inlined, as
            /// [`exec_instrs`] is.
            #[inline(always)]
            pub fn apply(self, a: Word, b: Word) -> Word {
                match self {
                    $(AluOp::$op => {
                        let ($a, $b) = (a, b);
                        $e
                    })*
                }
            }

            /// [`AluOp::apply`] lane by lane: `out[l] = apply(a[l], b[l])`.
            pub(crate) fn apply_lanes(self, a: &[Word], b: &[Word], out: &mut [Word]) {
                match self {
                    $(AluOp::$op => {
                        for ((o, &$a), &$b) in out.iter_mut().zip(a).zip(b) {
                            *o = $e;
                        }
                    })*
                }
            }
        }
    };
}

alu_semantics! {
    Add(a, b) => Word(a.0.wrapping_add(b.0)),
    Sub(a, b) => Word(a.0.wrapping_sub(b.0)),
    Mul(a, b) => Word(a.0.wrapping_mul(b.0)),
    DivS(a, b) => Word::from_i32(if b.0 == 0 { 0 } else { a.as_i32().wrapping_div(b.as_i32()) }),
    DivU(a, b) => Word(a.0.checked_div(b.0).unwrap_or(0)),
    RemS(a, b) => Word::from_i32(if b.0 == 0 { 0 } else { a.as_i32().wrapping_rem(b.as_i32()) }),
    RemU(a, b) => Word(a.0.checked_rem(b.0).unwrap_or(0)),
    And(a, b) => Word(a.0 & b.0),
    Or(a, b) => Word(a.0 | b.0),
    Xor(a, b) => Word(a.0 ^ b.0),
    Shl(a, b) => Word(a.0.wrapping_shl(b.0)),
    ShrU(a, b) => Word(a.0.wrapping_shr(b.0)),
    ShrS(a, b) => Word::from_i32(a.as_i32().wrapping_shr(b.0)),
    Eq(a, b) => Word::from_bool(a.0 == b.0),
    Ne(a, b) => Word::from_bool(a.0 != b.0),
    LtS(a, b) => Word::from_bool(a.as_i32() < b.as_i32()),
    LtU(a, b) => Word::from_bool(a.0 < b.0),
    LeS(a, b) => Word::from_bool(a.as_i32() <= b.as_i32()),
    LeU(a, b) => Word::from_bool(a.0 <= b.0),
    GtS(a, b) => Word::from_bool(a.as_i32() > b.as_i32()),
    GtU(a, b) => Word::from_bool(a.0 > b.0),
    GeS(a, b) => Word::from_bool(a.as_i32() >= b.as_i32()),
    GeU(a, b) => Word::from_bool(a.0 >= b.0),
    MinS(a, b) => Word::from_i32(a.as_i32().min(b.as_i32())),
    MinU(a, b) => Word(a.0.min(b.0)),
    MaxS(a, b) => Word::from_i32(a.as_i32().max(b.as_i32())),
    MaxU(a, b) => Word(a.0.max(b.0)),
    Rotl(a, b) => Word(a.0.rotate_left(b.0 & 31)),
}

impl AluOp {
    /// True for ops that are associative and commutative (usable in
    /// reductions).
    pub fn is_reduction_compatible(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::Mul
                | AluOp::And
                | AluOp::Or
                | AluOp::Xor
                | AluOp::MinS
                | AluOp::MinU
                | AluOp::MaxS
                | AluOp::MaxU
        )
    }

    /// The identity element of a reduction-compatible op (the accumulator's
    /// initial value, and the result for empty dimensions).
    ///
    /// # Panics
    ///
    /// Panics for non-reduction ops.
    pub fn reduction_identity(self) -> Word {
        match self {
            AluOp::Add | AluOp::Or | AluOp::Xor | AluOp::MaxU => Word(0),
            AluOp::Mul => Word(1),
            AluOp::And => Word(u32::MAX),
            AluOp::MinU => Word(u32::MAX),
            AluOp::MinS => Word::from_i32(i32::MAX),
            AluOp::MaxS => Word::from_i32(i32::MIN),
            other => panic!("{other:?} is not a reduction operator"),
        }
    }
}

/// A predicate on a memory operation: run the op iff `reg != 0` equals
/// `expect`. Predication is how if-to-select conversion handles memory side
/// effects (§V-B c).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pred {
    /// The register holding the condition.
    pub reg: Reg,
    /// Required truthiness of the condition.
    pub expect: bool,
}

impl Pred {
    /// Evaluates the predicate.
    #[inline]
    pub fn holds(self, regs: &[Word]) -> bool {
        regs[self.reg as usize].as_bool() == self.expect
    }
}

/// How an instruction uses a register it names (see
/// [`EwInstr::for_each_reg`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegRole {
    /// Read as an operand.
    Read,
    /// Read as the predicate of a memory operation.
    Pred,
    /// Written with the result.
    Write,
}

/// One element-wise instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EwInstr {
    /// `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: Reg,
    },
    /// `dst = c ? t : f` (conditional move; §V-B c if-to-select).
    Select {
        /// Condition operand (non-zero = true).
        c: Operand,
        /// Value when true.
        t: Operand,
        /// Value when false.
        f: Operand,
        /// Destination register.
        dst: Reg,
    },
    /// `dst = src`.
    Mov {
        /// Source operand.
        src: Operand,
        /// Destination register.
        dst: Reg,
    },
    /// SRAM word read: `dst = sram[addr]`; predicated-off reads yield 0.
    SramRead {
        /// SRAM region.
        region: SramId,
        /// Word address within the region.
        addr: Operand,
        /// Destination register.
        dst: Reg,
        /// Optional predicate.
        pred: Option<Pred>,
    },
    /// SRAM word write: `sram[addr] = val`.
    SramWrite {
        /// SRAM region.
        region: SramId,
        /// Word address within the region.
        addr: Operand,
        /// Value to store.
        val: Operand,
        /// Optional predicate.
        pred: Option<Pred>,
    },
    /// Atomic `sram[addr] -= 1; dst = new value` (hierarchy elimination,
    /// Fig. 9).
    SramDecFetch {
        /// SRAM region.
        region: SramId,
        /// Word address within the region.
        addr: Operand,
        /// Destination register receiving the post-decrement value.
        dst: Reg,
        /// Optional predicate (predicated-off yields 0 without touching
        /// memory).
        pred: Option<Pred>,
    },
    /// DRAM word read through an AG: `dst = dram[addr..addr+4]` (byte
    /// address, little endian).
    DramReadW {
        /// Byte address.
        addr: Operand,
        /// Destination register.
        dst: Reg,
        /// Optional predicate.
        pred: Option<Pred>,
    },
    /// DRAM word write through an AG.
    DramWriteW {
        /// Byte address.
        addr: Operand,
        /// Value to store.
        val: Operand,
        /// Optional predicate.
        pred: Option<Pred>,
    },
    /// DRAM byte read (string workloads).
    DramReadB {
        /// Byte address.
        addr: Operand,
        /// Destination register (zero-extended byte).
        dst: Reg,
        /// Optional predicate.
        pred: Option<Pred>,
    },
    /// DRAM byte write.
    DramWriteB {
        /// Byte address.
        addr: Operand,
        /// Value to store (low byte).
        val: Operand,
        /// Optional predicate.
        pred: Option<Pred>,
    },
    /// Pops a buffer pointer from an allocator queue (blocking; never
    /// predicated — the stall is the load-balancing mechanism of §V-B b).
    AllocPop {
        /// Allocator queue.
        alloc: AllocId,
        /// Destination register receiving the pointer.
        dst: Reg,
    },
    /// Returns a buffer pointer to an allocator queue.
    AllocPush {
        /// Allocator queue.
        alloc: AllocId,
        /// The pointer to free.
        src: Operand,
        /// Optional predicate.
        pred: Option<Pred>,
    },
}

impl EwInstr {
    /// The allocator this instruction pops from, if any (used for stall
    /// checks before committing to consume an input tuple).
    pub fn alloc_pop_id(&self) -> Option<AllocId> {
        match self {
            EwInstr::AllocPop { alloc, .. } => Some(*alloc),
            _ => None,
        }
    }

    /// Visits every register this instruction names — reads in operand
    /// order, then the predicate, then the write — with mutable access, so
    /// sizing, liveness and renaming are all walks over this one list.
    pub fn for_each_reg(&mut self, mut f: impl FnMut(RegRole, &mut Reg)) {
        let (reads, pred, write): ([Option<&mut Operand>; 3], _, _) = match self {
            EwInstr::Alu { a, b, dst, .. } => ([Some(a), Some(b), None], None, Some(dst)),
            EwInstr::Select { c, t, f, dst } => ([Some(c), Some(t), Some(f)], None, Some(dst)),
            EwInstr::Mov { src, dst } => ([Some(src), None, None], None, Some(dst)),
            EwInstr::SramRead {
                addr, dst, pred, ..
            }
            | EwInstr::SramDecFetch {
                addr, dst, pred, ..
            }
            | EwInstr::DramReadW { addr, dst, pred }
            | EwInstr::DramReadB { addr, dst, pred } => {
                ([Some(addr), None, None], pred.as_mut(), Some(dst))
            }
            EwInstr::SramWrite {
                addr, val, pred, ..
            }
            | EwInstr::DramWriteW { addr, val, pred }
            | EwInstr::DramWriteB { addr, val, pred } => {
                ([Some(addr), Some(val), None], pred.as_mut(), None)
            }
            EwInstr::AllocPop { dst, .. } => ([None, None, None], None, Some(dst)),
            EwInstr::AllocPush { src, pred, .. } => ([Some(src), None, None], pred.as_mut(), None),
        };
        for o in reads.into_iter().flatten() {
            if let Operand::Reg(r) = o {
                f(RegRole::Read, r);
            }
        }
        if let Some(p) = pred {
            f(RegRole::Pred, &mut p.reg);
        }
        if let Some(dst) = write {
            f(RegRole::Write, dst);
        }
    }

    /// Highest register index referenced plus one (for sizing reg files).
    pub fn max_reg(&self) -> u16 {
        let mut max = 0;
        self.clone().for_each_reg(|_, r| max = max.max(*r + 1));
        max
    }

    /// The physical unit class that executes this instruction: ALU work on
    /// a compute unit, SRAM and allocator-queue accesses on a memory unit,
    /// DRAM accesses through an address generator.
    pub fn unit_class(&self) -> UnitClass {
        match self {
            EwInstr::Alu { .. } | EwInstr::Select { .. } | EwInstr::Mov { .. } => {
                UnitClass::Compute
            }
            EwInstr::DramReadW { .. }
            | EwInstr::DramWriteW { .. }
            | EwInstr::DramReadB { .. }
            | EwInstr::DramWriteB { .. } => UnitClass::AddressGen,
            _ => UnitClass::Memory,
        }
    }

    /// True if this instruction touches memory (used by the splitter: every
    /// memory operation goes into its own context, §V-D b).
    pub fn is_memory(&self) -> bool {
        self.unit_class() != UnitClass::Compute
    }

    /// The memory space this instruction touches and whether it writes it
    /// (`None` for register-only instructions). Two accesses *conflict*
    /// when they share a space and at least one writes; the execution plan
    /// fuses stages only while their accesses commute.
    pub(crate) fn mem_access(&self) -> Option<(MemSpace, bool)> {
        Some(match self {
            EwInstr::Alu { .. } | EwInstr::Select { .. } | EwInstr::Mov { .. } => return None,
            EwInstr::SramRead { region, .. } => (MemSpace::Sram(*region), false),
            EwInstr::SramWrite { region, .. } | EwInstr::SramDecFetch { region, .. } => {
                (MemSpace::Sram(*region), true)
            }
            EwInstr::DramReadW { .. } | EwInstr::DramReadB { .. } => (MemSpace::Dram, false),
            EwInstr::DramWriteW { .. } | EwInstr::DramWriteB { .. } => (MemSpace::Dram, true),
            EwInstr::AllocPop { alloc, .. } | EwInstr::AllocPush { alloc, .. } => {
                (MemSpace::Alloc(*alloc), true)
            }
        })
    }
}

/// A memory space for [`EwInstr::mem_access`]: one SRAM region, DRAM, or
/// one allocator queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MemSpace {
    Sram(SramId),
    Dram,
    Alloc(AllocId),
}

/// Executes a straight-line instruction sequence for one thread.
///
/// `regs` must be pre-sized and pre-loaded with the input tuple; results are
/// left in the registers named by the instructions.
///
/// Always inlined: the plan's fused runs call it once per stage per
/// thread, and their firing loop grew past where it is inlined on its own
/// (measured on `exec_control`'s huff-dec and `sim_timed`'s huff-enc).
#[inline(always)]
pub fn exec_instrs(instrs: &[EwInstr], regs: &mut [Word], mem: &mut MemoryState) {
    for ins in instrs {
        match ins {
            EwInstr::Alu { op, a, b, dst } => {
                regs[*dst as usize] = op.apply(a.eval(regs), b.eval(regs));
            }
            EwInstr::Select { c, t, f, dst } => {
                regs[*dst as usize] = if c.eval(regs).as_bool() {
                    t.eval(regs)
                } else {
                    f.eval(regs)
                };
            }
            EwInstr::Mov { src, dst } => {
                regs[*dst as usize] = src.eval(regs);
            }
            EwInstr::SramRead {
                region,
                addr,
                dst,
                pred,
            } => {
                regs[*dst as usize] = if pred.map_or(true, |p| p.holds(regs)) {
                    mem.sram_read(*region, addr.eval(regs).as_u32())
                } else {
                    Word::ZERO
                };
            }
            EwInstr::SramWrite {
                region,
                addr,
                val,
                pred,
            } => {
                if pred.map_or(true, |p| p.holds(regs)) {
                    mem.sram_write(*region, addr.eval(regs).as_u32(), val.eval(regs));
                }
            }
            EwInstr::SramDecFetch {
                region,
                addr,
                dst,
                pred,
            } => {
                regs[*dst as usize] = if pred.map_or(true, |p| p.holds(regs)) {
                    let a = addr.eval(regs).as_u32();
                    let new = Word(mem.sram_read(*region, a).as_u32().wrapping_sub(1));
                    mem.sram_write(*region, a, new);
                    new
                } else {
                    Word::ZERO
                };
            }
            EwInstr::DramReadW { addr, dst, pred } => {
                regs[*dst as usize] = if pred.map_or(true, |p| p.holds(regs)) {
                    mem.dram_read_word(addr.eval(regs).as_u32())
                } else {
                    Word::ZERO
                };
            }
            EwInstr::DramWriteW { addr, val, pred } => {
                if pred.map_or(true, |p| p.holds(regs)) {
                    mem.dram_write_word(addr.eval(regs).as_u32(), val.eval(regs));
                }
            }
            EwInstr::DramReadB { addr, dst, pred } => {
                regs[*dst as usize] = if pred.map_or(true, |p| p.holds(regs)) {
                    mem.dram_read_byte(addr.eval(regs).as_u32())
                } else {
                    Word::ZERO
                };
            }
            EwInstr::DramWriteB { addr, val, pred } => {
                if pred.map_or(true, |p| p.holds(regs)) {
                    mem.dram_write_byte(addr.eval(regs).as_u32(), val.eval(regs));
                }
            }
            EwInstr::AllocPop { alloc, dst } => {
                // Availability was checked before input consumption; an empty
                // queue here is an executor bug.
                let ptr = mem
                    .alloc_pop(*alloc)
                    .expect("AllocPop on empty queue: stall check missed");
                regs[*dst as usize] = Word(ptr);
            }
            EwInstr::AllocPush { alloc, src, pred } => {
                if pred.map_or(true, |p| p.holds(regs)) {
                    mem.alloc_push(*alloc, src.eval(regs).as_u32());
                }
            }
        }
    }
}

/// Executes a straight-line instruction sequence for `n` threads at once,
/// as lanes: register `r` of lane `l` is `regs[(base + r) * stride + l]`
/// for `l < n <= stride`, and `spare` is scratch of at least `3 * n`
/// words.
///
/// Every instruction runs column by column, its variant matched once for
/// all the lanes. A register-only instruction computes straight into its
/// destination column. A memory instruction loops over the lanes in lane
/// order: it reads lane `l`'s predicate, address and value, calls the
/// [`MemoryState`] helper [`exec_instrs`] calls, and writes lane `l` of
/// its destination column. With at most one memory instruction in
/// `instrs`, every lane ends as [`exec_instrs`] leaves that thread run
/// alone, and memory as the threads run one after another in lane order
/// leave it: that instruction's accesses are the only effects the lanes
/// share, and they keep the lanes' order.
pub(crate) fn exec_lanes(
    instrs: &[EwInstr],
    regs: &mut [Word],
    spare: &mut [Word],
    base: usize,
    stride: usize,
    n: usize,
    mem: &mut MemoryState,
) {
    let col = |r: Reg| (base + r as usize) * stride;
    let (ka, rest) = spare.split_at_mut(n);
    let (kb, rest) = rest.split_at_mut(n);
    let kc = &mut rest[..n];
    for ins in instrs {
        match *ins {
            EwInstr::Alu { op, a, b, dst } => {
                let (lo, rest) = regs.split_at_mut(col(dst));
                let (out, hi) = rest.split_at_mut(n);
                let a = lanes_around(a, col, lo, out, hi, ka);
                let b = lanes_around(b, col, lo, out, hi, kb);
                op.apply_lanes(a, b, out);
            }
            EwInstr::Select { c, t, f, dst } => {
                let (lo, rest) = regs.split_at_mut(col(dst));
                let (out, hi) = rest.split_at_mut(n);
                let c = lanes_around(c, col, lo, out, hi, kc);
                let t = lanes_around(t, col, lo, out, hi, ka);
                let f = lanes_around(f, col, lo, out, hi, kb);
                for (l, o) in out.iter_mut().enumerate() {
                    *o = if c[l].as_bool() { t[l] } else { f[l] };
                }
            }
            EwInstr::Mov { src, dst } => match src {
                Operand::Reg(r) => regs.copy_within(col(r)..col(r) + n, col(dst)),
                Operand::Const(w) => regs[col(dst)..col(dst) + n].fill(w),
            },
            EwInstr::SramRead {
                region,
                addr,
                dst,
                pred,
            } => read_lanes(regs, col, n, [ka, kc], addr, dst, pred, |a| {
                mem.sram_read(region, a)
            }),
            EwInstr::SramDecFetch {
                region,
                addr,
                dst,
                pred,
            } => read_lanes(regs, col, n, [ka, kc], addr, dst, pred, |a| {
                let new = Word(mem.sram_read(region, a).as_u32().wrapping_sub(1));
                mem.sram_write(region, a, new);
                new
            }),
            EwInstr::DramReadW { addr, dst, pred } => {
                read_lanes(regs, col, n, [ka, kc], addr, dst, pred, |a| {
                    mem.dram_read_word(a)
                });
            }
            EwInstr::DramReadB { addr, dst, pred } => {
                read_lanes(regs, col, n, [ka, kc], addr, dst, pred, |a| {
                    mem.dram_read_byte(a)
                });
            }
            EwInstr::AllocPop { alloc, dst } => {
                let none = Operand::Const(Word::ZERO);
                read_lanes(regs, col, n, [ka, kc], none, dst, None, |_| {
                    // As in `exec_instrs`: availability was checked before
                    // the inputs were consumed.
                    let ptr = mem.alloc_pop(alloc);
                    Word(ptr.expect("AllocPop on empty queue: stall check missed"))
                });
            }
            EwInstr::SramWrite {
                region,
                addr,
                val,
                pred,
            } => write_lanes(regs, col, n, [ka, kb], addr, val, pred, |a, v| {
                mem.sram_write(region, a, v);
            }),
            EwInstr::DramWriteW { addr, val, pred } => {
                write_lanes(regs, col, n, [ka, kb], addr, val, pred, |a, v| {
                    mem.dram_write_word(a, v);
                });
            }
            EwInstr::DramWriteB { addr, val, pred } => {
                write_lanes(regs, col, n, [ka, kb], addr, val, pred, |a, v| {
                    mem.dram_write_byte(a, v);
                });
            }
            EwInstr::AllocPush { alloc, src, pred } => {
                let none = Operand::Const(Word::ZERO);
                write_lanes(regs, col, n, [ka, kb], src, none, pred, |ptr, _| {
                    mem.alloc_push(alloc, ptr);
                });
            }
        }
    }
}

/// A reading memory instruction across `n` lanes, in lane order: lane `l`
/// of `dst` becomes `read(address)` where lane `l` of `pred` holds, and
/// zero where it does not. The two scratch columns hold a constant
/// address, and a copy of `dst` where the address or predicate register is
/// `dst` itself (each lane reads its own before writing it).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn read_lanes(
    regs: &mut [Word],
    col: impl Fn(Reg) -> usize + Copy,
    n: usize,
    [ka, kp]: [&mut [Word]; 2],
    addr: Operand,
    dst: Reg,
    pred: Option<Pred>,
    mut read: impl FnMut(u32) -> Word,
) {
    let (lo, rest) = regs.split_at_mut(col(dst));
    let (out, hi) = rest.split_at_mut(n);
    let a = lanes_around(addr, col, lo, out, hi, ka);
    match pred {
        None => {
            for (o, a) in out.iter_mut().zip(a) {
                *o = read(a.as_u32());
            }
        }
        Some(p) => {
            let c = lanes_around(Operand::Reg(p.reg), col, lo, out, hi, kp);
            for ((o, a), c) in out.iter_mut().zip(a).zip(c) {
                *o = if c.as_bool() == p.expect {
                    read(a.as_u32())
                } else {
                    Word::ZERO
                };
            }
        }
    }
}

/// A writing memory instruction across `n` lanes, in lane order:
/// `write(address, value)` for each lane where `pred` holds, so where
/// several lanes write one address the last one's value stays. The two
/// scratch columns hold a constant address or value.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn write_lanes(
    regs: &[Word],
    col: impl Fn(Reg) -> usize + Copy,
    n: usize,
    [ka, kv]: [&mut [Word]; 2],
    addr: Operand,
    val: Operand,
    pred: Option<Pred>,
    mut write: impl FnMut(u32, Word),
) {
    let (a, v) = (
        lanes_of(addr, col, n, regs, ka),
        lanes_of(val, col, n, regs, kv),
    );
    match pred {
        None => {
            for (a, &v) in a.iter().zip(v) {
                write(a.as_u32(), v);
            }
        }
        Some(p) => {
            let c = &regs[col(p.reg)..][..n];
            for ((a, &v), c) in a.iter().zip(v).zip(c) {
                if c.as_bool() == p.expect {
                    write(a.as_u32(), v);
                }
            }
        }
    }
}

/// Operand `o`'s lanes in a lane file that is only read: a column of it,
/// or `buf` filled with a broadcast constant.
#[inline(always)]
fn lanes_of<'a>(
    o: Operand,
    col: impl Fn(Reg) -> usize,
    n: usize,
    regs: &'a [Word],
    buf: &'a mut [Word],
) -> &'a [Word] {
    match o {
        Operand::Reg(r) => &regs[col(r)..][..n],
        Operand::Const(w) => {
            buf.fill(w);
            buf
        }
    }
}

/// Operand `o`'s lanes while the lane file is split around the column
/// being written, `dst`, into the columns before it (`lo`) and after it
/// (`hi`): a column of either, or a copy in `buf` of `dst` itself or of a
/// broadcast constant.
#[inline(always)]
fn lanes_around<'a>(
    o: Operand,
    col: impl Fn(Reg) -> usize,
    lo: &'a [Word],
    dst: &[Word],
    hi: &'a [Word],
    buf: &'a mut [Word],
) -> &'a [Word] {
    let n = dst.len();
    match o {
        Operand::Const(w) => buf.fill(w),
        Operand::Reg(r) => match col(r) {
            c if c < lo.len() => return &lo[c..c + n],
            c if c > lo.len() => return &hi[c - lo.len() - n..][..n],
            _ => buf.copy_from_slice(dst),
        },
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        let w = |v: i32| Word::from_i32(v);
        assert_eq!(AluOp::Add.apply(w(2), w(3)), w(5));
        assert_eq!(AluOp::Sub.apply(w(2), w(3)), w(-1));
        assert_eq!(AluOp::Mul.apply(w(-2), w(3)), w(-6));
        assert_eq!(AluOp::DivS.apply(w(-7), w(2)), w(-3));
        assert_eq!(AluOp::DivU.apply(w(7), w(2)), w(3));
        assert_eq!(AluOp::DivS.apply(w(1), w(0)), w(0), "div by zero is 0");
        assert_eq!(AluOp::RemS.apply(w(-7), w(2)), w(-1));
        assert_eq!(AluOp::LtS.apply(w(-1), w(0)), w(1));
        assert_eq!(AluOp::LtU.apply(w(-1), w(0)), w(0), "unsigned -1 is huge");
        assert_eq!(AluOp::ShrS.apply(w(-8), w(1)), w(-4));
        assert_eq!(AluOp::ShrU.apply(w(-8), w(1)), Word(0x7FFFFFFC));
        assert_eq!(AluOp::MinS.apply(w(-1), w(1)), w(-1));
        assert_eq!(AluOp::MaxU.apply(w(-1), w(1)), w(-1), "unsigned max");
        assert_eq!(AluOp::Rotl.apply(Word(0x80000001), Word(1)), Word(3));
    }

    #[test]
    fn overflow_wraps() {
        assert_eq!(
            AluOp::Add.apply(Word(u32::MAX), Word(1)),
            Word(0),
            "wrapping add"
        );
        assert_eq!(AluOp::Mul.apply(Word(1 << 31), Word(2)), Word(0));
    }

    #[test]
    fn exec_straightline() {
        let mut mem = MemoryState::default();
        let mut regs = vec![Word::ZERO; 4];
        regs[0] = Word(10);
        exec_instrs(
            &[
                EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::imm(5u32),
                    dst: 1,
                },
                EwInstr::Select {
                    c: Operand::Reg(1),
                    t: Operand::imm(7u32),
                    f: Operand::imm(9u32),
                    dst: 2,
                },
                EwInstr::Mov {
                    src: Operand::Reg(2),
                    dst: 3,
                },
            ],
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs[1], Word(15));
        assert_eq!(regs[2], Word(7));
        assert_eq!(regs[3], Word(7));
    }

    #[test]
    fn predicated_memory_ops() {
        let mut mem = MemoryState::default();
        let s = mem.add_sram("s", 4);
        let mut regs = vec![Word::ZERO; 4];
        regs[0] = Word(0); // predicate: false
        exec_instrs(
            &[EwInstr::SramWrite {
                region: s,
                addr: Operand::imm(0u32),
                val: Operand::imm(99u32),
                pred: Some(Pred {
                    reg: 0,
                    expect: true,
                }),
            }],
            &mut regs,
            &mut mem,
        );
        assert_eq!(mem.sram_read(s, 0), Word(0), "write suppressed");
        regs[0] = Word(1);
        exec_instrs(
            &[EwInstr::SramWrite {
                region: s,
                addr: Operand::imm(0u32),
                val: Operand::imm(99u32),
                pred: Some(Pred {
                    reg: 0,
                    expect: true,
                }),
            }],
            &mut regs,
            &mut mem,
        );
        assert_eq!(mem.sram_read(s, 0), Word(99));
    }

    #[test]
    fn dec_fetch_returns_new_value() {
        let mut mem = MemoryState::default();
        let s = mem.add_sram("count", 1);
        mem.sram_write(s, 0, Word(2));
        let mut regs = vec![Word::ZERO; 1];
        let dec = EwInstr::SramDecFetch {
            region: s,
            addr: Operand::imm(0u32),
            dst: 0,
            pred: None,
        };
        exec_instrs(std::slice::from_ref(&dec), &mut regs, &mut mem);
        assert_eq!(regs[0], Word(1));
        exec_instrs(std::slice::from_ref(&dec), &mut regs, &mut mem);
        assert_eq!(regs[0], Word(0), "last thread sees zero and survives");
    }

    #[test]
    fn lanes_compute_what_threads_do_op_by_op() {
        // Every ALU operation over register and constant operands, then a
        // select and moves, on five lanes of awkward values.
        const OPS: [AluOp; 28] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::DivS,
            AluOp::DivU,
            AluOp::RemS,
            AluOp::RemU,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::ShrU,
            AluOp::ShrS,
            AluOp::Eq,
            AluOp::Ne,
            AluOp::LtS,
            AluOp::LtU,
            AluOp::LeS,
            AluOp::LeU,
            AluOp::GtS,
            AluOp::GtU,
            AluOp::GeS,
            AluOp::GeU,
            AluOp::MinS,
            AluOp::MinU,
            AluOp::MaxS,
            AluOp::MaxU,
            AluOp::Rotl,
        ];
        let mut instrs = Vec::new();
        for (k, op) in OPS.into_iter().enumerate() {
            let dst = 2 + k as Reg;
            let b = [Operand::Reg(1), Operand::imm(-3i32)][k % 2];
            instrs.push(EwInstr::Alu {
                op,
                a: Operand::Reg(0),
                b,
                dst,
            });
        }
        instrs.extend([
            EwInstr::Select {
                c: Operand::Reg(2),
                t: Operand::Reg(3),
                f: Operand::imm(9u32),
                dst: 30,
            },
            EwInstr::Mov {
                src: Operand::Reg(30),
                dst: 31,
            },
            EwInstr::Mov {
                src: Operand::imm(5u32),
                dst: 32,
            },
            // Operands that are the destination itself, or lie past it.
            EwInstr::Alu {
                op: AluOp::Add,
                a: Operand::Reg(3),
                b: Operand::Reg(3),
                dst: 3,
            },
            EwInstr::Alu {
                op: AluOp::Sub,
                a: Operand::Reg(5),
                b: Operand::Reg(32),
                dst: 0,
            },
            EwInstr::Select {
                c: Operand::Reg(31),
                t: Operand::Reg(0),
                f: Operand::Reg(1),
                dst: 1,
            },
        ]);
        let inputs = [(0, 0), (-1, 31), (i32::MIN, -1), (7, 0), (100, 33)];
        let (n, regs) = (inputs.len(), 33);
        let mut lanes = vec![Word::ZERO; regs * n];
        let mut mem = MemoryState::default();
        for (l, &(a, b)) in inputs.iter().enumerate() {
            (lanes[l], lanes[n + l]) = (Word::from_i32(a), Word::from_i32(b));
        }
        exec_lanes(
            &instrs,
            &mut lanes,
            &mut [Word::ZERO; 20],
            0,
            n,
            n,
            &mut mem,
        );
        for (l, &(a, b)) in inputs.iter().enumerate() {
            let mut thread = vec![Word::ZERO; regs];
            (thread[0], thread[1]) = (Word::from_i32(a), Word::from_i32(b));
            exec_instrs(&instrs, &mut thread, &mut mem);
            let lane: Vec<Word> = (0..regs).map(|r| lanes[r * n + l]).collect();
            assert_eq!(lane, thread, "lane {l}: ({a}, {b})");
        }
    }

    #[test]
    fn lanes_run_memory_instructions_as_threads_in_lane_order() {
        // Every memory instruction, alone, across n lanes against the same
        // instruction run thread by thread in lane order. Registers: r0 a
        // DRAM write address (every fourth lane writes byte 8), r1 a DRAM
        // read address (some straddle the image's end or lie past it), r2
        // an SRAM address (every fourth lane hits word 3), r3 one of two
        // shared counters, r4 a predicate that holds on every third lane,
        // r5 a value, r6 a destination holding junk.
        const REGS: usize = 7;
        let init = |l: usize, r: usize| -> Word {
            let l32 = l as u32;
            Word(match r {
                0 if l.is_multiple_of(4) => 8,
                0 => (l32 * 4) % 60,
                1 => [62, 200, 63, (l32 * 3) % 64][l % 4],
                2 if l.is_multiple_of(4) => 3,
                2 => l32 % 8,
                3 => l32 % 2,
                4 => u32::from(l % 3 == 1),
                5 => l32 * 7 + 100,
                _ => 0xA5A5_0000 + l32,
            })
        };
        let mut mem = MemoryState::with_dram_size(64);
        let image: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        mem.write_dram(0, &image).unwrap();
        let (sram, counters) = (mem.add_sram("s", 8), mem.add_sram("counters", 2));
        for a in 0..8 {
            mem.sram_write(sram, a, Word(10 + a));
        }
        mem.sram_write(counters, 0, Word(3));
        mem.sram_write(counters, 1, Word(1000));
        let alloc = mem.add_alloc("bufs", 64);

        let mut cases = Vec::new();
        let preds = [
            None,
            Some(Pred {
                reg: 4,
                expect: true,
            }),
            Some(Pred {
                reg: 4,
                expect: false,
            }),
        ];
        for pred in preds {
            // Reads: the destination apart, as the address register, as
            // the predicate register, and a constant address.
            let reads: [(Reg, Word, fn(Operand, Reg, Option<Pred>) -> EwInstr); 4] = [
                (2, Word(3), |addr, dst, pred| EwInstr::SramRead {
                    region: SramId(0),
                    addr,
                    dst,
                    pred,
                }),
                (3, Word(0), |addr, dst, pred| EwInstr::SramDecFetch {
                    region: SramId(1),
                    addr,
                    dst,
                    pred,
                }),
                (1, Word(62), |addr, dst, pred| EwInstr::DramReadW {
                    addr,
                    dst,
                    pred,
                }),
                (1, Word(63), |addr, dst, pred| EwInstr::DramReadB {
                    addr,
                    dst,
                    pred,
                }),
            ];
            for (reg, constant, read) in reads {
                for (addr, dst) in [
                    (Operand::Reg(reg), 6),
                    (Operand::Reg(reg), reg),
                    (Operand::Reg(reg), 4),
                    (Operand::Const(constant), 6),
                ] {
                    cases.push(read(addr, dst, pred));
                }
            }
            // Writes: register and constant addresses and values.
            let writes: [(Reg, Word, fn(Operand, Operand, Option<Pred>) -> EwInstr); 3] = [
                (2, Word(3), |addr, val, pred| EwInstr::SramWrite {
                    region: SramId(0),
                    addr,
                    val,
                    pred,
                }),
                (0, Word(8), |addr, val, pred| EwInstr::DramWriteW {
                    addr,
                    val,
                    pred,
                }),
                (0, Word(8), |addr, val, pred| EwInstr::DramWriteB {
                    addr,
                    val,
                    pred,
                }),
            ];
            for (reg, constant, write) in writes {
                for (addr, val) in [
                    (Operand::Reg(reg), Operand::Reg(5)),
                    (Operand::Const(constant), Operand::Reg(5)),
                    (Operand::Reg(reg), Operand::imm(9u32)),
                ] {
                    cases.push(write(addr, val, pred));
                }
            }
            for src in [Operand::Reg(5), Operand::imm(9u32)] {
                cases.push(EwInstr::AllocPush { alloc, src, pred });
            }
        }
        cases.push(EwInstr::AllocPop { alloc, dst: 6 });

        for n in [8, 13, 64] {
            // Lane file: a window at register 1, and a stride past n, so
            // neighbouring columns and lanes past n must stay untouched.
            let (base, stride) = (1, n + 2);
            let mut file = vec![Word(0xDEAD); (base + REGS + 1) * stride];
            for l in 0..n {
                for r in 0..REGS {
                    file[(base + r) * stride + l] = init(l, r);
                }
            }
            for ins in &cases {
                let (mut lanes, mut lane_mem) = (file.clone(), mem.clone());
                let mut spare = vec![Word::ZERO; 3 * n];
                let instrs = std::slice::from_ref(ins);
                exec_lanes(
                    instrs,
                    &mut lanes,
                    &mut spare,
                    base,
                    stride,
                    n,
                    &mut lane_mem,
                );
                let (mut threads, mut thread_mem) = (file.clone(), mem.clone());
                for l in 0..n {
                    let mut row: Vec<Word> = (0..REGS).map(|r| init(l, r)).collect();
                    exec_instrs(instrs, &mut row, &mut thread_mem);
                    for (r, v) in row.into_iter().enumerate() {
                        threads[(base + r) * stride + l] = v;
                    }
                }
                let case = format!("n={n}: {ins:?}");
                assert_eq!(lanes, threads, "registers, {case}");
                assert_eq!(&lane_mem.dram[..], &thread_mem.dram[..], "DRAM, {case}");
                assert_eq!(
                    (lane_mem.dram_read_bytes, lane_mem.dram_written_bytes),
                    (thread_mem.dram_read_bytes, thread_mem.dram_written_bytes),
                    "DRAM byte counts, {case}"
                );
                for id in [sram, counters] {
                    assert_eq!(lane_mem.sram(id), thread_mem.sram(id), "SRAM, {case}");
                }
                assert_eq!(lane_mem, thread_mem, "memory, {case}");
                // Where every lane writes one word, the last lane's stays.
                if let EwInstr::DramWriteW {
                    addr: Operand::Const(_),
                    val: Operand::Reg(5),
                    pred: None,
                } = ins
                {
                    assert_eq!(lane_mem.dram_read_word(8), init(n - 1, 5), "{case}");
                }
            }
        }
    }

    #[test]
    fn max_reg_sizes() {
        let i = EwInstr::Alu {
            op: AluOp::Add,
            a: Operand::Reg(3),
            b: Operand::imm(1u32),
            dst: 7,
        };
        assert_eq!(i.max_reg(), 8);
        assert!(!i.is_memory());
        assert_eq!(i.unit_class(), UnitClass::Compute);
        let mut read = EwInstr::DramReadW {
            addr: Operand::Reg(4),
            dst: 1,
            pred: Some(Pred {
                reg: 9,
                expect: true,
            }),
        };
        assert!(read.is_memory());
        assert_eq!(read.unit_class(), UnitClass::AddressGen);
        assert_eq!(read.max_reg(), 10);
        // Operands, then the predicate, then the write — and the visit
        // can rename in place.
        let mut seen = Vec::new();
        read.for_each_reg(|role, r| {
            seen.push((role, *r));
            *r += 1;
        });
        assert_eq!(
            seen,
            [(RegRole::Read, 4), (RegRole::Pred, 9), (RegRole::Write, 1)]
        );
        assert_eq!(read.max_reg(), 11);
        let pop = EwInstr::AllocPop {
            alloc: AllocId(0),
            dst: 2,
        };
        assert_eq!(pop.unit_class(), UnitClass::Memory);
    }
}
