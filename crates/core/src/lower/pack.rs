//! Sub-word packing (§V-B d): i8 / i16 values of a recirculating tuple
//! share 32-bit slots, so the loop's merge inputs get narrower.

use super::block::{alu, imm, mov};
use super::{Cur, DfLower};
use revet_machine::instr::{AluOp, Operand, Reg};
use revet_machine::nodes::{EwNode, OutputSpec};
use revet_machine::{ChanId, UnitClass};
use revet_mir::{Ty, Value};

/// Group of sub-word tuple positions sharing one 32-bit slot.
#[derive(Clone, Debug)]
struct PackGroup {
    positions: Vec<usize>,
    width: usize,
}

/// Positional description of a packed loop tuple: the physical tuple is
/// the `full` positions, then one slot per group. Positional, so that the
/// forward edge (inits), the loop args and the backedge (yields) — which
/// share a layout but not SSA values — all use one description.
#[derive(Clone, Debug)]
pub(super) struct Packing {
    /// Positions keeping their own physical slot.
    full: Vec<usize>,
    /// Packed groups.
    groups: Vec<PackGroup>,
}

impl DfLower<'_> {
    /// The packed layout of a loop tuple — I8 values 4 per word, I16 2 per
    /// word, anything else in its own slot — or `None` when packing is off
    /// or there are fewer than two sub-word values to share a slot.
    pub(super) fn pack_layout(&self, tuple: &[Value]) -> Option<Packing> {
        let positions_of = |ty: fn(Ty) -> bool| -> Vec<usize> {
            let typed = (0..).zip(tuple).filter(|(_, v)| ty(self.func.ty(**v)));
            typed.map(|(i, _)| i).collect()
        };
        let bytes = positions_of(|t| t == Ty::I8);
        let halves = positions_of(|t| t == Ty::I16);
        if !self.opts.pack_subwords || bytes.len() + halves.len() < 2 {
            return None;
        }
        let group = |width, positions: &[usize]| PackGroup {
            positions: positions.to_vec(),
            width,
        };
        let groups = (bytes.chunks(4).map(|c| group(8, c)))
            .chain(halves.chunks(2).map(|c| group(16, c)))
            .collect();
        Some(Packing {
            full: positions_of(|t| !matches!(t, Ty::I8 | Ty::I16)),
            groups,
        })
    }

    /// Logical tuple → physical (packed) tuple, named by each slot's first
    /// occupant.
    pub(super) fn emit_pack(&mut self, cur: Cur, pack: &Packing) -> Cur {
        let mut instrs = Vec::new();
        let mut out_slots: Vec<Reg> = pack.full.iter().map(|&i| i as Reg).collect();
        let mut scratch = cur.vars.len() as Reg;
        for g in &pack.groups {
            let (dst, lane) = (scratch, scratch + 1);
            scratch += 2;
            instrs.push(mov(Operand::Reg(g.positions[0] as Reg), dst));
            for (j, &m) in g.positions.iter().enumerate().skip(1) {
                let shift = imm((g.width * j) as u32);
                instrs.push(alu(AluOp::Shl, Operand::Reg(m as Reg), shift, lane));
                instrs.push(alu(AluOp::Or, Operand::Reg(dst), Operand::Reg(lane), dst));
            }
            out_slots.push(dst);
        }
        let firsts = pack.groups.iter().map(|g| g.positions[0]);
        let vars = (pack.full.iter().copied().chain(firsts))
            .map(|i| cur.vars[i])
            .collect();
        let node = EwNode::new(scratch, instrs, [OutputSpec::plain(out_slots)]);
        let (unit, category) = (UnitClass::Compute, self.category());
        let chan = self.ew("pack", unit, category, node, [cur.chan]);
        Cur { chan, vars }
    }

    /// Physical tuple on `input` → the `logical` tuple.
    pub(super) fn emit_unpack(&mut self, input: ChanId, logical: &[Value], pack: &Packing) -> Cur {
        let mut instrs = Vec::new();
        let mut out_slots: Vec<Reg> = vec![0; logical.len()];
        for (slot, &pos) in pack.full.iter().enumerate() {
            out_slots[pos] = slot as Reg;
        }
        let mut scratch = (pack.full.len() + pack.groups.len()) as Reg;
        for (slot, g) in (pack.full.len()..).zip(&pack.groups) {
            let mask = imm(if g.width == 8 { 0xFF } else { 0xFFFF });
            for (lane, &pos) in g.positions.iter().enumerate() {
                let (dst, shift) = (scratch, imm((g.width * lane) as u32));
                scratch += 1;
                instrs.push(alu(AluOp::ShrU, Operand::Reg(slot as Reg), shift, dst));
                instrs.push(alu(AluOp::And, Operand::Reg(dst), mask, dst));
                out_slots[pos] = dst;
            }
        }
        let node = EwNode::new(scratch, instrs, [OutputSpec::plain(out_slots)]);
        let (unit, category) = (UnitClass::Compute, self.category());
        let chan = self.ew("unpack", unit, category, node, [input]);
        Cur {
            chan,
            vars: logical.to_vec(),
        }
    }
}
