//! MIR types and module-level declarations.
//!
//! The Revet machine computes on 32-bit lanes; `I8`/`I16` are *storage*
//! widths that matter to the memory lowering and to the sub-word packing
//! optimization (§V-B d). Signedness lives in the operations (the ALU has
//! signed/unsigned variants), mirroring LLVM/MLIR.

use core::fmt;
use revet_sltf::Word;

/// A value type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// 8-bit storage (computed on a 32-bit lane).
    I8,
    /// 16-bit storage.
    I16,
    /// Full 32-bit word.
    I32,
    /// A data-free ordering token.
    Void,
    /// An opaque handle to a view/iterator/SRAM object (front-end only;
    /// eliminated by high-level lowering).
    Handle,
}

impl Ty {
    /// Storage width in bytes (handles and void have none).
    pub fn bytes(self) -> Option<u32> {
        match self {
            Ty::I8 => Some(1),
            Ty::I16 => Some(2),
            Ty::I32 => Some(4),
            Ty::Void | Ty::Handle => None,
        }
    }

    /// The word a `ConstI(v, self)` op produces: `I8`/`I16` literals are
    /// masked to their storage width. The one statement of this rule for
    /// the optimizer and the dataflow lowering.
    pub fn materialize(self, v: i64) -> Word {
        match self {
            Ty::I8 => Word((v as u8) as u32),
            Ty::I16 => Word((v as u16) as u32),
            _ => Word(v as u32),
        }
    }

    /// The word a `Cast { to: self, signed }` of `w` produces: truncation
    /// to the storage width, then zero- or sign-extension back to the lane.
    pub fn narrow(self, w: Word, signed: bool) -> Word {
        match (self, signed) {
            (Ty::I8, false) => Word(w.as_u32() & 0xFF),
            (Ty::I8, true) => Word::from_i32(w.as_u32() as u8 as i8 as i32),
            (Ty::I16, false) => Word(w.as_u32() & 0xFFFF),
            (Ty::I16, true) => Word::from_i32(w.as_u32() as u16 as i16 as i32),
            _ => w,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::Void => "void",
            Ty::Handle => "handle",
        };
        f.write_str(s)
    }
}

/// Reference to a module-level DRAM symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DramRef(pub u32);

/// A DRAM symbol declaration (`dram<u8> input;`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DramDecl {
    /// Symbol name.
    pub name: String,
    /// Element storage width in bytes (1, 2 or 4).
    pub elem_bytes: u32,
}

/// Where each DRAM symbol lives in the flat simulated DRAM.
///
/// Assigned by the application harness before execution; the compiler only
/// deals in symbols.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DramLayout {
    /// Base byte address per [`DramRef`] index.
    pub base: Vec<u32>,
}

impl DramLayout {
    /// The equal-slice layout every harness and the compiler share: a
    /// `dram_bytes` image cut into one slice per symbol, in declaration
    /// order, so symbol `i` starts at `i × (dram_bytes ÷ symbols)`.
    ///
    /// # Panics
    ///
    /// If a base does not fit a 32-bit address (`dram_bytes` above 2³²).
    pub fn equal_slices(symbols: usize, dram_bytes: usize) -> Self {
        let slice = dram_bytes / symbols.max(1);
        let base = |i: usize| u32::try_from(i * slice).expect("a DRAM base fits 32 bits");
        DramLayout {
            base: (0..symbols).map(base).collect(),
        }
    }

    /// Byte address of element `idx` of symbol `d` with the given element
    /// width.
    pub fn addr(&self, d: DramRef, elem_bytes: u32, idx: u32) -> u32 {
        self.base[d.0 as usize].wrapping_add(idx.wrapping_mul(elem_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_bytes() {
        assert_eq!(Ty::I8.bytes(), Some(1));
        assert_eq!(Ty::I16.bytes(), Some(2));
        assert_eq!(Ty::I32.bytes(), Some(4));
        assert_eq!(Ty::Void.bytes(), None);
    }

    #[test]
    fn narrow_truncates_then_extends() {
        assert_eq!(Ty::I8.narrow(Word(0x1FF), false), Word(0xFF));
        assert_eq!(Ty::I8.narrow(Word(0x80), true), Word::from_i32(-128));
        assert_eq!(Ty::I16.narrow(Word(0x1_8000), true), Word::from_i32(-32768));
        assert_eq!(Ty::I32.narrow(Word(0xDEAD_BEEF), true), Word(0xDEAD_BEEF));
    }

    #[test]
    fn equal_slices_cut_the_image_evenly() {
        let l = DramLayout::equal_slices(3, 3000);
        assert_eq!(l.base, vec![0, 1000, 2000]);
        assert_eq!(DramLayout::equal_slices(0, 3000).base, Vec::<u32>::new());
    }

    #[test]
    fn layout_addresses() {
        let l = DramLayout {
            base: vec![0, 1024],
        };
        assert_eq!(l.addr(DramRef(1), 4, 3), 1024 + 12);
    }

    #[test]
    fn display() {
        assert_eq!(Ty::I16.to_string(), "i16");
    }
}
