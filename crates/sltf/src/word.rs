//! 32-bit machine words.
//!
//! Every on-chip lane in the Revet machine model is 32 bits wide (§III of the
//! paper). A [`Word`] is an untyped 32-bit value; typed views (signed,
//! unsigned, boolean) are provided as conversions so the element-wise
//! interpreter can reinterpret lanes without allocation.

use core::fmt;

/// An untyped 32-bit machine word — the unit of data on every lane.
///
/// # Examples
///
/// ```
/// use revet_sltf::Word;
///
/// let w = Word::from_i32(-3);
/// assert_eq!(w.as_i32(), -3);
/// assert_eq!(Word::from_u32(7).as_u32(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Word(pub u32);

impl Word {
    /// The all-zero word (also used as the void-token payload).
    pub const ZERO: Word = Word(0);

    /// Creates a word from an unsigned 32-bit value.
    #[inline]
    pub const fn from_u32(v: u32) -> Self {
        Word(v)
    }

    /// Creates a word from a signed 32-bit value (two's complement bits).
    #[inline]
    pub const fn from_i32(v: i32) -> Self {
        Word(v as u32)
    }

    /// Creates a word holding a boolean (1 = true, 0 = false).
    #[inline]
    pub const fn from_bool(v: bool) -> Self {
        Word(v as u32)
    }

    /// The word reinterpreted as unsigned.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The word reinterpreted as signed two's complement.
    #[inline]
    pub const fn as_i32(self) -> i32 {
        self.0 as i32
    }

    /// True iff the word is non-zero (the machine's boolean convention).
    #[inline]
    pub const fn as_bool(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0 as i32)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 as i32)
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u32> for Word {
    fn from(v: u32) -> Self {
        Word(v)
    }
}

impl From<i32> for Word {
    fn from(v: i32) -> Self {
        Word::from_i32(v)
    }
}

impl From<bool> for Word {
    fn from(v: bool) -> Self {
        Word::from_bool(v)
    }
}

impl From<Word> for u32 {
    fn from(w: Word) -> u32 {
        w.0
    }
}

impl From<Word> for i32 {
    fn from(w: Word) -> i32 {
        w.as_i32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_signed() {
        for v in [-1, 0, 1, i32::MIN, i32::MAX] {
            assert_eq!(Word::from_i32(v).as_i32(), v);
        }
    }

    #[test]
    fn bool_convention() {
        assert!(Word::from_bool(true).as_bool());
        assert!(!Word::from_bool(false).as_bool());
        assert!(Word::from_u32(17).as_bool());
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", Word::from_i32(-2)), "w-2");
    }
}
