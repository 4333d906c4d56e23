//! Content-addressed program identity.
//!
//! A [`ProgramId`] is a stable 128-bit fingerprint of everything that
//! determines a compile's output: the source text and the [`PassOptions`]
//! it was compiled with. Two requests with byte-identical source and
//! equal options always map to the same id, so a serving layer can key a
//! program cache on it (compile once, execute many) and clients can name
//! a compiled program across connections without shipping the source
//! again.
//!
//! The fingerprint is two independent FNV-1a 64-bit lanes over a
//! canonical byte encoding — deterministic across processes and
//! platforms (no `RandomState`), unlike `std`'s default hasher.

use crate::PassOptions;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Stable 128-bit content fingerprint of a (source, [`PassOptions`]) pair.
///
/// Displayed (and parsed) as 32 lowercase hex characters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId(pub [u8; 16]);

impl ProgramId {
    /// Fingerprints `source` compiled under `opts`.
    pub fn of(source: &str, opts: &PassOptions) -> ProgramId {
        let mut lo = Fnv64::new(FNV_OFFSET_BASIS);
        let mut hi = Fnv64::new(FNV_OFFSET_BASIS ^ LANE_SPLIT);
        for lane in [&mut lo, &mut hi] {
            lane.write(source.as_bytes());
            // Length-prefix the source so ("ab", opts) can never collide
            // with ("a", opts') through the options encoding that follows.
            lane.write_u64(source.len() as u64);
            opts.hash(lane);
        }
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&lo.finish().to_le_bytes());
        bytes[8..].copy_from_slice(&hi.finish().to_le_bytes());
        ProgramId(bytes)
    }

    /// Parses the 32-hex-character form produced by `Display`.
    pub fn parse(s: &str) -> Option<ProgramId> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        let mut bytes = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).ok()?;
            bytes[i] = u8::from_str_radix(hex, 16).ok()?;
        }
        Some(ProgramId(bytes))
    }
}

impl fmt::Display for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProgramId({self})")
    }
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Decorrelates the two lanes; any odd constant works.
const LANE_SPLIT: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a, exposed as a [`Hasher`] so `#[derive(Hash)]` types (notably
/// [`PassOptions`]) feed it their canonical field encoding.
struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    fn new(basis: u64) -> Self {
        Fnv64 { state: basis }
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // Fix the integer encodings to little-endian so the fingerprint does
    // not depend on the platform's native byte order.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_equal_ids() {
        let opts = PassOptions::default();
        let a = ProgramId::of("void main() {}", &opts);
        let b = ProgramId::of("void main() {}", &opts.clone());
        assert_eq!(a, b);
    }

    #[test]
    fn source_and_options_both_feed_the_id() {
        let opts = PassOptions::default();
        let base = ProgramId::of("void main() {}", &opts);
        assert_ne!(base, ProgramId::of("void main() { }", &opts));
        assert_ne!(
            base,
            ProgramId::of(
                "void main() {}",
                &PassOptions {
                    pack_subwords: false,
                    ..PassOptions::default()
                }
            )
        );
        assert_ne!(
            base,
            ProgramId::of(
                "void main() {}",
                &PassOptions {
                    dram_bytes: 1 << 16,
                    ..PassOptions::default()
                }
            )
        );
    }

    #[test]
    fn opt_level_feeds_the_id_and_is_stable() {
        // Two compiles of the same source at different opt levels produce
        // different programs, so they must get different cache keys — and
        // the id must not wobble across runs.
        let src = "dram<u32> output; void main(u32 n) {}";
        let at = |lvl: u8| {
            ProgramId::of(
                src,
                &PassOptions {
                    opt_level: lvl,
                    ..PassOptions::default()
                },
            )
        };
        assert_ne!(at(0), at(2));
        assert_ne!(at(1), at(2));
        assert_ne!(at(0), at(1));
        assert_eq!(at(2), at(2), "stable across evaluations");
    }

    #[test]
    fn display_parse_round_trips() {
        let id = ProgramId::of("dram<u32> x; void main(u32 n) {}", &PassOptions::default());
        let text = id.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(ProgramId::parse(&text), Some(id));
        assert_eq!(ProgramId::parse("zz"), None);
        assert_eq!(ProgramId::parse(""), None);
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The id is part of the serving wire contract: a silent change to
        // the hash function (constants, lane order, PassOptions field
        // order) would orphan every cached program. Pin the literal value.
        // opt_level is pinned explicitly so the REVET_OPT_LEVEL environment
        // override cannot perturb this test.
        let id = ProgramId::of(
            "void main() {}",
            &PassOptions {
                opt_level: 2,
                ..PassOptions::default()
            },
        );
        assert_eq!(id.to_string(), "9568b7602aa8a679b6e6c48e7dd8e637");
    }
}
