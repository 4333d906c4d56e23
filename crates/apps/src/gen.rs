//! Deterministic synthetic workload generators.
//!
//! The paper's `search` benchmark scans *Moby Dick*; we substitute a seeded
//! Markov-style English-like text generator — Horspool skip
//! behaviour depends only on alphabet statistics and match density, which
//! the generator controls.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// English-like letter distribution (rough frequencies).
const LETTERS: &[u8] = b"etaoinshrdlcumwfgypbvk";

/// Generates `len` bytes of English-like text with spaces, planting
/// `pattern` roughly every `plant_every` bytes.
pub fn english_text(len: usize, pattern: &[u8], plant_every: usize, seed: u64) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        if plant_every > 0 && !pattern.is_empty() && out.len() % plant_every == plant_every - 1 {
            out.extend_from_slice(pattern);
            continue;
        }
        let roll: f64 = r.gen();
        if roll < 0.17 {
            out.push(b' ');
        } else {
            let idx = (r.gen::<f64>() * r.gen::<f64>() * LETTERS.len() as f64) as usize;
            out.push(LETTERS[idx.min(LETTERS.len() - 1)]);
        }
    }
    out.truncate(len);
    out
}

/// A random IPv4 address string ("x.x.x.x").
pub fn ipv4_string(r: &mut StdRng) -> String {
    format!(
        "{}.{}.{}.{}",
        r.gen_range(0..=255u32),
        r.gen_range(0..=255u32),
        r.gen_range(0..=255u32),
        r.gen_range(0..=255u32)
    )
}

/// Fixed-width (16-byte, NUL-padded) address records: `valid_pct`% random
/// IPv4 addresses, the rest the literal `INVALID` (Table III: 90% valid).
pub fn ipv4_records(count: usize, valid_pct: u32, seed: u64) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(count * 16);
    for _ in 0..count {
        let s = if r.gen_range(0..100u32) < valid_pct {
            ipv4_string(&mut r)
        } else {
            "INVALID".to_string()
        };
        let mut rec = s.into_bytes();
        rec.resize(16, 0);
        out.extend_from_slice(&rec);
    }
    out
}

/// Random `u32`s in `1..max` (0 is reserved as the empty-slot marker).
pub fn nonzero_keys(count: usize, max: u32, seed: u64) -> Vec<u32> {
    let mut r = rng(seed);
    (0..count).map(|_| r.gen_range(1..max)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_deterministic_and_planted() {
        let a = english_text(4096, b"moby", 256, 7);
        let b = english_text(4096, b"moby", 256, 7);
        assert_eq!(a, b);
        let hits = a.windows(4).filter(|w| w == b"moby").count();
        assert!(hits >= 10, "plants present: {hits}");
    }

    #[test]
    fn records_are_fixed_width() {
        let recs = ipv4_records(10, 90, 1);
        assert_eq!(recs.len(), 160);
        // Every record NUL-terminated within 16 bytes.
        for i in 0..10 {
            assert!(recs[i * 16..(i + 1) * 16].contains(&0));
        }
    }

    #[test]
    fn keys_nonzero() {
        for k in nonzero_keys(100, 1000, 3) {
            assert!(k >= 1 && k < 1000);
        }
    }
}
