//! String-analytics applications: isipv4, ip2int, search.

use crate::{gen, App, Workload};

/// isipv4 — DFA-style validation of 16-byte address records (Table III:
/// 90% valid addresses, 10% 'INVALID').
pub fn isipv4_app() -> App {
    App {
        name: "isipv4",
        description: "DFA regex: validate IPv4 address records",
        key_features: "replicate (x2)",
        source: |outer| {
            format!(
                r#"
dram<u8> input;
dram<u32> output;
void main(u32 count) {{
    foreach (count) {{ u32 i =>
        replicate ({outer}) {{
            readit<16> it(input, i * 16);
            u8 ok = 1;
            u8 dots = 0;
            u8 digs = 0;
            u16 val = 0;
            u8 c = 1;
            while (c) {{
                c = *it;
                if (c) {{
                    if (c == '.') {{
                        if (digs == 0) {{ ok = 0; }};
                        if (val > 255) {{ ok = 0; }};
                        dots = dots + 1;
                        digs = 0;
                        val = 0;
                    }} else {{
                        if ((c < '0') || (c > '9')) {{
                            ok = 0;
                        }} else {{
                            val = val * 10 + (c - '0');
                            digs = digs + 1;
                        }};
                    }};
                }};
                it++;
            }};
            if (digs == 0) {{ ok = 0; }};
            if (val > 255) {{ ok = 0; }};
            if (dots != 3) {{ ok = 0; }};
            output[i] = ok;
        }};
    }};
}}
"#
            )
        },
        workload: |scale, seed| {
            let input = gen::ipv4_records(scale, 90, seed);
            let expected: Vec<u8> = (0..scale)
                .flat_map(|i| {
                    let rec = &input[i * 16..(i + 1) * 16];
                    let s = rec.split(|&b| b == 0).next().unwrap_or(&[]);
                    let ok = oracle_is_ipv4(s) as u32;
                    ok.to_le_bytes()
                })
                .collect();
            Workload {
                args: vec![scale as u32],
                app_bytes: (input.len() + expected.len()) as u64,
                bytes_per_thread: 16,
                threads: scale as u64,
                inits: vec![(0, input)],
                expected,
                out_sym: 1,
            }
        },
        cpu_ops_per_byte: 8.0,
        gpu_coalesces: true,
    }
}

fn oracle_is_ipv4(s: &[u8]) -> bool {
    let text = match std::str::from_utf8(s) {
        Ok(t) => t,
        Err(_) => return false,
    };
    let parts: Vec<&str> = text.split('.').collect();
    parts.len() == 4
        && parts.iter().all(|p| {
            !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) && {
                // Match the kernel: accumulate with wrapping and range-check.
                let mut v: u32 = 0;
                let mut over = false;
                for b in p.bytes() {
                    v = v.wrapping_mul(10).wrapping_add((b - b'0') as u32);
                    if v > 255 {
                        over = true;
                    }
                }
                !over
            }
        })
}

/// ip2int — parse IPv4 records into `u32` (Table III: random addresses).
pub fn ip2int_app() -> App {
    App {
        name: "ip2int",
        description: "Parsing: IPv4 address records to u32",
        key_features: "replicate (x2)",
        source: |outer| {
            format!(
                r#"
dram<u8> input;
dram<u32> output;
void main(u32 count) {{
    foreach (count) {{ u32 i =>
        replicate ({outer}) {{
            readit<16> it(input, i * 16);
            u32 acc = 0;
            u16 cur = 0;
            u8 c = 1;
            while (c) {{
                c = *it;
                if (c == '.') {{
                    acc = (acc << 8) | cur;
                    cur = 0;
                }} else {{
                    if (c) {{
                        cur = cur * 10 + (c - '0');
                    }};
                }};
                it++;
            }};
            acc = (acc << 8) | cur;
            output[i] = acc;
        }};
    }};
}}
"#
            )
        },
        workload: |scale, seed| {
            let input = gen::ipv4_records(scale, 100, seed);
            let expected: Vec<u8> = (0..scale)
                .flat_map(|i| {
                    let rec = &input[i * 16..(i + 1) * 16];
                    let s = rec.split(|&b| b == 0).next().unwrap_or(&[]);
                    oracle_ip2int(s).to_le_bytes()
                })
                .collect();
            Workload {
                args: vec![scale as u32],
                app_bytes: (input.len() + expected.len()) as u64,
                bytes_per_thread: 16,
                threads: scale as u64,
                inits: vec![(0, input)],
                expected,
                out_sym: 1,
            }
        },
        cpu_ops_per_byte: 6.0,
        gpu_coalesces: true,
    }
}

fn oracle_ip2int(s: &[u8]) -> u32 {
    let mut acc: u32 = 0;
    let mut cur: u32 = 0;
    for &b in s {
        if b == b'.' {
            acc = (acc << 8) | cur;
            cur = 0;
        } else {
            cur = cur.wrapping_mul(10).wrapping_add((b - b'0') as u32);
        }
    }
    (acc << 8) | cur
}

/// search — exact-match search with Horspool bad-character skips over
/// 256-byte chunks of synthetic English-like text (Table III: find
/// 'Moby Dick' in chunks of *Moby Dick*; the `gen` module's docs give the
/// text substitution). The doubly nested data-dependent `while` is the §VI-B b
/// headline.
pub fn search_app() -> App {
    App {
        name: "search",
        description: "Exact-match search (Horspool) over text chunks",
        key_features: "nested while (x2)",
        source: |outer| {
            format!(
                r#"
dram<u8> text;
dram<u8> pat;
dram<u32> skip;
dram<u32> output;
void main(u32 chunks) {{
    foreach (chunks) {{ u32 ci =>
        replicate ({outer}) {{
            u32 base = ci * 256;
            u32 pos = 0;
            u32 hits = 0;
            while (pos <= 248) {{
                u32 j = 7;
                u32 ok = 1;
                u32 going = 1;
                while (going) {{
                    if (text[base + pos + j] != pat[j]) {{
                        ok = 0;
                        going = 0;
                    }} else {{
                        if (j == 0) {{
                            going = 0;
                        }} else {{
                            j = j - 1;
                        }};
                    }};
                }};
                if (ok) {{
                    hits = hits + 1;
                    pos = pos + 1;
                }} else {{
                    u32 last = text[base + pos + 7];
                    pos = pos + skip[last];
                }};
            }};
            output[ci] = hits;
        }};
    }};
}}
"#
            )
        },
        workload: |scale, seed| {
            let pattern = b"mobydick";
            let text = gen::english_text(scale * 256, pattern, 512, seed);
            let mut skip = vec![8u32; 256];
            for (j, &b) in pattern.iter().take(7).enumerate() {
                skip[b as usize] = (7 - j) as u32;
            }
            let skip_bytes: Vec<u8> = skip.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut pat = pattern.to_vec();
            pat.push(0);
            let expected: Vec<u8> = (0..scale)
                .flat_map(|c| {
                    let chunk = &text[c * 256..(c + 1) * 256];
                    oracle_search(chunk, pattern, &skip).to_le_bytes()
                })
                .collect();
            Workload {
                args: vec![scale as u32],
                app_bytes: (text.len() + expected.len()) as u64,
                bytes_per_thread: 256,
                threads: scale as u64,
                inits: vec![(0, text), (1, pat), (2, skip_bytes)],
                expected,
                out_sym: 3,
            }
        },
        cpu_ops_per_byte: 4.0,
        gpu_coalesces: false, // 256 B/thread: uncoalesced L1 pressure (§VI-B b)
    }
}

fn oracle_search(chunk: &[u8], pattern: &[u8], skip: &[u32]) -> u32 {
    let mut pos = 0usize;
    let mut hits = 0u32;
    while pos + 8 <= chunk.len() {
        if &chunk[pos..pos + 8] == pattern {
            hits += 1;
            pos += 1;
        } else {
            pos += skip[chunk[pos + 7] as usize] as usize;
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_ipv4() {
        assert!(oracle_is_ipv4(b"1.2.3.4"));
        assert!(oracle_is_ipv4(b"255.255.255.255"));
        assert!(!oracle_is_ipv4(b"INVALID"));
        assert!(!oracle_is_ipv4(b"1.2.3"));
        assert!(!oracle_is_ipv4(b"1.2.3.258"));
        assert!(!oracle_is_ipv4(b"1..3.4"));
    }

    #[test]
    fn oracle_parse() {
        assert_eq!(oracle_ip2int(b"1.2.3.4"), 0x01020304);
        assert_eq!(oracle_ip2int(b"255.0.0.1"), 0xFF000001);
    }

    #[test]
    fn oracle_search_counts() {
        let mut skip = vec![8u32; 256];
        for (j, &b) in b"mobydic".iter().enumerate() {
            skip[b as usize] = (7 - j) as u32;
        }
        let text = b"xxmobydickxxmobydickxxxxxxxxxxxxx";
        assert_eq!(oracle_search(text, b"mobydick", &skip), 2);
    }
}
