//! Self-contained `.rvt` reproducer files.
//!
//! A reproducer is an ordinary Revet source file whose leading `//`
//! comment lines carry everything needed to replay it through the
//! oracle: the case seed, `main`'s arguments, every non-empty DRAM init
//! image (hex-encoded — nothing has to be re-derived from generator
//! internals), and the failure line that produced it. The lexer treats
//! the header as comments, so a reproducer also compiles as-is with
//! `revetc`. The checked-in `corpus/` seeds use the same format.

use crate::gen::Case;
use crate::oracle::Failure;
use revet_lang::{ast::Program, print_program};

/// Renders `case` (and the failure that produced it, if any) as a
/// reproducer file.
pub fn format_repro(case: &Case, failure: Option<&Failure>) -> String {
    let mut out = String::new();
    out.push_str("// revet-fuzz reproducer\n");
    out.push_str(&format!("// seed: {:#018x}\n", case.seed));
    let args: Vec<String> = case.args.iter().map(|a| a.to_string()).collect();
    out.push_str(&format!("// args: {}\n", args.join(" ")));
    for (sym, bytes) in case.dram_inits.iter().enumerate() {
        if !bytes.is_empty() {
            out.push_str(&format!("// init d{sym}: {}\n", hex(bytes)));
        }
    }
    if let Some(f) = failure {
        out.push_str(&format!("// failure: {f}\n"));
    }
    out.push('\n');
    out.push_str(&case.source);
    out
}

/// Parses a reproducer back into a replayable [`Case`].
///
/// # Errors
///
/// Describes the malformed header line or the parse failure.
pub fn parse_repro(text: &str) -> Result<Case, String> {
    let mut seed = 0u64;
    let mut args = Vec::new();
    let mut inits: Vec<(usize, Vec<u8>)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("//") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(v) = rest.strip_prefix("seed:") {
            let v = v.trim().trim_start_matches("0x");
            seed = u64::from_str_radix(v, 16).map_err(|e| format!("bad seed: {e}"))?;
        } else if let Some(v) = rest.strip_prefix("args:") {
            for a in v.split_whitespace() {
                args.push(
                    a.parse::<u32>()
                        .map_err(|e| format!("bad arg {a:?}: {e}"))?,
                );
            }
        } else if let Some(v) = rest.strip_prefix("init d") {
            let (sym, hexstr) = v
                .split_once(':')
                .ok_or_else(|| format!("bad init line {rest:?}"))?;
            let sym: usize = sym
                .trim()
                .parse()
                .map_err(|e| format!("bad init symbol: {e}"))?;
            inits.push((sym, unhex(hexstr.trim())?));
        }
    }
    let ast = revet_lang::parse_program(text)
        .map_err(|d| format!("reproducer source does not parse: {d}"))?;
    let n_drams = ast.drams.len();
    let mut dram_inits = vec![Vec::new(); n_drams];
    for (sym, bytes) in inits {
        if sym >= n_drams {
            return Err(format!("init d{sym} but only {n_drams} dram symbols"));
        }
        dram_inits[sym] = bytes;
    }
    Ok(Case {
        seed,
        source: text.to_string(),
        ast,
        args,
        dram_inits,
    })
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex init".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

/// True when the reproducer's AST is still the printed form of `ast`
/// (used by tests to confirm the header round-trips losslessly).
pub fn same_program(a: &Program, b: &Program) -> bool {
    print_program(a) == print_program(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn reproducers_round_trip() {
        let case = generate_case(0x5EED_1234, &GenConfig::default());
        let text = format_repro(&case, None);
        let back = parse_repro(&text).unwrap();
        assert_eq!(back.seed, case.seed);
        assert_eq!(back.args, case.args);
        assert_eq!(back.dram_inits, case.dram_inits);
        assert!(same_program(&back.ast, &case.ast));
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
        assert!(unhex("abc").is_err());
        assert!(unhex("zz").is_err());
    }
}
