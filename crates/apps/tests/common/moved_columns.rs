//! Per-column counts of what a recomputed golden table moved, shared by
//! the golden tests of `revet-apps` and `revet-bench` (the latter includes
//! this file by path).

use std::collections::HashMap;
use std::fmt::Write as _;

/// Whether a word is a column value rather than part of a row's key: a
/// decimal number, or `name=value` with a lower-case name and a decimal or
/// hex value.
fn is_column(word: &str) -> bool {
    let number = |s: &str, radix| !s.is_empty() && s.chars().all(|c| c.is_digit(radix));
    match word.split_once('=') {
        Some((name, value)) => {
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                && number(value, 16)
        }
        None => number(word, 10),
    }
}

/// How many rows moved in each column of `actual` against `golden`. A
/// row's key is its words before the first column value ([`is_column`]),
/// and rows are matched by key; a column is named by its `name=`, or by
/// its word's 1-based position in the row (`#3`) where the table has no
/// names. Words without a letter or digit (separators) are not columns.
/// `nodes 0/90, chans 0/90, digest 0/90, mir 43/90` says the graph held
/// still while the pass pipeline moved. Rows only one side has are
/// counted after.
pub fn moved_columns(golden: &str, actual: &str) -> String {
    fn split(line: &str) -> (String, Vec<(String, &str)>) {
        let words: Vec<&str> = line.split(' ').collect();
        let at = words
            .iter()
            .position(|w| is_column(w))
            .unwrap_or(words.len());
        let columns = words
            .iter()
            .enumerate()
            .skip(at)
            .filter(|(_, w)| w.chars().any(char::is_alphanumeric))
            .map(|(i, w)| match w.split_once('=') {
                Some((name, value)) => (name.to_string(), value),
                None => (format!("#{}", i + 1), *w),
            })
            .collect();
        (words[..at].join(" "), columns)
    }
    let golden: HashMap<String, Vec<(String, &str)>> = golden.lines().map(split).collect();
    let mut columns: Vec<(String, usize)> = Vec::new();
    let (mut matched, mut new) = (0, 0);
    for (key, cols) in actual.lines().map(split) {
        let Some(want) = golden.get(&key) else {
            new += 1;
            continue;
        };
        matched += 1;
        for (name, value) in cols {
            let moved = !want.iter().any(|(n, v)| *n == name && *v == value);
            match columns.iter_mut().find(|(n, _)| *n == name) {
                Some(column) => column.1 += usize::from(moved),
                None => columns.push((name, usize::from(moved))),
            }
        }
    }
    let mut out = columns
        .iter()
        .map(|(name, moved)| format!("{name} {moved}/{matched}"))
        .collect::<Vec<_>>()
        .join(", ");
    let gone = golden.len() - matched;
    if new + gone > 0 {
        write!(out, "; {new} rows new, {gone} rows gone").unwrap();
    }
    out
}
