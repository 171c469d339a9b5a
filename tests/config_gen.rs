//! The config-document generator shared by the config and endpoint fuzz
//! targets. Member keys come from the field tables, so every field is
//! fuzzed the moment its row exists; values come from one pool of
//! literals inside, on and past the tables' bounds, plus junk.

// Each fuzz target that includes this module uses part of it.
#![allow(dead_code)]

use suit::check::gen::{self, Gen};
use suit::telemetry::fields::{self, Field};

/// Candidate numbers for any member: in-bounds values for every count
/// and real row (the canonical-key property draws on these), bound
/// edges, counts that truncate to small ones as `u32`, non-finite ones.
const NUMBERS: [&str; 22] = [
    "0",
    "1",
    "2",
    "13",
    "70",
    "97",
    "0.5",
    "-120.5",
    "1025",
    "4097",
    "65537",
    "1048577",
    "4294967297",
    "1e18",
    "1e308",
    "1e999",
    "-1",
    "-3",
    "-0.0",
    "null",
    "true",
    "{}",
];

/// Candidate strings and lists, in-bounds for every other row.
const OTHERS: [&str; 14] = [
    "\"a\"",
    "\"f\"",
    "\"adaptive\"",
    "\"557.xz\"",
    "\"zzz\"",
    "\"0123456789abcdef0123456789abcdef\"",
    "[]",
    "[1, 2]",
    "[-100, -160]",
    "[1e999]",
    "[\"557.xz\"]",
    "[\"fv\", \"adaptive\"]",
    "[\"fv\", \"fv\"]",
    "1000000000000000000000",
];

/// Every candidate value.
pub fn values() -> Vec<&'static str> {
    [NUMBERS.as_slice(), &OTHERS].concat()
}

/// The JSON keys of `table`'s rows.
pub fn keys<C>(table: &[Field<C>]) -> Vec<&'static str> {
    table.iter().map(|f| f.name).collect()
}

/// `table`'s canonical default document, seed varied: a valid base for
/// truncation and mutation.
pub fn valid<C: Default + 'static>(
    table: &'static [Field<C>],
    extra: &'static [(&'static str, &'static str)],
) -> Gen<String> {
    gen::u64_in(1..=99).map(move |seed| {
        let mut cfg = C::default();
        let seed = |flag: &str| (flag == "--seed").then(|| seed.to_string());
        fields::apply_flags(table, &mut cfg, seed).expect("seed in bounds");
        fields::canonical(table, &cfg, extra)
    })
}

/// Keys no table has: typos must be rejected, never ignored.
pub const TYPOS: [&str; 2] = ["cache_bankz", "__proto__"];

/// The full input stream of a parser: byte soup, objects of up to eight
/// members with keys from `keys` and values from [`values`] (so repeated
/// keys, hostile counts and wrong types all occur), the
/// definitely-valid `valid` documents, and those cut off at a byte or
/// with one byte flipped.
pub fn doc_stream(keys: Vec<&'static str>, valid: Gen<String>) -> Gen<String> {
    let member = gen::pair(&gen::from_slice(&keys), &gen::from_slice(&values()))
        .map(|(k, v)| format!("\"{k}\": {v}"));
    let structured = member.vec_up_to(8).map(|m| format!("{{{}}}", m.join(", ")));
    let truncated = gen::pair(&valid, &gen::usize_in(0..=255)).map(|(mut s, cut)| {
        // Char-boundary safe: the valid documents are pure ASCII.
        s.truncate(cut % (s.len() + 1));
        s
    });
    let mutated = gen::pair(&valid, &gen::pair(&gen::usize_in(0..=255), &gen::byte())).map(
        |(s, (pos, b))| {
            let mut bytes = s.into_bytes();
            let at = pos % bytes.len();
            bytes[at] ^= b | 1;
            String::from_utf8_lossy(&bytes).into_owned()
        },
    );
    gen::one_of(vec![
        gen::bytes_up_to(200).map(|b| String::from_utf8_lossy(&b).into_owned()),
        structured,
        valid,
        truncated,
        mutated,
    ])
}

/// The totality oracle: accepted configs revalidate; rejections carry a
/// message.
pub fn revalidates<C>(
    parsed: Result<C, String>,
    validate: impl Fn(&C) -> Result<(), String>,
) -> Result<(), String> {
    match parsed {
        Ok(cfg) => validate(&cfg).map_err(|e| format!("accepted config fails validate(): {e}")),
        Err(e) if e.is_empty() => Err("rejection carried an empty error message".to_string()),
        Err(_) => Ok(()),
    }
}
