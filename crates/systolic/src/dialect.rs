//! The `key : value` text dialect shared by SCALE-Sim `.cfg` files and
//! sweep specs: one line lexer and one set of value parsers, so the two
//! front ends cannot drift apart.
//!
//! A file is a sequence of lines. `#` or `;` starts a comment that runs
//! to the end of the line (whole-line or trailing); `[name]` opens a
//! section; every other non-blank line is `key : value` or
//! `key = value`. Keys and section names are case-insensitive (lexed to
//! lowercase), values are trimmed, and list values are comma-separated.
//!
//! Value parsers take the name to blame in the error message (`what`)
//! and the value text, and return the same `Result<T, String>` the
//! workspace's other vocabulary parsers (`Strategy::parse`,
//! `Phase::parse`, [`Dataflow::parse`](crate::Dataflow::parse)) use.

/// One `key : value` line together with the section it sits in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<'a> {
    /// Enclosing `[section]`, lowercased; empty before the first header.
    pub section: String,
    /// The key, lowercased.
    pub key: String,
    /// The value, trimmed, comment removed.
    pub value: &'a str,
}

/// Lexes `text` into its entries, tracking section headers and skipping
/// blanks and comments. A line that is neither a header nor
/// `key : value` (with both sides non-empty) yields an `Err` naming it.
pub fn entries(text: &str) -> impl Iterator<Item = Result<Entry<'_>, String>> {
    let mut section = String::new();
    text.lines().filter_map(move |raw| {
        let line = raw.split(['#', ';']).next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_ascii_lowercase();
            return None;
        }
        let entry = line
            .split_once([':', '='])
            .map(|(key, value)| (key.trim(), value.trim()))
            .filter(|(key, value)| !key.is_empty() && !value.is_empty())
            .map(|(key, value)| Entry {
                section: section.clone(),
                key: key.to_ascii_lowercase(),
                value,
            })
            .ok_or_else(|| format!("malformed line '{line}' (expected 'key : value')"));
        Some(entry)
    })
}

/// The non-empty items of a comma-separated list value.
pub fn list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|v| !v.is_empty())
}

/// An integer count of at least 1.
pub fn count(what: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("bad {what} '{v}' (positive integer)"))
}

/// An SRAM size in kilobytes: a count whose byte count (`kB · 1024`)
/// fits in `usize`, so every size derived from it is exact.
pub fn kilobytes(what: &str, v: &str) -> Result<usize, String> {
    let kb = count(what, v)?;
    kb.checked_mul(1024)
        .map(|_| kb)
        .ok_or_else(|| format!("bad {what} '{v}' (its byte count overflows usize)"))
}

/// A positive finite number.
pub fn positive(what: &str, v: &str) -> Result<f64, String> {
    let x: f64 = v.parse().map_err(|_| format!("bad {what} '{v}'"))?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{what} must be positive: '{v}'"))
    }
}

/// A boolean: `true/1/on/yes` or `false/0/off/no`, any case. Anything
/// else is an error — a typo must not silently read as `false`.
pub fn boolean(what: &str, v: &str) -> Result<bool, String> {
    match v.to_ascii_lowercase().as_str() {
        "true" | "1" | "on" | "yes" => Ok(true),
        "false" | "0" | "off" | "no" => Ok(false),
        _ => Err(format!("bad boolean '{v}' for {what}")),
    }
}

/// An `RxC` pair of positive integers (`16x64`, `2X2`).
pub fn rxc(what: &str, v: &str) -> Result<(usize, usize), String> {
    let (r, c) = v
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("bad {what} '{v}' (expected RxC, e.g. 16x64)"))?;
    let dimension = format!("{what} dimension");
    Ok((count(&dimension, r.trim())?, count(&dimension, c.trim())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(text: &str) -> Vec<(String, String, String)> {
        entries(text)
            .map(|e| e.map(|e| (e.section, e.key, e.value.to_string())))
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn lexer_handles_sections_comments_and_both_separators() {
        let got = lex(
            "# whole-line\nTop : 1\n[ Grid ]  ; trailing\nArray = 8x8, 16x16  # trailing\n\n\
             ; other\n[llm]\nSparseRatio : 2:4\n",
        );
        let want = [
            ("", "top", "1"),
            ("grid", "array", "8x8, 16x16"),
            ("llm", "sparseratio", "2:4"),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|(s, k, v)| (s.to_string(), k.to_string(), v.to_string()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn malformed_lines_are_errors_not_skips() {
        for bad in [
            "just words",
            "key :",
            ": value",
            "[unclosed",
            "k = # only a comment",
        ] {
            let err = entries(bad).next().unwrap().unwrap_err();
            assert!(err.contains("malformed line"), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn value_parsers_accept_and_reject() {
        assert_eq!(list(" a, b ,,c ").collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(count("chips", "8"), Ok(8));
        for bad in ["0", "-1", "2.5", "many"] {
            assert!(count("chips", bad).unwrap_err().contains("bad chips"));
        }
        assert_eq!(kilobytes("sram", "512"), Ok(512));
        let most = (usize::MAX / 1024).to_string();
        assert_eq!(kilobytes("sram", &most), Ok(usize::MAX / 1024));
        let over = (usize::MAX / 1024 + 1).to_string();
        for bad in [over.as_str(), "18446744073709551615"] {
            let err = kilobytes("sram", bad).unwrap_err();
            assert!(
                err.contains("bad sram") && err.contains("overflows"),
                "{err}"
            );
        }
        assert!(kilobytes("sram", "0").unwrap_err().contains("positive"));
        assert_eq!(positive("bandwidth", "2.5"), Ok(2.5));
        assert!(positive("bandwidth", "fast")
            .unwrap_err()
            .contains("bad bandwidth"));
        for bad in ["0", "-1", "inf", "NaN"] {
            assert!(positive("bandwidth", bad).unwrap_err().contains("positive"));
        }
        for (yes, no) in [("true", "false"), ("1", "0"), ("ON", "off"), ("Yes", "NO")] {
            assert_eq!(boolean("dram", yes), Ok(true));
            assert_eq!(boolean("dram", no), Ok(false));
        }
        let err = boolean("SparsitySupport", "ture").unwrap_err();
        assert!(err.contains("'ture'") && err.contains("SparsitySupport"));
        assert_eq!(rxc("array", "16x64"), Ok((16, 64)));
        assert_eq!(rxc("array", "2 X 4"), Ok((2, 4)));
        assert!(rxc("array", "8").unwrap_err().contains("bad array '8'"));
        assert!(rxc("array", "0x8")
            .unwrap_err()
            .contains("bad array dimension '0'"));
    }
}
