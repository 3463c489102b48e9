//! Finding fingerprints and the checked-in debt baseline.
//!
//! A fingerprint is a 64-bit FNV-1a hash over the finding's stable
//! coordinates — `rule`, `path`, enclosing `item`, and `category` —
//! rendered as 16 lowercase hex digits. Line numbers are deliberately
//! excluded so reformatting does not churn the baseline; instead the
//! baseline is *count-based*: each entry records how many findings with
//! that fingerprint are tolerated. More findings than the recorded count
//! fail (new debt); fewer marks the entry stale so `--fix-check` forces a
//! ratchet-down.
//!
//! `lint.baseline` line format (one entry per line, sorted by
//! fingerprint):
//!
//! ```text
//! <16-hex fingerprint> <count> <rule> <path> <item> — <reason>
//! ```
//!
//! `item` is `-` for findings outside any indexed item. Blank lines and
//! `#` comments are ignored.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a over the stable coordinates of a finding.
pub fn fingerprint(rule: &str, path: &str, item: &str, category: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [rule, path, item, category] {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator byte so ("a","bc") and ("ab","c") differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One tolerated-debt entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub fingerprint: String,
    pub count: usize,
    pub rule: String,
    pub path: String,
    pub item: String,
    pub reason: String,
}

/// The parsed baseline file, keyed by fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub entries: BTreeMap<String, BaselineEntry>,
}

impl Baseline {
    /// Parse `lint.baseline` text. Returns `Err` with a pointed
    /// line-numbered diagnostic on any malformed entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let (head, reason) = match line.split_once(" — ") {
                Some((h, r)) => (h.trim(), r.trim()),
                None => {
                    return Err(format!(
                        "lint.baseline:{lineno}: missing ` — <reason>` separator in `{line}`"
                    ))
                }
            };
            let fields: Vec<&str> = head.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(format!(
                    "lint.baseline:{lineno}: expected `<fingerprint> <count> <rule> <path> \
                     <item> — <reason>`, got {} fields in `{line}`",
                    fields.len()
                ));
            }
            let fp = fields[0];
            if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!(
                    "lint.baseline:{lineno}: `{fp}` is not a 16-hex fingerprint"
                ));
            }
            let count: usize = fields[1].parse().map_err(|_| {
                format!(
                    "lint.baseline:{lineno}: count `{}` is not a number",
                    fields[1]
                )
            })?;
            if count == 0 {
                return Err(format!(
                    "lint.baseline:{lineno}: count 0 entries must be deleted, not kept"
                ));
            }
            if reason.is_empty() {
                return Err(format!("lint.baseline:{lineno}: empty reason"));
            }
            let entry = BaselineEntry {
                fingerprint: fp.to_string(),
                count,
                rule: fields[2].to_string(),
                path: fields[3].to_string(),
                item: fields[4].to_string(),
                reason: reason.to_string(),
            };
            if entries.insert(fp.to_string(), entry).is_some() {
                return Err(format!(
                    "lint.baseline:{lineno}: duplicate fingerprint `{fp}`"
                ));
            }
        }
        Ok(Baseline { entries })
    }

    /// Render back to file text, sorted by fingerprint, with a header.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# adavp-lint debt baseline — tolerated legacy findings, one per line:\n\
             # <fingerprint> <count> <rule> <path> <item> — <reason>\n\
             # Regenerate with `adavp-lint --write-baseline` after deliberate changes.\n",
        );
        for e in self.entries.values() {
            let _ = writeln!(
                out,
                "{} {} {} {} {} — {}",
                e.fingerprint, e.count, e.rule, e.path, e.item, e.reason
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_separator_safe() {
        let a = fingerprint("panic-surface", "a.rs", "f", "index");
        assert_eq!(a, fingerprint("panic-surface", "a.rs", "f", "index"));
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_ne!(
            fingerprint("r", "ab", "c", "d"),
            fingerprint("r", "a", "bc", "d")
        );
    }

    #[test]
    fn baseline_roundtrips_through_render_and_parse() {
        let mut b = Baseline::default();
        let fp = fingerprint(
            "panic-surface",
            "crates/vision/src/simd.rs",
            "blur",
            "index",
        );
        b.entries.insert(
            fp.clone(),
            BaselineEntry {
                fingerprint: fp.clone(),
                count: 12,
                rule: "panic-surface".into(),
                path: "crates/vision/src/simd.rs".into(),
                item: "blur".into(),
                reason: "legacy kernel indexing, bounds asserted at entry".into(),
            },
        );
        let text = b.render();
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[&fp].count, 12);
        assert_eq!(
            parsed.entries[&fp].reason,
            "legacy kernel indexing, bounds asserted at entry"
        );
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        for (text, needle) in [
            ("deadbeef 1 r p i — x", "not a 16-hex"),
            ("deadbeefdeadbeef one r p i — x", "not a number"),
            ("deadbeefdeadbeef 0 r p i — x", "count 0"),
            ("deadbeefdeadbeef 1 r p i", "missing ` — <reason>`"),
            ("deadbeefdeadbeef 1 r p — x", "4 fields"),
        ] {
            let err = Baseline::parse(text).unwrap_err();
            assert!(err.contains("lint.baseline:1"), "{err}");
            assert!(err.contains(needle), "{err} !~ {needle}");
        }
        let dup = "aaaaaaaaaaaaaaaa 1 r p i — x\naaaaaaaaaaaaaaaa 2 r p i — y";
        assert!(Baseline::parse(dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let b = Baseline::parse("# header\n\n# another\n").unwrap();
        assert!(b.entries.is_empty());
    }
}
