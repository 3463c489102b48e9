//! Bench regression gate: compare a freshly generated `BENCH_kernels.json`
//! against the committed baseline and flag metrics that regressed beyond a
//! stated tolerance.
//!
//! The comparison is schema-light on purpose: each file is reduced to a flat
//! list of named scalar metrics ([`kernel_metrics`]), and [`compare`] pairs
//! them by name. Metrics present in only one side are skipped (schemas grow
//! over time; a new column must not fail the gate), so the gate only ever
//! fires on a metric both the baseline and the fresh run agree exists.
//!
//! Every metric is a cost (`ns_per_op`, ns per frame): it regresses by
//! growing.
//!
//! A hand-rolled JSON reader keeps the gate dependency-free; it accepts the
//! subset of JSON our own exporters emit (objects, arrays, strings with
//! standard escapes, numbers, booleans, null).

use crate::cli::flag_values;

/// A parsed JSON value. Object members keep file order in a `Vec` (no
/// hash-map iteration anywhere near the gate's output).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in file order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The reader
/// recurses once per level, so the cap bounds its stack use on hostile
/// input; the exporters it reads nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset for context.
pub fn parse_json(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex}"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through untouched).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// A checked `bench-diff` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// The committed `BENCH_kernels.json` to compare against.
    pub baseline: String,
    /// The freshly written `BENCH_kernels.json`.
    pub fresh: String,
    /// Allowed regression ratio (0.10 unless `--tolerance` says otherwise).
    pub tolerance: f64,
}

/// Parses `bench-diff`'s arguments (without the program name). A stray
/// word, an unknown flag, a flag with no value or given twice, a bad
/// tolerance and a missing `--baseline` or `--fresh` are errors, each
/// naming the word at fault.
pub fn parse_args(args: &[String]) -> Result<DiffArgs, String> {
    let values = flag_values(args, &["baseline", "fresh", "tolerance"], |a| {
        Err(format!("unexpected argument: {a}"))
    })?;
    let value = |name: &str| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let tolerance = match value("tolerance") {
        None => 0.10,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("--tolerance expects a finite non-negative ratio: {v}"))?,
    };
    let path = |name: &str| {
        value(name)
            .map(String::from)
            .ok_or_else(|| format!("--{name} FILE is required"))
    };
    Ok(DiffArgs {
        baseline: path("baseline")?,
        fresh: path("fresh")?,
        tolerance,
    })
}

/// One comparable scalar extracted from a bench file. Every metric is a
/// cost: it regresses by growing.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identity, e.g. `kernel/blur_downsample_256/ns_per_op`.
    pub key: String,
    /// The measured value.
    pub value: f64,
}

/// Flattens a `BENCH_kernels.json` document into comparable metrics: per
/// kernel `ns_per_op` plus the multi-point LK frame costs.
pub fn kernel_metrics(doc: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(kernels) = doc.get("kernels").and_then(Value::as_array) {
        for k in kernels {
            let (Some(name), Some(ns)) = (
                k.get("name").and_then(Value::as_str),
                k.get("ns_per_op").and_then(Value::as_f64),
            ) else {
                continue;
            };
            out.push(Metric {
                key: format!("kernel/{name}/ns_per_op"),
                value: ns,
            });
        }
    }
    if let Some(lk) = doc.get("lk_multipoint") {
        for field in ["optimized_ns_per_frame", "parallel_ns_per_frame"] {
            if let Some(v) = lk.get(field).and_then(Value::as_f64) {
                out.push(Metric {
                    key: format!("lk_multipoint/{field}"),
                    value: v,
                });
            }
        }
    }
    out
}

/// One metric that grew past the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric identity.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
    /// Relative growth over the baseline (`0.12` = 12% worse).
    pub worse_by: f64,
}

/// Outcome of a baseline-vs-fresh comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Metrics compared (present on both sides with a usable baseline).
    pub compared: usize,
    /// Metrics present on only one side, skipped.
    pub skipped: usize,
    /// Metrics that grew past the tolerance, baseline order.
    pub regressions: Vec<Regression>,
}

impl DiffReport {
    /// `true` when the gate should fail.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the human-readable gate report.
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = format!(
            "bench-diff: {} metrics compared, {} skipped, tolerance {:.0}%\n",
            self.compared,
            self.skipped,
            tolerance * 100.0
        );
        if self.regressions.is_empty() {
            out.push_str("no regressions beyond tolerance\n");
        } else {
            for r in &self.regressions {
                out.push_str(&format!(
                    "REGRESSION {}: {:.4} -> {:.4} ({:+.1}% worse)\n",
                    r.key,
                    r.baseline,
                    r.fresh,
                    r.worse_by * 100.0
                ));
            }
        }
        out
    }
}

/// Compares fresh metrics against a baseline. A metric regresses when it
/// grows by more than `tolerance` (relative); a drop never fails, and
/// metrics missing from either side are counted as skipped, not failed.
/// Baselines at exactly zero can't anchor a relative comparison and are
/// skipped too.
pub fn compare(baseline: &[Metric], fresh: &[Metric], tolerance: f64) -> DiffReport {
    assert!(
        tolerance.is_finite() && tolerance >= 0.0,
        "tolerance must be a finite non-negative ratio, got {tolerance}"
    );
    let mut compared = 0;
    let mut regressions = Vec::new();
    let mut matched = 0;
    for b in baseline {
        let Some(f) = fresh.iter().find(|f| f.key == b.key) else {
            continue;
        };
        matched += 1;
        if b.value == 0.0 {
            continue;
        }
        compared += 1;
        let worse_by = (f.value - b.value) / b.value;
        if worse_by > tolerance {
            regressions.push(Regression {
                key: b.key.clone(),
                baseline: b.value,
                fresh: f.value,
                worse_by,
            });
        }
    }
    let only_fresh = fresh
        .iter()
        .filter(|f| !baseline.iter().any(|b| b.key == f.key))
        .count();
    DiffReport {
        compared,
        skipped: (baseline.len() - matched) + only_fresh,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = r#"{
      "config": {"image": "256x256", "threads": 2},
      "kernels": [
        {"name": "blur_downsample_256", "ns_per_op": 25635, "pixels": 65536},
        {"name": "scharr_scalar_256", "ns_per_op": 53398, "pixels": 65536}
      ],
      "lk_multipoint": {"optimized_ns_per_frame": 5000, "parallel_ns_per_frame": 4000}
    }"#;

    fn kernels() -> Vec<Metric> {
        kernel_metrics(&parse_json(KERNELS).unwrap())
    }

    #[test]
    fn parser_round_trips_escapes_and_shapes() {
        let v =
            parse_json(r#"{"a": [1, -2.5e1, "x\n\"yA"], "b": {"c": null, "d": false}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\n\"yA")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(false)));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep).is_ok());
        let deep_obj = format!("{}1{}", "{\"k\":".repeat(100), "}".repeat(100));
        assert!(parse_json(&deep_obj).is_ok());
    }

    #[test]
    fn kernel_extraction_reads_ns_per_op() {
        let m = kernels();
        let keys: Vec<&str> = m.iter().map(|x| x.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "kernel/blur_downsample_256/ns_per_op",
                "kernel/scharr_scalar_256/ns_per_op",
                "lk_multipoint/optimized_ns_per_frame",
                "lk_multipoint/parallel_ns_per_frame",
            ]
        );
        assert_eq!(m[0].value, 25635.0);
    }

    #[test]
    fn injected_ns_regression_fails_the_gate() {
        let baseline = kernels();
        let mut fresh = baseline.clone();
        let key = "kernel/scharr_scalar_256/ns_per_op";
        let idx = fresh.iter().position(|m| m.key == key).unwrap();
        fresh[idx].value *= 1.10001; // just past a 10% tolerance
        let report = compare(&baseline, &fresh, 0.10);
        assert!(report.regressed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key, key);
        assert!(report.regressions[0].worse_by > 0.10);
        // The same move within tolerance passes.
        let mut ok = baseline.clone();
        ok[idx].value *= 1.09;
        assert!(!compare(&baseline, &ok, 0.10).regressed());
    }

    #[test]
    fn speedup_never_regresses() {
        let baseline = kernels();
        let mut fresh = baseline.clone();
        for m in &mut fresh {
            m.value *= 0.5; // twice as fast everywhere: fine
        }
        let report = compare(&baseline, &fresh, 0.10);
        assert!(!report.regressed());
        assert_eq!(report.compared, baseline.len());
    }

    #[test]
    fn schema_growth_is_skipped_not_failed() {
        let baseline = kernels();
        let mut fresh = baseline.clone();
        fresh.push(Metric {
            key: "kernel/new_kernel_256/ns_per_op".into(),
            value: 1.0,
        });
        let report = compare(&baseline, &fresh, 0.10);
        assert!(!report.regressed());
        assert_eq!(report.compared, baseline.len());
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn zero_baseline_is_skipped_not_compared() {
        let mut baseline = kernels();
        baseline[0].value = 0.0;
        let mut fresh = baseline.clone();
        fresh[0].value = 1e9; // any growth from 0 is an infinite ratio
        let report = compare(&baseline, &fresh, 0.10);
        assert!(!report.regressed());
        assert_eq!(report.compared, baseline.len() - 1);
        assert_eq!(report.skipped, 0);
    }
}
