//! Output: the gate's one-line JSON, the human tables, result files, and
//! `compare`, which applies each metric's bound to two result files.
//!
//! The container has no JSON crate, so a small value type lives here.

use crate::harness::Report;
use crate::host;
use crate::metrics::{Better, MetricDef, END_TO_END, FAILED_FRAC, PER_LAYER, WORKLOADS};
use crate::probe::Span;
use std::fmt::{self, Write as _};

/// A JSON value.  Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(entries) => entries,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.blanks();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing text at byte {}", parser.at));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest digits that round-trip, never an
            // exponent; a non-finite value has no JSON form.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(entries) => {
                f.write_char('{')?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {value}", Json::Str(key.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn blanks(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown token at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.blanks();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                self.blanks();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.blanks();
                    let key = self.string()?;
                    self.blanks();
                    self.eat(b':')?;
                    entries.push((key, self.value()?));
                    self.blanks();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(entries));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.blanks();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.blanks();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of text".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escape = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(escape),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let c = char::from_u32(code).ok_or("\\u is not a scalar value")?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                            self.at += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                byte => out.push(byte),
            }
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    let mut all = END_TO_END.iter().chain(&PER_LAYER).chain([&FAILED_FRAC]);
    all.find(|m| m.name == name).map_or("", |m| m.unit)
}

/// The one line the gate reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn gate_line(report: &Report) -> String {
    let metrics = report.values.iter().map(|(name, value)| {
        let entry = Json::obj([
            ("value", Json::Num(*value)),
            ("unit", Json::Str(unit_of(name).into())),
        ]);
        (*name, entry)
    });
    Json::obj([
        ("correct", Json::Bool(report.verdict.failed == 0)),
        ("attempted", Json::Num(report.verdict.attempted as f64)),
        ("failed", Json::Num(report.verdict.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

/// One workload's entry in a result file.
pub fn result_entry(report: &Report) -> Json {
    let mut metrics: Vec<(&str, Json)> = report
        .values
        .iter()
        .map(|(name, value)| (*name, Json::Num(*value)))
        .collect();
    metrics.push((FAILED_FRAC.name, Json::Num(report.failed_frac())));
    Json::obj([
        ("seed", Json::Num(report.seed as f64)),
        ("attempted", Json::Num(report.verdict.attempted as f64)),
        ("failed", Json::Num(report.verdict.failed as f64)),
        ("latency_samples", Json::Num(report.samples as f64)),
        ("windows", Json::Num(report.windows as f64)),
        ("window_spread", Json::Num(report.window_spread)),
        ("steal_frac", Json::Num(report.steal_frac)),
        ("noisy", Json::Bool(report.noisy())),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The human table for one workload: every metric by name, with its unit,
/// and the sample count behind the percentiles.
pub fn print_table(report: &Report) {
    println!(
        "\n== {} (seed {}) ==  {} windows, {} latency samples, best/median window {:.2}, steal {:.1}%{}",
        report.kind.name(),
        report.seed,
        report.windows,
        report.samples,
        report.window_spread,
        report.steal_frac * 100.0,
        if report.noisy() { "  ** NOISY HOST **" } else { "" },
    );
    let failed = (FAILED_FRAC.name, report.failed_frac());
    for (name, value) in report.values.iter().chain([&failed]) {
        let samples = if name.contains("p50") || name.contains("p99") {
            format!("  (n={} per {} windows)", report.samples, report.windows)
        } else {
            String::new()
        };
        println!("  {name:<44} {value:>16.4} {}{samples}", unit_of(name));
    }
}

/// `list`: what is measured, in which unit, which way is better, and how
/// much worse counts as a regression.
pub fn print_list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<24} {why}");
    }
    println!("\nend-to-end metrics (gated):");
    for m in END_TO_END.iter().chain([&FAILED_FRAC]) {
        let (name, unit, better) = (m.name, m.unit, m.better.as_str());
        println!(
            "  {name:<32} {unit:<10} {better:<7} bound {:>5.1}%",
            m.bound * 100.0
        );
    }
    println!("\nper-layer metrics (traced run, ungated; 0 = layer not exercised):");
    for m in &PER_LAYER {
        println!("  {:<44} {:<10} {}", m.name, m.unit, m.better.as_str());
    }
}

/// The span file: every span of every traced workload of this invocation.
pub fn spans_json(seed: u64, workloads: &[(&str, &[Span])]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"workloads\": {{");
    for (i, (name, spans)) in workloads.iter().enumerate() {
        let _ = write!(out, "{}\n\"{name}\": [", if i > 0 { "," } else { "" });
        for (j, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if j > 0 { "," } else { "" },
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push(']');
    }
    out.push_str("}}\n");
    out
}

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Regressed,
    /// The runs disagree among themselves by more than the bound, so the
    /// pair cannot be called unchanged.
    Unresolved,
}

/// How much worse `after` is than `before`, as a share of `before`, in the
/// metric's own direction (negative = better).
fn worsening(better: Better, before: f64, after: f64) -> f64 {
    let delta = match better {
        Better::Lower => after - before,
        Better::Higher => before - after,
    };
    if before == 0.0 {
        // Only `failed_frac` is ever 0; any increase from 0 is unbounded.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / before.abs()
}

fn spread(values: &[f64]) -> f64 {
    let median = host::median(values);
    match host::quartiles(values) {
        Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Apply one metric's bound to the parent's runs and the change's runs.
pub fn judge(metric: &MetricDef, before: &[f64], after: &[f64]) -> Outcome {
    let worse = worsening(metric.better, host::median(before), host::median(after));
    // Runs that disagree among themselves by more than the bound cannot
    // show "unchanged" (a zero bound, `failed_frac`, tolerates no scatter
    // question: any failure counts).
    let scattered = metric.bound > 0.0 && spread(before).max(spread(after)) > metric.bound;
    let never_worse = || {
        let beats = |a: &f64| {
            before
                .iter()
                .all(|b| worsening(metric.better, *b, *a) <= 0.0)
        };
        after.iter().all(beats)
    };
    match (worse > metric.bound, scattered) {
        (true, false) => Outcome::Regressed,
        (true, true) => Outcome::Unresolved,
        (false, true) if !never_worse() => Outcome::Unresolved,
        (false, _) => Outcome::Ok,
    }
}

/// Every run's value of `metric` on `workload` in a result file.
fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = file.get("runs").map_or(&[][..], Json::items);
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)
        })
        .filter_map(Json::as_f64)
        .collect()
}

/// `compare`: one row per (metric, workload); returns the number of
/// regressed pairs.
pub fn compare(before: &Json, after: &Json) -> usize {
    println!(
        "{:<24} {:<30} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "before", "after", "worse by", "bound"
    );
    let mut regressed = 0;
    for (workload, _) in WORKLOADS {
        for metric in END_TO_END.iter().chain([&FAILED_FRAC]) {
            let a = values_of(before, workload, metric.name);
            let b = values_of(after, workload, metric.name);
            if a.is_empty() || b.is_empty() {
                println!("{workload:<24} {:<30} missing on one side", metric.name);
                continue;
            }
            let outcome = judge(metric, &a, &b);
            regressed += usize::from(outcome == Outcome::Regressed);
            let (ma, mb) = (host::median(&a), host::median(&b));
            println!(
                "{workload:<24} {:<30} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>7.1}%  {} (n={}/{})",
                metric.name,
                worsening(metric.better, ma, mb) * 100.0,
                metric.bound * 100.0,
                match outcome {
                    Outcome::Ok => "ok",
                    Outcome::Regressed => "regressed",
                    Outcome::Unresolved => "unresolved",
                },
                a.len(),
                b.len(),
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": null}, "e": true}"#;
        let json = Json::parse(text).unwrap();
        assert_eq!(json.get("a").unwrap().items()[2], Json::Num(-300.0));
        assert_eq!(
            json.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\n")
        );
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, ").is_err());
    }

    fn metric(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let ops = metric("ops_per_s"); // higher is better, 25 %
        assert_eq!(
            judge(ops, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Outcome::Ok
        );
        assert_eq!(
            judge(ops, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Outcome::Regressed
        );
        assert_eq!(
            judge(ops, &[100.0, 101.0, 99.0], &[150.0, 151.0, 149.0]),
            Outcome::Ok
        );
        // Scattered runs: a 20 % drop cannot be told from noise...
        assert_eq!(
            judge(ops, &[100.0, 140.0, 70.0], &[80.0, 120.0, 60.0]),
            Outcome::Unresolved
        );
        // ...but a change that beats every parent run is fine regardless.
        assert_eq!(
            judge(ops, &[100.0, 140.0, 70.0], &[150.0, 240.0, 141.0]),
            Outcome::Ok
        );
        let p50 = metric("p50_us"); // lower is better, 25 %
        assert_eq!(judge(p50, &[20.0], &[26.0]), Outcome::Regressed);
        assert_eq!(judge(p50, &[20.0], &[15.0]), Outcome::Ok);
        // failed_frac: any increase from 0 is a regression.
        assert_eq!(judge(&FAILED_FRAC, &[0.0, 0.0], &[0.0, 0.0]), Outcome::Ok);
        assert_eq!(
            judge(&FAILED_FRAC, &[0.0, 0.0], &[0.0, 0.001]),
            Outcome::Regressed
        );
    }
}
