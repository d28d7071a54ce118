//! Metric records, the one quantile rule, and the JSON the benchmark
//! prints.

use voronet_stats::summary::{percentile, tail_summary};

/// A JSON value, enough for the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A finite number, printed with every digit Rust's shortest
    /// round-trip form gives.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) => {
                assert!(x.is_finite(), "metric values are finite");
                out.push_str(&format!("{x}"));
            }
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Str(s) => write_str(s, out),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the report.
    pub name: String,
    /// Unit, e.g. `us` or `ops/s`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises, where that is meaningful.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: None,
        }
    }

    /// The metric as `{"value": .., "unit": .., "samples": ..}`.
    pub fn to_json(&self, with_samples: bool) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if let (true, Some(n)) = (with_samples, self.samples) {
            pairs.push(("samples", Json::Int(n as u64)));
        }
        Json::obj(pairs)
    }
}

/// `name → metric` object of a metric list.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json(with_samples)))
            .collect(),
    )
}

/// Looks a metric up by name.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// True when at least [`TAIL_SAMPLES`] of `n` samples lie beyond the
/// `q`-quantile.
pub fn percentile_counts(n: usize, q: f64) -> bool {
    ((1.0 - q) * n as f64 + 1e-9).floor() as usize >= TAIL_SAMPLES
}

/// The median, p95 and p99 of a latency sample (µs) as
/// `<prefix>_p50_us`, `<prefix>_p95_us` and `<prefix>_p99_us`, each
/// carrying the sample count.  A percentile with
/// fewer than [`TAIL_SAMPLES`] samples beyond it is left out.  Every
/// percentile goes through `voronet_stats::summary`.
pub fn latency_metrics(prefix: &str, samples_us: &[f64]) -> Vec<Metric> {
    let Some(summary) = tail_summary(samples_us) else {
        return Vec::new();
    };
    let p95 = percentile(samples_us, 0.95).unwrap_or(summary.p50);
    [
        (0.5, "p50", summary.p50),
        (0.95, "p95", p95),
        (0.99, "p99", summary.p99),
    ]
    .into_iter()
    .filter(|&(q, _, _)| percentile_counts(summary.count, q))
    .map(|(_, label, value)| Metric {
        name: format!("{prefix}_{label}_us"),
        unit: "us",
        value,
        samples: Some(summary.count),
    })
    .collect()
}

/// The contract line: the last line of standard output.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(metrics, false)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert!(!percentile_counts(999, 0.99));
        assert!(percentile_counts(1000, 0.99));
        assert!(!percentile_counts(19, 0.5));
        assert!(percentile_counts(20, 0.5));
        let few: Vec<f64> = (0..500).map(f64::from).collect();
        let names: Vec<String> = latency_metrics("route", &few)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, vec!["route_p50_us", "route_p95_us"]);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let m = latency_metrics("route", &many);
        assert_eq!(m.len(), 3);
        assert_eq!(m[2].samples, Some(1000));
        assert!((m[1].value - 949.05).abs() < 1e-9);
    }

    #[test]
    fn json_prints_numbers_in_full_and_escapes_strings() {
        let j = Json::obj([
            ("a", Json::Num(1.2034567891)),
            ("b", Json::str("x\"y")),
            ("c", Json::Arr(vec![Json::Int(3), Json::Bool(false)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.2034567891, "b": "x\"y", "c": [3, false]}"#
        );
    }
}
