//! Small statistics and output helpers shared by the workloads.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail of `xs`: the value with exactly ten samples above it, the
/// highest order statistic that still has ten samples beyond it. Returns
/// `(value, percentile, samples beyond)`; with ten samples or fewer
/// there is no such value and the maximum is returned with 0 beyond.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, 0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    spacecdn_engine::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64)
}

/// Named metrics in insertion order, rendered as the result object's
/// `metrics` member.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
    not_called: Vec<String>,
}

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }

    /// Record a per-layer metric of a layer this workload never calls.
    /// The result format lists every per-layer name in every traced run,
    /// so it reads 0 and the printed table marks it.
    pub fn put_not_called(&mut self, name: &str, unit: &'static str) {
        self.put(name, 0.0, unit);
        self.not_called.push(name.to_string());
    }

    /// The first metric whose value is not a finite number.
    pub fn first_non_finite(&self) -> Option<&str> {
        self.rows
            .iter()
            .find(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
    }

    /// Print one `name value unit` line per metric.
    pub fn print(&self, title: &str) {
        println!("{title}:");
        for (name, value, unit) in &self.rows {
            if self.not_called.contains(name) {
                println!(
                    "  {name:<36} {:>16} (layer not called on this workload)",
                    "-"
                );
            } else {
                println!("  {name:<36} {value:>16.6} {unit}");
            }
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust prints for `v` (non-finite values
/// become `null`, which the result check rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The number following `"key":` in a flat JSON text, if any.
pub fn json_field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, beyond) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(beyond, 10);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0, 0));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_field_reads_numbers() {
        let t = r#"{"a":{"requests":12,"p50_ms":3.5e1},"b":-2}"#;
        assert_eq!(json_field(t, "requests"), Some(12.0));
        assert_eq!(json_field(t, "p50_ms"), Some(35.0));
        assert_eq!(json_field(t, "b"), Some(-2.0));
        assert_eq!(json_field(t, "c"), None);
    }
}
