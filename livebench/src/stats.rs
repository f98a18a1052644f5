//! Summary statistics and the output rules every metric obeys: the
//! percentile rule, the metric-name grammar, the share-sum rule and the
//! one-line JSON result.

use fluentps_obs::json;

/// Percentiles a tail figure may be reported at, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// small slack keeps a product that should be whole (99.9% of 10 000)
/// from rounding up past it.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-th percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Metric-name grammar: 1 to 64 characters of `[A-Za-z0-9_.-]`, starting
/// with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Shares of one whole: each non-negative and together at most 1 (with
/// rounding slack).
pub fn shares_within_one(shares: &[f64]) -> bool {
    shares.iter().all(|&s| s >= 0.0) && shares.iter().sum::<f64>() <= 1.0 + 1e-9
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, per [`valid_name`].
    pub name: &'static str,
    /// Unit, e.g. `ms` or `samples/s`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Errors when a name breaks the grammar, repeats, or a value
/// is not finite, or when the line fails the in-tree JSON validator.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            return Err(format!("metric name {:?} breaks the grammar", m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json::number(m.value),
            json::escape(m.unit)
        ));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    json::validate(&line).map_err(|e| format!("result line is not valid JSON: {e}"))?;
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 100, 1000, 5000, 10_000, 123_456] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "samples_per_s",
            "worker.step_ms_p99",
            "dpr.buffer_peak",
            "a",
            "9-x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".lead", "_lead", "has space", "p/s", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn shares_sum_at_most_one() {
        assert!(shares_within_one(&[0.15, 0.09, 0.29, 0.47]));
        assert!(shares_within_one(&[0.1; 10]));
        assert!(!shares_within_one(&[0.6, 0.5]));
        assert!(!shares_within_one(&[1.1, -0.1]));
    }

    #[test]
    fn result_line_parses_under_the_in_tree_validator() {
        let metrics = [
            Metric::new("samples_per_s", "samples/s", 2870.123456789),
            Metric::new("setup_s", "s", 0.0421),
            Metric::new("peak_rss_mb", "MB", 12.0),
        ];
        let line = result_line(true, 4000, 0, &metrics).expect("valid line");
        json::validate(&line).expect("validator accepts the line");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4000, \"failed\": 0,"));
        assert!(line
            .contains("\"samples_per_s\": {\"value\": 2870.123456789, \"unit\": \"samples/s\"}"));
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let dup = [Metric::new("a", "s", 1.0), Metric::new("a", "s", 2.0)];
        assert!(result_line(true, 1, 0, &dup).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("bad name", "s", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("nan", "s", f64::NAN)]).is_err());
    }
}
