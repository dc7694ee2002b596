//! Result plumbing shared by every workload: the metric list a run
//! prints, order statistics, failure accounting and process memory
//! readings.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`: its metrics, the
/// operation tally and every output check that failed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failure counts by kind (only printed, the total is `failed`).
    pub failures: Vec<(String, u64)>,
    /// Human-readable descriptions of failed output checks.
    pub violations: Vec<String>,
    /// Free-form `key=value` notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn fail(&mut self, kind: &str, count: u64) {
        if count == 0 {
            return;
        }
        self.failed += count;
        match self.failures.iter_mut().find(|(k, _)| k == kind) {
            Some((_, c)) => *c += count,
            None => self.failures.push((kind.to_string(), count)),
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, numbers printed with every digit.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // A non-finite value (a metric with no samples) prints as
            // null; `correct()` is false for it anyway.
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            let _ = write!(s, "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }

    /// Every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Median of a sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample; NaN when
/// the sample is empty (which fails the run's finiteness check).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// A `Vm*` field of `/proc/<pid>/status` in KiB (`pid` `None` = this
/// process).
pub fn proc_status_kib(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    proc_status_kib(pid, "VmHWM").map_or(f64::NAN, |k| k / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.put("latency_ms", 1.25, "ms");
        o.fail("timeout", 2);
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 2, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(!o.correct());
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib(None) > 0.0);
    }
}
