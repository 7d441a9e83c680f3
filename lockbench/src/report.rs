//! Measured values, their spread, and the result line.

use std::fmt::Write as _;

/// One named metric: every sample a run took of it, reported as the
/// median with min and max beside it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Everything one run produced: the operation tally, correctness
/// verdicts, and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (lock requests issued by the load).
    pub attempted: u64,
    /// Attempted operations that failed: timeouts, unexpected lock
    /// errors, and oracle violations.
    pub failed: u64,
    /// One line per failed correctness check.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report (percentile tails,
    /// sample counts, reference values).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds one sample to `name`, creating the metric on first use.
    pub fn sample(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(value),
            None => self.metrics.push(Metric {
                name,
                unit,
                samples: vec![value],
            }),
        }
    }

    /// Replaces `name` with a single value.
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.retain(|m| m.name != name);
        self.sample(name, unit, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(Metric::value)
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Records `cond` as a correctness check named by `what`.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.violation(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds the metrics of `other` that this outcome does not have yet,
    /// and folds in its tallies and verdicts.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.notes.extend(other.notes);
        for m in other.metrics {
            if self.get(m.name).is_none() {
                self.metrics.push(m);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// Median of `values` (mean of the middle pair for even counts); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency samples in nanoseconds, kept in a fixed log-linear
/// histogram (64 buckets per power of two, under 1.6% error) so that
/// recording never allocates and the benchmark's own memory does not
/// move `peak_rss_mb`. Reported with the percentile rule of the
/// benchmark: the median, and the highest of p99.9/p99/p90 that has at
/// least ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Latencies {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl Latencies {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + ((ns >> shift) & (SUB - 1)) as usize
    }

    /// Midpoint of bucket `i` in nanoseconds.
    fn value(i: usize) -> f64 {
        if i < SUB as usize {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) as u32 - 1;
        let low = (SUB + (i as u64 & (SUB - 1))) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn push(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile in microseconds; NaN when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.count)
    }

    /// The highest supported tail percentile as `(label, quantile)`.
    pub fn tail(&self) -> (&'static str, f64) {
        let n = self.count as f64;
        for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
            if n * (1.0 - q) >= 10.0 {
                return (label, q);
            }
        }
        ("max", 1.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The human-readable lines for one metric: value, unit, and the
/// min/median/max spread over the run's samples.
pub fn describe(workload: &str, m: &Metric) -> String {
    let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "metric {workload} {} = {} {}  (min {} / median {} / max {} over {} samples)",
        m.name,
        m.value(),
        m.unit,
        min,
        m.value(),
        max,
        m.samples.len()
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, and the
/// requested metrics, each `{"value", "unit"}`.
pub fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    )
    .expect("writing to a String");
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome.get(name).unwrap_or(f64::NAN);
        // JSON has no NaN; a missing metric reads as null and the run
        // is already marked incorrect by the caller.
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    s.push_str("}}");
    s
}
