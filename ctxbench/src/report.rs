//! The result line every run ends with.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Whether every verdict matched its reference.
    pub correct: bool,
    /// Contexts submitted during the measured phase.
    pub attempted: u64,
    /// Contexts admitted with an evaluation error, plus contexts of
    /// ingest calls that panicked.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A human-readable table, one metric per line.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{workload:<12} {:<40} {:>16.6} {}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{workload:<12} correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }

    /// The single-line JSON object the run prints last.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // so no digit of the measurement is lost; non-finite values
            // are not JSON and read as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Report::default()
        };
        r.push("latency_ms", 1.25, "ms");
        r.push("count", 3.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
