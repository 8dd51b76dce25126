//! The result line: one JSON object with the correctness verdict, the
//! item counts and every metric with its unit.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// No item failed the gate.
    pub correct: bool,
    /// Items run.
    pub attempted: u64,
    /// Items that failed the gate.
    pub failed: u64,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Builds a report; `correct` follows from `failed`.
    pub fn new(attempted: u64, failed: u64, metrics: Vec<Metric>) -> Report {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The result as one line of JSON. Values print with every digit
    /// (Rust's shortest round-trip form); a non-finite value, which
    /// JSON cannot carry, prints as 0.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable metric table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("  {:<26} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_field() {
        let r = Report::new(
            10,
            0,
            vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
        );
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(!Report::new(10, 1, vec![]).correct);
    }
}
