//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, printed last on standard output.

use aloha_common::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The measured value, with all its digits.
    pub value: f64,
}

impl Metric {
    /// A metric; a non-finite value (a percentile that landed on a failed
    /// operation) is reported as the largest finite number, so it misses
    /// every limit and still parses as JSON.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: if value.is_finite() { value } else { f64::MAX },
        }
    }
}

/// One run's verdict and measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics, in listing order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single-line JSON rendering.
    pub fn to_line(&self) -> String {
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit.as_str())),
                ]),
            )
        }));
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ])
        .to_string()
    }

    /// Parses a line written by [`Outcome::to_line`]; metrics come back in
    /// name order.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let json = Json::parse(line.trim())?;
        let count = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("'{k}' is not a whole number"))
        };
        let correct = match json.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("'correct' is not a boolean".into()),
        };
        let mut metrics = Vec::new();
        for (name, m) in json
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("'metrics' is not an object")?
        {
            metrics.push(Metric {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric '{name}' has no unit"))?
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric '{name}' has no value"))?,
            });
        }
        Ok(Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_results_reparse_to_identical_values() {
        let values = [
            13.849_217_3,
            0.1 + 0.2,
            1e-7,
            123_456.789_012_345_67,
            2.0,
            0.0,
            f64::INFINITY,
            5e-324,
            f64::MAX / 3.0,
        ];
        let outcome = Outcome {
            correct: true,
            attempted: 24_000,
            failed: 3,
            metrics: values
                .iter()
                .enumerate()
                .map(|(i, v)| Metric::new(&format!("m{i}"), "ms", *v))
                .collect(),
        };
        let line = outcome.to_line();
        assert!(!line.contains('\n'));
        let back = Outcome::parse(&line).unwrap();
        assert_eq!(back.correct, outcome.correct);
        assert_eq!(back.attempted, outcome.attempted);
        assert_eq!(back.failed, outcome.failed);
        assert_eq!(back.metrics.len(), outcome.metrics.len());
        for m in &outcome.metrics {
            let b = back.metrics.iter().find(|b| b.name == m.name).unwrap();
            assert_eq!(b.unit, m.unit);
            assert_eq!(b.value.to_bits(), m.value.to_bits(), "{}", m.name);
        }
        // A failed percentile reads as the largest finite number.
        assert_eq!(back.metrics[6].value, f64::MAX);
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(Outcome::parse("{}").is_err());
        assert!(
            Outcome::parse("{\"correct\":true,\"attempted\":1.5,\"failed\":0,\"metrics\":{}}")
                .is_err()
        );
        assert!(Outcome::parse(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a\":{\"value\":1}}}"
        )
        .is_err());
    }
}
