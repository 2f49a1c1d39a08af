//! Metric names, units and the result line the benchmark prints.

use nisq_exp::json::{self, Value};
use std::collections::BTreeMap;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// compiled in: `"end_to_end"` for runs with `--trace 0`, `"per_layer"`
/// for runs with `--trace 1`.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
    let field = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("a {section} metric lacks its {key}"))
            .to_string()
    };
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Per-layer metrics of the serve front door and the journal, which the
/// batch workloads never reach.
pub const SERVE_ONLY: &[&str] = &[
    "journal.append_ms",
    "journal.appends",
    "serve.run_ms.hot",
    "serve.run_ms.new_day",
    "serve.run_ms.journaled",
    "serve.queue_ms.p50",
    "serve.queue_ms.p99",
    "serve.hop_ms.p50",
    "serve.rejected",
    "serve.routed_skew",
    "serve.routed",
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples the value summarizes (0: the layer is not exercised).
    pub samples: usize,
}

/// The metrics of one run plus free-form lines for the human reader.
#[derive(Debug, Default)]
pub struct Metrics {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Adds `names` as 0 with no samples: layers this workload never runs.
    pub fn not_exercised(&mut self, names: &[&str]) {
        let units = declared("per_layer");
        for name in names {
            let unit = units
                .iter()
                .find(|(n, _)| n == name)
                .map_or("count", |(_, u)| u.as_str());
            self.push(name, 0.0, unit, 0);
        }
    }

    /// Adds a line for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds the self-time table: mean self time per layer over the traced
    /// sweeps or requests, against their mean traced wall time.
    pub fn layer_table(&mut self, per_root: &[BTreeMap<&'static str, f64>], wall_ms: f64) {
        let units = per_root.len().max(1) as f64;
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for root in per_root {
            for (name, ms) in root {
                *layers.entry(layer_of(name)).or_insert(0.0) += ms / units;
            }
        }
        let share = |ms: f64| 100.0 * ms / wall_ms.max(f64::MIN_POSITIVE);
        self.note(format!(
            "self time per layer (mean per traced unit, n={}; traced wall {wall_ms:.3} ms):",
            per_root.len()
        ));
        for (layer, ms) in &layers {
            self.note(format!(
                "  {layer:<8} {ms:>10.3} ms  {:>6.1}% of wall",
                share(*ms)
            ));
        }
        let total: f64 = layers.values().sum();
        self.note(format!(
            "  {:<8} {total:>10.3} ms  {:>6.1}% of wall (above 100%: layers busy on parallel threads)",
            "sum",
            share(total)
        ));
    }

    /// The human-readable lines, then the metrics of `wanted` in its order.
    ///
    /// # Errors
    ///
    /// Names every wanted metric that was not measured, or was measured
    /// with another unit.
    pub fn finish(
        &self,
        wanted: &[(String, String)],
    ) -> Result<(Vec<String>, Vec<Metric>), String> {
        let mut lines = self.notes.clone();
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.unit == *unit => out.push(m.clone()),
                _ => missing.push(format!("{name} [{unit}]")),
            }
        }
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        for m in &self.metrics {
            lines.push(format!(
                "metric {:<26} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            ));
        }
        Ok((lines, out))
    }
}

/// The layer a span belongs to, by the module that owns the call.
pub fn layer_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or(span) {
        "machine" => "machine",
        "compile" => "compile",
        "lower" => "lower",
        "trials" => "trials",
        "report" | "journal" => "exp",
        "serve" => "serve",
        _ => "bench",
    }
}

/// Output checks: cells or requests attempted and those that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records `attempted` checked operations of which `failed` failed.
    pub fn cells(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.say(format!(
                "{failed} of {attempted} cells differ from the reference run"
            ));
        }
    }

    /// Records one failure that is not a separate attempted operation
    /// (a property of a cell already counted).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.say(message);
    }

    fn say(&mut self, message: String) {
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }
}

/// The result line: the contract's JSON object.
pub fn result_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::write_str(&m.name),
                m.value,
                json::write_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn serve_only_metrics_are_declared() {
        let per_layer = declared("per_layer");
        for name in SERVE_ONLY {
            assert!(per_layer.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s", 3);
        m.push("latency_ms.p50", f64::NAN, "ms", 0);
        let (_, metrics) = m
            .finish(&owned(&[("setup_s", "s"), ("latency_ms.p50", "ms")]))
            .unwrap();
        let checks = Checks {
            attempted: 10,
            failed: 0,
            messages: Vec::new(),
        };
        let doc = json::parse(&result_line(true, &checks, &metrics)).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(10));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert!(m.finish(&owned(&[("cells_per_s", "1/s")])).is_err());
    }
}
