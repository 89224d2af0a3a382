//! The result line: correctness, operations attempted and failed, and
//! the metrics by name and unit.

use quclassi_serve::json::Json;

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Counts operations attempted and failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a wrong answer; the run then fails.
    pub fn wrong(&mut self, what: &str) {
        eprintln!("WRONG: {what}");
        self.wrong.push(what.to_string());
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// A readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<34} {value:>16.6} {unit}\n"));
        }
        out.push_str(&format!(
            "{:<34} {:>16} \n{:<34} {:>16} \n",
            "operations attempted", self.attempted, "operations failed", self.failed
        ));
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.25, "s");
        r.ops(10, 1);
        let json = Json::parse(&r.json()).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        r.wrong("label mismatch");
        assert!(r.json().starts_with("{\"correct\":false"));
    }
}
