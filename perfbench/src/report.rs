//! The run's output: a human-readable table on stderr, a provenance row
//! on stdout, and the result line (last line of stdout).

use std::fmt::Write as _;
use std::io::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// The phase of the run that produced the number.
    pub phase: &'static str,
}

impl Metric {
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        phase: &'static str,
    ) -> Self {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
            phase,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"value\":{},\"unit\":\"{}\",\"samples\":{},\"phase\":\"{}\"}}",
            self.value, self.unit, self.samples, self.phase
        )
    }
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further numbers for the row and the table only.
    pub info: Vec<Metric>,
    pub provenance: Vec<(&'static str, String)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn info(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        phase: &'static str,
    ) {
        self.info
            .push(Metric::new(name, value, unit, samples, phase));
    }

    /// The last line of stdout: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (value and unit per metric).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":\"{}\"}}",
                    json_str(&m.name),
                    m.value,
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The full row: provenance, every metric with its sample count and
    /// phase, and the informational numbers.
    pub fn row_line(&self) -> String {
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        let list = |ms: &[Metric]| -> String {
            ms.iter()
                .map(|m| format!("{}:{}", json_str(&m.name), m.json()))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"row\":{{{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"info\":{{{}}}}}}}",
            prov.join(","),
            self.correct,
            self.attempted,
            self.failed,
            list(&self.metrics),
            list(&self.info)
        )
    }

    /// Prints the table (stderr), then the row and the result line
    /// (stdout). A failed write to stdout is an error for the caller.
    pub fn print(&self) -> std::io::Result<()> {
        let mut table = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(table, "# {k}: {v}");
        }
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(
                table,
                "{:<28} {:>14.4} {:<6} n={:<7} phase={}",
                m.name, m.value, m.unit, m.samples, m.phase
            );
        }
        let _ = writeln!(
            table,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        eprint!("{table}");
        let mut out = std::io::stdout().lock();
        writeln!(out, "{}", self.row_line())?;
        writeln!(out, "{}", self.result_line())?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            ..Report::default()
        };
        r.metric(Metric::new("p50_ms", 1.25, "ms", 100, "open"));
        r.metric(Metric::new("bad", f64::NAN, "ms", 0, "open"));
        r.info("x", 2.0, "count", 1, "all");
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"bad\":{\"value\":0,\"unit\":\"ms\"}}}"
        );
        r.provenance.push(("seed", "7".into()));
        let row = r.row_line();
        assert!(row.starts_with("{\"row\":{\"seed\":\"7\","), "{row}");
        assert!(row.contains("\"samples\":100,\"phase\":\"open\""), "{row}");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
