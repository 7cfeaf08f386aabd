//! The IMP simulator's benchmark: four workloads measured end to end
//! through the library's public API, and a traced run that profiles
//! host time layer by layer. See `README.md` for the metrics, the
//! workloads and the A/B procedure.

pub mod micro;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

use run::{Checks, Metric};

/// The result line: whether every operation passed, how many were
/// attempted and failed, and every metric with its unit. A value that
/// is not finite has no JSON form and is written as 0; the caller
/// counts it as a failed check.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
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
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        body.join(", ")
    )
}

/// One human-readable line per metric: the value, and for timings the
/// sample count, median, quartiles, IQR and tail value.
pub fn describe(m: &Metric) -> String {
    let head = format!("{:<30} {:>14.6} {}", m.name, m.value, m.unit);
    match &m.summary {
        None => head,
        Some(s) => format!(
            "{head}  (n={}: median {:.6}, q1 {:.6}, q3 {:.6}, IQR {:.2}% of median, tail {:.6})",
            s.n,
            s.median,
            s.q1,
            s.q3,
            100.0 * s.relative_iqr(),
            s.tail
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let metrics = [
            Metric {
                name: "sim_mips",
                unit: "Minstr/s",
                value: 4.25,
                summary: None,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: f64::NAN,
                summary: None,
            },
        ];
        assert_eq!(
            result_json(&checks, &metrics),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"sim_mips\": {\"value\": 4.25, \"unit\": \"Minstr/s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        checks.check(false, || "broken".into());
        assert!(result_json(&checks, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
