//! The one comparator: two result files against the declared bounds.
//!
//! One row per (end-to-end metric, workload): both medians with their
//! quartiles and a verdict. A change is `worse`/`better` only when it
//! exceeds the metric's bound from `BENCHMARK.json`; when either side's own
//! spread (interquartile range) is wider than that, the row is `unresolved`
//! rather than `same` — the runs cannot tell. Two more rows per workload
//! gate what `BENCHMARK.json` cannot hold: failed operations and fairness.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: median and quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn from_json(m: &Json) -> Option<Side> {
        let value = m.get("value")?.as_f64()?;
        let q = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(value);
        Some(Side {
            value,
            q1: q("q1"),
            q3: q("q3"),
        })
    }
}

/// How far a metric may move before the move counts: the larger of a share
/// of the first file's median and an absolute amount in the metric's unit.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    pub rel: f64,
    pub abs: f64,
}

impl Tolerance {
    fn around(&self, value: f64) -> f64 {
        (self.rel * value.abs()).max(self.abs)
    }

    fn label(&self) -> String {
        match (self.rel > 0.0, self.abs > 0.0) {
            (true, true) => format!("{:.0}% & {}", self.rel * 100.0, self.abs),
            (true, false) => format!("{:.0}%", self.rel * 100.0),
            (false, _) => format!("{}", self.abs),
        }
    }
}

/// `setup_s` is a few milliseconds on the smallest workloads, where a
/// quarter of it is scheduler noise: a regression must also exceed this.
const SETUP_FLOOR_S: f64 = 0.02;
/// Jain's index is counted, not timed; it may not fall by more than this.
const FAIRNESS_TOLERANCE: f64 = 0.02;

pub fn verdict(a: Side, b: Side, lower_is_better: bool, tolerance: Tolerance) -> Verdict {
    if a.q3 - a.q1 > tolerance.around(a.value) || b.q3 - b.q1 > tolerance.around(b.value) {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    };
    let allowed = tolerance.around(a.value);
    if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub tolerance: Tolerance,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

/// Compare result files `a` and `b`: every end-to-end metric under the
/// bound `decl` (`BENCHMARK.json`) declares, then the two gates that cannot
/// live there because they are 0 or constant on most workloads — the share
/// of failed operations (any rise is `worse`) and Jain fairness.
pub fn compare(decl: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let workloads = a.get("workloads").ok_or("first file has no `workloads`")?;
    for (workload, wa) in workloads.as_obj() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let mut row = |metric: &str, unit: &str, lower: bool, tolerance, sa, sb| {
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                unit: unit.to_string(),
                tolerance,
                a: sa,
                b: sb,
                verdict: verdict(sa, sb, lower, tolerance),
            });
        };
        for def in decl
            .get("end_to_end")
            .ok_or("no `end_to_end` in BENCHMARK.json")?
            .as_arr()
        {
            let field = |k: &str| {
                def.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without `{k}`"))
            };
            let metric = field("name")?;
            let tolerance = Tolerance {
                rel: def
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without `bound`")?,
                abs: if metric == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
            };
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(Side::from_json)
            };
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                return Err(format!("`{metric}` missing for `{workload}`"));
            };
            row(
                metric,
                field("unit")?,
                field("better")? == "lower",
                tolerance,
                sa,
                sb,
            );
        }
        let exact = |value: f64| Side {
            value,
            q1: value,
            q3: value,
        };
        let num = |w: &Json, k: &str| w.get(k).and_then(Json::as_f64);
        let failed_share = |w: &Json| {
            Some(exact(
                num(w, "ops_failed")? / num(w, "ops_attempted")?.max(1.0),
            ))
        };
        let (Some(fa), Some(fb)) = (failed_share(wa), failed_share(wb)) else {
            return Err(format!("`ops_failed` missing for `{workload}`"));
        };
        let none = Tolerance { rel: 0.0, abs: 0.0 };
        row("failed_share", "ratio", true, none, fa, fb);
        let fairness = |w: &Json| num(w, "fairness_jain").map(exact);
        let (Some(ja), Some(jb)) = (fairness(wa), fairness(wb)) else {
            return Err(format!("`fairness_jain` missing for `{workload}`"));
        };
        let jain = Tolerance {
            rel: 0.0,
            abs: FAIRNESS_TOLERANCE,
        };
        row("fairness_jain", "ratio", false, jain, ja, jb);
    }
    Ok(rows)
}

/// `B` against `A` in per cent of `A`, so a move inside the tolerance is
/// still on the page.
fn change_pct(a: f64, b: f64) -> String {
    if a == 0.0 {
        "-".to_string()
    } else {
        format!("{:+.1}%", (b - a) / a.abs() * 100.0)
    }
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<24} {:>13} {:>25} {:>13} {:>25} {:>8} {:>11}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B vs A",
        "tolerance"
    );
    for r in rows {
        println!(
            "{:<16} {:<24} {:>13.4} {:>25} {:>13.4} {:>25} {:>8} {:>11}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a.value,
            format!("[{:.4}, {:.4}]", r.a.q1, r.a.q3),
            r.b.value,
            format!("[{:.4}, {:.4}]", r.b.q1, r.b.q3),
            change_pct(r.a.value, r.b.value),
            r.tolerance.label(),
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, q1: f64, q3: f64) -> Side {
        Side { value, q1, q3 }
    }

    const TEN_PCT: Tolerance = Tolerance { rel: 0.1, abs: 0.0 };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = side(100.0, 99.0, 101.0);
        let v = |b, lower| verdict(a, b, lower, TEN_PCT);
        assert_eq!(v(side(105.0, 104.0, 106.0), true), Verdict::Same);
        assert_eq!(v(side(115.0, 114.0, 116.0), true), Verdict::Worse);
        assert_eq!(v(side(85.0, 84.0, 86.0), true), Verdict::Better);
        // Higher-is-better flips the sign.
        assert_eq!(v(side(115.0, 114.0, 116.0), false), Verdict::Better);
        assert_eq!(v(side(85.0, 84.0, 86.0), false), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let noisy = side(100.0, 90.0, 105.0);
        let quiet = side(100.0, 99.0, 101.0);
        assert_eq!(verdict(noisy, quiet, true, TEN_PCT), Verdict::Unresolved);
        assert_eq!(verdict(quiet, noisy, false, TEN_PCT), Verdict::Unresolved);
    }

    #[test]
    fn an_absolute_floor_keeps_small_values_from_tripping_the_share() {
        // A 5-ms set-up that doubles is +100 % and still under 0.02 s.
        let setup = Tolerance {
            rel: 0.25,
            abs: 0.02,
        };
        let small = side(0.005, 0.004, 0.007);
        assert_eq!(
            verdict(small, side(0.010, 0.009, 0.011), true, setup),
            Verdict::Same
        );
        assert_eq!(
            verdict(small, side(0.030, 0.029, 0.031), true, setup),
            Verdict::Worse
        );
        // Above the floor the share decides again.
        let large = side(0.100, 0.099, 0.101);
        assert_eq!(
            verdict(large, side(0.121, 0.120, 0.122), true, setup),
            Verdict::Same
        );
        assert_eq!(
            verdict(large, side(0.126, 0.125, 0.127), true, setup),
            Verdict::Worse
        );
    }

    fn decl() -> Json {
        Json::parse(r#"{"end_to_end":[{"name":"x","unit":"ns","better":"lower","bound":0.1}]}"#)
            .unwrap()
    }

    fn file(x: f64, failed: f64, jain: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":{{"w":{{"end_to_end":{{"x":{{"value":{x},"q1":{x},"q3":{x}}}}},
                "ops_attempted":1000,"ops_failed":{failed},"fairness_jain":{jain}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<(String, Verdict)> {
        compare(&decl(), a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn rows_cover_every_declared_metric_of_every_shared_workload() {
        let got = verdicts(&file(10.0, 0.0, 0.98), &file(12.0, 0.0, 0.98));
        assert_eq!(
            got,
            [
                ("x".to_string(), Verdict::Worse),
                ("failed_share".to_string(), Verdict::Same),
                ("fairness_jain".to_string(), Verdict::Same),
            ]
        );
        assert!(compare(
            &decl(),
            &file(10.0, 0.0, 1.0),
            &Json::parse(r#"{"workloads":{"w":{}}}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn any_new_failed_operation_and_a_fairness_collapse_are_worse() {
        let base = file(10.0, 0.0, 0.9867);
        assert_eq!(
            verdicts(&base, &file(10.0, 1.0, 0.9867))[1].1,
            Verdict::Worse
        );
        assert_eq!(verdicts(&base, &file(10.0, 0.0, 0.97))[2].1, Verdict::Same);
        assert_eq!(verdicts(&base, &file(10.0, 0.0, 0.5))[2].1, Verdict::Worse);
    }
}
