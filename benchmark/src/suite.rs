//! The full suite: every workload in its own process, untraced then traced.
//!
//! Writes one result file per set of runs under the output directory and
//! prints every metric by name with its unit. `--repeat N` runs N sets of
//! the same commit and holds them against each other with the comparator —
//! the benchmark's own repeatability criterion.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::compare::{self, Verdict};
use crate::json::Json;
use crate::schema::{self, END_TO_END, PER_LAYER, WORKLOADS};

/// Timed segments per workload: untraced, traced.
const FULL_SEGMENTS: (usize, usize) = (15, 5);
const QUICK_SEGMENTS: (usize, usize) = (1, 1);

pub struct SuiteArgs {
    /// One segment per pass, bounds reported but not enforced.
    pub quick: bool,
    /// Restrict to these workloads (all when empty).
    pub workloads: Vec<String>,
    pub seed: u64,
    pub repeat: usize,
    pub out_dir: PathBuf,
    /// `BENCHMARK.json`, for the bounds.
    pub decl: PathBuf,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run `command`, which writes `detail`, and return that file. A file left
/// by an earlier run is deleted first, so a child that dies can never be
/// answered with old numbers. Exit 0 is a clean run and exit 1 a run that
/// counted failed operations (its fresh file says `"correct": false`, and
/// `ops_failed` carries that on); anything else — a panic, a signal, a
/// usage error — fails the suite.
fn run_child(mut command: Command, detail: &Path, what: &str) -> Result<Json, String> {
    match std::fs::remove_file(detail) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", detail.display()));
        }
        _ => {}
    }
    let status = command.status().map_err(|e| format!("spawn {what}: {e}"))?;
    match status.code() {
        Some(0) => read_json(detail),
        Some(1) => {
            let json = read_json(detail).map_err(|e| format!("{what}: {status}; {e}"))?;
            if json.get("correct") != Some(&Json::Bool(false)) {
                return Err(format!(
                    "{what}: {status}, yet its result is not `correct: false`"
                ));
            }
            eprintln!("{what}: failed operations ({status})");
            Ok(json)
        }
        _ => Err(format!("{what}: {status}")),
    }
}

/// Run one workload pass in a child process and return its detail file.
fn child(args: &SuiteArgs, workload: &str, trace: bool, segments: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let pass = if trace { "traced" } else { "untraced" };
    let detail = args.out_dir.join(format!("{workload}.{pass}.json"));
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload, "--seconds", "0"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--segments",
            &segments.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--detail")
        .arg(&detail)
        .stdout(std::process::Stdio::null());
    run_child(command, &detail, &format!("{workload} ({pass})"))
}

/// One set of runs: every selected workload, both passes.
fn run_set(args: &SuiteArgs, set: usize) -> Result<(PathBuf, Json), String> {
    let (untraced_segments, traced_segments) = if args.quick {
        QUICK_SEGMENTS
    } else {
        FULL_SEGMENTS
    };
    let mut workloads = Vec::new();
    let mut env = Json::Null;
    for def in WORKLOADS
        .iter()
        .filter(|w| args.workloads.is_empty() || args.workloads.iter().any(|n| n == w.name))
    {
        eprintln!("[set {set}] {} …", def.name);
        let plain = child(args, def.name, false, untraced_segments)?;
        let traced = child(args, def.name, true, traced_segments)?;
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        env = plain.get("env").cloned().unwrap_or(Json::Null);
        workloads.push((
            def.name,
            Json::obj([
                (
                    "end_to_end",
                    plain.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "ops_attempted",
                    Json::Num(num(&plain, "ops_attempted") + num(&traced, "ops_attempted")),
                ),
                (
                    "ops_failed",
                    Json::Num(num(&plain, "ops_failed") + num(&traced, "ops_failed")),
                ),
                // Per-flow finishing rounds are counted, not timed, so this
                // repeats exactly; the comparator gates it.
                (
                    "fairness_jain",
                    plain
                        .get("fairness_jain")
                        .and_then(|f| f.get("value"))
                        .cloned()
                        .unwrap_or(Json::Null),
                ),
                ("threads", Json::Num(1.0)),
                ("untraced_segments", Json::Num(untraced_segments as f64)),
                ("traced_segments", Json::Num(traced_segments as f64)),
                ("spans", traced.get("spans").cloned().unwrap_or(Json::Null)),
                (
                    "spans_self_over_wall",
                    traced
                        .get("spans_self_over_wall")
                        .cloned()
                        .unwrap_or(Json::Null),
                ),
                (
                    "chrome_trace",
                    traced.get("chrome_trace").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let result = Json::obj([
        ("benchmark", Json::str("fm-benchmark")),
        ("mode", Json::str(if args.quick { "quick" } else { "full" })),
        ("env", env),
        ("workloads", Json::obj(workloads)),
        // This harness measures; it never claims a gain.
        ("claim", Json::Null),
    ]);
    let path = args
        .out_dir
        .join(format!("result-seed{}-set{set}.json", args.seed));
    std::fs::write(&path, result.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, result))
}

fn print_result(result: &Json, decl: &Json) {
    let bound_of = |name: &str| {
        decl.get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|d| d.get("bound").and_then(Json::as_f64))
    };
    for (workload, w) in result
        .get("workloads")
        .map(Json::as_obj)
        .unwrap_or_default()
    {
        let why = schema::workload(workload).map_or("", |d| d.why);
        println!("\n== {workload} — {why} ==");
        let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        for d in &END_TO_END {
            let Some(m) = w.get("end_to_end").and_then(|e| e.get(d.name)) else {
                continue;
            };
            println!(
                "  {:<34} {:>16.4} {:<6} q1 {:.4} q3 {:.4} n {} ({} is better, bound {:.0}%)",
                d.name,
                num(m, "value"),
                d.unit,
                num(m, "q1"),
                num(m, "q3"),
                num(m, "n"),
                d.better,
                bound_of(d.name).unwrap_or(0.0) * 100.0
            );
        }
        println!(
            "  ops_attempted {} ops_failed {}",
            num(w, "ops_attempted"),
            num(w, "ops_failed")
        );
        for d in &PER_LAYER {
            let Some(m) = w.get("per_layer").and_then(|e| e.get(d.name)) else {
                continue;
            };
            println!("  {:<34} {:>16.4} {}", d.name, num(m, "value"), d.unit);
        }
    }
}

/// Returns whether everything passed.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let decl = read_json(&args.decl)?;
    let mut ok = true;
    let mut sets: Vec<(PathBuf, Json)> = Vec::new();
    for set in 1..=args.repeat.max(1) {
        let (path, result) = run_set(args, set)?;
        print_result(&result, &decl);
        let failed: f64 = result
            .get("workloads")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(_, w)| w.get("ops_failed").and_then(Json::as_f64).unwrap_or(1.0))
            .sum();
        ok &= failed == 0.0;
        if let Some((prev_path, prev)) = sets.last() {
            println!(
                "\n== repeatability: {} vs {} ==",
                prev_path.display(),
                path.display()
            );
            let rows = compare::compare(&decl, prev, &result)?;
            compare::print_rows(&rows);
            // Two sets of one commit must agree; quick runs are too short
            // to hold to that.
            let disagree = rows.iter().any(|r| {
                matches!(
                    r.verdict,
                    Verdict::Worse | Verdict::Better | Verdict::Unresolved
                )
            });
            ok &= args.quick || !disagree;
        }
        let summary = Json::obj([
            ("result", Json::Str(path.display().to_string())),
            ("ops_failed", Json::Num(failed)),
            ("claim", Json::Null),
        ]);
        println!("\n{}", summary.render());
        sets.push((path, result));
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]);
        c
    }

    #[test]
    fn a_child_that_dies_fails_the_suite_and_leaves_no_stale_result() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let detail = dir.join("w.untraced.json");
        let path = detail.display();

        // Numbers of an earlier, healthy run; then the child panics.
        std::fs::write(&detail, r#"{"correct":true,"ops_failed":0}"#).unwrap();
        let err = run_child(sh("exit 101"), &detail, "w").unwrap_err();
        assert!(err.contains("101"), "{err}");
        assert!(!detail.exists(), "the stale file must be gone");

        // Exit 1 with nothing written is a crash too, not a failed run.
        assert!(run_child(sh("exit 1"), &detail, "w").is_err());
        // Exit 1 with a fresh `correct: false` passes its numbers on.
        let wrote = format!(r#"echo '{{"correct":false,"ops_failed":3}}' > '{path}'; exit 1"#);
        let json = run_child(sh(&wrote), &detail, "w").unwrap();
        assert_eq!(json.get("ops_failed").and_then(Json::as_f64), Some(3.0));
        // Exit 1 beside a result that claims to be correct is not believed.
        let lied = format!(r#"echo '{{"correct":true}}' > '{path}'; exit 1"#);
        assert!(run_child(sh(&lied), &detail, "w").is_err());
        // Exit 0 reads the fresh file.
        let fine = format!(r#"echo '{{"correct":true}}' > '{path}'"#);
        assert!(run_child(sh(&fine), &detail, "w").is_ok());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
