//! `fm-benchmark`: the inline-driven benchmark of the live FM stack.
//!
//! ```text
//! fm-benchmark run --workload NAME --seed N --seconds S --trace 0|1
//!                  [--segments K] [--quick] [--out DIR] [--detail FILE]
//! fm-benchmark suite [--quick] [--workload NAME]... [--seed N]
//!                    [--repeat N] [--out DIR] [--decl BENCHMARK.json]
//! fm-benchmark compare A.json B.json [--decl BENCHMARK.json]
//! ```
//!
//! `run` is one workload in one process; its last line of standard output
//! is the result object. `benchmark/run.sh` builds this binary and picks
//! the subcommand. See `benchmark/README.md`.

mod alloc;
mod clock;
mod compare;
mod env;
mod json;
mod ladder;
mod oracle;
mod runner;
mod schema;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed of runs that do not name one.
const DEFAULT_SEED: u64 = 4181;

/// `--name value` options and bare flags, in order of appearance.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// `options` take a value, `flags` do not; any other `--name` is an
    /// error, so a misspelt option cannot silently fall back to a default.
    fn parse(
        mut raw: impl Iterator<Item = String>,
        options: &[&str],
        flags: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
            flags: Vec::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) if flags.contains(&name) => args.flags.push(name.to_string()),
                Some(name) if options.contains(&name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), value));
                }
                Some(name) => return Err(format!("unknown option `--{name}`")),
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.options
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn path(&self, name: &str, default: &str) -> PathBuf {
        PathBuf::from(self.get(name).unwrap_or(default))
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let run = runner::RunArgs {
        workload: args
            .get("workload")
            .ok_or("run needs --workload")?
            .to_string(),
        seed: args.parsed("seed", DEFAULT_SEED)?,
        seconds: args.parsed("seconds", 5.0)?,
        segments: args
            .get("segments")
            .map(|_| args.parsed("segments", 0))
            .transpose()?,
        trace: match args.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        quick: args.flags.iter().any(|f| f == "quick"),
        out_dir: args.path("out", "benchmark/out"),
    };
    let outcome = runner::run(&run)?;
    if let Some(path) = args.get("detail") {
        // The environment block shells out (`rustc -V`, `git rev-parse`),
        // so only a run that keeps a detail file pays for it.
        let mut detail = outcome.detail;
        detail.push(("env", env::block(run.seed)));
        std::fs::write(path, Json::obj(detail).pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.line.render());
    Ok(outcome.correct)
}

fn cmd_suite(args: &Args) -> Result<bool, String> {
    let workloads = args.all("workload");
    if let Some(bad) = workloads.iter().find(|n| schema::workload(n).is_none()) {
        return Err(format!("unknown workload `{bad}`"));
    }
    suite::suite(&suite::SuiteArgs {
        quick: args.flags.iter().any(|f| f == "quick"),
        workloads,
        seed: args.parsed("seed", DEFAULT_SEED)?,
        repeat: args.parsed("repeat", 1)?,
        out_dir: args.path("out", "benchmark/out"),
        decl: args.path("decl", "BENCHMARK.json"),
    })
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let read = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let decl = read(&args.path("decl", "BENCHMARK.json").display().to_string())?;
    let rows = compare::compare(&decl, &read(a)?, &read(b)?)?;
    compare::print_rows(&rows);
    Ok(!rows.iter().any(|r| r.verdict == compare::Verdict::Worse))
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().unwrap_or_default();
    let parse = |options: &[&str], flags: &[&str]| Args::parse(raw, options, flags);
    let outcome = match command.as_str() {
        "run" => parse(
            &[
                "workload", "seed", "seconds", "trace", "segments", "out", "detail",
            ],
            &["quick"],
        )
        .and_then(|args| cmd_run(&args)),
        "suite" => parse(&["workload", "seed", "repeat", "out", "decl"], &["quick"])
            .and_then(|args| cmd_suite(&args)),
        "compare" => parse(&["decl"], &[]).and_then(|args| cmd_compare(&args)),
        other => Err(format!(
            "unknown command `{other}`; expected run, suite or compare"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
