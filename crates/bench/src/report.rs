//! The one way a gate bin parses its arguments, writes its JSON report and
//! decides its exit status.
//!
//! A [`Report`] is an ordered JSON object: keys render in insertion order
//! and every float carries the number of decimals its caller fixed, so a
//! deterministic run rewrites its committed file byte for byte; a NaN or
//! infinite float is refused. A [`Gate`]
//! is one checked bound; [`Report::finish`] writes the report, prints one
//! line per gate and exits 1 iff an enforced gate failed. [`Args`] is the
//! shared command line: `--smoke`, `--out PATH`, the bin's own `--FLAG
//! VALUE` pairs, and exit 2 on anything else.

use std::fmt::Write as _;

/// One JSON value of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(i128),
    /// A float and the decimals it renders with. Rendering refuses NaN
    /// and infinities: JSON has no spelling for either, and a gate reading
    /// one would be reading a broken measurement.
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Report),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_json!(u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<Report> for Json {
    fn from(v: Report) -> Self {
        Json::Obj(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// An ordered JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    fields: Vec<(String, Json)>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `key`. Keys render in the order they were set.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Append a float rendered with exactly `digits` decimals.
    pub fn num(self, key: &str, v: f64, digits: usize) -> Self {
        self.set(key, Json::Num(v, digits))
    }

    /// Pretty-printed JSON, two-space indent, one trailing newline.
    ///
    /// # Panics
    /// On a NaN or infinite [`Json::Num`].
    fn render(&self) -> String {
        let mut out = String::new();
        write_object(&self.fields, 0, &mut out);
        out.push('\n');
        out
    }

    /// Write the report to `path`, print the gate table and exit: 1 iff an
    /// enforced gate failed (or the file cannot be written), else 0.
    pub fn finish(self, path: &str, gates: &[Gate]) -> ! {
        if let Err(e) = std::fs::write(path, self.render()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
        std::process::exit(verdict(gates))
    }
}

fn write_value(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Bool(b) => write!(out, "{b}").expect("writing to a String"),
        Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
        Json::Num(x, digits) => {
            assert!(x.is_finite(), "non-finite number {x} has no JSON form");
            write!(out, "{x:.digits$}").expect("writing to a String")
        }
        Json::Str(s) => write_str(s, out),
        Json::Arr(items)
            if items
                .iter()
                .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))) =>
        {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(item, indent, out);
            }
            out.push(']');
        }
        Json::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 2, out);
                write_value(item, indent + 2, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push(']');
        }
        Json::Obj(r) => write_object(&r.fields, indent, out),
    }
}

fn write_object(fields: &[(String, Json)], indent: usize, out: &mut String) {
    if fields.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        pad(indent + 2, out);
        write_str(key, out);
        out.push_str(": ");
        write_value(value, indent + 2, out);
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    pad(indent, out);
    out.push('}');
}

fn pad(indent: usize, out: &mut String) {
    out.extend(std::iter::repeat_n(' ', indent));
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One checked bound. An unenforced gate is reported but cannot fail the
/// run: a smoke run marks its wall-clock gates that way.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: &'static str,
    pub value: f64,
    pub bound: f64,
    pub pass: bool,
    pub enforced: bool,
}

impl Gate {
    /// Passes when `value >= bound`.
    pub fn at_least(name: &'static str, value: f64, bound: f64) -> Gate {
        Gate::new(name, value, bound, value >= bound)
    }

    /// Passes when `value <= bound`.
    pub fn at_most(name: &'static str, value: f64, bound: f64) -> Gate {
        Gate::new(name, value, bound, value <= bound)
    }

    /// Passes when `value < bound`.
    pub fn below(name: &'static str, value: f64, bound: f64) -> Gate {
        Gate::new(name, value, bound, value < bound)
    }

    /// Passes when `value == bound` (counts).
    pub fn equals(name: &'static str, value: f64, bound: f64) -> Gate {
        Gate::new(name, value, bound, value == bound)
    }

    /// A property with no natural number: value 1 when it holds, bound 1.
    pub fn holds(name: &'static str, ok: bool) -> Gate {
        Gate::new(name, if ok { 1.0 } else { 0.0 }, 1.0, ok)
    }

    fn new(name: &'static str, value: f64, bound: f64, pass: bool) -> Gate {
        Gate {
            name,
            value,
            bound,
            pass,
            enforced: true,
        }
    }

    /// The same gate, enforced only when `enforced` is true.
    pub fn enforced_if(self, enforced: bool) -> Gate {
        Gate { enforced, ..self }
    }
}

impl From<&Gate> for Json {
    fn from(g: &Gate) -> Self {
        Report::new()
            .set("name", g.name)
            .num("value", g.value, 3)
            .num("bound", g.bound, 3)
            .set("pass", g.pass)
            .set("enforced", g.enforced)
            .into()
    }
}

/// The gate section several committed reports share: each gate's name
/// mapped to whether it passed, then `enforced_gates` naming the ones that
/// can fail the run.
pub fn gate_section(gates: &[Gate]) -> Report {
    let enforced: Vec<&str> = gates
        .iter()
        .filter(|g| g.enforced)
        .map(|g| g.name)
        .collect();
    gates
        .iter()
        .fold(Report::new(), |r, g| r.set(g.name, g.pass))
        .set("enforced_gates", enforced)
}

/// Print one line per gate and return the exit status: 1 iff an enforced
/// gate failed.
pub(crate) fn verdict(gates: &[Gate]) -> i32 {
    for g in gates {
        let result = match (g.pass, g.enforced) {
            (true, _) => "PASS",
            (false, true) => "FAIL",
            (false, false) => "fail (not enforced)",
        };
        println!(
            "gate {:<44} value {:>12.3}  bound {:>10.3}  {result}",
            g.name, g.value, g.bound
        );
    }
    let failed: Vec<&str> = gates
        .iter()
        .filter(|g| g.enforced && !g.pass)
        .map(|g| g.name)
        .collect();
    if failed.is_empty() {
        0
    } else {
        eprintln!("GATE FAIL: {}", failed.join(", "));
        1
    }
}

/// The shared command line of the gate bins.
#[derive(Debug)]
pub struct Args {
    pub smoke: bool,
    pub out: String,
    extra: Vec<(String, String)>,
    usage: String,
}

impl Args {
    /// Parse the process's arguments: `--smoke`, `--out PATH` (default
    /// `default_out`) and one value for each flag in `extra`. Anything else
    /// prints the usage line and exits 2.
    pub fn parse(default_out: &str, extra: &[&str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default();
        Args::parse_from(bin, argv, default_out, extra).unwrap_or_else(|(msg, usage)| {
            eprintln!("error: {msg}\n{usage}");
            std::process::exit(2)
        })
    }

    /// [`Args::parse`] over explicit arguments; `Err` carries the message
    /// and the usage line.
    fn parse_from(
        bin: &str,
        args: impl IntoIterator<Item = String>,
        default_out: &str,
        extra: &[&str],
    ) -> Result<Args, (String, String)> {
        let usage = extra
            .iter()
            .fold(format!("usage: {bin} [--smoke] [--out PATH]"), |u, flag| {
                format!("{u} [{flag} VALUE]")
            });
        let mut parsed = Args {
            smoke: false,
            out: default_out.to_string(),
            extra: Vec::new(),
            usage,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                parsed.smoke = true;
                continue;
            }
            if arg != "--out" && !extra.contains(&arg.as_str()) {
                return Err((format!("unknown argument `{arg}`"), parsed.usage));
            }
            let Some(value) = it.next() else {
                return Err((format!("{arg} requires a value"), parsed.usage));
            };
            if arg == "--out" {
                parsed.out = value;
            } else {
                parsed.extra.push((arg, value));
            }
        }
        Ok(parsed)
    }

    /// The value given for an `extra` flag, if any.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Report a malformed flag value and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let r = Report::new().set("k", "a\"b\\c\nd\u{1}é");
        assert_eq!(r.render(), "{\n  \"k\": \"a\\\"b\\\\c\\nd\\u0001é\"\n}\n");
    }

    #[test]
    fn keys_keep_insertion_order_and_floats_their_digits() {
        let inner = Report::new().set("z", 1u64).set("a", true);
        let r = Report::new()
            .set("b", inner)
            .num("a", 2.0, 3)
            .set("list", vec![Json::Num(0.5, 1), Json::Num(1.25, 2)])
            .set("rows", vec![Report::new().set("n", 4u64)]);
        assert_eq!(
            r.render(),
            "{\n  \"b\": {\n    \"z\": 1,\n    \"a\": true\n  },\n  \"a\": 2.000,\n  \
             \"list\": [0.5, 1.25],\n  \"rows\": [\n    {\n      \"n\": 4\n    }\n  ]\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn a_non_finite_number_is_refused() {
        let _ = Report::new().num("ratio", f64::NAN, 2).render();
    }

    #[test]
    fn a_failing_enforced_gate_fails_the_run() {
        let gates = [
            Gate::at_least("speedup", 2.5, 3.0),
            Gate::at_most("allocs", 0.0, 0.0),
        ];
        assert!(!gates[0].pass && gates[1].pass);
        assert_eq!(verdict(&gates), 1);
    }

    #[test]
    fn a_failing_unenforced_gate_is_reported_with_exit_0() {
        let gates = [
            Gate::at_least("speedup", 2.5, 3.0).enforced_if(false),
            Gate::holds("exactly_once", true),
        ];
        assert!(!gates[0].pass);
        assert_eq!(verdict(&gates), 0);
        let section = gate_section(&gates).render();
        assert!(section.contains("\"speedup\": false"));
        assert!(section.contains("\"enforced_gates\": [\"exactly_once\"]"));
    }

    #[test]
    fn a_nan_measurement_fails_its_gate() {
        assert!(!Gate::at_least("fairness", f64::NAN, 0.8).pass);
        assert!(!Gate::below("growth", f64::NAN, 2.0).pass);
    }

    #[test]
    fn unknown_arguments_are_refused() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = Args::parse_from(
            "b",
            args(&["--smoke", "--out", "x.json", "--n", "4"]),
            "d.json",
            &["--n"],
        )
        .expect("known flags");
        assert!(ok.smoke);
        assert_eq!((ok.out.as_str(), ok.get("--n")), ("x.json", Some("4")));
        let (msg, usage) =
            Args::parse_from("b", args(&["--baseline", "f"]), "d.json", &[]).unwrap_err();
        assert!(msg.contains("--baseline") && usage.starts_with("usage: b [--smoke]"));
        assert!(Args::parse_from("b", args(&["--out"]), "d.json", &[]).is_err());
    }
}
