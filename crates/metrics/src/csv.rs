//! Minimal CSV writing for the figure data (no external dependency; the
//! values we emit never need quoting beyond commas in layer names, which
//! are quoted defensively).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Quote a field if it contains a comma, quote or newline.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Build CSV text from a header and rows.
pub fn to_string(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        header
            .iter()
            .map(|h| field(h))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "CSV row width mismatch");
        let _ = writeln!(
            out,
            "{}",
            row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
        );
    }
    out
}

/// Write CSV to a file, creating parent directories.
pub fn write_file(path: impl AsRef<Path>, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_string(header, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_unquoted() {
        let s = to_string(&["n", "mbs"], &[vec!["128".into(), "16.2".into()]]);
        assert_eq!(s, "n,mbs\n128,16.2\n");
    }

    #[test]
    fn commas_and_quotes_escaped() {
        let s = to_string(&["layer"], &[vec!["hybrid, with \"stuff\"".into()]]);
        assert_eq!(s, "layer\n\"hybrid, with \"\"stuff\"\"\"\n");
    }

    #[test]
    fn roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("fm_metrics_csv_test");
        let path = dir.join("sub/out.csv");
        write_file(&path, &["a"], &[vec!["1".into()]]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
