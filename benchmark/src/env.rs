//! The environment block of a result file, and this process's peak RSS.

use std::process::Command;

use crate::json::Json;

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process, KiB (`VmHWM`); 0 where `/proc` has
/// no such field.
pub fn peak_rss_kib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(0.0)
}

/// Whether this process runs without address-space randomisation
/// (`ADDR_NO_RANDOMIZE`, which `run.sh` asks `setarch -R` for).
fn fixed_address_layout() -> bool {
    const ADDR_NO_RANDOMIZE: u32 = 0x0004_0000;
    std::fs::read_to_string("/proc/self/personality")
        .ok()
        .and_then(|p| u32::from_str_radix(p.trim(), 16).ok())
        .is_some_and(|p| p & ADDR_NO_RANDOMIZE != 0)
}

pub fn block(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "cpu_model",
            Json::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "kernel",
            Json::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "rustc",
            Json::Str(first_line_of("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("threads_per_workload", Json::Num(1.0)),
        ("threads_diagnostic_pinned", Json::Bool(false)),
        ("fixed_address_layout", Json::Bool(fixed_address_layout())),
        ("udp", Json::str("loopback")),
    ])
}
