//! The stamp every result carries: host, compiler and commit.

use std::process::Command;

/// Where and from what a result was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// CPU model name.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// The commit, with `-dirty` when tracked files differ from it, or
    /// `unknown` outside a git checkout.
    pub commit: String,
}

impl Stamp {
    /// Reads the stamp of this process.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: commit(),
        }
    }
}

impl std::fmt::Display for Stamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host: cpu=\"{}\" available_parallelism={} rustc=\"{}\" commit={}",
            self.cpu, self.parallelism, self.rustc, self.commit
        )
    }
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn commit() -> String {
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(status) if status.is_empty() => rev,
            _ => format!("{rev}-dirty"),
        },
        None => "unknown".into(),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
