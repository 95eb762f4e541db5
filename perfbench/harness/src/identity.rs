//! Run identity recorded with every result: the workload seed, the
//! source revision, and a fingerprint of the host that measured it.

use std::process::Command;

use vsnoop::runner::json::Value;

/// Runs `cmd args` and returns its trimmed stdout, if it succeeded.
fn command_stdout(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over a byte stream, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The identity block for one run.
pub fn identity(workload: &str, seed: u64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj([
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::UInt(seed)),
        ("trace", Value::Bool(trace)),
        (
            "git_commit",
            Value::Str(
                command_stdout("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "host",
            Value::obj([
                ("nproc", Value::UInt(nproc as u64)),
                ("cpu_model", Value::Str(cpu_model())),
                (
                    "rustc",
                    Value::Str(
                        command_stdout("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
                    ),
                ),
            ]),
        ),
    ])
}
