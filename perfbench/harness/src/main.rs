//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim_migrate|campaign_quick|service_mix>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//!           [--mix FRESH,RESEND]
//! ```
//!
//! Untraced (`--trace 0`) it measures the workload's end-to-end metrics
//! for about `S` seconds. Traced (`--trace 1`) it runs the workload once
//! untraced and once traced (half the budget each), reports every
//! per-layer metric and the tracing overhead, and writes the recorded
//! spans to `DIR/spans-<workload>-seed<N>.jsonl`. Layers the workload
//! bypasses are measured on a short traced probe of the workload that
//! exercises them.
//!
//! Every metric is printed by name with its unit; the run identity
//! (seed, source revision, host) follows, and the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The full
//! result is also saved to `DIR/result-<workload>-seed<N>-trace<T>.json`.
//! The exit code is non-zero when any output check failed.
//!
//! `--mix` overrides `service_mix`'s percent of fresh-seed submits and of
//! resends (default 5,12), for measuring how its figures depend on the
//! assumed mix; results under another mix are not comparable with the
//! default's.

mod campaign;
mod canary;
mod identity;
mod pins;
mod report;
mod service;
mod sim_migrate;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metric, Outcome};
use trace::Tracer;
use vsnoop::runner::json::Value;

pub const WORKLOADS: [&str; 3] = ["sim_migrate", "campaign_quick", "service_mix"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    mix: Option<(u32, u32)>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: pins::DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
        mix: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => cli.trace = value()? == "1",
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--mix" => {
                let v = value()?;
                let parsed = v
                    .split_once(',')
                    .and_then(|(f, r)| Some((f.parse().ok()?, r.parse().ok()?)))
                    .filter(|(f, r): &(u32, u32)| f + r <= 100);
                cli.mix =
                    Some(parsed.ok_or(format!("--mix: want FRESH,RESEND percents, got {v}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            WORKLOADS.join(", "),
            cli.workload
        ));
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

/// Runs one workload at its full size (`probe == false`) or as a short
/// probe of its layers.
fn run_workload(name: &str, cli: &Cli, seconds: f64, probe: bool, tracer: &mut Tracer) -> Outcome {
    let (seed, dir) = (cli.seed, &cli.out_dir);
    let mut out = Outcome::default();
    match name {
        "sim_migrate" => {
            let size = if probe {
                sim_migrate::PROBE
            } else {
                sim_migrate::FULL
            };
            sim_migrate::run(seed, seconds, size, tracer, &mut out);
        }
        "campaign_quick" => {
            let scale = if probe {
                vsnoop::experiments::RunScale {
                    warmup_rounds: 1000,
                    measure_rounds: 1000,
                    seed,
                }
            } else {
                campaign::quick_scale(seed)
            };
            campaign::run(seed, seconds, scale, tracer, &mut out);
        }
        _ => {
            let mut size = if probe { service::PROBE } else { service::FULL };
            if let Some((fresh, resend)) = cli.mix {
                size.fresh_pct = fresh;
                size.resend_pct = resend;
            }
            let work = dir.join(format!("service-{}", std::process::id()));
            service::run(seed, seconds, size, &work, tracer, &mut out);
        }
    }
    out
}

fn value_of(list: &[Metric], name: &str) -> Option<f64> {
    list.iter().find(|m| m.name == name).map(|m| m.value)
}

/// The traced invocation: the workload untraced and traced on half the
/// budget each, then short traced probes of the other workloads for the
/// layers this one bypasses.
fn traced(cli: &Cli) -> (Outcome, Tracer) {
    let half = cli.seconds / 2.0;
    let mut off = Tracer::new(false);
    let plain = run_workload(&cli.workload, cli, half, false, &mut off);
    let mut tracer = Tracer::new(true);
    let mut out = run_workload(&cli.workload, cli, half, false, &mut tracer);
    let overhead = match (
        value_of(&plain.e2e, "latency_ms"),
        value_of(&out.e2e, "latency_ms"),
    ) {
        (Some(a), Some(b)) if a > 0.0 => 100.0 * (b / a - 1.0),
        _ => 0.0,
    };
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.check_failures.extend(plain.check_failures);
    out.detail(
        "untraced.latency_ms",
        value_of(&plain.e2e, "latency_ms").unwrap_or(0.0),
        "ms",
    );
    out.detail(
        "traced.latency_ms",
        value_of(&out.e2e, "latency_ms").unwrap_or(0.0),
        "ms",
    );
    out.layer("trace.overhead_pct", overhead, "%");
    for other in WORKLOADS.iter().filter(|w| **w != cli.workload) {
        let probe = run_workload(other, cli, 2.0, true, &mut tracer);
        out.attempted += probe.attempted;
        out.failed += probe.failed;
        out.check_failures.extend(probe.check_failures);
        for m in probe.layers {
            if out.layer_value(&m.name).is_none() {
                out.layers.push(m);
            }
        }
    }
    (out, tracer)
}

fn json_metrics(list: &[Metric]) -> Value {
    Value::Obj(
        list.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::obj([
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cli.out_dir) {
        eprintln!("perfbench: {}: {e}", cli.out_dir.display());
        return ExitCode::from(2);
    }
    let (mut out, tracer) = if cli.trace {
        traced(&cli)
    } else {
        let mut off = Tracer::new(false);
        let out = run_workload(&cli.workload, &cli, cli.seconds, false, &mut off);
        (out, off)
    };
    let reported = if cli.trace {
        out.layers.clone()
    } else {
        out.e2e.clone()
    };
    for m in reported.iter().filter(|m| !m.value.is_finite()) {
        out.check_failures
            .push(format!("metric {} is not a number", m.name));
    }
    out.attempted = out.attempted.max(1);
    let correct = out.failed == 0 && out.check_failures.is_empty();
    let error_frac = out.failed as f64 / out.attempted as f64;

    println!(
        "# perfbench {} seed={} trace={}",
        cli.workload,
        cli.seed,
        u8::from(cli.trace)
    );
    for m in &out.detail {
        println!("detail  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &reported {
        println!("metric  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("detail  {:<40} {:>16.6} ratio", "error_frac", error_frac);
    for f in &out.check_failures {
        println!("check   FAILED {f}");
    }
    let id = identity::identity(&cli.workload, cli.seed, cli.trace);
    println!("identity {}", id.to_json());

    let tag = format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.seed,
        u8::from(cli.trace)
    );
    let saved = Value::obj([
        ("identity", id),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("error_frac", Value::Float(error_frac)),
        (
            "checked_against",
            Value::Str(
                if pins::pinned(cli.seed) {
                    "pinned outputs"
                } else {
                    "repetitions of the run"
                }
                .into(),
            ),
        ),
        ("metrics", json_metrics(&reported)),
        ("detail", json_metrics(&out.detail)),
        (
            "check_failures",
            Value::Arr(out.check_failures.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    let _ = std::fs::write(
        cli.out_dir.join(format!("result-{tag}.json")),
        saved.to_json() + "\n",
    );
    if cli.trace {
        let path = cli
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", cli.workload, cli.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
    }

    let last = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("metrics", json_metrics(&reported)),
    ]);
    println!("{}", last.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
