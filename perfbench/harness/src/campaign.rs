//! `campaign_quick`: the supervised paper-regeneration campaign at
//! `RunScale::quick()`, every artifact except the long migration
//! figures (`fig7`, `fig8`, `fig9`), default warm reuse, shard workers =
//! `nproc`. Exercises the warm pool and cell memo, forks, the shard pool
//! and the runner, which `sim_migrate` bypasses.
//!
//! The runner executes one job at a time. A host-speed canary burst runs
//! just before each job starts and just after it ends, while nothing
//! else runs; each job's time is scaled by the mean of its two bursts,
//! and the unscaled campaign time is reported alongside.

use std::collections::HashMap;
use std::time::Instant;

use vsnoop::experiments::{
    clear_warm_pool, reset_warm_counters, run_pinned, warm_counters, RunScale,
};
use vsnoop::runner::{run_campaign, set_shard_workers, Job, RunnerConfig};
use vsnoop::{ContentPolicy, FilterPolicy, SystemConfig};
use vsnoop_bench::campaign::{artifact_names, campaign_jobs, CampaignOptions};
use workloads::simulation_apps;

use crate::canary::{self, Canary};
use crate::identity::{fnv1a, FNV_OFFSET};
use crate::pins;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::Tracer;

/// Artifacts left out: the migration figures are `sim_migrate`'s cell
/// at 16x the run length and would take minutes.
pub const EXCLUDED: [&str; 3] = ["fig7", "fig8", "fig9"];

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

pub fn artifacts() -> Vec<String> {
    artifact_names()
        .into_iter()
        .filter(|a| !EXCLUDED.contains(a))
        .map(str::to_string)
        .collect()
}

/// The quick scale under the workload seed.
pub fn quick_scale(seed: u64) -> RunScale {
    RunScale {
        seed,
        ..RunScale::quick()
    }
}

/// Digest of one artifact's report text.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// Set-up, timed on an empty warm pool: the job list, then the cold
/// warm-up of the first simulation app's pinned cell, built through the
/// warm pool exactly as Table IV's TokenB cell builds it. The snapshot
/// stays in the pool, so the campaign forks that cell instead of warming
/// it: the work moves, it is not repeated. The time is scaled by the
/// canary bursts that bracket it.
fn setup(scale: RunScale, only: &[String], canary: &mut Canary) -> (f64, Vec<Job>) {
    clear_warm_pool();
    let before = canary.burst();
    let t = Instant::now();
    let jobs = campaign_jobs(
        scale,
        &CampaignOptions {
            only: only.to_vec(),
            ..Default::default()
        },
    )
    .expect("campaign artifacts are registered");
    run_pinned(
        simulation_apps()[0],
        FilterPolicy::TokenBroadcast,
        ContentPolicy::Broadcast,
        false,
        false,
        SystemConfig::paper_default(),
        RunScale {
            measure_rounds: 0,
            ..scale
        },
    );
    let s = t.elapsed().as_secs_f64();
    let after = canary.burst();
    (s / canary::slowdown((before + after, 2)), jobs)
}

/// Runs as many campaigns as fit in `seconds` (at least one),
/// checking every artifact's text against its pinned digest (or, for an
/// unpinned seed, against the first campaign of the run).
pub fn run(seed: u64, seconds: f64, scale: RunScale, tracer: &mut Tracer, out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    set_shard_workers(nproc);
    let only = artifacts();
    let quick = RunScale::quick();
    let pinned =
        (scale.warmup_rounds, scale.measure_rounds) == (quick.warmup_rounds, quick.measure_rounds);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut reference: HashMap<String, String> = HashMap::new();
    let mut job_walls: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut runner_self = Vec::new();
    let mut scaled_walls = Vec::new();
    let mut canary = Canary::new();
    let start = Instant::now();
    // Another campaign starts only if it should end inside the budget.
    while walls.is_empty()
        || start.elapsed().as_secs_f64() * (walls.len() + 1) as f64 / walls.len() as f64 <= seconds
    {
        // Every campaign starts from an empty warm pool and memo (set-up
        // clears them), so each pays the full cost.
        let mut jobs = Vec::new();
        for _ in 0..SETUP_REPS {
            let (s, j) = setup(scale, &only, &mut canary);
            setups.push(s);
            jobs = j;
        }
        canary.take();
        reset_warm_counters();
        // The runner reports each job's start and end; their instants
        // time the jobs at full clock resolution. Each event also
        // carries its canary burst time.
        let mut events: Vec<(String, bool, Instant, f64)> = Vec::new();
        let t0 = Instant::now();
        let report = run_campaign(&jobs, &RunnerConfig::default(), &mut |line: &str| {
            let Some((name, rest)) = line.strip_prefix("job ").and_then(|l| l.split_once(": "))
            else {
                return;
            };
            if rest.starts_with("start") {
                let burst = canary.burst();
                events.push((name.to_string(), false, Instant::now(), burst));
            } else if rest.starts_with("ok") {
                let at = Instant::now();
                events.push((name.to_string(), true, at, canary.burst()));
            }
        })
        .expect("campaign configuration is valid");
        let t1 = Instant::now();
        let (burst_s, bursts) = canary.take();
        // Campaign time without the canary bursts.
        let wall = (t1 - t0).as_secs_f64() - burst_s;
        walls.push(wall);
        let (h, m, e) = warm_counters();
        hits += h;
        misses += m;
        evictions += e;

        let campaign_span = tracer.record("runner.run_campaign", t0, t1, None, None);
        let (mut jobs_s, mut scaled_jobs_s) = (0.0, 0.0);
        for r in &report.records {
            let name = r.spec.name.clone();
            let text = r.outcome.as_ref().map(|t| digest(t));
            let expected = pins::campaign(seed, &name)
                .filter(|_| pinned)
                .map(str::to_string)
                .or_else(|| reference.get(&name).cloned());
            let ok = match (&text, &expected) {
                (Ok(d), Some(e)) => d == e,
                (Ok(_), None) => true,
                (Err(_), _) => false,
            };
            out.check(ok, || {
                format!(
                    "campaign_quick {name} seed {seed}: digest {text:?} != expected {expected:?}"
                )
            });
            if let Ok(d) = text {
                reference.entry(name.clone()).or_insert(d);
            }
            let at = |end: bool| {
                events
                    .iter()
                    .rev()
                    .find(|e| e.0 == name && e.1 == end)
                    .map(|e| (e.2, e.3))
            };
            if let (Some((begin, b0)), Some((end, b1))) = (at(false), at(true)) {
                let s = (end - begin).as_secs_f64();
                jobs_s += s;
                scaled_jobs_s += s / canary::slowdown((b0 + b1, 2));
                job_walls.entry(name.clone()).or_default().push(s);
                tracer.record("experiments.job", begin, end, campaign_span, None);
            }
        }
        // The runner's own time between jobs, scaled by the mean burst.
        let between = wall - jobs_s;
        scaled_walls.push(scaled_jobs_s + between / canary::slowdown((burst_s, bursts)));
        runner_self.push(between);
    }

    let scaled = median(&scaled_walls);
    out.e2e("setup_s", median(&setups), "s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.e2e("throughput_per_s", only.len() as f64 / scaled, "1/s");
    out.e2e("latency_ms", scaled * 1e3, "ms");
    out.detail("campaign_wall_s", median(&walls), "s");
    out.detail("campaigns", walls.len() as f64, "count");

    if tracer.on() {
        for name in &only {
            let v = job_walls.get(name).map_or(0.0, |v| median(v));
            out.layer(&format!("experiments.{name}.wall_s"), v, "s");
        }
        let lookups = (hits + misses).max(1) as f64;
        out.layer("warm.hit_ratio", hits as f64 / lookups, "ratio");
        out.layer(
            "warm.evictions",
            evictions as f64 / walls.len() as f64,
            "count",
        );
        out.layer("runner.self_s", median(&runner_self), "s");
    }
}
