//! `sim_migrate`: the Fig. 7/8 cell that dominates campaign time.
//!
//! One fresh paper-machine `Simulator` per app under
//! `FilterPolicy::Counter`, warmed up pinned and then driven by
//! `Simulator::run_with_migration` at the Fig. 8 period (0.5 scaled ms),
//! for two homogeneous apps with contrasting working sets: `ocean`
//! (miss-heavy) and `blackscholes` (L1-bound). Bypasses the warm pool,
//! the runner and the service.
//!
//! The measured window runs one migration period per
//! `run_with_migration` call, which keeps the migration schedule (and
//! every counter) identical to a single call, with a host-speed canary
//! burst before each call; the declared timings (set-up included, which
//! is the same simulation work) are scaled by the canary, and the
//! unscaled figures are reported alongside. `latency_ms` is the median
//! period of each app, summed, so it does not restate
//! `throughput_per_s`, which is a per-repetition total.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_vm::{SharingDirectory, VcpuId, VmId};
use vsnoop::{ContentPolicy, FilterPolicy, SimStats, Simulator, SystemConfig, SystemWorkload};
use workloads::{profile, AccessStream, TraceAccess, Workload, WorkloadConfig};

use crate::canary::{self, Canary};
use crate::pins;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::Tracer;

pub const APPS: [&str; 2] = ["ocean", "blackscholes"];
/// Fig. 8's faster migration period, in scaled milliseconds.
const PERIOD_MS: f64 = 0.5;

/// Run length of one cell.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub warmup_rounds: u64,
    pub measure_rounds: u64,
}

/// The measured window is the Fig. 7/8 experiments' floor of eight
/// migration periods, long enough for the counter mechanism to remove
/// departed cores from the vCPU maps.
pub const FULL: Size = Size {
    warmup_rounds: 30_000,
    measure_rounds: 400_000,
};
pub const PROBE: Size = Size {
    warmup_rounds: 10_000,
    measure_rounds: 100_000,
};

/// Times one in [`SAMPLE_EVERY`] `next_access` calls of the wrapped
/// workload; the simulator sees the same access stream.
const SAMPLE_EVERY: u64 = 64;

struct TimedWorkload<'a> {
    inner: &'a mut Workload,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl AccessStream for TimedWorkload<'_> {
    fn next_access(&mut self, vcpu: VcpuId) -> TraceAccess {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_access(vcpu);
        }
        let t = Instant::now();
        let a = self.inner.next_access(vcpu);
        self.sampled_ns += t.elapsed().as_nanos() as u64;
        self.sampled += 1;
        a
    }
}

impl SystemWorkload for TimedWorkload<'_> {
    fn directory(&self) -> &SharingDirectory {
        self.inner.directory()
    }
    fn friend_of(&self, vm: VmId) -> Option<VmId> {
        SystemWorkload::friend_of(&*self.inner, vm)
    }
}

/// Cross-VM vCPU pairs drawn from the seeded picker (the same model as
/// the Fig. 7/8 experiments).
fn picker(cfg: SystemConfig, seed: u64) -> impl FnMut(u64) -> (VcpuId, VcpuId) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51A9);
    move |_| {
        let vm_a = rng.gen_range(0..cfg.n_vms);
        let mut vm_b = rng.gen_range(0..cfg.n_vms - 1);
        if vm_b >= vm_a {
            vm_b += 1;
        }
        let a = VcpuId::new(VmId::new(vm_a as u16), rng.gen_range(0..cfg.vcpus_per_vm));
        let b = VcpuId::new(VmId::new(vm_b as u16), rng.gen_range(0..cfg.vcpus_per_vm));
        (a, b)
    }
}

/// Every `SimStats` counter, the per-core stall cycles and the
/// byte-links total, as one canonical line.
pub fn canonical(sim: &Simulator) -> String {
    let s = sim.stats();
    let mut out: Vec<String> = s
        .counters()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let stalls: Vec<String> = s.stall_cycles.iter().map(u64::to_string).collect();
    out.push(format!("stall_cycles={}", stalls.join("/")));
    out.push(format!("byte_links={}", sim.traffic().byte_links()));
    out.join(",")
}

/// The measured window of one cell.
#[derive(Default)]
struct Window {
    /// Time inside `run_with_migration`, seconds.
    run_s: f64,
    /// `(start, end)` of every `run_with_migration` call.
    calls: Vec<(Instant, Instant)>,
}

/// Runs `rounds` measured rounds, one migration period per call, with a
/// canary burst before each call.
fn measure<W: SystemWorkload>(
    sim: &mut Simulator,
    wl: &mut W,
    rounds: u64,
    pick: &mut impl FnMut(u64) -> (VcpuId, VcpuId),
    canary: &mut Canary,
) -> Window {
    let cfg = *sim.config();
    let period = ((PERIOD_MS * cfg.cycles_per_ms as f64) as u64).max(1);
    // A call of whole periods starts and ends on the migration schedule
    // of one long call.
    assert_eq!(period % cfg.cycles_per_access, 0, "period is whole rounds");
    let per_call = period / cfg.cycles_per_access;
    let mut w = Window::default();
    let mut done = 0;
    while done < rounds {
        canary.burst();
        let n = per_call.min(rounds - done);
        let t = Instant::now();
        sim.run_with_migration(wl, n, period, &mut *pick);
        let end = Instant::now();
        w.run_s += (end - t).as_secs_f64();
        w.calls.push((t, end));
        done += n;
    }
    w
}

/// One measured cell run: built at `t0`, warmed by `t1`, measured window
/// ended at `t2`.
struct Cell {
    t0: Instant,
    t1: Instant,
    t2: Instant,
    window: Window,
    sim: Simulator,
    /// `(calls, sampled, sampled_ns)` of the timing wrapper (traced only).
    timed: Option<(u64, u64, u64)>,
}

fn run_cell(app: &str, seed: u64, size: Size, timed: bool, canary: &mut Canary) -> Cell {
    let cfg = SystemConfig::paper_default();
    let t0 = Instant::now();
    let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    let mut wl = Workload::homogeneous(
        profile(app).expect("benchmark apps are registered profiles"),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            ..Default::default()
        },
    );
    sim.run(&mut wl, size.warmup_rounds);
    sim.reset_measurement();
    let mut pick = picker(cfg, seed);
    let t1 = Instant::now();
    let (window, timed) = if timed {
        let mut tw = TimedWorkload {
            inner: &mut wl,
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
        };
        let w = measure(&mut sim, &mut tw, size.measure_rounds, &mut pick, canary);
        (w, Some((tw.calls, tw.sampled, tw.sampled_ns)))
    } else {
        (
            measure(&mut sim, &mut wl, size.measure_rounds, &mut pick, canary),
            None,
        )
    };
    Cell {
        t0,
        t1,
        t2: Instant::now(),
        window,
        sim,
        timed,
    }
}

/// Cost of reading the clock twice around nothing, in ns: subtracted
/// from every sampled `next_access` time.
fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs as many repetitions (one cell per app each) as fit in `seconds`
/// (at least two), checking every cell's counters.
pub fn run(seed: u64, seconds: f64, size: Size, tracer: &mut Tracer, out: &mut Outcome) {
    let traced = tracer.on();
    let pinned =
        (size.warmup_rounds, size.measure_rounds) == (FULL.warmup_rounds, FULL.measure_rounds);
    let clock_ns = if traced { clock_overhead_ns() } else { 0.0 };
    let mut canary = Canary::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let (mut scaled_rates, mut canary_ms) = (Vec::new(), Vec::new());
    // Scaled time of each app's migration periods, over all repetitions.
    let mut periods: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference: [Option<String>; 2] = [None, None];
    // Counts come from the first repetition only, so they stay exact
    // whatever the number of repetitions the time window allows.
    let mut first_rep: Option<(SimStats, u64, u64)> = None;
    let (mut wrapped_ns, mut run_ns, mut accesses) = (0.0f64, 0.0f64, 0u64);
    let start = Instant::now();
    let mut reps = 0;
    // Another repetition starts only if it should end inside the budget.
    while reps < 2 || start.elapsed().as_secs_f64() * (reps + 1) as f64 / reps as f64 <= seconds {
        reps += 1;
        let (mut setup, mut run_s, mut rep_accesses) = (Duration::ZERO, 0.0, 0u64);
        canary.take();
        let mut rep_counts = (SimStats::new(16), 0u64, 0u64);
        let mut rep_periods: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for (i, app) in APPS.iter().enumerate() {
            let c = run_cell(app, seed, size, traced, &mut canary);
            let line = canonical(&c.sim);
            let expected = pins::sim_migrate(seed, app)
                .filter(|_| pinned)
                .map(str::to_string)
                .or_else(|| reference[i].clone());
            out.check(expected.as_deref().is_none_or(|e| e == line), || {
                format!("sim_migrate {app} seed {seed}: counters {line} != expected {expected:?}")
            });
            reference[i].get_or_insert(line);
            setup += c.t1 - c.t0;
            run_s += c.window.run_s;
            rep_periods[i].extend(c.window.calls.iter().map(|(a, b)| (*b - *a).as_secs_f64()));
            rep_accesses += c.sim.stats().accesses;
            rep_counts.0.add_delta(c.sim.stats());
            rep_counts.1 += c.sim.traffic().messages();
            rep_counts.2 += c.sim.traffic().byte_links();
            if let Some((calls, sampled, ns)) = c.timed {
                let per_call = (ns as f64 / sampled.max(1) as f64 - clock_ns).max(0.0);
                wrapped_ns += per_call * calls as f64;
                run_ns += c.window.run_s * 1e9;
                accesses += calls;
                tracer.record("sim_migrate.setup", c.t0, c.t1, None, None);
                let cell = tracer.record("sim_migrate.cell", c.t1, c.t2, None, None);
                for (a, b) in &c.window.calls {
                    tracer.record("simulator.run_with_migration", *a, *b, cell, None);
                }
            }
        }
        first_rep.get_or_insert(rep_counts);
        let taken = canary.take();
        let slowdown = canary::slowdown(taken);
        setups.push(setup.as_secs_f64() / slowdown);
        raw_setups.push(setup.as_secs_f64());
        walls.push(run_s);
        rates.push(rep_accesses as f64 / run_s);
        scaled_rates.push(rep_accesses as f64 * slowdown / run_s);
        canary_ms.push(slowdown * canary::NOMINAL_S * 1e3);
        for (all, rep) in periods.iter_mut().zip(rep_periods) {
            all.extend(rep.into_iter().map(|s| s / slowdown));
        }
    }

    out.e2e("setup_s", median(&setups), "s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.e2e("throughput_per_s", median(&scaled_rates), "1/s");
    // One migration period of each app: the median period, not a total,
    // so it is not the reciprocal of `throughput_per_s`.
    let period_pair: f64 = periods.iter().map(|p| median(p)).sum();
    out.e2e("latency_ms", period_pair * 1e3, "ms");
    out.detail("sim_steps_per_s", median(&rates), "1/s");
    out.detail("setup_raw_s", median(&raw_setups), "s");
    out.detail("run_pair_ms", median(&walls) * 1e3, "ms");
    out.detail("canary_burst_ms", median(&canary_ms), "ms");
    out.detail("reps", reps as f64, "count");

    if traced {
        let acc = accesses.max(1) as f64;
        out.layer("workloads.next_access_ns", wrapped_ns / acc, "ns");
        out.layer(
            "simulator.self_ns_per_access",
            (run_ns - wrapped_ns) / acc,
            "ns",
        );
        if let Some((stats, messages, byte_links)) = &first_rep {
            layer_counts(stats, *messages, *byte_links, out);
        }
    }
}

/// The deterministic per-layer counts, from the summed counters of the
/// first repetition's cells.
fn layer_counts(s: &SimStats, messages: u64, byte_links: u64, out: &mut Outcome) {
    let acc = s.accesses.max(1) as f64;
    let misses = s.l2_misses.max(1) as f64;
    out.layer("sim-mem.l1_hit_ratio", s.l1_hits as f64 / acc, "ratio");
    out.layer(
        "sim-mem.l2_misses_per_kacc",
        1e3 * s.l2_misses as f64 / acc,
        "1/kacc",
    );
    out.layer("sim-mem.retry_ratio", s.retries as f64 / misses, "ratio");
    out.layer(
        "sim-mem.writebacks_per_kacc",
        1e3 * s.writebacks as f64 / acc,
        "1/kacc",
    );
    out.layer("policy.snoops_per_miss", s.snoops as f64 / misses, "count");
    out.layer("vcpu_map.map_adds", s.map_adds as f64, "count");
    out.layer("vcpu_map.map_removes", s.map_removes as f64, "count");
    out.layer(
        "sim-net.messages_per_miss",
        messages as f64 / misses,
        "count",
    );
    out.layer(
        "sim-net.byte_links_per_miss",
        byte_links as f64 / misses,
        "count",
    );
}
