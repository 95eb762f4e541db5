//! The host-speed canary.
//!
//! On a shared host the machine's speed drifts by tens of percent over a
//! few seconds, as other tenants contend for the shared cache; a
//! thread's CPU time drifts with its wall time, so neither hides it. The
//! canary is a fixed, program-independent unit of work run between
//! measured steps: its time tracks the host's current speed, and a
//! workload's timings are scaled to a reference host on which one burst
//! takes [`NOMINAL_S`]. The canary is harness code, so a change to the
//! program moves the scaled figures exactly as it moves the raw ones.

use std::time::Instant;

/// Burst time on the reference host the scaled metrics refer to.
pub const NOMINAL_S: f64 = 0.004;

/// Random read-modify-writes over an 8 MiB table, which, like the
/// simulator's own state, lives beyond the per-core L2 and so feels the
/// shared-cache contention behind the drift.
pub struct Canary {
    table: Vec<u64>,
    x: u64,
    /// Total burst time, seconds, and the number of bursts.
    total_s: f64,
    bursts: u32,
}

impl Canary {
    pub fn new() -> Self {
        Canary {
            table: (0..1u64 << 20)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            x: 0x2545_F491_4F6C_DD1D,
            total_s: 0.0,
            bursts: 0,
        }
    }

    /// Runs one burst and returns its wall time in seconds.
    pub fn burst(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..300_000 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let i = self.x as usize & mask;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        std::hint::black_box(acc);
        let s = t.elapsed().as_secs_f64();
        self.total_s += s;
        self.bursts += 1;
        s
    }

    /// Burst time and count since the last call, then starts afresh.
    pub fn take(&mut self) -> (f64, u32) {
        let taken = (self.total_s, self.bursts);
        self.total_s = 0.0;
        self.bursts = 0;
        taken
    }
}

/// How much slower than the reference host the bursts in `taken` ran
/// (> 1 on a slower host).
pub fn slowdown((total_s, bursts): (f64, u32)) -> f64 {
    if bursts == 0 {
        1.0
    } else {
        total_s / f64::from(bursts) / NOMINAL_S
    }
}
