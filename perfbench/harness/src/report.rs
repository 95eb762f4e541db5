//! What one workload run hands back to `main`: its metrics, its
//! operation counts, and any output check that failed.

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The declared end-to-end metrics (`BENCHMARK.json` names).
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end figures under their workload-specific
    /// names (printed and saved, not part of the final line).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operations attempted and failed (wrong, refused or unanswered).
    pub attempted: u64,
    pub failed: u64,
    /// One message per failed output check.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.e2e, name, value, unit);
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.detail, name, value, unit);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.layers, name, value, unit);
    }

    /// Records an output check: counts one attempted operation, and a
    /// failure with `msg` when `ok` is false.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(msg());
            }
        }
    }

    /// Value of a layer metric already recorded under `name`.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// `VmHWM` of this process in MiB (0.0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    vsnoop_bench::service_load::peak_rss_bytes() as f64 / (1u64 << 20) as f64
}
