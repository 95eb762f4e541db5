//! Golden digests of the synthetic access stream.
//!
//! Each case drives a [`Workload`] for 20k accesses over a fixed,
//! interleaved vCPU schedule and folds every `(agent, addr, write)` into
//! an FNV-1a digest, then folds the final sharing type and owner of every
//! allocated page. The pinned values were taken from the generator before
//! its per-vCPU burst state and the sharing directory moved to dense
//! arrays; any drift in the RNG draw order, the burst bookkeeping, the
//! copy-on-write path or the directory contents changes them.
//!
//! These cases cover paths the simulator-level pins never reach: a
//! heterogeneous VM mix, hypervisor/dom0 slots, the content dedup scan,
//! and copy-on-write breaks that grow the directory past its initial
//! pages.

use sim_vm::{Agent, VcpuId, VmId};
use workloads::{profile, AccessStream, AppProfile, Workload, WorkloadConfig};

const ACCESSES: u64 = 20_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of the first [`ACCESSES`] accesses plus the final directory.
fn digest(wl: &mut Workload) -> u64 {
    let n_vms = wl.n_vms() as u64;
    let vcpus = u64::from(wl.vcpus_per_vm());
    let mut h = Fnv::new();
    for i in 0..ACCESSES {
        // Interleave VMs and vCPUs irregularly so several reuse bursts are
        // in flight at once.
        let vm = (i * 7 + i / 5) % n_vms;
        let idx = (i * 3 + i / 11) % vcpus;
        let a = wl.next_access(VcpuId::new(VmId::new(vm as u16), idx as u16));
        let agent = match a.agent {
            Agent::Guest(v) => ((v.vm().index() as u64) << 16) | v.index() as u64,
            Agent::Dom0 => 1 << 40,
            Agent::Hypervisor => 2 << 40,
        };
        h.eat(agent);
        h.eat(a.addr);
        h.eat(u64::from(a.write));
    }
    let dir = wl.directory();
    h.eat(dir.len() as u64);
    for page in 0..wl.allocated_pages() {
        h.eat(u64::from(dir.sharing(page).encode()));
        h.eat(dir.owner(page).map_or(u64::MAX, |vm| vm.index() as u64));
    }
    h.0
}

fn app(name: &str) -> &'static AppProfile {
    profile(name).unwrap_or_else(|| panic!("unknown profile {name}"))
}

#[test]
fn heterogeneous_mix_stream_is_pinned() {
    let mut wl = Workload::new(
        vec![
            app("ocean"),
            app("blackscholes"),
            app("SPECweb"),
            app("radix"),
        ],
        WorkloadConfig {
            seed: 1,
            ..Default::default()
        },
    );
    assert_eq!(digest(&mut wl), 16351036368068532999);
}

#[test]
fn host_activity_stream_is_pinned() {
    let mut wl = Workload::new(
        vec![app("SPECweb"), app("canneal"), app("SPECweb")],
        WorkloadConfig {
            seed: 2,
            host_activity: true,
            ..Default::default()
        },
    );
    assert_eq!(digest(&mut wl), 8496938865369854086);
}

#[test]
fn content_sharing_stream_is_pinned() {
    let cfg = WorkloadConfig {
        seed: 3,
        content_sharing: true,
        ..Default::default()
    };
    let mut wl = Workload::homogeneous(app("blackscholes"), 4, cfg);
    assert_eq!(digest(&mut wl), 14132514463253008787);
}

#[test]
fn copy_on_write_stream_is_pinned() {
    // The calibrated profiles never store to the content pool; this one
    // does, so CoW breaks register fresh pages past the initial layout.
    let mut custom = *app("canneal");
    custom.trace.content_write_frac = 0.05;
    let custom: &'static AppProfile = Box::leak(Box::new(custom));
    let cfg = WorkloadConfig {
        seed: 4,
        host_activity: true,
        content_sharing: true,
        ..Default::default()
    };
    let mut wl = Workload::new(vec![custom, app("ocean"), custom], cfg);
    assert_eq!(digest(&mut wl), 14626277910799040005);
    assert!(
        wl.content().cow_events() > 0,
        "the case must exercise copy-on-write"
    );
}
