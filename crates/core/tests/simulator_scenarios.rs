//! Scenario tests of the simulator: configurations and policy corners the
//! experiment drivers don't exercise directly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_mem::BlockAddr;
use sim_net::TrafficStats;
use sim_vm::{VcpuId, VmId};
use vsnoop::{ContentPolicy, FilterPolicy, RemovalEvent, SimStats, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

fn workload(app: &str, cfg: &SystemConfig, sharing: bool) -> Workload {
    Workload::homogeneous(
        profile(app).expect("registered"),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            content_sharing: sharing,
            ..Default::default()
        },
    )
}

#[test]
fn zero_mesh_config_is_a_typed_error_not_an_abort() {
    let cfg = SystemConfig {
        mesh_width: 0,
        mesh_height: 0,
        ..SystemConfig::small_test()
    };
    match Simulator::try_new(cfg, FilterPolicy::TokenBroadcast, ContentPolicy::Broadcast) {
        Err(vsnoop::SimError::InvalidConfig(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("0x0"), "error must name the dimensions: {msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn undercommitted_machine_leaves_cores_idle() {
    // 2 VMs x 4 vCPUs on 16 cores: half the machine is idle.
    let cfg = SystemConfig {
        n_vms: 2,
        ..SystemConfig::paper_default()
    };
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl = workload("lu", &cfg, false);
    sim.run(&mut wl, 2_000);
    let s = sim.stats();
    // Only 8 of 16 core slots issue accesses per round.
    assert_eq!(s.accesses, s.rounds * 8);
    // Snoop domains are still 4 cores out of 16.
    assert_eq!(s.snoops, s.l2_misses * 4);
    assert!((0..16).all(|b| sim.check_invariant(BlockAddr::new(b))));
}

#[test]
fn sixteen_vms_of_one_vcpu_filter_maximally() {
    // The scaling limit the conclusion argues for: tiny VMs, huge savings.
    let cfg = SystemConfig {
        n_vms: 16,
        vcpus_per_vm: 1,
        ..SystemConfig::paper_default()
    };
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl = workload("cholesky", &cfg, false);
    sim.run(&mut wl, 2_000);
    let s = sim.stats();
    // Single-core domains: the only lookup is the requester's own.
    assert_eq!(s.snoops, s.l2_misses);
    assert_eq!(s.retries, 0);
}

#[test]
fn memory_direct_routes_content_misses_to_memory() {
    let cfg = SystemConfig::paper_default();
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::MemoryDirect);
    let mut wl = workload("canneal", &cfg, true);
    sim.run(&mut wl, 8_000);
    let s = sim.stats();
    assert!(s.misses_ro_shared > 0, "content misses expected");
    // Content misses snoop zero caches, so total snoops fall below the
    // all-private count of 4 per transaction.
    assert!(s.snoops < s.l2_misses * 4);
    // Memory supplies a large share of the data.
    assert!(s.data_memory > 0);
}

#[test]
fn friend_vm_extends_the_domain_for_content_pages_only() {
    let cfg = SystemConfig::paper_default();
    let mut intra = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::IntraVm);
    let mut wl_a = workload("blackscholes", &cfg, true);
    intra.run(&mut wl_a, 8_000);
    let mut friend = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::FriendVm);
    let mut wl_b = workload("blackscholes", &cfg, true);
    friend.run(&mut wl_b, 8_000);
    // Friend-VM snoops strictly more than intra-VM (8-core unions vs 4)...
    assert!(friend.stats().snoops > intra.stats().snoops);
    // ...but still less than broadcasting content misses.
    let mut bc = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl_c = workload("blackscholes", &cfg, true);
    bc.run(&mut wl_c, 8_000);
    assert!(friend.stats().snoops < bc.stats().snoops);
}

#[test]
fn map_sync_messages_are_charged_for_relocations() {
    let cfg = SystemConfig::paper_default();
    let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    let mut wl = workload("ocean", &cfg, false);
    sim.run(&mut wl, 2_000);
    let before = sim.traffic().messages_of(sim_net::MessageKind::MapUpdate);
    sim.swap_vcpus(VcpuId::new(VmId::new(0), 1), VcpuId::new(VmId::new(2), 3))
        .unwrap();
    let after = sim.traffic().messages_of(sim_net::MessageKind::MapUpdate);
    assert!(
        after > before,
        "vCPU-map synchronization must put update messages on the network"
    );
    assert_eq!(sim.stats().map_adds, 2);
}

#[test]
fn counter_threshold_retries_recover_from_premature_removal() {
    // An absurdly aggressive threshold removes cores that still hold
    // tokens; correctness must be preserved via retries/broadcasts.
    let cfg = SystemConfig::paper_default();
    let mut sim = Simulator::new(
        cfg,
        FilterPolicy::CounterThreshold { threshold: 100_000 },
        ContentPolicy::Broadcast,
    );
    let mut wl = workload("radix", &cfg, false);
    sim.run(&mut wl, 1_000);
    // Shuffle a few vCPUs around; with the huge threshold every departure
    // instantly removes the old core even though its lines remain.
    for i in 0..4u16 {
        sim.swap_vcpus(
            VcpuId::new(VmId::new(0), i % 4),
            VcpuId::new(VmId::new(1 + i % 3), i % 4),
        )
        .unwrap();
        sim.run(&mut wl, 2_000);
    }
    let s = sim.stats();
    assert!(s.map_removes > 0, "aggressive threshold must remove cores");
    assert!(
        s.retries > 0 || s.broadcast_fallbacks > 0,
        "premature removals must surface as retries"
    );
    // Despite the chaos, every access completed and tokens are conserved.
    assert_eq!(s.l1_hits + s.l2_hits + s.l2_misses, s.accesses);
    for b in 0..20_000u64 {
        assert!(sim.check_invariant(BlockAddr::new(b)), "block {b}");
    }
}

#[test]
fn larger_meshes_validate_and_filter_proportionally() {
    // An 8x4 machine with 8 VMs: domains are 1/8 of the machine.
    let cfg = SystemConfig {
        mesh_width: 8,
        mesh_height: 4,
        n_vms: 8,
        ..SystemConfig::paper_default()
    };
    cfg.validate().expect("valid 32-core configuration");
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl = workload("ferret", &cfg, false);
    sim.run(&mut wl, 1_500);
    let s = sim.stats();
    assert_eq!(s.snoops, s.l2_misses * 4, "4-core domains on 32 cores");
    // 4/32 = 12.5% of the baseline's 32 lookups.
    let norm = s.snoops as f64 / (s.l2_misses * 32) as f64;
    assert!((norm - 0.125).abs() < 1e-9);
}

/// A seeded cross-VM vCPU picker that ignores the migration index, so
/// its sequence does not depend on how a run is split into calls.
fn cross_vm_picker(cfg: SystemConfig, seed: u64) -> impl FnMut(u64) -> (VcpuId, VcpuId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    move |_| {
        let vm_a = rng.gen_range(0..cfg.n_vms);
        let vm_b = (vm_a + rng.gen_range(1..cfg.n_vms)) % cfg.n_vms;
        let vcpu = |vm: usize, rng: &mut SmallRng| {
            VcpuId::new(VmId::new(vm as u16), rng.gen_range(0..cfg.vcpus_per_vm))
        };
        (vcpu(vm_a, &mut rng), vcpu(vm_b, &mut rng))
    }
}

/// Everything a run can change that the paper's metrics read: the
/// statistics, the network traffic, the removal log, every cached line
/// (`arch_state`), the L2 residence order and the per-VM residence
/// counters.
#[derive(PartialEq, Debug)]
struct Observables {
    stats: SimStats,
    traffic: TrafficStats,
    removals: Vec<RemovalEvent>,
    arch_state: String,
    l2_lines: Vec<Vec<BlockAddr>>,
    residence: Vec<u64>,
    cycle: u64,
}

fn observables(sim: &Simulator) -> Observables {
    let cfg = sim.config();
    let cores = 0..cfg.n_cores();
    Observables {
        stats: sim.stats().clone(),
        traffic: *sim.traffic(),
        removals: sim.removal_log().to_vec(),
        arch_state: sim.arch_state(),
        l2_lines: cores.clone().map(|c| sim.debug_l2_lines(c)).collect(),
        residence: cores
            .flat_map(|c| {
                (0..cfg.n_vms).map(move |vm| sim.debug_residence(c, VmId::new(vm as u16)))
            })
            .collect(),
        cycle: sim.cycle(),
    }
}

#[test]
fn run_matches_migration_run_whose_period_outlasts_it() {
    let cfg = SystemConfig::paper_default();
    let start = || {
        let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
        let mut wl = workload("ocean", &cfg, false);
        // A short storm first (a swap every 1 000 rounds), so the compared
        // window starts from shuffled placements and shrinking maps.
        let storm_period = 1_000 * cfg.cycles_per_access;
        sim.run_with_migration(&mut wl, 4_000, storm_period, cross_vm_picker(cfg, 7));
        assert!(sim.stats().map_adds > 0, "the warm-up storm must migrate");
        (sim, wl)
    };
    let rounds = 3_000;
    let (mut plain, mut wl_plain) = start();
    plain.run(&mut wl_plain, rounds);
    let (mut never, mut wl_never) = start();
    let outlasting = rounds * cfg.cycles_per_access + 1;
    never.run_with_migration(&mut wl_never, rounds, outlasting, |_| {
        panic!("no migration is due within the run")
    });
    assert_eq!(observables(&plain), observables(&never));
}

#[test]
fn one_period_calls_replay_one_long_migration_run() {
    let cfg = SystemConfig::paper_default();
    let period = cfg.cycles_per_ms / 10;
    assert_eq!(period % cfg.cycles_per_access, 0, "period is whole rounds");
    let per_call = period / cfg.cycles_per_access;
    let k = 8;
    let fresh = || {
        let sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
        (sim, workload("ocean", &cfg, false))
    };

    let (mut long, mut wl_long) = fresh();
    long.run_with_migration(&mut wl_long, k * per_call, period, cross_vm_picker(cfg, 11));

    let (mut split, mut wl_split) = fresh();
    let mut pick = cross_vm_picker(cfg, 11);
    for _ in 0..k {
        split.run_with_migration(&mut wl_split, per_call, period, &mut pick);
    }

    assert!(long.stats().map_adds > 0, "the storm must migrate");
    assert_eq!(observables(&long), observables(&split));
}
