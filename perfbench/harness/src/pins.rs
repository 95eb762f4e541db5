//! Expected outputs pinned for the default seed and one held-out seed.
//! Other seeds are checked for agreement between the repetitions of a
//! run.

/// Seed the benchmark uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, with its outputs pinned too.
pub const HELD_OUT_SEED: u64 = 2;

/// `sim_migrate` counters (see `sim_migrate::canonical`) at the full
/// cell size, by `(seed, app)`.
const SIM_MIGRATE: &[(u64, &str, &str)] = &[
    (1, "ocean", "rounds=400000,accesses=6400000,l1_hits=5608256,l2_hits=268830,l2_misses=522914,snoops=2615360,retries=0,broadcast_fallbacks=0,persistent_requests=0,degraded_broadcasts=0,map_repairs=0,misses_guest=522914,misses_dom0=0,misses_hyp=0,misses_private=522914,misses_rw_shared=0,misses_ro_shared=0,content_accesses=0,holders_any_cache=0,holders_intra_vm=0,holders_friend_vm=0,holders_memory=0,data_intra_vm=84861,data_other_vm=0,data_memory=382379,writebacks=347382,map_adds=14,map_removes=8,stall_cycles=3077310/3045679/3122059/3232477/2891691/3135114/3278954/3388939/3205270/3239744/3121435/3064425/3241969/3060193/2993106/3147073,byte_links=113304872"),
    (1, "blackscholes", "rounds=400000,accesses=6400000,l1_hits=5851145,l2_hits=481575,l2_misses=67280,snoops=384167,retries=0,broadcast_fallbacks=0,persistent_requests=0,degraded_broadcasts=0,map_repairs=0,misses_guest=67280,misses_dom0=0,misses_hyp=0,misses_private=67280,misses_rw_shared=0,misses_ro_shared=0,content_accesses=0,holders_any_cache=0,holders_intra_vm=0,holders_friend_vm=0,holders_memory=0,data_intra_vm=40424,data_other_vm=0,data_memory=8774,writebacks=776,map_adds=14,map_removes=0,stall_cycles=237134/132999/235330/317846/110026/106973/207922/547656/312532/215755/109211/240107/315420/129194/119669/280192,byte_links=16694752"),
    (2, "ocean", "rounds=400000,accesses=6400000,l1_hits=5608005,l2_hits=268514,l2_misses=523481,snoops=2639435,retries=0,broadcast_fallbacks=0,persistent_requests=0,degraded_broadcasts=0,map_repairs=0,misses_guest=523481,misses_dom0=0,misses_hyp=0,misses_private=523481,misses_rw_shared=0,misses_ro_shared=0,content_accesses=0,holders_any_cache=0,holders_intra_vm=0,holders_friend_vm=0,holders_memory=0,data_intra_vm=85674,data_other_vm=0,data_memory=381685,writebacks=346625,map_adds=16,map_removes=10,stall_cycles=3020711/3239210/2943362/3079084/2940564/3361947/3354235/3123965/3082749/3205243/3312545/2965818/3263259/2949652/2966646/3143022,byte_links=110197520"),
    (2, "blackscholes", "rounds=400000,accesses=6400000,l1_hits=5850721,l2_hits=480782,l2_misses=68497,snoops=398773,retries=0,broadcast_fallbacks=0,persistent_requests=0,degraded_broadcasts=0,map_repairs=0,misses_guest=68497,misses_dom0=0,misses_hyp=0,misses_private=68497,misses_rw_shared=0,misses_ro_shared=0,content_accesses=0,holders_any_cache=0,holders_intra_vm=0,holders_friend_vm=0,holders_memory=0,data_intra_vm=41316,data_other_vm=0,data_memory=8991,writebacks=1004,map_adds=15,map_removes=0,stall_cycles=127755/372560/119244/254249/114865/301605/264661/256192/244188/118291/299022/120536/417539/114164/118333/256182,byte_links=15707984"),
];

/// FNV-1a digests of each `campaign_quick` artifact's report text at
/// `RunScale::quick()`, by `(seed, artifact)`.
const CAMPAIGN: &[(u64, &str, &str)] = &[
    (1, "fig1", "a375debb19e99d8d"),
    (1, "fig2", "cf8b60db9d0d6f39"),
    (1, "fig2_validation", "ce9546acd80c87e5"),
    (1, "fig3", "db938ea35df668e9"),
    (1, "table1", "746db7de0e1f1749"),
    (1, "table2", "51750459530602d6"),
    (1, "table3", "0cdd77aa08d8419f"),
    (1, "table4", "2e2353f241c7694b"),
    (1, "fig6", "4d01aef671ea4e64"),
    (1, "table5", "8b43bd49c6fe7650"),
    (1, "fig10", "ea978844dcae35da"),
    (1, "table6", "b8a359ad4451c808"),
    (2, "fig1", "4e39d767695711dd"),
    (2, "fig2", "cf8b60db9d0d6f39"),
    (2, "fig2_validation", "bb2aa9e45535f10d"),
    (2, "fig3", "db938ea35df668e9"),
    (2, "table1", "746db7de0e1f1749"),
    (2, "table2", "51750459530602d6"),
    (2, "table3", "0cdd77aa08d8419f"),
    (2, "table4", "76194aea126fb294"),
    (2, "fig6", "cc93addd9e8c52d5"),
    (2, "table5", "f1a55b11d84d4988"),
    (2, "fig10", "055e3e93f83450a4"),
    (2, "table6", "cbce6553434d4cc7"),
];

/// Whether `seed` has pinned outputs (otherwise a run checks its
/// repetitions against each other).
pub fn pinned(seed: u64) -> bool {
    seed == DEFAULT_SEED || seed == HELD_OUT_SEED
}

pub fn sim_migrate(seed: u64, app: &str) -> Option<&'static str> {
    SIM_MIGRATE
        .iter()
        .find(|(s, a, _)| *s == seed && *a == app)
        .map(|e| e.2)
}

pub fn campaign(seed: u64, artifact: &str) -> Option<&'static str> {
    CAMPAIGN
        .iter()
        .find(|(s, a, _)| *s == seed && *a == artifact)
        .map(|e| e.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_held_out_seeds_are_fully_pinned() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for app in crate::sim_migrate::APPS {
                assert!(sim_migrate(seed, app).is_some(), "{seed}/{app}");
            }
            for artifact in crate::campaign::artifacts() {
                assert!(campaign(seed, &artifact).is_some(), "{seed}/{artifact}");
            }
        }
        assert_eq!(sim_migrate(3, "ocean"), None);
    }
}
