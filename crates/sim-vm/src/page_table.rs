//! Page sharing types, the hypervisor's sharing directory, and the TLB view.
//!
//! Section IV-A of the paper: "Memory pages can be used by only a VM or
//! shared among VMs and the hypervisor. Depending on the sharing types of
//! pages, coherence requests are either multicast within a VM [...] or
//! broadcast to all the cores. The types of pages [...] are recorded in
//! unused bits in page table entries" and "the page sharing type bits
//! (2 bits) must also be in the TLB to find the sharing type directly for
//! every coherence transaction."
//!
//! The [`SharingDirectory`] models the authoritative per-page sharing state
//! stored in shadow/nested page tables (only the hypervisor mutates it), and
//! [`TypeTlb`] models the per-core cached copy consulted on every coherence
//! transaction.

use crate::ids::VmId;

/// The sharing type of a host-physical page, as virtual snooping
/// distinguishes them (Section IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SharingType {
    /// Used by exactly one VM. Snoop requests are multicast within the VM's
    /// vCPU map.
    #[default]
    VmPrivate,
    /// Writable sharing between a VM and the hypervisor (I/O rings,
    /// hypervisor code/data) or between VMs (inter-VM channels). Requests
    /// must always be broadcast.
    RwShared,
    /// Read-only content-based sharing across VMs (copy-on-write). The
    /// memory always holds a clean copy, enabling the memory-direct /
    /// intra-VM / friend-VM optimizations of Section VI.
    RoShared,
}

impl SharingType {
    /// Encodes the sharing type into the two unused page-table-entry bits
    /// the paper reserves.
    pub const fn encode(self) -> u8 {
        match self {
            SharingType::VmPrivate => 0b00,
            SharingType::RwShared => 0b01,
            SharingType::RoShared => 0b10,
        }
    }

    /// Decodes a two-bit page-table encoding.
    ///
    /// Returns `None` for the reserved encoding `0b11`.
    pub const fn decode(bits: u8) -> Option<Self> {
        match bits {
            0b00 => Some(SharingType::VmPrivate),
            0b01 => Some(SharingType::RwShared),
            0b10 => Some(SharingType::RoShared),
            _ => None,
        }
    }
}

/// Authoritative per-page sharing state plus owning VM, maintained by the
/// hypervisor in shadow / nested page tables.
///
/// Pages that were never registered default to [`SharingType::VmPrivate`]
/// with no recorded owner; experiments always register the pools they use.
///
/// Entries live in a flat table indexed by host page number, so a lookup
/// is one bounds check and one load. This relies on pages being dense
/// from 0, as [`MemoryMap`](crate::MemoryMap)'s bump allocator hands them
/// out: registering page `p` grows the table to `p + 1` slots.
///
/// # Examples
///
/// ```
/// use sim_vm::{SharingDirectory, SharingType, VmId};
///
/// let mut dir = SharingDirectory::new();
/// dir.register(100, SharingType::VmPrivate, Some(VmId::new(1)));
/// dir.register(200, SharingType::RwShared, None);
/// assert_eq!(dir.sharing(100), SharingType::VmPrivate);
/// assert_eq!(dir.owner(100), Some(VmId::new(1)));
/// assert_eq!(dir.sharing(200), SharingType::RwShared);
/// assert_eq!(dir.sharing(999), SharingType::VmPrivate); // default
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharingDirectory {
    /// Slot `p` holds page `p`'s entry, `None` if it was never registered.
    entries: Vec<Option<PageInfo>>,
    /// Number of `Some` slots.
    registered: usize,
    /// Monotonic version, bumped on every mutation; TLBs use it to discard
    /// stale cached types (modelling the TLB shoot-down the hypervisor must
    /// perform when it changes a page's sharing bits).
    version: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PageInfo {
    sharing: SharingType,
    owner: Option<VmId>,
}

impl SharingDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        SharingDirectory::default()
    }

    /// Registers (or re-registers) a page with a sharing type and an
    /// optional owning VM.
    pub fn register(&mut self, page: u64, sharing: SharingType, owner: Option<VmId>) {
        let idx = page as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        let slot = &mut self.entries[idx];
        if slot.is_none() {
            self.registered += 1;
        }
        *slot = Some(PageInfo { sharing, owner });
        self.version += 1;
    }

    fn entry(&self, page: u64) -> Option<PageInfo> {
        self.entries.get(page as usize).copied().flatten()
    }

    /// Returns the sharing type of `page` (default: VM-private).
    pub fn sharing(&self, page: u64) -> SharingType {
        self.entry(page)
            .map_or(SharingType::default(), |e| e.sharing)
    }

    /// Returns the VM recorded as owner of `page`, if any. Shared pages
    /// have no single owner.
    pub fn owner(&self, page: u64) -> Option<VmId> {
        self.entry(page).and_then(|e| e.owner)
    }

    /// Returns the current mutation version (used for TLB invalidation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns the number of distinct registered pages.
    pub fn len(&self) -> usize {
        self.registered
    }

    /// Returns `true` if no page has been registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }
}

/// Statistics of a [`TypeTlb`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TlbStats {
    /// Lookups that hit a valid cached entry.
    pub hits: u64,
    /// Lookups that had to walk the sharing directory.
    pub misses: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-core, direct-mapped cache of page sharing types.
///
/// Real hardware finds the two sharing bits in the TLB entry during address
/// translation; this model exists to measure how often the bits would be
/// available without a page walk, and to force directory consultation after
/// hypervisor updates.
#[derive(Clone, Debug)]
pub struct TypeTlb {
    slots: Vec<Option<TlbEntry>>,
    /// `slots.len() - 1`; the slot count is a power of two.
    index_mask: usize,
    seen_version: u64,
    stats: TlbStats,
}

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    page: u64,
    sharing: SharingType,
}

impl TypeTlb {
    /// Creates a TLB with `slots` direct-mapped entries.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or not a power of two.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "TLB needs at least one slot");
        assert!(
            slots.is_power_of_two(),
            "TLB slot count must be a power of two (got {slots})"
        );
        TypeTlb {
            slots: vec![None; slots],
            index_mask: slots - 1,
            seen_version: 0,
            stats: TlbStats::default(),
        }
    }

    /// Looks up the sharing type of `page`, filling from `dir` on a miss.
    ///
    /// If the directory has been mutated since the last lookup, all cached
    /// entries are discarded first (a conservative global shoot-down).
    pub fn lookup(&mut self, page: u64, dir: &SharingDirectory) -> SharingType {
        if dir.version() != self.seen_version {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.seen_version = dir.version();
        }
        let idx = page as usize & self.index_mask;
        if let Some(e) = self.slots[idx] {
            if e.page == page {
                self.stats.hits += 1;
                return e.sharing;
            }
        }
        self.stats.misses += 1;
        let sharing = dir.sharing(page);
        self.slots[idx] = Some(TlbEntry { page, sharing });
        sharing
    }

    /// Returns lookup statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for t in [
            SharingType::VmPrivate,
            SharingType::RwShared,
            SharingType::RoShared,
        ] {
            assert_eq!(SharingType::decode(t.encode()), Some(t));
        }
        assert_eq!(SharingType::decode(0b11), None);
        // The encoding fits in two bits.
        assert!(SharingType::RoShared.encode() < 4);
    }

    #[test]
    fn directory_defaults_to_private() {
        let dir = SharingDirectory::new();
        assert_eq!(dir.sharing(12345), SharingType::VmPrivate);
        assert_eq!(dir.owner(12345), None);
        assert!(dir.is_empty());
    }

    #[test]
    fn directory_register_and_update() {
        let mut dir = SharingDirectory::new();
        dir.register(7, SharingType::RwShared, None);
        assert_eq!(dir.sharing(7), SharingType::RwShared);
        let v = dir.version();
        dir.register(7, SharingType::RoShared, None);
        assert_eq!(dir.sharing(7), SharingType::RoShared);
        assert!(dir.version() > v, "mutation must bump the version");
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn tlb_hits_after_first_walk() {
        let mut dir = SharingDirectory::new();
        dir.register(3, SharingType::RoShared, None);
        let mut tlb = TypeTlb::new(16);
        assert_eq!(tlb.lookup(3, &dir), SharingType::RoShared);
        assert_eq!(tlb.lookup(3, &dir), SharingType::RoShared);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
        assert!(tlb.stats().hit_rate() > 0.49);
    }

    #[test]
    fn tlb_invalidated_by_directory_mutation() {
        let mut dir = SharingDirectory::new();
        dir.register(3, SharingType::VmPrivate, Some(VmId::new(0)));
        let mut tlb = TypeTlb::new(16);
        assert_eq!(tlb.lookup(3, &dir), SharingType::VmPrivate);
        // Hypervisor flips the page to content-shared.
        dir.register(3, SharingType::RoShared, None);
        assert_eq!(tlb.lookup(3, &dir), SharingType::RoShared);
        assert_eq!(tlb.stats().misses, 2, "stale entry must not be served");
    }

    #[test]
    fn tlb_conflict_misses() {
        let dir = SharingDirectory::new();
        let mut tlb = TypeTlb::new(4);
        // Pages 0 and 4 conflict in a 4-slot direct-mapped TLB.
        tlb.lookup(0, &dir);
        tlb.lookup(4, &dir);
        tlb.lookup(0, &dir);
        assert_eq!(tlb.stats().misses, 3);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_tlb_rejected() {
        let _ = TypeTlb::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two (got 48)")]
    fn non_power_of_two_tlb_rejected() {
        let _ = TypeTlb::new(48);
    }

    #[test]
    fn directory_len_counts_distinct_pages() {
        let mut dir = SharingDirectory::new();
        dir.register(5, SharingType::VmPrivate, Some(VmId::new(0)));
        dir.register(2, SharingType::RwShared, None);
        dir.register(5, SharingType::RoShared, None);
        dir.register(2, SharingType::VmPrivate, Some(VmId::new(1)));
        // Slots 0, 1, 3 and 4 exist in the table but were never registered.
        assert_eq!(dir.len(), 2);
        assert!(!dir.is_empty());
        assert_eq!(dir.owner(0), None);
        assert_eq!(dir.sharing(3), SharingType::VmPrivate);
    }

    #[test]
    fn lookups_past_the_last_page_use_defaults() {
        let mut dir = SharingDirectory::new();
        dir.register(9, SharingType::RwShared, None);
        for page in [10, 11, 1 << 20, u64::MAX] {
            assert_eq!(dir.sharing(page), SharingType::VmPrivate);
            assert_eq!(dir.owner(page), None);
        }
    }

    #[test]
    fn cloned_directory_is_independent() {
        let mut dir = SharingDirectory::new();
        dir.register(1, SharingType::VmPrivate, Some(VmId::new(2)));
        let mut copy = dir.clone();
        copy.register(1, SharingType::RoShared, None);
        copy.register(4, SharingType::RwShared, None);
        assert_eq!(dir.sharing(1), SharingType::VmPrivate);
        assert_eq!(dir.owner(1), Some(VmId::new(2)));
        assert_eq!(dir.sharing(4), SharingType::VmPrivate);
        assert_eq!(dir.len(), 1);
        assert_eq!(copy.len(), 2);
        assert!(copy.version() > dir.version());
        dir.register(7, SharingType::RwShared, None);
        assert_eq!(copy.sharing(7), SharingType::VmPrivate);
    }
}
