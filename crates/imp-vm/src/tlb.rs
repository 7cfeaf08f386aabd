//! A set-associative, true-LRU translation lookaside buffer.

use imp_common::{Addr, TlbStats};

/// One TLB entry: a cached VPN → PPN mapping, tagged with the page
/// shift it was installed at (a unified TLB can cache translations of
/// more than one page size; entries of different sizes never match each
/// other).
#[derive(Clone, Copy, Debug)]
struct Entry {
    vpn: u64,
    ppn: u64,
    /// Page shift this entry translates at (`vpn == vaddr >> shift`).
    shift: u32,
    /// Monotonic last-use stamp; the smallest stamp in a set is the LRU
    /// victim.
    stamp: u64,
    valid: bool,
}

const INVALID: Entry = Entry {
    vpn: 0,
    ppn: 0,
    shift: 0,
    stamp: 0,
    valid: false,
};

/// A set-associative LRU TLB caching page translations.
///
/// Every operation takes the page `shift` it translates at: the virtual
/// page number (`vaddr >> shift`) indexes a set (modulo), and a full-VPN
/// tag match within the set is a hit. Entries are *size-tagged*, so one
/// structure can cache translations of several page sizes side by side
/// without ever cross-matching (the shared L2 TLB holds 4 KB and 2 MB
/// entries, x86 STLB-style). Replacement is true LRU per set, tracked
/// with a monotonic use stamp. Hit/miss/eviction/cold-fill counters
/// accumulate into an [`imp_common::TlbStats`] owned by the TLB.
///
/// ```
/// use imp_vm::Tlb;
/// use imp_common::Addr;
///
/// let mut tlb = Tlb::new(2, 2);
/// assert_eq!(tlb.lookup(Addr::new(0x1234), 12), None); // cold miss
/// tlb.fill(Addr::new(0x1234), 0x7, 12); // 4 KB VPN 1 -> PPN 7
/// assert_eq!(tlb.lookup(Addr::new(0x1FFF), 12), Some(Addr::new(0x7FFF)));
/// assert_eq!(tlb.stats().hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Flat set-stride entry array: set `s`, way `w` lives at
    /// `s * ways + w`. Way order within a set is stable (entries never
    /// move), so LRU tie-breaks match the old per-set `Vec` layout.
    entries: Vec<Entry>,
    num_sets: usize,
    ways: usize,
    next_stamp: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero (validate with
    /// [`crate::validate_config`] first when the values come from user
    /// configuration).
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "TLB needs at least one entry");
        Tlb {
            entries: vec![INVALID; sets as usize * ways as usize],
            num_sets: sets as usize,
            ways: ways as usize,
            next_stamp: 1,
            stats: TlbStats::default(),
        }
    }

    /// Start of `vpn`'s set in the flat entry array.
    #[inline]
    fn set_base(&self, vpn: u64) -> usize {
        (vpn % self.num_sets as u64) as usize * self.ways
    }

    /// The ways of `vpn`'s set, in way order.
    #[inline]
    fn set_slice(&self, vpn: u64) -> &[Entry] {
        let base = self.set_base(vpn);
        &self.entries[base..base + self.ways]
    }

    /// Mutable view of the ways of `vpn`'s set, in way order.
    #[inline]
    fn set_slice_mut(&mut self, vpn: u64) -> &mut [Entry] {
        let base = self.set_base(vpn);
        &mut self.entries[base..base + self.ways]
    }

    /// Looks `vaddr` up at page `shift`, updating LRU order and
    /// hit/miss counters. Returns the translated physical address on a
    /// hit.
    pub fn lookup(&mut self, vaddr: Addr, shift: u32) -> Option<Addr> {
        match self.probe_update(vaddr, shift) {
            Some(p) => {
                self.stats.hits += 1;
                Some(p)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks `vaddr` up for a prefetch at page `shift`, updating LRU
    /// order and the prefetch-hit counter on a hit (misses are counted
    /// by the caller according to its translation policy).
    pub fn prefetch_lookup(&mut self, vaddr: Addr, shift: u32) -> Option<Addr> {
        let hit = self.probe_update(vaddr, shift);
        if hit.is_some() {
            self.stats.prefetch_hits += 1;
        }
        hit
    }

    /// Tag-matches and refreshes LRU without touching any counter.
    #[inline]
    fn probe_update(&mut self, vaddr: Addr, shift: u32) -> Option<Addr> {
        let vpn = vaddr.raw() >> shift;
        let stamp = self.next_stamp;
        let mut ppn = None;
        for e in self.set_slice_mut(vpn) {
            if e.valid && e.vpn == vpn && e.shift == shift {
                e.stamp = stamp;
                ppn = Some(e.ppn);
                break;
            }
        }
        if ppn.is_some() {
            self.next_stamp += 1;
        }
        ppn.map(|p| crate::splice_ppn(vaddr, p, shift))
    }

    /// True if `vaddr`'s page is resident at page `shift` (no LRU
    /// update, no counters).
    pub fn contains(&self, vaddr: Addr, shift: u32) -> bool {
        let vpn = vaddr.raw() >> shift;
        self.set_slice(vpn)
            .iter()
            .any(|e| e.valid && e.vpn == vpn && e.shift == shift)
    }

    /// Installs the mapping `vaddr`'s page → `ppn` at page `shift`,
    /// evicting the LRU way when the set is full. Returns the evicted
    /// VPN, if any.
    pub fn fill(&mut self, vaddr: Addr, ppn: u64, shift: u32) -> Option<u64> {
        let vpn = vaddr.raw() >> shift;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let base = self.set_base(vpn);
        let set = &mut self.entries[base..base + self.ways];
        // Refill of a resident page just refreshes it.
        if let Some(e) = set
            .iter_mut()
            .find(|e| e.valid && e.vpn == vpn && e.shift == shift)
        {
            e.ppn = ppn;
            e.stamp = stamp;
            return None;
        }
        let (way, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
            .expect("ways > 0");
        let victim = &self.entries[base + way];
        let evicted = victim.valid.then_some(victim.vpn);
        if evicted.is_some() {
            self.stats.evictions += 1;
        } else {
            self.stats.cold_fills += 1;
        }
        self.entries[base + way] = Entry {
            vpn,
            ppn,
            shift,
            stamp,
            valid: true,
        };
        evicted
    }

    /// Resident VPNs of one set, most recently used first (diagnostics
    /// and LRU-order tests).
    pub fn set_contents(&self, set: usize) -> Vec<u64> {
        let base = set * self.ways;
        let mut entries: Vec<&Entry> = self.entries[base..base + self.ways]
            .iter()
            .filter(|e| e.valid)
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.stamp));
        entries.iter().map(|e| e.vpn).collect()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Mutable counter access (the owner charges walk cycles and
    /// policy-specific prefetch counters here).
    pub fn stats_mut(&mut self) -> &mut TlbStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 KB pages.
    const S: u32 = 12;

    fn page(n: u64) -> Addr {
        Addr::new(n << S)
    }

    #[test]
    fn hit_after_fill_and_offset_preserved() {
        let mut t = Tlb::new(4, 2);
        assert_eq!(t.lookup(page(5), S), None);
        t.fill(page(5), 9, S);
        assert_eq!(
            t.lookup(Addr::new(5 * 4096 + 0x123), S),
            Some(Addr::new(9 * 4096 + 0x123))
        );
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().cold_fills, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        // One set, two ways: fill A, B; touch A; filling C must evict B.
        let mut t = Tlb::new(1, 2);
        t.fill(page(1), 1, S);
        t.fill(page(2), 2, S);
        assert!(t.lookup(page(1), S).is_some());
        let evicted = t.fill(page(3), 3, S);
        assert_eq!(evicted, Some(2));
        assert!(t.contains(page(1), S));
        assert!(!t.contains(page(2), S));
        assert_eq!(t.set_contents(0), vec![3, 1]);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn sets_are_indexed_modulo_vpn() {
        let mut t = Tlb::new(4, 1);
        t.fill(page(0), 0, S);
        t.fill(page(4), 4, S); // same set as VPN 0: evicts it
        t.fill(page(1), 1, S); // different set: untouched
        assert!(!t.contains(page(0), S));
        assert!(t.contains(page(4), S));
        assert!(t.contains(page(1), S));
    }

    #[test]
    fn refill_of_resident_page_does_not_evict() {
        let mut t = Tlb::new(1, 1);
        t.fill(page(7), 7, S);
        assert_eq!(t.fill(page(7), 8, S), None);
        assert_eq!(t.lookup(page(7), S), Some(Addr::new(8 * 4096)));
        assert_eq!(t.stats().evictions, 0);
        assert_eq!(t.stats().cold_fills, 1);
    }

    #[test]
    fn page_size_controls_vpn_split() {
        let mut t = Tlb::new(2, 2);
        let s64k = 16;
        t.fill(Addr::new(0), 0, s64k);
        // Any address in the same 64 KB page hits.
        assert!(t.lookup(Addr::new(60_000), s64k).is_some());
        assert!(t.lookup(Addr::new(70_000), s64k).is_none());
    }

    #[test]
    fn size_tagged_entries_never_cross_match() {
        // A unified TLB holding 4 KB and 2 MB entries: the same address
        // looked up at the other size is a miss, and each size splices
        // its own offset width.
        let mut t = Tlb::new(2, 2);
        let (s4k, s2m) = (12, 21);
        let a = Addr::new(5 << s2m); // 2 MB-aligned, also a 4 KB page base
        t.fill(a, 5, s2m);
        assert!(t.contains(a, s2m));
        assert!(!t.contains(a, s4k), "sizes tag-match separately");
        assert_eq!(t.lookup(a.offset(0x1_2345), s2m), Some(a.offset(0x1_2345)));
        assert_eq!(t.lookup(a, s4k), None);
        t.fill(a, 99, s4k);
        // Both entries coexist; the 4 KB one translates only its page.
        assert_eq!(
            t.lookup(a.offset(0x123), s4k),
            Some(Addr::new((99 << s4k) + 0x123))
        );
        assert!(t.contains(a, s2m));
    }

    #[test]
    fn prefetch_lookup_counts_separately() {
        let mut t = Tlb::new(1, 1);
        t.fill(page(1), 1, S);
        assert!(t.prefetch_lookup(page(1), S).is_some());
        assert!(t.prefetch_lookup(page(2), S).is_none());
        assert_eq!(t.stats().prefetch_hits, 1);
        assert_eq!(t.stats().hits, 0, "prefetch probes are not demand hits");
        assert_eq!(t.stats().misses, 0, "policy decides how misses count");
    }

    #[test]
    fn demand_and_prefetch_paths_count_separately() {
        // The shared L2 TLB's ledger: demand lookups count hits and
        // misses, prefetch probes only their own hits.
        let mut l2 = Tlb::new(2, 2);
        assert_eq!(l2.lookup(page(1), S), None);
        l2.fill(page(1), 1, S);
        assert!(l2.lookup(page(1), S).is_some());
        assert!(l2.prefetch_lookup(page(1), S).is_some());
        assert_eq!(l2.prefetch_lookup(page(9), S), None);
        let s = l2.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.prefetch_hits, 1, "prefetch probes have their own counter");
        assert_eq!(s.cold_fills, 1);
    }
}
