//! Property tests for the virtual-memory subsystem: TLB LRU order,
//! translate∘map round-trips, the single-descent page walk against a
//! reference model, and the eviction/miss/cold-fill ledger.

use imp_common::{Addr, Cycle, TlbConfig};
use imp_vm::{
    FlatWalkMemory, PagePlacement, PageTable, Tlb, TranslationSource, Vm, Walk, WalkMemory,
    ADDRESS_BITS, LEVEL_BITS, NODE_BYTES, PTE_BYTES, PT_BASE,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Reference LRU model: a recency list per set, most recent first.
#[derive(Default)]
struct ModelSet {
    vpns: VecDeque<u64>,
}

impl ModelSet {
    fn touch(&mut self, vpn: u64, ways: usize) {
        if let Some(pos) = self.vpns.iter().position(|&v| v == vpn) {
            self.vpns.remove(pos);
        }
        self.vpns.push_front(vpn);
        self.vpns.truncate(ways);
    }
}

/// Reference model of a page walk as three separate table operations —
/// look the page up, identity-map it on a miss, then read its PTE path
/// — over a radix tree kept apart from `PageTable`: nodes are ids
/// handed out in creation order, edges and leaves are keyed by
/// `(node id, slot)`, and huge leaves sit one level up in a map of
/// their own.
struct RadixModel {
    /// Depth of a base-page walk.
    levels: u32,
    next_id: u64,
    tables: HashMap<(u64, u32), u64>,
    /// Leaves by size: `[base, huge]`.
    leaves: [HashMap<(u64, u32), u64>; 2],
    mapped: [u64; 2],
}

impl RadixModel {
    fn new(base_shift: u32) -> Self {
        RadixModel {
            levels: (ADDRESS_BITS - base_shift).div_ceil(LEVEL_BITS),
            next_id: 1,
            tables: HashMap::new(),
            leaves: [HashMap::new(), HashMap::new()],
            mapped: [0; 2],
        }
    }

    fn depth(&self, huge: bool) -> u32 {
        self.levels - u32::from(huge)
    }

    /// The radix slots of `vpn`, root first.
    fn slots(&self, vpn: u64, huge: bool) -> Vec<u32> {
        let depth = self.depth(huge);
        (0..depth)
            .map(|l| ((vpn >> ((depth - 1 - l) * LEVEL_BITS)) & 511) as u32)
            .collect()
    }

    fn lookup(&self, vpn: u64, huge: bool) -> Option<u64> {
        let slots = self.slots(vpn, huge);
        let (leaf, interior) = slots.split_last().unwrap();
        let mut node = 0;
        for &slot in interior {
            node = *self.tables.get(&(node, slot))?;
        }
        self.leaves[usize::from(huge)].get(&(node, *leaf)).copied()
    }

    fn map(&mut self, vpn: u64, ppn: u64, huge: bool) -> bool {
        let slots = self.slots(vpn, huge);
        let (leaf, interior) = slots.split_last().unwrap();
        let mut node = 0;
        for &slot in interior {
            node = *self.tables.entry((node, slot)).or_insert_with(|| {
                self.next_id += 1;
                self.next_id - 1
            });
        }
        let fresh = self.leaves[usize::from(huge)]
            .insert((node, *leaf), ppn)
            .is_none();
        self.mapped[usize::from(huge)] += u64::from(fresh);
        fresh
    }

    fn pte_path(&self, vpn: u64, huge: bool) -> Vec<Addr> {
        let slots = self.slots(vpn, huge);
        let mut path = Vec::new();
        let mut node = 0;
        for (l, &slot) in slots.iter().enumerate() {
            path.push(Addr::new(
                PT_BASE + node * NODE_BYTES + u64::from(slot) * PTE_BYTES,
            ));
            if l + 1 < slots.len() {
                match self.tables.get(&(node, slot)) {
                    Some(&next) => node = next,
                    None => break,
                }
            }
        }
        path
    }
}

/// A PTE read's latency: varies with the address, so a walk's cycles
/// pin which entries it read and that the reads chain.
fn pte_latency(pte: Addr) -> Cycle {
    1 + pte.raw() % 7
}

/// A [`WalkMemory`] logging every read as `(core, pte, issue cycle)`.
struct Recording(Vec<(usize, Addr, Cycle)>);

impl WalkMemory for Recording {
    fn pte_read(&mut self, core: usize, pte: Addr, now: Cycle) -> Cycle {
        self.0.push((core, pte, now));
        now + pte_latency(pte)
    }
}

proptest! {
    /// `PageTable::walk` — one descent that maps on first touch and
    /// reads as it goes — matches the reference model's
    /// lookup / map-on-miss / `pte_path` sequence read for read: the
    /// same PTE addresses in the same order, issued back to back, the
    /// same `Walk`, and the same mapped-page counts, over mixed
    /// base/huge address strings, base page shifts 12–21, and pages
    /// pre-mapped to non-identity frames.
    #[test]
    fn single_descent_walk_matches_the_reference_model(
        base_shift in 12u32..22,
        script in vec((0u64..4, 0u64..64, 0u64..2, 0u64..4, 0u64..(1 << 30)), 1..120),
    ) {
        let mut table = PageTable::new(1 << base_shift);
        let mut model = RadixModel::new(base_shift);
        let mut now = 0;
        for (region, page, huge, premap, offset) in script {
            let huge = huge == 1;
            let shift = base_shift + if huge { LEVEL_BITS } else { 0 };
            // Four far-apart regions of a few dozen pages each: walks
            // share interior nodes within a region and across sizes,
            // and start fresh subtrees across regions.
            let vaddr = Addr::new((region << 40) | (page << shift) | (offset & ((1 << shift) - 1)));
            let vpn = vaddr.raw() >> shift;
            if premap == 0 {
                let frame = vpn ^ 0x5a5;
                prop_assert_eq!(table.map(vpn, frame, shift), model.map(vpn, frame, huge));
            }
            let ppn = match model.lookup(vpn, huge) {
                Some(ppn) => ppn,
                None => {
                    model.map(vpn, vpn, huge);
                    vpn
                }
            };
            let path = model.pte_path(vpn, huge);
            let done = path.iter().fold(now, |t, &pte| t + pte_latency(pte));
            let want = Walk { ppn, cycles: done - now, levels: model.depth(huge) };

            let mut mem = Recording(Vec::new());
            prop_assert_eq!(table.walk(vaddr, shift, 3, now, &mut mem), want);
            let reads: Vec<Addr> = mem.0.iter().map(|&(_, pte, _)| pte).collect();
            prop_assert_eq!(&reads, &path);
            // Each read issues on behalf of the walking core the cycle
            // the previous one returned.
            let mut t = now;
            for &(core, pte, issued) in &mem.0 {
                prop_assert_eq!((core, issued), (3, t));
                t += pte_latency(pte);
            }
            prop_assert_eq!(table.mapped_pages(), model.mapped[0]);
            prop_assert_eq!(table.mapped_huge_pages(), model.mapped[1]);
            // The table's own primitives agree with the model too.
            prop_assert_eq!(table.lookup(vpn, shift), Some(ppn));
            let (ptes, len) = table.pte_path(vpn, shift);
            prop_assert_eq!(&ptes[..len], &path[..]);
            now = done;
        }
    }

    /// Under an arbitrary access string, every set's residents match a
    /// reference recency-list model exactly — LRU order is preserved by
    /// hits, fills and evictions alike.
    #[test]
    fn lru_order_matches_reference_model(
        accesses in vec((0u64..48, 0u64..2), 1..200),
        ways in 1u32..5,
    ) {
        let sets = 4u32;
        let page = 4096u64;
        let mut tlb = Tlb::new(sets, ways);
        let mut model: Vec<ModelSet> = (0..sets).map(|_| ModelSet::default()).collect();
        for (vpn, reuse_offset) in accesses {
            // Mix page-base and mid-page addresses: both must behave
            // identically at the VPN level.
            let offset = if reuse_offset == 1 { page / 2 } else { 0 };
            let vaddr = Addr::new(vpn * page + offset);
            if tlb.lookup(vaddr, 12).is_none() {
                tlb.fill(vaddr, vpn, 12);
            }
            model[(vpn % u64::from(sets)) as usize].touch(vpn, ways as usize);
        }
        for (s, set_model) in model.iter().enumerate() {
            let expect: Vec<u64> = set_model.vpns.iter().copied().collect();
            prop_assert_eq!(tlb.set_contents(s), expect);
        }
    }

    /// The flat set-stride TLB matches the old per-set nested-vector
    /// stamped-LRU model it replaced, observable for observable —
    /// lookup results, fill return values (the evicted VPN), size-tagged
    /// entries, and the hit/miss/eviction/cold-fill ledger — under
    /// arbitrary mixed-size access strings.
    #[test]
    fn flat_tlb_matches_per_set_model(
        script in vec((0u64..48, 0u64..3), 1..250),
        ways in 1u32..5,
    ) {
        /// One entry of the pre-flattening representation.
        #[derive(Clone, Copy)]
        struct E { vpn: u64, ppn: u64, shift: u32, stamp: u64, valid: bool }
        let sets = 4u32;
        let mut tlb = Tlb::new(sets, ways);
        let mut model: Vec<Vec<E>> = (0..sets)
            .map(|_| vec![E { vpn: 0, ppn: 0, shift: 0, stamp: 0, valid: false }; ways as usize])
            .collect();
        let mut next_stamp = 1u64;
        let (mut hits, mut misses, mut evictions, mut cold) = (0u64, 0u64, 0u64, 0u64);
        for (vpn, action) in script {
            // Mostly 4 KB lookups; action 2 probes/installs the same
            // address space at the 2 MB shift (size-tagged entries).
            let shift = if action == 2 { 21 } else { 12 };
            let vaddr = Addr::new(vpn << shift);
            let set = (vpn % u64::from(sets)) as usize;
            // Model lookup: first way-order match refreshes its stamp.
            let model_hit = model[set]
                .iter_mut()
                .find(|e| e.valid && e.vpn == vpn && e.shift == shift)
                .map(|e| { e.stamp = next_stamp; e.ppn });
            if model_hit.is_some() { next_stamp += 1; hits += 1; } else { misses += 1; }
            let got = tlb.lookup(vaddr, shift);
            prop_assert_eq!(got.map(|a| a.raw() >> shift), model_hit);
            if got.is_none() {
                // Model fill: refresh if resident, else replace the
                // first-minimal victim keyed (valid ? stamp : 0).
                let stamp = next_stamp;
                next_stamp += 1;
                let victim = model[set]
                    .iter_mut()
                    .min_by_key(|e| if e.valid { e.stamp } else { 0 })
                    .expect("ways > 0");
                let evicted = victim.valid.then_some(victim.vpn);
                if evicted.is_some() { evictions += 1; } else { cold += 1; }
                *victim = E { vpn, ppn: vpn + 7, shift, stamp, valid: true };
                prop_assert_eq!(tlb.fill(vaddr, vpn + 7, shift), evicted);
            }
        }
        prop_assert_eq!(tlb.stats().hits, hits);
        prop_assert_eq!(tlb.stats().misses, misses);
        prop_assert_eq!(tlb.stats().evictions, evictions);
        prop_assert_eq!(tlb.stats().cold_fills, cold);
        // Every set's MRU-first contents must match the model's.
        for (s, model_set) in model.iter().enumerate() {
            let mut entries: Vec<&E> = model_set.iter().filter(|e| e.valid).collect();
            entries.sort_by_key(|e| std::cmp::Reverse(e.stamp));
            let expect: Vec<u64> = entries.iter().map(|e| e.vpn).collect();
            prop_assert_eq!(tlb.set_contents(s), expect);
        }
    }

    /// translate∘map round-trip: after `map(vpn, ppn)`, walking any
    /// address in the page resolves to `ppn` with the page offset
    /// preserved, for every page size.
    #[test]
    fn translate_after_map_round_trips(
        mappings in vec((0u64..(1 << 20), 0u64..(1 << 20)), 1..40),
        page_shift in 12u32..22,
        offset in 0u64..4096,
    ) {
        let page = 1u64 << page_shift;
        let mut table = PageTable::new(page);
        for &(vpn, ppn) in &mappings {
            table.map(vpn, ppn, page_shift);
        }
        // Later mappings win on duplicate VPNs, exactly like a map.
        let mut last: Vec<(u64, u64)> = Vec::new();
        for &(vpn, ppn) in &mappings {
            last.retain(|&(v, _)| v != vpn);
            last.push((vpn, ppn));
        }
        for (vpn, ppn) in last {
            prop_assert_eq!(table.lookup(vpn, page_shift), Some(ppn));
            let vaddr = Addr::new(vpn * page + offset % page);
            let walk = table.walk(vaddr, page_shift, 0, 0, &mut FlatWalkMemory(25));
            prop_assert_eq!(walk.ppn, ppn);
            prop_assert_eq!(walk.cycles, 25 * u64::from(table.levels()));
        }
    }

    /// Counter ledger: every miss is filled, so evictions equal fills
    /// minus cold fills — `evictions == misses - cold_fills` — and the
    /// resident count equals the cold fills capped by capacity.
    #[test]
    fn evictions_equal_misses_minus_cold_fills(
        vpns in vec(0u64..64, 1..300),
        sets in 1u32..5,
        ways in 1u32..5,
    ) {
        let mut tlb = Tlb::new(sets, ways);
        for vpn in vpns {
            let vaddr = Addr::new(vpn * 4096);
            if tlb.lookup(vaddr, 12).is_none() {
                tlb.fill(vaddr, vpn, 12);
            }
        }
        let s = tlb.stats().clone();
        prop_assert_eq!(s.evictions, s.misses - s.cold_fills);
        prop_assert!(s.cold_fills <= u64::from(sets * ways));
        let resident: u64 = (0..sets as usize)
            .map(|i| tlb.set_contents(i).len() as u64)
            .sum();
        // Cold fills claim empty ways, which never empty again.
        prop_assert_eq!(resident, s.cold_fills);
    }

    /// Two-level ledger: under an arbitrary demand-translation string,
    /// every dTLB miss is exactly one L2 lookup, the
    /// `evictions == misses - cold_fills` ledger holds at *both*
    /// levels, and walks happen only on misses of both.
    #[test]
    fn l2_ledger_holds_under_arbitrary_demand_streams(
        vpns in vec(0u64..96, 1..400),
        l1_sets in 1u32..4,
        l1_ways in 1u32..3,
        l2_sets in 1u32..8,
        l2_ways in 1u32..5,
    ) {
        let mut cfg = TlbConfig::finite().with_l2(l2_sets, l2_ways);
        cfg.sets = l1_sets;
        cfg.ways = l1_ways;
        let mut vm = Vm::new(&cfg, 1).unwrap();
        for &vpn in &vpns {
            vm.demand_translate(0, Addr::new(vpn * 4096));
        }
        let l1 = vm.stats(0).clone();
        let l2 = vm.l2_stats().unwrap().clone();
        prop_assert_eq!(l1.hits + l1.misses, vpns.len() as u64);
        prop_assert_eq!(l1.misses, l2.hits + l2.misses);
        prop_assert_eq!(l1.evictions, l1.misses - l1.cold_fills);
        prop_assert_eq!(l2.evictions, l2.misses - l2.cold_fills);
        // Only full misses walk, and every walk is 4 levels here.
        prop_assert_eq!(l1.walk_cycles, l2.misses * 4 * cfg.walk_latency);
        prop_assert_eq!(l1.walk_levels, l2.misses * 4);
        prop_assert_eq!(l2.walk_cycles, 0);
    }

    /// The translation-prefetch port keeps the L2 ledger consistent
    /// with prefetch installs folded in, and never touches the dTLBs.
    #[test]
    fn translation_prefetch_extends_the_l2_ledger(
        vpns in vec(0u64..64, 1..200),
        l2_sets in 1u32..4,
        l2_ways in 1u32..4,
    ) {
        let cfg = TlbConfig::finite().with_l2(l2_sets, l2_ways);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let mut flat = FlatWalkMemory(cfg.walk_latency);
        for &vpn in &vpns {
            vm.prefetch_translation(0, Addr::new(vpn * 4096), 0, &mut flat);
        }
        let l2 = vm.l2_stats().unwrap().clone();
        prop_assert_eq!(vm.stats(0).lookups(), 0);
        prop_assert_eq!(vm.stats(0).prefetch_walks, 0);
        prop_assert_eq!(l2.evictions, l2.prefetch_walks - l2.cold_fills);
        prop_assert_eq!(l2.walk_cycles, l2.prefetch_walks * 4 * cfg.walk_latency);
        prop_assert_eq!(l2.walk_levels, l2.prefetch_walks * 4);
        prop_assert!(l2.prefetch_walks <= vpns.len() as u64);
    }

    /// Mixed-size ledger: under an arbitrary demand stream over a
    /// half-huge address space, base and huge activity split cleanly
    /// (per-size ledgers, per-size walk depths), the per-set LRU
    /// ledgers hold at both sub-TLBs, and identity mapping preserves
    /// every translated address.
    #[test]
    fn split_dtlb_ledgers_hold_under_mixed_streams(
        pages in vec((0u64..64, 0u64..2), 1..300),
        huge_range_pages in 8u64..32,
    ) {
        let cfg = TlbConfig::finite();
        let huge = cfg.huge_page_bytes();
        // Base pages [0, huge_range_pages*512) stay 4 KB; the range
        // above is one huge extent.
        let placement = PagePlacement::for_regions(
            [(huge_range_pages * huge, 32 * huge)],
            huge,
        );
        let mut vm = Vm::with_placement(&cfg, 1, placement).unwrap();
        let mut expected = (0u64, 0u64); // (base, huge) lookups
        for &(page, offset_kind) in &pages {
            let offset = if offset_kind == 1 { 0x777 } else { 0 };
            let vaddr = Addr::new(page * huge / 2 + offset);
            let t = vm.demand_translate(0, vaddr);
            prop_assert_eq!(t.paddr, vaddr);
            if page * huge / 2 >= huge_range_pages * huge {
                expected.1 += 1;
                prop_assert!(matches!(
                    t.source,
                    TranslationSource::DTlbHit | TranslationSource::Walk { levels: 3 }
                ));
            } else {
                expected.0 += 1;
                prop_assert!(matches!(
                    t.source,
                    TranslationSource::DTlbHit | TranslationSource::Walk { levels: 4 }
                ));
            }
        }
        let base = vm.stats(0).clone();
        let huge_s = vm.huge_stats(0).unwrap().clone();
        prop_assert_eq!(base.lookups(), expected.0);
        prop_assert_eq!(huge_s.lookups(), expected.1);
        prop_assert_eq!(base.evictions, base.misses - base.cold_fills);
        prop_assert_eq!(huge_s.evictions, huge_s.misses - huge_s.cold_fills);
        prop_assert_eq!(base.walk_levels, base.misses * 4);
        prop_assert_eq!(huge_s.walk_levels, huge_s.misses * 3);
        prop_assert_eq!(base.walk_cycles, base.misses * 4 * cfg.walk_latency);
        prop_assert_eq!(huge_s.walk_cycles, huge_s.misses * 3 * cfg.walk_latency);
    }
}
