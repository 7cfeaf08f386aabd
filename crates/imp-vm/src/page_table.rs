//! A sparse radix page table whose walks map pages on first touch and
//! read their page-table entries in one descent.

use imp_common::{Addr, Cycle, FastMap};

/// Bits of a virtual address (matches `imp_prefetch::cost::ADDRESS_BITS`:
/// the paper sizes its tables for a 48-bit space).
pub const ADDRESS_BITS: u32 = 48;

/// Index bits consumed per radix level (512-entry nodes, as in x86-64).
pub const LEVEL_BITS: u32 = 9;

/// Base of the synthetic address region holding page-table nodes.
///
/// Walks under `WalkModel::Cached` read page-table entries at these
/// addresses through the cache hierarchy. The region sits at bit 46 of
/// the 48-bit space, far above anything the workload generators map, so
/// PTE lines never alias demand lines.
pub const PT_BASE: u64 = 0x4000_0000_0000;

/// Bytes occupied by one radix node (512 slots x 8-byte entries).
pub const NODE_BYTES: u64 = (1 << LEVEL_BITS) as u64 * PTE_BYTES;

/// Bytes of one page-table entry.
pub const PTE_BYTES: u64 = 8;

/// Deepest radix tree the 48-bit space can produce (the smallest legal
/// page is one 64-byte cache line: ceil((48 - 6) / 9) = 5 levels).
pub const MAX_LEVELS: usize = 5;

/// One interior node of the radix tree. Nodes are sparse: only slots a
/// mapping ever touched exist, which keeps identity-mapping a scattered
/// footprint cheap. Each node carries a stable id assigned at creation,
/// which anchors it at a deterministic address in the [`PT_BASE`]
/// region for cached walks.
#[derive(Clone, Debug, Default)]
struct Node {
    id: u64,
    tables: FastMap<u32, Node>,
    /// Leaf mappings by page size: `[base, huge]`. A huge leaf sits one
    /// level above the base leaves and maps a whole 512-base-page range
    /// at once (the x86 PDE-as-2MB-leaf shape); keeping it apart from
    /// `tables` means it can never be confused with an interior pointer.
    leaves: [FastMap<u32, u64>; 2],
}

impl Node {
    /// Address of this node's page-table entry for `slot`.
    fn pte(&self, slot: u32) -> Addr {
        Addr::new(PT_BASE + self.id * NODE_BYTES + u64::from(slot) * PTE_BYTES)
    }
}

/// Radix slot index of `vpn` at `level` (0 = root) of a `depth`-level
/// walk. A huge page's VPN is its base VPN shifted one level right, so
/// both sizes index the same slots at the same depths and share
/// interior nodes.
fn slot_at(vpn: u64, depth: u32, level: u32) -> u32 {
    let shift = (depth - 1 - level) * LEVEL_BITS;
    ((vpn >> shift) & ((1 << LEVEL_BITS) - 1)) as u32
}

/// Descends from `root` to the node holding `vpn`'s leaf in a
/// `depth`-level walk, creating missing interior nodes top-down (each
/// takes the next id from `next_id`) and handing each interior level's
/// page-table-entry address to `read`, root first.
fn descend<'a>(
    root: &'a mut Node,
    next_id: &mut u64,
    vpn: u64,
    depth: u32,
    mut read: impl FnMut(Addr),
) -> &'a mut Node {
    let mut node = root;
    for l in 0..depth - 1 {
        let slot = slot_at(vpn, depth, l);
        read(node.pte(slot));
        node = node.tables.entry(slot).or_insert_with(|| {
            let fresh = Node {
                id: *next_id,
                ..Node::default()
            };
            *next_id += 1;
            fresh
        });
    }
    node
}

/// A radix page table mapping virtual page numbers to physical page
/// numbers at two page sizes.
///
/// The tree has `levels()` levels — `ceil((48 - page_bits) / 9)` — so
/// larger pages walk fewer levels, exactly the lever huge pages pull in
/// real hardware. Every operation takes the page `shift` it works at:
/// the base page shift, or the huge page shift one radix level above it
/// (`base + LEVEL_BITS`), whose leaves sit one level up in their own
/// map and are counted apart. A shift whose walk depth is neither
/// `levels()` nor one less panics.
///
/// ```
/// use imp_vm::PageTable;
///
/// let mut pt = PageTable::new(4096);
/// assert_eq!(pt.levels(), 4); // (48 - 12) / 9, rounded up
/// pt.map(5, 9, 12);
/// assert_eq!(pt.lookup(5, 12), Some(9));
/// assert_eq!(pt.lookup(6, 12), None);
/// assert_eq!(pt.lookup(0, 21), None, "huge leaves are a separate map");
/// ```
#[derive(Clone, Debug)]
pub struct PageTable {
    root: Node,
    levels: u32,
    /// Leaf mappings installed, by page size: `[base, huge]`.
    mapped: [u64; 2],
    next_node_id: u64,
}

impl PageTable {
    /// Creates an empty table for `page_bytes` base pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or does not leave at
    /// least one VPN bit below 48.
    pub fn new(page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let page_shift = page_bytes.trailing_zeros();
        assert!(
            page_shift < ADDRESS_BITS,
            "page size must leave VPN bits in a 48-bit space"
        );
        PageTable {
            root: Node::default(), // the root is node 0
            levels: (ADDRESS_BITS - page_shift).div_ceil(LEVEL_BITS),
            mapped: [0; 2],
            next_node_id: 1,
        }
    }

    /// Radix depth of a base-page walk through this table (a huge-page
    /// walk is one level shallower).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of base-page leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped[0]
    }

    /// Number of huge-page leaf mappings installed.
    pub fn mapped_huge_pages(&self) -> u64 {
        self.mapped[1]
    }

    /// Radix depth of a walk at page `shift`, and the leaf map that ends
    /// it (0 for base leaves, 1 for huge leaves one level up).
    ///
    /// # Panics
    ///
    /// Panics if `shift` leaves no leaf level in this table: it must be
    /// the base page shift or the huge one a radix level above it, and
    /// a huge page must leave VPN bits in the 48-bit space (validate
    /// user configuration with [`crate::validate_placement`] first).
    fn depth(&self, shift: u32) -> (u32, usize) {
        let depth = ADDRESS_BITS.saturating_sub(shift).div_ceil(LEVEL_BITS);
        assert!(
            depth > 0 && depth <= self.levels && depth + 1 >= self.levels,
            "page shift {shift} has no leaf level in a {}-level table",
            self.levels
        );
        (depth, usize::from(depth < self.levels))
    }

    /// Installs `vpn` → `ppn` at page `shift`, creating interior nodes
    /// as needed. Returns `true` if the page was not mapped before.
    pub fn map(&mut self, vpn: u64, ppn: u64, shift: u32) -> bool {
        let (depth, size) = self.depth(shift);
        let node = descend(&mut self.root, &mut self.next_node_id, vpn, depth, |_| {});
        let fresh = node.leaves[size]
            .insert(slot_at(vpn, depth, depth - 1), ppn)
            .is_none();
        self.mapped[size] += u64::from(fresh);
        fresh
    }

    /// Looks `vpn` up at page `shift` without side effects.
    pub fn lookup(&self, vpn: u64, shift: u32) -> Option<u64> {
        let (depth, size) = self.depth(shift);
        let mut node = &self.root;
        for l in 0..depth - 1 {
            node = node.tables.get(&slot_at(vpn, depth, l))?;
        }
        node.leaves[size]
            .get(&slot_at(vpn, depth, depth - 1))
            .copied()
    }

    /// The page-table-entry addresses a walk for `vpn` at page `shift`
    /// reads, one per radix level, in pointer-chase order (each read
    /// depends on the previous one's value); a huge walk reads one fewer,
    /// the last being the huge leaf entry.
    ///
    /// Every node sits at a stable, deterministic address in the
    /// [`PT_BASE`] region — `PT_BASE + id * NODE_BYTES + slot *
    /// PTE_BYTES` — so walks of neighbouring VPNs share PTE cache lines
    /// exactly the way a real page table's spatial locality works, and
    /// base and huge walks share their interior reads. The path is only
    /// complete once the page is mapped; unmapped tails are simply
    /// absent from the returned path.
    pub fn pte_path(&self, vpn: u64, shift: u32) -> ([Addr; MAX_LEVELS], usize) {
        let (depth, _) = self.depth(shift);
        let mut out = [Addr::new(0); MAX_LEVELS];
        let mut len = 0;
        let mut node = &self.root;
        for l in 0..depth {
            let slot = slot_at(vpn, depth, l);
            out[len] = node.pte(slot);
            len += 1;
            if l + 1 < depth {
                match node.tables.get(&slot) {
                    Some(next) => node = next,
                    None => break,
                }
            }
        }
        (out, len)
    }

    /// Walks `vaddr`'s page at page `shift` on behalf of `core`, the
    /// way a hardware page-miss handler does: one descent that reads
    /// each level's page-table entry through `mem` starting at `now` —
    /// the reads chain (a pointer chase), so the walk costs whatever
    /// `mem` says — and identity-maps the page on first touch (the
    /// simulated OS demand-allocates, so a walk never faults). Missing
    /// nodes are created in the order [`PageTable::map`] creates them,
    /// so every PTE address is the one [`PageTable::pte_path`] reports.
    ///
    /// Through a [`FlatWalkMemory`] the walk costs exactly its levels
    /// times the flat per-level latency.
    pub fn walk<M: WalkMemory + ?Sized>(
        &mut self,
        vaddr: Addr,
        shift: u32,
        core: usize,
        now: Cycle,
        mem: &mut M,
    ) -> Walk {
        let (depth, size) = self.depth(shift);
        let vpn = vaddr.raw() >> shift;
        let mut t = now;
        let node = descend(&mut self.root, &mut self.next_node_id, vpn, depth, |pte| {
            t = mem.pte_read(core, pte, t);
        });
        let slot = slot_at(vpn, depth, depth - 1);
        t = mem.pte_read(core, node.pte(slot), t);
        let mut fresh = false;
        let ppn = *node.leaves[size].entry(slot).or_insert_with(|| {
            fresh = true;
            vpn
        });
        self.mapped[size] += u64::from(fresh);
        Walk {
            ppn,
            cycles: t - now,
            levels: depth,
        }
    }
}

/// Where a page walk reads its page-table entries from.
///
/// Under `WalkModel::Cached` the simulator implements this over the
/// real memory hierarchy: each PTE read crosses the NoC to its home L2
/// slice and falls through to DRAM on a miss, contending with demand
/// traffic. [`FlatWalkMemory`] is the fixed-latency implementation
/// behind `WalkModel::Flat`.
pub trait WalkMemory {
    /// Performs the page-table-entry read at `pte` on behalf of `core`,
    /// issued at `now`; returns the cycle the entry's value is
    /// available (the next level's read may start then).
    fn pte_read(&mut self, core: usize, pte: Addr, now: Cycle) -> Cycle;
}

/// A [`WalkMemory`] charging a flat latency per PTE read — the
/// `WalkModel::Flat` timing.
#[derive(Clone, Copy, Debug)]
pub struct FlatWalkMemory(pub Cycle);

impl WalkMemory for FlatWalkMemory {
    fn pte_read(&mut self, _core: usize, _pte: Addr, now: Cycle) -> Cycle {
        now + self.0
    }
}

/// Outcome of one page-table walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walk {
    /// The physical page number the walk resolved to.
    pub ppn: u64,
    /// Cycles the walk took (its chained PTE reads).
    pub cycles: Cycle,
    /// Radix levels traversed.
    pub levels: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 KB base pages and their 2 MB huge pages.
    const BASE: u32 = 12;
    const HUGE: u32 = 21;

    /// Walks `vaddr` at `shift` with a flat 25-cycle-per-level latency.
    fn flat_walk(pt: &mut PageTable, vaddr: Addr, shift: u32) -> Walk {
        pt.walk(vaddr, shift, 0, 0, &mut FlatWalkMemory(25))
    }

    #[test]
    fn levels_shrink_with_page_size() {
        assert_eq!(PageTable::new(4096).levels(), 4); // 36 VPN bits
        assert_eq!(PageTable::new(64 * 1024).levels(), 4); // 32 bits
        assert_eq!(PageTable::new(2 * 1024 * 1024).levels(), 3); // 27 bits
        assert_eq!(PageTable::new(1 << 30).levels(), 2); // 18 bits
    }

    #[test]
    fn map_lookup_roundtrip_and_remap() {
        let mut pt = PageTable::new(4096);
        assert!(pt.map(0x1234, 7, BASE));
        assert!(!pt.map(0x1234, 8, BASE), "remap is not a fresh mapping");
        assert_eq!(pt.lookup(0x1234, BASE), Some(8));
        assert_eq!(pt.lookup(0x1235, BASE), None);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distant_vpns_do_not_collide() {
        let mut pt = PageTable::new(4096);
        // Same low slot bits, different upper levels.
        let a = 0x0000_0000_0042u64;
        let b = 0x0000_0800_0042u64; // differs only above level-3 bits
        pt.map(a, 1, BASE);
        pt.map(b, 2, BASE);
        assert_eq!(pt.lookup(a, BASE), Some(1));
        assert_eq!(pt.lookup(b, BASE), Some(2));
    }

    #[test]
    fn pte_path_is_deterministic_and_shares_interior_lines() {
        let mut pt = PageTable::new(4096);
        pt.map(0x42, 0x42, BASE);
        let (path, len) = pt.pte_path(0x42, BASE);
        assert_eq!(len, 4, "complete path after mapping");
        // The root read always sits in node 0's slab.
        assert!(path[0].raw() >= PT_BASE && path[0].raw() < PT_BASE + NODE_BYTES);
        // Re-walking yields the identical path.
        assert_eq!(pt.pte_path(0x42, BASE), (path, len));
        // A neighbouring VPN shares every interior node; only the leaf
        // slot differs (and by exactly one PTE).
        pt.map(0x43, 0x43, BASE);
        let (next, next_len) = pt.pte_path(0x43, BASE);
        assert_eq!(next_len, 4);
        assert_eq!(&next[..3], &path[..3], "interior levels shared");
        assert_eq!(next[3].raw(), path[3].raw() + PTE_BYTES);
        // A distant VPN allocates fresh interior nodes at fresh ids; its
        // root read stays inside node 0's slab (different slot), and its
        // deeper reads land in other slabs.
        pt.map(0x42 + (1 << 27), 1, BASE);
        let (far, _) = pt.pte_path(0x42 + (1 << 27), BASE);
        assert!(far[0].raw() >= PT_BASE && far[0].raw() < PT_BASE + NODE_BYTES);
        assert_ne!(far[0], path[0], "different root slot");
        assert!(far[1].raw() >= PT_BASE + NODE_BYTES, "fresh interior node");
    }

    #[test]
    fn walk_via_chases_pte_reads_and_matches_flat_timing() {
        let mut pt = PageTable::new(4096);
        // A recording memory: logs reads, charges 7 cycles each.
        struct Recorder(Vec<(usize, Addr)>);
        impl WalkMemory for Recorder {
            fn pte_read(&mut self, core: usize, pte: Addr, now: Cycle) -> Cycle {
                self.0.push((core, pte));
                now + 7
            }
        }
        let mut rec = Recorder(Vec::new());
        let walk = pt.walk(Addr::new(0x5000), BASE, 3, 100, &mut rec);
        assert_eq!(walk.ppn, 5, "first touch identity-maps");
        assert_eq!(walk.levels, 4);
        assert_eq!(walk.cycles, 4 * 7, "cost comes from the hook");
        assert!(rec.0.iter().all(|(c, _)| *c == 3));
        let read: Vec<Addr> = rec.0.iter().map(|&(_, pte)| pte).collect();
        let (path, len) = pt.pte_path(5, BASE);
        assert_eq!(read, &path[..len], "one read per level, in chase order");
        // FlatWalkMemory charges levels x the per-level latency, for a
        // cold page and a mapped one alike.
        assert_eq!(flat_walk(&mut pt, Addr::new(0x9000), BASE).cycles, 4 * 25);
        assert_eq!(flat_walk(&mut pt, Addr::new(0x9000), BASE).cycles, 4 * 25);
    }

    #[test]
    fn huge_leaves_sit_one_level_up_and_share_interiors() {
        let mut pt = PageTable::new(4096);

        // Map the huge page covering base VPNs [0x200, 0x400) and a
        // base page just below it: interior nodes are shared.
        assert!(pt.map(1, 1, HUGE));
        assert!(!pt.map(1, 1, HUGE), "remap is not fresh");
        pt.map(0x1ff, 0x1ff, BASE);
        assert_eq!(pt.lookup(1, HUGE), Some(1));
        assert_eq!(pt.mapped_huge_pages(), 1);
        assert_eq!(pt.mapped_pages(), 1, "huge leaves are ledgered apart");
        // The huge mapping does not shadow base lookups (the simulator
        // classifies an address to exactly one size before asking).
        assert_eq!(pt.lookup(0x200, BASE), None);

        let (hpath, hlen) = pt.pte_path(1, HUGE);
        let (bpath, blen) = pt.pte_path(0x1ff, BASE);
        assert_eq!(hlen, 3, "one fewer PTE read than a base walk");
        assert_eq!(blen, 4);
        assert_eq!(&hpath[..2], &bpath[..2], "interior levels shared");

        // A 2-level geometry still holds huge leaves in the root.
        let mut shallow = PageTable::new(1 << 30);
        assert_eq!(shallow.levels(), 2);
        assert!(shallow.map(3, 3, 39));
        assert_eq!(shallow.lookup(3, 39), Some(3));
        assert_eq!(shallow.pte_path(3, 39).1, 1);
    }

    #[test]
    #[should_panic(expected = "has no leaf level")]
    fn a_one_level_table_has_no_room_for_huge_leaves() {
        PageTable::new(1 << 40).map(0, 0, 49);
    }

    #[test]
    fn huge_walks_are_one_level_shallower() {
        let mut pt = PageTable::new(4096);
        let a = Addr::new(5 * 2 * 1024 * 1024 + 0x1234);
        let walk = flat_walk(&mut pt, a, HUGE);
        assert_eq!(walk.levels, 3);
        assert_eq!(walk.cycles, 3 * 25);
        assert_eq!(walk.ppn, 5, "first touch identity-maps the huge page");
        assert_eq!(pt.lookup(5, HUGE), Some(5));
        // A cached walk reads exactly one PTE per huge level.
        struct Counter(u64);
        impl WalkMemory for Counter {
            fn pte_read(&mut self, _c: usize, _p: Addr, now: Cycle) -> Cycle {
                self.0 += 1;
                now + 7
            }
        }
        let mut counter = Counter(0);
        let via = pt.walk(a, HUGE, 0, 100, &mut counter);
        assert_eq!(counter.0, 3);
        assert_eq!(via.cycles, 3 * 7);
        assert_eq!(via.ppn, 5);
    }

    #[test]
    fn walker_charges_per_level_and_identity_maps() {
        let mut pt = PageTable::new(4096);
        let walk = flat_walk(&mut pt, Addr::new(0x5000), BASE);
        assert_eq!(walk.cycles, 100);
        assert_eq!(walk.levels, 4);
        assert_eq!(walk.ppn, 5, "first touch identity-maps");
        assert_eq!(pt.lookup(5, BASE), Some(5));
        // A pre-existing (non-identity) mapping is respected.
        pt.map(9, 42, BASE);
        assert_eq!(flat_walk(&mut pt, Addr::new(9 * 4096), BASE).ppn, 42);
        assert_eq!(pt.mapped_pages(), 2);
    }
}
