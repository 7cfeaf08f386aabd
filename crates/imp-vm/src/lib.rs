//! Virtual-memory subsystem for the IMP reproduction: per-core dTLBs
//! over a shared L2 TLB, a shared radix page table whose walks are timed
//! through a memory hook, and translation policies for prefetches.
//!
//! The seed simulator treated every 48-bit virtual address as directly
//! usable — no TLB, no page-table walks. That flatters value-derived
//! prefetchers like IMP most of all: `A[B[i]]` prefetches land on
//! arbitrary virtual pages and, in hardware, are only issuable after
//! address translation. This crate supplies the missing machinery:
//!
//! * [`Tlb`] — a set-associative, true-LRU TLB with size-tagged entries
//!   and hit/miss/eviction statistics. It serves both as each core's
//!   dTLB and as the *shared* L2 TLB behind them, the level IMP's
//!   translation prefetching prefills for its value-derived
//!   predictions.
//! * [`PageTable`] — a sparse radix tree (9 index bits per level over a
//!   48-bit space). [`PageTable::walk`] descends it once, reading each
//!   level's page-table entry through a [`WalkMemory`] hook: a flat
//!   per-level latency ([`FlatWalkMemory`]) or whatever the memory
//!   hierarchy says each read costs. Unmapped pages are identity-mapped
//!   on first touch, so translation changes *timing*, never data.
//! * [`Vm`] — the engine `imp-sim` embeds: per-core TLBs over one
//!   shared L2 TLB and page table, applying
//!   [`imp_common::TranslationPolicy`] to prefetch translations
//!   (`DropOnMiss` | `NonBlockingWalk` | `Ideal`) while demand
//!   translations always walk (and stall), plus the
//!   translation-prefetch port ([`Vm::prefetch_translation`]) the IMP
//!   prefetcher drives when `TlbConfig::tlb_prefetch` is on.
//! * [`PagePlacement`] — mixed 4 KB / 2 MB translation: regions a
//!   workload (or a `Sim::page_policy` override) placed on huge pages
//!   translate through per-core huge-page sub-TLBs (x86-style split
//!   dTLB, own [`TlbStats`] ledger per size), huge leaves sit one
//!   radix level up in the [`PageTable`] (one fewer PTE read per walk,
//!   also under `WalkModel::Cached`), and the shared L2 TLB caches
//!   both sizes side by side.
//!
//! Page size is an argument, not a type: every [`Tlb`] and
//! [`PageTable`] operation takes the page shift it works at — the base
//! shift of `TlbConfig::page_bytes`, or the huge shift of
//! [`imp_common::TlbConfig::huge_page_bytes`] one radix level up — and
//! [`Vm`] picks the shift of each address from its placement.
//!
//! Configuration lives in [`imp_common::TlbConfig`]; the default
//! [`imp_common::TlbConfig::ideal`] disables the subsystem entirely and
//! is bit-identical to the pre-`imp-vm` simulator. The defaults of the
//! newer knobs are equally conservative: no L2 TLB, no translation
//! prefetching, and [`imp_common::WalkModel::Flat`] walk timing
//! reproduce the single-level subsystem exactly.
//!
//! # Example
//!
//! ```
//! use imp_common::{Addr, TlbConfig, TranslationPolicy};
//! use imp_vm::{PrefetchTranslation, Vm};
//!
//! let cfg = TlbConfig::finite().with_policy(TranslationPolicy::DropOnMiss);
//! let mut vm = Vm::new(&cfg, 1).unwrap();
//!
//! // A demand access to a cold page pays a 4-level walk...
//! let d = vm.demand_translate(0, Addr::new(0x1_2345));
//! assert_eq!(d.walk_cycles, 4 * cfg.walk_latency);
//!
//! // ...after which the page is TLB-resident and prefetches to it fly.
//! let p = vm.prefetch_translate(0, Addr::new(0x1_2600));
//! assert!(matches!(p, PrefetchTranslation::Ready(_)));
//!
//! // A prefetch to an unseen page is dropped under DropOnMiss.
//! let p = vm.prefetch_translate(0, Addr::new(0x9_9999));
//! assert!(matches!(p, PrefetchTranslation::Dropped));
//! ```

mod page_table;
mod tlb;

pub use page_table::{
    FlatWalkMemory, PageTable, Walk, WalkMemory, ADDRESS_BITS, LEVEL_BITS, MAX_LEVELS, NODE_BYTES,
    PTE_BYTES, PT_BASE,
};
pub use tlb::Tlb;

use imp_common::{Addr, Cycle, TlbConfig, TlbStats, TranslationPolicy, WalkModel};
use std::fmt;

/// Why a [`TlbConfig`] cannot build a [`Vm`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmConfigError {
    /// `sets` or `ways` is zero.
    EmptyTlb,
    /// Exactly one of `l2_sets` / `l2_ways` is zero (both zero disables
    /// the L2 TLB; both non-zero enables it).
    PartialL2Tlb {
        /// Configured L2 sets.
        sets: u32,
        /// Configured L2 ways.
        ways: u32,
    },
    /// The page size is not a power of two.
    PageNotPowerOfTwo(u64),
    /// The page size is smaller than a cache line (the line-granular
    /// memory system cannot split a line across pages).
    PageSmallerThanLine(u64),
    /// The page size leaves no VPN bits in a 48-bit space.
    PageTooLarge(u64),
    /// Regions were placed on huge pages, but `huge_sets` or
    /// `huge_ways` is zero — there is no huge-page sub-TLB to hold
    /// their translations.
    EmptyHugeTlb {
        /// Configured huge-page sub-TLB sets.
        sets: u32,
        /// Configured huge-page sub-TLB ways.
        ways: u32,
    },
    /// Regions were placed on huge pages, but the huge page size (one
    /// radix level above `page_bytes`) leaves no VPN bits in the
    /// 48-bit space — the page table has no level to hold huge leaves.
    HugePageTooLarge {
        /// The configured base page size.
        page_bytes: u64,
        /// The huge page size it implies.
        huge_bytes: u64,
    },
}

impl fmt::Display for VmConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmConfigError::EmptyTlb => write!(f, "TLB sets and ways must be non-zero"),
            VmConfigError::PartialL2Tlb { sets, ways } => write!(
                f,
                "L2 TLB sets and ways must both be zero (disabled) or both \
                 non-zero, got {sets} sets x {ways} ways"
            ),
            VmConfigError::PageNotPowerOfTwo(b) => {
                write!(f, "page size {b} is not a power of two")
            }
            VmConfigError::PageSmallerThanLine(b) => {
                write!(f, "page size {b} is smaller than a 64-byte cache line")
            }
            VmConfigError::PageTooLarge(b) => {
                write!(f, "page size {b} leaves no page-number bits below 2^48")
            }
            VmConfigError::EmptyHugeTlb { sets, ways } => write!(
                f,
                "regions are placed on huge pages but the huge-page sub-TLB \
                 is {sets} sets x {ways} ways; both must be non-zero"
            ),
            VmConfigError::HugePageTooLarge {
                page_bytes,
                huge_bytes,
            } => write!(
                f,
                "base page size {page_bytes} implies huge pages of \
                 {huge_bytes} bytes, which leave no page-number bits below 2^48"
            ),
        }
    }
}

impl std::error::Error for VmConfigError {}

/// Validates a finite [`TlbConfig`] (an ideal config is always valid).
pub fn validate_config(cfg: &TlbConfig) -> Result<(), VmConfigError> {
    if cfg.ideal {
        return Ok(());
    }
    if cfg.sets == 0 || cfg.ways == 0 {
        return Err(VmConfigError::EmptyTlb);
    }
    if cfg.has_l2() && (cfg.l2_sets == 0 || cfg.l2_ways == 0) {
        return Err(VmConfigError::PartialL2Tlb {
            sets: cfg.l2_sets,
            ways: cfg.l2_ways,
        });
    }
    if !cfg.page_bytes.is_power_of_two() {
        return Err(VmConfigError::PageNotPowerOfTwo(cfg.page_bytes));
    }
    if cfg.page_bytes < imp_common::LINE_BYTES {
        return Err(VmConfigError::PageSmallerThanLine(cfg.page_bytes));
    }
    if cfg.page_bytes.trailing_zeros() >= ADDRESS_BITS {
        return Err(VmConfigError::PageTooLarge(cfg.page_bytes));
    }
    Ok(())
}

/// Validates a [`TlbConfig`] together with a huge-page placement: the
/// plain [`validate_config`] checks plus — when any region is actually
/// placed on huge pages — that the page-table geometry can hold huge
/// leaves and the huge-page sub-TLB exists. An empty placement adds no
/// constraints (huge-page machinery is never consulted then).
pub fn validate_placement(cfg: &TlbConfig, placement: &PagePlacement) -> Result<(), VmConfigError> {
    validate_config(cfg)?;
    if cfg.ideal || placement.is_empty() {
        return Ok(());
    }
    if cfg.huge_page_bytes().trailing_zeros() >= ADDRESS_BITS {
        return Err(VmConfigError::HugePageTooLarge {
            page_bytes: cfg.page_bytes,
            huge_bytes: cfg.huge_page_bytes(),
        });
    }
    if cfg.huge_sets == 0 || cfg.huge_ways == 0 {
        return Err(VmConfigError::EmptyHugeTlb {
            sets: cfg.huge_sets,
            ways: cfg.huge_ways,
        });
    }
    Ok(())
}

/// Which virtual-address ranges are backed by huge pages: the resolved,
/// page-aligned form of the per-region [`imp_common::PagePolicy`]
/// declarations a run placed on huge pages.
///
/// Ranges are aligned outward to whole huge pages and merged, so
/// classification (`is_huge`) is a consistent total function of the
/// address — exactly how transparent huge pages behave: promoting a
/// region promotes every huge page it overlaps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PagePlacement {
    /// Sorted, disjoint half-open `[start, end)` ranges.
    ranges: Vec<(u64, u64)>,
}

impl PagePlacement {
    /// The all-base-pages placement (no address classifies huge).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a placement from raw `(base, bytes)` region extents to be
    /// backed by `huge_page_bytes` pages. Each extent is aligned
    /// outward to whole huge pages; overlapping and adjacent extents
    /// merge. Zero-length extents are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `huge_page_bytes` is not a power of two (it comes from
    /// [`TlbConfig::huge_page_bytes`], which always is).
    pub fn for_regions(
        regions: impl IntoIterator<Item = (u64, u64)>,
        huge_page_bytes: u64,
    ) -> Self {
        assert!(
            huge_page_bytes.is_power_of_two(),
            "huge page size must be a power of two"
        );
        let mask = huge_page_bytes - 1;
        let mut aligned: Vec<(u64, u64)> = regions
            .into_iter()
            .filter(|&(_, bytes)| bytes > 0)
            .map(|(base, bytes)| {
                let start = base & !mask;
                // Extents may come from an untrusted .imptrace file:
                // saturate instead of overflowing, so a region at the
                // top of the u64 space clamps to it rather than
                // wrapping into an inverted (or empty) range.
                let end = base.saturating_add(bytes).saturating_add(mask) & !mask;
                let end = if end <= start { u64::MAX } else { end };
                (start, end)
            })
            .collect();
        aligned.sort_unstable();
        let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(aligned.len());
        for (start, end) in aligned {
            match ranges.last_mut() {
                Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
                _ => ranges.push((start, end)),
            }
        }
        PagePlacement { ranges }
    }

    /// True when no range is placed on huge pages.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The resolved huge ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Whether `addr` falls in a huge-backed range.
    pub fn is_huge(&self, addr: Addr) -> bool {
        let a = addr.raw();
        let i = self.ranges.partition_point(|&(start, _)| start <= a);
        i > 0 && a < self.ranges[i - 1].1
    }
}

/// A demand translation: the physical address plus what it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandTranslation {
    /// Translated physical address.
    pub paddr: Addr,
    /// Translation cycles the access must stall for: 0 on a dTLB hit,
    /// the L2-TLB latency on an L2 hit, and L2 latency plus the full
    /// page walk on a miss of both levels.
    pub walk_cycles: Cycle,
    /// Where the translation was resolved, recorded where the [`Vm`]
    /// decided it: with a zero L2 or walk latency the cost alone cannot
    /// tell the levels apart.
    pub source: TranslationSource,
}

/// Where a demand translation was resolved (observability consumers key
/// latency attribution on this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslationSource {
    /// The per-core dTLB held the page: zero stall.
    DTlbHit,
    /// The shared L2 TLB held the page: the access stalled its hit
    /// latency but walked no radix levels.
    L2TlbHit,
    /// Both TLB levels missed: a full page-table walk of `levels`
    /// radix levels.
    Walk {
        /// Radix levels traversed.
        levels: u32,
    },
}

/// A prefetch translation under the configured
/// [`TranslationPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchTranslation {
    /// The page was TLB-resident (or the policy is `Ideal`): issue now.
    Ready(Addr),
    /// The translation cost cycles before the prefetch may issue: the
    /// L2-TLB hit latency (`levels == 0` — the page missed the dTLB but
    /// the shared L2 TLB held it), or a full `NonBlockingWalk` page
    /// walk (`levels` radix levels traversed).
    Walked {
        /// Translated physical address.
        paddr: Addr,
        /// Cycles until the prefetch may issue.
        cycles: Cycle,
        /// Radix levels traversed (0 for an L2-TLB hit).
        levels: u32,
    },
    /// `DropOnMiss`: the prefetch dies here.
    Dropped,
}

/// Outcome of one translation-prefetch port request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationPrefetch {
    /// Cycle at which the translation is resident (equal to the request
    /// cycle when the page was already TLB-resident at either level).
    pub ready: Cycle,
    /// Radix levels walked to install it (0 when already resident).
    pub walk_levels: u32,
}

/// The virtual-memory engine: one *split* dTLB per core (a base-page
/// structure plus, when any region is placed on huge pages, an
/// x86-style huge-page sub-TLB with its own ledger) over one shared
/// unified L2 TLB (when configured) and one shared page table (the
/// page table is the process's; each core's walks model its own
/// page-miss handler).
///
/// The [`PagePlacement`] fixed at construction classifies every address
/// to exactly one page size; translations, walks, statistics and the
/// translation-prefetch port all honor it.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Per-core dTLBs by page size, indexed like `shifts`: the base
    /// structures, then the huge-page sub-TLBs (none when the placement
    /// is empty — no address ever classifies huge then).
    dtlbs: [Vec<Tlb>; 2],
    /// Page shift of each size: `[base, huge]`.
    shifts: [u32; 2],
    /// The shared L2 TLB, caching both sizes side by side.
    l2: Option<Tlb>,
    table: PageTable,
    policy: TranslationPolicy,
    l2_latency: Cycle,
    walk_latency: Cycle,
    walk_model: WalkModel,
    placement: PagePlacement,
}

impl Vm {
    /// Builds the engine for `cores` cores from a finite `cfg`, with
    /// every region on base pages (the pre-huge-page behavior).
    ///
    /// Callers model an *ideal* `cfg` by not building a `Vm` at all
    /// (translation is skipped entirely), so `cfg.ideal` is ignored
    /// here and the finite fields are used as given.
    ///
    /// # Errors
    ///
    /// Returns the [`VmConfigError`] describing the first invalid field.
    pub fn new(cfg: &TlbConfig, cores: usize) -> Result<Self, VmConfigError> {
        Self::with_placement(cfg, cores, PagePlacement::empty())
    }

    /// Builds the engine for `cores` cores from a finite `cfg` with the
    /// given huge-page `placement`. Addresses inside the placement's
    /// ranges translate at [`TlbConfig::huge_page_bytes`] through the
    /// per-core huge-page sub-TLBs; everything else translates at
    /// `cfg.page_bytes` exactly as before.
    ///
    /// # Errors
    ///
    /// Returns the [`VmConfigError`] describing the first invalid field
    /// (see [`validate_placement`]).
    pub fn with_placement(
        cfg: &TlbConfig,
        cores: usize,
        placement: PagePlacement,
    ) -> Result<Self, VmConfigError> {
        let mut cfg = *cfg;
        cfg.ideal = false;
        validate_placement(&cfg, &placement)?;
        let huge_cores = if placement.is_empty() { 0 } else { cores };
        Ok(Vm {
            dtlbs: [
                (0..cores).map(|_| Tlb::new(cfg.sets, cfg.ways)).collect(),
                (0..huge_cores)
                    .map(|_| Tlb::new(cfg.huge_sets, cfg.huge_ways))
                    .collect(),
            ],
            shifts: [
                cfg.page_bytes.trailing_zeros(),
                cfg.huge_page_bytes().trailing_zeros(),
            ],
            l2: cfg.has_l2().then(|| Tlb::new(cfg.l2_sets, cfg.l2_ways)),
            table: PageTable::new(cfg.page_bytes),
            policy: cfg.policy,
            l2_latency: cfg.l2_latency,
            walk_latency: cfg.walk_latency,
            walk_model: cfg.walk_model,
            placement,
        })
    }

    /// The page size `vaddr` translates at, as an index into `dtlbs`
    /// and `shifts`.
    fn size(&self, vaddr: Addr) -> usize {
        usize::from(self.placement.is_huge(vaddr))
    }

    /// Walks `vaddr`'s page at `shift` from `now` under the configured
    /// [`WalkModel`]: PTE reads through `mem` when cached, at the flat
    /// per-level latency otherwise.
    fn walk(
        &mut self,
        core: usize,
        vaddr: Addr,
        shift: u32,
        now: Cycle,
        mem: &mut dyn WalkMemory,
    ) -> Walk {
        match self.walk_model {
            WalkModel::Flat => {
                let mut flat = FlatWalkMemory(self.walk_latency);
                self.table.walk(vaddr, shift, core, now, &mut flat)
            }
            WalkModel::Cached => self.table.walk(vaddr, shift, core, now, mem),
        }
    }

    /// Installs a walked translation in the shared L2 TLB (when
    /// present) and in `core`'s dTLB, which is charged the walk, and
    /// returns the physical address. A prefetch-initiated walk counts
    /// in both levels' `prefetch_walks` — in the L2 as a prefetch
    /// install rather than a miss (its probe was a prefetch probe),
    /// keeping `evictions == misses + prefetch_walks - cold_fills`.
    fn install(
        &mut self,
        core: usize,
        vaddr: Addr,
        size: usize,
        walk: Walk,
        prefetch: bool,
    ) -> Addr {
        let shift = self.shifts[size];
        if let Some(l2) = self.l2.as_mut() {
            l2.fill(vaddr, walk.ppn, shift);
            l2.stats_mut().prefetch_walks += u64::from(prefetch);
        }
        fill_walked(&mut self.dtlbs[size][core], vaddr, shift, walk, prefetch);
        splice_ppn(vaddr, walk.ppn, shift)
    }

    /// Translates a demand access for `core`, walking (and stalling)
    /// on a TLB miss; flat walk timing. Equivalent to
    /// [`Vm::demand_translate_via`] with a [`FlatWalkMemory`], which
    /// simulators with a real memory hierarchy use instead.
    pub fn demand_translate(&mut self, core: usize, vaddr: Addr) -> DemandTranslation {
        let mut flat = FlatWalkMemory(self.walk_latency);
        self.demand_translate_via(core, vaddr, 0, &mut flat)
    }

    /// Translates a demand access for `core` at cycle `now`: dTLB, then
    /// the shared L2 TLB, then a page walk whose per-level PTE reads go
    /// through `mem` (under [`WalkModel::Cached`]). Both TLB levels are
    /// filled by the walk; an L2 hit refills only the dTLB.
    pub fn demand_translate_via(
        &mut self,
        core: usize,
        vaddr: Addr,
        now: Cycle,
        mem: &mut dyn WalkMemory,
    ) -> DemandTranslation {
        let size = self.size(vaddr);
        let shift = self.shifts[size];
        if let Some(paddr) = self.dtlbs[size][core].lookup(vaddr, shift) {
            return DemandTranslation {
                paddr,
                walk_cycles: 0,
                source: TranslationSource::DTlbHit,
            };
        }
        // The dTLB missed: the L2 TLB (when present) is probed next,
        // costing its hit latency on the way to a hit *or* a walk.
        let mut l2_probe = 0;
        if let Some(l2) = self.l2.as_mut() {
            l2_probe = self.l2_latency;
            if let Some(paddr) = l2.lookup(vaddr, shift) {
                self.dtlbs[size][core].fill(vaddr, paddr.raw() >> shift, shift);
                return DemandTranslation {
                    paddr,
                    walk_cycles: l2_probe,
                    source: TranslationSource::L2TlbHit,
                };
            }
        }
        let walk = self.walk(core, vaddr, shift, now + l2_probe, mem);
        DemandTranslation {
            paddr: self.install(core, vaddr, size, walk, false),
            walk_cycles: l2_probe + walk.cycles,
            source: TranslationSource::Walk {
                levels: walk.levels,
            },
        }
    }

    /// Translates a prefetch address for `core` under the configured
    /// policy; flat walk timing (see [`Vm::prefetch_translate_via`]).
    pub fn prefetch_translate(&mut self, core: usize, vaddr: Addr) -> PrefetchTranslation {
        let mut flat = FlatWalkMemory(self.walk_latency);
        self.prefetch_translate_via(core, vaddr, 0, &mut flat)
    }

    /// Translates a prefetch address for `core` at cycle `now` under
    /// the configured policy. A page that misses the dTLB but sits in
    /// the shared L2 TLB survives *every* policy (the translation is
    /// one level away, not a walk), delayed by the L2 hit latency; the
    /// dTLB is not refilled, so prefetch translations never displace
    /// entries the demand stream relies on. On a full miss,
    /// `NonBlockingWalk` walks through `mem` and fills both levels
    /// (possibly evicting pages demand accesses wanted — the cost of
    /// aggressive prefetch translation); `Ideal` never touches any
    /// state.
    pub fn prefetch_translate_via(
        &mut self,
        core: usize,
        vaddr: Addr,
        now: Cycle,
        mem: &mut dyn WalkMemory,
    ) -> PrefetchTranslation {
        if self.policy == TranslationPolicy::Ideal {
            return PrefetchTranslation::Ready(vaddr);
        }
        let size = self.size(vaddr);
        let shift = self.shifts[size];
        if let Some(paddr) = self.dtlbs[size][core].prefetch_lookup(vaddr, shift) {
            return PrefetchTranslation::Ready(paddr);
        }
        let mut l2_probe = 0;
        if let Some(l2) = self.l2.as_mut() {
            l2_probe = self.l2_latency;
            if let Some(paddr) = l2.prefetch_lookup(vaddr, shift) {
                return PrefetchTranslation::Walked {
                    paddr,
                    cycles: l2_probe,
                    levels: 0,
                };
            }
        }
        match self.policy {
            TranslationPolicy::DropOnMiss => {
                self.dtlbs[size][core].stats_mut().prefetch_drops += 1;
                PrefetchTranslation::Dropped
            }
            TranslationPolicy::NonBlockingWalk => {
                let walk = self.walk(core, vaddr, shift, now + l2_probe, mem);
                PrefetchTranslation::Walked {
                    paddr: self.install(core, vaddr, size, walk, true),
                    cycles: l2_probe + walk.cycles,
                    levels: walk.levels,
                }
            }
            TranslationPolicy::Ideal => unreachable!("handled above"),
        }
    }

    /// The translation-prefetch port: prefills the shared L2 TLB with
    /// the translation for `vaddr`'s page on behalf of `core`, so a
    /// later (data) prefetch to that page survives `DropOnMiss` via an
    /// L2 hit instead of dying. The walk goes through `mem` under
    /// [`WalkModel::Cached`]; its cycles and the install are ledgered
    /// on the L2 TLB (`prefetch_walks`, `walk_cycles`), never on the
    /// per-core dTLBs — the port deliberately bypasses them so
    /// speculative translations cannot displace demand entries.
    ///
    /// Without an L2 TLB configured, the port falls back to filling
    /// `core`'s dTLB (ledgered there), trading that protection for
    /// still-working translation prefetching.
    ///
    /// Under [`TranslationPolicy::Ideal`] the port is a no-op: prefetch
    /// translations are already free, so there is nothing to prefill
    /// and no walk to pay.
    ///
    /// Chained indirection (`imp:depth=N`) leans on this port twice:
    /// every data-carrying `Indirect` prefetch routes its page here
    /// when translation prefetching is on, and the chain's *frontier*
    /// hop — one past the last data hop — arrives as a
    /// translation-only request with no data fetch at all, so by the
    /// time the chase reaches that page its walk has already been
    /// paid.
    pub fn prefetch_translation(
        &mut self,
        core: usize,
        vaddr: Addr,
        now: Cycle,
        mem: &mut dyn WalkMemory,
    ) -> TranslationPrefetch {
        let size = self.size(vaddr);
        let shift = self.shifts[size];
        let resident = self.policy == TranslationPolicy::Ideal
            || self.dtlbs[size][core].contains(vaddr, shift)
            || self.l2.as_ref().is_some_and(|l2| l2.contains(vaddr, shift));
        if resident {
            return TranslationPrefetch {
                ready: now,
                walk_levels: 0,
            };
        }
        let walk = self.walk(core, vaddr, shift, now, mem);
        let tlb = match self.l2.as_mut() {
            Some(l2) => l2,
            None => &mut self.dtlbs[size][core],
        };
        fill_walked(tlb, vaddr, shift, walk, true);
        TranslationPrefetch {
            ready: now + walk.cycles,
            walk_levels: walk.levels,
        }
    }

    /// Per-core base-page TLB statistics.
    pub fn stats(&self, core: usize) -> &TlbStats {
        self.dtlbs[0][core].stats()
    }

    /// Per-core huge-page sub-TLB statistics, when the placement put
    /// any region on huge pages.
    pub fn huge_stats(&self, core: usize) -> Option<&TlbStats> {
        self.dtlbs[1].get(core).map(Tlb::stats)
    }

    /// The shared L2 TLB's statistics, when one is configured.
    pub fn l2_stats(&self) -> Option<&TlbStats> {
        self.l2.as_ref().map(Tlb::stats)
    }

    /// The shared page table (diagnostics: mapped-page counts).
    pub fn page_table(&self) -> &PageTable {
        &self.table
    }
}

/// Installs `walk`'s translation of `vaddr` in `tlb` at page `shift`
/// and charges the walk to its ledger; a `prefetch`-initiated walk also
/// counts in `prefetch_walks`.
fn fill_walked(tlb: &mut Tlb, vaddr: Addr, shift: u32, walk: Walk, prefetch: bool) {
    tlb.fill(vaddr, walk.ppn, shift);
    let stats = tlb.stats_mut();
    stats.prefetch_walks += u64::from(prefetch);
    stats.walk_cycles += walk.cycles;
    stats.walk_levels += u64::from(walk.levels);
}

/// Splices `ppn` onto `vaddr`'s page offset (the one place the
/// physical-address composition lives; [`Tlb`] uses it too).
pub(crate) fn splice_ppn(vaddr: Addr, ppn: u64, page_shift: u32) -> Addr {
    let offset_mask = (1u64 << page_shift) - 1;
    Addr::new((ppn << page_shift) | (vaddr.raw() & offset_mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-entry dTLB over an 8 x 4 L2: pages `a`, `b`, `a` walk, walk,
    /// then hit the L2.
    fn thrash_the_dtlb(cfg: TlbConfig) -> (Vm, [DemandTranslation; 3]) {
        let mut cfg = cfg.with_l2(8, 4);
        cfg.sets = 1;
        cfg.ways = 1;
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let (a, b) = (Addr::new(0x1_0000), Addr::new(0x2_0000));
        let t = [a, b, a].map(|p| vm.demand_translate(0, p));
        (vm, t)
    }

    #[test]
    fn translation_source_classifies_cost_fields() {
        // At non-zero latencies the recorded source agrees with what
        // the cost fields say: a walk stalls the L2 probe plus its
        // levels, an L2 hit the probe alone, a dTLB hit nothing.
        let cfg = TlbConfig::finite();
        let (mut vm, [walk, _, l2_hit]) = thrash_the_dtlb(cfg);
        assert_eq!(walk.source, TranslationSource::Walk { levels: 4 });
        assert_eq!(walk.walk_cycles, cfg.l2_latency + 4 * cfg.walk_latency);
        assert_eq!(l2_hit.source, TranslationSource::L2TlbHit);
        assert_eq!(l2_hit.walk_cycles, cfg.l2_latency);
        let d_hit = vm.demand_translate(0, Addr::new(0x1_0040));
        assert_eq!(d_hit.source, TranslationSource::DTlbHit);
        assert_eq!(d_hit.walk_cycles, 0);
    }

    #[test]
    fn zero_latency_translations_keep_their_source() {
        // With a free L2 probe the L2 hit costs what a dTLB hit does,
        // and with free PTE reads so does a walk; the source still
        // names the level that resolved each translation.
        let (vm, [_, _, l2_hit]) = thrash_the_dtlb(TlbConfig::finite().with_l2_latency(0));
        assert_eq!(l2_hit.walk_cycles, 0);
        assert_eq!(l2_hit.source, TranslationSource::L2TlbHit);
        assert_eq!(vm.l2_stats().unwrap().hits, 1);
        let (_, [walk, ..]) =
            thrash_the_dtlb(TlbConfig::finite().with_l2_latency(0).with_walk_latency(0));
        assert_eq!(walk.walk_cycles, 0);
        assert_eq!(walk.source, TranslationSource::Walk { levels: 4 });
    }

    #[test]
    fn l2_tlb_catches_dtlb_misses_and_walks_fill_both_levels() {
        // A 1-entry dTLB over a roomy L2: alternating pages thrash the
        // dTLB but, after their first walk, always hit the L2.
        let mut cfg = TlbConfig::finite().with_l2(8, 4);
        cfg.sets = 1;
        cfg.ways = 1;
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let a = Addr::new(0x1_0000);
        let b = Addr::new(0x2_0000);
        assert_eq!(
            vm.demand_translate(0, a).walk_cycles,
            cfg.l2_latency + 4 * cfg.walk_latency,
            "full miss pays the L2 probe plus the walk"
        );
        assert!(vm.demand_translate(0, b).walk_cycles > 0);
        for _ in 0..3 {
            // Each re-touch misses the 1-entry dTLB, hits the L2, and
            // stalls only the L2 latency.
            assert_eq!(vm.demand_translate(0, a).walk_cycles, cfg.l2_latency);
            assert_eq!(vm.demand_translate(0, b).walk_cycles, cfg.l2_latency);
        }
        let l1 = vm.stats(0).clone();
        let l2 = vm.l2_stats().unwrap();
        assert_eq!(l1.misses, l2.hits + l2.misses, "L1 misses == L2 lookups");
        assert_eq!(l2.misses, 2, "only the two cold pages walked");
        assert_eq!(l1.walk_cycles, 2 * 4 * cfg.walk_latency);
    }

    #[test]
    fn l2_hit_rescues_prefetches_from_drop_on_miss() {
        let mut cfg = TlbConfig::finite().with_l2(8, 4);
        cfg.sets = 1;
        cfg.ways = 1;
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let a = Addr::new(0x1_0000);
        let b = Addr::new(0x2_0000);
        vm.demand_translate(0, a); // a in dTLB + L2
        vm.demand_translate(0, b); // b evicts a from the dTLB; both in L2
        match vm.prefetch_translate(0, a) {
            PrefetchTranslation::Walked { cycles, levels, .. } => {
                assert_eq!(cycles, cfg.l2_latency);
                assert_eq!(levels, 0, "an L2 hit is not a walk");
            }
            other => panic!("expected an L2-hit rescue, got {other:?}"),
        }
        assert_eq!(vm.l2_stats().unwrap().prefetch_hits, 1);
        assert_eq!(vm.stats(0).prefetch_drops, 0);
        // A page in neither level still drops.
        assert_eq!(
            vm.prefetch_translate(0, Addr::new(0x9_0000)),
            PrefetchTranslation::Dropped
        );
    }

    #[test]
    fn translation_prefetch_port_installs_into_l2_only() {
        let cfg = TlbConfig::finite().with_l2(8, 4);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let target = Addr::new(0x7_0000);
        let mut flat = FlatWalkMemory(cfg.walk_latency);
        let tp = vm.prefetch_translation(0, target, 100, &mut flat);
        assert_eq!(tp.ready, 100 + 4 * cfg.walk_latency);
        assert_eq!(tp.walk_levels, 4);
        let l2 = vm.l2_stats().unwrap();
        assert_eq!(l2.prefetch_walks, 1);
        assert_eq!(l2.walk_cycles, 4 * cfg.walk_latency);
        assert_eq!(
            vm.stats(0).lookups(),
            0,
            "the port bypasses the per-core dTLB"
        );
        // The prefill makes the page survive DropOnMiss via the L2.
        assert!(matches!(
            vm.prefetch_translate(0, target),
            PrefetchTranslation::Walked { levels: 0, .. }
        ));
        // Re-prefetching a resident page is free and walk-less.
        let again = vm.prefetch_translation(0, target, 200, &mut flat);
        assert_eq!(
            again,
            TranslationPrefetch {
                ready: 200,
                walk_levels: 0
            }
        );
        // Without an L2, the port falls back to the dTLB.
        let mut vm = Vm::new(&TlbConfig::finite(), 1).unwrap();
        vm.prefetch_translation(0, target, 0, &mut flat);
        assert_eq!(vm.stats(0).prefetch_walks, 1);
        assert_eq!(vm.demand_translate(0, target).walk_cycles, 0);
        // Under Ideal translation the port is a free no-op: prefetches
        // already translate for free, so nothing walks or installs.
        let cfg = TlbConfig::finite()
            .with_l2(8, 4)
            .with_policy(TranslationPolicy::Ideal);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let tp = vm.prefetch_translation(0, target, 50, &mut flat);
        assert_eq!(
            tp,
            TranslationPrefetch {
                ready: 50,
                walk_levels: 0
            }
        );
        assert_eq!(vm.l2_stats().unwrap(), &TlbStats::default());
    }

    #[test]
    fn l2_prefetch_installs_are_ledgered() {
        // A 1 x 1 L2: the port's second install displaces the first,
        // and the eviction ledger includes prefetch installs.
        let cfg = TlbConfig::finite().with_l2(1, 1);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        let mut flat = FlatWalkMemory(cfg.walk_latency);
        vm.prefetch_translation(0, Addr::new(3 << 12), 0, &mut flat);
        let l2 = vm.l2_stats().unwrap();
        assert_eq!((l2.prefetch_walks, l2.cold_fills), (1, 1));
        vm.prefetch_translation(0, Addr::new(4 << 12), 0, &mut flat);
        let l2 = vm.l2_stats().unwrap();
        assert_eq!(l2.evictions, 1);
        assert_eq!(l2.evictions, l2.misses + l2.prefetch_walks - l2.cold_fills);
    }

    #[test]
    fn non_blocking_prefetch_walks_keep_the_l2_ledger_consistent() {
        // 1x1 L2: the second cold prefetch walk's install evicts the
        // first. Those installs are prefetch-initiated, so the ledger
        // `evictions == misses + prefetch_walks - cold_fills` must hold
        // with misses == 0.
        let cfg = TlbConfig::finite()
            .with_l2(1, 1)
            .with_policy(TranslationPolicy::NonBlockingWalk);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        vm.prefetch_translate(0, Addr::new(0x1_0000));
        vm.prefetch_translate(0, Addr::new(0x2_0000));
        let l2 = vm.l2_stats().unwrap();
        assert_eq!(l2.misses, 0, "prefetch probes are not demand misses");
        assert_eq!(l2.prefetch_walks, 2);
        assert_eq!(l2.cold_fills, 1);
        assert_eq!(
            l2.evictions,
            l2.misses + l2.prefetch_walks - l2.cold_fills,
            "ledger holds under NonBlockingWalk"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = TlbConfig::finite();
        c.sets = 0;
        assert_eq!(Vm::new(&c, 1).unwrap_err(), VmConfigError::EmptyTlb);
        let mut c = TlbConfig::finite();
        c.l2_sets = 4; // ways left at 0
        assert_eq!(
            Vm::new(&c, 1).unwrap_err(),
            VmConfigError::PartialL2Tlb { sets: 4, ways: 0 }
        );
        let mut c = TlbConfig::finite();
        c.page_bytes = 3000;
        assert_eq!(
            Vm::new(&c, 1).unwrap_err(),
            VmConfigError::PageNotPowerOfTwo(3000)
        );
        let mut c = TlbConfig::finite();
        c.page_bytes = 32;
        assert_eq!(
            Vm::new(&c, 1).unwrap_err(),
            VmConfigError::PageSmallerThanLine(32)
        );
        let mut c = TlbConfig::finite();
        c.page_bytes = 1 << 48;
        assert_eq!(
            Vm::new(&c, 1).unwrap_err(),
            VmConfigError::PageTooLarge(1 << 48)
        );
        assert!(validate_config(&TlbConfig::ideal()).is_ok());
    }

    #[test]
    fn placement_routes_translation_through_the_huge_sub_tlb() {
        let cfg = TlbConfig::finite();
        let huge = cfg.huge_page_bytes();
        // One huge region starting at 2 MB; everything else is base.
        let placement = PagePlacement::for_regions([(huge, 3 * huge)], huge);
        let mut vm = Vm::with_placement(&cfg, 1, placement).unwrap();

        // A huge-region demand access walks one level fewer and lands
        // in the huge ledger only.
        let ha = Addr::new(huge + 0x1234);
        let d = vm.demand_translate(0, ha);
        assert_eq!(d.paddr, ha, "identity mapping preserves addresses");
        assert_eq!(
            d.source,
            TranslationSource::Walk { levels: 3 },
            "2 MB leaves sit one level up"
        );
        assert_eq!(d.walk_cycles, 3 * cfg.walk_latency);
        let h = vm.huge_stats(0).unwrap();
        assert_eq!((h.hits, h.misses, h.walk_levels), (0, 1, 3));
        assert_eq!(vm.stats(0), &TlbStats::default(), "base ledger untouched");

        // Any address in the same 2 MB page now hits.
        assert_eq!(
            vm.demand_translate(0, Addr::new(huge + 0x1f_0000))
                .walk_cycles,
            0
        );
        assert_eq!(vm.huge_stats(0).unwrap().hits, 1);

        // A base-region access walks the full depth into the base
        // ledger; the two sub-TLBs never cross-talk.
        let d = vm.demand_translate(0, Addr::new(0x5000));
        assert_eq!(d.source, TranslationSource::Walk { levels: 4 });
        assert_eq!(vm.stats(0).misses, 1);
        assert_eq!(vm.stats(0).walk_levels, 4);
        assert_eq!(vm.huge_stats(0).unwrap().misses, 1);
        assert_eq!(vm.page_table().mapped_huge_pages(), 1);
        assert_eq!(vm.page_table().mapped_pages(), 1);
    }

    #[test]
    fn huge_prefetches_honor_policy_and_the_port_honors_size() {
        let cfg = TlbConfig::finite().with_l2(8, 4);
        let huge = cfg.huge_page_bytes();
        let placement = PagePlacement::for_regions([(0, 4 * huge)], huge);
        let mut vm = Vm::with_placement(&cfg, 1, placement.clone()).unwrap();

        // Cold huge page under DropOnMiss: dropped, ledgered huge.
        assert_eq!(
            vm.prefetch_translate(0, Addr::new(2 * huge)),
            PrefetchTranslation::Dropped
        );
        assert_eq!(vm.huge_stats(0).unwrap().prefetch_drops, 1);

        // The translation-prefetch port walks the *huge* page (3
        // levels) and installs a size-tagged L2 entry that rescues a
        // later prefetch to anywhere in the 2 MB page.
        let mut flat = FlatWalkMemory(cfg.walk_latency);
        let tp = vm.prefetch_translation(0, Addr::new(2 * huge + 64), 100, &mut flat);
        assert_eq!(tp.walk_levels, 3);
        assert_eq!(tp.ready, 100 + 3 * cfg.walk_latency);
        let l2 = vm.l2_stats().unwrap();
        assert_eq!((l2.prefetch_walks, l2.walk_levels), (1, 3));
        assert!(matches!(
            vm.prefetch_translate(0, Addr::new(2 * huge + 0x10_0000)),
            PrefetchTranslation::Walked { levels: 0, .. }
        ));

        // NonBlockingWalk on a huge page fills the huge sub-TLB.
        let cfg = cfg.with_policy(TranslationPolicy::NonBlockingWalk);
        let mut vm = Vm::with_placement(&cfg, 1, placement).unwrap();
        match vm.prefetch_translate(0, Addr::new(3 * huge)) {
            PrefetchTranslation::Walked { cycles, levels, .. } => {
                assert_eq!(levels, 3);
                assert_eq!(cycles, cfg.l2_latency + 3 * cfg.walk_latency);
            }
            other => panic!("expected a huge walk, got {other:?}"),
        }
        assert_eq!(vm.huge_stats(0).unwrap().prefetch_walks, 1);
        assert_eq!(vm.demand_translate(0, Addr::new(3 * huge)).walk_cycles, 0);
    }

    #[test]
    fn placement_alignment_merging_and_validation() {
        let h = 1u64 << 21;
        // Unaligned, overlapping and adjacent extents merge into
        // aligned disjoint ranges; zero-length extents vanish.
        let p = PagePlacement::for_regions(
            [
                (h + 100, 50),
                (h / 2, h),
                (4 * h, h),
                (5 * h, 10),
                (9 * h, 0),
            ],
            h,
        );
        assert_eq!(p.ranges(), &[(0, 2 * h), (4 * h, 6 * h)]);
        assert!(p.is_huge(Addr::new(0)));
        assert!(p.is_huge(Addr::new(2 * h - 1)));
        assert!(!p.is_huge(Addr::new(2 * h)));
        assert!(p.is_huge(Addr::new(5 * h)));
        assert!(!p.is_huge(Addr::new(6 * h)));
        assert!(PagePlacement::empty().is_empty());

        // Extents near the top of the u64 space (possible in an
        // untrusted .imptrace) saturate instead of wrapping.
        let top = PagePlacement::for_regions([(u64::MAX - 100, 200), (0, h)], h);
        assert!(top.is_huge(Addr::new(u64::MAX - 1)));
        assert!(top.is_huge(Addr::new(0)));
        assert!(!top.is_huge(Addr::new(5 * h)));

        // A placement demands a huge-capable config: missing huge
        // sub-TLB and huge-incapable page sizes are typed errors...
        let placed = PagePlacement::for_regions([(0, h)], h);
        let bad = TlbConfig::finite().with_huge_tlb(0, 0);
        assert_eq!(
            Vm::with_placement(&bad, 1, placed.clone()).unwrap_err(),
            VmConfigError::EmptyHugeTlb { sets: 0, ways: 0 }
        );
        let mut too_big = TlbConfig::finite();
        too_big.page_bytes = 1 << 40;
        assert_eq!(
            Vm::with_placement(
                &too_big,
                1,
                PagePlacement::for_regions([(0, 1 << 50)], 1 << 49)
            )
            .unwrap_err(),
            VmConfigError::HugePageTooLarge {
                page_bytes: 1 << 40,
                huge_bytes: 1 << 49,
            }
        );
        // ...but the same configs are fine with an empty placement
        // (huge machinery never consulted).
        assert!(Vm::with_placement(&bad, 1, PagePlacement::empty()).is_ok());
        assert!(Vm::new(&too_big, 1).is_ok());
    }

    #[test]
    fn demand_walks_once_then_hits() {
        let cfg = TlbConfig::finite();
        let mut vm = Vm::new(&cfg, 2).unwrap();
        let a = Addr::new(0x12_3456);
        let first = vm.demand_translate(0, a);
        assert_eq!(first.walk_cycles, 4 * cfg.walk_latency);
        assert_eq!(first.paddr, a, "identity mapping preserves addresses");
        let second = vm.demand_translate(0, a);
        assert_eq!(second.walk_cycles, 0);
        // Core 1 has its own TLB but shares the page table.
        assert_eq!(vm.demand_translate(1, a).walk_cycles, 4 * cfg.walk_latency);
        assert_eq!(vm.page_table().mapped_pages(), 1);
        assert_eq!(vm.stats(0).misses, 1);
        assert_eq!(vm.stats(0).hits, 1);
        assert_eq!(vm.stats(0).walk_cycles, 4 * cfg.walk_latency);
    }

    #[test]
    fn prefetch_policies_differ() {
        let cold = Addr::new(0x77_0000);
        // DropOnMiss: cold prefetch dies.
        let mut vm = Vm::new(&TlbConfig::finite(), 1).unwrap();
        assert_eq!(vm.prefetch_translate(0, cold), PrefetchTranslation::Dropped);
        assert_eq!(vm.stats(0).prefetch_drops, 1);

        // NonBlockingWalk: cold prefetch walks and fills the TLB.
        let cfg = TlbConfig::finite().with_policy(TranslationPolicy::NonBlockingWalk);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        match vm.prefetch_translate(0, cold) {
            PrefetchTranslation::Walked { cycles, paddr, .. } => {
                assert_eq!(cycles, 4 * cfg.walk_latency);
                assert_eq!(paddr, cold);
            }
            other => panic!("expected a walk, got {other:?}"),
        }
        assert!(matches!(
            vm.prefetch_translate(0, cold),
            PrefetchTranslation::Ready(_)
        ));
        assert_eq!(vm.stats(0).prefetch_walks, 1);
        // The non-blocking walk primed the TLB for the demand stream.
        assert_eq!(vm.demand_translate(0, cold).walk_cycles, 0);

        // Ideal: prefetches neither walk nor fill.
        let cfg = TlbConfig::finite().with_policy(TranslationPolicy::Ideal);
        let mut vm = Vm::new(&cfg, 1).unwrap();
        assert_eq!(
            vm.prefetch_translate(0, cold),
            PrefetchTranslation::Ready(cold)
        );
        assert_eq!(vm.stats(0).prefetch_hits, 0);
        assert!(vm.demand_translate(0, cold).walk_cycles > 0);
    }
}
