//! The Indirect Memory Prefetcher (Section 3), assembled from the
//! Prefetch Table (stream + indirect halves), the Indirect Pattern
//! Detector, the shift-based address generator and the Granularity
//! Predictor.

use crate::access::{
    Access, L1Prefetcher, PrefetchCtx, PrefetchKind, PrefetchRequest, PrefetcherStats,
};
use crate::gp::{Gp, GpDecision};
use crate::ipd::{Detection, Ipd, IpdOutcome};
use crate::stream::{shift_apply, StreamEvent, StreamTable};
use imp_common::{Addr, FastMap, ImpConfig, LineAddr, SectorMask};

/// Role of an indirect pattern in a pattern tree (Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndType {
    /// The default `A[B[i]]` pattern rooted at an index stream.
    #[default]
    Primary,
    /// A second data array indexed by the same index values
    /// (`load A[B[i]]; load C[B[i]]`, Listing 2).
    SecondWay,
    /// A pattern whose index values are produced by the parent's
    /// indirect accesses (`load A[B[C[i]]]`, Listing 3).
    SecondLevel,
}

/// Detection sub-slot per PT entry, encoded into the IPD owner id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DetectKind {
    Primary,
    Way,
    Level,
}

fn owner_of(slot: usize, kind: DetectKind) -> u32 {
    (slot as u32) * 3
        + match kind {
            DetectKind::Primary => 0,
            DetectKind::Way => 1,
            DetectKind::Level => 2,
        }
}

fn decode_owner(owner: u32) -> (usize, DetectKind) {
    let slot = (owner / 3) as usize;
    let kind = match owner % 3 {
        0 => DetectKind::Primary,
        1 => DetectKind::Way,
        _ => DetectKind::Level,
    };
    (slot, kind)
}

/// The indirect half of one Prefetch Table entry (Figures 5 and 6).
#[derive(Clone, Debug, Default)]
struct IndirectPattern {
    enabled: bool,
    shift: i8,
    base: u64,
    /// Saturating confidence counter (`hit cnt` in Figure 5).
    hit_cnt: u32,
    /// Confidence threshold reached; prefetching is active.
    prefetching: bool,
    /// Current prefetch distance (ramps linearly to the max).
    distance: u32,
    /// The pattern's demand accesses include writes: prefetch Exclusive.
    writes: bool,
    /// Chain hop of this pattern's data array: 1 for `A[B[i]]`, 2 for
    /// the level below it, and so on. Way siblings share their parent's
    /// hop.
    hop: u8,
    /// Child pattern indexed by the same values (multi-way).
    next_way: Option<usize>,
    /// Child pattern indexed by this pattern's loaded values
    /// (multi-level).
    next_level: Option<usize>,
    /// Parent pattern for secondary entries, whose `next_way` or
    /// `next_level` links back here.
    prev: Option<usize>,
    /// Consecutive index accesses whose expected indirect address never
    /// appeared. A long streak retires the pattern (e.g. PageRank's
    /// rank-buffer swap changes BaseAddr between iterations).
    miss_streak: u32,
}

/// Exponential back-off state for failed IPD detections (Section 3.2.2).
#[derive(Clone, Debug)]
struct Backoff {
    /// Index accesses to skip before the next attempt.
    wait: u32,
    /// Next back-off period on failure.
    next: u32,
}

impl Backoff {
    fn new(initial: u32) -> Self {
        Backoff {
            wait: 0,
            next: initial,
        }
    }

    fn ready(&self) -> bool {
        self.wait == 0
    }

    fn tick(&mut self) {
        self.wait = self.wait.saturating_sub(1);
    }

    fn fail(&mut self) {
        self.wait = self.next;
        // Exponential back-off, capped so stable-but-sparse patterns
        // (e.g. a mostly-cache-resident target array) are still
        // eventually detected.
        self.next = self.next.saturating_mul(2).min(4096);
    }
}

/// An indirect prefetch whose index value was not yet readable; retried
/// when the index line fills.
#[derive(Clone, Copy, Debug)]
struct Deferred {
    slot: usize,
    index_addr: Addr,
    size: u32,
}

const MAX_DEFERRED: usize = 512;

/// Sentinel in [`Imp::pending`]: no expected line for this slot.
const NO_PENDING: u64 = u64::MAX;

/// The full IMP prefetcher attached to one L1 data cache.
#[derive(Debug)]
pub struct Imp {
    cfg: ImpConfig,
    partial: bool,
    /// Maximum chained-indirection depth. Data prefetches chase up to
    /// `depth + 1` hops; translation prefetching walks one hop further
    /// still. The default of 1 reproduces the paper's detector exactly:
    /// a primary pattern plus one fill-time level child.
    depth: u8,
    table: StreamTable,
    ind: Vec<IndirectPattern>,
    /// `pending[slot]`: line number expected to be accessed for the
    /// slot's most recent index value, or [`NO_PENDING`]. Kept as a flat
    /// array so the per-access expectation scan touches a few cache
    /// lines instead of walking the full pattern structs.
    pending: Vec<u64>,
    backoff: Vec<Backoff>,
    ipd: Ipd,
    gp: Gp,
    /// Deferred indirect prefetches by index line number, each line's
    /// in the order they were deferred. Lines without entries are
    /// removed.
    deferred: FastMap<u64, Vec<Deferred>>,
    /// Entries in `deferred`, capped at [`MAX_DEFERRED`].
    deferred_len: usize,
    stats: PrefetcherStats,
}

impl Imp {
    /// Creates an IMP with the given configuration; `partial` enables the
    /// Granularity Predictor for sub-line prefetches (Section 4).
    pub fn new(cfg: ImpConfig, partial: bool, seed: u64) -> Self {
        let pt = cfg.pt_entries;
        Imp {
            partial,
            depth: 1,
            table: StreamTable::new(pt, cfg.stream_threshold, cfg.stream_distance),
            ind: vec![IndirectPattern::default(); pt],
            pending: vec![NO_PENDING; pt],
            backoff: vec![Backoff::new(cfg.detect_backoff_initial); pt],
            ipd: Ipd::new(cfg.ipd_entries, cfg.shifts.clone(), cfg.baseaddr_array_len),
            gp: Gp::new(pt, cfg.gp_samples, seed),
            deferred: FastMap::default(),
            deferred_len: 0,
            stats: PrefetcherStats::default(),
            cfg,
        }
    }

    /// Sets the chained-indirection depth (clamped to at least 1). Data
    /// prefetches chase up to `depth + 1` hops and the frontier hop is
    /// chased translation-only; `depth = 1` is bit-identical to the
    /// single-level detector.
    pub fn with_depth(mut self, depth: u8) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Number of currently enabled indirect patterns.
    pub fn enabled_patterns(&self) -> usize {
        self.ind.iter().filter(|p| p.enabled).count()
    }

    /// The pattern parameters of PT slot `i`, if enabled:
    /// `(shift, base, type)`.
    pub fn pattern(&self, i: usize) -> Option<(i8, u64, IndType)> {
        let p = &self.ind[i];
        let ind_type = match p.prev {
            None => IndType::Primary,
            Some(parent) if self.ind[parent].next_way == Some(i) => IndType::SecondWay,
            Some(_) => IndType::SecondLevel,
        };
        p.enabled.then_some((p.shift, p.base, ind_type))
    }

    /// Frees `slot` and its way/level subtree: each pattern with its
    /// expected line, back-off, IPD sub-slots, GP entry and deferred
    /// retries. A parent that links to `slot` forgets the link. The
    /// stream half of the entry is kept.
    fn reset_slot(&mut self, slot: usize) {
        let p = std::mem::take(&mut self.ind[slot]);
        for child in [p.next_way, p.next_level].into_iter().flatten() {
            self.reset_slot(child);
        }
        if let Some(parent) = p.prev {
            let q = &mut self.ind[parent];
            for link in [&mut q.next_way, &mut q.next_level] {
                if *link == Some(slot) {
                    *link = None;
                }
            }
        }
        self.pending[slot] = NO_PENDING;
        self.backoff[slot] = Backoff::new(self.cfg.detect_backoff_initial);
        for k in [DetectKind::Primary, DetectKind::Way, DetectKind::Level] {
            self.ipd.release(owner_of(slot, k));
        }
        self.gp.reset_entry(slot);
        self.drop_deferred(slot);
    }

    /// Lists a deferred prefetch for retry when its index line fills,
    /// or counts it as dropped when the list is full.
    fn defer(&mut self, d: Deferred) {
        if self.deferred_len < MAX_DEFERRED {
            let line = LineAddr::containing(d.index_addr).number();
            self.deferred.entry(line).or_default().push(d);
            self.deferred_len += 1;
        } else {
            self.stats.deferred_drops += 1;
        }
    }

    /// Removes every deferred prefetch of `slot`.
    fn drop_deferred(&mut self, slot: usize) {
        let len = &mut self.deferred_len;
        self.deferred.retain(|_, list| {
            let before = list.len();
            list.retain(|d| d.slot != slot);
            *len -= before - list.len();
            !list.is_empty()
        });
    }

    /// Enables a detected pattern in a freed slot: a primary in its own
    /// slot, a way or level child in a detached slot linked below it.
    fn install(&mut self, det: Detection) {
        let (slot, kind) = decode_owner(det.owner);
        let pattern = IndirectPattern {
            enabled: true,
            shift: det.shift,
            base: det.base,
            distance: 1,
            hop: 1,
            ..IndirectPattern::default()
        };
        if kind == DetectKind::Primary {
            self.ind[slot] = pattern;
        } else {
            // A secondary pattern never links to itself or its children.
            let protected = |i: usize| i == slot || self.ind[i].prev == Some(slot);
            let Some(child) = self.table.alloc_detached(protected) else {
                return;
            };
            self.reset_slot(child);
            let way = kind == DetectKind::Way;
            let hop = self.ind[slot].hop.max(1);
            self.ind[child] = IndirectPattern {
                prefetching: true, // confidence rides on the parent
                hop: if way { hop } else { hop.saturating_add(1) },
                prev: Some(slot),
                ..pattern
            };
            if way {
                self.ind[slot].next_way = Some(child);
                self.stats.ways_detected += 1;
            } else {
                self.ind[slot].next_level = Some(child);
                self.stats.levels_detected += 1;
            }
        }
        self.stats.patterns_detected += 1;
    }

    /// Element size (bytes) loaded by a pattern, derived from its
    /// coefficient; used when reading a value for multi-level chaining.
    fn value_read_size(shift: i8) -> u32 {
        match shift {
            2 => 4,
            3 => 8,
            s if s >= 4 => 8,
            _ => 1, // bit-vector patterns load bytes
        }
    }

    /// Pushes the prefetch request(s) for `slot` given index value `v`
    /// onto `out`: the pattern's own target plus all second-way children
    /// (which share the index value, Section 3.3.2).
    fn requests_for_value(&mut self, slot: usize, v: u64, out: &mut Vec<PrefetchRequest>) {
        let mut cur = Some(slot);
        while let Some(s) = cur {
            let p = &self.ind[s];
            if !p.enabled {
                break;
            }
            let target = Addr::new(shift_apply(v, p.shift).wrapping_add(p.base));
            let sectors = if self.partial {
                match self.gp.decision(s) {
                    GpDecision::FullLine => SectorMask::FULL_L1,
                    GpDecision::Partial { sectors } => {
                        SectorMask::l1_granule_around(target, sectors)
                    }
                }
            } else {
                SectorMask::FULL_L1
            };
            if sectors != SectorMask::FULL_L1 {
                self.stats.partial_prefetches += 1;
            }
            out.push(PrefetchRequest {
                pc: self.table.entry(s).pc,
                addr: target,
                sectors,
                exclusive: p.writes,
                kind: PrefetchKind::Indirect {
                    pt: s,
                    hop: p.hop.max(1),
                },
            });
            self.stats.indirect_prefetches += 1;
            // The Granularity Predictor's samples only feed `decision`,
            // which only partial mode reads.
            if self.partial {
                self.gp
                    .on_indirect_prefetch(s, LineAddr::containing(target));
            }
            self.table.touch(s);
            cur = p.next_way;
        }
    }

    /// Confidence bookkeeping: does `access` hit the expected indirect
    /// address of any enabled pattern? Returns the first matching slot.
    /// The scan runs over the flat `pending` array (one word per slot)
    /// so non-matching accesses — the overwhelming majority — never
    /// touch the pattern structs.
    fn match_expected(&mut self, access: &Access) -> Option<usize> {
        let line = LineAddr::containing(access.addr).number();
        let mut matched = None;
        for i in 0..self.pending.len() {
            if self.pending[i] == line && self.ind[i].enabled {
                let p = &mut self.ind[i];
                p.hit_cnt = (p.hit_cnt + 1).min(self.cfg.confidence_max);
                self.pending[i] = NO_PENDING;
                p.miss_streak = 0;
                if access.is_write {
                    p.writes = true;
                }
                if matched.is_none() {
                    matched = Some(i);
                }
            }
        }
        matched
    }

    /// Feeds `value`, the next index of `slot`'s `kind` detection, to
    /// the IPD: it advances the detection in flight, or starts one once
    /// the back-off has run out. A failed detection backs off further.
    /// While backing off, primary and level detection tick the back-off
    /// but a waiting way detection does not, so it only retries once
    /// something else has ticked the slot's shared back-off.
    fn detect(&mut self, slot: usize, kind: DetectKind, value: u64) {
        let owner = owner_of(slot, kind);
        if self.ipd.has_entry(owner) {
            if self.ipd.on_index_access(owner, value) == IpdOutcome::Failed {
                self.stats.detect_failures += 1;
                self.backoff[slot].fail();
            }
        } else if self.backoff[slot].ready() {
            self.ipd.try_allocate(owner, value);
        } else if kind != DetectKind::Way {
            self.backoff[slot].tick();
        }
    }

    /// Confidence bookkeeping for the next index `value` of `slot`'s
    /// pattern (Section 3.2.3): a still-pending expected line counts as
    /// a miss, and the eighth miss in a row returns `true`, asking the
    /// caller to retire the pattern. Otherwise the slot expects the line
    /// `value` points at, when the value was readable.
    fn expect(&mut self, slot: usize, value: Option<u64>) -> bool {
        let p = &mut self.ind[slot];
        if self.pending[slot] != NO_PENDING {
            p.hit_cnt = p.hit_cnt.saturating_sub(1);
            p.miss_streak += 1;
        }
        if p.miss_streak >= 8 {
            return true;
        }
        if let Some(v) = value {
            let expected = Addr::new(shift_apply(v, p.shift).wrapping_add(p.base));
            self.pending[slot] = LineAddr::containing(expected).number();
        }
        false
    }
}

impl L1Prefetcher for Imp {
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
        let values = &mut *ctx.values;
        let reqs = &mut *ctx.out;
        // 1. Check enabled patterns' expected indirect addresses
        //    (confidence counting, Section 3.2.3) and remember whether
        //    this access is explained by a known pattern.
        let matched = self.match_expected(&access);

        // 2. Multi-level detection: an access matching pattern `s` loads
        //    a value that may index a deeper array (Listing 3). Feed it
        //    to the level-detection sub-slot of `s`.
        if let Some(s) = matched {
            let p = &self.ind[s];
            let size = Self::value_read_size(p.shift);
            let has_room = if self.depth == 1 {
                self.cfg.max_levels > 1
            } else {
                // Children are installable up to hop `depth + 2`: one hop
                // past the data chain, chased translation-only.
                u32::from(p.hop) <= u32::from(self.depth) + 1
            };
            if p.prefetching && has_room && p.next_level.is_none() {
                if let Some(v2) = values.read_value(access.addr, size) {
                    self.detect(s, DetectKind::Level, v2);
                }
            }

            // Per-hop confidence (depth >= 2 only): the value loaded by
            // this matched access is the next index of the level child,
            // which gets the bookkeeping primary patterns get from their
            // index stream. A child whose hop stopped matching (e.g. a
            // rebuilt hash table) is retired with its subtree so the IPD
            // can re-learn it.
            if self.depth >= 2 {
                if let Some(l) = self.ind[s].next_level.filter(|&l| self.ind[l].enabled) {
                    if self.expect(l, values.read_value(access.addr, size)) {
                        self.reset_slot(l);
                    }
                }
            }
        }

        // 3. Stream table observation for this PC.
        let (slot, event) = {
            let (slot, event, stream_lines) =
                self.table.observe(access.pc, access.addr, access.size);
            self.stats.stream_prefetches += stream_lines.len() as u64;
            reqs.extend(stream_lines.iter().map(|l| PrefetchRequest {
                pc: access.pc,
                addr: l.base(),
                sectors: SectorMask::FULL_L1,
                exclusive: false,
                kind: PrefetchKind::Sequential,
            }));
            (slot, event)
        };
        if event == StreamEvent::Allocated {
            self.reset_slot(slot);
        }

        // 4. Index-stream work: detection or prefetching.
        let established = self
            .table
            .entry(slot)
            .established(self.cfg.stream_threshold);
        if established && event == StreamEvent::Continued {
            if let Some(value) = values.read_value(access.addr, access.size) {
                if !self.ind[slot].enabled {
                    self.detect(slot, DetectKind::Primary, value);
                } else if self.expect(slot, Some(value)) {
                    // The pattern no longer describes reality (e.g. the
                    // data array was swapped): retire it and let the IPD
                    // find the new parameters.
                    self.reset_slot(slot);
                    if access.miss {
                        if let Some(det) = self.ipd.on_miss(access.addr) {
                            self.install(det);
                        }
                    }
                    return;
                } else {
                    let p = &mut self.ind[slot];
                    if p.hit_cnt >= self.cfg.confidence_threshold {
                        p.prefetching = true;
                    }
                    // Multi-way detection: look for a second array driven
                    // by this same index stream.
                    if p.prefetching && self.cfg.max_ways > 1 && p.next_way.is_none() {
                        self.detect(slot, DetectKind::Way, value);
                    }

                    // Indirect prefetching at the current distance.
                    if self.ind[slot].prefetching {
                        let p = &mut self.ind[slot];
                        p.distance = (p.distance + 1).min(self.cfg.max_prefetch_distance);
                        let delta = p.distance;
                        let idx_addr = self.table.lookahead_addr(slot, delta);
                        match values.read_value(idx_addr, access.size) {
                            Some(v) => self.requests_for_value(slot, v, reqs),
                            None => {
                                // Index line not in cache yet: prefetch it
                                // and retry when it fills (Section 3.1's
                                // two-step read of B[i + delta]).
                                self.stats.value_unavailable += 1;
                                reqs.push(PrefetchRequest {
                                    pc: access.pc,
                                    addr: idx_addr,
                                    sectors: SectorMask::FULL_L1,
                                    exclusive: false,
                                    kind: PrefetchKind::Sequential,
                                });
                                self.stats.stream_prefetches += 1;
                                self.defer(Deferred {
                                    slot,
                                    index_addr: idx_addr,
                                    size: access.size,
                                });
                            }
                        }
                    }
                }
            }
        }

        // 5. Misses not explained by an enabled pattern feed the IPD.
        if access.miss && matched.is_none() {
            if let Some(det) = self.ipd.on_miss(access.addr) {
                self.install(det);
            }
        }
    }

    fn on_prefetch_fill_ctx(&mut self, request: PrefetchRequest, ctx: &mut PrefetchCtx<'_>) {
        let values = &mut *ctx.values;
        let out = &mut *ctx.out;
        match request.kind {
            PrefetchKind::Indirect { pt, .. } => {
                // Multi-level chaining: the filled value indexes the
                // child array (issued only now that the parent returned,
                // Section 3.3.2). At depth >= 2 this recurses hop by
                // hop as each fill returns, walking the chain ahead of
                // the demand stream; the hop one past the data frontier
                // is chased translation-only.
                if pt < self.ind.len() {
                    if let Some(l) = self.ind[pt].next_level {
                        if self.ind[l].enabled {
                            let size = Self::value_read_size(self.ind[pt].shift);
                            if let Some(v2) = values.read_value(request.addr, size) {
                                let frontier = self.depth >= 2
                                    && u32::from(self.ind[l].hop) == u32::from(self.depth) + 2;
                                if frontier {
                                    let p = &self.ind[l];
                                    let target =
                                        Addr::new(shift_apply(v2, p.shift).wrapping_add(p.base));
                                    out.push(PrefetchRequest {
                                        pc: self.table.entry(l).pc,
                                        addr: target,
                                        sectors: SectorMask::FULL_L1,
                                        exclusive: false,
                                        kind: PrefetchKind::TranslationOnly { hop: p.hop },
                                    });
                                    self.stats.translation_ahead += 1;
                                    self.table.touch(l);
                                } else {
                                    self.requests_for_value(l, v2, out);
                                }
                            }
                        }
                    }
                }
            }
            PrefetchKind::TranslationOnly { .. } => {
                // Translation-only requests carry no data; nothing to
                // chain from them.
            }
            PrefetchKind::Sequential => {
                // Retry, in the order they were deferred, the indirect
                // prefetches whose index line just arrived.
                let Some(list) = self.deferred.remove(&request.line().number()) else {
                    return;
                };
                self.deferred_len -= list.len();
                for d in list {
                    if self.ind[d.slot].enabled && self.ind[d.slot].prefetching {
                        if let Some(v) = values.read_value(d.index_addr, d.size) {
                            self.stats.deferred_retries += 1;
                            self.requests_for_value(d.slot, v, out);
                        }
                    }
                }
            }
        }
    }

    fn on_eviction(&mut self, line: LineAddr) {
        if self.partial {
            self.gp.on_eviction(line);
        }
    }

    fn on_demand_touch(&mut self, line: LineAddr, sectors: SectorMask) {
        if self.partial {
            self.gp.on_demand_touch(line, sectors);
        }
    }

    fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CollectExt, MapValueSource};
    use imp_common::Pc;

    /// Builds a value source for `B[i] = perm(i)` as u32 at `b_base`.
    fn index_array(b_base: u64, values: &[u64]) -> MapValueSource {
        let mut src = MapValueSource::new();
        for (i, &v) in values.iter().enumerate() {
            src.insert(Addr::new(b_base + 4 * i as u64), 4, v);
        }
        src
    }

    /// Drives `imp` through the canonical loop `load B[i]; load A[B[i]]`
    /// with 8-byte elements of A, returning all emitted requests.
    fn drive_a_of_b(
        imp: &mut Imp,
        src: &mut MapValueSource,
        b_base: u64,
        a_base: u64,
        values: &[u64],
        all_miss: bool,
    ) -> Vec<PrefetchRequest> {
        let mut reqs = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let b_addr = Addr::new(b_base + 4 * i as u64);
            let a_addr = Addr::new(a_base + 8 * v);
            reqs.extend(imp.on_access_collect(
                if all_miss {
                    Access::load_miss(Pc::new(1), b_addr, 4)
                } else {
                    Access::load_hit(Pc::new(1), b_addr, 4)
                },
                src,
            ));
            reqs.extend(imp.on_access_collect(Access::load_miss(Pc::new(2), a_addr, 8), src));
        }
        reqs
    }

    #[test]
    fn detects_and_prefetches_primary_pattern() {
        let values: Vec<u64> = (0..64).map(|i| (i * 37) % 1000).collect();
        let b_base = 0x10000u64;
        let a_base = 0x200000u64;
        let mut src = index_array(b_base, &values);
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let reqs = drive_a_of_b(&mut imp, &mut src, b_base, a_base, &values, false);

        assert_eq!(imp.stats().patterns_detected, 1);
        let indirect: Vec<_> = reqs
            .iter()
            .filter(|r| matches!(r.kind, PrefetchKind::Indirect { .. }))
            .collect();
        assert!(!indirect.is_empty(), "indirect prefetches issued");
        // Every indirect prefetch targets a legitimate future A[B[j]].
        for r in &indirect {
            let off = r.addr.raw() - a_base;
            assert_eq!(off % 8, 0);
            assert!(
                values.contains(&(off / 8)),
                "target {off:#x} is a real A[B[j]]"
            );
        }
    }

    #[test]
    fn detected_parameters_match_planted_pattern() {
        let values: Vec<u64> = (0..32).map(|i| (i * 13 + 5) % 500).collect();
        let b_base = 0x40000u64;
        let a_base = 0x900000u64;
        let mut src = index_array(b_base, &values);
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        drive_a_of_b(&mut imp, &mut src, b_base, a_base, &values, false);
        let found = (0..16)
            .find_map(|i| imp.pattern(i))
            .expect("a pattern is enabled");
        assert_eq!(found.0, 3, "shift 3 = 8-byte elements");
        assert_eq!(found.1, a_base);
        assert_eq!(found.2, IndType::Primary);
    }

    #[test]
    fn prefetch_distance_ramps_to_max() {
        let values: Vec<u64> = (0..200).map(|i| (i * 7) % 3000).collect();
        let b_base = 0x10000u64;
        let a_base = 0x500000u64;
        let mut src = index_array(b_base, &values);
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let reqs = drive_a_of_b(&mut imp, &mut src, b_base, a_base, &values, false);
        // Late in the run, prefetches must land max_distance ahead: the
        // last indirect request corresponds to B[i + 16].
        let last = reqs
            .iter()
            .rev()
            .find(|r| matches!(r.kind, PrefetchKind::Indirect { .. }))
            .expect("indirect prefetches");
        let target_j = (last.addr.raw() - a_base) / 8;
        let pos = values.iter().position(|&v| v == target_j).unwrap();
        assert!(
            pos >= 199_usize.saturating_sub(1) || pos + 16 >= 199,
            "last prefetch is far ahead (pos {pos})"
        );
    }

    #[test]
    fn no_pattern_no_indirect_prefetches() {
        // Random unrelated loads: IMP must stay quiet (the SPLASH-2
        // no-harm claim of Section 6.1).
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let mut src = MapValueSource::new();
        let mut reqs = Vec::new();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = Addr::new(0x100000 + (x % 100_000) * 8);
            src.insert(addr, 8, x);
            reqs.extend(imp.on_access_collect(Access::load_miss(Pc::new(9), addr, 8), &mut src));
        }
        assert_eq!(imp.stats().indirect_prefetches, 0);
        assert_eq!(imp.stats().patterns_detected, 0);
    }

    #[test]
    fn multiway_detection_links_second_array() {
        // load A[B[i]]; load C[B[i]] — pagerank's pr/deg pair.
        let values: Vec<u64> = (0..128).map(|i| (i * 29) % 2000).collect();
        let b_base = 0x10000u64;
        let a_base = 0x2_000_000u64;
        let c_base = 0x4_000_000u64;
        let mut src = index_array(b_base, &values);
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        for (i, &v) in values.iter().enumerate() {
            let b_addr = Addr::new(b_base + 4 * i as u64);
            imp.on_access_collect(Access::load_hit(Pc::new(1), b_addr, 4), &mut src);
            imp.on_access_collect(
                Access::load_miss(Pc::new(2), Addr::new(a_base + 8 * v), 8),
                &mut src,
            );
            imp.on_access_collect(
                Access::load_miss(Pc::new(3), Addr::new(c_base + 4 * v), 4),
                &mut src,
            );
        }
        assert!(imp.stats().ways_detected >= 1, "second way detected");
        // Both bases appear among enabled patterns.
        let bases: Vec<u64> = (0..16)
            .filter_map(|i| imp.pattern(i))
            .map(|p| p.1)
            .collect();
        assert!(bases.contains(&a_base));
        assert!(bases.contains(&c_base));
    }

    #[test]
    fn multilevel_prefetch_chains_on_fill() {
        // load A[B[C[i]]]: C stream, B = first-level array (u32),
        // A = second-level data (f64). C's values must NOT be arithmetic,
        // otherwise B[C[i]] is itself a stream and A would be captured as
        // a primary pattern instead of a second level.
        let c_base = 0x10000u64;
        let b_base = 0x1_000_000u64;
        let a_base = 0x8_000_000u64;
        let c_vals: Vec<u64> = (0..160u64)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) % 4000)
            .collect();
        let mut src = MapValueSource::new();
        let b_of = |c: u64| (c.wrapping_mul(40503) >> 3) % 3000;
        for (i, &c) in c_vals.iter().enumerate() {
            src.insert(Addr::new(c_base + 4 * i as u64), 4, c);
            src.insert(Addr::new(b_base + 4 * c), 4, b_of(c));
        }
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let mut fills: Vec<PrefetchRequest> = Vec::new();
        let mut chained = Vec::new();
        for (i, &c) in c_vals.iter().enumerate() {
            let mut reqs = Vec::new();
            reqs.extend(imp.on_access_collect(
                Access::load_hit(Pc::new(1), Addr::new(c_base + 4 * i as u64), 4),
                &mut src,
            ));
            reqs.extend(imp.on_access_collect(
                Access::load_miss(Pc::new(2), Addr::new(b_base + 4 * c), 4),
                &mut src,
            ));
            reqs.extend(imp.on_access_collect(
                Access::load_miss(Pc::new(3), Addr::new(a_base + 8 * b_of(c)), 8),
                &mut src,
            ));
            // Simulate fills completing promptly.
            for r in reqs.drain(..) {
                fills.push(r);
            }
            for f in fills.drain(..) {
                chained.extend(imp.on_prefetch_fill_collect(f, &mut src));
            }
        }
        assert!(imp.stats().levels_detected >= 1, "second level detected");
        assert!(
            chained.iter().any(|r| r.addr.raw() >= a_base),
            "chained prefetches into the level-2 array"
        );
    }

    #[test]
    fn deferred_prefetch_retries_after_index_line_fill() {
        let values: Vec<u64> = (0..64).map(|i| (i * 23) % 900).collect();
        let b_base = 0x10000u64;
        let a_base = 0x300000u64;
        // Only populate the first 32 index values: lookahead reads past
        // them return None, forcing deferral.
        let mut src = index_array(b_base, &values[..32]);
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let mut deferred_stream_req = None;
        for (i, &v) in values[..32].iter().enumerate() {
            let b_addr = Addr::new(b_base + 4 * i as u64);
            let a_addr = Addr::new(a_base + 8 * v);
            for r in imp.on_access_collect(Access::load_hit(Pc::new(1), b_addr, 4), &mut src) {
                if r.kind == PrefetchKind::Sequential && r.addr.raw() >= b_base + 4 * 32 {
                    deferred_stream_req = Some(r);
                }
            }
            imp.on_access_collect(Access::load_miss(Pc::new(2), a_addr, 8), &mut src);
        }
        let req = deferred_stream_req.expect("IMP prefetched the missing index line");
        // Now the index values "arrive": populate and signal the fill.
        for (i, &v) in values.iter().enumerate() {
            src.insert(Addr::new(b_base + 4 * i as u64), 4, v);
        }
        let chained = imp.on_prefetch_fill_collect(req, &mut src);
        assert!(
            chained
                .iter()
                .any(|r| matches!(r.kind, PrefetchKind::Indirect { .. })),
            "deferred indirect prefetch issued after the index line filled"
        );
    }

    #[test]
    fn deferred_retries_keep_list_order_and_their_line_counts() {
        // Slots 0 and 1 read 4-byte index values and prefetch 8-byte
        // elements at their bases; five deferrals wait on index lines
        // `l` (three) and `m` (two).
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let bases = [0x10_0000u64, 0x20_0000];
        for (slot, base) in bases.into_iter().enumerate() {
            let pc = Pc::new(slot as u32 + 1);
            let (entry, _, _) = imp.table.observe(pc, Addr::new(base), 4);
            assert_eq!(entry, slot);
            enable(&mut imp, slot, base);
        }
        let (l, m) = (0x1000u64, 0x2000u64);
        let waits = [(0, l), (1, m), (0, l + 4), (1, l + 8), (0, m + 4)];
        let mut src = MapValueSource::new();
        for (k, &(slot, addr)) in waits.iter().enumerate() {
            let index_addr = Addr::new(addr);
            imp.defer(Deferred {
                slot,
                index_addr,
                size: 4,
            });
            src.insert(index_addr, 4, k as u64);
        }
        assert_eq!(imp.deferred.len(), 2);
        assert_eq!(imp.deferred_len, 5);
        // The targets requested when index line `line` fills.
        fn fill(imp: &mut Imp, src: &mut MapValueSource, line: u64) -> Vec<u64> {
            let req = PrefetchRequest {
                pc: Pc::new(9),
                addr: Addr::new(line),
                sectors: SectorMask::FULL_L1,
                exclusive: false,
                kind: PrefetchKind::Sequential,
            };
            let reqs = imp.on_prefetch_fill_collect(req, src);
            reqs.iter().map(|r| r.addr.raw()).collect()
        }
        // Line `l`: entries 0, 2 and 3, in list order.
        assert_eq!(
            fill(&mut imp, &mut src, l),
            vec![bases[0], bases[0] + 8 * 2, bases[1] + 8 * 3]
        );
        // Slot 1 resets between the fills, taking its entry on `m`.
        imp.reset_slot(1);
        assert_eq!(imp.deferred_len, 1);
        assert_eq!(fill(&mut imp, &mut src, m), vec![bases[0] + 8 * 4]);
        assert!(
            fill(&mut imp, &mut src, l).is_empty(),
            "nothing left on `l`"
        );
        assert_eq!(imp.stats.deferred_retries, 4);
        assert!(imp.deferred.is_empty(), "no line is left listed");
        assert_eq!(imp.deferred_len, 0);
    }

    #[test]
    fn write_pattern_prefetches_exclusive() {
        // SymGS-style: the indirect accesses are stores.
        let values: Vec<u64> = (0..64).map(|i| (i * 31) % 1200).collect();
        let b_base = 0x20000u64;
        let a_base = 0x600000u64;
        let mut src = index_array(b_base, &values);
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let mut reqs = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let b_addr = Addr::new(b_base + 4 * i as u64);
            let a_addr = Addr::new(a_base + 8 * v);
            reqs.extend(imp.on_access_collect(Access::load_hit(Pc::new(1), b_addr, 4), &mut src));
            reqs.extend(
                imp.on_access_collect(Access::store(Pc::new(2), a_addr, 8, true), &mut src),
            );
        }
        let last_indirect = reqs
            .iter()
            .rev()
            .find(|r| matches!(r.kind, PrefetchKind::Indirect { .. }))
            .expect("indirect prefetches issued");
        assert!(
            last_indirect.exclusive,
            "read/write predictor marks the pattern as writing"
        );
    }

    #[test]
    fn backoff_doubles_after_failures() {
        // A stream whose "indirect" accesses never correlate: detection
        // keeps failing, and attempts must become rarer.
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let mut src = MapValueSource::new();
        let mut x = 99u64;
        for i in 0..4096u64 {
            let b_addr = Addr::new(0x10000 + 4 * i);
            src.insert(b_addr, 4, i);
            imp.on_access_collect(Access::load_hit(Pc::new(1), b_addr, 4), &mut src);
            // Random misses decorrelated from i.
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            imp.on_access_collect(
                Access::load_miss(Pc::new(2), Addr::new(0x40_000_000 + (x % (1 << 22))), 8),
                &mut src,
            );
        }
        let f = imp.stats().detect_failures;
        assert!(f >= 2, "detection attempted and failed (failures = {f})");
        // With exponential back-off, failures grow logarithmically, not
        // linearly with the number of index accesses.
        assert!(
            f <= 16,
            "back-off bounds detection attempts (failures = {f})"
        );
        assert_eq!(imp.stats().indirect_prefetches, 0);
    }

    #[test]
    fn partial_mode_consults_granularity_predictor() {
        let values: Vec<u64> = (0..512).map(|i| (i * 97) % 20_000).collect();
        let b_base = 0x10000u64;
        let a_base = 0x10_000_000u64;
        let mut src = index_array(b_base, &values);
        let mut imp = Imp::new(ImpConfig::paper_default(), true, 42);
        for (i, &v) in values.iter().enumerate() {
            let b_addr = Addr::new(b_base + 4 * i as u64);
            let a_addr = Addr::new(a_base + 8 * v);
            let reqs = imp.on_access_collect(Access::load_hit(Pc::new(1), b_addr, 4), &mut src);
            imp.on_access_collect(Access::load_miss(Pc::new(2), a_addr, 8), &mut src);
            // Feed the GP: every prefetched line gets exactly one sector
            // touched, then evicted.
            for r in reqs {
                if let PrefetchKind::Indirect { .. } = r.kind {
                    imp.on_demand_touch(r.line(), SectorMask::l1_touch(r.addr, 8));
                    imp.on_eviction(r.line());
                }
            }
        }
        assert!(
            imp.stats().partial_prefetches > 0,
            "GP converged to sub-line prefetches: {:?}",
            imp.stats()
        );
    }

    /// Populates an n-table pointer chain rooted at a u32 index stream:
    /// `T1[T0[i]]`, `T2[T1[T0[i]]]`, ... with hashed (non-arithmetic)
    /// indices so deeper hops cannot masquerade as streams.
    fn chain_src(bases: &[u64], iters: u64) -> (MapValueSource, Vec<Vec<Addr>>) {
        let n = 4000u64;
        let h = |x: u64, salt: u64| (x.wrapping_mul(2654435761).wrapping_add(salt) >> 5) % n;
        let mut src = MapValueSource::new();
        let mut per_iter = Vec::new();
        for i in 0..iters {
            let mut addrs = Vec::new();
            let mut v = h(i, 0xA5);
            src.insert(Addr::new(bases[0] + 4 * i), 4, v);
            for (k, &b) in bases.iter().enumerate().skip(1) {
                let addr = Addr::new(b + 8 * v);
                v = h(v, 0xC3 + k as u64);
                src.insert(addr, 8, v);
                addrs.push(addr);
            }
            per_iter.push(addrs);
        }
        (src, per_iter)
    }

    /// Drives `imp` through the chain, completing every data prefetch
    /// fill promptly so multi-hop chaining can progress, and returns
    /// all emitted requests.
    fn drive_chain(imp: &mut Imp, bases: &[u64], iters: u64) -> Vec<PrefetchRequest> {
        let (mut src, per_iter) = chain_src(bases, iters);
        let mut all = Vec::new();
        for i in 0..iters {
            let mut queue: Vec<PrefetchRequest> = Vec::new();
            queue.extend(imp.on_access_collect(
                Access::load_hit(Pc::new(1), Addr::new(bases[0] + 4 * i), 4),
                &mut src,
            ));
            for (k, &addr) in per_iter[i as usize].iter().enumerate() {
                queue.extend(imp.on_access_collect(
                    Access::load_miss(Pc::new(2 + k as u32), addr, 8),
                    &mut src,
                ));
            }
            while let Some(r) = queue.pop() {
                all.push(r);
                if !r.kind.is_translation_only() {
                    queue.extend(imp.on_prefetch_fill_collect(r, &mut src));
                }
            }
        }
        all
    }

    const CHAIN_BASES: [u64; 5] = [
        0x10000,
        0x1_000_000,
        0x8_000_000,
        0x20_000_000,
        0x40_000_000,
    ];

    #[test]
    fn depth_default_keeps_the_chain_two_hops() {
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let reqs = drive_chain(&mut imp, &CHAIN_BASES[..4], 400);
        assert!(
            reqs.iter().all(|r| r.kind.hop() <= 2),
            "depth 1 never chases past hop 2"
        );
        assert_eq!(imp.stats().translation_ahead, 0);
    }

    #[test]
    fn depth_two_chases_a_third_hop() {
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1).with_depth(2);
        let reqs = drive_chain(&mut imp, &CHAIN_BASES[..4], 400);
        assert!(
            imp.stats().levels_detected >= 2,
            "hop-3 pattern detected: {:?}",
            imp.stats()
        );
        let hop3: Vec<_> = reqs
            .iter()
            .filter(|r| matches!(r.kind, PrefetchKind::Indirect { hop: 3, .. }))
            .collect();
        assert!(!hop3.is_empty(), "hop-3 data prefetches issued");
        assert!(
            hop3.iter().all(|r| r.addr.raw() >= CHAIN_BASES[3]),
            "hop-3 prefetches target the fourth table"
        );
    }

    #[test]
    fn frontier_hop_is_chased_translation_only() {
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1).with_depth(2);
        let reqs = drive_chain(&mut imp, &CHAIN_BASES, 500);
        assert!(
            imp.stats().translation_ahead > 0,
            "frontier translations chased: {:?}",
            imp.stats()
        );
        assert!(reqs
            .iter()
            .any(|r| matches!(r.kind, PrefetchKind::TranslationOnly { hop: 4 })));
        // The data chain itself never runs past hop depth + 1.
        assert!(reqs
            .iter()
            .all(|r| !matches!(r.kind, PrefetchKind::Indirect { hop, .. } if hop > 3)));
    }

    #[test]
    fn pt_replacement_clears_pattern_state() {
        // Thrash the PT with more streams than entries; patterns must be
        // reclaimed without leaving dangling links (Figure 14's PT-size
        // sensitivity relies on this).
        let mut cfg = ImpConfig::paper_default();
        cfg.pt_entries = 4;
        let mut imp = Imp::new(cfg, false, 1);
        let mut src = MapValueSource::new();
        for pc in 0..16u32 {
            for i in 0..32u64 {
                let addr = Addr::new(0x10000 + u64::from(pc) * 0x10000 + 4 * i);
                src.insert(addr, 4, i);
                imp.on_access_collect(Access::load_hit(Pc::new(pc + 1), addr, 4), &mut src);
            }
        }
        assert!(imp.enabled_patterns() <= 4);
    }

    /// Enables a prefetching pattern over 8-byte elements at `base` in
    /// PT slot `slot`.
    fn enable(imp: &mut Imp, slot: usize, base: u64) {
        let p = &mut imp.ind[slot];
        p.enabled = true;
        p.prefetching = true;
        p.shift = 3;
        p.base = base;
    }

    #[test]
    fn a_level_child_retires_after_eight_missed_expectations() {
        // A primary at hop 1 and its level child at hop 2; the child
        // holds an IPD entry, a back-off and a deferred retry of its own.
        let cfg = ImpConfig::paper_default();
        let initial = cfg.detect_backoff_initial;
        let mut imp = Imp::new(cfg, false, 1).with_depth(2);
        let (parent, _, _) = imp.table.observe(Pc::new(1), Addr::new(0x1000), 4);
        let child = imp.table.alloc_detached(|_| false).unwrap();
        enable(&mut imp, parent, 0x10_0000);
        enable(&mut imp, child, 0x20_0000);
        imp.ind[parent].hop = 1;
        imp.ind[parent].next_level = Some(child);
        imp.ind[child].prev = Some(parent);
        imp.ind[child].hop = 2;
        let level = owner_of(child, DetectKind::Level);
        assert!(imp.ipd.try_allocate(level, 7));
        imp.backoff[child].fail();
        imp.defer(Deferred {
            slot: child,
            index_addr: Addr::new(0x3000),
            size: 4,
        });
        // Each access at `x` meets the parent's expectation and loads
        // the child's next index; nothing accesses the child's line.
        let x = Addr::new(0x10_0000 + 8 * 5);
        let mut src = MapValueSource::new();
        src.insert(x, 8, 9);
        for n in 1..=9 {
            imp.pending[parent] = LineAddr::containing(x).number();
            imp.on_access_collect(Access::load_hit(Pc::new(2), x, 8), &mut src);
            // The first access sets the child's expectation; each later
            // one finds it still pending, and the eighth miss retires it.
            assert_eq!(
                imp.ind[parent].next_level.is_some(),
                n < 9,
                "linked after {n} accesses"
            );
        }
        assert!(!imp.ind[child].enabled);
        assert_eq!(imp.ind[child].prev, None);
        assert_eq!(imp.pending[child], NO_PENDING);
        assert!(!imp.ipd.has_entry(level), "the child's IPD entry is freed");
        assert!(imp.backoff[child].ready());
        assert_eq!(imp.backoff[child].next, initial);
        assert_eq!(imp.deferred_len, 0);
        assert!(imp.deferred.is_empty(), "the child's retry is dropped");
    }

    #[test]
    fn a_child_taken_for_another_pattern_leaves_its_parent() {
        // Four entries: primaries at `a` and `b`, an idle stream, and
        // `a`'s way child, which is the least recently used entry.
        let mut cfg = ImpConfig::paper_default();
        cfg.pt_entries = 4;
        let mut imp = Imp::new(cfg, false, 1);
        let a = imp.table.observe(Pc::new(1), Addr::new(0x1000), 4).0;
        let child = imp.table.alloc_detached(|_| false).unwrap();
        let b = imp.table.observe(Pc::new(2), Addr::new(0x2000), 4).0;
        imp.table.observe(Pc::new(3), Addr::new(0x3000), 4);
        imp.table.touch(a);
        enable(&mut imp, a, 0x10_0000);
        enable(&mut imp, b, 0x20_0000);
        enable(&mut imp, child, 0x30_0000);
        imp.ind[a].next_way = Some(child);
        imp.ind[child].prev = Some(a);
        // `b`'s way detection takes the LRU entry for its own child.
        imp.install(Detection {
            owner: owner_of(b, DetectKind::Way),
            shift: 2,
            base: 0x40_0000,
        });
        assert_eq!(imp.ind[a].next_way, None, "the old parent forgets it");
        assert_eq!(imp.ind[b].next_way, Some(child));
        assert_eq!(imp.pattern(child), Some((2, 0x40_0000, IndType::SecondWay)));
    }

    #[test]
    fn a_waiting_way_detection_leaves_the_backoff_alone() {
        // The index stream is established in the table alone, so no
        // primary detection runs before the pattern is enabled.
        let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
        let pc = Pc::new(1);
        let b = |i: u64| Addr::new(0x1000 + 4 * i);
        for i in 0..3 {
            imp.table.observe(pc, b(i), 4);
        }
        let slot = imp.table.find(pc).unwrap();
        enable(&mut imp, slot, 0x10_0000);
        imp.backoff[slot].fail();
        let wait = imp.backoff[slot].wait;
        let mut src = MapValueSource::new();
        src.insert(b(3), 4, 5);
        imp.on_access_collect(Access::load_hit(pc, b(3), 4), &mut src);
        assert!(imp.ind[slot].enabled && imp.ind[slot].next_way.is_none());
        assert_eq!(imp.backoff[slot].wait, wait, "no tick while waiting");
        assert!(!imp.ipd.has_entry(owner_of(slot, DetectKind::Way)));
    }
}
