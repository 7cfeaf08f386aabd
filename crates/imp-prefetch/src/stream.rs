//! The stream half of the Prefetch Table: a traditional PC-associated
//! stream prefetcher working at word granularity (paper Section 3.2,
//! Figure 5), usable standalone as the *Baseline* prefetcher.

use crate::access::{
    Access, L1Prefetcher, PrefetchCtx, PrefetchKind, PrefetchRequest, PrefetcherStats,
};
use imp_common::{Addr, LineAddr, Pc, SectorMask, LINE_BYTES};

/// Applies the paper's Eq. (2): `(value shift) + base`. Non-negative
/// shifts are left shifts (coefficients 4, 8, 16); negative shifts are
/// right shifts (coefficient 1/8 for bit vectors).
pub fn shift_apply(value: u64, shift: i8) -> u64 {
    if shift >= 0 {
        value.wrapping_shl(u32::from(shift as u8))
    } else {
        value.wrapping_shr((-i32::from(shift)) as u32)
    }
}

/// State of one stream-table entry (the `pc`, `addr`, `hit cnt` fields of
/// Figure 5, plus stride bookkeeping).
#[derive(Clone, Debug)]
pub struct StreamEntry {
    /// PC of the instruction scanning the stream.
    pub pc: Pc,
    /// Most recently accessed address of the stream.
    pub last_addr: Addr,
    /// Element size observed (bytes).
    pub size: u32,
    /// Confirmed word-granularity stride in bytes (0 = not yet known).
    pub stride: i64,
    /// Candidate stride awaiting confirmation.
    pending_stride: i64,
    /// Stream confirmations (saturating).
    pub hit_cnt: u32,
    /// Prefetch frontier: last line prefetched in stride direction.
    frontier: Option<LineAddr>,
    /// LRU stamp.
    pub lru: u64,
}

impl StreamEntry {
    fn new(pc: Pc, addr: Addr, size: u32, lru: u64) -> Self {
        StreamEntry {
            pc,
            last_addr: addr,
            size,
            stride: 0,
            pending_stride: 0,
            hit_cnt: 0,
            frontier: None,
            lru,
        }
    }

    /// True once the stream is established (enough confirmations).
    pub fn established(&self, threshold: u32) -> bool {
        self.stride != 0 && self.hit_cnt >= threshold
    }
}

/// What happened to a stream entry on an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// First time this PC was seen; entry allocated.
    Allocated,
    /// Access continued the stream at the expected stride.
    Continued,
    /// Access broke the stride (position updated without re-learning:
    /// the nested-loop behaviour of Section 3.3.1).
    Hiccup,
}

/// A table of [`StreamEntry`]s with LRU replacement; this is both the
/// Baseline stream prefetcher's state and the stream half of IMP's
/// Prefetch Table.
#[derive(Debug)]
pub struct StreamTable {
    entries: Vec<StreamEntry>,
    /// `pcs[i]` mirrors `entries[i].pc`: the per-access PC lookup scans
    /// this flat array (a couple of cache lines) instead of striding
    /// through the full entry structs.
    pcs: Vec<Pc>,
    capacity: usize,
    threshold: u32,
    distance_lines: u32,
    stamp: u64,
    /// Reusable output buffer for [`StreamTable::observe`] (prefetched
    /// lines are returned as a borrowed slice to keep the per-access
    /// path allocation-free).
    line_buf: Vec<LineAddr>,
}

impl StreamTable {
    /// Creates a table of `capacity` entries; a stream is established
    /// after `threshold` stride confirmations, and prefetching runs
    /// `distance_lines` cache lines ahead.
    pub fn new(capacity: usize, threshold: u32, distance_lines: u32) -> Self {
        StreamTable {
            entries: Vec::with_capacity(capacity),
            pcs: Vec::with_capacity(capacity),
            capacity,
            threshold,
            distance_lines,
            stamp: 0,
            line_buf: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no streams are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sentinel PC marking detached entries (secondary indirections own
    /// a PT slot but no instruction stream, Section 3.3.2).
    pub const DETACHED_PC: Pc = Pc::new(u32::MAX);

    /// The entry index tracking `pc`, if any. Detached entries never match.
    pub fn find(&self, pc: Pc) -> Option<usize> {
        if pc == Self::DETACHED_PC {
            return None;
        }
        self.pcs.iter().position(|&p| p == pc)
    }

    /// Refreshes the LRU stamp of an entry (used to keep secondary
    /// pattern slots alive while their parent prefetches through them).
    pub fn touch(&mut self, idx: usize) {
        self.stamp += 1;
        self.entries[idx].lru = self.stamp;
    }

    /// Allocates a detached slot (for a secondary indirect pattern):
    /// takes a free slot if available, otherwise the LRU entry whose
    /// index is not `protected`. Returns `None` if every candidate is
    /// protected.
    pub fn alloc_detached(&mut self, protected: impl Fn(usize) -> bool) -> Option<usize> {
        self.stamp += 1;
        let stamp = self.stamp;
        if self.entries.len() < self.capacity {
            self.entries
                .push(StreamEntry::new(Self::DETACHED_PC, Addr::new(0), 0, stamp));
            self.pcs.push(Self::DETACHED_PC);
            return Some(self.entries.len() - 1);
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !protected(*i))
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| i)?;
        self.entries[victim] = StreamEntry::new(Self::DETACHED_PC, Addr::new(0), 0, stamp);
        self.pcs[victim] = Self::DETACHED_PC;
        Some(victim)
    }

    /// Immutable access to an entry.
    pub fn entry(&self, idx: usize) -> &StreamEntry {
        &self.entries[idx]
    }

    /// Observes an access; returns the entry index, what happened, and
    /// any stream prefetches to issue (a slice into an internal buffer
    /// that the next `observe` call overwrites). On replacement the
    /// evicted entry index is reused (callers keep per-index side state
    /// and must reset it when `StreamEvent::Allocated` is reported).
    pub fn observe(&mut self, pc: Pc, addr: Addr, size: u32) -> (usize, StreamEvent, &[LineAddr]) {
        self.stamp += 1;
        let stamp = self.stamp;
        self.line_buf.clear();
        if let Some(i) = self.find(pc) {
            let threshold = self.threshold;
            let distance = self.distance_lines;
            let e = &mut self.entries[i];
            e.lru = stamp;
            let delta = addr.raw() as i64 - e.last_addr.raw() as i64;
            e.last_addr = addr;
            e.size = size;
            let event = if delta != 0 && delta == e.stride {
                e.hit_cnt = e.hit_cnt.saturating_add(1);
                StreamEvent::Continued
            } else if delta != 0 && e.stride == 0 && e.pending_stride == 0 {
                // First observed delta: adopt it as the candidate stride.
                e.stride = delta;
                e.hit_cnt = 1;
                StreamEvent::Continued
            } else if delta != 0 && delta == e.pending_stride {
                // Two consistent deltas establish (or re-establish) the
                // stride without discarding the indirect pattern.
                e.stride = delta;
                e.hit_cnt = e.hit_cnt.saturating_add(1);
                StreamEvent::Continued
            } else if delta == 0 {
                StreamEvent::Hiccup
            } else {
                e.pending_stride = delta;
                // Position jump (outer-loop restart): keep stride, move on.
                e.frontier = None;
                StreamEvent::Hiccup
            };
            if e.established(threshold) && event == StreamEvent::Continued {
                Self::advance_frontier(e, distance, &mut self.line_buf);
            }
            (i, event, &self.line_buf)
        } else {
            let idx = if self.entries.len() < self.capacity {
                self.entries.push(StreamEntry::new(pc, addr, size, stamp));
                self.pcs.push(pc);
                self.entries.len() - 1
            } else {
                let (vi, _) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .expect("table not empty");
                self.entries[vi] = StreamEntry::new(pc, addr, size, stamp);
                self.pcs[vi] = pc;
                vi
            };
            (idx, StreamEvent::Allocated, &self.line_buf)
        }
    }

    /// Address of the stream element `elems` ahead of the current
    /// position of entry `idx` (where IMP reads `B[i + delta]`).
    pub fn lookahead_addr(&self, idx: usize, elems: u32) -> Addr {
        let e = &self.entries[idx];
        e.last_addr.offset(e.stride * i64::from(elems))
    }

    fn advance_frontier(e: &mut StreamEntry, distance_lines: u32, out: &mut Vec<LineAddr>) {
        let dir: i64 = if e.stride >= 0 { 1 } else { -1 };
        let cur = LineAddr::containing(e.last_addr);
        let target_addr = e
            .last_addr
            .offset(e.stride.signum() * (i64::from(distance_lines) * LINE_BYTES as i64));
        let target = LineAddr::containing(target_addr);
        let mut next = match e.frontier {
            Some(f) => f.step(dir),
            None => cur.step(dir),
        };
        // Issue at most `distance_lines` new line prefetches per access.
        let mut budget = distance_lines;
        while budget > 0 && (dir > 0 && next <= target || dir < 0 && next >= target) {
            out.push(next);
            e.frontier = Some(next);
            next = next.step(dir);
            budget -= 1;
        }
    }
}

/// The Baseline configuration's standalone stream prefetcher.
#[derive(Debug)]
pub struct StreamPrefetcher {
    table: StreamTable,
    stats: PrefetcherStats,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher with `entries` table entries.
    pub fn new(entries: usize, threshold: u32, distance_lines: u32) -> Self {
        StreamPrefetcher {
            table: StreamTable::new(entries, threshold, distance_lines),
            stats: PrefetcherStats::default(),
        }
    }

    /// The paper's baseline: 16 entries, established after 2
    /// confirmations, running 4 lines ahead.
    pub fn paper_default() -> Self {
        Self::new(16, 2, 4)
    }
}

impl L1Prefetcher for StreamPrefetcher {
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
        let (_, _, lines) = self.table.observe(access.pc, access.addr, access.size);
        self.stats.stream_prefetches += lines.len() as u64;
        ctx.out.extend(lines.iter().map(|l| PrefetchRequest {
            pc: access.pc,
            addr: l.base(),
            sectors: SectorMask::FULL_L1,
            exclusive: false,
            kind: PrefetchKind::Sequential,
        }));
    }

    fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CollectExt, MapValueSource};

    #[test]
    fn shift_apply_matches_coefficients() {
        assert_eq!(shift_apply(5, 2), 20); // coeff 4
        assert_eq!(shift_apply(5, 3), 40); // coeff 8
        assert_eq!(shift_apply(5, 4), 80); // coeff 16
        assert_eq!(shift_apply(40, -3), 5); // coeff 1/8
    }

    #[test]
    fn stream_established_after_threshold() {
        let mut t = StreamTable::new(4, 2, 4);
        let pc = Pc::new(7);
        let (i, ev, _) = t.observe(pc, Addr::new(0x1000), 4);
        assert_eq!(ev, StreamEvent::Allocated);
        t.observe(pc, Addr::new(0x1004), 4);
        assert!(!t.entry(i).established(2));
        t.observe(pc, Addr::new(0x1008), 4);
        assert!(t.entry(i).established(2));
        assert_eq!(t.entry(i).stride, 4);
    }

    #[test]
    fn descending_streams_detected() {
        // SymGS's backward sweep scans indices downward.
        let mut t = StreamTable::new(4, 2, 4);
        let pc = Pc::new(1);
        for k in 0..5i64 {
            t.observe(pc, Addr::new((0x2000 - 8 * k) as u64), 8);
        }
        let i = t.find(pc).unwrap();
        assert_eq!(t.entry(i).stride, -8);
        assert!(t.entry(i).established(2));
    }

    #[test]
    fn prefetches_run_ahead_of_stream() {
        let mut p = StreamPrefetcher::new(4, 2, 4);
        let mut v = MapValueSource::new();
        let pc = Pc::new(3);
        let mut lines = Vec::new();
        for k in 0..40u64 {
            let reqs =
                p.on_access_collect(Access::load_hit(pc, Addr::new(0x4000 + 4 * k), 4), &mut v);
            lines.extend(reqs.iter().map(|r| r.line()));
        }
        assert!(!lines.is_empty());
        // All prefetched lines are ahead of the start and unique.
        let mut sorted = lines.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), lines.len(), "no duplicate line prefetches");
        assert!(lines.iter().all(|l| l.base().raw() > 0x4000));
        assert_eq!(p.stats().stream_prefetches, lines.len() as u64);
    }

    #[test]
    fn hiccup_keeps_stride_and_moves_position() {
        // Section 3.3.1: an outer-loop restart jumps the position; the
        // stride (and any indirect pattern) must survive.
        let mut t = StreamTable::new(4, 2, 4);
        let pc = Pc::new(9);
        for k in 0..4u64 {
            t.observe(pc, Addr::new(0x1000 + 4 * k), 4);
        }
        let i = t.find(pc).unwrap();
        assert_eq!(t.entry(i).stride, 4);
        let (j, ev, _) = t.observe(pc, Addr::new(0x9000), 4);
        assert_eq!(i, j);
        assert_eq!(ev, StreamEvent::Hiccup);
        assert_eq!(t.entry(i).stride, 4, "stride survives the jump");
        assert_eq!(t.entry(i).last_addr, Addr::new(0x9000));
        // Stream continues at the new position immediately.
        let (_, ev, _) = t.observe(pc, Addr::new(0x9004), 4);
        assert_eq!(ev, StreamEvent::Continued);
    }

    #[test]
    fn lru_replacement_on_pc_pressure() {
        let mut t = StreamTable::new(2, 2, 4);
        t.observe(Pc::new(1), Addr::new(0x100), 4);
        t.observe(Pc::new(2), Addr::new(0x200), 4);
        t.observe(Pc::new(1), Addr::new(0x104), 4); // refresh pc1
        let (idx, ev, _) = t.observe(Pc::new(3), Addr::new(0x300), 4);
        assert_eq!(ev, StreamEvent::Allocated);
        // pc2 was LRU; its slot is reused.
        assert_eq!(t.entry(idx).pc, Pc::new(3));
        assert!(t.find(Pc::new(2)).is_none());
        assert!(t.find(Pc::new(1)).is_some());
    }

    #[test]
    fn lookahead_address_follows_stride() {
        let mut t = StreamTable::new(2, 2, 4);
        let pc = Pc::new(5);
        for k in 0..3u64 {
            t.observe(pc, Addr::new(0x1000 + 4 * k), 4);
        }
        let i = t.find(pc).unwrap();
        assert_eq!(t.lookahead_addr(i, 4), Addr::new(0x1008 + 16));
    }
}
