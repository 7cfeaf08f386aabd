//! A Global History Buffer (GHB) address-correlation prefetcher
//! (Nesbit & Smith), the comparison point of Section 5.4.
//!
//! G/AC organization: an index table maps a miss address to the most
//! recent occurrence of that address in a circular history buffer; buffer
//! entries are linked to previous occurrences of the same address. On a
//! miss, the prefetcher walks to the previous occurrence and prefetches
//! the addresses that *followed it last time*.
//!
//! The paper's observation — reproduced by this model — is that with
//! realistically sized tables, sparse workloads' miss streams do not
//! repeat within the buffer, so GHB adds traffic without coverage.

use crate::access::{
    Access, L1Prefetcher, PrefetchCtx, PrefetchKind, PrefetchRequest, PrefetcherStats,
};
use crate::stream::StreamPrefetcher;
use imp_common::{FastMap, LineAddr, SectorMask};

#[derive(Clone, Copy, Debug)]
struct GhbEntry {
    line: LineAddr,
}

/// GHB G/AC prefetcher layered over the baseline stream prefetcher
/// (as evaluated in the paper: "when attached to each L1 cache ... on top
/// of the stream prefetcher").
#[derive(Debug)]
pub struct Ghb {
    stream: StreamPrefetcher,
    buffer: Vec<GhbEntry>,
    capacity: usize,
    /// Absolute insertion count; `buffer[pos % capacity]`.
    inserted: u64,
    /// Last occurrence position of each line currently in the buffer.
    index: FastMap<LineAddr, u64>,
    /// Prefetch degree: successors fetched per correlation hit.
    degree: usize,
    stats: PrefetcherStats,
}

impl Ghb {
    /// Creates a GHB with `capacity` history entries and prefetch
    /// `degree`, over a default stream prefetcher.
    pub fn new(capacity: usize, degree: usize) -> Self {
        Ghb {
            stream: StreamPrefetcher::paper_default(),
            buffer: Vec::with_capacity(capacity),
            capacity,
            inserted: 0,
            index: FastMap::default(),
            degree,
            stats: PrefetcherStats::default(),
        }
    }

    /// A typical configuration: 512-entry buffer, degree 2.
    pub fn paper_default() -> Self {
        Self::new(512, 2)
    }

    fn oldest_live(&self) -> u64 {
        self.inserted.saturating_sub(self.buffer.len() as u64)
    }

    fn entry_at(&self, pos: u64) -> Option<&GhbEntry> {
        if pos >= self.oldest_live() && pos < self.inserted {
            Some(&self.buffer[(pos % self.capacity as u64) as usize])
        } else {
            None
        }
    }

    fn record_miss(&mut self, line: LineAddr) -> Vec<LineAddr> {
        // Correlate: find the previous occurrence and prefetch what
        // followed it.
        let mut out = Vec::new();
        if let Some(&prev_pos) = self.index.get(&line) {
            if self.entry_at(prev_pos).is_some() {
                for k in 1..=self.degree as u64 {
                    if let Some(e) = self.entry_at(prev_pos + k) {
                        out.push(e.line);
                    }
                }
            }
        }
        // Insert the new occurrence (the index table holds the link to
        // the most recent prior occurrence).
        let pos = self.inserted;
        self.index.insert(line, pos);
        let entry = GhbEntry { line };
        if self.buffer.len() < self.capacity {
            self.buffer.push(entry);
        } else {
            let slot = (pos % self.capacity as u64) as usize;
            let evicted = self.buffer[slot];
            // Drop the index entry if it still points at the evicted slot.
            if self.index.get(&evicted.line) == Some(&(pos - self.capacity as u64)) {
                self.index.remove(&evicted.line);
            }
            self.buffer[slot] = entry;
        }
        self.inserted += 1;
        out
    }
}

impl L1Prefetcher for Ghb {
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
        self.stream.on_access_ctx(access, ctx);
        self.stats.stream_prefetches = self.stream.stats().stream_prefetches;
        if access.miss {
            for line in self.record_miss(LineAddr::containing(access.addr)) {
                self.stats.indirect_prefetches += 1; // correlation prefetches
                ctx.out.push(PrefetchRequest {
                    pc: access.pc,
                    addr: line.base(),
                    sectors: SectorMask::FULL_L1,
                    exclusive: false,
                    kind: PrefetchKind::Sequential,
                });
            }
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
    use imp_common::{Addr, Pc};

    fn miss(addr: u64) -> Access {
        Access::load_miss(Pc::new(1), Addr::new(addr), 8)
    }

    #[test]
    fn repeating_miss_stream_is_prefetched() {
        let mut g = Ghb::new(64, 2);
        let mut v = MapValueSource::new();
        let pattern = [0x1000u64, 0x9000, 0x3000, 0xF000, 0x5000];
        // First pass trains; second pass should correlate.
        let mut correlated = 0;
        for pass in 0..2 {
            for &a in &pattern {
                let reqs = g.on_access_collect(miss(a), &mut v);
                if pass == 1 {
                    correlated += reqs.len();
                }
            }
        }
        assert!(
            correlated > 0,
            "second pass triggers correlation prefetches"
        );
    }

    #[test]
    fn non_repeating_stream_stays_quiet() {
        let mut g = Ghb::new(64, 2);
        let mut v = MapValueSource::new();
        let mut total = 0;
        for i in 0..1000u64 {
            // Strictly fresh miss addresses, far apart (beyond stream
            // prefetcher interest: random page-sized jumps).
            let a = 0x100000 + i * 8192 + (i * i) % 64;
            total += g
                .on_access_collect(miss(a), &mut v)
                .iter()
                .filter(|r| r.addr.raw() != a)
                .count();
        }
        assert_eq!(
            g.stats().indirect_prefetches,
            0,
            "no correlation on fresh misses"
        );
        let _ = total;
    }

    #[test]
    fn capacity_bounds_history() {
        let mut g = Ghb::new(8, 1);
        let mut v = MapValueSource::new();
        // Train a pattern, then push it out of the 8-entry buffer with
        // other misses; re-walking the pattern must not correlate.
        let pattern = [0x1000u64, 0x2000, 0x3000];
        for &a in &pattern {
            g.on_access_collect(miss(a), &mut v);
        }
        for i in 0..16u64 {
            g.on_access_collect(miss(0x100_0000 + i * 4096), &mut v);
        }
        let before = g.stats().indirect_prefetches;
        for &a in &pattern {
            g.on_access_collect(miss(a), &mut v);
        }
        let correlated = g.stats().indirect_prefetches - before;
        assert_eq!(correlated, 0, "history evicted: no stale correlations");
    }
}
