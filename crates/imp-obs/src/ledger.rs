//! The prefetch-timeliness ledger: every tracked prefetch follows
//! issue → fill → exactly one of {used, late, evicted-unused}, so
//! coverage, accuracy and timeliness fall out as exact counts — per PC,
//! per [`AccessClass`], and in total.

use imp_common::stats::AccessClass;
use imp_common::{Cycle, FastMap, LineAddr, Pc};

/// Number of per-hop attribution buckets: bucket 0 holds sequential
/// prefetches, bucket `h` holds indirect chain hop `h`, and hops past
/// the range fold into the last bucket.
pub const MAX_HOPS: usize = 8;

/// Outcome counters for a population of prefetches. After
/// [`Ledger::finish`], `fills == used + late + evicted_unused` exactly
/// (the acceptance invariant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Prefetches issued (MSHR newly allocated).
    pub issued: u64,
    /// Tracked prefetch fills that reached the L1.
    pub fills: u64,
    /// Fills whose line was demand-touched after arriving — the
    /// prefetch was timely and useful.
    pub used: u64,
    /// Fills a demand access merged into *before* arrival — useful but
    /// late (the demand still stalled).
    pub late: u64,
    /// Fills evicted (or still resident at run end) without any demand
    /// touch — wasted traffic.
    pub evicted_unused: u64,
}

impl LedgerCounts {
    fn add(&mut self, other: &LedgerCounts) {
        self.issued += other.issued;
        self.fills += other.fills;
        self.used += other.used;
        self.late += other.late;
        self.evicted_unused += other.evicted_unused;
    }

    /// Fraction of fills that were used timely (`used / fills`).
    pub fn accuracy(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.used as f64 / self.fills as f64
        }
    }

    /// Fraction of *useful* fills that arrived in time
    /// (`used / (used + late)`).
    pub fn timeliness(&self) -> f64 {
        let useful = self.used + self.late;
        if useful == 0 {
            0.0
        } else {
            self.used as f64 / useful as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    /// Issued, data not yet in the L1; `late` marks a demand merge.
    InFlight { late: bool },
    /// Filled at `fill`, awaiting its first demand touch.
    Resident { fill: Cycle },
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    pc: Pc,
    class: AccessClass,
    /// Chain hop of the issuing pattern (0 = sequential).
    hop: u8,
    issue: Cycle,
    state: State,
}

/// What a [`Ledger::fill`] closed or opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// The tracked prefetch arrived before any demand: now resident,
    /// awaiting first use. Carries the issue cycle (for flight spans).
    Arrived {
        /// Cycle the prefetch was issued.
        issue: Cycle,
    },
    /// A demand had merged in flight: the fill closes the entry as
    /// late.
    Late {
        /// Cycle the prefetch was issued.
        issue: Cycle,
    },
    /// No tracked entry (the prefetch merged into a demand MSHR entry
    /// at issue, or a second fill of a resident line).
    Untracked,
}

/// The in-flight tracking structure. Keyed by `(core, line)`: one
/// tracked prefetch per line per core at a time (a re-issue to a line
/// whose earlier prefetch was never used supersedes it, counting the
/// old one evicted-unused).
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    entries: FastMap<(u32, LineAddr), Entry>,
    total: LedgerCounts,
    per_pc: FastMap<Pc, LedgerCounts>,
    per_class: [LedgerCounts; AccessClass::ALL.len()],
    per_hop: [LedgerCounts; MAX_HOPS],
    /// Tracked prefetches still in flight at run end (never filled).
    inflight_at_end: u64,
    finished: bool,
}

impl Ledger {
    fn bump(&mut self, pc: Pc, class: AccessClass, hop: u8, f: impl Fn(&mut LedgerCounts)) {
        f(&mut self.total);
        f(self.per_pc.entry(pc).or_default());
        f(&mut self.per_class[class.index()]);
        f(&mut self.per_hop[(hop as usize).min(MAX_HOPS - 1)]);
    }

    /// A prefetch MSHR entry was newly allocated at cycle `now`; `hop`
    /// is the issuing pattern's chain hop (0 for sequential).
    /// An issue displacing an unused resident entry for the same line
    /// counts the old one evicted-unused (superseded).
    pub fn issue(
        &mut self,
        core: u32,
        line: LineAddr,
        pc: Pc,
        class: AccessClass,
        hop: u8,
        now: Cycle,
    ) {
        if let Some(old) = self.entries.insert(
            (core, line),
            Entry {
                pc,
                class,
                hop,
                issue: now,
                state: State::InFlight { late: false },
            },
        ) {
            // A re-issue over an unused resident (or doubly-issued)
            // prefetch: close the old one out so the invariant holds.
            match old.state {
                State::Resident { .. } => {
                    self.bump(old.pc, old.class, old.hop, |c| c.evicted_unused += 1);
                }
                State::InFlight { .. } => self.inflight_at_end += 1,
            }
        }
        self.bump(pc, class, hop, |c| c.issued += 1);
    }

    /// A demand access merged into this line's in-flight prefetch: the
    /// prefetch is late.
    pub fn demand_merge(&mut self, core: u32, line: LineAddr) {
        if let Some(e) = self.entries.get_mut(&(core, line)) {
            if let State::InFlight { late } = &mut e.state {
                *late = true;
            }
        }
    }

    /// A prefetch fill reached core `core`'s L1.
    pub fn fill(&mut self, core: u32, line: LineAddr, now: Cycle) -> FillOutcome {
        match self.entries.get_mut(&(core, line)) {
            Some(e) => match e.state {
                State::InFlight { late } => {
                    let (pc, class, hop, issue) = (e.pc, e.class, e.hop, e.issue);
                    if late {
                        self.entries.remove(&(core, line));
                        self.bump(pc, class, hop, |c| {
                            c.fills += 1;
                            c.late += 1;
                        });
                        FillOutcome::Late { issue }
                    } else {
                        e.state = State::Resident { fill: now };
                        self.bump(pc, class, hop, |c| c.fills += 1);
                        FillOutcome::Arrived { issue }
                    }
                }
                // A second fill of an already-resident entry (partial
                // sectors): not a new tracked prefetch.
                State::Resident { .. } => FillOutcome::Untracked,
            },
            None => FillOutcome::Untracked,
        }
    }

    /// First demand touch of a resident prefetched line. Returns the
    /// prefetch-to-use distance in cycles when this closed a tracked
    /// entry.
    pub fn first_use(&mut self, core: u32, line: LineAddr, now: Cycle) -> Option<Cycle> {
        let e = self.entries.get(&(core, line)).copied()?;
        let State::Resident { fill } = e.state else {
            return None;
        };
        self.entries.remove(&(core, line));
        self.bump(e.pc, e.class, e.hop, |c| c.used += 1);
        Some(now.saturating_sub(fill))
    }

    /// A prefetched line left the L1 untouched (eviction, invalidation
    /// or fill-displacement). Returns true when it closed a tracked
    /// entry.
    pub fn evicted_unused(&mut self, core: u32, line: LineAddr) -> bool {
        let Some(e) = self.entries.get(&(core, line)).copied() else {
            return false;
        };
        let State::Resident { .. } = e.state else {
            return false;
        };
        self.entries.remove(&(core, line));
        self.bump(e.pc, e.class, e.hop, |c| c.evicted_unused += 1);
        true
    }

    /// Closes the run: resident entries never touched count
    /// evicted-unused (mirroring the simulator's end-of-run unused
    /// sweep); entries still in flight are dropped from the invariant.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let remaining: Vec<Entry> = self.entries.values().copied().collect();
        self.entries.clear();
        for e in remaining {
            match e.state {
                State::Resident { .. } => {
                    self.bump(e.pc, e.class, e.hop, |c| c.evicted_unused += 1);
                }
                State::InFlight { .. } => self.inflight_at_end += 1,
            }
        }
    }

    /// Aggregate counts over every tracked prefetch.
    pub fn total(&self) -> &LedgerCounts {
        &self.total
    }

    /// Counts per prefetch-triggering PC, sorted by PC for
    /// deterministic iteration.
    pub fn per_pc(&self) -> Vec<(Pc, LedgerCounts)> {
        let mut v: Vec<(Pc, LedgerCounts)> = self.per_pc.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by_key(|(pc, _)| pc.raw());
        v
    }

    /// Counts per [`AccessClass`] (indexed by `AccessClass::index()`).
    pub fn per_class(&self) -> &[LedgerCounts; AccessClass::ALL.len()] {
        &self.per_class
    }

    /// Counts per chain hop (index 0 = sequential, index `h` =
    /// indirect hop `h`; hops past the range fold into the last
    /// bucket).
    pub fn per_hop(&self) -> &[LedgerCounts; MAX_HOPS] {
        &self.per_hop
    }

    /// Tracked prefetches that never filled (still in flight at run
    /// end or superseded mid-flight).
    pub fn inflight_at_end(&self) -> u64 {
        self.inflight_at_end
    }

    /// The acceptance invariant: after [`Ledger::finish`], every
    /// tracked fill has exactly one outcome.
    pub fn reconciles(&self) -> bool {
        self.total.fills == self.total.used + self.total.late + self.total.evicted_unused
    }

    /// The per-hop form of the acceptance invariant: every hop bucket
    /// reconciles on its own (a hop never inherits another hop's
    /// outcome), and the buckets sum back to the total.
    pub fn reconciles_per_hop(&self) -> bool {
        let sum = merge_counts(self.per_hop.iter());
        self.per_hop
            .iter()
            .all(|c| c.fills == c.used + c.late + c.evicted_unused)
            && sum == self.total
    }
}

/// Folds a set of per-core or per-run ledgers into one summary count.
pub fn merge_counts<'a>(counts: impl Iterator<Item = &'a LedgerCounts>) -> LedgerCounts {
    let mut out = LedgerCounts::default();
    for c in counts {
        out.add(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn used_late_and_unused_partition_fills() {
        let mut l = Ledger::default();
        let pc = Pc::new(0x10);
        // Timely + used (chain hop 1).
        l.issue(0, line(1), pc, AccessClass::Indirect, 1, 70);
        assert_eq!(l.fill(0, line(1), 100), FillOutcome::Arrived { issue: 70 });
        assert_eq!(l.first_use(0, line(1), 130), Some(30));
        // Late (chain hop 2).
        l.issue(0, line(2), pc, AccessClass::Indirect, 2, 150);
        l.demand_merge(0, line(2));
        assert_eq!(l.fill(0, line(2), 200), FillOutcome::Late { issue: 150 });
        // Evicted unused.
        l.issue(0, line(3), pc, AccessClass::Stream, 0, 250);
        l.fill(0, line(3), 300);
        assert!(l.evicted_unused(0, line(3)));
        // Resident at end, untouched.
        l.issue(0, line(4), pc, AccessClass::Stream, 0, 350);
        l.fill(0, line(4), 400);
        // Never filled.
        l.issue(0, line(5), pc, AccessClass::Stream, 0, 450);
        l.finish();
        let t = *l.total();
        assert_eq!(t.issued, 5);
        assert_eq!(t.fills, 4);
        assert_eq!((t.used, t.late, t.evicted_unused), (1, 1, 2));
        assert!(l.reconciles());
        assert!(l.reconciles_per_hop());
        assert_eq!(l.inflight_at_end(), 1);
        assert_eq!(l.per_pc().len(), 1);
        let by_class = l.per_class();
        assert_eq!(by_class[AccessClass::Indirect.index()].used, 1);
        assert_eq!(by_class[AccessClass::Stream.index()].evicted_unused, 2);
        let by_hop = l.per_hop();
        assert_eq!(by_hop[0].issued, 3);
        assert_eq!((by_hop[1].issued, by_hop[1].used), (1, 1));
        assert_eq!((by_hop[2].issued, by_hop[2].late), (1, 1));
    }

    #[test]
    fn out_of_range_hops_fold_into_the_last_bucket() {
        let mut l = Ledger::default();
        let pc = Pc::new(0x30);
        l.issue(0, line(1), pc, AccessClass::Indirect, 200, 10);
        l.fill(0, line(1), 20);
        l.finish();
        assert_eq!(l.per_hop()[MAX_HOPS - 1].issued, 1);
        assert!(l.reconciles_per_hop());
    }

    #[test]
    fn untracked_fills_do_not_enter_the_invariant() {
        let mut l = Ledger::default();
        assert_eq!(l.fill(0, line(9), 50), FillOutcome::Untracked);
        l.finish();
        assert_eq!(l.total().fills, 0);
        assert!(l.reconciles());
    }

    #[test]
    fn reissue_supersedes_an_unused_resident() {
        let mut l = Ledger::default();
        let pc = Pc::new(0x20);
        l.issue(0, line(7), pc, AccessClass::Stream, 0, 5);
        l.fill(0, line(7), 10);
        l.issue(0, line(7), pc, AccessClass::Stream, 0, 30); // partial re-issue
        l.fill(0, line(7), 40);
        assert_eq!(l.first_use(0, line(7), 60), Some(20));
        l.finish();
        let t = *l.total();
        assert_eq!(t.fills, 2);
        assert_eq!((t.used, t.evicted_unused), (1, 1));
        assert!(l.reconciles());
    }

    #[test]
    fn rates_follow_the_counts() {
        let c = LedgerCounts {
            issued: 10,
            fills: 8,
            used: 4,
            late: 2,
            evicted_unused: 2,
        };
        assert!((c.accuracy() - 0.5).abs() < 1e-12);
        assert!((c.timeliness() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(LedgerCounts::default().accuracy(), 0.0);
        assert_eq!(LedgerCounts::default().timeliness(), 0.0);
    }
}
