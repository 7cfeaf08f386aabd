//! The Indirect Pattern Detector (IPD) of Section 3.2.2 / Figure 4.
//!
//! Each entry tries to find `(shift, base)` such that two observed
//! (index value, miss address) pairs both satisfy Eq. (2):
//!
//! ```text
//! MissAddr1 = (B[i]   << shift) + base
//! MissAddr2 = (B[i+1] << shift) + base
//! ```
//!
//! On the first index value (`idx1`) the entry records, for each of the
//! next few cache misses and for each candidate shift, the implied base
//! (`miss - (idx1 << shift)`). Once the next index value (`idx2`) arrives,
//! each subsequent miss computes its own implied bases and compares them
//! against the stored array: a match detects the pattern. If a third index
//! value arrives first, detection fails and the entry is released.

use crate::stream::shift_apply;
use imp_common::Addr;

/// Identifier linking an IPD entry to the pattern slot it detects for
/// (assigned by [`crate::Imp`]).
pub type IpdOwner = u32;

/// Result of feeding an index access to the IPD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpdOutcome {
    /// Still collecting evidence.
    Pending,
    /// Third index value arrived without a match: detection failed and
    /// the entry has been released (the caller applies exponential
    /// back-off, Section 3.2.2).
    Failed,
}

/// A detected indirect pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detection {
    /// Owner slot that was detecting.
    pub owner: IpdOwner,
    /// The shift of Eq. (2).
    pub shift: i8,
    /// The base address of Eq. (2).
    pub base: u64,
}

#[derive(Clone, Debug)]
struct IpdEntry {
    owner: IpdOwner,
    idx1: u64,
    idx2: Option<u64>,
    /// `bases[s][k]`: base implied by pairing idx1 with the k-th miss,
    /// under shift `shifts[s]`.
    bases: Vec<Vec<u64>>,
    /// Misses paired with idx1 so far (bounded by the base-array length).
    misses_after_idx1: usize,
    /// Misses compared after idx2 (bounded as well).
    misses_after_idx2: usize,
}

/// The Indirect Pattern Detector: a small table of in-flight detections.
#[derive(Debug)]
pub struct Ipd {
    entries: Vec<Option<IpdEntry>>,
    shifts: Vec<i8>,
    ba_len: usize,
}

impl Ipd {
    /// Creates an IPD with `entries` entries, candidate `shifts` and a
    /// per-shift base array of `ba_len` (Table 2: 4 entries, shifts
    /// {2, 3, 4, -3}, length 4).
    pub fn new(entries: usize, shifts: Vec<i8>, ba_len: usize) -> Self {
        Ipd {
            entries: vec![None; entries],
            shifts,
            ba_len,
        }
    }

    /// Number of free entries.
    pub fn free_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_none()).count()
    }

    /// True if `owner` currently holds an entry.
    pub fn has_entry(&self, owner: IpdOwner) -> bool {
        self.entries.iter().flatten().any(|e| e.owner == owner)
    }

    /// Tries to allocate an entry for `owner`, seeded with the first
    /// index value. Returns `false` when the table is full or the owner
    /// already holds an entry.
    pub fn try_allocate(&mut self, owner: IpdOwner, idx1: u64) -> bool {
        if self.has_entry(owner) {
            return false;
        }
        let Some(slot) = self.entries.iter_mut().find(|e| e.is_none()) else {
            return false;
        };
        *slot = Some(IpdEntry {
            owner,
            idx1,
            idx2: None,
            bases: vec![Vec::with_capacity(self.ba_len); self.shifts.len()],
            misses_after_idx1: 0,
            misses_after_idx2: 0,
        });
        true
    }

    /// Releases `owner`'s entry if present.
    pub fn release(&mut self, owner: IpdOwner) {
        for e in &mut self.entries {
            if e.as_ref().is_some_and(|x| x.owner == owner) {
                *e = None;
            }
        }
    }

    /// Feeds the next index value of `owner`'s stream. The second value
    /// arms comparison; the third without a match fails the detection.
    pub fn on_index_access(&mut self, owner: IpdOwner, value: u64) -> IpdOutcome {
        let Some(e) = self.entries.iter_mut().flatten().find(|e| e.owner == owner) else {
            return IpdOutcome::Pending;
        };
        if e.idx2.is_none() {
            // A repeated index value cannot discriminate (any repeated
            // miss address would trivially "match"); keep waiting.
            if value != e.idx1 {
                e.idx2 = Some(value);
            }
            IpdOutcome::Pending
        } else {
            // Third index value: pattern not found.
            self.release(owner);
            IpdOutcome::Failed
        }
    }

    /// Feeds one L1 miss to every in-flight detection; returns the first
    /// detection triggered, whose entry is released (Section 3.2.2).
    pub fn on_miss(&mut self, addr: Addr) -> Option<Detection> {
        let mut detected: Option<Detection> = None;
        for slot in &mut self.entries {
            let Some(e) = slot.as_mut() else { continue };
            match e.idx2 {
                None => {
                    if e.misses_after_idx1 < self.ba_len {
                        for (s, &shift) in self.shifts.iter().enumerate() {
                            let base = addr.raw().wrapping_sub(shift_apply(e.idx1, shift));
                            e.bases[s].push(base);
                        }
                        e.misses_after_idx1 += 1;
                    }
                }
                Some(idx2) => {
                    if detected.is_some() || e.misses_after_idx2 >= self.ba_len {
                        continue;
                    }
                    e.misses_after_idx2 += 1;
                    for (s, &shift) in self.shifts.iter().enumerate() {
                        let base = addr.raw().wrapping_sub(shift_apply(idx2, shift));
                        if e.bases[s].contains(&base) {
                            detected = Some(Detection {
                                owner: e.owner,
                                shift,
                                base,
                            });
                            break;
                        }
                    }
                }
            }
        }
        if let Some(d) = detected {
            self.release(d.owner);
        }
        detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_ipd() -> Ipd {
        Ipd::new(4, vec![2, 3, 4, -3], 4)
    }

    /// The worked example of Figure 4: idx1 = 1, misses 0x100 and 0x120,
    /// idx2 = 16, miss 0x13C detects shift=2, base=0xFC.
    #[test]
    fn figure4_worked_example() {
        let mut ipd = paper_ipd();
        assert!(ipd.try_allocate(0, 1));
        assert!(ipd.on_miss(Addr::new(0x100)).is_none());
        assert!(ipd.on_miss(Addr::new(0x120)).is_none());
        assert_eq!(ipd.on_index_access(0, 16), IpdOutcome::Pending);
        let d = ipd.on_miss(Addr::new(0x13C)).expect("pattern detected");
        assert_eq!(d.shift, 2);
        assert_eq!(d.base, 0xFC);
        assert!(!ipd.has_entry(0), "entry released after detection");
    }

    #[test]
    fn detects_each_supported_shift() {
        for &shift in &[2i8, 3, 4, -3] {
            let mut ipd = paper_ipd();
            let base = 0x8_0000u64;
            // Pick index values that survive a right shift exactly.
            let (i1, i2) = if shift == -3 { (64, 128) } else { (7, 21) };
            assert!(ipd.try_allocate(0, i1));
            ipd.on_miss(Addr::new(base + shift_apply(i1, shift)));
            ipd.on_index_access(0, i2);
            let d = ipd
                .on_miss(Addr::new(base + shift_apply(i2, shift)))
                .unwrap_or_else(|| panic!("shift {shift} not detected"));
            assert_eq!(d.base, base, "shift {shift}");
            assert_eq!(d.shift, shift);
        }
    }

    #[test]
    fn unrelated_misses_do_not_fool_detection() {
        let mut ipd = paper_ipd();
        ipd.try_allocate(0, 10);
        // Four unrelated misses fill the base array.
        for m in [0x5000u64, 0x777000, 0x12345640, 0x98765400] {
            assert!(ipd.on_miss(Addr::new(m)).is_none());
        }
        ipd.on_index_access(0, 11);
        // An unrelated miss after idx2 should not match.
        assert!(ipd.on_miss(Addr::new(0xABCDE0)).is_none());
    }

    #[test]
    fn third_index_fails_detection() {
        let mut ipd = paper_ipd();
        ipd.try_allocate(0, 1);
        ipd.on_miss(Addr::new(0x100));
        assert_eq!(ipd.on_index_access(0, 2), IpdOutcome::Pending);
        assert_eq!(ipd.on_index_access(0, 3), IpdOutcome::Failed);
        assert!(!ipd.has_entry(0));
    }

    #[test]
    fn repeated_index_value_does_not_arm_comparison() {
        let mut ipd = paper_ipd();
        ipd.try_allocate(0, 5);
        ipd.on_miss(Addr::new(0x100));
        assert_eq!(ipd.on_index_access(0, 5), IpdOutcome::Pending);
        // A miss equal to an earlier one must not trigger a degenerate
        // "detection" off idx1 == idx2.
        assert!(ipd.on_miss(Addr::new(0x100)).is_none());
    }

    #[test]
    fn table_capacity_enforced() {
        let mut ipd = Ipd::new(2, vec![2], 4);
        assert!(ipd.try_allocate(0, 1));
        assert!(ipd.try_allocate(1, 2));
        assert!(!ipd.try_allocate(2, 3), "table full");
        assert_eq!(ipd.free_entries(), 0);
        ipd.release(0);
        assert!(ipd.try_allocate(2, 3));
    }

    #[test]
    fn duplicate_owner_rejected() {
        let mut ipd = paper_ipd();
        assert!(ipd.try_allocate(7, 1));
        assert!(!ipd.try_allocate(7, 2));
    }

    #[test]
    fn concurrent_detections_are_independent() {
        let mut ipd = paper_ipd();
        // Owner 0: shift 3 at base 0x10000; owner 1: shift 2 at 0x40000.
        ipd.try_allocate(0, 100);
        ipd.try_allocate(1, 200);
        ipd.on_miss(Addr::new(0x10000 + 100 * 8));
        ipd.on_miss(Addr::new(0x40000 + 200 * 4));
        ipd.on_index_access(0, 150);
        ipd.on_index_access(1, 250);
        let d0 = ipd
            .on_miss(Addr::new(0x10000 + 150 * 8))
            .expect("owner 0 detects");
        assert_eq!((d0.owner, d0.shift, d0.base), (0, 3, 0x10000));
        let d1 = ipd
            .on_miss(Addr::new(0x40000 + 250 * 4))
            .expect("owner 1 detects");
        assert_eq!((d1.owner, d1.shift, d1.base), (1, 2, 0x40000));
    }

    #[test]
    fn miss_budget_after_idx2_is_bounded() {
        let mut ipd = paper_ipd();
        ipd.try_allocate(0, 1);
        ipd.on_miss(Addr::new(0x1000 + 8));
        ipd.on_index_access(0, 2);
        // Exhaust the comparison budget with unrelated misses.
        for k in 0..4u64 {
            assert!(ipd.on_miss(Addr::new(0xF000_0000 + k * 4096)).is_none());
        }
        // The real second miss now arrives too late to be examined.
        assert!(ipd.on_miss(Addr::new(0x1000 + 16)).is_none());
    }
}
