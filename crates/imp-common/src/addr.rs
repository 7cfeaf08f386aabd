//! Address newtypes: virtual byte addresses, cache-line addresses, program
//! counters, and sector masks for partial cacheline accessing.

use crate::{L1_SECTORS, L1_SECTOR_BYTES, LINE_BYTES};
use std::fmt;

/// A 48-bit virtual byte address.
///
/// The paper assumes a 48-bit address space when sizing the Prefetch Table
/// and Indirect Pattern Detector (Section 6.4.1); we keep addresses in a
/// `u64` but all allocated addresses stay below 2^48.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: i64) -> Self {
        Addr(self.0.wrapping_add(bytes as u64))
    }

    /// Byte offset of this address within its cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line-aligned address (the line number, not the byte address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Line containing byte address `a`.
    pub const fn containing(a: Addr) -> Self {
        LineAddr(a.0 / LINE_BYTES)
    }

    /// Creates a line address from a raw line number.
    pub const fn from_line_number(n: u64) -> Self {
        LineAddr(n)
    }

    /// The line number (byte address divided by the line size).
    pub const fn number(self) -> u64 {
        self.0
    }

    /// First byte address of the line.
    pub const fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The `n`-th line after this one.
    #[must_use]
    pub const fn step(self, n: i64) -> Self {
        LineAddr(self.0.wrapping_add(n as u64))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0 * LINE_BYTES)
    }
}

/// A static instruction identifier (program counter).
///
/// Workload kernels assign a stable `Pc` to each load/store site; IMP's
/// Prefetch Table is indexed by the PC of the index-array access, which is
/// what makes the nested-loop optimization of Section 3.3.1 work.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u32);

impl Pc {
    /// Creates a PC from a raw identifier.
    pub const fn new(raw: u32) -> Self {
        Pc(raw)
    }

    /// Returns the raw identifier.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({})", self.0)
    }
}

/// A bit mask of valid/requested sectors within one cache line.
///
/// Bit `i` covers bytes `[i * sector_bytes, (i + 1) * sector_bytes)`. With
/// the paper's parameters a line has 8 L1 sectors (8 B each) or 2 L2
/// sectors (32 B each); an 8-bit mask covers both, with L2 masks using only
/// the low 2 bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectorMask(u8);

impl SectorMask {
    /// No sectors.
    pub const EMPTY: SectorMask = SectorMask(0);

    /// All 8 L1 sectors (a full line).
    pub const FULL_L1: SectorMask = SectorMask(0xFF);

    /// All 2 L2 sectors (a full line).
    pub const FULL_L2: SectorMask = SectorMask(0b11);

    /// Creates a mask from raw bits.
    pub const fn from_bits(bits: u8) -> Self {
        SectorMask(bits)
    }

    /// Raw mask bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Full mask for a line divided into `sectors` sectors.
    pub const fn full(sectors: u32) -> Self {
        if sectors >= 8 {
            SectorMask(0xFF)
        } else {
            SectorMask(((1u16 << sectors) - 1) as u8)
        }
    }

    /// The L1 sector mask touched by an access of `size` bytes at `addr`.
    ///
    /// Accesses never straddle lines in the modelled workloads; if one
    /// would, the mask is clipped to the containing line.
    pub fn l1_touch(addr: Addr, size: u32) -> Self {
        let first = addr.line_offset() / L1_SECTOR_BYTES;
        let last_byte = (addr.line_offset() + u64::from(size.max(1)) - 1).min(LINE_BYTES - 1);
        let last = last_byte / L1_SECTOR_BYTES;
        let mut m = 0u8;
        let mut s = first;
        while s <= last {
            m |= 1 << s;
            s += 1;
        }
        SectorMask(m)
    }

    /// Widens an L1 (8-sector) mask to the L2 (2-sector) granularity:
    /// each 32 B L2 sector is needed if any of its four 8 B L1 sectors is.
    pub const fn widen_to_l2(self) -> Self {
        let lo = if self.0 & 0x0F != 0 { 1 } else { 0 };
        let hi = if self.0 & 0xF0 != 0 { 2 } else { 0 };
        SectorMask(lo | hi)
    }

    /// Number of sectors set.
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no sector is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when every sector of the given count is set.
    pub const fn is_full(self, sectors: u32) -> bool {
        self.0 == Self::full(sectors).0
    }

    /// Sectors in `self` that are not in `other`.
    #[must_use]
    pub const fn minus(self, other: Self) -> Self {
        SectorMask(self.0 & !other.0)
    }

    /// Union of two masks.
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        SectorMask(self.0 | other.0)
    }

    /// Intersection of two masks.
    #[must_use]
    pub const fn intersect(self, other: Self) -> Self {
        SectorMask(self.0 & other.0)
    }

    /// True if all sectors of `other` are contained in `self`.
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// A mask of `granu` consecutive L1 sectors, aligned to `granu`,
    /// covering the sector that contains `addr`. Used when IMP issues a
    /// partial prefetch of the predicted granularity (Section 4.2).
    pub fn l1_granule_around(addr: Addr, granu: u32) -> Self {
        let granu = granu.clamp(1, L1_SECTORS);
        let sector = (addr.line_offset() / L1_SECTOR_BYTES) as u32;
        let start = sector / granu * granu;
        let mut m = 0u8;
        for s in start..(start + granu).min(L1_SECTORS) {
            m |= 1 << s;
        }
        SectorMask(m)
    }

    /// Length of the smallest run of consecutive set sectors, or `None`
    /// for an empty mask. This is the paper's `min_granu` statistic.
    pub fn min_consecutive_run(self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let mut best = u32::MAX;
        let mut run = 0u32;
        for i in 0..8 {
            if self.0 & (1 << i) != 0 {
                run += 1;
            } else if run > 0 {
                best = best.min(run);
                run = 0;
            }
        }
        if run > 0 {
            best = best.min(run);
        }
        Some(best)
    }
}

impl fmt::Debug for SectorMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SectorMask({:#010b})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_containing_rounds_down() {
        assert_eq!(LineAddr::containing(Addr::new(0)).base().raw(), 0);
        assert_eq!(LineAddr::containing(Addr::new(63)).base().raw(), 0);
        assert_eq!(LineAddr::containing(Addr::new(64)).base().raw(), 64);
        assert_eq!(
            LineAddr::containing(Addr::new(0x12345)).base().raw(),
            0x12340
        );
    }

    #[test]
    fn touch_mask_single_word() {
        // An 8-byte load at line offset 16 touches exactly sector 2.
        let m = SectorMask::l1_touch(Addr::new(64 + 16), 8);
        assert_eq!(m.bits(), 0b0000_0100);
        // A 4-byte load within sector 0.
        let m = SectorMask::l1_touch(Addr::new(4), 4);
        assert_eq!(m.bits(), 0b0000_0001);
    }

    #[test]
    fn touch_mask_straddles_sectors() {
        // A 16-byte access starting at offset 8 touches sectors 1 and 2.
        let m = SectorMask::l1_touch(Addr::new(8), 16);
        assert_eq!(m.bits(), 0b0000_0110);
    }

    #[test]
    fn widen_to_l2_masks() {
        assert_eq!(
            SectorMask::from_bits(0b0000_0001).widen_to_l2().bits(),
            0b01
        );
        assert_eq!(
            SectorMask::from_bits(0b0001_0000).widen_to_l2().bits(),
            0b10
        );
        assert_eq!(
            SectorMask::from_bits(0b1000_0001).widen_to_l2().bits(),
            0b11
        );
        assert_eq!(SectorMask::EMPTY.widen_to_l2().bits(), 0);
    }

    #[test]
    fn min_consecutive_run_counts_smallest() {
        assert_eq!(
            SectorMask::from_bits(0b0000_0000).min_consecutive_run(),
            None
        );
        assert_eq!(
            SectorMask::from_bits(0b0000_0001).min_consecutive_run(),
            Some(1)
        );
        assert_eq!(
            SectorMask::from_bits(0b0110_0001).min_consecutive_run(),
            Some(1)
        );
        assert_eq!(
            SectorMask::from_bits(0b0110_0011).min_consecutive_run(),
            Some(2)
        );
        assert_eq!(SectorMask::FULL_L1.min_consecutive_run(), Some(8));
    }

    #[test]
    fn granule_alignment() {
        // granu=2 around sector 3 -> sectors 2..4.
        let m = SectorMask::l1_granule_around(Addr::new(3 * 8), 2);
        assert_eq!(m.bits(), 0b0000_1100);
        // granu=8 is the full line.
        let m = SectorMask::l1_granule_around(Addr::new(40), 8);
        assert_eq!(m.bits(), 0xFF);
        // granu=1 is exactly the touched sector.
        let m = SectorMask::l1_granule_around(Addr::new(40), 1);
        assert_eq!(m.bits(), 0b0010_0000);
    }

    #[test]
    fn mask_set_operations() {
        let a = SectorMask::from_bits(0b1010);
        let b = SectorMask::from_bits(0b0110);
        assert_eq!(a.union(b).bits(), 0b1110);
        assert_eq!(a.intersect(b).bits(), 0b0010);
        assert_eq!(a.minus(b).bits(), 0b1000);
        assert!(a.contains(SectorMask::from_bits(0b1000)));
        assert!(!a.contains(b));
    }
}
