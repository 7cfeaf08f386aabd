//! Sparse page-backed functional memory.

use imp_common::wire::{Reader, WireError, Writer};
use imp_common::{Addr, FastMap};
use std::fmt;
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// A sparse byte-addressable memory.
///
/// Reads from unmapped locations return zero: this mirrors a zero-filled
/// fresh allocation and, importantly, makes speculative reads by the
/// prefetcher (which may run past the end of an index array, Section 6.1.1
/// of the paper) well-defined rather than a simulator fault.
///
/// Pages are reference-counted and copy-on-write: `clone()` costs one
/// `Arc` bump per mapped page, and a write to a shared page copies just
/// that page. One populated memory image can therefore back many
/// concurrent simulator instances (the build-once sweep path) for free —
/// the simulator only ever reads it.
#[derive(Clone, Debug, Default)]
pub struct FunctionalMemory {
    pages: FastMap<u64, Arc<[u8; PAGE_BYTES]>>,
}

impl FunctionalMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped 4 KB pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte, mapping the page on demand.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        if buf.is_empty() {
            return; // never map a page for a zero-length write
        }
        let (page, off) = split(addr);
        if let Some(end) = off.checked_add(buf.len()) {
            if end <= PAGE_BYTES {
                self.page_mut(page)[off..end].copy_from_slice(buf);
                return;
            }
        }
        for (i, b) in buf.iter().enumerate() {
            self.write_u8(addr.offset(i as i64), *b);
        }
    }

    /// Reads the `N` bytes at `addr`. A read inside one page is one
    /// page lookup and a fixed-width load; a read that crosses a page
    /// goes byte by byte.
    fn read_array<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let (page, off) = split(addr);
        let mut b = [0u8; N];
        if off + N <= PAGE_BYTES {
            if let Some(p) = self.pages.get(&page) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, x) in b.iter_mut().enumerate() {
                *x = self.read_u8(addr.offset(i as i64));
            }
        }
        b
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an unsigned little-endian integer of `size` bytes
    /// (1, 2, 4 or 8), zero-extended to `u64`. This is the operation the
    /// IMP hardware performs when it reads an index value at stream
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read_uint(&self, addr: Addr, size: u32) -> u64 {
        match size {
            1 => u64::from(self.read_u8(addr)),
            2 => u64::from(self.read_u16(addr)),
            4 => u64::from(self.read_u32(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported integer size {size}"),
        }
    }

    /// Serializes the populated pages into a deterministic byte image:
    /// page count, then each page as `page_number (u64 le)` + its 4096
    /// bytes, sorted by page number. Restoring with
    /// [`FunctionalMemory::restore`] reproduces the memory exactly
    /// (including which pages are mapped).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut numbers: Vec<u64> = self.pages.keys().copied().collect();
        numbers.sort_unstable();
        let mut w = Writer::default();
        w.u64(numbers.len() as u64);
        for n in numbers {
            w.u64(n);
            w.bytes(&self.pages[&n][..]);
        }
        w.into_bytes()
    }

    /// Rebuilds a memory from a [`FunctionalMemory::snapshot`] image.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Wire`] when the image is truncated or
    /// has bytes left over, and [`SnapshotError::DuplicatePage`] when it
    /// repeats a page number.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let count = r.u64("page count")?;
        let mut records = Reader::new(r.records("memory pages", count, 8 + PAGE_BYTES)?);
        let mut pages = FastMap::default();
        pages.reserve(records.rest().len() / (8 + PAGE_BYTES));
        while !records.rest().is_empty() {
            let n = records.u64("page number")?;
            let page = records.take("page", PAGE_BYTES)?;
            let page = Arc::new(page.try_into().expect("took one page"));
            if pages.insert(n, page).is_some() {
                return Err(SnapshotError::DuplicatePage(n));
            }
        }
        r.finish()?;
        Ok(FunctionalMemory { pages })
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        Arc::make_mut(
            self.pages
                .entry(page)
                .or_insert_with(|| Arc::new([0u8; PAGE_BYTES])),
        )
    }
}

/// Why a [`FunctionalMemory::snapshot`] image could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image is truncated or has bytes after the declared page
    /// records.
    Wire(WireError),
    /// The same page number appears twice.
    DuplicatePage(u64),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Wire(e) => write!(f, "unreadable memory snapshot: {e}"),
            SnapshotError::DuplicatePage(p) => {
                write!(f, "page {p:#x} appears twice in the memory snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

fn split(addr: Addr) -> (u64, usize) {
    (
        addr.raw() >> PAGE_SHIFT,
        (addr.raw() & (PAGE_BYTES as u64 - 1)) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_are_zero() {
        let m = FunctionalMemory::new();
        assert_eq!(m.read_u64(Addr::new(0xdead_beef)), 0);
        assert_eq!(m.read_u8(Addr::new(0)), 0);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip_all_widths() {
        let mut m = FunctionalMemory::new();
        m.write_u8(Addr::new(10), 0xAB);
        m.write_u16(Addr::new(20), 0xBEEF);
        m.write_u32(Addr::new(30), 0xDEAD_BEEF);
        m.write_u64(Addr::new(40), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u8(Addr::new(10)), 0xAB);
        assert_eq!(m.read_u16(Addr::new(20)), 0xBEEF);
        assert_eq!(m.read_u32(Addr::new(30)), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(Addr::new(40)), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn reads_span_page_boundaries() {
        let mut m = FunctionalMemory::new();
        let addr = Addr::new(PAGE_BYTES as u64 - 3);
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn read_uint_matches_width() {
        let mut m = FunctionalMemory::new();
        m.write_u64(Addr::new(0), u64::MAX);
        assert_eq!(m.read_uint(Addr::new(0), 1), 0xFF);
        assert_eq!(m.read_uint(Addr::new(0), 2), 0xFFFF);
        assert_eq!(m.read_uint(Addr::new(0), 4), 0xFFFF_FFFF);
        assert_eq!(m.read_uint(Addr::new(0), 8), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "unsupported integer size")]
    fn read_uint_rejects_odd_sizes() {
        let m = FunctionalMemory::new();
        let _ = m.read_uint(Addr::new(0), 3);
    }

    #[test]
    fn clones_are_copy_on_write() {
        let mut a = FunctionalMemory::new();
        a.write_u64(Addr::new(100), 7);
        let mut b = a.clone();
        b.write_u64(Addr::new(100), 9);
        assert_eq!(a.read_u64(Addr::new(100)), 7, "original unchanged");
        assert_eq!(b.read_u64(Addr::new(100)), 9);
        // Writing elsewhere in the clone maps a page only in the clone.
        b.write_u8(Addr::new(1 << 30), 1);
        assert_eq!(a.mapped_pages(), 1);
        assert_eq!(b.mapped_pages(), 2);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = FunctionalMemory::new();
        m.write_u64(Addr::new(40), 0x0123_4567_89AB_CDEF);
        m.write_u32(Addr::new(PAGE_BYTES as u64 * 5 + 8), 0xDEAD_BEEF);
        let image = m.snapshot();
        let back = FunctionalMemory::restore(&image).unwrap();
        assert_eq!(back.mapped_pages(), m.mapped_pages());
        assert_eq!(back.read_u64(Addr::new(40)), 0x0123_4567_89AB_CDEF);
        assert_eq!(
            back.read_u32(Addr::new(PAGE_BYTES as u64 * 5 + 8)),
            0xDEAD_BEEF
        );
        // Snapshots are deterministic byte-for-byte.
        assert_eq!(back.snapshot(), image);
    }

    #[test]
    fn snapshot_restore_rejects_malformed_images() {
        let mut m = FunctionalMemory::new();
        m.write_u8(Addr::new(0), 1);
        let image = m.snapshot();
        assert!(matches!(
            FunctionalMemory::restore(&image[..image.len() - 1]),
            Err(SnapshotError::Wire(WireError::Truncated { .. }))
        ));
        let mut padded = image.clone();
        padded.push(0);
        assert!(matches!(
            FunctionalMemory::restore(&padded),
            Err(SnapshotError::Wire(WireError::TrailingBytes(1)))
        ));
        // Duplicate the single page record and fix up the count.
        let mut dup = image.clone();
        dup.extend_from_slice(&image[8..]);
        dup[0..8].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            FunctionalMemory::restore(&dup),
            Err(SnapshotError::DuplicatePage(0))
        ));
        // An absurd page count errors instead of allocating for it.
        let mut huge = image;
        huge[0..8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            FunctionalMemory::restore(&huge),
            Err(SnapshotError::Wire(WireError::Truncated { .. }))
        ));
    }
}
