//! Property tests: functional memory behaves like a giant byte array,
//! and a damaged snapshot restores or fails with a typed error, never a
//! panic.

use imp_common::{wire, Addr};
use imp_mem::{AddressSpace, FunctionalMemory};
use proptest::prelude::*;

proptest! {
    /// Independent writes read back independently (no aliasing).
    #[test]
    fn writes_do_not_alias(ops in proptest::collection::vec((0u64..1_000_000, any::<u64>()), 1..50)) {
        let mut mem = FunctionalMemory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, v) in &ops {
            let addr = addr * 8; // aligned, disjoint u64 cells
            mem.write_u64(Addr::new(addr), *v);
            model.insert(addr, *v);
        }
        for (addr, v) in model {
            prop_assert_eq!(mem.read_u64(Addr::new(addr)), v);
        }
    }

    /// Byte-level writes compose into the right integers.
    #[test]
    fn byte_writes_compose(base in 0u64..1_000_000, v in any::<u32>()) {
        let mut mem = FunctionalMemory::new();
        for (i, b) in v.to_le_bytes().iter().enumerate() {
            mem.write_u8(Addr::new(base + i as u64), *b);
        }
        prop_assert_eq!(mem.read_u32(Addr::new(base)), v);
    }

    /// Snapshots round-trip arbitrary populated memories exactly —
    /// contents, page mapping, and the snapshot bytes themselves.
    #[test]
    fn snapshot_restore_roundtrip(
        writes in proptest::collection::vec((0u64..50_000_000, any::<u64>()), 0..60),
    ) {
        let mut mem = FunctionalMemory::new();
        for (addr, v) in &writes {
            mem.write_u64(Addr::new(*addr), *v);
        }
        let image = mem.snapshot();
        let back = FunctionalMemory::restore(&image).unwrap();
        prop_assert_eq!(back.mapped_pages(), mem.mapped_pages());
        for (addr, _) in &writes {
            prop_assert_eq!(back.read_u64(Addr::new(*addr)), mem.read_u64(Addr::new(*addr)));
        }
        prop_assert_eq!(back.snapshot(), image);
    }

    /// A truncated snapshot never restores to a silently wrong memory.
    #[test]
    fn snapshot_truncation_detected(
        writes in proptest::collection::vec((0u64..1_000_000, any::<u64>()), 1..10),
        cut in 1usize..100,
    ) {
        let mut mem = FunctionalMemory::new();
        for (addr, v) in &writes {
            mem.write_u64(Addr::new(*addr), *v);
        }
        let image = mem.snapshot();
        prop_assume!(cut < image.len());
        prop_assert!(FunctionalMemory::restore(&image[..image.len() - cut]).is_err());
    }

    /// A damaged snapshot restores to a memory or fails with a typed
    /// error, never panicking or allocating for an absurd page count;
    /// any memory it restores snapshots to an image that restores again.
    #[test]
    fn snapshot_restore_survives_damage(
        writes in proptest::collection::vec((0u64..3 << 12, any::<u64>()), 0..3),
        edits in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let mut mem = FunctionalMemory::new();
        for (addr, v) in &writes {
            mem.write_u64(Addr::new(*addr), *v);
        }
        let mut image = mem.snapshot();
        for (kind, at, value) in edits {
            wire::mutate(&mut image, kind, at, value);
        }
        if let Ok(back) = FunctionalMemory::restore(&image) {
            let again = back.snapshot();
            let reread = FunctionalMemory::restore(&again).map(|m| m.snapshot());
            prop_assert_eq!(reread, Ok(again));
        }
    }

    /// Allocations never overlap, whatever the request sizes.
    #[test]
    fn allocations_disjoint(sizes in proptest::collection::vec(1u64..10_000, 1..30)) {
        let mut space = AddressSpace::new();
        let allocs: Vec<_> = sizes.iter().enumerate()
            .map(|(i, &s)| space.alloc(&format!("a{i}"), s))
            .collect();
        for (i, a) in allocs.iter().enumerate() {
            for b in allocs.iter().skip(i + 1) {
                prop_assert!(a.end() <= b.base || b.end() <= a.base);
            }
        }
    }
}
