//! # imp-store — the content-addressed sweep result store
//!
//! Every figure in the paper is a sweep grid, and most of a re-run's
//! cells are cells some earlier run already simulated. This crate makes
//! that observation structural: each sweep cell is identified by a
//! stable 64-bit digest of its *canonical input* (the full rendering of
//! everything that determines the simulated outcome — workload, cores,
//! seed, prefetcher spec, TLB config, page policies, partial mode, and
//! the rest of the [`imp_common::SystemConfig`] timing surface), and its
//! [`imp_common::SystemStats`] result persists on disk under
//! `<store>/<digest[..2]>/<digest>.impres`.
//!
//! The `.impres` container shares its magic + version + FNV-1a checksum
//! frame and its reader with `.imptrace` ([`imp_common::wire`]):
//! corruption is detected on read (and surfaces as a *miss*, never as
//! garbage data), newer versions are rejected, and the canonical string
//! is stored verbatim in the record so a digest collision — or a stale
//! record hashed under an older canonical scheme — is caught by direct
//! comparison, not trusted.
//!
//! ```
//! use imp_store::{cell_digest, digest_hex, CellKey, ResultStore, StoredResult};
//! use imp_common::stats::SystemStats;
//!
//! let dir = std::env::temp_dir().join(format!("impstore-doc-{}", std::process::id()));
//! let store = ResultStore::open(&dir).unwrap();
//!
//! let canonical = "demo-cell-v1";
//! let record = StoredResult {
//!     canonical: canonical.to_string(),
//!     cell: CellKey::default(),
//!     stats: SystemStats::default(),
//! };
//! assert!(store.get(canonical).unwrap().is_none()); // cold
//! store.put(&record).unwrap();
//! let back = store.get(canonical).unwrap().expect("warm");
//! assert_eq!(back.stats, record.stats);
//! assert_eq!(store.path_for(canonical).file_name().unwrap().to_str().unwrap(),
//!            format!("{}.impres", digest_hex(cell_digest(canonical))));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! Higher layers: `imp_experiments::Sweep::store` routes whole sweep
//! grids through a store, and the `imp-sweepd` binary turns that into a
//! long-running service that only ever simulates cells nobody has
//! simulated before.

mod digest;
mod record;
mod store;

pub use digest::{cell_digest, digest_hex};
pub use record::{CellKey, StoreError, StoredResult, MAGIC, VERSION};
pub use store::{ResultStore, StoreCounters};
