//! Common foundation types for the IMP (Indirect Memory Prefetcher)
//! reproduction: addresses, cycles, system/prefetcher configuration
//! (Tables 1 and 2 of the paper), a deterministic discrete-event queue,
//! statistics counters, a small seedable RNG, and the [`wire`] codec
//! every on-disk format is read and written through.
//!
//! Everything in this crate is dependency-free and deterministic; the
//! simulator built on top of it replays identically for a given seed.
//!
//! # Example
//!
//! ```
//! use imp_common::{Addr, LineAddr, config::SystemConfig};
//!
//! let cfg = SystemConfig::paper_default(64);
//! assert_eq!(cfg.cores, 64);
//! let a = Addr::new(0x1234);
//! assert_eq!(LineAddr::containing(a).base().raw(), 0x1200);
//! ```

pub mod addr;
pub mod config;
pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod wire;

pub use addr::{Addr, LineAddr, Pc, SectorMask};
pub use config::{
    CoreModel, ImpConfig, MemConfig, MemRegion, PagePolicy, ParamValue, PrefetcherSpec,
    SystemConfig, TlbConfig, TranslationPolicy, WalkModel,
};
pub use event::EventQueue;
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use rng::{fnv1a, SplitMix64};
pub use stats::{CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats};

/// Simulated time, in core clock cycles (1 GHz in the paper's Table 1).
pub type Cycle = u64;

/// Number of bytes in a cache line throughout the modelled system (Table 1).
pub const LINE_BYTES: u64 = 64;

/// L1 sector size in bytes for partial cacheline accessing (Table 2):
/// one on-die network flit.
pub const L1_SECTOR_BYTES: u64 = 8;

/// L2 sector size in bytes for partial cacheline accessing (Table 2):
/// half a cache line, matching the assumed minimum DRAM transfer.
pub const L2_SECTOR_BYTES: u64 = 32;

/// Number of L1 sectors per line.
pub const L1_SECTORS: u32 = (LINE_BYTES / L1_SECTOR_BYTES) as u32;

/// Number of L2 sectors per line.
pub const L2_SECTORS: u32 = (LINE_BYTES / L2_SECTOR_BYTES) as u32;
