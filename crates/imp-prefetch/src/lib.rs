//! The Indirect Memory Prefetcher (IMP) and its baselines.
//!
//! This crate is the paper's primary contribution (Section 3), implemented
//! as pure, simulator-agnostic hardware models:
//!
//! * [`StreamPrefetcher`] — the baseline per-L1 stream prefetcher
//!   (PC-associated, word granularity), also embedded inside IMP as the
//!   Stream Table half of the Prefetch Table (Figure 5).
//! * [`Ipd`] — the Indirect Pattern Detector (Figure 4): pairs index
//!   values with nearby cache misses and solves `addr = (idx << shift) +
//!   base` for the shift/base of an indirect pattern.
//! * [`Imp`] — the full prefetcher: Prefetch Table with stream + indirect
//!   halves, confidence ramp-up, linear prefetch-distance ramp, nested-loop
//!   PC re-association (Section 3.3.1), multi-way and multi-level
//!   secondary indirections (Section 3.3.2), and the partial-cacheline
//!   Granularity Predictor (Section 4.2).
//! * [`Ghb`] — a Global History Buffer address-correlation prefetcher
//!   (the Section 5.4 comparison point).
//! * [`Hybrid`] — a combinator that runs several prefetchers side by
//!   side and arbitrates their requests per PC.
//! * [`registry`] — the prefetcher plugin registry: a string-keyed
//!   factory table the simulator resolves `PrefetcherSpec`s against, so
//!   custom prefetchers plug in without touching `imp-sim`.
//! * [`cost`] — the storage-cost arithmetic of Section 6.4.
//!
//! Prefetchers observe the L1 access/miss stream as [`Access`] records
//! and emit [`PrefetchRequest`]s through a [`PrefetchCtx`] — the
//! caller-owned output buffer, the triggering PC and access class, an
//! [`IndexValueSource`] for index reads (the full simulator backs it
//! with functional memory gated on L1 presence, as hardware reads the
//! value out of the cache), and an observability handle. An adaptive
//! manager can deliver epoch [`Feedback`] digests through
//! [`L1Prefetcher::on_feedback`] and apply the returned [`Control`].
//!
//! # Example: IMP learns `A[B[i]]` from a raw access stream
//!
//! ```
//! use imp_common::stats::AccessClass;
//! use imp_common::{Addr, ImpConfig, Pc};
//! use imp_obs::CoreProbe;
//! use imp_prefetch::{Access, Imp, L1Prefetcher, MapValueSource, PrefetchCtx};
//!
//! // B is u32[64] at 0x1000; A is f64[] at 0x80000; B holds scattered
//! // indices (no stride), so only indirect prefetching can capture A[B[i]].
//! let b_of = |i: u64| (i.wrapping_mul(2654435761) >> 8) % 5000;
//! let mut src = MapValueSource::new();
//! for i in 0..64u64 {
//!     src.insert(Addr::new(0x1000 + 4 * i), 4, b_of(i));
//! }
//! let mut imp = Imp::new(ImpConfig::paper_default(), false, 1);
//! let (mut reqs, probe) = (Vec::new(), CoreProbe::disabled());
//! let mut prefetched = false;
//! for i in 0..64u64 {
//!     let b = Addr::new(0x1000 + 4 * i);
//!     let a = Addr::new(0x80000 + 8 * b_of(i));
//!     for access in [
//!         Access::load_miss(Pc::new(1), b, 4),
//!         Access::load_miss(Pc::new(2), a, 8),
//!     ] {
//!         let mut ctx =
//!             PrefetchCtx::new(access.pc, AccessClass::Other, &mut src, &mut reqs, &probe);
//!         imp.on_access_ctx(access, &mut ctx);
//!     }
//!     prefetched |= !reqs.is_empty();
//!     reqs.clear();
//! }
//! assert!(imp.stats().patterns_detected >= 1);
//! assert!(prefetched);
//! ```

mod access;
pub mod cost;
mod feedback;
mod ghb;
mod gp;
mod hybrid;
mod imp;
mod ipd;
pub mod registry;
mod stream;

pub use access::{
    class_of, Access, IndexValueSource, L1Prefetcher, MapValueSource, NullPrefetcher, PrefetchCtx,
    PrefetchKind, PrefetchRequest, PrefetcherStats,
};
pub use feedback::{Control, Feedback};
pub use ghb::Ghb;
pub use gp::{Gp, GpDecision};
pub use hybrid::Hybrid;
pub use imp::{Imp, IndType};
pub use ipd::{Ipd, IpdOutcome};
pub use registry::{BuildCtx, PrefetcherFactory, Registry, RegistryError};
pub use stream::{shift_apply, StreamEntry, StreamEvent, StreamPrefetcher, StreamTable};
