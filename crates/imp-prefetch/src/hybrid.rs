//! A composite prefetcher that runs several component prefetchers side
//! by side and arbitrates their requests per PC.
//!
//! Every component observes the full access stream (each must keep
//! learning even while another owns a PC), but only one component's
//! requests are forwarded for a given PC:
//!
//! * a PC is *latched* to the first component that emits an indirect
//!   prefetch for it — indirect patterns are precise, PC-associated
//!   knowledge, so the detecting component wins the PC outright;
//! * an unlatched PC forwards the requests of the first component that
//!   emitted anything for this access (earlier components take priority).
//!
//! This mirrors the arbitration of hybrid-prefetcher managers (e.g.
//! Puppeteer) in the simplest deterministic form: ownership never
//! flip-flops, so duplicate prefetches from overlapping components are
//! structurally impossible.
//!
//! Prefetch fills follow the same attribution: a fill whose PC is
//! latched is delivered only to the owning component, so the chained
//! requests it triggers carry the owner's attribution in the
//! timeliness ledger; fills for unlatched PCs fan out to every
//! component (the chain continues wherever the original request came
//! from).

use crate::access::{
    Access, L1Prefetcher, PrefetchCtx, PrefetchKind, PrefetchRequest, PrefetcherStats,
};
use crate::feedback::{Control, Feedback};
use imp_common::{FastMap, LineAddr, Pc, SectorMask};

/// The per-PC arbitrating combinator. See the module docs.
pub struct Hybrid {
    components: Vec<Box<dyn L1Prefetcher>>,
    owner: FastMap<Pc, usize>,
    /// One reusable request buffer per component (cleared per access).
    scratch: Vec<Vec<PrefetchRequest>>,
    forwarded_stream: u64,
    forwarded_indirect: u64,
    stats: PrefetcherStats,
}

impl Hybrid {
    /// Combines `components` (at least one; earlier entries win ties).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn new(components: Vec<Box<dyn L1Prefetcher>>) -> Self {
        assert!(
            !components.is_empty(),
            "Hybrid needs at least one component"
        );
        let scratch = components.iter().map(|_| Vec::new()).collect();
        Hybrid {
            components,
            owner: FastMap::default(),
            scratch,
            forwarded_stream: 0,
            forwarded_indirect: 0,
            stats: PrefetcherStats::default(),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always false: construction requires at least one component.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Which component currently owns `pc`, if any has latched it.
    pub fn owner_of(&self, pc: Pc) -> Option<usize> {
        self.owner.get(&pc).copied()
    }

    /// Hops at or past this are "deep": the most speculative end of a
    /// chained-indirection walk.
    const DEEP_HOP: u8 = 3;

    fn forward(&mut self, reqs: &[PrefetchRequest], out: &mut Vec<PrefetchRequest>) {
        for r in reqs {
            match r.kind {
                PrefetchKind::Sequential => self.forwarded_stream += 1,
                PrefetchKind::Indirect { .. } => self.forwarded_indirect += 1,
                PrefetchKind::TranslationOnly { .. } => {}
            }
        }
        // Shallow hops first: deep chain-ahead requests are the most
        // speculative, so they yield downstream degree budget and MSHR
        // slots to hops 0-2. The partition is stable and a no-op when
        // no deep hops are present (always the case at depth 1), which
        // preserves the historical forwarding order exactly.
        if reqs.iter().any(|r| r.kind.hop() >= Self::DEEP_HOP) {
            out.extend(reqs.iter().filter(|r| r.kind.hop() < Self::DEEP_HOP));
            out.extend(reqs.iter().filter(|r| r.kind.hop() >= Self::DEEP_HOP));
        } else {
            out.extend_from_slice(reqs);
        }
    }

    /// Rebuilds the merged statistics snapshot: detection counters sum
    /// over components; emission counters reflect what was forwarded.
    ///
    /// Runs once per observed access. The eager rebuild keeps `stats()`
    /// exact at any instant (the `L1Prefetcher` contract returns a plain
    /// reference, so there is nowhere to compute lazily without interior
    /// mutability); the cost is a handful of u64 adds per component,
    /// negligible next to the component models' own per-access work.
    fn refresh_stats(&mut self) {
        let mut merged = PrefetcherStats::default();
        for c in &self.components {
            merged += c.stats();
        }
        merged.stream_prefetches = self.forwarded_stream;
        merged.indirect_prefetches = self.forwarded_indirect;
        self.stats = merged;
    }
}

impl L1Prefetcher for Hybrid {
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
        for (c, buf) in self.components.iter_mut().zip(&mut self.scratch) {
            buf.clear();
            let mut sub = PrefetchCtx::new(ctx.pc, ctx.class, &mut *ctx.values, buf, ctx.probe);
            c.on_access_ctx(access, &mut sub);
        }
        let per = &self.scratch;
        let chosen = match self.owner.get(&access.pc) {
            Some(&i) => i,
            None => {
                let indirect = per.iter().position(|rs| {
                    rs.iter()
                        .any(|r| matches!(r.kind, PrefetchKind::Indirect { .. }))
                });
                if let Some(i) = indirect {
                    self.owner.insert(access.pc, i);
                    i
                } else {
                    per.iter().position(|rs| !rs.is_empty()).unwrap_or(0)
                }
            }
        };
        let reqs = std::mem::take(&mut self.scratch[chosen]);
        self.forward(&reqs, ctx.out);
        self.scratch[chosen] = reqs;
        self.refresh_stats();
    }

    fn on_prefetch_fill_ctx(&mut self, request: PrefetchRequest, ctx: &mut PrefetchCtx<'_>) {
        // Fills for a latched PC go only to the owning component: the
        // arbiter forwarded that component's requests, so the chained
        // requests a fill triggers must carry the same attribution —
        // fanning the fill out would let a non-owning component emit
        // under a PC it lost, and the timeliness ledger (keyed by PC at
        // issue) would charge the owner for requests it never made.
        // Fills for unlatched PCs keep the historical fan-out: the chain
        // continues in whichever component issued the original request,
        // and the MSHR merge path absorbs the rare duplicates.
        let mut chained = std::mem::take(&mut self.scratch[0]);
        chained.clear();
        match self.owner.get(&request.pc).copied() {
            Some(i) => {
                let mut sub =
                    PrefetchCtx::new(ctx.pc, ctx.class, &mut *ctx.values, &mut chained, ctx.probe);
                self.components[i].on_prefetch_fill_ctx(request, &mut sub);
            }
            None => {
                for c in &mut self.components {
                    let mut sub = PrefetchCtx::new(
                        ctx.pc,
                        ctx.class,
                        &mut *ctx.values,
                        &mut chained,
                        ctx.probe,
                    );
                    c.on_prefetch_fill_ctx(request, &mut sub);
                }
            }
        }
        self.forward(&chained, ctx.out);
        self.scratch[0] = chained;
        self.refresh_stats();
    }

    fn on_feedback(&mut self, feedback: &Feedback) -> Control {
        let mut merged = Control::none();
        for c in &mut self.components {
            merged = merged.merge(c.on_feedback(feedback));
        }
        merged
    }

    fn on_eviction(&mut self, line: LineAddr) {
        for c in &mut self.components {
            c.on_eviction(line);
        }
    }

    fn on_demand_touch(&mut self, line: LineAddr, sectors: SectorMask) {
        for c in &mut self.components {
            c.on_demand_touch(line, sectors);
        }
    }

    fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CollectExt, MapValueSource, NullPrefetcher};
    use crate::imp::Imp;
    use crate::stream::StreamPrefetcher;
    use imp_common::{Addr, ImpConfig};

    fn stream_imp_hybrid() -> Hybrid {
        Hybrid::new(vec![
            Box::new(StreamPrefetcher::new(16, 2, 4)),
            Box::new(Imp::new(ImpConfig::paper_default(), false, 1)),
        ])
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_hybrid_rejected() {
        let _ = Hybrid::new(Vec::new());
    }

    #[test]
    fn indirect_detection_latches_pc_ownership() {
        let mut h = stream_imp_hybrid();
        let b_base = 0x1_0000u64;
        let a_base = 0x100_0000u64;
        let b_of = |i: u64| (i.wrapping_mul(2654435761) >> 6) % 10_000;
        let mut src = MapValueSource::new();
        for i in 0..96u64 {
            src.insert(Addr::new(b_base + 4 * i), 4, b_of(i));
        }
        for i in 0..96u64 {
            h.on_access_collect(
                Access::load_hit(Pc::new(1), Addr::new(b_base + 4 * i), 4),
                &mut src,
            );
            h.on_access_collect(
                Access::load_miss(Pc::new(2), Addr::new(a_base + 8 * b_of(i)), 8),
                &mut src,
            );
        }
        // The IMP component (index 1) detected the indirect pattern and
        // must own the index PC; its prefetches were forwarded.
        assert_eq!(h.owner_of(Pc::new(1)), Some(1));
        assert!(h.stats().patterns_detected >= 1);
        assert!(h.stats().indirect_prefetches > 0);
    }

    #[test]
    fn earlier_component_wins_plain_streams() {
        // Two stream prefetchers: only the first one's requests flow.
        let mut h = Hybrid::new(vec![
            Box::new(StreamPrefetcher::new(16, 2, 4)),
            Box::new(StreamPrefetcher::new(16, 2, 4)),
        ]);
        let mut src = MapValueSource::new();
        let mut total = 0usize;
        for i in 0..64u64 {
            let reqs = h.on_access_collect(
                Access::load_miss(Pc::new(7), Addr::new(64 * i), 8),
                &mut src,
            );
            total += reqs.len();
        }
        assert!(total > 0, "stream requests forwarded");
        // Forwarded exactly one component's worth: the merged stream
        // counter equals the forwarded count, not double it.
        assert_eq!(h.stats().stream_prefetches, total as u64);
    }

    /// A probe component: optionally claims PCs by emitting an indirect
    /// request on access, and marks every fill it sees by chaining a
    /// request at a component-unique address.
    struct Tagger {
        id: u64,
        claim: bool,
        stats: PrefetcherStats,
    }

    impl Tagger {
        fn new(id: u64, claim: bool) -> Self {
            Tagger {
                id,
                claim,
                stats: PrefetcherStats::default(),
            }
        }

        fn chain_addr(id: u64) -> Addr {
            Addr::new(0xDEAD_0000 + 0x100 * id)
        }
    }

    impl L1Prefetcher for Tagger {
        fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
            if self.claim {
                ctx.out.push(PrefetchRequest {
                    pc: access.pc,
                    addr: Addr::new(0x8000 + 0x40 * self.id),
                    sectors: SectorMask::FULL_L1,
                    exclusive: false,
                    kind: PrefetchKind::Indirect { pt: 0, hop: 1 },
                });
            }
        }

        fn on_prefetch_fill_ctx(&mut self, request: PrefetchRequest, ctx: &mut PrefetchCtx<'_>) {
            ctx.out.push(PrefetchRequest {
                pc: request.pc,
                addr: Self::chain_addr(self.id),
                sectors: SectorMask::FULL_L1,
                exclusive: false,
                kind: PrefetchKind::Sequential,
            });
        }

        fn stats(&self) -> &PrefetcherStats {
            &self.stats
        }
    }

    #[test]
    fn fills_are_attributed_to_the_owning_component() {
        // Component 1 claims PC 5 via an indirect emission; component 0
        // never claims. A fill under the latched PC must reach only the
        // owner — the arbiter and the timeliness ledger then agree on
        // who issued the chained requests. An unlatched PC keeps the
        // fan-out-to-all behaviour.
        let mut h = Hybrid::new(vec![
            Box::new(Tagger::new(0, false)),
            Box::new(Tagger::new(1, true)),
        ]);
        let mut src = MapValueSource::new();
        let owned = Pc::new(5);
        let reqs = h.on_access_collect(Access::load_miss(owned, Addr::new(0x100), 8), &mut src);
        assert_eq!(h.owner_of(owned), Some(1));
        assert_eq!(reqs.len(), 1, "only the claiming component forwards");

        let fill = |pc: Pc| PrefetchRequest {
            pc,
            addr: Addr::new(0x9000),
            sectors: SectorMask::FULL_L1,
            exclusive: false,
            kind: PrefetchKind::Sequential,
        };
        let chained = h.on_prefetch_fill_collect(fill(owned), &mut src);
        let addrs: Vec<Addr> = chained.iter().map(|r| r.addr).collect();
        assert_eq!(
            addrs,
            vec![Tagger::chain_addr(1)],
            "latched PC: the owning component alone continues the chain"
        );

        let chained = h.on_prefetch_fill_collect(fill(Pc::new(99)), &mut src);
        let addrs: Vec<Addr> = chained.iter().map(|r| r.addr).collect();
        assert_eq!(
            addrs,
            vec![Tagger::chain_addr(0), Tagger::chain_addr(1)],
            "unlatched PC: the historical fan-out, in component order"
        );
    }

    #[test]
    fn feedback_controls_merge_across_components() {
        struct Throttler {
            limit: u32,
            stats: PrefetcherStats,
        }
        impl L1Prefetcher for Throttler {
            fn on_access_ctx(&mut self, _access: Access, _ctx: &mut PrefetchCtx<'_>) {}
            fn on_feedback(&mut self, _feedback: &Feedback) -> Control {
                Control {
                    degree_limit: Some(self.limit),
                    masked_pcs: vec![Pc::new(self.limit)],
                    ..Control::none()
                }
            }
            fn stats(&self) -> &PrefetcherStats {
                &self.stats
            }
        }
        let mut h = Hybrid::new(vec![
            Box::new(Throttler {
                limit: 4,
                stats: PrefetcherStats::default(),
            }),
            Box::new(Throttler {
                limit: 2,
                stats: PrefetcherStats::default(),
            }),
        ]);
        let ctl = h.on_feedback(&Feedback::default());
        assert_eq!(ctl.degree_limit, Some(2), "tightest component wins");
        assert_eq!(ctl.masked_pcs, vec![Pc::new(2), Pc::new(4)]);
    }

    #[test]
    fn deep_hops_yield_to_shallow_hops_on_forward() {
        /// Emits one request per configured hop, in the given order.
        struct HopEmitter {
            hops: Vec<u8>,
            stats: PrefetcherStats,
        }
        impl L1Prefetcher for HopEmitter {
            fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
                for &h in &self.hops {
                    ctx.out.push(PrefetchRequest {
                        pc: access.pc,
                        addr: Addr::new(0x1000 + 0x40 * u64::from(h)),
                        sectors: SectorMask::FULL_L1,
                        exclusive: false,
                        kind: match h {
                            0 => PrefetchKind::Sequential,
                            h => PrefetchKind::Indirect { pt: 0, hop: h },
                        },
                    });
                }
            }
            fn stats(&self) -> &PrefetcherStats {
                &self.stats
            }
        }
        let mut h = Hybrid::new(vec![Box::new(HopEmitter {
            hops: vec![3, 0, 2, 4, 1],
            stats: PrefetcherStats::default(),
        })]);
        let mut src = MapValueSource::new();
        let reqs = h.on_access_collect(Access::load_miss(Pc::new(1), Addr::new(0x40), 8), &mut src);
        let order: Vec<u8> = reqs.iter().map(|r| r.kind.hop()).collect();
        assert_eq!(
            order,
            vec![0, 2, 1, 3, 4],
            "hops 0-2 keep their order up front; deep hops trail"
        );
    }

    #[test]
    fn null_components_are_harmless() {
        let mut h = Hybrid::new(vec![
            Box::new(NullPrefetcher::new()),
            Box::new(StreamPrefetcher::new(16, 2, 4)),
        ]);
        let mut src = MapValueSource::new();
        let mut total = 0;
        for i in 0..32u64 {
            total += h
                .on_access_collect(
                    Access::load_miss(Pc::new(3), Addr::new(64 * i), 8),
                    &mut src,
                )
                .len();
        }
        assert!(total > 0, "second component's streams still flow");
    }
}
