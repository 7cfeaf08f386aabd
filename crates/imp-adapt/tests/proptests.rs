//! Property test for the control plane's accounting: per-epoch
//! [`Feedback`] deltas produced by [`EpochTracker`] must sum exactly to
//! the cumulative ledger — totals, per-PC, and per-hop — for any
//! event sequence and any epoch placement, and the summed deltas must
//! satisfy the end-of-run invariant
//! `issued == used + late + evicted_unused + inflight_at_end`.

use imp_adapt::EpochTracker;
use imp_common::stats::AccessClass;
use imp_common::{Addr, LineAddr, Pc};
use imp_obs::{merge_counts, Ledger, LedgerCounts};
use imp_prefetch::Feedback;
use proptest::prelude::*;

#[derive(Clone, Copy, PartialEq)]
enum LineState {
    Idle,
    InFlight,
    Resident,
}

fn add(sum: &mut LedgerCounts, d: &LedgerCounts) {
    sum.issued += d.issued;
    sum.fills += d.fills;
    sum.used += d.used;
    sum.late += d.late;
    sum.evicted_unused += d.evicted_unused;
}

proptest! {
    #[test]
    fn epoch_deltas_reconcile_with_ledger_totals(
        ops in proptest::collection::vec((0u8..5, 0u64..24, 0u32..6), 0..400),
        epoch_every in 1usize..24,
    ) {
        let mut ledger = Ledger::default();
        let mut tracker = EpochTracker::new();
        let mut states = [LineState::Idle; 24];
        let mut epochs: Vec<Feedback> = Vec::new();
        let mut now = 0u64;
        let mut drops = 0u64;

        for (step, &(kind, li, pi)) in ops.iter().enumerate() {
            now += 3;
            let line = LineAddr::containing(Addr::new(0x4000 + 64 * li));
            let pc = Pc::new(pi);
            let class = AccessClass::ALL[(pi as usize) % AccessClass::ALL.len()];
            match kind {
                // A demand access: merges into an in-flight prefetch
                // (late).
                0 => {
                    if states[li as usize] == LineState::InFlight {
                        ledger.demand_merge(0, line);
                    }
                }
                1 if states[li as usize] == LineState::Idle => {
                    ledger.issue(0, line, pc, class, (pi % 4) as u8, now);
                    states[li as usize] = LineState::InFlight;
                }
                2 if states[li as usize] == LineState::InFlight => {
                    ledger.fill(0, line, now);
                    states[li as usize] = LineState::Resident;
                }
                3 if states[li as usize] == LineState::Resident => {
                    ledger.first_use(0, line, now);
                    states[li as usize] = LineState::Idle;
                }
                4 if states[li as usize] == LineState::Resident => {
                    ledger.evicted_unused(0, line);
                    states[li as usize] = LineState::Idle;
                }
                _ => drops += 1, // an illegal op stands in for a TLB drop
            }
            if (step + 1) % epoch_every == 0 {
                epochs.push(tracker.feedback(&ledger, now, drops));
            }
        }

        // Run end: the ledger resolves every open entry, and the
        // tracker closes one final epoch over that resolution.
        ledger.finish();
        epochs.push(tracker.feedback(&ledger, now + 1, drops));

        // Epoch windows tile the run: no gaps, no overlaps.
        for w in epochs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        prop_assert_eq!(epochs[0].start, 0);

        // Totals: the deltas sum to the cumulative ledger exactly.
        let mut sum = LedgerCounts::default();
        for fb in &epochs {
            add(&mut sum, &fb.total);
        }
        prop_assert_eq!(&sum, ledger.total());

        // The end-of-run invariant holds over the summed deltas.
        prop_assert!(ledger.reconciles());
        prop_assert_eq!(
            sum.issued,
            sum.used + sum.late + sum.evicted_unused + ledger.inflight_at_end()
        );

        // Per-PC deltas reconcile PC by PC.
        let mut per_pc: Vec<(Pc, LedgerCounts)> = Vec::new();
        for fb in &epochs {
            for (pc, d) in &fb.per_pc {
                match per_pc.iter_mut().find(|(p, _)| p == pc) {
                    Some((_, c)) => add(c, d),
                    None => per_pc.push((*pc, *d)),
                }
            }
        }
        per_pc.sort_by_key(|(pc, _)| pc.raw());
        prop_assert_eq!(&per_pc, &ledger.per_pc());
        prop_assert_eq!(
            merge_counts(per_pc.iter().map(|(_, c)| c)),
            *ledger.total()
        );

        // Per-hop deltas reconcile hop by hop and sum to the totals.
        for (h, cur) in ledger.per_hop().iter().enumerate() {
            let mut s = LedgerCounts::default();
            for fb in &epochs {
                add(&mut s, &fb.per_hop[h]);
            }
            prop_assert_eq!(&s, cur);
        }
        prop_assert!(ledger.reconciles_per_hop());

        // The TLB-drop side channel tiles the run the same way.
        let drop_sum: u64 = epochs.iter().map(|fb| fb.tlb_prefetch_drops).sum();
        prop_assert_eq!(drop_sum, drops);
    }
}
