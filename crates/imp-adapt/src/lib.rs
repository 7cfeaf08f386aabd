//! Adaptive prefetcher management.
//!
//! The simulator ends each epoch by distilling its prefetch-timeliness
//! ledger (plus the TLB-pressure signal) into a
//! [`Feedback`] digest — [`EpochTracker`] does the delta bookkeeping —
//! and hands it to a [`Manager`]. The manager's policy answers with a
//! [`Control`]: throttle the prefetch degree, mask unproductive PCs, or
//! switch the running prefetcher to a different registry spec. Stock
//! policies:
//!
//! * `static` — never requests anything; a managed run with the
//!   `static` policy is bit-identical to an unmanaged run (golden-pinned
//!   by the simulator's regression tests).
//! * `throttle` — an accuracy/traffic feedback loop with hysteresis:
//!   when epoch accuracy drops below a floor it caps the prefetch
//!   degree and masks the PCs wasting the most traffic, releasing both
//!   once accuracy recovers.
//! * `tree` — an offline-trained [`DecisionTree`] over the epoch's
//!   rate features (accuracy, timeliness, evict rate, TLB drop rate),
//!   serialized through the spec string. The hand-built
//!   [`DecisionTree::paper_default`] encodes the demote-IMP-under-
//!   TLB-pressure rule; [`DecisionTree::train`] fits a fresh tree from
//!   labelled sweep samples.
//!
//! Managers are configured through the same [`PrefetcherSpec`] grammar
//! as prefetchers (`name:key=value,...`), e.g. `throttle:epoch=5000`,
//! and join a run's canonical input, so managed and unmanaged runs
//! content-address to different sweep cells.

use imp_common::config::{ParamError, PrefetcherSpec};
use imp_common::{Cycle, FastMap, Pc};
use imp_obs::{Ledger, LedgerCounts};
use imp_prefetch::{Control, Feedback};

mod policy;
mod tree;

pub use policy::{StaticPolicy, ThrottlePolicy, TreePolicy};
pub use tree::{DecisionTree, TreeAction, TreeFeature, TreeSample};

/// Why a manager spec could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManagerError {
    /// The spec names a policy that does not exist.
    UnknownPolicy {
        /// The unresolvable name.
        name: String,
        /// The stock policy names, for the error message.
        known: Vec<String>,
    },
    /// The policy rejected a parameter.
    InvalidParam {
        /// The policy that rejected it.
        policy: String,
        /// The offending key.
        param: String,
        /// Human-readable explanation.
        reason: String,
    },
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::UnknownPolicy { name, known } => {
                write!(
                    f,
                    "unknown manager policy `{name}` (known: {})",
                    known.join(", ")
                )
            }
            ManagerError::InvalidParam {
                policy,
                param,
                reason,
            } => {
                write!(
                    f,
                    "manager `{policy}`: invalid parameter `{param}`: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for ManagerError {}

impl From<ParamError> for ManagerError {
    fn from(e: ParamError) -> Self {
        ManagerError::InvalidParam {
            policy: e.spec,
            param: e.param,
            reason: e.reason,
        }
    }
}

/// An epoch-driven management policy: sees one [`Feedback`] digest per
/// epoch, answers with a [`Control`] that holds until the next epoch.
pub trait ManagerPolicy {
    /// Stable policy name (the spec name that builds it).
    fn name(&self) -> &'static str;
    /// One epoch boundary: digest in, control out.
    fn on_epoch(&mut self, feedback: &Feedback) -> Control;
}

/// The manager: an epoch length plus a boxed policy, built from a
/// [`PrefetcherSpec`] (`static`, `throttle:accuracy_floor=0.5,...`, or
/// `tree:spec=(tlb<0.25?pass:switch_stream)`).
pub struct Manager {
    epoch_len: Cycle,
    policy: Box<dyn ManagerPolicy>,
    spec: PrefetcherSpec,
}

impl Manager {
    /// Default epoch length in cycles (`epoch` parameter).
    pub const DEFAULT_EPOCH: Cycle = 10_000;

    /// Builds a manager from a spec. Every policy accepts the common
    /// `epoch=<cycles>` parameter; unknown names and parameters are
    /// rejected so typos surface before a run starts.
    pub fn build(spec: &PrefetcherSpec) -> Result<Manager, ManagerError> {
        let epoch_len = match spec.get("epoch") {
            None => Self::DEFAULT_EPOCH,
            Some(v) => match v.as_u64() {
                Some(e) if e > 0 => e,
                _ => {
                    return Err(ManagerError::InvalidParam {
                        policy: spec.name.clone(),
                        param: "epoch".into(),
                        reason: format!("expected a positive cycle count, got {v}"),
                    })
                }
            },
        };
        let policy: Box<dyn ManagerPolicy> = match spec.name.as_str() {
            "static" => {
                spec.reject_unknown_params(&["epoch"])?;
                Box::new(StaticPolicy)
            }
            "throttle" => Box::new(ThrottlePolicy::from_spec(spec)?),
            "tree" => Box::new(TreePolicy::from_spec(spec)?),
            other => {
                return Err(ManagerError::UnknownPolicy {
                    name: other.to_string(),
                    known: vec!["static".into(), "throttle".into(), "tree".into()],
                })
            }
        };
        Ok(Manager {
            epoch_len,
            policy,
            spec: spec.clone(),
        })
    }

    /// Epoch length in cycles.
    pub fn epoch_len(&self) -> Cycle {
        self.epoch_len
    }

    /// The spec this manager was built from.
    pub fn spec(&self) -> &PrefetcherSpec {
        &self.spec
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Delivers one epoch's feedback to the policy.
    pub fn on_epoch(&mut self, feedback: &Feedback) -> Control {
        self.policy.on_epoch(feedback)
    }
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("epoch_len", &self.epoch_len)
            .field("policy", &self.policy.name())
            .field("spec", &self.spec)
            .finish()
    }
}

/// Turns a cumulative [`Ledger`] (plus the cumulative TLB-drop count)
/// into per-epoch [`Feedback`] deltas.
///
/// The tracker snapshots everything it was shown at the previous epoch
/// boundary and subtracts; summed over all epochs the deltas equal the
/// cumulative totals exactly (property-tested), so nothing is lost or
/// double-counted at boundaries.
#[derive(Debug, Default)]
pub struct EpochTracker {
    epoch: u64,
    prev_start: Cycle,
    prev_total: LedgerCounts,
    prev_per_pc: FastMap<Pc, LedgerCounts>,
    prev_per_hop: [LedgerCounts; imp_obs::MAX_HOPS],
    prev_tlb_drops: u64,
}

fn sub_counts(now: &LedgerCounts, prev: &LedgerCounts) -> LedgerCounts {
    LedgerCounts {
        issued: now.issued - prev.issued,
        fills: now.fills - prev.fills,
        used: now.used - prev.used,
        late: now.late - prev.late,
        evicted_unused: now.evicted_unused - prev.evicted_unused,
    }
}

fn is_zero(c: &LedgerCounts) -> bool {
    c.issued == 0 && c.fills == 0 && c.used == 0 && c.late == 0 && c.evicted_unused == 0
}

impl EpochTracker {
    /// A fresh tracker (epoch 0 starts at cycle 0).
    pub fn new() -> Self {
        EpochTracker::default()
    }

    /// Closes the epoch ending at `end`: returns the delta between the
    /// cumulative `ledger` and `tlb_prefetch_drops` passed now and those
    /// passed at the previous boundary, then re-snapshots.
    pub fn feedback(&mut self, ledger: &Ledger, end: Cycle, tlb_prefetch_drops: u64) -> Feedback {
        let total = sub_counts(ledger.total(), &self.prev_total);
        let cur_pc = ledger.per_pc();
        let mut per_pc = Vec::new();
        for (pc, c) in &cur_pc {
            let prev = self.prev_per_pc.get(pc).copied().unwrap_or_default();
            let d = sub_counts(c, &prev);
            if !is_zero(&d) {
                per_pc.push((*pc, d));
            }
        }
        let cur_hop = ledger.per_hop();
        let mut per_hop: [LedgerCounts; imp_obs::MAX_HOPS] = Default::default();
        for (i, c) in cur_hop.iter().enumerate() {
            per_hop[i] = sub_counts(c, &self.prev_per_hop[i]);
        }
        let fb = Feedback {
            epoch: self.epoch,
            start: self.prev_start,
            end,
            total,
            per_pc,
            per_hop,
            tlb_prefetch_drops: tlb_prefetch_drops - self.prev_tlb_drops,
        };
        self.epoch += 1;
        self.prev_start = end;
        self.prev_total = *ledger.total();
        self.prev_per_pc = cur_pc.into_iter().collect();
        self.prev_per_hop = *cur_hop;
        self.prev_tlb_drops = tlb_prefetch_drops;
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::stats::AccessClass;
    use imp_common::LineAddr;

    fn spec(s: &str) -> PrefetcherSpec {
        s.parse().unwrap()
    }

    #[test]
    fn build_resolves_stock_policies() {
        for (name, policy) in [
            ("static", "static"),
            ("throttle", "throttle"),
            ("tree", "tree"),
            ("static:epoch=5000", "static"),
        ] {
            let m = Manager::build(&spec(name)).unwrap();
            assert_eq!(m.policy_name(), policy);
        }
        assert_eq!(
            Manager::build(&spec("static")).unwrap().epoch_len(),
            Manager::DEFAULT_EPOCH
        );
        assert_eq!(
            Manager::build(&spec("static:epoch=5000"))
                .unwrap()
                .epoch_len(),
            5000
        );
    }

    #[test]
    fn build_rejects_bad_specs() {
        assert!(matches!(
            Manager::build(&spec("puppeteer")),
            Err(ManagerError::UnknownPolicy { .. })
        ));
        assert!(matches!(
            Manager::build(&spec("static:epoch=0")),
            Err(ManagerError::InvalidParam { .. })
        ));
        assert!(matches!(
            Manager::build(&spec("static:bogus=1")),
            Err(ManagerError::InvalidParam { .. })
        ));
        assert!(matches!(
            Manager::build(&spec("throttle:accuracy_floor=yes")),
            Err(ManagerError::InvalidParam { .. })
        ));
    }

    #[test]
    fn tracker_deltas_cover_the_run_without_overlap() {
        let mut ledger = Ledger::default();
        let mut tracker = EpochTracker::new();
        let pc = Pc::new(7);
        let line = |i: u64| LineAddr::containing(imp_common::Addr::new(0x1000 + 64 * i));

        ledger.issue(0, line(0), pc, AccessClass::Stream, 0, 10);
        ledger.issue(0, line(1), pc, AccessClass::Stream, 0, 20);
        ledger.fill(0, line(0), 30);
        let fb0 = tracker.feedback(&ledger, 100, 1);
        assert_eq!(fb0.epoch, 0);
        assert_eq!((fb0.start, fb0.end), (0, 100));
        assert_eq!(fb0.total.issued, 2);
        assert_eq!(fb0.total.fills, 1);
        assert_eq!(fb0.tlb_prefetch_drops, 1);

        // Epoch 1: the line issued in epoch 0 is used now — the delta
        // credits it to this epoch without touching epoch 0's counts.
        ledger.fill(0, line(1), 110);
        ledger.first_use(0, line(0), 120);
        ledger.first_use(0, line(1), 130);
        let fb1 = tracker.feedback(&ledger, 200, 1);
        assert_eq!(fb1.epoch, 1);
        assert_eq!((fb1.start, fb1.end), (100, 200));
        assert_eq!(fb1.total.issued, 0);
        assert_eq!(fb1.total.used, 2);
        assert_eq!(fb1.tlb_prefetch_drops, 0);

        // Summed deltas equal the cumulative ledger.
        let mut sum = LedgerCounts::default();
        for fb in [&fb0, &fb1] {
            sum.issued += fb.total.issued;
            sum.fills += fb.total.fills;
            sum.used += fb.total.used;
            sum.late += fb.total.late;
            sum.evicted_unused += fb.total.evicted_unused;
        }
        assert_eq!(&sum, ledger.total());
        // Per-PC deltas reconcile too; all-zero PCs are omitted.
        assert_eq!(fb1.per_pc.len(), 1);
        assert_eq!(fb1.per_pc[0].0, pc);
    }
}
