//! Stock manager policies: `static`, `throttle`, and `tree`.

use imp_common::config::PrefetcherSpec;
use imp_common::Pc;
use imp_prefetch::{Control, Feedback};

use crate::tree::{DecisionTree, TreeAction};
use crate::{ManagerError, ManagerPolicy};

/// Requests nothing, ever. A `static`-managed run is bit-identical to
/// an unmanaged run — the golden pin the simulator's regression tests
/// hold the control plane to.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticPolicy;

impl ManagerPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn on_epoch(&mut self, _feedback: &Feedback) -> Control {
        Control::none()
    }
}

/// Accuracy-driven throttling with hysteresis.
///
/// When an epoch with meaningful volume (`issued >= min_issued`) shows
/// accuracy below `accuracy_floor`, the policy enters the throttled
/// state: the prefetch degree is capped at `degree` and (when `mask`
/// is on) PCs that issued at least `pc_min_issued` prefetches with
/// per-PC accuracy below the floor are masked outright. Masked PCs
/// accumulate while throttled (a masked PC issues nothing, so its
/// per-epoch stats go quiet — forgetting it would un-mask it the next
/// epoch and flip-flop). Once a meaningful epoch reaches `recover`
/// accuracy the state clears entirely. Low-volume epochs never change
/// state.
#[derive(Clone, Debug)]
pub struct ThrottlePolicy {
    accuracy_floor: f64,
    recover: f64,
    min_issued: u64,
    pc_min_issued: u64,
    degree: u32,
    mask: bool,
    throttled: bool,
    masked: Vec<Pc>,
}

impl ThrottlePolicy {
    /// The policy with the stock thresholds (throttle below 50%
    /// accuracy, recover at 70%, judge only epochs with ≥32 issues).
    pub fn new() -> Self {
        ThrottlePolicy {
            accuracy_floor: 0.5,
            recover: 0.7,
            min_issued: 32,
            pc_min_issued: 8,
            degree: 1,
            mask: true,
            throttled: false,
            masked: Vec::new(),
        }
    }

    /// Builds from a spec: `throttle:accuracy_floor=0.5,recover=0.7,
    /// min_issued=32,pc_min_issued=8,degree=1,mask=true,epoch=10000`.
    pub fn from_spec(spec: &PrefetcherSpec) -> Result<Self, ManagerError> {
        spec.reject_unknown_params(&[
            "epoch",
            "accuracy_floor",
            "recover",
            "min_issued",
            "pc_min_issued",
            "degree",
            "mask",
        ])?;
        let stock = ThrottlePolicy::new();
        let floor = spec.param_f64("accuracy_floor", stock.accuracy_floor)?;
        let recover = spec.param_f64("recover", stock.recover)?;
        if !(0.0..=1.0).contains(&floor) || !(0.0..=1.0).contains(&recover) || recover < floor {
            return Err(ManagerError::InvalidParam {
                policy: spec.name.clone(),
                param: "accuracy_floor".into(),
                reason: format!(
                    "need 0 <= accuracy_floor <= recover <= 1, got {floor} and {recover}"
                ),
            });
        }
        Ok(ThrottlePolicy {
            accuracy_floor: floor,
            recover,
            min_issued: spec.param_u64("min_issued", stock.min_issued)?,
            pc_min_issued: spec.param_u64("pc_min_issued", stock.pc_min_issued)?,
            degree: spec.param_u32("degree", stock.degree)?,
            mask: spec.param_bool("mask", stock.mask)?,
            throttled: false,
            masked: Vec::new(),
        })
    }

    /// Whether the policy is currently throttling.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }
}

impl Default for ThrottlePolicy {
    fn default() -> Self {
        ThrottlePolicy::new()
    }
}

impl ManagerPolicy for ThrottlePolicy {
    fn name(&self) -> &'static str {
        "throttle"
    }

    fn on_epoch(&mut self, feedback: &Feedback) -> Control {
        let meaningful = feedback.total.issued >= self.min_issued;
        let accuracy = feedback.accuracy();
        if meaningful {
            if !self.throttled && accuracy < self.accuracy_floor {
                self.throttled = true;
            } else if self.throttled && accuracy >= self.recover {
                self.throttled = false;
                self.masked.clear();
            }
        }
        if !self.throttled {
            return Control::none();
        }
        if self.mask {
            for (pc, c) in &feedback.per_pc {
                let low = c.issued >= self.pc_min_issued
                    && (c.used as f64) < self.accuracy_floor * c.issued as f64;
                if low && !self.masked.contains(pc) {
                    self.masked.push(*pc);
                }
            }
            self.masked.sort_unstable();
        }
        Control {
            degree_limit: Some(self.degree),
            masked_pcs: self.masked.clone(),
            ..Control::none()
        }
    }
}

/// Evaluates an offline-trained [`DecisionTree`] on each epoch's rate
/// features and maps the resulting [`TreeAction`] to a [`Control`].
///
/// * `pass` — no control.
/// * `limit<N>` — cap the degree at N.
/// * `depth<N>` — cap chained prefetching at hop N (the demote-deep
///   rule: when deep-hop accuracy collapses, keep the primary
///   indirect stream and drop the speculative chain behind it).
/// * `mask` — cap the degree *and* mask low-accuracy PCs (same
///   accumulation rule as [`ThrottlePolicy`]).
/// * `switch_stream` — request a switch to the plain `stream`
///   prefetcher (the paper-motivated demotion under TLB pressure:
///   indirect prefetches walk the TLB per element, so when drops
///   dominate, IMP's translations are wasted work).
///
/// A `pass` epoch clears any accumulated masks.
#[derive(Clone, Debug)]
pub struct TreePolicy {
    tree: DecisionTree,
    degree: u32,
    pc_min_issued: u64,
    masked: Vec<Pc>,
}

impl TreePolicy {
    /// Wraps a tree with the stock degree/mask thresholds.
    pub fn new(tree: DecisionTree) -> Self {
        TreePolicy {
            tree,
            degree: 1,
            pc_min_issued: 8,
            masked: Vec::new(),
        }
    }

    /// Builds from a spec: `tree:spec=(tlb<0.25?pass:switch_stream),
    /// degree=1,pc_min_issued=8,epoch=10000`. Without `spec=` the
    /// [`DecisionTree::paper_default`] tree is used.
    pub fn from_spec(spec: &PrefetcherSpec) -> Result<Self, ManagerError> {
        spec.reject_unknown_params(&["epoch", "spec", "degree", "pc_min_issued"])?;
        let tree = match spec.param_str("spec")? {
            None => DecisionTree::paper_default(),
            Some(s) => s
                .parse()
                .map_err(|reason: String| ManagerError::InvalidParam {
                    policy: spec.name.clone(),
                    param: "spec".into(),
                    reason,
                })?,
        };
        let stock = TreePolicy::new(tree);
        Ok(TreePolicy {
            degree: spec.param_u32("degree", stock.degree)?,
            pc_min_issued: spec.param_u64("pc_min_issued", stock.pc_min_issued)?,
            ..stock
        })
    }

    /// The decision tree this policy evaluates.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }
}

impl ManagerPolicy for TreePolicy {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn on_epoch(&mut self, feedback: &Feedback) -> Control {
        match self.tree.decide(feedback) {
            TreeAction::Pass => {
                self.masked.clear();
                Control::none()
            }
            TreeAction::Limit(n) => Control {
                degree_limit: Some(n),
                ..Control::none()
            },
            TreeAction::Depth(n) => Control {
                depth_limit: Some(n),
                ..Control::none()
            },
            TreeAction::Mask => {
                for (pc, c) in &feedback.per_pc {
                    let low = c.issued >= self.pc_min_issued && c.used * 2 < c.issued;
                    if low && !self.masked.contains(pc) {
                        self.masked.push(*pc);
                    }
                }
                self.masked.sort_unstable();
                Control {
                    degree_limit: Some(self.degree),
                    masked_pcs: self.masked.clone(),
                    ..Control::none()
                }
            }
            TreeAction::SwitchStream => Control {
                switch_to: Some(PrefetcherSpec::new("stream")),
                ..Control::none()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_obs::LedgerCounts;

    fn fb(issued: u64, used: u64, evicted: u64) -> Feedback {
        Feedback {
            total: LedgerCounts {
                issued,
                fills: used + evicted,
                used,
                late: 0,
                evicted_unused: evicted,
            },
            ..Feedback::default()
        }
    }

    #[test]
    fn static_policy_never_intervenes() {
        let mut p = StaticPolicy;
        assert!(p.on_epoch(&fb(1000, 0, 1000)).is_none());
    }

    #[test]
    fn throttle_has_hysteresis() {
        let mut p = ThrottlePolicy::new();
        // Healthy epoch: untouched.
        assert!(p.on_epoch(&fb(100, 90, 10)).is_none());
        // Accuracy collapses: throttled.
        let ctl = p.on_epoch(&fb(100, 10, 90));
        assert_eq!(ctl.degree_limit, Some(1));
        assert!(p.is_throttled());
        // Mid-band epoch (60%): stays throttled (floor 0.5 < 0.6 < 0.7).
        assert!(p.on_epoch(&fb(100, 60, 40)).degree_limit.is_some());
        // Recovery epoch: released.
        assert!(p.on_epoch(&fb(100, 80, 20)).is_none());
        assert!(!p.is_throttled());
    }

    #[test]
    fn throttle_ignores_idle_epochs() {
        let mut p = ThrottlePolicy::new();
        // Terrible accuracy but only 4 issues: not meaningful.
        assert!(p.on_epoch(&fb(4, 0, 4)).is_none());
        assert!(!p.is_throttled());
    }

    #[test]
    fn throttle_masks_accumulate_until_recovery() {
        let mut p = ThrottlePolicy::new();
        let mut bad = fb(100, 10, 90);
        bad.per_pc = vec![(
            Pc::new(7),
            LedgerCounts {
                issued: 50,
                fills: 50,
                used: 0,
                late: 0,
                evicted_unused: 50,
            },
        )];
        let ctl = p.on_epoch(&bad);
        assert_eq!(ctl.masked_pcs, vec![Pc::new(7)]);
        // Next epoch the masked PC is silent, but the mask persists.
        let ctl = p.on_epoch(&fb(100, 20, 80));
        assert_eq!(ctl.masked_pcs, vec![Pc::new(7)]);
        // Recovery clears it.
        let ctl = p.on_epoch(&fb(100, 90, 10));
        assert!(ctl.is_none());
    }

    #[test]
    fn tree_policy_demotes_deep_hops_when_hop2_accuracy_collapses() {
        let mut p = TreePolicy::new(DecisionTree::chain_default());
        let mut deep_miss = fb(100, 80, 20);
        deep_miss.per_hop[2] = LedgerCounts {
            issued: 40,
            fills: 40,
            used: 2,
            late: 0,
            evicted_unused: 38,
        };
        let ctl = p.on_epoch(&deep_miss);
        assert_eq!(ctl.depth_limit, Some(1));
        assert!(ctl.degree_limit.is_none(), "depth rule leaves degree alone");
        // Hop-2 healthy again: back to pass.
        let mut healthy = fb(100, 80, 20);
        healthy.per_hop[2] = LedgerCounts {
            issued: 40,
            fills: 40,
            used: 36,
            late: 2,
            evicted_unused: 2,
        };
        assert!(p.on_epoch(&healthy).is_none());
    }

    #[test]
    fn tree_policy_switches_under_tlb_pressure() {
        let mut p = TreePolicy::new(DecisionTree::paper_default());
        let mut pressured = fb(100, 80, 20);
        pressured.tlb_prefetch_drops = 100; // drop rate 0.5
        let ctl = p.on_epoch(&pressured);
        assert_eq!(ctl.switch_to, Some(PrefetcherSpec::new("stream")));
        // No pressure, healthy accuracy: pass.
        assert!(p.on_epoch(&fb(100, 80, 20)).is_none());
    }
}
