//! Reference-model property test: the inline-record [`Directory`] must
//! track exactly what a plain `Vec`-per-line ACKwise directory tracks,
//! and list invalidation targets in the same order (the order of `Inv`
//! sends decides NoC link reservations, so it is part of the timing).

use imp_coherence::{DirState, Directory, InvTargets, SharerSet, MAX_SHARERS};
use imp_common::{FastMap, LineAddr};
use proptest::prelude::*;

/// ACKwise state of one line, with sharers in a `Vec`.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RefState {
    Precise(Vec<u32>),
    Overflow { count: u32 },
    Modified(u32),
}

/// Invalidation targets, with precise targets in a `Vec`.
#[derive(Debug, PartialEq, Eq)]
enum RefTargets {
    None,
    Precise(Vec<u32>),
    Broadcast,
}

/// The straightforward limited-pointer directory: one heap-allocated
/// sharer list per tracked line; absent lines are Uncached.
struct RefDirectory {
    k: usize,
    cores: u32,
    entries: FastMap<LineAddr, RefState>,
}

impl RefDirectory {
    fn new(k: usize, cores: u32) -> Self {
        RefDirectory {
            k,
            cores,
            entries: FastMap::default(),
        }
    }

    fn add_sharer(&mut self, line: LineAddr, core: u32) {
        let Some(e) = self.entries.get_mut(&line) else {
            self.entries.insert(line, RefState::Precise(vec![core]));
            return;
        };
        match e {
            RefState::Precise(v) => {
                if !v.contains(&core) {
                    v.push(core);
                    if v.len() > self.k {
                        let count = v.len() as u32;
                        *e = RefState::Overflow { count };
                    }
                }
            }
            RefState::Overflow { count } => *count = (*count + 1).min(self.cores),
            RefState::Modified(owner) => {
                // Downgrade path: owner plus the new reader share.
                let mut v = vec![*owner];
                if *owner != core {
                    v.push(core);
                }
                *e = RefState::Precise(v);
            }
        }
    }

    fn set_modified(&mut self, line: LineAddr, core: u32) {
        self.entries.insert(line, RefState::Modified(core));
    }

    fn remove(&mut self, line: LineAddr, core: u32) {
        let Some(e) = self.entries.get_mut(&line) else {
            return;
        };
        let emptied = match e {
            RefState::Precise(v) => {
                v.retain(|&c| c != core);
                v.is_empty()
            }
            RefState::Overflow { count } => {
                *count = count.saturating_sub(1);
                *count == 0
            }
            RefState::Modified(o) => *o == core,
        };
        if emptied {
            self.entries.remove(&line);
        }
    }

    fn clear(&mut self, line: LineAddr) {
        self.entries.remove(&line);
    }

    fn invalidation_targets(&self, line: LineAddr, exclude: Option<u32>) -> RefTargets {
        let targets: Vec<u32> = match self.entries.get(&line) {
            None => Vec::new(),
            Some(RefState::Modified(o)) => vec![*o],
            Some(RefState::Precise(v)) => v.clone(),
            Some(RefState::Overflow { .. }) => return RefTargets::Broadcast,
        };
        let t: Vec<u32> = targets
            .into_iter()
            .filter(|&c| Some(c) != exclude)
            .collect();
        if t.is_empty() {
            RefTargets::None
        } else {
            RefTargets::Precise(t)
        }
    }
}

fn state_view(s: DirState) -> Option<RefState> {
    match s {
        DirState::Uncached => None,
        DirState::Shared(SharerSet::Precise(v)) => Some(RefState::Precise(v.iter().collect())),
        DirState::Shared(SharerSet::Overflow { count }) => Some(RefState::Overflow { count }),
        DirState::Modified(o) => Some(RefState::Modified(o)),
    }
}

fn targets_view(t: InvTargets) -> RefTargets {
    match t {
        InvTargets::None => RefTargets::None,
        InvTargets::Precise(v) => RefTargets::Precise(v.iter().collect()),
        InvTargets::Broadcast => RefTargets::Broadcast,
    }
}

proptest! {
    #[test]
    fn inline_directory_matches_vec_reference(
        k in 1usize..MAX_SHARERS + 1,
        cores_pick in 0usize..3,
        script in proptest::collection::vec((0u8..6, 0u64..3, 0u32..64), 1..120),
    ) {
        let cores = [4u32, 16, 64][cores_pick];
        let mut dir = Directory::new(k, cores);
        let mut reference = RefDirectory::new(k, cores);
        for (op, l, c) in script {
            let line = LineAddr::from_line_number(l);
            let core = c % cores;
            match op {
                0 | 1 => {
                    dir.add_sharer(line, core);
                    reference.add_sharer(line, core);
                }
                2 => {
                    dir.set_modified(line, core);
                    reference.set_modified(line, core);
                }
                3 => {
                    dir.remove(line, core);
                    reference.remove(line, core);
                }
                4 => {
                    dir.clear(line);
                    reference.clear(line);
                }
                _ => {
                    let exclude = (c % 2 == 0).then_some(core);
                    prop_assert_eq!(
                        targets_view(dir.invalidation_targets(line, exclude)),
                        reference.invalidation_targets(line, exclude)
                    );
                }
            }
            for l in 0..3 {
                let line = LineAddr::from_line_number(l);
                prop_assert_eq!(
                    state_view(dir.state(line)),
                    reference.entries.get(&line).cloned()
                );
                prop_assert_eq!(
                    targets_view(dir.invalidation_targets(line, None)),
                    reference.invalidation_targets(line, None)
                );
            }
            prop_assert_eq!(dir.tracked_lines(), reference.entries.len());
        }
    }
}
