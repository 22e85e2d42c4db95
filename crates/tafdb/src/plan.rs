//! A transaction's plan: its ops, routed.
//!
//! The plan is one flat list of `Copy` [`Step`]s — which shard runs which
//! op, and how — over the caller's op slice. Nothing is copied out of the
//! ops: what a step locks, writes and unlocks is read back from the op it
//! names, at prepare, at commit and on abort alike. Steps of one shard are
//! kept adjacent, shards in first-touch order, so a shard's share of the
//! plan is a sub-slice ([`Steps::groups`]).

use mantle_types::InodeId;

/// How a shard executes the op a [`Step`] names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum How {
    /// As written, on the op's owner shard.
    Plain,
    /// A hot-directory `AttrUpdate`: append a delta record here, under a
    /// shared fence lock on the base attribute row at its owner.
    Hot,
    /// The attribute-row `Delete` of an rmdir, on a region owner *other*
    /// than the base row's: retire this shard's delta records of the
    /// directory.
    Purge,
}

/// One routed op: `ops[op]` runs on `shard`, `how`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    pub shard: usize,
    pub op: usize,
    pub how: How,
}

/// Steps held inline; a longer plan spills to the heap.
const INLINE: usize = 8;

/// The step list: inline up to [`INLINE`] steps (every transaction the
/// services issue), a `Vec` past that.
#[derive(Debug)]
pub(crate) struct Steps {
    len: usize,
    inline: [Step; INLINE],
    spill: Vec<Step>,
}

impl Steps {
    pub(crate) fn new() -> Self {
        let unset = Step {
            shard: 0,
            op: 0,
            how: How::Plain,
        };
        Steps {
            len: 0,
            inline: [unset; INLINE],
            spill: Vec::new(),
        }
    }

    pub(crate) fn as_slice(&self) -> &[Step] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Adds `step` after the last step of its shard (at the end when it is
    /// the shard's first): op order within a shard, first-touch order
    /// between shards.
    pub(crate) fn push(&mut self, step: Step) {
        let steps = self.as_slice();
        let at = steps
            .iter()
            .rposition(|s| s.shard == step.shard)
            .map_or(steps.len(), |last| last + 1);
        if self.spill.is_empty() && self.len < INLINE {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = step;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.insert(at, step);
        }
    }

    /// Each shard's run of steps, in first-touch order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &[Step]> {
        self.as_slice().chunk_by(|a, b| a.shard == b.shard)
    }
}

/// What a prepare acquired that its steps cannot name again: everything
/// else a transaction holds is re-derived from the steps. Both lists stay
/// unallocated unless a hot directory's region is split across shards or
/// an rmdir finds delta records on a non-base region owner.
#[derive(Debug, Default)]
pub(crate) struct Extras {
    /// Hot-append fences held at *another* shard's lock manager, as
    /// `(step's shard, lock's shard, directory)`: the fence on the base
    /// attribute row lives at the base owner even when the delta record
    /// routes elsewhere. Modeled as a colocated lock service, so acquiring
    /// one costs no extra RPC.
    pub remote_fences: Vec<(usize, usize, InodeId)>,
    /// Delta records a `Purge` step found and locked, as `(shard, key)`.
    pub purged: Vec<(usize, mantle_store::RowKey)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(shard: usize, op: usize) -> Step {
        Step {
            shard,
            op,
            how: How::Plain,
        }
    }

    fn routed(steps: &Steps) -> Vec<(usize, usize)> {
        steps.as_slice().iter().map(|s| (s.shard, s.op)).collect()
    }

    #[test]
    fn steps_group_by_shard_in_first_touch_order() {
        let mut steps = Steps::new();
        for (op, shard) in [3, 1, 3, 2, 1].into_iter().enumerate() {
            steps.push(step(shard, op));
        }
        assert_eq!(routed(&steps), [(3, 0), (3, 2), (1, 1), (1, 4), (2, 3)]);
        let groups: Vec<usize> = steps.groups().map(|g| g.len()).collect();
        assert_eq!(groups, [2, 2, 1]);
    }

    #[test]
    fn a_long_plan_spills_and_keeps_its_order() {
        let mut steps = Steps::new();
        let mut want = Vec::new();
        for op in 0..3 * INLINE {
            steps.push(step(op % 3, op));
            assert_eq!(steps.as_slice().len(), op + 1);
        }
        for shard in 0..3 {
            want.extend(
                (0..3 * INLINE)
                    .filter(|op| op % 3 == shard)
                    .map(|op| (shard, op)),
            );
        }
        assert_eq!(routed(&steps), want);
        assert_eq!(steps.groups().count(), 3);
    }
}
