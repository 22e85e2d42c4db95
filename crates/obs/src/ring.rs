//! The bounded ring both retention policies of the op recorder share: the
//! sampled-trace ring and a flight recorder's slow-op ring.

use std::collections::VecDeque;

use crate::metrics::Counter;

/// A bounded FIFO. Pushing into a full ring evicts the oldest item and
/// counts the eviction into the ring's [`Counter`].
pub(crate) struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    evicted: Counter,
}

impl<T: Clone> Ring<T> {
    pub(crate) fn new(capacity: usize, evicted: Counter) -> Self {
        Ring {
            items: VecDeque::with_capacity(capacity),
            capacity,
            evicted,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.evicted.inc();
        }
        self.items.push_back(item);
    }

    /// Every retained item, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Clones up to `n` of the newest items, newest last.
    pub(crate) fn recent(&self, n: usize) -> Vec<T> {
        let skip = self.items.len().saturating_sub(n);
        self.iter().skip(skip).cloned().collect()
    }

    /// Empties the ring, returning up to `n` of the newest items, newest
    /// last. What is older is discarded and not counted as evicted: the
    /// caller chose to skip it.
    pub(crate) fn drain(&mut self, n: usize) -> Vec<T> {
        let skip = self.items.len().saturating_sub(n);
        self.items.drain(..).skip(skip).collect()
    }

    /// Items evicted unread by [`Ring::push`].
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_counted_recent_keeps_and_drain_empties() {
        let mut ring = Ring::new(2, Counter::default());
        for i in 1..=5 {
            ring.push(i);
        }
        assert_eq!(ring.evicted(), 3, "three pushes found the ring full");

        assert_eq!(ring.recent(8), vec![4, 5], "newest last");
        assert_eq!(ring.recent(1), vec![5]);
        assert_eq!(ring.recent(8), vec![4, 5], "recent is non-destructive");

        assert_eq!(ring.drain(1), vec![5]);
        assert!(ring.recent(8).is_empty(), "drain empties the whole ring");
        assert_eq!(ring.evicted(), 3, "skipped by the caller is not evicted");
    }
}
