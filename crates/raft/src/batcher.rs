//! Batched leader `commitIndex` queries for ReadIndex follower reads.
//!
//! §5.1.3: "To minimize the overhead imposed on the leader, queries for the
//! commitIndex are batched." Concurrent follower-side readers coalesce into
//! one leader round trip: the first reader becomes the batch leader and
//! performs the query; readers that arrive while it is in flight wait for
//! it and share the *next* one. A commitIndex is a valid linearization
//! point for a reader only if it was read after the reader arrived — and a
//! fetch already in flight may have read its value before that, so its
//! result is never handed to a later arrival.

use parking_lot::{Condvar, Mutex};

#[derive(Default)]
struct State {
    /// Generation counter of completed fetches.
    generation: u64,
    /// Result of the last completed fetch.
    last_value: u64,
    /// Whether a fetch is in flight.
    fetching: bool,
}

/// Coalesces concurrent commit-index queries into shared fetches.
#[derive(Default)]
pub struct CommitIndexBatcher {
    state: Mutex<State>,
    cv: Condvar,
}

impl CommitIndexBatcher {
    /// Creates an idle batcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a commit index fetched after the caller's arrival, using
    /// `fetch` to perform the actual leader query. `fetch` is called by
    /// this thread when it becomes a batch leader, and skipped when another
    /// reader's fetch that *started* after this arrival completes first.
    pub fn query(&self, fetch: impl FnOnce() -> u64) -> u64 {
        let mut state = self.state.lock();
        // The first fetch to start from now on is the first one valid for
        // us; one already in flight will complete as `generation + 1`.
        let valid_from = state.generation + 1 + u64::from(state.fetching);
        loop {
            if state.generation >= valid_from {
                return state.last_value;
            }
            if !state.fetching {
                state.fetching = true;
                drop(state);
                let value = fetch();
                state = self.state.lock();
                state.fetching = false;
                state.generation += 1;
                state.last_value = value;
                self.cv.notify_all();
                return value;
            }
            self.cv.wait(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_caller_fetches() {
        let b = CommitIndexBatcher::new();
        assert_eq!(b.query(|| 42), 42);
        assert_eq!(b.query(|| 43), 43);
    }

    #[test]
    fn a_fetch_in_flight_is_not_shared_with_a_later_arrival() {
        let b = Arc::new(CommitIndexBatcher::new());
        // Staged: a fetch is in flight and has already read the value 1.
        b.state.lock().fetching = true;
        let late = {
            let b = b.clone();
            std::thread::spawn(move || b.query(|| 2))
        };
        // Give the late reader time to arrive behind the staged fetch. The
        // pause only gives a wrong batcher the chance to hand out 1; the
        // assertion holds on any schedule for a right one.
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let mut state = b.state.lock();
            state.fetching = false;
            state.generation += 1;
            state.last_value = 1;
            b.cv.notify_all();
        }
        assert_eq!(late.join().unwrap(), 2, "the reader ran a fetch of its own");
    }

    #[test]
    fn concurrent_callers_share_fetches() {
        let b = Arc::new(CommitIndexBatcher::new());
        let fetches = Arc::new(AtomicU64::new(0));
        // Instead of a timing sleep, the in-flight fetch holds itself open
        // until every thread has started querying, so the others provably
        // pile up behind it and share its result.
        let arrived = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (b, fetches, arrived) = (b.clone(), fetches.clone(), arrived.clone());
                std::thread::spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..20 {
                        let v = b.query(|| {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            while arrived.load(Ordering::SeqCst) < 16 {
                                std::thread::yield_now();
                            }
                            7
                        });
                        assert_eq!(v, 7);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = fetches.load(Ordering::SeqCst);
        assert!(
            n < 320,
            "expected batching, got {n} fetches for 320 queries"
        );
        assert!(n >= 1);
    }
}
