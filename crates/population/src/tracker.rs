//! Incremental correctness detection for the ranking problem.
//!
//! A configuration is correct for ranking when each rank in `{1, …, n}` is
//! output by exactly one agent (Sec. 2 of the paper). Checking that from
//! scratch costs O(n) per interaction; [`RankTracker`] instead maintains a
//! rank histogram and a count of "good" ranks, updated in O(1) when an
//! agent's output changes, so stabilization times can be measured exactly
//! even for the Θ(n²)-time baseline at large `n`.

use crate::protocol::RankingProtocol;

/// Histogram of rank outputs with an O(1) correctness predicate.
#[derive(Debug, Clone)]
pub struct RankTracker {
    /// `counts[r-1]` = number of agents currently outputting rank `r`.
    counts: Vec<u32>,
    /// Number of ranks `r` with `counts[r-1] == 1`.
    ranks_with_one: usize,
    /// Number of tracked agents (including those outputting `None`).
    agents: usize,
}

impl RankTracker {
    /// Creates a tracker for ranks `1..=n` with no agents registered yet.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ranking is undefined for an empty population");
        RankTracker { counts: vec![0; n], ranks_with_one: 0, agents: 0 }
    }

    /// The rank histogram of `protocol`'s ranks `1..=n` over `(state,
    /// agents)` pairs: an agent array passes each agent with count 1, the
    /// count backend each occupied state with its count. Every tracker
    /// rebuild goes through here.
    ///
    /// # Panics
    ///
    /// Panics if the protocol is configured for `n == 0` or reports a rank
    /// outside `1..=n`.
    pub(crate) fn from_counts<'a, P: RankingProtocol>(
        protocol: &P,
        counts: impl IntoIterator<Item = (&'a P::State, u64)>,
    ) -> Self
    where
        P::State: 'a,
    {
        let mut tracker = RankTracker::new(protocol.population_size());
        for (state, k) in counts {
            tracker.add_many(protocol.rank_of(state), k);
        }
        tracker
    }

    /// The number of ranks tracked (`n`).
    pub fn rank_count(&self) -> usize {
        self.counts.len()
    }

    /// The number of registered agents, including those outputting `None`.
    pub(crate) fn agents(&self) -> usize {
        self.agents
    }

    /// Registers one agent's initial output.
    ///
    /// # Panics
    ///
    /// Panics if a rank is outside `1..=n`.
    pub fn add(&mut self, rank: Option<usize>) {
        self.agents += 1;
        if let Some(r) = rank {
            self.bump(r, 1);
        }
    }

    /// Registers `k` agents that all share the same output — the count-based
    /// backend's bulk registration, making tracker rebuilds O(support)
    /// instead of O(n).
    ///
    /// # Panics
    ///
    /// Panics if a rank is outside `1..=n` or the count overflows `u32`.
    pub fn add_many(&mut self, rank: Option<usize>, k: u64) {
        if k == 0 {
            return;
        }
        self.agents += usize::try_from(k).expect("agent count overflows usize");
        if let Some(r) = rank {
            assert!(
                (1..=self.counts.len()).contains(&r),
                "rank {r} outside 1..={}",
                self.counts.len()
            );
            let slot = &mut self.counts[r - 1];
            if *slot == 1 {
                self.ranks_with_one -= 1;
            }
            *slot = u32::try_from(u64::from(*slot) + k).expect("rank count overflows u32");
            if *slot == 1 {
                self.ranks_with_one += 1;
            }
        }
    }

    /// Records that one agent's output changed from `before` to `after`.
    ///
    /// Calling with `before == after` is a no-op, so callers may report all
    /// interacting agents unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if a rank is outside `1..=n`.
    pub fn update(&mut self, before: Option<usize>, after: Option<usize>) {
        if before == after {
            return;
        }
        if let Some(r) = before {
            self.bump(r, -1);
        }
        if let Some(r) = after {
            self.bump(r, 1);
        }
    }

    fn bump(&mut self, rank: usize, delta: i32) {
        assert!(
            (1..=self.counts.len()).contains(&rank),
            "rank {rank} outside 1..={}",
            self.counts.len()
        );
        let slot = &mut self.counts[rank - 1];
        if *slot == 1 {
            self.ranks_with_one -= 1;
        }
        *slot = slot
            .checked_add_signed(delta)
            .expect("rank count underflow: update() called with a rank the agent did not hold");
        if *slot == 1 {
            self.ranks_with_one += 1;
        }
    }

    /// Number of agents currently outputting rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside `1..=n`.
    pub fn count_of(&self, r: usize) -> u32 {
        assert!((1..=self.counts.len()).contains(&r));
        self.counts[r - 1]
    }

    /// Number of ranks `r` with exactly one agent outputting `r` — the
    /// macroscopic "progress toward a permutation" observable recorded by
    /// [`crate::timeline`] checkpoints. Equals `rank_count()` exactly when
    /// [`RankTracker::is_correct`] holds.
    pub fn ranks_with_one(&self) -> usize {
        self.ranks_with_one
    }

    /// Whether every rank `1..=n` is output by exactly one agent.
    ///
    /// Note this implies all `n` agents output a rank (the histogram total
    /// equals the number of registered agents when they do).
    pub fn is_correct(&self) -> bool {
        self.ranks_with_one == self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty population")]
    fn zero_population_is_rejected() {
        RankTracker::new(0);
    }

    #[test]
    fn empty_tracker_is_incorrect() {
        let t = RankTracker::new(3);
        assert!(!t.is_correct());
    }

    #[test]
    fn permutation_is_correct() {
        let mut t = RankTracker::new(4);
        for r in [3, 1, 4, 2] {
            t.add(Some(r));
        }
        assert!(t.is_correct());
    }

    #[test]
    fn none_outputs_leave_ranks_uncovered() {
        let mut t = RankTracker::new(2);
        t.add(Some(1));
        t.add(None);
        assert!(!t.is_correct());
        t.update(None, Some(2));
        assert!(t.is_correct());
    }

    #[test]
    fn duplicate_rank_is_incorrect_until_resolved() {
        let mut t = RankTracker::new(2);
        t.add(Some(1));
        t.add(Some(1));
        assert!(!t.is_correct());
        t.update(Some(1), Some(2));
        assert!(t.is_correct());
        assert_eq!(t.count_of(1), 1);
        assert_eq!(t.count_of(2), 1);
    }

    #[test]
    fn update_with_equal_ranks_is_noop() {
        let mut t = RankTracker::new(2);
        t.add(Some(1));
        t.add(Some(2));
        t.update(Some(1), Some(1));
        assert!(t.is_correct());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_unheld_rank_panics() {
        let mut t = RankTracker::new(2);
        t.update(Some(1), None);
    }

    #[test]
    #[should_panic(expected = "outside 1..=3")]
    fn out_of_range_rank_panics() {
        let mut t = RankTracker::new(3);
        t.add(Some(4));
    }

    #[test]
    fn add_many_matches_repeated_add() {
        let mut bulk = RankTracker::new(3);
        bulk.add_many(Some(1), 2);
        bulk.add_many(Some(2), 1);
        bulk.add_many(None, 3);
        bulk.add_many(Some(3), 0);
        let mut single = RankTracker::new(3);
        for r in [Some(1), Some(1), Some(2), None, None, None] {
            single.add(r);
        }
        assert_eq!(bulk.count_of(1), single.count_of(1));
        assert_eq!(bulk.count_of(2), single.count_of(2));
        assert_eq!(bulk.count_of(3), single.count_of(3));
        assert_eq!(bulk.is_correct(), single.is_correct());
        // Bulk-added duplicates resolve through updates just like singles.
        bulk.update(Some(1), Some(3));
        assert_eq!(bulk.count_of(1), 1);
        assert_eq!(bulk.count_of(3), 1);
    }

    #[test]
    fn ranks_with_one_counts_good_ranks() {
        let mut t = RankTracker::new(3);
        assert_eq!(t.ranks_with_one(), 0);
        t.add(Some(1));
        t.add(Some(1));
        t.add(Some(3));
        assert_eq!(t.ranks_with_one(), 1);
        t.update(Some(1), Some(2));
        assert_eq!(t.ranks_with_one(), 3);
        assert!(t.is_correct());
    }

    #[test]
    fn interleaved_updates_track_exactly() {
        let mut t = RankTracker::new(3);
        t.add(Some(1));
        t.add(Some(1));
        t.add(Some(1));
        assert_eq!(t.count_of(1), 3);
        t.update(Some(1), Some(2));
        t.update(Some(1), Some(3));
        assert!(t.is_correct());
        t.update(Some(3), Some(2));
        assert!(!t.is_correct());
        assert_eq!(t.count_of(2), 2);
        t.update(Some(2), Some(3));
        assert!(t.is_correct());
    }
}
