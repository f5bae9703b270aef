//! Channel faults beyond the paper's loss model: partitions, per-link
//! lag and stale replays.
//!
//! The paper's channel (Section 2.2) drops each copy independently and
//! delivers survivors within `Thop` over a static unit-disk graph. The
//! chaos layer goes further, towards the arbitrary-delay, drop-prone
//! channels of the ◇P literature: it splits the field into partition
//! groups, slows individual directed links, and replays copies late.
//! [`ChannelFaults`] is the one owner of that state for every engine
//! (the legacy [`Simulator`](crate::sim::Simulator), the canonical
//! reference and the tiled engine). It answers three per-copy
//! questions — is the copy blocked, how much extra lag does its link
//! carry, is it duplicated — and each engine keeps its own transmit
//! loop around them.
//!
//! # Draw-order contract
//!
//! Every transmit loop asks, per offered copy and in this order:
//! `blocks` (before any loss draw — a blocked copy consumes no
//! randomness), the loss draw, the delay draw, the lag of the sender's
//! `lag_run`, then `duplicate`, which draws nothing while the
//! duplication probability is `0.0`. Healing a partition or switching
//! duplication off therefore restores the exact random stream of a
//! fault-free run.

use crate::checkpoint::{CheckpointError, Persist, Reader, Writer};
use crate::id::NodeId;
use crate::time::SimDuration;
use rand::{Rng, RngExt};

/// Partition groups, directed link lag and duplication of one engine.
///
/// Setters take effect from the next transmission; copies already in
/// flight keep their outcome.
#[derive(Debug)]
pub struct ChannelFaults {
    /// Population size, fixed at construction (not persisted: every
    /// engine knows it from its topology).
    nodes: usize,
    /// Optional partition: group id per node. Copies between different
    /// groups are dropped at transmit time.
    partition: Option<Vec<u32>>,
    /// Extra delivery delay per directed link, strictly ascending by
    /// `(from, to)`. A sorted vec instead of a tree map so a transmit
    /// loop can take the sender's contiguous run once per transmission
    /// ([`ChannelFaults::lag_run`]) and probe only that (usually empty)
    /// slice per copy.
    link_lag: Vec<(NodeId, NodeId, SimDuration)>,
    /// Probability that a surviving copy is duplicated.
    dup_probability: f64,
    /// Extra delay of the duplicated (stale) copy.
    dup_lag: SimDuration,
}

impl ChannelFaults {
    /// No faults over a population of `nodes`.
    pub(crate) fn new(nodes: usize) -> Self {
        ChannelFaults {
            nodes,
            partition: None,
            link_lag: Vec::new(),
            dup_probability: 0.0,
            dup_lag: SimDuration::ZERO,
        }
    }

    /// Imposes a network partition: `group_of[i]` is the partition
    /// group of node `i`, and every copy offered across group
    /// boundaries is dropped (counted and traced as a channel loss).
    ///
    /// # Panics
    ///
    /// Panics unless `group_of` has one entry per node.
    pub fn set_partition(&mut self, group_of: Vec<u32>) {
        assert_eq!(
            group_of.len(),
            self.nodes,
            "partition must assign a group to every node"
        );
        self.partition = Some(group_of);
    }

    /// Heals any partition imposed by [`ChannelFaults::set_partition`].
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Adds `extra` delivery delay to every copy travelling over the
    /// directed link `from → to`. Replaces any previous lag on that
    /// link.
    pub fn set_link_lag(&mut self, from: NodeId, to: NodeId, extra: SimDuration) {
        match self.find_lag(from, to) {
            Ok(i) => self.link_lag[i].2 = extra,
            Err(i) => self.link_lag.insert(i, (from, to, extra)),
        }
    }

    /// Removes the lag on the directed link `from → to`, if any.
    pub fn remove_link_lag(&mut self, from: NodeId, to: NodeId) {
        if let Ok(i) = self.find_lag(from, to) {
            self.link_lag.remove(i);
        }
    }

    /// Duplicates each surviving copy with probability `probability`,
    /// delivering the duplicate `lag` later than the original — a
    /// stale-replay fault the paper's channel model excludes. A
    /// probability of `0.0` disables the feature and leaves the
    /// transmit path's random stream untouched.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn set_duplication(&mut self, probability: f64, lag: SimDuration) {
        assert!(
            (0.0..=1.0).contains(&probability),
            "duplication probability must be in [0, 1]"
        );
        self.dup_probability = probability;
        self.dup_lag = lag;
    }

    fn find_lag(&self, from: NodeId, to: NodeId) -> Result<usize, usize> {
        self.link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
    }

    /// Whether the partition drops every copy `from → to`. Consumes no
    /// randomness; asked before the loss draw.
    #[inline]
    pub(crate) fn blocks(&self, from: NodeId, to: NodeId) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|g| g[from.index()] != g[to.index()])
    }

    /// The lag entries of sender `from`, found once per transmission.
    #[inline]
    pub(crate) fn lag_run(&self, from: NodeId) -> LagRun<'_> {
        let lo = self.link_lag.partition_point(|&(f, _, _)| f < from);
        let hi = lo + self.link_lag[lo..].partition_point(|&(f, _, _)| f == from);
        LagRun(&self.link_lag[lo..hi])
    }

    /// The duplication draw for one surviving copy: the duplicate's
    /// extra delay if the copy is replayed. Draws nothing from `rng`
    /// at probability `0.0`.
    #[inline]
    pub(crate) fn duplicate<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SimDuration> {
        (self.dup_probability > 0.0 && rng.random_bool(self.dup_probability))
            .then_some(self.dup_lag)
    }

    /// Writes the four fault fields (partition, link lag, duplication
    /// probability, duplication lag) in that order.
    pub(crate) fn persist(&self, w: &mut Writer) {
        self.partition.persist(w);
        self.link_lag.persist(w);
        self.dup_probability.persist(w);
        self.dup_lag.persist(w);
    }

    /// Reads what [`ChannelFaults::persist`] wrote for a population of
    /// `nodes`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the partition does not cover
    /// exactly `nodes` nodes, the duplication probability lies outside
    /// `[0, 1]`, or the link-lag table is not strictly ascending by
    /// `(from, to)` (every lookup assumes it is).
    pub(crate) fn restore(r: &mut Reader<'_>, nodes: usize) -> Result<Self, CheckpointError> {
        let partition: Option<Vec<u32>> = Option::restore(r)?;
        let link_lag: Vec<(NodeId, NodeId, SimDuration)> = Vec::restore(r)?;
        let dup_probability = f64::restore(r)?;
        let dup_lag = SimDuration::restore(r)?;
        if partition.as_ref().is_some_and(|g| g.len() != nodes) {
            return Err(CheckpointError::Corrupt("population size mismatch"));
        }
        if !(0.0..=1.0).contains(&dup_probability) {
            return Err(CheckpointError::Corrupt(
                "duplication probability out of range",
            ));
        }
        if link_lag
            .windows(2)
            .any(|p| (p[0].0, p[0].1) >= (p[1].0, p[1].1))
        {
            return Err(CheckpointError::Corrupt("link lag table out of order"));
        }
        Ok(ChannelFaults {
            nodes,
            partition,
            link_lag,
            dup_probability,
            dup_lag,
        })
    }
}

/// One sender's directed-lag entries, sorted by receiver (see
/// [`ChannelFaults::lag_run`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LagRun<'a>(&'a [(NodeId, NodeId, SimDuration)]);

impl LagRun<'_> {
    /// The extra delay the sender's link to `to` adds (zero for an
    /// unlagged link).
    #[inline]
    pub(crate) fn extra(&self, to: NodeId) -> SimDuration {
        match self.0.binary_search_by_key(&to, |&(_, t, _)| t) {
            Ok(i) => self.0[i].2,
            Err(_) => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MS: SimDuration = SimDuration::from_millis(1);

    fn bytes_of(faults: &ChannelFaults) -> Vec<u8> {
        let mut w = Writer::new();
        faults.persist(&mut w);
        w.into_bytes()
    }

    #[test]
    fn set_link_lag_replaces_and_remove_of_absent_link_is_a_no_op() {
        let mut f = ChannelFaults::new(3);
        f.set_link_lag(NodeId(0), NodeId(1), MS);
        f.set_link_lag(NodeId(0), NodeId(1), MS * 5);
        assert_eq!(f.link_lag, vec![(NodeId(0), NodeId(1), MS * 5)]);
        assert_eq!(f.lag_run(NodeId(0)).extra(NodeId(1)), MS * 5);
        f.remove_link_lag(NodeId(1), NodeId(2));
        f.remove_link_lag(NodeId(1), NodeId(0));
        assert_eq!(f.link_lag, vec![(NodeId(0), NodeId(1), MS * 5)]);
    }

    #[test]
    fn link_lag_is_directed() {
        let mut f = ChannelFaults::new(3);
        f.set_link_lag(NodeId(0), NodeId(1), MS * 7);
        assert_eq!(f.lag_run(NodeId(0)).extra(NodeId(1)), MS * 7);
        assert_eq!(f.lag_run(NodeId(1)).extra(NodeId(0)), SimDuration::ZERO);
        assert_eq!(f.lag_run(NodeId(0)).extra(NodeId(2)), SimDuration::ZERO);
    }

    #[test]
    fn partition_blocks_only_pairs_in_different_groups() {
        let mut f = ChannelFaults::new(4);
        assert!(!f.blocks(NodeId(0), NodeId(1)));
        f.set_partition(vec![0, 0, 1, 1]);
        assert!(!f.blocks(NodeId(0), NodeId(1)));
        assert!(!f.blocks(NodeId(3), NodeId(2)));
        assert!(f.blocks(NodeId(1), NodeId(2)));
        assert!(f.blocks(NodeId(2), NodeId(1)));
        f.clear_partition();
        assert!(!f.blocks(NodeId(1), NodeId(2)));
    }

    #[test]
    fn duplication_at_zero_draws_nothing_and_at_one_always_duplicates() {
        let mut f = ChannelFaults::new(2);
        let mut rng = StdRng::seed_from_u64(11);
        let untouched = rng.clone();
        for _ in 0..100 {
            assert_eq!(f.duplicate(&mut rng), None);
        }
        assert_eq!(rng, untouched, "probability 0 must not advance the stream");
        f.set_duplication(1.0, MS * 3);
        for _ in 0..100 {
            assert_eq!(f.duplicate(&mut rng), Some(MS * 3));
        }
    }

    #[test]
    #[should_panic(expected = "partition must assign a group to every node")]
    fn set_partition_rejects_wrong_length() {
        ChannelFaults::new(3).set_partition(vec![0, 1]);
    }

    #[test]
    fn persist_restore_round_trip_is_byte_exact() {
        let mut f = ChannelFaults::new(3);
        f.set_partition(vec![2, 0, 2]);
        f.set_link_lag(NodeId(2), NodeId(0), MS);
        f.set_link_lag(NodeId(0), NodeId(2), MS * 2);
        f.set_duplication(0.25, MS * 4);
        let bytes = bytes_of(&f);
        let back = ChannelFaults::restore(&mut Reader::new(&bytes), 3).unwrap();
        assert_eq!(bytes_of(&back), bytes);
        assert!(ChannelFaults::restore(&mut Reader::new(&bytes), 4).is_err());
    }
}
