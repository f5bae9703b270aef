//! The discrete-event queue: a hierarchical calendar queue.
//!
//! # Ordering contract
//!
//! Events are ordered by `(time, sequence)`: ties at the same virtual
//! instant are broken by **insertion order**, which makes every
//! simulation run fully deterministic for a given seed. This contract
//! is load-bearing — the thread-count-invariance and golden-value
//! suites pin byte-identical outputs to it — and is enforced by the
//! property tests in `tests/event_properties.rs` against a
//! `BinaryHeap` reference model.
//!
//! # Structure
//!
//! The queue is a two-tier **calendar queue** tuned for the paper's
//! broadcast-dominated workload, where almost every scheduled event is
//! a message delivery a few hundred microseconds to a few milliseconds
//! in the future:
//!
//! * a **ring of [`SLOT_COUNT`] one-microsecond buckets** covering the
//!   near future `[base, base + SLOT_COUNT)`. Because each bucket holds
//!   exactly one virtual instant, a bucket is a plain FIFO list —
//!   insertion order *is* sequence order — so schedule and pop are
//!   amortized O(1). Buckets are singly-linked lists threaded through a
//!   recycled entry pool (no per-event allocation in steady state), and
//!   a two-level **hierarchical bitmap** (one bit per bucket, one
//!   summary bit per 64 buckets) finds the next occupied bucket with a
//!   handful of word scans instead of walking empty buckets;
//! * a **`BinaryHeap` overflow tier** for events beyond the ring's
//!   horizon (far-future timers such as multi-second heartbeat
//!   intervals) and for the rare event scheduled before `base` (the
//!   public API permits scheduling in the "past" relative to the last
//!   pop; the simulator itself never does).
//!
//! `pop` is a two-way merge of the ring's earliest bucket and the heap
//! top by `(time, sequence)`, so an event's tier never affects its
//! order. The ring's `base` only advances (to each popped event's
//! time); entries keep their bucket across advances because bucket
//! indices are computed relative to `(base, cursor)`.

use crate::id::NodeId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M> {
    /// Delivery of message `msg` from `from` to `to`.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// A timer set by `node` fires with the actor-chosen `token`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Actor-defined discriminator.
        token: u64,
        /// Simulator-assigned instance stamp (the simulator packs a
        /// timer-slab slot and generation in here so that cancellation
        /// is exact; opaque at this layer).
        id: u64,
    },
    /// Fail-stop crash of `node`.
    Crash {
        /// Crashing node.
        node: NodeId,
    },
    /// First activation of a dormant (not-yet-started) `node`.
    Join {
        /// Joining node.
        node: NodeId,
    },
    /// Graceful, announced withdrawal of `node` (no failure).
    Leave {
        /// Leaving node.
        node: NodeId,
    },
    /// Reactivation of a crashed or departed `node`, carrying whatever
    /// stale state it had when it went down.
    Rejoin {
        /// Rejoining node.
        node: NodeId,
    },
}

#[derive(Debug)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, then the lowest sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of one-microsecond buckets in the calendar ring (131 ms of
/// horizon): wide enough for every radio delivery delay, the FDS
/// `Thop`-scale round timers, *and* the ~100 ms epoch/heartbeat
/// intervals of every protocol in the workspace; only seconds-scale
/// timers overflow to the heap tier. Costs ~1 MiB per queue, which a
/// simulation instance amortizes over its whole run.
pub const SLOT_COUNT: usize = 1 << 17;

/// Sentinel for "no entry" in the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// One pooled event in a ring bucket. `kind` is `None` only while the
/// entry sits on the free list.
#[derive(Debug)]
struct Entry<M> {
    at: SimTime,
    seq: u64,
    kind: Option<EventKind<M>>,
    next: u32,
}

/// A deterministic priority queue of simulation events.
///
/// See the [module docs](self) for the ordering contract and the
/// calendar-queue internals.
///
/// # Examples
///
/// ```
/// use cbfd_net::event::{EventKind, EventQueue};
/// use cbfd_net::id::NodeId;
/// use cbfd_net::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), EventKind::Timer { node: NodeId(0), token: 1, id: 0 });
/// q.schedule(SimTime::from_millis(1), EventKind::Timer { node: NodeId(0), token: 2, id: 1 });
/// let (at, kind) = q.pop().unwrap();
/// assert_eq!(at, SimTime::from_millis(1));
/// assert_eq!(kind, EventKind::Timer { node: NodeId(0), token: 2, id: 1 });
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    /// Bucket list heads/tails, indexed by ring slot.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// One bit per slot: bucket non-empty.
    occupied: Vec<u64>,
    /// One bit per `occupied` word: word non-zero.
    summary: Vec<u64>,
    /// Entry pool; freed entries are chained through `next`.
    pool: Vec<Entry<M>>,
    free_head: u32,
    /// Absolute time (µs) of the slot at `cursor`.
    base: u64,
    cursor: usize,
    ring_len: usize,
    /// Far-future (and behind-`base`) events.
    overflow: BinaryHeap<Scheduled<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: vec![NIL; SLOT_COUNT],
            tails: vec![NIL; SLOT_COUNT],
            occupied: vec![0; SLOT_COUNT / 64],
            summary: vec![0; SLOT_COUNT / 64 / 64],
            pool: Vec::new(),
            free_head: NIL,
            base: 0,
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` to fire at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert_with_seq(at, seq, kind);
    }

    /// Inserts an event with an explicit sequence number — the restore
    /// path, where tie-break order must match the original run.
    #[inline]
    fn insert_with_seq(&mut self, at: SimTime, seq: u64, kind: EventKind<M>) {
        let t = at.as_micros();
        if t >= self.base && t - self.base < SLOT_COUNT as u64 {
            let slot = (self.cursor + (t - self.base) as usize) & (SLOT_COUNT - 1);
            let idx = self.alloc_entry(at, seq, kind);
            if self.tails[slot] == NIL {
                self.heads[slot] = idx;
                self.set_bit(slot);
            } else {
                self.pool[self.tails[slot] as usize].next = idx;
            }
            self.tails[slot] = idx;
            self.ring_len += 1;
        } else {
            self.overflow.push(Scheduled { at, seq, kind });
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        self.pop_at_or_before(SimTime::from_micros(u64::MAX))
    }

    /// Removes and returns the earliest event iff it fires at or
    /// before `deadline`; a single scan replaces the peek-then-pop
    /// pattern on the simulator's main loop.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind<M>)> {
        let ring = self.first_occupied_slot().map(|slot| {
            let head = self.heads[slot] as usize;
            (self.pool[head].at, self.pool[head].seq, slot)
        });
        let heap = self.overflow.peek().map(|s| (s.at, s.seq));
        match (ring, heap) {
            (None, None) => None,
            (Some((at, _, slot)), None) => (at <= deadline).then(|| (at, self.pop_ring(slot))),
            (None, Some((at, _))) => {
                if at <= deadline {
                    self.pop_overflow()
                } else {
                    None
                }
            }
            (Some((rat, rseq, slot)), Some((hat, hseq))) => {
                if (rat, rseq) <= (hat, hseq) {
                    (rat <= deadline).then(|| (rat, self.pop_ring(slot)))
                } else if hat <= deadline {
                    self.pop_overflow()
                } else {
                    None
                }
            }
        }
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let ring = self
            .first_occupied_slot()
            .map(|slot| self.pool[self.heads[slot] as usize].at);
        let heap = self.overflow.peek().map(|s| s.at);
        match (ring, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Returns true iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----------------------------------------------------- internals

    #[inline]
    fn alloc_entry(&mut self, at: SimTime, seq: u64, kind: EventKind<M>) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let e = &mut self.pool[idx as usize];
            self.free_head = e.next;
            e.at = at;
            e.seq = seq;
            e.kind = Some(kind);
            e.next = NIL;
            idx
        } else {
            let idx = self.pool.len() as u32;
            self.pool.push(Entry {
                at,
                seq,
                kind: Some(kind),
                next: NIL,
            });
            idx
        }
    }

    #[inline]
    fn pop_ring(&mut self, slot: usize) -> EventKind<M> {
        let idx = self.heads[slot];
        let e = &mut self.pool[idx as usize];
        let at = e.at;
        let next = e.next;
        let kind = e.kind.take().expect("live ring entry has a kind");
        e.next = self.free_head;
        self.free_head = idx;
        self.heads[slot] = next;
        if next == NIL {
            self.tails[slot] = NIL;
            self.clear_bit(slot);
        }
        self.ring_len -= 1;
        self.advance_to(at.as_micros(), slot);
        kind
    }

    fn pop_overflow(&mut self) -> Option<(SimTime, EventKind<M>)> {
        let s = self.overflow.pop()?;
        let t = s.at.as_micros();
        if t > self.base {
            let d = t - self.base;
            let slot = ((self.cursor as u64 + d) % SLOT_COUNT as u64) as usize;
            self.advance_to(t, slot);
        }
        Some((s.at, s.kind))
    }

    /// Moves the ring origin forward to time `t` at ring `slot`.
    /// Entries keep their buckets: an event at absolute time `x` lives
    /// in slot `(cursor + (x - base)) mod SLOT_COUNT`, which is
    /// invariant under simultaneous `(base, cursor)` advancement.
    #[inline]
    fn advance_to(&mut self, t: u64, slot: usize) {
        self.base = t;
        self.cursor = slot;
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] |= 1u64 << (slot & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] &= !(1u64 << (slot & 63));
        if self.occupied[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
    }

    /// The ring slot holding the earliest pending ring event, i.e. the
    /// first occupied slot at or after `cursor` in circular order.
    #[inline]
    fn first_occupied_slot(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        // No bits in [cursor, SLOT_COUNT) means the earliest slot
        // wrapped around and sits in [0, cursor).
        self.scan_from(self.cursor).or_else(|| self.scan_from(0))
    }

    /// First occupied slot in `[from, SLOT_COUNT)`, via the bitmap
    /// hierarchy: one masked word probe, then summary-guided scan.
    #[inline]
    fn scan_from(&self, from: usize) -> Option<usize> {
        let w0 = from >> 6;
        let bits = self.occupied[w0] & (!0u64 << (from & 63));
        if bits != 0 {
            return Some((w0 << 6) + bits.trailing_zeros() as usize);
        }
        let next_word = w0 + 1;
        if next_word >= self.occupied.len() {
            return None;
        }
        let mut sw = next_word >> 6;
        let mut sbits = self.summary[sw] & (!0u64 << (next_word & 63));
        loop {
            if sbits != 0 {
                let w = (sw << 6) + sbits.trailing_zeros() as usize;
                let b = self.occupied[w];
                return Some((w << 6) + b.trailing_zeros() as usize);
            }
            sw += 1;
            if sw >= self.summary.len() {
                return None;
            }
            sbits = self.summary[sw];
        }
    }
}

impl<M: Clone> EventQueue<M> {
    /// Every pending event as `(at, seq, kind)`, sorted by the queue's
    /// ordering contract `(time, sequence)` — the logical content of
    /// the queue, independent of which tier each event currently sits
    /// in.
    pub fn snapshot_entries(&self) -> Vec<(SimTime, u64, EventKind<M>)> {
        let mut out: Vec<(SimTime, u64, EventKind<M>)> = self
            .pool
            .iter()
            .filter_map(|e| e.kind.as_ref().map(|k| (e.at, e.seq, k.clone())))
            .chain(self.overflow.iter().map(|s| (s.at, s.seq, s.kind.clone())))
            .collect();
        out.sort_by_key(|&(at, seq, _)| (at, seq));
        out
    }
}

impl<M> EventQueue<M> {
    /// Every pending event, in no particular order (what a restore
    /// checks against the rest of the snapshot).
    pub(crate) fn kinds(&self) -> impl Iterator<Item = &EventKind<M>> {
        self.pool
            .iter()
            .filter_map(|e| e.kind.as_ref())
            .chain(self.overflow.iter().map(|s| &s.kind))
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot_entries`] dump.
    ///
    /// `base` anchors the calendar ring (the snapshotting run's ring
    /// origin); `next_seq` continues the tie-break counter so events
    /// scheduled after the restore sort exactly as they would have in
    /// the uninterrupted run. Entries must be sorted by `(at, seq)` —
    /// within one ring bucket insertion order is sequence order, which
    /// the sorted dump reproduces.
    pub fn from_parts(
        base: u64,
        next_seq: u64,
        entries: Vec<(SimTime, u64, EventKind<M>)>,
    ) -> Self {
        let mut q = EventQueue::new();
        q.base = base;
        for (at, seq, kind) in entries {
            q.insert_with_seq(at, seq, kind);
        }
        q.next_seq = next_seq;
        q
    }

    /// The ring origin in microseconds (exposed for checkpointing).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The next insertion sequence number (exposed for checkpointing).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<M: crate::checkpoint::Persist> crate::checkpoint::Persist for EventKind<M> {
    fn persist(&self, w: &mut crate::checkpoint::Writer) {
        match self {
            EventKind::Deliver { to, from, msg } => {
                w.put_u8(0);
                to.persist(w);
                from.persist(w);
                msg.persist(w);
            }
            EventKind::Timer { node, token, id } => {
                w.put_u8(1);
                node.persist(w);
                token.persist(w);
                id.persist(w);
            }
            EventKind::Crash { node } => {
                w.put_u8(2);
                node.persist(w);
            }
            EventKind::Join { node } => {
                w.put_u8(3);
                node.persist(w);
            }
            EventKind::Leave { node } => {
                w.put_u8(4);
                node.persist(w);
            }
            EventKind::Rejoin { node } => {
                w.put_u8(5);
                node.persist(w);
            }
        }
    }

    fn restore(
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        Ok(match r.get_u8()? {
            0 => EventKind::Deliver {
                to: NodeId::restore(r)?,
                from: NodeId::restore(r)?,
                msg: M::restore(r)?,
            },
            1 => EventKind::Timer {
                node: NodeId::restore(r)?,
                token: u64::restore(r)?,
                id: u64::restore(r)?,
            },
            2 => EventKind::Crash {
                node: NodeId::restore(r)?,
            },
            3 => EventKind::Join {
                node: NodeId::restore(r)?,
            },
            4 => EventKind::Leave {
                node: NodeId::restore(r)?,
            },
            5 => EventKind::Rejoin {
                node: NodeId::restore(r)?,
            },
            _ => {
                return Err(crate::checkpoint::CheckpointError::Corrupt(
                    "event kind tag",
                ))
            }
        })
    }
}

impl<M: crate::checkpoint::Persist + Clone> crate::checkpoint::Persist for EventQueue<M> {
    fn persist(&self, w: &mut crate::checkpoint::Writer) {
        self.base.persist(w);
        self.next_seq.persist(w);
        self.snapshot_entries().persist(w);
    }

    fn restore(
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let base = u64::restore(r)?;
        let next_seq = u64::restore(r)?;
        let entries = Vec::restore(r)?;
        Ok(EventQueue::from_parts(base, next_seq, entries))
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(0),
            token,
            id: token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), timer(3));
        q.schedule(SimTime::from_micros(10), timer(1));
        q.schedule(SimTime::from_micros(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for token in 0..10 {
            q.schedule(t, timer(token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(9), timer(0));
        q.schedule(SimTime::from_micros(4), timer(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(4)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, timer(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn deliver_events_carry_payload() {
        let mut q = EventQueue::new();
        q.schedule(
            SimTime::ZERO,
            EventKind::Deliver {
                to: NodeId(1),
                from: NodeId(2),
                msg: "hello",
            },
        );
        match q.pop().unwrap().1 {
            EventKind::Deliver { to, from, msg } => {
                assert_eq!(to, NodeId(1));
                assert_eq!(from, NodeId(2));
                assert_eq!(msg, "hello");
            }
            _ => panic!("expected deliver"),
        }
    }

    #[test]
    fn far_future_events_overflow_and_merge_back() {
        let mut q = EventQueue::new();
        // Beyond the ring horizon → heap tier.
        let far = SimTime::from_micros(SLOT_COUNT as u64 * 3 + 17);
        q.schedule(far, timer(1));
        // Near-future → ring tier.
        q.schedule(SimTime::from_micros(5), timer(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(5));
        // The overflow event now pops through the merge.
        let (at, kind) = q.pop().unwrap();
        assert_eq!(at, far);
        assert_eq!(kind, timer(1));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_across_tiers_respect_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(SLOT_COUNT as u64 + 100);
        // First insertion lands in the heap (beyond horizon)...
        q.schedule(t, timer(0));
        // ...advance the ring past the horizon boundary...
        q.schedule(SimTime::from_micros(200), timer(99));
        q.pop();
        // ...so the same instant now lands in the ring.
        q.schedule(t, timer(1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![0, 1],
            "heap-tier tie must pop first (lower seq)"
        );
    }

    #[test]
    fn scheduling_before_the_last_pop_still_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_000), timer(0));
        q.pop();
        // "Past" relative to the ring base: takes the overflow path.
        q.schedule(SimTime::from_micros(3), timer(1));
        q.schedule(SimTime::from_micros(1_500), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn pool_entries_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..10 {
                q.schedule(SimTime::from_micros(round * 20 + i), timer(i));
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.pool.len() <= 10,
            "pool grew to {} entries for 10 concurrent events",
            q.pool.len()
        );
    }

    #[test]
    fn wrapping_the_ring_preserves_order() {
        // Events spread over several horizons: popping them drains the
        // ring and the overflow tier through the two-way merge while
        // the cursor wraps repeatedly.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut x = 12345u64;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % (SLOT_COUNT as u64 * 5);
            q.schedule(SimTime::from_micros(t), timer(i));
            expected.push((t, i));
        }
        expected.sort_by_key(|&(t, _)| t); // stable → seq order on ties
        let mut got = Vec::new();
        while let Some((at, kind)) = q.pop() {
            match kind {
                EventKind::Timer { token, .. } => got.push((at.as_micros(), token)),
                _ => unreachable!(),
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn snapshot_mid_drain_restores_identical_pop_order() {
        // Schedule across both tiers, drain part way, snapshot, and
        // check the rebuilt queue pops the exact same remainder — then
        // keeps identical tie-break behavior for *new* events.
        let mut q = EventQueue::new();
        let mut x = 777u64;
        for i in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % (SLOT_COUNT as u64 * 3);
            q.schedule(SimTime::from_micros(t), timer(i));
        }
        for _ in 0..200 {
            q.pop();
        }
        let mut restored = EventQueue::from_parts(q.base(), q.next_seq(), q.snapshot_entries());
        assert_eq!(restored.len(), q.len());
        // New events in both queues get the same sequence numbers.
        let t = q.peek_time().unwrap();
        q.schedule(t, timer(9_999));
        restored.schedule(t, timer(9_999));
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
