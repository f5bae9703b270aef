//! Node lifecycle: liveness states, timer ownership and their restore
//! checks, shared by every engine.
//!
//! The paper's detector assumes fail-stop crashes; the churn layer
//! adds graceful leave, late join and rejoin on top. [`NodeTable`] is
//! the one owner of that per-node state — each node's [`Life`], the
//! generation-stamped timer slab and every node's pending timers — for
//! the legacy [`Simulator`](crate::sim::Simulator), the canonical
//! reference and every tile of the tiled engine, and the only place
//! that decides whether a transition takes effect (DESIGN.md §13 has
//! the table). [`apply`] is the one sequence of rule, counters, trace
//! record and actor callback per event kind; each engine implements
//! [`Engine`] around its own queue, RNG streams, energy ledger and
//! transmit loop.
//!
//! Both checkpoint formats store the liveness part as three flag
//! vectors (`alive`, `departed`, `dormant`) and the timer part as the
//! slab followed by the per-node `(token, slot)` lists, where they
//! always stored them. Restore refuses what a run would trip over: a
//! flag triple that is none of the four states, a slot beyond the
//! slab, a slot owned twice or by no one, and a queued event the
//! holder cannot run.

use crate::actor::TimerToken;
use crate::checkpoint::{CheckpointError, Persist, Reader, Writer};
use crate::event::EventKind;
use crate::id::NodeId;
use crate::sim::SimEvent;
use crate::trace::TraceKind;

/// Where one node stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Life {
    /// Operational: it receives, transmits and fires timers.
    Alive,
    /// Fail-stopped (paper §2.2): silent and deaf until a rejoin.
    Crashed,
    /// Withdrew gracefully; kept apart from a crash so observers can
    /// tell a voluntary leaver from a failure.
    Departed,
    /// A late arrival that has not joined yet: never started.
    Dormant,
}

impl Life {
    /// The persisted `(alive, departed, dormant)` flag triple.
    fn flags(self) -> (bool, bool, bool) {
        (
            self == Life::Alive,
            self == Life::Departed,
            self == Life::Dormant,
        )
    }

    /// The state a persisted flag triple encodes, if any: at most one
    /// flag may be set (none is a crash).
    fn from_flags(flags: (bool, bool, bool)) -> Option<Life> {
        [Life::Alive, Life::Crashed, Life::Departed, Life::Dormant]
            .into_iter()
            .find(|life| life.flags() == flags)
    }
}

/// An actor callback, run by an engine's `call` helper. `P` is how the
/// engine hands over a delivered message: a payload-arena handle, or
/// the message itself in the canonical engine.
pub(crate) enum Callback<P> {
    /// `on_start`: the initial start, or a dormant node's join.
    Start,
    /// `on_message` for a copy from `from`, handed over as `msg`.
    Message { from: NodeId, msg: P },
    /// `on_timer` with the actor's token.
    Timer(TimerToken),
    /// `on_leave`, while the node is still alive.
    Leave,
    /// `on_rejoin`, after the stale timers were dropped.
    Rejoin,
}

/// What [`apply`] needs from an engine, or from one tile of one: its
/// node table, counters and trace, and its `call` helper.
pub(crate) trait Engine {
    /// How a delivered message reaches the actor.
    type Msg;
    /// The node-table index of `node`.
    fn index(&self, node: NodeId) -> usize;
    /// The engine's node table.
    fn table(&mut self) -> &mut NodeTable;
    /// Counts a copy that found its node not alive, and releases it.
    fn drop_dead(&mut self, msg: Self::Msg);
    /// Counts and charges a copy the live node `i` receives.
    fn receive(&mut self, i: usize, node: NodeId);
    /// Counts a timer firing on a live node.
    fn count_timer(&mut self);
    /// Records one trace entry (if tracing is on).
    fn record(&mut self, kind: TraceKind, node: NodeId, peer: NodeId);
    /// Runs `callback` on `node` (table index `i`) and applies the
    /// commands it issued.
    fn call(&mut self, i: usize, node: NodeId, callback: Callback<Self::Msg>);
}

/// Applies one popped event to `engine`: the one definition, for every
/// engine, of which rule gates the event and in which order its
/// counters, trace record and callback follow. Returns the event as an
/// observer sees it if it took effect; a copy for a node that is not
/// alive, a stale timer and a transition the rules refuse are dropped
/// silently.
pub(crate) fn apply<E: Engine>(engine: &mut E, event: EventKind<E::Msg>) -> Option<SimEvent> {
    Some(match event {
        EventKind::Deliver { to, from, msg } => {
            let i = engine.index(to);
            if !engine.table().is_alive(i) {
                engine.drop_dead(msg);
                return None;
            }
            engine.receive(i, to);
            engine.record(TraceKind::Receive, to, from);
            engine.call(i, to, Callback::Message { from, msg });
            SimEvent::Deliver { to, from }
        }
        EventKind::Timer { node, token, id } => {
            let (i, token) = (engine.index(node), TimerToken(token));
            if !engine.table().fire_timer(i, id) {
                return None;
            }
            engine.count_timer();
            engine.record(TraceKind::Timer, node, node);
            engine.call(i, node, Callback::Timer(token));
            SimEvent::Timer { node, token }
        }
        EventKind::Crash { node } => {
            let i = engine.index(node);
            if !engine.table().crash(i) {
                return None;
            }
            engine.record(TraceKind::Crash, node, node);
            SimEvent::Crash { node }
        }
        EventKind::Join { node } => {
            let i = engine.index(node);
            if !engine.table().join(i) {
                return None;
            }
            engine.record(TraceKind::Join, node, node);
            engine.call(i, node, Callback::Start);
            SimEvent::Join { node }
        }
        EventKind::Leave { node } => {
            let i = engine.index(node);
            if !engine.table().is_alive(i) {
                return None;
            }
            // Only an alive node leaves, and its departure announcement
            // goes out while it still is.
            engine.call(i, node, Callback::Leave);
            engine.table().depart(i);
            engine.record(TraceKind::Leave, node, node);
            SimEvent::Leave { node }
        }
        EventKind::Rejoin { node } => {
            let i = engine.index(node);
            if !engine.table().rejoin(i) {
                return None;
            }
            engine.record(TraceKind::Rejoin, node, node);
            engine.call(i, node, Callback::Rejoin);
            SimEvent::Rejoin { node }
        }
    })
}

/// Generation-stamped timer slab: each pending timer owns a slot, the
/// queued event carries `(slot, generation)` packed into the event's
/// `id`, cancellation bumps the generation in O(1), and a stale firing
/// is rejected by a single compare — no tombstone set to grow without
/// bound on cancel-heavy runs.
#[derive(Debug, Default)]
struct TimerSlab {
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Claims a slot, returning the packed `(slot, generation)` stamp.
    fn alloc(&mut self) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.generations.push(0);
            (self.generations.len() - 1) as u32
        });
        pack_timer(slot, self.generations[slot as usize])
    }

    /// Invalidates `slot` (cancellation) and recycles it. The stale
    /// event still in the queue is rejected by its generation on pop;
    /// generations wrap at 2^32 reuses of one slot, far beyond any
    /// run's cancel count.
    fn invalidate(&mut self, slot: u32) {
        self.generations[slot as usize] = self.generations[slot as usize].wrapping_add(1);
        self.free.push(slot);
    }

    /// Consumes a firing: true iff `stamp` is current for its slot, in
    /// which case the slot is invalidated (the event is spent) and
    /// recycled.
    fn try_fire(&mut self, stamp: u64) -> bool {
        let (slot, generation) = unpack_timer(stamp);
        if self.generations[slot as usize] != generation {
            return false;
        }
        self.invalidate(slot);
        true
    }
}

crate::impl_persist!(TimerSlab { generations, free });

fn pack_timer(slot: u32, generation: u32) -> u64 {
    (u64::from(slot) << 32) | u64::from(generation)
}

fn unpack_timer(stamp: u64) -> (u32, u32) {
    ((stamp >> 32) as u32, stamp as u32)
}

/// The lifecycle state and timers of one engine's nodes (or one
/// tile's), indexed by the engine's node index. DESIGN.md §13 has the
/// transition table.
#[derive(Debug)]
pub(crate) struct NodeTable {
    life: Vec<Life>,
    slab: TimerSlab,
    /// Per node: `(token, slot)` of every pending timer, so that
    /// cancel-by-token finds its slots (lists stay tiny — a handful of
    /// pending timers per node).
    pending: Vec<Vec<(u64, u32)>>,
}

impl NodeTable {
    /// `n` alive nodes with no timers.
    pub(crate) fn new(n: usize) -> Self {
        NodeTable {
            life: vec![Life::Alive; n],
            slab: TimerSlab::default(),
            pending: vec![Vec::new(); n],
        }
    }

    /// The lifecycle state of node `i`.
    #[inline]
    pub(crate) fn state(&self, i: usize) -> Life {
        self.life[i]
    }

    /// Whether node `i` is operational.
    #[inline]
    pub(crate) fn is_alive(&self, i: usize) -> bool {
        self.life[i] == Life::Alive
    }

    /// The indices of the nodes in state `life`, ascending.
    pub(crate) fn in_state(&self, life: Life) -> impl Iterator<Item = NodeId> + '_ {
        self.life
            .iter()
            .enumerate()
            .filter(move |&(_, &l)| l == life)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Makes the alive node `i` a late arrival; only before the engine
    /// has `started`. Returns whether it took effect.
    pub(crate) fn set_dormant(&mut self, i: usize, started: bool) -> bool {
        self.change(i, !started, Life::Alive, Life::Dormant)
    }

    /// Fail-stop crash of the alive node `i`. Its timers stay pending
    /// and are retired unfired as they pop.
    pub(crate) fn crash(&mut self, i: usize) -> bool {
        self.change(i, true, Life::Alive, Life::Crashed)
    }

    /// Activates the dormant node `i`; the engine then runs its
    /// `on_start`.
    pub(crate) fn join(&mut self, i: usize) -> bool {
        self.change(i, true, Life::Dormant, Life::Alive)
    }

    /// Completes the leave of the alive node `i`, after its `on_leave`
    /// commands were applied: it goes silent and its pending timers are
    /// dropped.
    pub(crate) fn depart(&mut self, i: usize) {
        debug_assert!(self.is_alive(i), "only an alive node can leave");
        self.life[i] = Life::Departed;
        self.drop_timers(i);
    }

    /// Brings the crashed or departed node `i` back, dropping every
    /// timer it still had pending first; the engine then runs its
    /// `on_rejoin`.
    pub(crate) fn rejoin(&mut self, i: usize) -> bool {
        if !matches!(self.life[i], Life::Crashed | Life::Departed) {
            return false;
        }
        self.drop_timers(i);
        self.life[i] = Life::Alive;
        true
    }

    /// Moves node `i` from `from` to `to` if `allowed`; an index
    /// beyond the table is a no-op, like any refused transition.
    fn change(&mut self, i: usize, allowed: bool, from: Life, to: Life) -> bool {
        if !allowed || self.life.get(i) != Some(&from) {
            return false;
        }
        self.life[i] = to;
        true
    }

    /// Registers a timer of node `i` (engine id `node`) with the actor's
    /// `token`; returns the event to queue, whose stamp lets
    /// [`NodeTable::fire_timer`] tell it from a cancelled one.
    pub(crate) fn set_timer<M>(
        &mut self,
        i: usize,
        node: NodeId,
        token: TimerToken,
    ) -> EventKind<M> {
        let stamp = self.slab.alloc();
        self.pending[i].push((token.0, unpack_timer(stamp).0));
        EventKind::Timer {
            node,
            token: token.0,
            id: stamp,
        }
    }

    /// Cancels every pending timer of node `i` carrying `token`.
    pub(crate) fn cancel_timer(&mut self, i: usize, token: TimerToken) {
        let slab = &mut self.slab;
        self.pending[i].retain(|&(t, slot)| {
            if t == token.0 {
                slab.invalidate(slot);
                false
            } else {
                true
            }
        });
    }

    /// Consumes the firing of the timer event stamped `stamp` on node
    /// `i`. A stale stamp (cancelled, dropped, or already fired) is
    /// ignored; a current one is retired either way, and the result is
    /// true iff the node is alive to run `on_timer`.
    pub(crate) fn fire_timer(&mut self, i: usize, stamp: u64) -> bool {
        if !self.slab.try_fire(stamp) {
            return false;
        }
        let (slot, _) = unpack_timer(stamp);
        let pending = &mut self.pending[i];
        if let Some(at) = pending.iter().position(|&(_, s)| s == slot) {
            pending.swap_remove(at);
        }
        self.is_alive(i)
    }

    /// Invalidates and forgets every pending timer of node `i`. The
    /// queued events stay in the engine's queue but their stamps are
    /// stale, so they dissolve on pop.
    fn drop_timers(&mut self, i: usize) {
        for &(_, slot) in &self.pending[i] {
            self.slab.invalidate(slot);
        }
        self.pending[i].clear();
    }

    /// Restore check for one event queued in this table's engine or
    /// tile: the node it acts on must be one the queue's holder owns
    /// (`owns`), a sender one of the `population` nodes, and a timer's
    /// stamp must name a slot of the slab.
    pub(crate) fn check_event<P>(
        &self,
        event: &EventKind<P>,
        population: usize,
        owns: impl Fn(NodeId) -> bool,
    ) -> Result<(), CheckpointError> {
        let (node, known) = match *event {
            EventKind::Deliver { to, from, .. } => (to, from.index() < population),
            EventKind::Timer { node, id, .. } => (
                node,
                (unpack_timer(id).0 as usize) < self.slab.generations.len(),
            ),
            EventKind::Crash { node }
            | EventKind::Join { node }
            | EventKind::Leave { node }
            | EventKind::Rejoin { node } => (node, true),
        };
        let runnable = owns(node) && known;
        runnable.then_some(()).ok_or(CheckpointError::Corrupt(
            "queued event its holder cannot run",
        ))
    }

    /// Writes the liveness part: the `alive`, `departed` and `dormant`
    /// flag vectors, in that order.
    pub(crate) fn persist_liveness(&self, w: &mut Writer) {
        let flags = |pick: fn((bool, bool, bool)) -> bool| -> Vec<bool> {
            self.life.iter().map(|l| pick(l.flags())).collect()
        };
        flags(|f| f.0).persist(w);
        flags(|f| f.1).persist(w);
        flags(|f| f.2).persist(w);
    }

    /// Writes the timer part: the slab, then the per-node pending
    /// lists.
    pub(crate) fn persist_timers(&self, w: &mut Writer) {
        self.slab.persist(w);
        self.pending.persist(w);
    }

    /// Reads what [`NodeTable::persist_liveness`] wrote for `n` nodes,
    /// refusing a flag triple that is none of the four states. The
    /// table has no timers until [`NodeTable::restore_timers`].
    pub(crate) fn restore_liveness(r: &mut Reader<'_>, n: usize) -> Result<Self, CheckpointError> {
        let alive: Vec<bool> = Vec::restore(r)?;
        let departed: Vec<bool> = Vec::restore(r)?;
        let dormant: Vec<bool> = Vec::restore(r)?;
        if alive.len() != n || departed.len() != n || dormant.len() != n {
            return Err(CheckpointError::Corrupt("population size mismatch"));
        }
        let life = (0..n)
            .map(|i| Life::from_flags((alive[i], departed[i], dormant[i])))
            .collect::<Option<Vec<Life>>>()
            .ok_or(CheckpointError::Corrupt("node in no lifecycle state"))?;
        Ok(NodeTable {
            life,
            slab: TimerSlab::default(),
            pending: vec![Vec::new(); n],
        })
    }

    /// Reads what [`NodeTable::persist_timers`] wrote, refusing it
    /// unless the free list and the pending lists together name every
    /// slot of the slab exactly once.
    pub(crate) fn restore_timers(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let slab = TimerSlab::restore(r)?;
        let pending: Vec<Vec<(u64, u32)>> = Vec::restore(r)?;
        if pending.len() != self.life.len() {
            return Err(CheckpointError::Corrupt("population size mismatch"));
        }
        let mut owned = vec![false; slab.generations.len()];
        let slots = slab
            .free
            .iter()
            .chain(pending.iter().flatten().map(|(_, slot)| slot));
        for &slot in slots {
            match owned.get_mut(slot as usize) {
                None => return Err(CheckpointError::Corrupt("timer slot beyond the slab")),
                Some(true) => return Err(CheckpointError::Corrupt("timer slot owned twice")),
                Some(seen) => *seen = true,
            }
        }
        if owned.contains(&false) {
            return Err(CheckpointError::Corrupt("timer slot owned by no one"));
        }
        self.slab = slab;
        self.pending = pending;
        Ok(())
    }
}

/// Crafted snapshot sections for the engines' restore tests.
#[cfg(test)]
pub(crate) mod crafted {
    use super::*;

    /// `bytes` with its one occurrence of the section `from` replaced
    /// by `to`.
    ///
    /// # Panics
    ///
    /// Panics unless `from` occurs exactly once.
    pub(crate) fn splice(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let hits: Vec<usize> = (0..=bytes.len().saturating_sub(from.len()))
            .filter(|&at| bytes[at..].starts_with(from))
            .collect();
        assert_eq!(hits.len(), 1, "the section must occur exactly once");
        [&bytes[..hits[0]], to, &bytes[hits[0] + from.len()..]].concat()
    }

    /// The liveness section of `table`, as its engine writes it.
    pub(crate) fn liveness(table: &NodeTable) -> Vec<u8> {
        let mut w = Writer::new();
        table.persist_liveness(&mut w);
        w.into_bytes()
    }

    /// The timer section of `table`, as its engine writes it.
    pub(crate) fn timers(table: &NodeTable) -> Vec<u8> {
        let mut w = Writer::new();
        table.persist_timers(&mut w);
        w.into_bytes()
    }

    /// A liveness section of `n` alive nodes whose node 0 is also
    /// flagged dormant.
    pub(crate) fn alive_and_dormant(n: usize) -> Vec<u8> {
        let mut w = Writer::new();
        vec![true; n].persist(&mut w);
        vec![false; n].persist(&mut w);
        (0..n)
            .map(|i| i == 0)
            .collect::<Vec<bool>>()
            .persist(&mut w);
        w.into_bytes()
    }

    /// Timer sections of `n` nodes, each with one defect, and the
    /// refusal each must meet: a pending slot beyond the slab, a free
    /// slot beyond the slab, a slot free twice.
    pub(crate) fn bad_timers(n: usize) -> Vec<(Vec<u8>, CheckpointError)> {
        let section = |generations: Vec<u32>, free: Vec<u32>, slot: u32| {
            let mut pending = vec![Vec::new(); n];
            pending[0].push((1u64, slot));
            let mut w = Writer::new();
            TimerSlab { generations, free }.persist(&mut w);
            pending.persist(&mut w);
            w.into_bytes()
        };
        let beyond = CheckpointError::Corrupt("timer slot beyond the slab");
        vec![
            (section(vec![0], vec![], 5), beyond.clone()),
            (section(vec![0], vec![7], 0), beyond),
            (
                section(vec![0, 0], vec![1, 1], 0),
                CheckpointError::Corrupt("timer slot owned twice"),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATES: [Life; 4] = [Life::Alive, Life::Crashed, Life::Departed, Life::Dormant];

    /// Sets a timer with `token` on node `i`; returns its stamp.
    fn arm(t: &mut NodeTable, i: usize, token: u64) -> u64 {
        match t.set_timer::<()>(i, NodeId(i as u32), TimerToken(token)) {
            EventKind::Timer { id, .. } => id,
            _ => unreachable!("set_timer returns a timer event"),
        }
    }

    /// A one-node table driven into `life` through the public rules.
    fn table_in(life: Life) -> NodeTable {
        let mut t = NodeTable::new(1);
        match life {
            Life::Alive => {}
            Life::Crashed => assert!(t.crash(0)),
            Life::Departed => {
                t.depart(0);
            }
            Life::Dormant => assert!(t.set_dormant(0, false)),
        }
        assert_eq!(t.state(0), life);
        t
    }

    fn leave(t: &mut NodeTable) -> bool {
        let ok = t.is_alive(0);
        if ok {
            t.depart(0);
        }
        ok
    }

    #[test]
    fn transition_table() {
        use Life::*;
        type Rule = fn(&mut NodeTable) -> bool;
        // (event, resulting state from Alive, Crashed, Departed,
        // Dormant); `None` = no effect.
        let rules: [(&str, Rule, [Option<Life>; 4]); 6] = [
            ("crash", |t| t.crash(0), [Some(Crashed), None, None, None]),
            ("join", |t| t.join(0), [None, None, None, Some(Alive)]),
            ("leave", leave, [Some(Departed), None, None, None]),
            (
                "rejoin",
                |t| t.rejoin(0),
                [None, Some(Alive), Some(Alive), None],
            ),
            (
                "set_dormant before start",
                |t| t.set_dormant(0, false),
                [Some(Dormant), None, None, None],
            ),
            (
                "set_dormant after start",
                |t| t.set_dormant(0, true),
                [None, None, None, None],
            ),
        ];
        for (event, rule, outcomes) in rules {
            for (from, outcome) in STATES.into_iter().zip(outcomes) {
                let mut t = table_in(from);
                assert_eq!(rule(&mut t), outcome.is_some(), "{event} from {from:?}");
                assert_eq!(t.state(0), outcome.unwrap_or(from), "{event} from {from:?}");
            }
        }
        // An unknown node takes no transition instead of panicking.
        let mut t = NodeTable::new(1);
        assert!(!t.crash(7) && !t.join(7) && !t.set_dormant(7, false));
    }

    #[test]
    fn stale_stamps_are_rejected() {
        let mut t = NodeTable::new(1);
        let stamp = arm(&mut t, 0, 1);
        assert!(t.fire_timer(0, stamp), "fresh stamp fires");
        assert!(!t.fire_timer(0, stamp), "a stamp can only be spent once");
        let cancelled = arm(&mut t, 0, 2);
        t.cancel_timer(0, TimerToken(2));
        assert!(!t.fire_timer(0, cancelled), "cancelled stamp must not fire");
        // The recycled slot carries a new generation: the new stamp
        // fires, the old one stays dead.
        let reused = arm(&mut t, 0, 2);
        assert_eq!(unpack_timer(reused).0, unpack_timer(cancelled).0);
        assert!(!t.fire_timer(0, cancelled));
        assert!(t.fire_timer(0, reused));
    }

    #[test]
    fn cancel_by_token_removes_every_slot_with_that_token() {
        let mut t = NodeTable::new(2);
        let a = arm(&mut t, 0, 7);
        let b = arm(&mut t, 0, 7);
        let other = arm(&mut t, 0, 8);
        let peer = arm(&mut t, 1, 7);
        t.cancel_timer(0, TimerToken(7));
        assert_eq!(t.pending[0], vec![(8, unpack_timer(other).0)]);
        assert!(!t.fire_timer(0, a) && !t.fire_timer(0, b));
        assert!(t.fire_timer(0, other), "another token survives");
        assert!(t.fire_timer(1, peer), "another node's timer survives");
    }

    #[test]
    fn leave_and_rejoin_drop_pending_timers() {
        let mut t = NodeTable::new(1);
        let before_leave = arm(&mut t, 0, 1);
        t.depart(0);
        assert!(t.pending[0].is_empty());
        assert!(t.rejoin(0));
        assert!(!t.fire_timer(0, before_leave), "pre-leave timer is stale");

        let before_crash = arm(&mut t, 0, 1);
        assert!(t.crash(0));
        assert_eq!(t.pending[0].len(), 1, "a crash leaves timers pending");
        assert!(t.rejoin(0));
        assert!(t.pending[0].is_empty());
        assert!(!t.fire_timer(0, before_crash), "pre-crash timer is stale");
    }

    #[test]
    fn a_crashed_nodes_timer_is_retired_but_not_delivered() {
        let mut t = NodeTable::new(1);
        let stamp = arm(&mut t, 0, 3);
        assert!(t.crash(0));
        assert!(!t.fire_timer(0, stamp), "a dead node runs no on_timer");
        assert!(t.pending[0].is_empty(), "the spent timer is retired");
        assert_eq!(t.slab.free, vec![unpack_timer(stamp).0], "slot recycled");
    }

    #[test]
    fn slab_stays_bounded_under_cancel_churn() {
        // A tombstone set would grow by one entry per cancel, forever;
        // the slab recycles one slot instead.
        let mut t = NodeTable::new(1);
        for _ in 0..10_000 {
            arm(&mut t, 0, 1);
            t.cancel_timer(0, TimerToken(1));
        }
        assert_eq!(t.slab.generations.len(), 1, "one slot, recycled 10k times");
        let survivor = arm(&mut t, 0, 1);
        assert!(
            t.fire_timer(0, survivor),
            "generation wrap-around is harmless"
        );
    }

    fn snapshot(t: &NodeTable) -> Vec<u8> {
        let mut w = Writer::new();
        t.persist_liveness(&mut w);
        t.persist_timers(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8], n: usize) -> Result<NodeTable, CheckpointError> {
        let mut r = Reader::new(bytes);
        let mut t = NodeTable::restore_liveness(&mut r, n)?;
        t.restore_timers(&mut r)?;
        Ok(t)
    }

    #[test]
    fn persist_restore_round_trip_is_byte_exact() {
        let mut t = NodeTable::new(4);
        assert!(t.set_dormant(3, false));
        arm(&mut t, 0, 1);
        let spent = arm(&mut t, 1, 2);
        arm(&mut t, 1, 3);
        t.fire_timer(1, spent);
        t.crash(1);
        t.depart(2);
        let bytes = snapshot(&t);
        assert_eq!(snapshot(&restored(&bytes, 4).unwrap()), bytes);
        assert!(restored(&bytes, 3).is_err());
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        // Slot 0 pending on node 0; slot 1 free after a cancel.
        let corrupt = |edit: fn(&mut NodeTable)| {
            let mut t = NodeTable::new(2);
            arm(&mut t, 0, 1);
            arm(&mut t, 1, 1);
            t.cancel_timer(1, TimerToken(1));
            edit(&mut t);
            restored(&snapshot(&t), 2).map(drop).unwrap_err()
        };
        // Alive and dormant at once: flags written by hand.
        let mut w = Writer::new();
        vec![true, true].persist(&mut w);
        vec![false, false].persist(&mut w);
        vec![true, false].persist(&mut w);
        assert_eq!(
            NodeTable::restore_liveness(&mut Reader::new(&w.into_bytes()), 2).unwrap_err(),
            CheckpointError::Corrupt("node in no lifecycle state")
        );
        assert_eq!(
            corrupt(|b| b.pending[0][0].1 = 9),
            CheckpointError::Corrupt("timer slot beyond the slab")
        );
        assert_eq!(
            corrupt(|b| b.slab.free.push(9)),
            CheckpointError::Corrupt("timer slot beyond the slab")
        );
        assert_eq!(
            corrupt(|b| b.slab.free.push(1)),
            CheckpointError::Corrupt("timer slot owned twice")
        );
        assert_eq!(
            corrupt(|b| b.pending[1].push((1, 0))),
            CheckpointError::Corrupt("timer slot owned twice")
        );
        assert_eq!(
            corrupt(|b| b.slab.free.clear()),
            CheckpointError::Corrupt("timer slot owned by no one")
        );
    }
}
