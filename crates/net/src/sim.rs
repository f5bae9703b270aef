//! The discrete-event wireless simulator.
//!
//! [`Simulator`] drives a population of [`Actor`]s over a static
//! [`Topology`] and a [`RadioConfig`]: every broadcast is offered to
//! each in-range neighbour, each copy is independently subjected to
//! the channel's loss model and delivered after a bounded delay.
//! Crashes follow the paper's **fail-stop** model — a crashed node
//! never transmits, receives, or fires timers again. Runs are fully
//! deterministic for a given seed.
//!
//! Faults beyond the paper's channel — partitions, per-link lag and
//! stale replays — live in the engine's [`ChannelFaults`], reached
//! through [`Simulator::faults_mut`]; the transmit loop asks it per
//! copy in the draw order that type documents.
//!
//! Crash, leave, join and rejoin, and the timers, are kept and ruled by
//! the engine's `lifecycle::NodeTable` (DESIGN.md §13).

use crate::actor::{Actor, Command, Ctx, TimerToken};
use crate::checkpoint::{self, CheckpointError, Persist, Reader, Writer};
use crate::energy::{EnergyBook, EnergyModel};
use crate::event::{EventKind, EventQueue};
use crate::faults::ChannelFaults;
use crate::id::NodeId;
use crate::lifecycle::{self, Callback, Engine, Life, NodeTable};
use crate::loss::LossSnapshot;
use crate::metrics::SimMetrics;
use crate::radio::RadioConfig;
use crate::rng::derive_seed;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceKind, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A summary of one *effective* simulation event, handed to the
/// observer of [`Simulator::run_until_observed`] after the event has
/// been applied.
///
/// "Effective" means the event actually changed the simulation:
/// deliveries to crashed nodes, stale (cancelled) timer firings, and
/// crashes of already-dead nodes are dispatched silently and never
/// reach the observer. This makes observer-level invariants sharp: an
/// observed `Deliver`/`Timer` for a node that previously appeared in a
/// `Crash` record is an engine bug, not an expected no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A message from `from` was delivered to the live node `to` (its
    /// `on_message` ran).
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
    },
    /// A pending timer fired on the live node `node` (its `on_timer`
    /// ran).
    Timer {
        /// Owning node.
        node: NodeId,
        /// The actor-chosen token.
        token: TimerToken,
    },
    /// `node` transitioned from operational to crashed (fail-stop).
    Crash {
        /// Crashing node.
        node: NodeId,
    },
    /// A dormant node became operational for the first time (late
    /// arrival; its `on_start` ran).
    Join {
        /// Joining node.
        node: NodeId,
    },
    /// `node` withdrew gracefully: its `on_leave` ran (a last chance
    /// to announce the departure) and it then went silent.
    Leave {
        /// Departing node.
        node: NodeId,
    },
    /// A crashed or departed node came back: its `on_rejoin` ran after
    /// every stale pre-downtime timer was invalidated.
    Rejoin {
        /// Returning node.
        node: NodeId,
    },
}

/// Handle to a broadcast payload stored once in the [`PayloadArena`];
/// `Deliver` events carry this instead of a cloned `A::Msg`, so a
/// transmission fans out to any number of neighbours without deep
/// copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PayloadId(pub(crate) u32);

impl Persist for PayloadId {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(PayloadId(r.get_u32()?))
    }
}

/// Ref-counted slab holding each broadcast payload exactly once.
///
/// Lifetime rule: `transmit` inserts the payload and sets the
/// reference count to the number of `Deliver` events scheduled; every
/// delivery (including copies addressed to crashed nodes) releases one
/// reference, and the slot is recycled when the count reaches zero.
/// A transmission whose every copy is lost frees the slot immediately.
#[derive(Debug)]
pub(crate) struct PayloadArena<M> {
    slots: Vec<(u32, Option<M>)>,
    free: Vec<u32>,
}

impl<M> PayloadArena<M> {
    pub(crate) fn new() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `msg` with a reference count of zero (set after fan-out).
    pub(crate) fn insert(&mut self, msg: M) -> PayloadId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = (0, Some(msg));
            PayloadId(idx)
        } else {
            self.slots.push((0, Some(msg)));
            PayloadId((self.slots.len() - 1) as u32)
        }
    }

    /// Stores `msg` with its final reference count in one operation —
    /// the fused `insert` + `set_refs` pair the tiled exchange pays
    /// per routed payload. `refs == 0` behaves exactly like
    /// `insert` followed by `set_refs(_, 0)`: the slot is claimed and
    /// immediately recycled, preserving free-list order (the free list
    /// is persisted, so its order is observable).
    pub(crate) fn insert_with_refs(&mut self, msg: M, refs: u32) -> PayloadId {
        if refs == 0 {
            let id = self.insert(msg);
            self.slots[id.0 as usize].1 = None;
            self.free.push(id.0);
            return id;
        }
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = (refs, Some(msg));
            PayloadId(idx)
        } else {
            self.slots.push((refs, Some(msg)));
            PayloadId((self.slots.len() - 1) as u32)
        }
    }

    pub(crate) fn set_refs(&mut self, id: PayloadId, refs: u32) {
        if refs == 0 {
            self.slots[id.0 as usize].1 = None;
            self.free.push(id.0);
        } else {
            self.slots[id.0 as usize].0 = refs;
        }
    }

    pub(crate) fn get(&self, id: PayloadId) -> &M {
        self.slots[id.0 as usize]
            .1
            .as_ref()
            .expect("payload alive while references remain")
    }

    /// Drops one reference; recycles the slot on the last one.
    pub(crate) fn release(&mut self, id: PayloadId) {
        let slot = &mut self.slots[id.0 as usize];
        slot.0 -= 1;
        if slot.0 == 0 {
            slot.1 = None;
            self.free.push(id.0);
        }
    }

    /// Restore check against the queue that holds this arena's
    /// deliveries: each live slot's reference count equals the queued
    /// `Deliver`s naming it, and none names an empty or missing slot —
    /// else a delivery would read a freed payload.
    pub(crate) fn check_refs<'a>(
        &self,
        events: impl Iterator<Item = &'a EventKind<PayloadId>>,
    ) -> Result<(), CheckpointError> {
        let mismatch =
            CheckpointError::Corrupt("queued deliveries disagree with the payload arena");
        let mut refs = vec![0u32; self.slots.len()];
        for event in events {
            if let EventKind::Deliver { msg, .. } = event {
                *refs.get_mut(msg.0 as usize).ok_or(mismatch.clone())? += 1;
            }
        }
        let agree = self
            .slots
            .iter()
            .zip(&refs)
            .all(|((held, msg), &queued)| queued == if msg.is_some() { *held } else { 0 });
        agree.then_some(()).ok_or(mismatch)
    }
}

impl<M: Persist> Persist for PayloadArena<M> {
    // The slot vector and free list are stored exactly — not rebuilt —
    // because future slot assignments (and thus the payload IDs inside
    // queued `Deliver` events) depend on the free list's order.
    fn persist(&self, w: &mut Writer) {
        self.slots.persist(w);
        self.free.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let slots: Vec<(u32, Option<M>)> = Vec::restore(r)?;
        let free: Vec<u32> = Vec::restore(r)?;
        // `insert` trusts the free list: it must name every empty slot
        // exactly once and nothing else.
        let mut listed = free.clone();
        listed.sort_unstable();
        if !listed
            .into_iter()
            .eq((0..slots.len() as u32).filter(|&i| slots[i as usize].1.is_none()))
        {
            return Err(CheckpointError::Corrupt("payload free list"));
        }
        Ok(PayloadArena { slots, free })
    }
}

/// A complete simulation of one wireless network.
///
/// # Examples
///
/// Two nodes in range; node 0 pings, node 1 hears it:
///
/// ```
/// use cbfd_net::prelude::*;
///
/// #[derive(Default)]
/// struct Pinger { heard: usize }
/// impl Actor for Pinger {
///     type Msg = u8;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
///         if ctx.me() == NodeId(0) {
///             ctx.broadcast(7);
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, u8>, _from: NodeId, _msg: &u8) {
///         self.heard += 1;
///     }
/// }
///
/// let topo = Topology::from_positions(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
///     100.0,
/// );
/// let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| Pinger::default());
/// sim.run_until(SimTime::from_millis(5));
/// assert_eq!(sim.actor(NodeId(1)).heard, 1);
/// ```
pub struct Simulator<A: Actor> {
    topology: Topology,
    radio: RadioConfig,
    actors: Vec<A>,
    /// Lifecycle state and pending timers of every node.
    life: NodeTable,
    queue: EventQueue<PayloadId>,
    /// Broadcast payloads, stored once per transmission.
    payloads: PayloadArena<A::Msg>,
    now: SimTime,
    rng: StdRng,
    metrics: SimMetrics,
    energy: EnergyBook,
    trace: Trace,
    started: bool,
    /// Last instant solar harvesting was credited.
    last_harvest: SimTime,
    /// Partition, per-link lag and duplication (chaos interposers).
    faults: ChannelFaults,
    /// Recycled neighbour-list buffer for [`Simulator::transmit`]
    /// (avoids an allocation per transmission on the hot path).
    scratch_neighbors: Vec<NodeId>,
    /// Recycled command buffer threaded through [`Ctx`] so actor
    /// callbacks append into the same allocation every event.
    scratch_commands: Vec<Command<A::Msg>>,
}

impl<A: Actor> Simulator<A> {
    /// Creates a simulator over `topology` with the given radio and
    /// master `seed`; `make_actor` builds the protocol actor for each
    /// node.
    pub fn new(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        mut make_actor: impl FnMut(NodeId) -> A,
    ) -> Self {
        let n = topology.len();
        let actors = topology.node_ids().map(&mut make_actor).collect();
        Simulator {
            actors,
            life: NodeTable::new(n),
            queue: EventQueue::new(),
            payloads: PayloadArena::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(derive_seed(seed, 0)),
            metrics: SimMetrics::new(n),
            energy: EnergyBook::new(n, EnergyModel::default()),
            trace: Trace::disabled(),
            started: false,
            last_harvest: SimTime::ZERO,
            faults: ChannelFaults::new(n),
            scratch_neighbors: Vec::new(),
            scratch_commands: Vec::new(),
            topology,
            radio,
        }
    }

    /// Replaces the energy model (all nodes reset to full charge).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy = EnergyBook::new(self.topology.len(), model);
    }

    /// Swaps the radio configuration mid-run (e.g. an interference
    /// storm raising the loss probability). Affects transmissions from
    /// the next event onward; copies already in flight keep their old
    /// delivery outcome.
    pub fn set_radio(&mut self, radio: RadioConfig) {
        self.radio = radio;
    }

    /// Enables event tracing.
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Traffic counters accumulated so far.
    #[inline]
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The per-node energy ledger.
    #[inline]
    pub fn energy(&self) -> &EnergyBook {
        &self.energy
    }

    /// The event trace (empty unless [`Simulator::enable_trace`] was
    /// called).
    #[inline]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Shared access to the actor on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.index()]
    }

    /// Exclusive access to the actor on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        &mut self.actors[node.index()]
    }

    /// Iterates over `(id, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId(i as u32), a))
    }

    /// Whether `node` is still operational.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.life.is_alive(node.index())
    }

    /// Iterates over the node IDs that are still operational, without
    /// allocating.
    pub fn alive_nodes_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.life.in_state(Life::Alive)
    }

    /// Node IDs that are still operational, collected into a fresh
    /// `Vec`; prefer [`Simulator::alive_nodes_iter`] on hot paths.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive_nodes_iter().collect()
    }

    /// Schedules a fail-stop crash of `node` at time `at`.
    ///
    /// A timestamp in the simulated past **saturates to `now()`**
    /// instead of panicking, so machine-generated fault schedules (the
    /// chaos fuzzer's randomized plans) can never abort the process;
    /// the effective crash instant is returned.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) -> SimTime {
        self.schedule_external(node, at, EventKind::Crash { node })
    }

    /// Crashes `node` immediately (unknown nodes are ignored).
    pub fn crash_now(&mut self, node: NodeId) {
        lifecycle::apply(self, EventKind::Crash { node });
    }

    // --------------------------------------------- lifecycle (churn)

    /// Marks `node` as a late arrival: it takes no part in the run (no
    /// `on_start`, no deliveries, no timers) until a scheduled `Join`
    /// activates it. Must be called before the first event is
    /// processed; afterwards — and for unknown nodes, or nodes that
    /// already crashed — it is a no-op, never a panic, so
    /// machine-generated churn plans cannot abort the process.
    pub fn set_dormant(&mut self, node: NodeId) {
        self.life.set_dormant(node.index(), self.started);
    }

    /// Schedules the activation of the dormant node `node` at `at`
    /// (its `on_start` runs then). Past timestamps saturate to `now()`
    /// and unknown nodes are ignored — same non-panicking contract as
    /// [`Simulator::schedule_crash`]; joins of nodes that are not
    /// dormant (already present, crashed, or departed) dissolve into
    /// silent no-ops at dispatch time. Returns the effective instant.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) -> SimTime {
        self.schedule_external(node, at, EventKind::Join { node })
    }

    /// Schedules a graceful withdrawal of `node` at `at`: its
    /// `on_leave` callback runs (commands issued there — typically a
    /// departure announcement — are applied while the node is still
    /// operational), then the node goes silent and every pending timer
    /// it owns is invalidated. Leaves of unknown, dead, or dormant
    /// nodes are no-ops; past timestamps saturate to `now()`. Returns
    /// the effective instant.
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime) -> SimTime {
        self.schedule_external(node, at, EventKind::Leave { node })
    }

    /// Schedules the return of a crashed or departed node at `at`: all
    /// of its stale pre-downtime timers are invalidated, then its
    /// `on_rejoin` callback runs. The actor keeps whatever state it
    /// held when it went down — deciding what is stale is the
    /// protocol's job, which is exactly the scenario the FDS's
    /// incarnation numbers exist for. Rejoins of unknown, operational,
    /// or dormant nodes are no-ops; past timestamps saturate to
    /// `now()`. Returns the effective instant.
    pub fn schedule_rejoin(&mut self, node: NodeId, at: SimTime) -> SimTime {
        self.schedule_external(node, at, EventKind::Rejoin { node })
    }

    /// Clamps `at` to `now()` and queues `kind` for a known `node`;
    /// unknown nodes are ignored. Returns the effective instant.
    fn schedule_external(
        &mut self,
        node: NodeId,
        at: SimTime,
        kind: EventKind<PayloadId>,
    ) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.queue.schedule(at, kind);
        }
        at
    }

    /// Whether `node` withdrew gracefully (as opposed to crashing).
    #[inline]
    pub fn has_departed(&self, node: NodeId) -> bool {
        self.life.state(node.index()) == Life::Departed
    }

    /// Whether `node` is a late arrival that has not joined yet.
    #[inline]
    pub fn is_dormant(&self, node: NodeId) -> bool {
        self.life.state(node.index()) == Life::Dormant
    }

    /// Nodes that withdrew gracefully and have not rejoined.
    pub fn departed_nodes(&self) -> Vec<NodeId> {
        self.life.in_state(Life::Departed).collect()
    }

    /// Nodes that are down involuntarily: not alive, not a voluntary
    /// leaver, not an unactivated late arrival.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.life.in_state(Life::Crashed).collect()
    }

    // ------------------------------------------- chaos interposer API

    /// The channel faults (partition, per-link lag, duplication)
    /// applied from the next transmission on; copies already in flight
    /// keep their outcome.
    pub fn faults_mut(&mut self) -> &mut ChannelFaults {
        &mut self.faults
    }

    /// Runs until the event queue is exhausted or until the next
    /// pending event lies beyond `deadline` (events at exactly
    /// `deadline` are still processed). Afterwards `now()` equals
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        // One queue scan per event: the deadline-aware pop replaces
        // the peek-then-pop pattern on this hot loop.
        while let Some((at, kind)) = self.queue.pop_at_or_before(deadline) {
            self.dispatch(at, kind);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Like [`Simulator::run_until`], invoking `observe` with a shared
    /// borrow of the simulator after every *effective* event (see
    /// [`SimEvent`] for what is filtered out). This is the hook the
    /// chaos subsystem's online invariant monitor attaches to; the
    /// observer cannot mutate the simulation, so a run's event stream
    /// is byte-identical with and without observation.
    pub fn run_until_observed(
        &mut self,
        deadline: SimTime,
        observe: &mut dyn FnMut(&Self, SimEvent),
    ) {
        self.ensure_started();
        while let Some((at, kind)) = self.queue.pop_at_or_before(deadline) {
            if let Some(event) = self.dispatch(at, kind) {
                observe(self, event);
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Processes exactly one pending event (after delivering start
    /// callbacks on first use). Returns false if the queue was empty.
    pub fn step_one(&mut self) -> bool {
        self.ensure_started();
        let Some((at, kind)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, kind);
        true
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            if self.life.is_alive(i) {
                self.call(i, NodeId(i as u32), Callback::Start);
            }
        }
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind<PayloadId>) -> Option<SimEvent> {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        // Solar harvesting (Section 2.1: hosts are "equipped with
        // solar cells for energy harvest"): credit elapsed time.
        if self.energy.model().harvest_per_sec > 0.0 && self.now > self.last_harvest {
            let elapsed = self.now.since(self.last_harvest).as_micros() as f64 / 1e6;
            self.energy.harvest(elapsed);
            self.last_harvest = self.now;
        }
        lifecycle::apply(self, kind)
    }

    fn apply_commands(&mut self, node: NodeId, mut commands: Vec<Command<A::Msg>>) {
        for command in commands.drain(..) {
            match command {
                Command::Broadcast(msg) => self.transmit(node, msg),
                Command::SetTimer { fire_at, token } => {
                    let timer = self.life.set_timer(node.index(), node, token);
                    self.queue.schedule(fire_at, timer);
                }
                Command::CancelTimer { token } => self.life.cancel_timer(node.index(), token),
            }
        }
        // Hand the (now empty) allocation back for the next event.
        self.scratch_commands = commands;
    }

    fn transmit(&mut self, from: NodeId, msg: A::Msg) {
        // The borrow checker won't let us iterate `topology.neighbors`
        // while mutating the queue/rng, so the list is copied — into a
        // recycled buffer rather than a fresh allocation per transmit.
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.topology.neighbors(from));
        self.metrics.record_transmission(from, neighbors.len());
        self.energy.charge_tx(from);
        self.record(TraceKind::Transmit, from, from);
        let from_pos = self.topology.position(from);
        let lags = self.faults.lag_run(from);
        // The payload is stored once; every scheduled copy carries a
        // handle, so fan-out degree never clones the message.
        let payload = self.payloads.insert(msg);
        let mut refs = 0u32;
        for &to in neighbors.iter() {
            let to_pos = self.topology.position(to);
            let lost = self.faults.blocks(from, to)
                || self
                    .radio
                    .loss_mut()
                    .is_lost(from, to, from_pos, to_pos, &mut self.rng);
            if lost {
                self.metrics.record_loss();
                // Not `record`: `lags` still borrows the fault table.
                self.trace.push(TraceRecord {
                    at: self.now,
                    node: to,
                    peer: from,
                    kind: TraceKind::Loss,
                });
                continue;
            }
            let delay = self.radio.draw_delay(&mut self.rng) + lags.extra(to);
            refs += 1;
            self.queue.schedule(
                self.now + delay,
                EventKind::Deliver {
                    to,
                    from,
                    msg: payload,
                },
            );
            // Stale-replay injection: a late duplicate of the copy.
            if let Some(dup_lag) = self.faults.duplicate(&mut self.rng) {
                refs += 1;
                self.queue.schedule(
                    self.now + delay + dup_lag,
                    EventKind::Deliver {
                        to,
                        from,
                        msg: payload,
                    },
                );
            }
        }
        // Zero surviving copies drop the payload immediately.
        self.payloads.set_refs(payload, refs);
        self.scratch_neighbors = neighbors;
    }
}

impl<A: Actor> Engine for Simulator<A> {
    type Msg = PayloadId;

    fn index(&self, node: NodeId) -> usize {
        node.index()
    }

    fn table(&mut self) -> &mut NodeTable {
        &mut self.life
    }

    fn drop_dead(&mut self, msg: PayloadId) {
        self.metrics.record_dropped_dead();
        self.payloads.release(msg);
    }

    fn receive(&mut self, _: usize, node: NodeId) {
        self.metrics.record_delivery();
        self.energy.charge_rx(node);
    }

    fn count_timer(&mut self) {
        self.metrics.record_timer();
    }

    fn record(&mut self, kind: TraceKind, node: NodeId, peer: NodeId) {
        self.trace.push(TraceRecord {
            at: self.now,
            node,
            peer,
            kind,
        });
    }

    /// A delivered payload is released between the callback and its
    /// commands, before any of them can transmit: the arena's free-list
    /// order is observable in checkpoints.
    fn call(&mut self, i: usize, node: NodeId, callback: Callback<PayloadId>) {
        let mut ctx =
            Ctx::new(self.now, node, &mut self.rng).with_energy(self.energy.remaining(node));
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        let actor = &mut self.actors[i];
        match callback {
            Callback::Start => actor.on_start(&mut ctx),
            Callback::Message { from, msg } => {
                actor.on_message(&mut ctx, from, self.payloads.get(msg));
                self.payloads.release(msg);
            }
            Callback::Timer(token) => actor.on_timer(&mut ctx, token),
            Callback::Leave => actor.on_leave(&mut ctx),
            Callback::Rejoin => actor.on_rejoin(&mut ctx),
        }
        let commands = ctx.commands;
        self.apply_commands(node, commands);
    }
}

impl<A: Actor + Persist> Simulator<A>
where
    A::Msg: Persist,
{
    /// Serializes the complete simulation state — actors, pending
    /// events (with their tie-breaking insertion sequence numbers),
    /// in-flight payloads, RNG, timers, channel state, metrics, trace,
    /// energy, chaos interposers — into a version-tagged byte
    /// snapshot. [`Simulator::restore`] rebuilds a simulator whose
    /// future is **byte-identical** to this one's.
    ///
    /// # Errors
    ///
    /// Fails with [`CheckpointError::Corrupt`] if the radio's loss
    /// model is a custom one that does not implement
    /// [`LossModel::snapshot`](crate::loss::LossModel::snapshot) —
    /// better than silently dropping channel state.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        let Some(loss) = self.radio.loss().snapshot() else {
            return Err(CheckpointError::Corrupt(
                "loss model does not support checkpointing",
            ));
        };
        let mut w = Writer::new();
        checkpoint::write_header(&mut w);
        self.topology.persist(&mut w);
        loss.persist(&mut w);
        self.radio.delay().persist(&mut w);
        self.radio.jitter().persist(&mut w);
        self.actors.persist(&mut w);
        self.life.persist_liveness(&mut w);
        self.queue.persist(&mut w);
        self.payloads.persist(&mut w);
        self.now.persist(&mut w);
        self.rng.persist(&mut w);
        self.metrics.persist(&mut w);
        self.energy.persist(&mut w);
        self.trace.persist(&mut w);
        self.life.persist_timers(&mut w);
        self.started.persist(&mut w);
        self.last_harvest.persist(&mut w);
        self.faults.persist(&mut w);
        Ok(w.into_bytes())
    }

    /// Rebuilds a simulator from a [`Simulator::checkpoint`] snapshot.
    ///
    /// # Errors
    ///
    /// Fails on truncated, foreign, version-mismatched, or
    /// structurally inconsistent bytes; never panics on untrusted
    /// input.
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        checkpoint::read_header(&mut r)?;
        let topology = Topology::restore(&mut r)?;
        let n = topology.len();
        let loss = LossSnapshot::restore(&mut r)?;
        let delay = SimDuration::restore(&mut r)?;
        let jitter = SimDuration::restore(&mut r)?;
        let radio = RadioConfig::new(loss.rebuild())
            .with_delay(delay)
            .with_jitter(jitter);
        let actors: Vec<A> = Vec::restore(&mut r)?;
        let mut life = NodeTable::restore_liveness(&mut r, n)?;
        let queue = EventQueue::restore(&mut r)?;
        let payloads = PayloadArena::restore(&mut r)?;
        let now = SimTime::restore(&mut r)?;
        let rng = StdRng::restore(&mut r)?;
        let metrics = SimMetrics::restore(&mut r)?;
        let energy = EnergyBook::restore(&mut r)?;
        let trace = Trace::restore(&mut r)?;
        life.restore_timers(&mut r)?;
        let started = bool::restore(&mut r)?;
        let last_harvest = SimTime::restore(&mut r)?;
        let faults = ChannelFaults::restore(&mut r, n)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        if actors.len() != n || metrics.tx_per_node.len() != n || energy.len() != n {
            return Err(CheckpointError::Corrupt("population size mismatch"));
        }
        if queue.peek_time().is_some_and(|at| at < now) {
            return Err(CheckpointError::Corrupt("queued event before the clock"));
        }
        for kind in queue.kinds() {
            life.check_event(kind, n, |node| node.index() < n)?;
        }
        payloads.check_refs(queue.kinds())?;
        Ok(Simulator {
            topology,
            radio,
            actors,
            life,
            queue,
            payloads,
            now,
            rng,
            metrics,
            energy,
            trace,
            started,
            last_harvest,
            faults,
            scratch_neighbors: Vec::new(),
            scratch_commands: Vec::new(),
        })
    }
}

impl<A: Actor> std::fmt::Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.topology.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("radio", &self.radio)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::time::SimDuration;

    /// Broadcasts `count` pings at start and records everything heard.
    #[derive(Default)]
    struct Chatter {
        heard: Vec<(NodeId, u32)>,
        pings: u32,
        timer_fires: Vec<TimerToken>,
    }

    impl Actor for Chatter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.pings {
                ctx.broadcast(i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, from: NodeId, msg: &u32) {
            self.heard.push((from, *msg));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, token: TimerToken) {
            self.timer_fires.push(token);
        }
    }

    fn pair_topology() -> Topology {
        Topology::from_positions(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 100.0)
    }

    fn triangle_topology() -> Topology {
        Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(25.0, 40.0),
            ],
            100.0,
        )
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |id| {
            Chatter {
                pings: if id == NodeId(0) { 1 } else { 0 },
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor(NodeId(1)).heard, vec![(NodeId(0), 0)]);
        assert_eq!(sim.actor(NodeId(2)).heard, vec![(NodeId(0), 0)]);
        assert!(sim.actor(NodeId(0)).heard.is_empty(), "no self delivery");
        assert_eq!(sim.metrics().transmissions, 1);
        assert_eq!(sim.metrics().deliveries, 2);
    }

    #[test]
    fn total_loss_channel_delivers_nothing() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::bernoulli(1.0), 1, |_| {
            Chatter {
                pings: 3,
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().deliveries, 0);
        assert_eq!(sim.metrics().losses, 6);
    }

    #[test]
    fn crashed_node_is_silent_and_deaf() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        sim.crash_now(NodeId(1));
        sim.actor_mut(NodeId(0)).pings = 1;
        // Restart semantics: node 0 broadcasts at start; node 1 is
        // already dead so the copy is dropped.
        sim.run_until(SimTime::from_millis(10));
        assert!(sim.actor(NodeId(1)).heard.is_empty());
        assert_eq!(sim.metrics().dropped_dead, 1);
        assert!(!sim.is_alive(NodeId(1)));
        assert_eq!(sim.alive_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn scheduled_crash_takes_effect_at_time() {
        struct TimedPing;
        impl Actor for TimedPing {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.me() == NodeId(0) {
                    // Fire one ping before the crash and one after.
                    ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
                    ctx.set_timer(SimDuration::from_millis(20), TimerToken(2));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _t: TimerToken) {
                ctx.broadcast(0);
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| TimedPing);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(10));
        sim.run_until(SimTime::from_secs(1));
        // First ping delivered, second dropped on the dead node.
        assert_eq!(sim.metrics().deliveries, 1);
        assert_eq!(sim.metrics().dropped_dead, 1);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        struct TimerTest;
        impl Actor for TimerTest {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(2), TimerToken(2));
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: TimerToken) {
                assert_eq!(token.0, ctx.now().as_millis(), "token must match schedule");
            }
        }
        let topo = Topology::from_positions(vec![Point::ORIGIN], 100.0);
        let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| TimerTest);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().timers_fired, 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct CancelTest;
        impl Actor for CancelTest {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(5), TimerToken(1));
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(2));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: TimerToken) {
                if token == TimerToken(2) {
                    ctx.cancel_timer(TimerToken(1));
                } else {
                    panic!("cancelled timer fired");
                }
            }
        }
        let topo = Topology::from_positions(vec![Point::ORIGIN], 100.0);
        let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| CancelTest);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.metrics().timers_fired, 1);
    }

    #[test]
    fn cancel_does_not_eat_newer_timer_with_same_token() {
        // set A (late), cancel token, set B (early): only A must die.
        struct Regress {
            fired: u32,
        }
        impl Actor for Regress {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(10), TimerToken(7));
                ctx.cancel_timer(TimerToken(7));
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(7));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, token: TimerToken) {
                assert_eq!(token, TimerToken(7));
                self.fired += 1;
            }
        }
        let topo = Topology::from_positions(vec![Point::ORIGIN], 100.0);
        let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| Regress { fired: 0 });
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.actor(NodeId(0)).fired, 1);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                triangle_topology(),
                RadioConfig::bernoulli(0.5),
                seed,
                |_| Chatter {
                    pings: 10,
                    ..Chatter::default()
                },
            );
            sim.run_until(SimTime::from_millis(100));
            (sim.metrics().deliveries, sim.actor(NodeId(0)).heard.clone())
        };
        assert_eq!(run(7), run(7));
        // Different seeds should (with overwhelming probability)
        // produce different loss patterns over 60 offered copies.
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn energy_is_charged_for_traffic() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 5,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(10));
        let model = *sim.energy().model();
        let expected = model.initial - 5.0 * model.tx_cost - 5.0 * model.rx_cost;
        assert!((sim.energy().remaining(NodeId(0)) - expected).abs() < 1e-9);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 1,
            ..Chatter::default()
        });
        sim.enable_trace();
        sim.run_until(SimTime::from_millis(10));
        let kinds: Vec<TraceKind> = sim.trace().records().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&TraceKind::Transmit));
        assert!(kinds.contains(&TraceKind::Receive));
    }

    #[test]
    fn run_to_quiescence_counts_events() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 2,
            ..Chatter::default()
        });
        // 2 pings per node = 4 deliveries total (one per neighbour copy).
        let mut processed = 0;
        while sim.step_one() {
            processed += 1;
            assert!(processed <= 1_000, "the queue must drain");
        }
        assert_eq!(processed, 4);
        assert!(!sim.step_one());
    }

    #[test]
    fn solar_harvest_replenishes_energy() {
        use crate::energy::EnergyModel;
        // One ping per 100 ms; harvesting outpaces the transmit cost.
        struct Beacon;
        impl Actor for Beacon {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(100), TimerToken(0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.broadcast(());
                ctx.set_timer(SimDuration::from_millis(100), TimerToken(0));
            }
        }
        let run = |harvest: f64| {
            let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Beacon);
            sim.set_energy_model(EnergyModel {
                initial: 100.0,
                tx_cost: 1.0,
                rx_cost: 0.1,
                harvest_per_sec: harvest,
            });
            sim.run_until(SimTime::from_secs(5));
            sim.energy().remaining(NodeId(0))
        };
        let drained = run(0.0);
        let harvested = run(20.0); // 2 units per 100 ms vs 1.1 spent
        assert!(
            drained < 50.0,
            "beaconing must drain without harvest: {drained}"
        );
        assert!(
            (harvested - 100.0).abs() < 2.0,
            "harvesting should keep the battery topped up: {harvested}"
        );
    }

    #[test]
    fn radio_can_change_mid_run() {
        // Clean until t=10ms, then total loss: later pings vanish.
        struct Ping;
        impl Actor for Ping {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(5), TimerToken(0));
                    ctx.set_timer(SimDuration::from_millis(15), TimerToken(1));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.broadcast(());
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Ping);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().deliveries, 1);
        sim.set_radio(RadioConfig::bernoulli(1.0));
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(
            sim.metrics().deliveries,
            1,
            "storm must drop the second ping"
        );
        assert_eq!(sim.metrics().losses, 1);
    }

    #[test]
    fn payload_arena_recycles_every_slot() {
        // Lossless fan-out: each payload is stored once, released per
        // delivery, and the slot is free once the last copy lands.
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter {
                pings: 4,
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().deliveries, 24, "4 pings × 3 nodes × 2 peers");
        assert!(
            sim.payloads
                .slots
                .iter()
                .all(|(refs, m)| *refs == 0 && m.is_none()),
            "all payload slots released after quiescence"
        );
        assert_eq!(sim.payloads.free.len(), sim.payloads.slots.len());
    }

    #[test]
    fn payload_arena_frees_fully_lost_transmissions_immediately() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::bernoulli(1.0), 1, |_| {
            Chatter {
                pings: 1,
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().losses, 2);
        assert!(
            sim.payloads.slots.iter().all(|(_, m)| m.is_none()),
            "zero-survivor payloads are dropped at transmit time"
        );
    }

    #[test]
    fn insert_with_refs_counts_down_to_recycling() {
        let mut arena: PayloadArena<u64> = PayloadArena::new();
        let id = arena.insert_with_refs(7, 2);
        assert_eq!(*arena.get(id), 7);
        arena.release(id);
        assert_eq!(*arena.get(id), 7, "one reference still outstanding");
        arena.release(id);
        assert_eq!(arena.free, vec![id.0], "last release recycles the slot");

        // The recycled slot is reused before the vector grows.
        let id2 = arena.insert_with_refs(9, 1);
        assert_eq!(id2.0, id.0);
        assert_eq!(arena.slots.len(), 1);
    }

    #[test]
    fn insert_with_refs_zero_matches_insert_then_set_refs() {
        // The free list is persisted in checkpoints, so its order is
        // observable: the fused call must leave the arena in exactly
        // the state the unfused insert + set_refs(0) pair would.
        let mut fused: PayloadArena<u64> = PayloadArena::new();
        let mut unfused: PayloadArena<u64> = PayloadArena::new();
        for arena in [&mut fused, &mut unfused] {
            let a = arena.insert_with_refs(1, 1);
            let b = arena.insert_with_refs(2, 1);
            arena.release(a);
            arena.release(b);
        }
        let f = fused.insert_with_refs(3, 0);
        let u = unfused.insert(3);
        unfused.set_refs(u, 0);
        assert_eq!(f.0, u.0);
        assert_eq!(fused.free, unfused.free, "free-list order preserved");
        assert!(fused.slots[f.0 as usize].1.is_none());

        // And the next allocation lands on the same slot in both.
        assert_eq!(fused.insert(4).0, unfused.insert(4).0);
    }

    #[test]
    fn schedule_crash_in_the_past_saturates_to_now() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(10));
        // A fuzzer-generated plan may ask for t=1 ms when now=10 ms;
        // the crash must land at now instead of aborting the process.
        let effective = sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        assert_eq!(effective, SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(11));
        assert!(!sim.is_alive(NodeId(1)));
    }

    #[test]
    fn observer_sees_only_effective_events() {
        // Node 0 pings; node 1 is crashed mid-run, so the second ping
        // is dropped dead and must NOT reach the observer.
        struct Ping;
        impl Actor for Ping {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(2), TimerToken(0));
                    ctx.set_timer(SimDuration::from_millis(20), TimerToken(1));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.broadcast(());
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Ping);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(10));
        let mut seen = Vec::new();
        sim.run_until_observed(SimTime::from_secs(1), &mut |s, ev| {
            assert!(s.now() <= SimTime::from_secs(1));
            seen.push(ev);
        });
        assert!(seen.contains(&SimEvent::Crash { node: NodeId(1) }));
        let deliveries = seen
            .iter()
            .filter(|e| matches!(e, SimEvent::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 1, "post-crash delivery must be filtered");
        // No Deliver/Timer record for node 1 after its crash record.
        let crash_at = seen
            .iter()
            .position(|e| matches!(e, SimEvent::Crash { .. }))
            .unwrap();
        assert!(seen[crash_at + 1..].iter().all(|e| !matches!(
            e,
            SimEvent::Deliver { to: NodeId(1), .. }
                | SimEvent::Timer {
                    node: NodeId(1),
                    ..
                }
        )));
    }

    #[test]
    fn observed_runs_match_unobserved_runs() {
        let run = |observed: bool| {
            let mut sim =
                Simulator::new(triangle_topology(), RadioConfig::bernoulli(0.4), 9, |_| {
                    Chatter {
                        pings: 8,
                        ..Chatter::default()
                    }
                });
            if observed {
                sim.run_until_observed(SimTime::from_millis(50), &mut |_, _| {});
            } else {
                sim.run_until(SimTime::from_millis(50));
            }
            (sim.metrics().clone(), sim.actor(NodeId(2)).heard.clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn partition_blocks_cross_group_traffic_and_heals() {
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter::default()
        });
        sim.faults_mut().set_partition(vec![0, 1, 0]);
        sim.actor_mut(NodeId(0)).pings = 1;
        sim.run_until(SimTime::from_millis(5));
        // Node 1 is across the partition: its copy is dropped as loss.
        assert!(sim.actor(NodeId(1)).heard.is_empty());
        assert_eq!(sim.actor(NodeId(2)).heard.len(), 1);
        assert_eq!(sim.metrics().losses, 1);
        sim.faults_mut().clear_partition();
        // After healing, need fresh traffic: drive via a timer-free
        // re-broadcast by crashing nothing and re-running on_start is
        // not possible, so check the healed loss count stays flat.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().losses, 1);
    }

    #[test]
    fn link_lag_delays_only_the_lagged_link() {
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter::default()
        });
        sim.faults_mut()
            .set_link_lag(NodeId(0), NodeId(1), SimDuration::from_millis(7));
        sim.actor_mut(NodeId(0)).pings = 1;
        let mut arrivals = Vec::new();
        sim.run_until_observed(SimTime::from_millis(20), &mut |s, ev| {
            if let SimEvent::Deliver { to, .. } = ev {
                arrivals.push((to, s.now()));
            }
        });
        let at = |n: u32| arrivals.iter().find(|(to, _)| *to == NodeId(n)).unwrap().1;
        assert_eq!(at(1), at(2) + SimDuration::from_millis(7));
    }

    #[test]
    fn duplication_replays_copies_late() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 10,
            ..Chatter::default()
        });
        sim.faults_mut()
            .set_duplication(1.0, SimDuration::from_millis(3));
        sim.run_until(SimTime::from_millis(20));
        // Every surviving copy arrives twice: 10 pings per node → 20
        // originals + 20 duplicates.
        assert_eq!(sim.metrics().deliveries, 40);
        assert_eq!(sim.actor(NodeId(1)).heard.len(), 20);
    }

    #[test]
    fn debug_output_is_informative() {
        let sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        let s = format!("{sim:?}");
        assert!(s.contains("Simulator"));
        assert!(s.contains("nodes"));
    }

    crate::impl_persist!(Chatter {
        heard,
        pings,
        timer_fires,
    });

    #[test]
    fn dormant_node_misses_traffic_until_it_joins() {
        // Node 1 is a late arrival: it must miss node 0's start-time
        // ping, then run its own on_start when the join fires.
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |id| {
            Chatter {
                pings: if id == NodeId(1) { 3 } else { 1 },
                ..Chatter::default()
            }
        });
        sim.set_dormant(NodeId(1));
        assert!(sim.is_dormant(NodeId(1)));
        assert!(!sim.is_alive(NodeId(1)));
        sim.schedule_join(NodeId(1), SimTime::from_millis(10));
        let mut events = Vec::new();
        sim.run_until_observed(SimTime::from_millis(30), &mut |_, ev| events.push(ev));
        assert!(events.contains(&SimEvent::Join { node: NodeId(1) }));
        // The dormant node heard nothing from the start-time pings...
        let early = sim
            .actor(NodeId(1))
            .heard
            .iter()
            .filter(|&&(from, _)| from == NodeId(0))
            .count();
        assert_eq!(early, 0, "start-time ping must be dropped, not heard");
        // ...but its own on_start ran at join time: 3 pings, heard by
        // both neighbours.
        assert_eq!(
            sim.actors()
                .filter(|&(id, _)| id != NodeId(1))
                .map(|(_, a)| a.heard.iter().filter(|&&(f, _)| f == NodeId(1)).count())
                .sum::<usize>(),
            6
        );
        assert!(!sim.is_dormant(NodeId(1)));
        assert!(sim.is_alive(NodeId(1)));
    }

    #[test]
    fn leave_announces_then_silences_and_is_not_a_crash() {
        struct Leaver {
            farewell_heard: bool,
        }
        impl Actor for Leaver {
            type Msg = u8;
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: NodeId, msg: &u8) {
                if *msg == 99 {
                    self.farewell_heard = true;
                }
            }
            fn on_leave(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.broadcast(99);
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Leaver {
            farewell_heard: false,
        });
        sim.schedule_leave(NodeId(0), SimTime::from_millis(5));
        let mut events = Vec::new();
        sim.run_until_observed(SimTime::from_millis(20), &mut |_, ev| events.push(ev));
        assert!(events.contains(&SimEvent::Leave { node: NodeId(0) }));
        assert!(
            sim.actor(NodeId(1)).farewell_heard,
            "on_leave broadcast must go out before the node goes silent"
        );
        assert!(!sim.is_alive(NodeId(0)));
        assert!(sim.has_departed(NodeId(0)));
        assert_eq!(sim.departed_nodes(), vec![NodeId(0)]);
        assert_eq!(sim.crashed_nodes(), Vec::new(), "a leave is not a crash");
    }

    #[test]
    fn rejoin_revives_without_stale_timers() {
        struct Phoenix {
            fired: u32,
            rejoined: bool,
        }
        impl Actor for Phoenix {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(50), TimerToken(1));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerToken) {
                self.fired += 1;
            }
            fn on_rejoin(&mut self, _: &mut Ctx<'_, ()>) {
                self.rejoined = true;
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Phoenix {
            fired: 0,
            rejoined: false,
        });
        sim.schedule_crash(NodeId(0), SimTime::from_millis(10));
        sim.schedule_rejoin(NodeId(0), SimTime::from_millis(20));
        let mut events = Vec::new();
        sim.run_until_observed(SimTime::from_millis(100), &mut |_, ev| events.push(ev));
        assert!(events.contains(&SimEvent::Rejoin { node: NodeId(0) }));
        let phoenix = sim.actor(NodeId(0));
        assert!(phoenix.rejoined);
        assert_eq!(
            phoenix.fired, 0,
            "the pre-crash timer is stale and must not fire after rejoin"
        );
        assert!(sim.is_alive(NodeId(0)));
        assert!(!sim.has_departed(NodeId(0)));
        // Node 1 never crashed: its timer fires normally.
        assert_eq!(sim.actor(NodeId(1)).fired, 1);
    }

    #[test]
    fn churn_apis_never_panic_on_garbage_input() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 1,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(10));
        // Unknown node ids are ignored; past timestamps saturate.
        assert_eq!(
            sim.schedule_join(NodeId(99), SimTime::from_millis(1)),
            SimTime::from_millis(10)
        );
        sim.schedule_leave(NodeId(99), SimTime::ZERO);
        sim.schedule_rejoin(NodeId(99), SimTime::ZERO);
        sim.schedule_crash(NodeId(99), SimTime::ZERO);
        sim.set_dormant(NodeId(99));
        // Joining a present node and rejoining an alive node dissolve
        // into no-ops at dispatch time.
        sim.schedule_join(NodeId(0), SimTime::from_millis(11));
        sim.schedule_rejoin(NodeId(1), SimTime::from_millis(11));
        let mut effective = Vec::new();
        sim.run_until_observed(SimTime::from_millis(15), &mut |_, ev| effective.push(ev));
        assert!(
            effective.is_empty(),
            "none of the garbage events may be effective: {effective:?}"
        );
        // Leaving a node that is already dead is a no-op too.
        sim.crash_now(NodeId(1));
        sim.schedule_leave(NodeId(1), SimTime::from_millis(16));
        let mut late = Vec::new();
        sim.run_until_observed(SimTime::from_millis(20), &mut |_, ev| late.push(ev));
        assert!(late.is_empty(), "leave of a dead node fired: {late:?}");
        assert!(sim.is_alive(NodeId(0)));
        assert!(!sim.is_alive(NodeId(1)));
    }

    #[test]
    fn set_dormant_after_start_is_ignored() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(1));
        sim.set_dormant(NodeId(1));
        assert!(!sim.is_dormant(NodeId(1)));
        assert!(sim.is_alive(NodeId(1)));
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let build = || {
            let mut sim = Simulator::new(
                triangle_topology(),
                RadioConfig::bernoulli(0.3)
                    .with_delay(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_micros(500)),
                7,
                |_| Chatter {
                    pings: 6,
                    ..Chatter::default()
                },
            );
            sim.enable_trace();
            sim.faults_mut()
                .set_duplication(0.2, SimDuration::from_millis(2));
            sim
        };
        // Uninterrupted reference run.
        let mut reference = build();
        reference.schedule_crash(NodeId(2), SimTime::from_millis(3));
        reference.schedule_rejoin(NodeId(2), SimTime::from_millis(6));
        reference.run_until(SimTime::from_millis(40));

        // Interrupted run: snapshot mid-flight, restore, continue.
        let mut first_half = build();
        first_half.schedule_crash(NodeId(2), SimTime::from_millis(3));
        first_half.schedule_rejoin(NodeId(2), SimTime::from_millis(6));
        first_half.run_until(SimTime::from_millis(4));
        let snapshot = first_half.checkpoint().expect("checkpoint");
        drop(first_half);
        let mut resumed: Simulator<Chatter> = Simulator::restore(&snapshot).expect("restore");
        resumed.run_until(SimTime::from_millis(40));

        assert_eq!(resumed.metrics(), reference.metrics());
        assert_eq!(resumed.trace().records(), reference.trace().records());
        for n in reference.topology().node_ids() {
            assert_eq!(resumed.actor(n).heard, reference.actor(n).heard);
            assert_eq!(resumed.actor(n).timer_fires, reference.actor(n).timer_fires);
            assert_eq!(resumed.is_alive(n), reference.is_alive(n));
        }
        // The strongest form of the contract: the final snapshots are
        // byte-identical.
        assert_eq!(
            resumed.checkpoint().unwrap(),
            reference.checkpoint().unwrap()
        );
    }

    #[test]
    fn restore_rejects_corrupt_input_without_panicking() {
        let sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 2,
            ..Chatter::default()
        });
        let bytes = sim.checkpoint().unwrap();
        assert!(Simulator::<Chatter>::restore(b"garbage").is_err());
        assert!(Simulator::<Chatter>::restore(&[]).is_err());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Simulator::<Chatter>::restore(&bytes[..cut]).is_err(),
                "truncation at {cut} must be detected"
            );
        }
        assert!(Simulator::<Chatter>::restore(&bytes).is_ok());
    }

    #[test]
    fn restore_rejects_an_out_of_order_link_lag_table() {
        use crate::tiled::TiledSim;
        let (a, b) = (
            (NodeId(0), NodeId(1), SimDuration::from_millis(3)),
            (NodeId(1), NodeId(2), SimDuration::from_millis(5)),
        );
        let table = |entries: Vec<(NodeId, NodeId, SimDuration)>| {
            let mut w = Writer::new();
            entries.persist(&mut w);
            w.into_bytes()
        };
        let (sorted, swapped) = (table(vec![a, b]), table(vec![b, a]));
        // Swaps the two entries in place; the snapshot otherwise stays
        // well formed, so only the ordering check can refuse it.
        let corrupt = |mut bytes: Vec<u8>| {
            let at = bytes
                .windows(sorted.len())
                .position(|w| w == sorted.as_slice())
                .expect("the lag table is in the snapshot");
            bytes[at..at + sorted.len()].copy_from_slice(&swapped);
            bytes
        };
        let lagged = |faults: &mut ChannelFaults| {
            faults.set_link_lag(b.0, b.1, b.2);
            faults.set_link_lag(a.0, a.1, a.2);
        };
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter::default()
        });
        lagged(sim.faults_mut());
        let bytes = sim.checkpoint().unwrap();
        assert!(Simulator::<Chatter>::restore(&bytes).is_ok());
        assert_eq!(
            Simulator::<Chatter>::restore(&corrupt(bytes)).unwrap_err(),
            CheckpointError::Corrupt("link lag table out of order")
        );
        let mut tiled = TiledSim::new(
            triangle_topology(),
            RadioConfig::lossless(),
            1,
            2,
            1,
            |_| Chatter::default(),
        );
        lagged(tiled.faults_mut());
        let bytes = tiled.checkpoint().unwrap();
        assert!(TiledSim::<Chatter>::restore(&bytes).is_ok());
        assert_eq!(
            TiledSim::<Chatter>::restore(&corrupt(bytes)).unwrap_err(),
            CheckpointError::Corrupt("link lag table out of order")
        );
    }

    /// A two-node world just after start: node 0's ping to the dormant
    /// node 1 is in flight (payload 0 live, one delivery queued) and
    /// node 0 holds one timer.
    fn snapshot_world() -> Simulator<Chatter> {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 1,
            ..Chatter::default()
        });
        sim.set_dormant(NodeId(1));
        sim.run_until(SimTime::from_micros(1));
        sim.life.set_timer::<PayloadId>(0, NodeId(0), TimerToken(1));
        assert!(Simulator::<Chatter>::restore(&sim.checkpoint().unwrap()).is_ok());
        sim
    }

    fn refusal(bytes: &[u8]) -> CheckpointError {
        Simulator::<Chatter>::restore(bytes).map(drop).unwrap_err()
    }

    #[test]
    fn restore_rejects_queued_events_it_cannot_run() {
        use CheckpointError::Corrupt;
        let deliver = |to, from, msg| EventKind::Deliver {
            to: NodeId(to),
            from: NodeId(from),
            msg: PayloadId(msg),
        };
        let cases = [
            (
                EventKind::Crash { node: NodeId(99) },
                Corrupt("queued event its holder cannot run"),
            ),
            (
                deliver(0, 99, 0),
                Corrupt("queued event its holder cannot run"),
            ),
            (
                EventKind::Timer {
                    node: NodeId(0),
                    token: 1,
                    id: 99 << 32,
                },
                Corrupt("queued event its holder cannot run"),
            ),
            (
                deliver(0, 1, 99),
                Corrupt("queued deliveries disagree with the payload arena"),
            ),
            (
                deliver(0, 1, 0),
                Corrupt("queued deliveries disagree with the payload arena"),
            ),
        ];
        for (event, refused) in cases {
            let mut sim = snapshot_world();
            sim.queue.schedule(SimTime::from_millis(5), event);
            assert_eq!(refusal(&sim.checkpoint().unwrap()), refused);
        }
        // A runnable event, but dated before the snapshot's clock.
        let mut sim = snapshot_world();
        sim.queue
            .schedule(SimTime::ZERO, EventKind::Crash { node: NodeId(0) });
        assert_eq!(
            refusal(&sim.checkpoint().unwrap()),
            Corrupt("queued event before the clock")
        );
    }

    #[test]
    fn restore_rejects_per_node_ledgers_of_the_wrong_length() {
        let mut sim = snapshot_world();
        sim.metrics.tx_per_node.pop();
        let short_metrics = sim.checkpoint().unwrap();
        let mut sim = snapshot_world();
        sim.energy = EnergyBook::new(3, EnergyModel::default());
        let long_energy = sim.checkpoint().unwrap();
        for bytes in [short_metrics, long_energy] {
            assert_eq!(
                refusal(&bytes),
                CheckpointError::Corrupt("population size mismatch")
            );
        }
    }

    #[test]
    fn restore_rejects_inconsistent_lifecycle_and_timers() {
        use crate::lifecycle::crafted;
        let sim = snapshot_world();
        let bytes = sim.checkpoint().unwrap();
        let both = crafted::splice(
            &bytes,
            &crafted::liveness(&sim.life),
            &crafted::alive_and_dormant(2),
        );
        assert_eq!(
            refusal(&both),
            CheckpointError::Corrupt("node in no lifecycle state")
        );
        let timers = crafted::timers(&sim.life);
        for (section, refused) in crafted::bad_timers(2) {
            assert_eq!(
                refusal(&crafted::splice(&bytes, &timers, &section)),
                refused
            );
        }
    }
}
