//! Benchmark-side instrumentation, applied from outside the library:
//! a timing wrapper around `FdsNode`'s public `Actor` impl, a counting
//! allocator, and `FdsHost` adapters so `Experiment::evaluate_host`
//! can score engines that run the wrapper.

use cbfd_core::message::FdsMsg;
use cbfd_core::node::FdsNode;
use cbfd_core::service::FdsHost;
use cbfd_net::actor::{Actor, Ctx, TimerToken};
use cbfd_net::id::NodeId;
use cbfd_net::metrics::SimMetrics;
use cbfd_net::sim::Simulator;
use cbfd_net::tiled::TiledSim;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Protocol stages timed by [`TimedNode`]: one per `FdsMsg` kind, then
/// timer firings, then the start/leave/rejoin hooks.
pub const STAGES: [&str; 12] = [
    "heartbeat",
    "digest",
    "health_update",
    "forward_request",
    "peer_forward",
    "peer_ack",
    "report",
    "leave_notice",
    "rejoin",
    "sleep_notice",
    "timer",
    "lifecycle",
];
const TIMER: usize = 10;
const LIFECYCLE: usize = 11;

/// Every call is counted; one call in `SAMPLE_EVERY` per node and
/// stage is timed. Timing every call costs two clock reads per
/// sub-microsecond heartbeat and inflates the run it measures.
const SAMPLE_EVERY: u32 = 8;

fn stage_of(msg: &FdsMsg) -> usize {
    match msg {
        FdsMsg::Heartbeat { .. } => 0,
        FdsMsg::Digest(_) => 1,
        FdsMsg::HealthUpdate(_) => 2,
        FdsMsg::ForwardRequest { .. } => 3,
        FdsMsg::PeerForward { .. } => 4,
        FdsMsg::PeerAck { .. } => 5,
        FdsMsg::Report(_) => 6,
        FdsMsg::LeaveNotice { .. } => 7,
        FdsMsg::Rejoin { .. } => 8,
        FdsMsg::SleepNotice { .. } => 9,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    calls: u32,
    sampled: u32,
    sampled_ns: u64,
}

/// `FdsNode` behind a per-stage call counter and sampled timer. It
/// only delegates, so a run with it is event-for-event the run
/// without it.
pub struct TimedNode {
    pub inner: FdsNode,
    slots: [Slot; STAGES.len()],
}

impl TimedNode {
    pub fn new(inner: FdsNode) -> Self {
        TimedNode {
            inner,
            slots: [Slot::default(); STAGES.len()],
        }
    }

    fn timed(&mut self, stage: usize, f: impl FnOnce(&mut FdsNode)) {
        let slot = &mut self.slots[stage];
        let sample = slot.calls.is_multiple_of(SAMPLE_EVERY);
        slot.calls += 1;
        if sample {
            let started = Instant::now();
            f(&mut self.inner);
            let ns = started.elapsed().as_nanos() as u64;
            let slot = &mut self.slots[stage];
            slot.sampled += 1;
            slot.sampled_ns += ns;
        } else {
            f(&mut self.inner);
        }
    }
}

impl Actor for TimedNode {
    type Msg = FdsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.timed(LIFECYCLE, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FdsMsg>, from: NodeId, msg: &FdsMsg) {
        self.timed(stage_of(msg), |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FdsMsg>, token: TimerToken) {
        self.timed(TIMER, |n| n.on_timer(ctx, token));
    }

    fn on_leave(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.timed(LIFECYCLE, |n| n.on_leave(ctx));
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.timed(LIFECYCLE, |n| n.on_rejoin(ctx));
    }
}

/// Per-stage totals over every node of a run.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub calls: [u64; STAGES.len()],
    sampled: [u64; STAGES.len()],
    sampled_ns: [u64; STAGES.len()],
}

impl StageTimes {
    pub fn collect<'a>(nodes: impl Iterator<Item = &'a TimedNode>) -> Self {
        let mut t = StageTimes::default();
        for node in nodes {
            for (k, slot) in node.slots.iter().enumerate() {
                t.calls[k] += slot.calls as u64;
                t.sampled[k] += slot.sampled as u64;
                t.sampled_ns[k] += slot.sampled_ns;
            }
        }
        t
    }

    /// Estimated busy seconds of `stage`: the sampled mean per call
    /// times the exact call count.
    pub fn busy_s(&self, stage: usize) -> f64 {
        if self.sampled[stage] == 0 {
            return 0.0;
        }
        self.sampled_ns[stage] as f64 * self.calls[stage] as f64 / self.sampled[stage] as f64 / 1e9
    }

    pub fn ns_per_call(&self, stage: usize) -> f64 {
        if self.sampled[stage] == 0 {
            0.0
        } else {
            self.sampled_ns[stage] as f64 / self.sampled[stage] as f64
        }
    }

    pub fn total_busy_s(&self) -> f64 {
        (0..STAGES.len()).map(|k| self.busy_s(k)).sum()
    }

    /// Calls that consumed a delivered message.
    pub fn message_calls(&self) -> u64 {
        self.calls[..TIMER].iter().sum()
    }

    pub fn timer_calls(&self) -> u64 {
        self.calls[TIMER]
    }
}

/// `System` behind an allocation counter that only counts while
/// [`count_allocs`] runs, so untraced runs pay one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the heap allocations it made.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// [`FdsHost`] over a tiled engine running [`TimedNode`]s.
pub struct TimedTiled<'a>(pub &'a TiledSim<TimedNode>);

/// [`FdsHost`] over a legacy engine running [`TimedNode`]s.
pub struct TimedLegacy<'a>(pub &'a Simulator<TimedNode>);

impl FdsHost for TimedTiled<'_> {
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_> {
        Box::new(self.0.actors().map(|(id, n)| (id, &n.inner)))
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.0.is_alive(node)
    }
    fn has_departed(&self, node: NodeId) -> bool {
        self.0.has_departed(node)
    }
    fn metrics_snapshot(&self) -> SimMetrics {
        self.0.metrics()
    }
    fn energy_imbalance(&self) -> f64 {
        self.0.energy_imbalance()
    }
}

impl FdsHost for TimedLegacy<'_> {
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_> {
        Box::new(self.0.actors().map(|(id, n)| (id, &n.inner)))
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.0.is_alive(node)
    }
    fn has_departed(&self, node: NodeId) -> bool {
        self.0.has_departed(node)
    }
    fn metrics_snapshot(&self) -> SimMetrics {
        self.0.metrics().clone()
    }
    fn energy_imbalance(&self) -> f64 {
        self.0.energy().imbalance()
    }
}
