//! Event-engine microbenchmark: events/sec and per-event allocation
//! counts for the broadcast-dominated workload of the paper's target
//! regime (dense clusters, inline 32-word digest payloads).
//!
//! Each scenario places `n` nodes uniformly in a square sized for a
//! target mean degree, then runs a beaconing actor that broadcasts a
//! 32-word digest every epoch, sets a round-timeout timer and cancels
//! it on the first copy heard — exercising all three hot paths of the
//! engine (schedule/pop, timer set/cancel, payload fan-out).
//!
//! Writes `BENCH_engine.json`. With `--check` it first reads the
//! committed JSON and asserts that the fresh N=1k/degree≈20 run is no
//! worse than 0.8× the committed `smoke_baseline_events_per_sec`
//! (machine-dependent; the committed value is from the repo's CI-class
//! container, so the 0.8× margin absorbs runner variance).
//!
//! Usage: `cargo run --release -p cbfd-bench --bin bench_engine [--check]`

use cbfd_net::geometry::Rect;
use cbfd_net::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A `System` wrapper that counts heap allocations, so the report can
/// state allocations **per simulated event** honestly.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

thread_local! {
    /// Deep clones of broadcast payloads, counted from `Clone` itself:
    /// the engine is the only thing that could clone a `Digest` here,
    /// so a non-zero count means the broadcast path still copies.
    static PAYLOAD_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A payload shaped like the FDS digest messages since the
/// roster-bitmap layout: 32 words inline, no heap indirection, so a
/// broadcast allocates nothing beyond the engine's own bookkeeping.
#[derive(Debug)]
struct Digest {
    words: [u64; 32],
}

impl Clone for Digest {
    fn clone(&self) -> Self {
        PAYLOAD_CLONES.with(|c| c.set(c.get() + 1));
        Digest { words: self.words }
    }
}

const EPOCH: TimerToken = TimerToken(1);
const ROUND_TIMEOUT: TimerToken = TimerToken(2);
const EPOCH_MS: u64 = 100;

/// Broadcasts a digest every epoch; arms a round timeout and cancels
/// it on the first copy heard that epoch (cancel-heavy, like the FDS
/// "no news is good news" suppression).
struct Beacon {
    me: NodeId,
    heard_this_epoch: bool,
}

impl Actor for Beacon {
    type Msg = Digest;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Digest>) {
        // Stagger epochs by node id so transmissions spread over time.
        let phase = (self.me.0 as u64) % EPOCH_MS;
        ctx.set_timer(SimDuration::from_millis(EPOCH_MS + phase), EPOCH);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Digest>, _from: NodeId, _msg: &Digest) {
        if !self.heard_this_epoch {
            self.heard_this_epoch = true;
            ctx.cancel_timer(ROUND_TIMEOUT);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Digest>, token: TimerToken) {
        if token == EPOCH {
            self.heard_this_epoch = false;
            ctx.broadcast(Digest {
                words: [self.me.0 as u64; 32],
            });
            ctx.set_timer(SimDuration::from_millis(EPOCH_MS / 2), ROUND_TIMEOUT);
            ctx.set_timer(SimDuration::from_millis(EPOCH_MS), EPOCH);
        }
        // ROUND_TIMEOUT firing is just an event; nothing to do.
    }
}

struct Scenario {
    n: usize,
    target_degree: f64,
    loss_p: f64,
    epochs: u64,
    /// Sources given a chaos-style per-link lag on their first
    /// neighbour link. Any non-zero count makes every transmission in
    /// the network consult the link-lag structure, so this measures
    /// the lookup's cost on the hot path, not the lag itself.
    lagged_sources: usize,
}

struct Measurement {
    n: usize,
    target_degree: f64,
    mean_degree: f64,
    loss_p: f64,
    epochs: u64,
    lagged_sources: usize,
    events: u64,
    seconds: f64,
    events_per_sec: f64,
    allocs_per_event: f64,
    payload_clones: u64,
}

/// Square side giving mean unit-disk degree ≈ `target` for `n` nodes
/// with radio range `r`: degree ≈ (n−1)·πr²/side².
fn side_for_degree(n: usize, r: f64, target: f64) -> f64 {
    (((n - 1) as f64) * std::f64::consts::PI * r * r / target).sqrt()
}

fn run_scenario(s: &Scenario) -> Measurement {
    const RANGE: f64 = 100.0;
    let side = side_for_degree(s.n, RANGE, s.target_degree);
    let mut rng = StdRng::seed_from_u64(0xB37C);
    let pts = Placement::UniformRect(Rect::square(side)).generate(s.n, &mut rng);
    let topology = Topology::from_positions(pts, RANGE);
    let mean_degree = topology.mean_degree();
    let lag_links: Vec<(NodeId, NodeId)> = match s.n.checked_div(s.lagged_sources) {
        Some(stride) => topology
            .node_ids()
            .step_by(stride.max(1))
            .take(s.lagged_sources)
            .filter_map(|id| topology.neighbors(id).first().map(|&to| (id, to)))
            .collect(),
        None => Vec::new(),
    };

    let mut sim = Simulator::new(
        topology,
        RadioConfig::bernoulli(s.loss_p).with_jitter(SimDuration::from_micros(500)),
        7,
        |me| Beacon {
            me,
            heard_this_epoch: false,
        },
    );
    for &(lag_from, lag_to) in &lag_links {
        sim.faults_mut()
            .set_link_lag(lag_from, lag_to, SimDuration::from_millis(3));
    }
    // A sprinkle of crashes keeps the dead-receiver path warm.
    for k in 0..(s.n / 100).max(1) {
        sim.schedule_crash(
            NodeId((k * 97 % s.n) as u32),
            SimTime::from_millis(EPOCH_MS * (2 + k as u64 % s.epochs.max(1))),
        );
    }

    PAYLOAD_CLONES.with(|c| c.set(0));
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let started = Instant::now();
    sim.run_until(SimTime::from_millis(EPOCH_MS * (s.epochs + 1)));
    let seconds = started.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let clones = PAYLOAD_CLONES.with(|c| c.get());

    let m = sim.metrics();
    let events = m.deliveries + m.dropped_dead + m.timers_fired;
    Measurement {
        n: s.n,
        target_degree: s.target_degree,
        mean_degree,
        loss_p: s.loss_p,
        epochs: s.epochs,
        lagged_sources: s.lagged_sources,
        events,
        seconds,
        events_per_sec: events as f64 / seconds,
        allocs_per_event: allocs as f64 / events.max(1) as f64,
        payload_clones: clones,
    }
}

/// The committed reference throughput for the N=1k / degree≈20 cell,
/// measured on the repo's container. CI asserts fresh runs reach 0.8×.
fn committed_baseline() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_engine.json").ok()?;
    let key = "\"smoke_baseline_events_per_sec\":";
    let at = text.find(key)? + key.len();
    text[at..]
        .trim_start()
        .split([',', '\n', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let baseline = committed_baseline();

    let scenarios = [
        Scenario {
            n: 1_000,
            target_degree: 20.0,
            loss_p: 0.1,
            epochs: 20,
            lagged_sources: 0,
        },
        Scenario {
            n: 1_000,
            target_degree: 50.0,
            loss_p: 0.1,
            epochs: 10,
            lagged_sources: 0,
        },
        Scenario {
            n: 4_000,
            target_degree: 20.0,
            loss_p: 0.1,
            epochs: 8,
            lagged_sources: 0,
        },
        // Same cell as above with per-link lags installed on 1% of
        // sources: isolates the cost of the link-lag lookup every
        // surviving copy must make once any lag exists.
        Scenario {
            n: 4_000,
            target_degree: 20.0,
            loss_p: 0.1,
            epochs: 8,
            lagged_sources: 40,
        },
        Scenario {
            n: 10_000,
            target_degree: 10.0,
            loss_p: 0.1,
            epochs: 5,
            lagged_sources: 0,
        },
    ];

    let mut rows = Vec::new();
    let mut smoke: Option<&Measurement> = None;
    let results: Vec<Measurement> = scenarios.iter().map(run_scenario).collect();
    for m in &results {
        println!(
            "N={:<6} degree {:5.1} (target {:4.1}){}  {:>9} events  {:8.3} s  {:>10.0} ev/s  \
             {:5.2} allocs/ev  {} payload clones",
            m.n,
            m.mean_degree,
            m.target_degree,
            if m.lagged_sources > 0 {
                " lagged"
            } else {
                "       "
            },
            m.events,
            m.seconds,
            m.events_per_sec,
            m.allocs_per_event,
            m.payload_clones
        );
        rows.push(format!(
            "    {{ \"n\": {}, \"target_degree\": {}, \"mean_degree\": {:.2}, \"loss_p\": {}, \
             \"epochs\": {}, \"lagged_sources\": {}, \"events\": {}, \"seconds\": {:.4}, \
             \"events_per_sec\": {:.0}, \"allocs_per_event\": {:.3}, \"payload_clones\": {} }}",
            m.n,
            m.target_degree,
            m.mean_degree,
            m.loss_p,
            m.epochs,
            m.lagged_sources,
            m.events,
            m.seconds,
            m.events_per_sec,
            m.allocs_per_event,
            m.payload_clones
        ));
        if m.n == 1_000 && m.target_degree == 20.0 {
            smoke = Some(m);
        }
    }

    let smoke = smoke.expect("smoke scenario present");
    if check {
        let base = baseline.expect("--check needs a committed BENCH_engine.json baseline");
        let floor = 0.8 * base;
        assert!(
            smoke.events_per_sec >= floor,
            "engine regression: {:.0} ev/s at N=1k/deg20 is below 0.8x the committed \
             baseline of {base:.0} ev/s",
            smoke.events_per_sec
        );
        println!(
            "smoke check passed: {:.0} ev/s >= 0.8 x {base:.0} ev/s",
            smoke.events_per_sec
        );
    }

    // Preserve the committed baseline (the regression anchor) rather
    // than overwriting it with this machine's number; seed it from the
    // current run when absent.
    let committed = baseline.unwrap_or(smoke.events_per_sec);
    let json = format!(
        "{{\n  \"benchmark\": \"event_engine\",\n  \
         \"workload\": \"staggered digest beacons, 32-word inline payloads, cancel-heavy timers\",\n  \
         \"smoke_baseline_events_per_sec\": {committed:.0},\n  \
         \"smoke_scenario\": \"n=1000 target_degree=20\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json");
}
