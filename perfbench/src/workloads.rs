//! The three workloads. Every input — placement, victims, fault plan,
//! engine seed — is derived from the workload seed; the library only
//! ever sees the generated inputs, through its public API.

use crate::probe::{count_allocs, StageTimes, TimedLegacy, TimedNode, TimedTiled};
use cbfd_chaos::campaign::{self, CampaignConfig};
use cbfd_chaos::Monitor;
use cbfd_cluster::{oracle, Cluster, FormationConfig, Role};
use cbfd_core::config::{DetectionMode, FdsConfig};
use cbfd_core::node::FdsNode;
use cbfd_core::profile::build_profiles;
use cbfd_core::service::{Experiment, FdsHost, FdsOutcome, PlannedCrash};
use cbfd_net::chaos::{self as plan_runner, FaultPlan, FaultPrimitive};
use cbfd_net::energy::EnergyModel;
use cbfd_net::geometry::Rect;
use cbfd_net::id::NodeId;
use cbfd_net::placement::Placement;
use cbfd_net::radio::RadioConfig;
use cbfd_net::rng::derive_seed;
use cbfd_net::sim::Simulator;
use cbfd_net::tiled::{suggested_grid, BarrierBreakdown, TiledSim};
use cbfd_net::time::{SimDuration, SimTime};
use cbfd_net::topology::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Radio range (m) of every field.
const RANGE: f64 = 100.0;
/// Mean unit-disk degree of every field.
const DEGREE: f64 = 25.0;
/// Nodes per tile handed to `suggested_grid`.
const NODES_PER_TILE: usize = 1000;

const SALT_PLACEMENT: u64 = 1;
const SALT_VICTIMS: u64 = 2;
const SALT_ENGINE: u64 = 3;
const SALT_PLAN: u64 = 4;

/// A field of the tiled workloads: its size, channel and crash plan.
pub struct TiledSpec {
    /// Independent fields a run measures and pools.
    pub instances: usize,
    pub n: usize,
    pub p: f64,
    pub epochs: u64,
    /// Members crashed together in epoch `wave_epoch`, one per cluster.
    pub wave: usize,
    pub wave_epoch: u64,
    /// Per-epoch crashes in the epochs after the wave; every other one
    /// is a clusterhead, so deputy takeover is exercised.
    pub trickle: usize,
    pub trickle_epochs: u64,
}

/// The chaos workload: a warm quiet prefix is checkpointed, then a
/// scripted fault plan runs forked from it under the Monitor.
pub struct ChaosSpec {
    /// Independent fields a run measures and pools.
    pub instances: usize,
    pub n: usize,
    pub p: f64,
    pub warm: u64,
    pub epochs: u64,
    pub stride: u64,
    pub crashes: usize,
    pub leavers: usize,
}

impl TiledSpec {
    fn has_crashes(&self) -> bool {
        self.wave + self.trickle * self.trickle_epochs as usize > 0
    }
}

/// Three fields, not one of three times the size: about one seed in ten
/// makes a false detection, and its network-wide dissemination adds a
/// share of the bytes and peak memory that grows with the field. Split
/// three ways, it moves the run's figures by a third as much.
pub const STEADY_FIELD: TiledSpec = TiledSpec {
    instances: 3,
    n: 16_000,
    p: 0.01,
    epochs: 6,
    wave: 0,
    wave_epoch: 0,
    trickle: 0,
    trickle_epochs: 0,
};

pub const CRASH_STORM: TiledSpec = TiledSpec {
    instances: 3,
    n: 4_000,
    p: 0.01,
    epochs: 10,
    wave: 20,
    wave_epoch: 2,
    trickle: 4,
    trickle_epochs: 4,
};

pub const CHAOS_FORK: ChaosSpec = ChaosSpec {
    instances: 3,
    n: 1000,
    p: 0.05,
    warm: 4,
    epochs: 28,
    stride: 64,
    crashes: 6,
    leavers: 3,
};

/// Deterministic counters of one run: equal across repetitions,
/// worker counts and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub transmissions: u64,
    pub deliveries: u64,
    pub losses: u64,
    pub dropped_dead: u64,
    pub timers_fired: u64,
    /// Copies the radio offered: each transmission times the sender's
    /// neighbour count.
    pub offered: u64,
    pub bytes: u64,
    pub ledger_ops: u64,
}

impl Counters {
    fn of(outcome: &FdsOutcome, topology: &Topology) -> Self {
        let m = &outcome.metrics;
        let offered = m
            .tx_per_node
            .iter()
            .enumerate()
            .map(|(i, tx)| tx * topology.degree(NodeId(i as u32)) as u64)
            .sum();
        Counters {
            events: m.deliveries + m.dropped_dead + m.timers_fired,
            transmissions: m.transmissions,
            deliveries: m.deliveries,
            losses: m.losses,
            dropped_dead: m.dropped_dead,
            timers_fired: m.timers_fired,
            offered,
            bytes: outcome.bytes,
            ledger_ops: outcome.ledger_ops,
        }
    }
}

/// Crash-to-knowledge latencies in epochs, scored from a finished engine.
#[derive(Debug, Clone, Default)]
pub struct CrashStats {
    pub crashes: usize,
    /// Crash → first authority verdict, per detected crash.
    pub detect: Vec<u64>,
    /// Crash → `known_since`, per informed (operational observer, crash) pair.
    pub inform: Vec<u64>,
    /// Crash → the last operational observer's `known_since`, per crash
    /// that every operational observer learned of.
    pub inform_all: Vec<u64>,
    /// (operational observer, crash) pairs owed a notification.
    pub owed: u64,
    pub missed: u64,
}

fn crash_stats(
    host: &impl FdsHost,
    outcome: &FdsOutcome,
    crash_epochs: &BTreeMap<NodeId, u64>,
) -> CrashStats {
    // The same obligation `Experiment::evaluate_host` scores: victims
    // still down at the end, owed to every operational affiliated node.
    let victims: Vec<(NodeId, u64)> = crash_epochs
        .iter()
        .map(|(&v, &e)| (v, e))
        .filter(|&(v, _)| !host.is_alive(v) && !host.has_departed(v))
        .collect();
    let mut stats = CrashStats {
        crashes: crash_epochs.len(),
        detect: outcome.detection_latency.values().copied().collect(),
        ..CrashStats::default()
    };
    let mut last: Vec<Option<u64>> = vec![Some(0); victims.len()];
    for (id, node) in host.actors() {
        if !host.is_alive(id) || node.profile().cluster.is_none() {
            continue;
        }
        for (k, &(v, crashed_at)) in victims.iter().enumerate() {
            if v == id {
                continue;
            }
            stats.owed += 1;
            match node.known_failed().known_since(v) {
                Some(e) => {
                    let latency = e.saturating_sub(crashed_at);
                    stats.inform.push(latency);
                    last[k] = last[k].map(|l| l.max(latency));
                }
                None => {
                    stats.missed += 1;
                    last[k] = None;
                }
            }
        }
    }
    stats.inform_all = last.into_iter().flatten().collect();
    stats
}

/// One repetition of a workload's measured phase.
pub struct Rep {
    pub setup_s: f64,
    /// Engine run plus evaluation: the phase `member_epochs_per_s` times.
    pub run_s: f64,
    /// Affiliated non-head members × epochs run in the measured phase.
    pub member_epochs_run: u64,
    pub outcome: FdsOutcome,
    pub counters: Counters,
    pub crash: CrashStats,
    pub breakdown: Option<BarrierBreakdown>,
    pub hard_violations: Vec<String>,
}

/// Spans and counts of a traced repetition, recorded around calls into
/// each layer's public functions.
#[derive(Default)]
pub struct Spans {
    pub topology_build_s: f64,
    pub formation_s: f64,
    pub engine_build_s: f64,
    /// The engine's `run_until`: the parent span of the window phases
    /// and of every protocol-stage call.
    pub engine_run_s: f64,
    pub evaluate_s: f64,
    pub clusters: usize,
    pub singleton_clusters: usize,
    pub stages: StageTimes,
    pub allocs: u64,
    pub clone_ops: u64,
    pub breakdown: Option<BarrierBreakdown>,
}

struct Field {
    exp: Experiment,
    members: u64,
    topology_s: f64,
    formation_s: f64,
}

fn side_for_degree(n: usize) -> f64 {
    (((n - 1) as f64) * std::f64::consts::PI * RANGE * RANGE / DEGREE).sqrt()
}

/// Builds a seeded uniform field. With `connected`, placements are
/// redrawn until the cluster backbone is one component: a node cut off
/// from the backbone can never learn of a crash elsewhere, which says
/// nothing about the protocol (the paper assumes a connected network).
fn build_field(n: usize, seed: u64, connected: bool) -> Field {
    let mut topology_s = 0.0;
    let mut formation_s = 0.0;
    for attempt in 0.. {
        let started = Instant::now();
        let mut rng =
            StdRng::seed_from_u64(derive_seed(derive_seed(seed, SALT_PLACEMENT), attempt));
        let points = Placement::UniformRect(Rect::square(side_for_degree(n))).generate(n, &mut rng);
        let topology = Topology::from_positions(points, RANGE);
        topology_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let exp = Experiment::new(topology, FdsConfig::default(), FormationConfig::default());
        formation_s += started.elapsed().as_secs_f64();
        if !connected || backbone_connected(&exp) {
            return Field {
                members: members_of(&exp),
                exp,
                topology_s,
                formation_s,
            };
        }
    }
    unreachable!("placement attempts are unbounded")
}

fn backbone_connected(exp: &Experiment) -> bool {
    exp.view().backbone_components().len() == 1
}

fn members_of(exp: &Experiment) -> u64 {
    exp.view().clusters().map(|c| c.len() as u64 - 1).sum()
}

/// Re-times `chaos_fork`'s field build, which
/// `campaign::build_experiment` does in one call: the topology from the
/// same positions, then oracle formation over it.
pub fn field_spans(exp: &Experiment) -> (f64, f64) {
    let started = Instant::now();
    let topology = Topology::from_positions(exp.topology().positions().to_vec(), RANGE);
    let topology_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let view = oracle::form(&topology, &FormationConfig::default());
    let formation_s = started.elapsed().as_secs_f64();
    assert_eq!(view.cluster_count(), exp.view().cluster_count());
    (topology_s, formation_s)
}

fn cluster_counts(exp: &Experiment) -> (usize, usize) {
    let singletons = exp.view().clusters().filter(|c| c.len() == 1).count();
    (exp.view().cluster_count(), singletons)
}

/// Clusters whose crashes the paper's protocol can detect, in seeded
/// random order: a single-member cluster has nobody to judge its head.
fn eligible_clusters<'a>(exp: &'a Experiment, rng: &mut StdRng) -> Vec<&'a Cluster> {
    let mut clusters: Vec<&Cluster> = exp.view().clusters().filter(|c| c.len() >= 2).collect();
    for i in (1..clusters.len()).rev() {
        let j = rng.random_range(0..i + 1);
        clusters.swap(i, j);
    }
    clusters
}

/// An ordinary member of `cluster`, if it has one: a node that is
/// neither head, deputy nor (backup) gateway, so its crash leaves the
/// cluster's judge and its inter-cluster links in place.
fn ordinary_member(exp: &Experiment, cluster: &Cluster, rng: &mut StdRng) -> Option<NodeId> {
    let members: Vec<NodeId> = cluster
        .non_head_members()
        .filter(|&m| exp.view().role_of(m) == Role::Ordinary)
        .collect();
    (!members.is_empty()).then(|| members[rng.random_range(0..members.len())])
}

/// The head of `cluster`, if its first deputy hears every other member
/// and so can take the whole cluster over.
fn replaceable_head(exp: &Experiment, cluster: &Cluster) -> Option<NodeId> {
    let deputy = cluster.first_deputy()?;
    let heard = exp.topology().neighbors(deputy);
    cluster
        .non_head_members()
        .all(|m| m == deputy || heard.contains(&m))
        .then(|| cluster.head())
}

/// The crash plan of a tiled workload: at most one victim per cluster,
/// ordinary members, and clusterheads only where a deputy can take the
/// whole cluster over.
fn pick_victims(exp: &Experiment, spec: &TiledSpec, seed: u64) -> Vec<PlannedCrash> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_VICTIMS));
    let mut clusters = eligible_clusters(exp, &mut rng).into_iter();
    let mut crashes = Vec::new();
    let mut take = |epoch: u64, head: bool, rng: &mut StdRng| {
        let node = clusters
            .by_ref()
            .find_map(|c| {
                if head {
                    replaceable_head(exp, c)
                } else {
                    ordinary_member(exp, c, rng)
                }
            })
            .expect("the field has a detectable victim for every planned crash");
        crashes.push(PlannedCrash { epoch, node });
    };
    for _ in 0..spec.wave {
        take(spec.wave_epoch, false, &mut rng);
    }
    for e in 0..spec.trickle_epochs {
        for j in 0..spec.trickle {
            take(spec.wave_epoch + 1 + e, j % 2 == 0, &mut rng);
        }
    }
    crashes
}

fn phi() -> SimDuration {
    FdsConfig::default().heartbeat_interval
}

fn epoch_start(e: u64) -> SimTime {
    SimTime::ZERO + phi() * e
}

fn mid_epoch(e: u64) -> SimTime {
    epoch_start(e) + SimDuration::from_micros(phi().as_micros() / 2)
}

/// Stop just before epoch `epochs` would begin, as `Experiment` does.
fn deadline(epochs: u64) -> SimTime {
    epoch_start(epochs) - SimDuration::from_micros(1)
}

/// Schedules `crashes` mid-epoch, as `Experiment::run` does, and
/// returns the ground-truth crash epochs.
fn schedule_crashes<A: cbfd_net::actor::Actor>(
    sim: &mut TiledSim<A>,
    crashes: &[PlannedCrash],
) -> BTreeMap<NodeId, u64> {
    let mut crash_epochs = BTreeMap::new();
    for c in crashes {
        sim.schedule_crash(c.node, mid_epoch(c.epoch));
        crash_epochs.entry(c.node).or_insert(c.epoch);
    }
    crash_epochs
}

fn grid(spec: &TiledSpec) -> (u32, u32) {
    suggested_grid(spec.n, NODES_PER_TILE)
}

/// One untraced repetition of a tiled workload on `workers` threads.
pub fn tiled_rep(spec: &TiledSpec, seed: u64, workers: usize) -> Rep {
    let started = Instant::now();
    let field = build_field(spec.n, seed, spec.has_crashes());
    let crashes = pick_victims(&field.exp, spec, seed);
    let (gx, gy) = grid(spec);
    let radio = RadioConfig::bernoulli(spec.p);
    let mut sim = field
        .exp
        .build_tiled_sim(radio, derive_seed(seed, SALT_ENGINE), gx, gy);
    sim.set_workers(workers);
    let crash_epochs = schedule_crashes(&mut sim, &crashes);
    let setup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    sim.run_until(deadline(spec.epochs));
    let outcome = field.exp.evaluate_host(&sim, spec.epochs, &crash_epochs);
    let run_s = started.elapsed().as_secs_f64();

    let crash = crash_stats(&sim, &outcome, &crash_epochs);
    Rep {
        setup_s,
        run_s,
        member_epochs_run: field.members * spec.epochs,
        counters: Counters::of(&outcome, field.exp.topology()),
        outcome,
        crash,
        breakdown: Some(sim.barrier_breakdown()),
        hard_violations: Vec::new(),
    }
}

/// One traced repetition of a tiled workload: one worker, protocol
/// stages timed by [`TimedNode`], allocations counted over the run.
pub fn tiled_traced(spec: &TiledSpec, seed: u64) -> (Rep, Spans) {
    let started = Instant::now();
    let field = build_field(spec.n, seed, spec.has_crashes());
    let crashes = pick_victims(&field.exp, spec, seed);
    let (gx, gy) = grid(spec);
    let radio = RadioConfig::bernoulli(spec.p);
    let build = Instant::now();
    let profiles = build_profiles(field.exp.view());
    let fds = FdsConfig::default();
    let capacity = EnergyModel::default().initial;
    let mut sim = TiledSim::new(
        field.exp.topology().clone(),
        radio,
        derive_seed(seed, SALT_ENGINE),
        gx,
        gy,
        |id: NodeId| TimedNode::new(FdsNode::new(profiles[id.index()].clone(), fds, capacity)),
    );
    sim.set_energy_model(EnergyModel::default());
    sim.set_workers(1);
    let crash_epochs = schedule_crashes(&mut sim, &crashes);
    let engine_build_s = build.elapsed().as_secs_f64();
    let setup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let ((), allocs) = count_allocs(|| sim.run_until(deadline(spec.epochs)));
    let engine_run_s = started.elapsed().as_secs_f64();
    let eval = Instant::now();
    let outcome = field
        .exp
        .evaluate_host(&TimedTiled(&sim), spec.epochs, &crash_epochs);
    let evaluate_s = eval.elapsed().as_secs_f64();
    let run_s = started.elapsed().as_secs_f64();

    let crash = crash_stats(&TimedTiled(&sim), &outcome, &crash_epochs);
    let (clusters, singleton_clusters) = cluster_counts(&field.exp);
    let spans = Spans {
        topology_build_s: field.topology_s,
        formation_s: field.formation_s,
        engine_build_s,
        engine_run_s,
        evaluate_s,
        clusters,
        singleton_clusters,
        stages: StageTimes::collect(sim.actors().map(|(_, n)| n)),
        allocs,
        clone_ops: sim.actors().map(|(_, n)| n.inner.clone_ops()).sum(),
        breakdown: Some(sim.barrier_breakdown()),
    };
    let rep = Rep {
        setup_s,
        run_s,
        member_epochs_run: field.members * spec.epochs,
        counters: Counters::of(&outcome, field.exp.topology()),
        outcome,
        crash,
        breakdown: spans.breakdown,
        hard_violations: Vec::new(),
    };
    (rep, spans)
}

// ------------------------------------------------------------ chaos

/// The campaign configuration `chaos_fork` builds its field and warm
/// prefix from.
fn chaos_config(spec: &ChaosSpec, seed: u64) -> CampaignConfig {
    CampaignConfig {
        plans: 1,
        nodes: spec.n,
        side: side_for_degree(spec.n),
        epochs: spec.epochs,
        master_seed: derive_seed(seed, SALT_ENGINE),
        stride: spec.stride,
        baseline_p: spec.p,
        max_primitives: 0,
        max_shrink_tests: 0,
        workers: 1,
        churn: true,
        fork_warm_epochs: spec.warm,
        fds: FdsConfig {
            detection_mode: DetectionMode::Adaptive,
            ..FdsConfig::default()
        },
    }
}

/// The scripted plan after the fork point `w`: a Gilbert–Elliott
/// blackout, an i.i.d. loss storm, a partition that heals, members
/// leaving and rejoining, and crashes staggered across all of it.
fn scripted_plan(exp: &Experiment, spec: &ChaosSpec, seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_PLAN));
    let w = spec.warm;
    let mut plan = FaultPlan::empty(spec.p, epoch_start(spec.epochs));
    plan.primitives.push(FaultPrimitive::BurstStorm {
        from: epoch_start(w + 1),
        until: epoch_start(w + 3),
        p_bad: 1.0,
        p_gb: 0.9,
        p_bg: 0.002,
    });
    plan.primitives.push(FaultPrimitive::LossStorm {
        from: epoch_start(w + 5),
        until: epoch_start(w + 8),
        p: 0.2,
    });
    plan.primitives.push(FaultPrimitive::Partition {
        from: epoch_start(w + 10),
        until: epoch_start(w + 12),
        groups: (0..spec.n).map(|_| rng.random_range(0..2u32)).collect(),
    });
    let clusters = eligible_clusters(exp, &mut rng);
    let mut next = clusters
        .into_iter()
        .filter_map(|c| ordinary_member(exp, c, &mut rng));
    for _ in 0..spec.leavers {
        let node = next
            .next()
            .expect("the field has an ordinary member for every leaver and victim");
        plan.primitives.push(FaultPrimitive::Leave {
            at: mid_epoch(w + 4),
            node,
        });
        plan.primitives.push(FaultPrimitive::Rejoin {
            at: mid_epoch(w + 9),
            node,
        });
    }
    // Crashes land after the blackout, inside and after the loss storm
    // and after the heal, each followed by enough epochs for the
    // adaptive detector to condemn it.
    let crash_epochs = [w + 3, w + 5, w + 7, w + 13, w + 13, w + 14];
    for k in 0..spec.crashes {
        let node = next
            .next()
            .expect("the field has an ordinary member for every leaver and victim");
        plan.primitives.push(FaultPrimitive::Crash {
            at: mid_epoch(crash_epochs[k % crash_epochs.len()]),
            node,
        });
    }
    plan
}

/// Ground-truth crash epochs of `plan`, as `Experiment::run_plan_on`
/// derives them for a run resumed at the fork point.
fn plan_crash_epochs(plan: &FaultPlan, spec: &ChaosSpec) -> BTreeMap<NodeId, u64> {
    let mut crash_epochs = BTreeMap::new();
    for (at, node) in plan.crash_schedule() {
        let at = at.max(epoch_start(spec.warm));
        let epoch = at.since(SimTime::ZERO).as_micros() / phi().as_micros();
        crash_epochs
            .entry(node)
            .or_insert(epoch.min(spec.epochs - 1));
    }
    crash_epochs
}

/// The inputs of `chaos_fork`, and the time taken to set them up.
pub struct ChaosSetup {
    pub exp: Experiment,
    pub config: CampaignConfig,
    pub checkpoint: Vec<u8>,
    pub plan: FaultPlan,
    pub setup_s: f64,
    pub members: u64,
}

pub fn chaos_setup(spec: &ChaosSpec, seed: u64) -> ChaosSetup {
    let started = Instant::now();
    // Redraw the campaign field until its backbone is connected, as
    // `build_field` does for the crash workloads.
    let (config, exp) = (0..)
        .map(|attempt| {
            let config = chaos_config(spec, derive_seed(seed, attempt));
            let exp = campaign::build_experiment(&config);
            (config, exp)
        })
        .find(|(_, exp)| backbone_connected(exp))
        .expect("placement attempts are unbounded");
    let checkpoint = campaign::warm_checkpoint(&exp, &config);
    let plan = scripted_plan(&exp, spec, seed);
    ChaosSetup {
        members: members_of(&exp),
        setup_s: started.elapsed().as_secs_f64(),
        exp,
        config,
        checkpoint,
        plan,
    }
}

/// One repetition of `chaos_fork`: restore the warm checkpoint, run the
/// plan under a Monitor with sweep stride `stride`, and score it — the
/// body of `campaign::run_monitored_forked`, kept inline so the
/// finished engine stays open to scoring.
pub fn chaos_rep(spec: &ChaosSpec, seed: u64, stride: u64) -> Rep {
    let s = chaos_setup(spec, seed);
    let started = Instant::now();
    let mut sim = Simulator::restore(&s.checkpoint).expect("warm checkpoint restores");
    let mut monitor = Monitor::new(s.exp.topology().clone(), s.exp.view().clone(), stride);
    let outcome = s
        .exp
        .run_plan_on(&mut sim, &s.plan, spec.epochs, &mut |sim, ev| {
            monitor.observe(sim, ev)
        });
    let run_s = started.elapsed().as_secs_f64();
    let crash_epochs = plan_crash_epochs(&s.plan, spec);
    let crash = crash_stats(&sim, &outcome, &crash_epochs);
    Rep {
        setup_s: s.setup_s,
        run_s,
        member_epochs_run: s.members * (spec.epochs - spec.warm),
        counters: Counters::of(&outcome, s.exp.topology()),
        outcome,
        crash,
        breakdown: None,
        hard_violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
    }
}

/// What the traced `chaos_fork` run measures besides the stage spans.
pub struct ChaosLayers {
    pub checkpoint_bytes: u64,
    pub checkpoint_write_s: f64,
    pub restore_s: f64,
    pub monitor_events: u64,
    pub monitor_sweeps: u64,
    /// Counters of `campaign::run_monitored_forked` at the given stride.
    pub campaign_counters: Counters,
}

/// Times checkpoint restore and write, and runs the plan once through
/// `campaign::run_monitored_forked` at `stride`.
pub fn chaos_layers(spec: &ChaosSpec, seed: u64, stride: u64) -> (ChaosLayers, f64) {
    let s = chaos_setup(spec, seed);
    let started = Instant::now();
    let sim: Simulator<FdsNode> =
        Simulator::restore(&s.checkpoint).expect("warm checkpoint restores");
    let restore_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let bytes = sim.checkpoint().expect("restored engine serializes");
    let checkpoint_write_s = started.elapsed().as_secs_f64();
    assert_eq!(
        bytes, s.checkpoint,
        "checkpoint round trip is byte-identical"
    );
    drop(sim);

    let started = Instant::now();
    let (outcome, monitor) =
        campaign::run_monitored_forked(&s.exp, &s.checkpoint, &s.plan, spec.epochs, stride);
    let run_s = started.elapsed().as_secs_f64();
    let layers = ChaosLayers {
        checkpoint_bytes: s.checkpoint.len() as u64,
        checkpoint_write_s,
        restore_s,
        monitor_events: monitor.events_seen(),
        monitor_sweeps: monitor.sweeps_run(),
        campaign_counters: Counters::of(&outcome, s.exp.topology()),
    };
    (layers, run_s)
}

/// The `chaos_fork` plan run without a fork: warm prefix and plan in
/// one engine, with or without stage timing. Its counters must equal
/// the forked run's, which checks the checkpoint round trip end to end.
pub fn chaos_continuous(spec: &ChaosSpec, seed: u64, timed: bool) -> (Rep, Spans) {
    let s = chaos_setup(spec, seed);
    let radio = RadioConfig::bernoulli(s.config.baseline_p);
    let crash_epochs = plan_crash_epochs(&s.plan, spec);
    let (clusters, singleton_clusters) = cluster_counts(&s.exp);
    let mut spans = Spans {
        clusters,
        singleton_clusters,
        ..Spans::default()
    };
    let rep = if timed {
        let build = Instant::now();
        let profiles = build_profiles(s.exp.view());
        let fds = s.config.fds;
        let capacity = EnergyModel::default().initial;
        let mut sim = Simulator::new(
            s.exp.topology().clone(),
            radio,
            s.config.master_seed,
            |id| TimedNode::new(FdsNode::new(profiles[id.index()].clone(), fds, capacity)),
        );
        sim.set_energy_model(EnergyModel::default());
        spans.engine_build_s = build.elapsed().as_secs_f64();
        let started = Instant::now();
        let ((), allocs) = count_allocs(|| {
            sim.run_until(epoch_start(spec.warm));
            plan_runner::run_plan(&mut sim, &s.plan, deadline(spec.epochs), &mut |_, _| {});
        });
        spans.engine_run_s = started.elapsed().as_secs_f64();
        spans.allocs = allocs;
        let eval = Instant::now();
        let outcome = s
            .exp
            .evaluate_host(&TimedLegacy(&sim), spec.epochs, &crash_epochs);
        spans.evaluate_s = eval.elapsed().as_secs_f64();
        let run_s = started.elapsed().as_secs_f64();
        spans.stages = StageTimes::collect(sim.actors().map(|(_, n)| n));
        spans.clone_ops = sim.actors().map(|(_, n)| n.inner.clone_ops()).sum();
        continuous_rep(&s, spec, outcome, run_s, &TimedLegacy(&sim), &crash_epochs)
    } else {
        let mut sim = s.exp.build_sim(radio, s.config.master_seed);
        let started = Instant::now();
        sim.run_until(epoch_start(spec.warm));
        plan_runner::run_plan(&mut sim, &s.plan, deadline(spec.epochs), &mut |_, _| {});
        let outcome = s.exp.evaluate(&sim, spec.epochs, &crash_epochs);
        let run_s = started.elapsed().as_secs_f64();
        continuous_rep(&s, spec, outcome, run_s, &sim, &crash_epochs)
    };
    (rep, spans)
}

fn continuous_rep(
    s: &ChaosSetup,
    spec: &ChaosSpec,
    outcome: FdsOutcome,
    run_s: f64,
    host: &impl FdsHost,
    crash_epochs: &BTreeMap<NodeId, u64>,
) -> Rep {
    Rep {
        setup_s: s.setup_s,
        run_s,
        member_epochs_run: s.members * spec.epochs,
        counters: Counters::of(&outcome, s.exp.topology()),
        crash: crash_stats(host, &outcome, crash_epochs),
        outcome,
        breakdown: None,
        hard_violations: Vec::new(),
    }
}
