//! Differential checkpoint suite: restore-then-run must be
//! **byte-identical** to an uninterrupted run.
//!
//! Every case draws a randomized churn workload — geometry, channel
//! loss, crashes, graceful leaves, rejoins with stale state, late
//! joins — runs it uninterrupted, and runs it again with a
//! checkpoint/restore interruption after a random number of events.
//! The verdict is the strongest possible: the *final checkpoint
//! bytes* of the two runs must be equal, which covers every actor's
//! protocol state, the event queue, the RNG, metrics, energy ledgers,
//! and the full trace in one comparison.
//!
//! The suite executes its cases through the deterministic sweep
//! runner at worker counts 1, 2 and max, asserting the per-case
//! digests are identical for every count.

use cbfd::core::config::DetectionMode;
use cbfd::core::node::FdsNode;
use cbfd::net::checkpoint::{CheckpointError, Persist, Reader, Writer};
use cbfd::net::par;
use cbfd::net::sim::Simulator;
use cbfd::net::tiled::TiledSim;
use cbfd::prelude::*;
use cbfd_cluster::FormationConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One randomized churn workload over one field.
struct ChurnCase {
    exp: Experiment,
    p: f64,
    epochs: u64,
    /// Node to keep dormant and join mid-run.
    joiner: Option<(NodeId, SimTime)>,
    crashes: Vec<(NodeId, SimTime)>,
    leaves: Vec<(NodeId, SimTime)>,
    rejoins: Vec<(NodeId, SimTime)>,
    /// Events to execute before the snapshot is taken.
    snapshot_after: usize,
    seed: u64,
}

fn build_case(seed: u64) -> ChurnCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let n = rng.random_range(20..=40usize);
    let side = rng.random_range(250.0..400.0);
    let pts = Placement::UniformRect(Rect::square(side)).generate(n, &mut rng);
    let topology = Topology::from_positions(pts, 100.0);
    // Odd seeds run the adaptive ◇P detector, so its per-link
    // estimators, suspicion log, and gossip bitmaps all go through the
    // snapshot/restore byte-identity verdict.
    let fds = FdsConfig {
        detection_mode: if seed % 2 == 1 {
            DetectionMode::Adaptive
        } else {
            DetectionMode::Fixed
        },
        ..FdsConfig::default()
    };
    let exp = Experiment::new(topology, fds, FormationConfig::default());
    let p = rng.random_range(0.0..0.25);
    let epochs = rng.random_range(4..=7u64);
    let phi = FdsConfig::default().heartbeat_interval;
    let horizon = phi.as_micros() * epochs;
    let instant =
        |rng: &mut StdRng| SimTime::from_micros(rng.random_range(horizon / 8..horizon * 3 / 4));

    let mut crashes = Vec::new();
    let mut leaves = Vec::new();
    let mut rejoins = Vec::new();
    for _ in 0..rng.random_range(1..=3u32) {
        let node = NodeId(rng.random_range(0..n as u32));
        let at = instant(&mut rng);
        match rng.random_range(0..3u32) {
            0 => crashes.push((node, at)),
            1 => leaves.push((node, at)),
            _ => {
                // Crash or leave first, come back later with whatever
                // stale state survived.
                if rng.random_bool(0.5) {
                    crashes.push((node, at));
                } else {
                    leaves.push((node, at));
                }
                rejoins.push((node, at + phi * rng.random_range(1..=2u64)));
            }
        }
    }
    let joiner = rng
        .random_bool(0.4)
        .then(|| (NodeId(rng.random_range(0..n as u32)), instant(&mut rng)));
    ChurnCase {
        exp,
        p,
        epochs,
        joiner,
        crashes,
        leaves,
        rejoins,
        snapshot_after: rng.random_range(1..=150usize),
        seed,
    }
}

fn build_sim(case: &ChurnCase) -> Simulator<FdsNode> {
    let mut sim = case
        .exp
        .build_sim(RadioConfig::bernoulli(case.p), case.seed);
    if let Some((node, at)) = case.joiner {
        sim.set_dormant(node);
        sim.schedule_join(node, at);
    }
    for &(node, at) in &case.crashes {
        sim.schedule_crash(node, at);
    }
    for &(node, at) in &case.leaves {
        sim.schedule_leave(node, at);
    }
    for &(node, at) in &case.rejoins {
        sim.schedule_rejoin(node, at);
    }
    sim.enable_trace();
    sim
}

fn deadline(case: &ChurnCase) -> SimTime {
    let phi = FdsConfig::default().heartbeat_interval;
    SimTime::ZERO + phi * case.epochs - SimDuration::from_micros(1)
}

/// The uninterrupted run's final snapshot.
fn run_straight(case: &ChurnCase) -> Vec<u8> {
    let mut sim = build_sim(case);
    sim.run_until(deadline(case));
    sim.checkpoint().expect("final checkpoint")
}

/// The interrupted run: step `snapshot_after` events, snapshot,
/// restore from the bytes, finish. Returns (mid-run bytes, final
/// bytes).
fn run_interrupted(case: &ChurnCase) -> (Vec<u8>, Vec<u8>) {
    let mut sim = build_sim(case);
    let end = deadline(case);
    for _ in 0..case.snapshot_after {
        if sim.now() >= end || !sim.step_one() {
            break;
        }
    }
    let mid = sim.checkpoint().expect("mid-run checkpoint");
    drop(sim);
    let mut resumed: Simulator<FdsNode> = Simulator::restore(&mid).expect("restore");
    resumed.run_until(end);
    (mid, resumed.checkpoint().expect("final checkpoint"))
}

/// FNV-1a digest of a snapshot, so the worker-count sweep compares
/// small values instead of multi-kilobyte blobs.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const CASES: u64 = 104;

/// A fixed 30-node field with one late arrival (node 4, never joined
/// before the snapshot), one crash (node 7) and one graceful leave
/// (node 12); both engines snapshot it mid-run at `GOLDEN_MID`.
fn golden_world() -> (Experiment, [NodeId; 3]) {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let pts = Placement::UniformRect(Rect::square(300.0)).generate(30, &mut rng);
    let exp = Experiment::new(
        Topology::from_positions(pts, 100.0),
        FdsConfig::default(),
        FormationConfig::default(),
    );
    (exp, [NodeId(4), NodeId(7), NodeId(12)])
}

const GOLDEN_SEED: u64 = 23;
const GOLDEN_MID: SimTime = SimTime::from_micros(2_345_678);

#[test]
fn golden_checkpoint_digests_are_pinned() {
    // Pins the exact snapshot bytes of both formats: any change to what
    // an engine stores, in which order, or how it evolves the world up
    // to the snapshot moves a digest. The world carries every
    // lifecycle state and pending timers, so the liveness and timer
    // sections are both covered.
    let (exp, [dormant, crashed, departed]) = golden_world();
    let radio = || RadioConfig::bernoulli(0.05);
    let check_states = |alive: &dyn Fn(NodeId) -> bool,
                        gone: &dyn Fn(NodeId) -> bool,
                        asleep: &dyn Fn(NodeId) -> bool| {
        assert!(asleep(dormant) && !alive(dormant));
        assert!(!alive(crashed) && !gone(crashed) && !asleep(crashed));
        assert!(gone(departed) && !alive(departed));
    };

    let mut legacy = exp.build_sim(radio(), GOLDEN_SEED);
    legacy.set_dormant(dormant);
    legacy.schedule_join(dormant, GOLDEN_MID + SimDuration::from_millis(1));
    legacy.schedule_crash(crashed, SimTime::from_millis(900));
    legacy.schedule_leave(departed, SimTime::from_millis(1_400));
    legacy.enable_trace();
    legacy.run_until(GOLDEN_MID);
    check_states(&|n| legacy.is_alive(n), &|n| legacy.has_departed(n), &|n| {
        legacy.is_dormant(n)
    });
    let legacy_bytes = legacy.checkpoint().expect("legacy checkpoint");

    let mut tiled = exp.build_tiled_sim(radio(), GOLDEN_SEED, 2, 2);
    tiled.set_dormant(dormant);
    tiled.schedule_join(dormant, GOLDEN_MID + SimDuration::from_millis(1));
    tiled.schedule_crash(crashed, SimTime::from_millis(900));
    tiled.schedule_leave(departed, SimTime::from_millis(1_400));
    tiled.enable_trace();
    tiled.run_until(GOLDEN_MID);
    check_states(&|n| tiled.is_alive(n), &|n| tiled.has_departed(n), &|n| {
        tiled.is_dormant(n)
    });
    let tiled_bytes = tiled.checkpoint().expect("tiled checkpoint");

    assert_eq!(
        (digest(&legacy_bytes), digest(&tiled_bytes)),
        (0x961a_87d9_bc37_7da5, 0x0072_5773_ef57_5ed2),
        "golden snapshot digests (legacy, tiled 2x2)"
    );
}

#[test]
fn restore_then_run_is_byte_identical_across_workers() {
    let seeds: Vec<u64> = (0..CASES).collect();
    let run_case = |_w: usize, &seed: &u64| {
        let case = build_case(seed);
        let straight = run_straight(&case);
        let (mid, resumed) = run_interrupted(&case);
        assert_eq!(
            straight, resumed,
            "seed {seed}: resumed run diverged from uninterrupted run \
             (snapshot after {} events)",
            case.snapshot_after
        );
        // Restoring the same snapshot twice must also agree.
        let mut again: Simulator<FdsNode> = Simulator::restore(&mid).expect("second restore");
        again.run_until(deadline(&case));
        assert_eq!(
            again.checkpoint().expect("checkpoint"),
            straight,
            "seed {seed}: second restore diverged"
        );
        digest(&straight)
    };
    let one = par::par_map(1, &seeds, run_case);
    let two = par::par_map(2, &seeds, run_case);
    let max = par::par_map(par::default_workers().max(2), &seeds, run_case);
    assert_eq!(one, two, "workers 1 vs 2");
    assert_eq!(one, max, "workers 1 vs max");
}

#[test]
fn restored_outcome_matches_uninterrupted_verdicts() {
    // Beyond byte equality of state: the evaluated verdicts (false
    // detections, completeness, latencies) agree when the run is
    // scored through the public evaluate path.
    for seed in [3u64, 17, 55] {
        let case = build_case(seed);
        let end = deadline(&case);
        let crash_epochs: std::collections::BTreeMap<NodeId, u64> = case
            .crashes
            .iter()
            .map(|&(node, at)| {
                (
                    node,
                    at.as_micros() / FdsConfig::default().heartbeat_interval.as_micros(),
                )
            })
            .collect();

        let mut straight = build_sim(&case);
        straight.run_until(end);
        let a = case.exp.evaluate(&straight, case.epochs, &crash_epochs);

        let mut sim = build_sim(&case);
        for _ in 0..case.snapshot_after {
            if sim.now() >= end || !sim.step_one() {
                break;
            }
        }
        let bytes = sim.checkpoint().expect("checkpoint");
        let mut resumed: Simulator<FdsNode> = Simulator::restore(&bytes).expect("restore");
        resumed.run_until(end);
        let b = case.exp.evaluate(&resumed, case.epochs, &crash_epochs);

        assert_eq!(a.false_detections, b.false_detections, "seed {seed}");
        assert_eq!(a.missed, b.missed, "seed {seed}");
        assert_eq!(a.completeness, b.completeness, "seed {seed}");
        assert_eq!(a.detection_latency, b.detection_latency, "seed {seed}");
        assert_eq!(a.metrics, b.metrics, "seed {seed}");
        assert_eq!(a.bytes, b.bytes, "seed {seed}");
    }
}

#[test]
fn snapshot_rejects_corruption_without_panicking() {
    let case = build_case(1);
    let mut sim = build_sim(&case);
    for _ in 0..40 {
        sim.step_one();
    }
    let bytes = sim.checkpoint().expect("checkpoint");

    // Truncations at every prefix length of the header region and a
    // sample of interior cuts must fail cleanly.
    for cut in (0..bytes.len().min(64)).chain([bytes.len() / 2, bytes.len() - 1]) {
        assert!(
            Simulator::<FdsNode>::restore(&bytes[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    // Bit flips in the magic/version must be rejected too.
    for i in 0..12 {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            Simulator::<FdsNode>::restore(&bad).is_err(),
            "corrupt header byte {i} must be rejected"
        );
    }
    // Trailing garbage is not silently ignored.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(Simulator::<FdsNode>::restore(&padded).is_err());
}

// ------------------------------------------------- tiled engine

/// The tiled counterpart of [`build_sim`]: identical schedule on the
/// spatially tiled engine.
fn build_tiled(case: &ChurnCase, gx: u32, gy: u32) -> TiledSim<FdsNode> {
    let mut sim = case
        .exp
        .build_tiled_sim(RadioConfig::bernoulli(case.p), case.seed, gx, gy);
    if let Some((node, at)) = case.joiner {
        sim.set_dormant(node);
        sim.schedule_join(node, at);
    }
    for &(node, at) in &case.crashes {
        sim.schedule_crash(node, at);
    }
    for &(node, at) in &case.leaves {
        sim.schedule_leave(node, at);
    }
    for &(node, at) in &case.rejoins {
        sim.schedule_rejoin(node, at);
    }
    sim.enable_trace();
    sim
}

/// A mid-window instant: strictly inside the run, never aligned to the
/// 1 ms barrier grid, varied per seed.
fn mid_window_instant(case: &ChurnCase) -> SimTime {
    let end = deadline(case).as_micros();
    let mid = end / 3 + 137 + (case.seed * 271) % 800;
    SimTime::from_micros(if mid.is_multiple_of(1000) {
        mid + 1
    } else {
        mid
    })
}

#[test]
fn tiled_mid_window_restore_then_run_is_byte_identical() {
    // Same verdict as the single-queue suite, on the tiled engine,
    // with the snapshot taken at a non-barrier-aligned instant (the
    // partially-executed window's remainder sits in the per-tile
    // queues). Both runs pause at `mid`, so their energy-harvest sync
    // points — and therefore every byte — must agree.
    for seed in 0..24u64 {
        let case = build_case(seed);
        let end = deadline(&case);
        let mid = mid_window_instant(&case);
        let (gx, gy) = [(1, 1), (2, 2), (3, 2), (4, 4)][(seed % 4) as usize];

        let mut straight = build_tiled(&case, gx, gy);
        straight.run_until(mid);
        straight.run_until(end);
        let straight_bytes = straight.checkpoint().expect("final checkpoint");

        let mut sim = build_tiled(&case, gx, gy);
        sim.run_until(mid);
        let mid_bytes = sim.checkpoint().expect("mid-window checkpoint");
        drop(sim);
        let mut resumed: TiledSim<FdsNode> = TiledSim::restore(&mid_bytes).expect("restore");
        assert_eq!(resumed.grid_dims(), (gx, gy), "seed {seed}: grid survives");
        assert_eq!(resumed.now(), mid, "seed {seed}: clock survives");
        resumed.run_until(end);
        assert_eq!(
            resumed.checkpoint().expect("final checkpoint"),
            straight_bytes,
            "seed {seed}: tiled resume at {mid:?} diverged (grid {gx}x{gy})"
        );

        // Restoring the same snapshot twice must also agree, and a
        // different worker count on the resumed engine must not show.
        let mut again: TiledSim<FdsNode> =
            TiledSim::restore_with_grid(&mid_bytes, gx, gy).expect("second restore");
        again.set_workers(4);
        again.run_until(end);
        assert_eq!(
            again.checkpoint().expect("checkpoint"),
            straight_bytes,
            "seed {seed}: second restore (4 workers) diverged"
        );
    }
}

#[test]
fn tiled_checkpoint_pins_its_grid() {
    // The chosen re-tiling policy: a checkpoint restored at a
    // different tile count is REJECTED, not silently re-tiled.
    let case = build_case(5);
    let mut sim = build_tiled(&case, 2, 2);
    sim.run_until(mid_window_instant(&case));
    let bytes = sim.checkpoint().expect("checkpoint");

    assert!(TiledSim::<FdsNode>::restore_with_grid(&bytes, 2, 2).is_ok());
    for (gx, gy) in [(1, 1), (3, 3), (2, 3), (4, 4)] {
        let err = TiledSim::<FdsNode>::restore_with_grid(&bytes, gx, gy)
            .expect_err("grid mismatch must be rejected");
        assert!(
            matches!(err, CheckpointError::Corrupt(msg) if msg.contains("grid")),
            "unexpected rejection: {err:?}"
        );
    }
}

#[test]
fn tiled_and_legacy_checkpoints_are_mutually_rejected() {
    let case = build_case(9);

    let mut tiled = build_tiled(&case, 2, 2);
    tiled.run_until(mid_window_instant(&case));
    let tiled_bytes = tiled.checkpoint().expect("tiled checkpoint");
    assert!(
        Simulator::<FdsNode>::restore(&tiled_bytes).is_err(),
        "legacy restore must reject a tiled snapshot"
    );

    let mut legacy = build_sim(&case);
    for _ in 0..40 {
        legacy.step_one();
    }
    let legacy_bytes = legacy.checkpoint().expect("legacy checkpoint");
    assert!(
        matches!(
            TiledSim::<FdsNode>::restore(&legacy_bytes),
            Err(CheckpointError::Corrupt(_))
        ),
        "tiled restore must reject a single-queue snapshot"
    );

    // And tiled snapshots reject the same corruption classes.
    for cut in [0, 4, 12, tiled_bytes.len() / 2, tiled_bytes.len() - 1] {
        assert!(TiledSim::<FdsNode>::restore(&tiled_bytes[..cut]).is_err());
    }
    let mut padded = tiled_bytes.clone();
    padded.push(0);
    assert!(TiledSim::<FdsNode>::restore(&padded).is_err());
}

// ------------------------------------------------- round-trip props

proptest::proptest! {
    #[test]
    fn primitive_round_trips(
        a in proptest::prelude::any::<u64>(),
        b in proptest::prelude::any::<i64>(),
        c in proptest::prelude::any::<bool>(),
        d in proptest::prelude::any::<f64>(),
        sv in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        v in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..16),
    ) {
        let s: String = sv.iter().map(|b| char::from(b'a' + b % 26)).collect();
        let mut w = Writer::new();
        a.persist(&mut w);
        b.persist(&mut w);
        c.persist(&mut w);
        d.persist(&mut w);
        s.persist(&mut w);
        v.persist(&mut w);
        Some(a).persist(&mut w);
        Option::<u64>::None.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        proptest::prop_assert_eq!(u64::restore(&mut r).unwrap(), a);
        proptest::prop_assert_eq!(i64::restore(&mut r).unwrap(), b);
        proptest::prop_assert_eq!(bool::restore(&mut r).unwrap(), c);
        let d2 = f64::restore(&mut r).unwrap();
        proptest::prop_assert_eq!(d2.to_bits(), d.to_bits(), "bit-exact floats");
        proptest::prop_assert_eq!(String::restore(&mut r).unwrap(), s);
        proptest::prop_assert_eq!(Vec::<u32>::restore(&mut r).unwrap(), v);
        proptest::prop_assert_eq!(Option::<u64>::restore(&mut r).unwrap(), Some(a));
        proptest::prop_assert_eq!(Option::<u64>::restore(&mut r).unwrap(), None);
        proptest::prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(
        proptest::prelude::any::<u8>(), 0..64,
    )) {
        // Whatever the input, restore returns Err or a value — it must
        // not panic or read out of bounds.
        let mut r = Reader::new(&bytes);
        let _ = Vec::<u64>::restore(&mut r);
        let mut r = Reader::new(&bytes);
        let _ = String::restore(&mut r);
        let mut r = Reader::new(&bytes);
        let _ = std::collections::BTreeMap::<u32, u32>::restore(&mut r);
        let _ = Simulator::<FdsNode>::restore(&bytes).err();
    }

    #[test]
    fn checkpoint_error_display_is_total(code in 0u32..4) {
        let err = match code {
            0 => CheckpointError::Truncated,
            1 => CheckpointError::BadMagic,
            2 => CheckpointError::UnsupportedVersion(9),
            _ => CheckpointError::Corrupt("test"),
        };
        proptest::prop_assert!(!err.to_string().is_empty());
    }
}
