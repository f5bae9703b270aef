//! Property-based tests for the tiled engine's barrier and lookahead
//! arithmetic (DESIGN.md §14): window boundary inclusivity, the
//! range-derived lookahead lower bound, cross-tile transmits landing
//! beyond the execution limit of the window that sent them, tile
//! assignment stability under bounded mobility drift, window-scheduler
//! equivalence against the brute-force scan, and exchange determinism
//! under grid × worker variation.

use cbfd::core::config::FdsConfig;
use cbfd::net::tiled::{
    lookahead_of, suggested_grid, window_end, window_index, TileGrid, TileSchedule,
};
use cbfd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Windows are half-open `[k·W, (k+1)·W)`: an event exactly at a
    /// barrier belongs to the *next* window, and every instant falls
    /// inside the window its index names.
    #[test]
    fn window_boundaries_are_half_open(
        at in 0u64..1_000_000_000,
        w in 1u64..100_000,
    ) {
        let width = SimDuration::from_micros(w);
        let k = window_index(SimTime::from_micros(at), width);
        // Containment: k·W ≤ at < (k+1)·W.
        prop_assert!(k.saturating_mul(w) <= at);
        prop_assert!(at < window_end(k, width).as_micros());
        // Barrier inclusivity: the barrier instant itself indexes the
        // next window.
        let barrier = window_end(k, width).as_micros();
        prop_assert_eq!(window_index(SimTime::from_micros(barrier), width), k + 1);
        // A window's end is the next window's start.
        prop_assert_eq!(
            window_end(k, width).as_micros(),
            (k + 1).saturating_mul(w)
        );
    }

    /// The lookahead is the radio's base delay, and it is a true lower
    /// bound: jitter, per-link lag, and duplication lag only add
    /// latency, so every delivery lands in a strictly later window
    /// than its transmission.
    #[test]
    fn lookahead_forces_strictly_later_window(
        t in 0u64..1_000_000_000,
        delay in 1u64..50_000,
        jitter_draw in 0u64..50_000,
        link_lag in 0u64..100_000,
        dup_lag in 0u64..100_000,
    ) {
        let radio = RadioConfig::lossless()
            .with_delay(SimDuration::from_micros(delay))
            .with_jitter(SimDuration::from_micros(jitter_draw));
        let w = lookahead_of(&radio);
        prop_assert_eq!(w, SimDuration::from_micros(delay));
        // Worst case for the bound is the *minimum* added latency:
        // zero jitter, zero lag. Any extras push further out.
        for extra in [0, jitter_draw + link_lag, jitter_draw + link_lag + dup_lag] {
            let arrival = t + delay + extra;
            prop_assert!(
                window_index(SimTime::from_micros(arrival), w)
                    > window_index(SimTime::from_micros(t), w),
                "arrival {arrival} did not clear the send window of {t} (W={delay})"
            );
        }
    }

    /// The engine's per-window execution limit is
    /// `min(barrier, deadline + 1µs)` (deadline-clamped windows). A
    /// message sent at any instant the window actually executes lands
    /// at or beyond that limit — cross-tile copies routed at the
    /// barrier can never be late, even on the clamped final window.
    #[test]
    fn cross_tile_transmit_lands_at_or_beyond_the_window_limit(
        t in 0u64..1_000_000_000,
        w in 1u64..50_000,
        deadline_off in 0u64..200_000,
        extra in 0u64..100_000,
    ) {
        let width = SimDuration::from_micros(w);
        let deadline = t + deadline_off; // t executes only if t ≤ deadline
        let k = window_index(SimTime::from_micros(t), width);
        let lim = window_end(k, width)
            .as_micros()
            .min(deadline.saturating_add(1));
        let arrival = t + w + extra; // delay = W plus any extras
        prop_assert!(
            arrival >= lim,
            "arrival {arrival} inside execution limit {lim} (t={t}, W={w}, deadline={deadline})"
        );
    }

    /// Tile assignment is total (every point maps to a valid tile,
    /// even far outside the bounding box) and row-major-consistent.
    #[test]
    fn tile_assignment_is_total_and_consistent(
        pts in proptest::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 1..50),
        probe_x in -2000.0f64..2000.0,
        probe_y in -2000.0f64..2000.0,
        gx in 1u32..8,
        gy in 1u32..8,
    ) {
        let positions: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let grid = TileGrid::new(&positions, gx, gy);
        prop_assert_eq!(grid.len(), (gx * gy) as usize);
        for p in &positions {
            let (cx, cy) = grid.cell_of(*p);
            prop_assert!(cx < gx && cy < gy);
            prop_assert_eq!(grid.tile_of(*p), cy * gx + cx);
        }
        let probe = Point::new(probe_x, probe_y);
        prop_assert!((grid.tile_of(probe) as usize) < grid.len());
    }

    /// Mobility-drift stability: a node that moves strictly less than
    /// its `boundary_margin` (per axis) keeps its tile. This is the
    /// contract a future mobility-aware re-tiling pass leans on — only
    /// nodes whose drift exceeds their margin can change tiles.
    #[test]
    fn tile_assignment_is_stable_under_drift_within_margin(
        pts in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..40),
        which in 0usize..40,
        frac_x in -0.99f64..0.99,
        frac_y in -0.99f64..0.99,
        gx in 1u32..8,
        gy in 1u32..8,
    ) {
        let positions: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let grid = TileGrid::new(&positions, gx, gy);
        let p = positions[which % positions.len()];
        let margin = grid.boundary_margin(p);
        prop_assert!(margin >= 0.0);
        if margin.is_finite() && margin > 0.0 {
            let drifted = Point::new(p.x + frac_x * margin, p.y + frac_y * margin);
            prop_assert_eq!(
                grid.tile_of(drifted),
                grid.tile_of(p),
                "drift ({:.4}, {:.4}) within margin {:.4} changed tile",
                frac_x * margin,
                frac_y * margin,
                margin
            );
        } else {
            // Infinite margin: the whole axis (or the outward side of
            // an edge cell) belongs to this tile — any drift that kept
            // the finite axes in place keeps the tile. Spot-check a
            // large move on a degenerate single-cell grid.
            if gx == 1 && gy == 1 {
                let far = Point::new(p.x + 1e6, p.y - 1e6);
                prop_assert_eq!(grid.tile_of(far), grid.tile_of(p));
            }
        }
    }

    /// Window-scheduler equivalence: the O(log T) tournament tree the
    /// window loop maintains agrees with the brute-force O(tiles)
    /// `peek_time()` scan it replaced, on randomized queue states —
    /// both the global minimum after every update and the
    /// ascending-tile-order active set for arbitrary limits.
    #[test]
    fn tile_schedule_matches_brute_force_scan(
        tiles in 1usize..130,
        ops in proptest::collection::vec(
            (0usize..130, proptest::option::of(0u64..10_000)),
            1..200,
        ),
        probes in proptest::collection::vec(0u64..10_002, 1..8),
    ) {
        let mut sched = TileSchedule::new(tiles);
        let mut brute: Vec<Option<u64>> = vec![None; tiles];
        for (t, v) in ops {
            let t = t % tiles;
            brute[t] = v;
            sched.set(t, v.map(SimTime::from_micros));
            prop_assert_eq!(
                sched.min_time(),
                brute.iter().filter_map(|&x| x).min().map(SimTime::from_micros)
            );
        }
        for lim in probes {
            let mut got = Vec::new();
            sched.collect_before(SimTime::from_micros(lim), &mut got);
            let want: Vec<u32> = brute
                .iter()
                .enumerate()
                .filter(|(_, x)| x.is_some_and(|v| v < lim))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, want, "lim={}", lim);
        }
    }
}

/// One full-FDS run's observable output, for exchange-determinism
/// comparison: the event trace, merged traffic metrics, and exact
/// per-node energy bits.
fn tiled_fingerprint(
    exp: &cbfd::core::service::Experiment,
    loss_p: f64,
    seed: u64,
    dup: f64,
    horizon: SimTime,
    (gx, gy, workers): (u32, u32, usize),
) -> (Vec<cbfd::net::trace::TraceRecord>, String, Vec<u64>) {
    let radio = RadioConfig::bernoulli(loss_p).with_jitter(SimDuration::from_micros(200));
    let mut sim = exp.build_tiled_sim(radio, seed, gx, gy);
    sim.set_workers(workers);
    sim.enable_trace();
    if dup > 0.0 {
        sim.faults_mut()
            .set_duplication(dup, SimDuration::from_micros(137));
    }
    sim.run_until(horizon);
    (
        sim.trace().records().to_vec(),
        format!("{:?}", sim.metrics()),
        sim.energy_remaining_vec()
            .iter()
            .map(|e| e.to_bits())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exchange determinism: the routed-copy order — and with it every
    /// observable output — is invariant under worker count and bucket
    /// layout. Different grids change how copies are bucketed per
    /// destination (1×1 has no cross-tile traffic at all; fine grids
    /// maximize it) and different worker counts change which thread
    /// routes which destination; duplication forces several copies of
    /// one transmission into one destination bucket (the shared-payload
    /// path). Trace, metrics, and energy must not move.
    #[test]
    fn exchange_is_invariant_under_grid_and_workers(
        n in 8usize..24,
        seed in 0u64..1_000_000,
        dup_sel in 0u8..3,
        loss_p in 0.0f64..0.3,
        side in 150.0f64..400.0,
    ) {
        let dup = [0.0f64, 0.2, 0.45][dup_sel as usize];
        let mut rng = StdRng::seed_from_u64(0xE8C4_A0DE ^ seed);
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
            .collect();
        let topology = Topology::from_positions(positions, 120.0);
        let fds = FdsConfig::default();
        let horizon = SimTime::ZERO + fds.heartbeat_interval * 3;
        let exp = Experiment::new(topology, fds, FormationConfig::default());
        let (mx, my) = suggested_grid(n, 1);
        let reference = tiled_fingerprint(&exp, loss_p, seed, dup, horizon, (1, 1, 1));
        for (gx, gy, workers) in [(2, 2, 1), (2, 2, 8), (mx, my, 2), (mx, my, 8)] {
            let other = tiled_fingerprint(&exp, loss_p, seed, dup, horizon, (gx, gy, workers));
            prop_assert_eq!(&reference.0, &other.0, "trace diverged at {}x{} w{}", gx, gy, workers);
            prop_assert_eq!(&reference.1, &other.1, "metrics diverged at {}x{} w{}", gx, gy, workers);
            prop_assert_eq!(&reference.2, &other.2, "energy diverged at {}x{} w{}", gx, gy, workers);
        }
    }
}
