//! Chaos testing for the cluster-based failure detection service.
//!
//! The substrate (fault-plan schema, seeded generator, deterministic
//! shrinker, simulator interposer) lives in [`cbfd_net::chaos`]; this
//! crate adds the FDS-aware layers:
//!
//! * [`monitor`] — an online invariant monitor consuming the
//!   simulator's effective-event stream, separating *hard* violations
//!   (engine/cluster invariants that must hold under any fault
//!   schedule) from *residuals* (the paper's probabilistic
//!   accuracy/completeness properties, which chaos deliberately
//!   stresses beyond their assumptions);
//! * [`campaign`] — pinned-seed campaigns over batches of randomized
//!   plans, worker-count-invariant parallel execution, automatic
//!   shrinking of failing plans to minimal reproducers, and a
//!   byte-deterministic JSON report for CI.
//!
//! ```
//! use cbfd_chaos::campaign::{run_campaign, CampaignConfig};
//!
//! let report = run_campaign(&CampaignConfig {
//!     plans: 2,
//!     nodes: 20,
//!     side: 250.0,
//!     epochs: 2,
//!     ..CampaignConfig::default()
//! });
//! assert_eq!(report.outcomes.len(), 2);
//! assert_eq!(report.failing(), 0, "{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod detectors;
pub mod monitor;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, PlanOutcome};
pub use detectors::{run_comparison, ComparisonConfig, ComparisonReport};
pub use monitor::{HardViolation, Monitor, ResidualSample};

#[cfg(test)]
mod tests {
    use crate::campaign::{
        build_experiment, plan_config, replay, run_campaign, run_monitored, CampaignConfig,
    };
    use crate::monitor::{HardViolation, Monitor};
    use cbfd_net::chaos::FaultPlan;
    use cbfd_net::id::NodeId;
    use cbfd_net::sim::SimEvent;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            plans: 4,
            nodes: 24,
            side: 260.0,
            epochs: 3,
            master_seed: 7,
            stride: 8,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_report_is_worker_count_invariant() {
        let mut a = small_config();
        a.workers = 1;
        let mut b = small_config();
        b.workers = 3;
        let ra = run_campaign(&a);
        let rb = run_campaign(&b);
        // The config (and therefore the worker count) is embedded in
        // the struct but not the JSON rows: compare the rendered rows.
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn campaign_report_is_reproducible_and_clean() {
        let config = small_config();
        let ra = run_campaign(&config);
        let rb = run_campaign(&config);
        assert_eq!(ra.to_json(), rb.to_json(), "same seed, same bytes");
        assert_eq!(ra.failing(), 0, "{}", ra.to_json());
        assert!(ra.outcomes.iter().all(|o| o.events_observed > 0));
        assert!(ra.outcomes.iter().any(|o| o.sweeps_run > 0));
    }

    #[test]
    fn replay_reproduces_a_campaign_row() {
        let config = small_config();
        let report = run_campaign(&config);
        let row = &report.outcomes[0];
        let (outcome, monitor, plan) =
            replay(&config, &row.plan_text, row.seed).expect("replayable");
        assert_eq!(plan.to_text(), row.plan_text);
        assert_eq!(outcome.crashed.len(), row.crashes);
        assert_eq!(outcome.completeness, row.completeness);
        assert_eq!(monitor.violations().len(), row.hard_violations.len());
    }

    #[test]
    fn replay_refuses_artifacts_the_engine_cannot_run() {
        let config = small_config();
        for primitive in [
            "loss_storm from_us=1 until_us=500000 p=1.5",
            "replay from_us=1 until_us=500000 prob=2 lag_us=100",
            "crash at_us=500000 node=4294967297",
        ] {
            let text =
                format!("cbfd-fault-plan v1\nbaseline_p 0.05\nhorizon_us 3000000\n{primitive}\n");
            assert!(replay(&config, &text, 1).is_err(), "{primitive}");
        }
    }

    #[test]
    fn monitor_flags_dead_node_activity_and_double_crashes() {
        // Drive the monitor by hand: the engine never emits these
        // sequences (that is the point — they'd be engine bugs), so
        // fabricate them against a real simulator for context.
        let config = small_config();
        let exp = build_experiment(&config);
        let plan = FaultPlan::empty(0.0, plan_config(&config).horizon);
        let mut monitor = Monitor::new(exp.topology().clone(), exp.view().clone(), 0);
        let _ = exp.run_plan(&plan, 1, 1, &mut |sim, _| {
            // Use the run only to get a live &Simulator reference.
            if monitor.events_seen() == 0 {
                monitor.observe(sim, SimEvent::Crash { node: NodeId(0) });
                monitor.observe(
                    sim,
                    SimEvent::Deliver {
                        to: NodeId(0),
                        from: NodeId(1),
                    },
                );
                monitor.observe(sim, SimEvent::Crash { node: NodeId(0) });
            }
        });
        let kinds: Vec<_> = monitor.violations().iter().collect();
        assert_eq!(kinds.len(), 2, "{kinds:?}");
        assert!(
            matches!(kinds[0], HardViolation::DeadNodeActivity { node, .. } if *node == NodeId(0))
        );
        let rendered = kinds[1].to_string();
        assert!(rendered.contains("crashed twice"), "{rendered}");
    }

    #[test]
    fn churn_campaign_is_clean_and_reproducible() {
        let config = CampaignConfig {
            churn: true,
            plans: 6,
            ..small_config()
        };
        let ra = run_campaign(&config);
        let rb = run_campaign(&config);
        assert_eq!(ra.to_json(), rb.to_json(), "same seed, same bytes");
        assert_eq!(ra.failing(), 0, "{}", ra.to_json());
        // The plan pool actually exercises the v2 primitives.
        assert!(
            ra.outcomes
                .iter()
                .any(|o| o.plan_text.starts_with("cbfd-fault-plan v2")),
            "no churn plan sampled"
        );
    }

    #[test]
    fn forked_campaign_is_clean_and_worker_count_invariant() {
        let base = CampaignConfig {
            churn: true,
            fork_warm_epochs: 2,
            epochs: 4,
            ..small_config()
        };
        let mut a = base.clone();
        a.workers = 1;
        let mut b = base;
        b.workers = 3;
        let ra = run_campaign(&a);
        let rb = run_campaign(&b);
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(ra.failing(), 0, "{}", ra.to_json());
        assert!(ra.outcomes.iter().all(|o| o.events_observed > 0));
    }

    #[test]
    fn monitor_tracks_voluntary_leavers_separately() {
        let config = small_config();
        let exp = build_experiment(&config);
        let plan = FaultPlan::empty(0.0, plan_config(&config).horizon);
        let mut monitor = Monitor::new(exp.topology().clone(), exp.view().clone(), 0);
        let _ = exp.run_plan(&plan, 1, 1, &mut |sim, _| {
            if monitor.events_seen() == 0 {
                monitor.observe(sim, SimEvent::Leave { node: NodeId(2) });
                monitor.observe(sim, SimEvent::Rejoin { node: NodeId(2) });
                monitor.observe(sim, SimEvent::Leave { node: NodeId(3) });
            }
        });
        assert!(
            monitor.violations().is_empty(),
            "graceful churn is not a violation: {:?}",
            monitor.violations()
        );
        assert_eq!(monitor.departed(), &[NodeId(3)], "rejoiner was cleared");
        assert!(monitor.dead().is_empty());
    }

    #[test]
    fn clean_runs_report_no_violations_and_full_residuals() {
        let config = small_config();
        let exp = build_experiment(&config);
        let plan = FaultPlan::empty(0.0, plan_config(&config).horizon);
        let (outcome, monitor) = run_monitored(&exp, &plan, 2, 3, 1);
        assert!(monitor.violations().is_empty());
        assert!(monitor.first_inaccuracy().is_none());
        assert_eq!(outcome.completeness, 1.0);
        let last = monitor.last_residual().expect("stride-1 samples");
        assert_eq!(last.false_suspicions, 0);
        assert_eq!(last.completeness, 1.0);
    }
}
