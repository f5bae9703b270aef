//! The repository benchmark: three seeded workloads driven through the
//! public APIs of `Experiment`, `TiledSim` and the chaos campaign.
//!
//! ```text
//! perfbench --workload <steady_field|crash_storm|chaos_fork> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` prints the per-layer split from a
//! one-worker traced run next to an untraced one. Every metric and
//! every output check is printed as a table line; the last line is one
//! JSON object. A failed check exits with code 1.

mod host;
mod probe;
mod workloads;

use cbfd_net::rng::derive_seed;
use probe::{peak_rss_mb, CountingAlloc, STAGES};
use std::time::{Duration, Instant};
use workloads::{
    ChaosSpec, Counters, Rep, Spans, TiledSpec, CHAOS_FORK, CRASH_STORM, STEADY_FIELD,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Rounds below which a run does not stop, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Repetitions of each variant in a traced run.
const TRACE_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    SteadyField,
    CrashStorm,
    ChaosFork,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "steady_field" => Workload::SteadyField,
                    "crash_storm" => Workload::CrashStorm,
                    "chaos_fork" => Workload::ChaosFork,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run prints.
#[derive(Default)]
struct Report {
    /// Table lines: every metric computed, by name, value and unit.
    table: Vec<(String, f64, &'static str)>,
    /// The metrics of the final JSON line.
    json: Vec<(String, f64, &'static str)>,
    checks: Vec<(&'static str, bool, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// A metric of the final JSON line (also printed in the table).
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.table.push((name.to_string(), value, unit));
        self.json.push((name.to_string(), value, unit));
    }

    /// A metric printed in the table only.
    fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.table.push((name.to_string(), value, unit));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    fn print(&self) {
        for (name, value, unit) in &self.table {
            println!("metric {name:<34} {value:>16.6} {unit}");
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "pass" } else { "FAIL" };
            println!("check  {name:<34} {verdict} ({detail})");
        }
        let metrics: Vec<String> = self
            .json
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of epoch-granular samples.
fn percentile(samples: &[u64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The independent instances (fields, victims, plans) one run measures,
/// derived from the run's seed. Pooling them keeps the seed-to-seed
/// spread of a field's topology out of the medians.
fn instance_seeds(seed: u64, instances: usize) -> Vec<u64> {
    (0..instances as u64)
        .map(|i| derive_seed(seed, i))
        .collect()
}

/// Repetitions of a run, per instance, the host's slowdown around each,
/// and the process's peak resident set after the first repetition.
struct Measured {
    reps: Vec<Vec<Rep>>,
    /// The reference kernel's mean time just before and just after each
    /// repetition, over its quiet-host time (see [`host`]); shaped like
    /// `reps`.
    slowdown: Vec<Vec<f64>>,
    /// Read before later repetitions can grow it: each one rebuilds a
    /// field on a heap its predecessors fragmented, so the peak keeps
    /// creeping up by an amount that depends on thread timing, not on
    /// what one instance needs.
    first_peak_rss_mb: f64,
}

/// Runs every instance once per round until `seconds` have passed, at
/// least [`MIN_ROUNDS`] rounds, timing the reference kernel between
/// repetitions. The kernel's inputs are built after the first
/// repetition's peak resident set is read, so they do not count in it.
fn measure(seconds: f64, seeds: &[u64], mut rep: impl FnMut(u64) -> Rep) -> Measured {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps: Vec<Vec<Rep>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut slowdown: Vec<Vec<f64>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut first_peak_rss_mb = None;
    let mut reference = None;
    let mut before = None;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < until {
        for (i, &s) in seeds.iter().enumerate() {
            reps[i].push(rep(s));
            first_peak_rss_mb.get_or_insert_with(|| peak_rss_mb().unwrap_or(f64::NAN));
            let after = reference.get_or_insert_with(host::Reference::new).time();
            let around = before.map_or(after, |b| (b + after) / 2.0);
            slowdown[i].push(around / host::QUIET_S);
            before = Some(after);
        }
        rounds += 1;
    }
    Measured {
        reps,
        slowdown,
        first_peak_rss_mb: first_peak_rss_mb.expect("at least one repetition"),
    }
}

/// Operations and failures: member-epochs judged plus owed
/// notifications, against false detections plus missed notifications
/// plus hard Monitor violations.
fn account<'a>(report: &mut Report, reps: impl IntoIterator<Item = &'a Rep>) {
    for rep in reps {
        report.attempted += rep.outcome.member_epochs + rep.crash.owed;
        report.failed += rep.outcome.false_detections.len() as u64
            + rep.crash.missed
            + rep.hard_violations.len() as u64;
    }
    report.info("operations", report.attempted as f64, "count");
    report.info("failed_operations", report.failed as f64, "count");
    report.info(
        "failed_share",
        ratio(report.failed, report.attempted),
        "ratio",
    );
}

/// The end-to-end metrics and checks of an untraced run, pooled over
/// its instances (`reps[i]` holds instance `i`'s repetitions). The
/// gated times are host-adjusted: each repetition's wall time divided
/// by the host's slowdown around it. The wall-clock figures are printed
/// next to them.
fn end_to_end(report: &mut Report, workload: Workload, measured: &Measured, workers: usize) {
    let reps = &measured.reps;
    let firsts: Vec<&Rep> = reps.iter().map(|r| &r[0]).collect();
    let sum = |f: fn(&Rep) -> u64| firsts.iter().map(|r| f(r)).sum::<u64>();
    // A time of every repetition, per instance: wall, or divided by the
    // host's slowdown around the repetition.
    let times = |time: fn(&Rep) -> f64, adjust: bool| -> Vec<Vec<f64>> {
        reps.iter()
            .zip(&measured.slowdown)
            .map(|(r, slow)| {
                r.iter()
                    .zip(slow)
                    .map(|(x, f)| if adjust { time(x) / f } else { time(x) })
                    .collect()
            })
            .collect()
    };
    let run_s = |adjust| -> f64 { times(|r| r.run_s, adjust).iter().map(|v| median(v)).sum() };
    let setup_s = |adjust| median(&times(|r| r.setup_s, adjust).concat());
    let me = sum(|r| r.outcome.member_epochs);
    let me_run = sum(|r| r.member_epochs_run) as f64;

    report.metric(
        "member_epochs_per_s",
        me_run / run_s(true),
        "member-epochs/s",
    );
    report.metric("setup_s", setup_s(true), "s");
    report.metric("peak_rss_mb", measured.first_peak_rss_mb, "MB");
    report.metric(
        "bytes_per_member_epoch",
        ratio(sum(|r| r.outcome.bytes), me),
        "B/member-epoch",
    );
    report.metric(
        "tx_per_member_epoch",
        ratio(sum(|r| r.counters.transmissions), me),
        "tx/member-epoch",
    );
    let false_detections = sum(|r| r.outcome.false_detections.len() as u64);
    report.info(
        "false_detection_rate",
        ratio(false_detections * 1_000_000, me),
        "per-1e6-me",
    );
    report.info("instances", reps.len() as f64, "count");
    report.info("rounds", reps[0].len() as f64, "count");
    report.info("workers", workers as f64, "count");
    report.info(
        "member_epochs_per_wall_s",
        me_run / run_s(false),
        "member-epochs/s",
    );
    report.info("setup_wall_s", setup_s(false), "s");
    let slowdown = measured.slowdown.concat();
    report.info("host_slowdown_median", median(&slowdown), "ratio");
    report.info("run_s_median_sum", run_s(false), "s");
    report.info("member_epochs", me as f64, "count");
    report.info("events", sum(|r| r.counters.events) as f64, "count");

    let crashes = sum(|r| r.crash.crashes as u64);
    let pool = |f: fn(&Rep) -> &Vec<u64>| -> Vec<u64> {
        firsts.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    if crashes > 0 {
        let detect = pool(|r| &r.crash.detect);
        let owed = sum(|r| r.crash.owed);
        report.info("crashes", crashes as f64, "count");
        report.info(
            "completeness",
            1.0 - ratio(sum(|r| r.crash.missed), owed),
            "ratio",
        );
        report.info(
            "undetected_crashes",
            (crashes - detect.len() as u64) as f64,
            "count",
        );
        report.info("detect_latency_samples", detect.len() as f64, "count");
        report.info(
            "detect_latency_p50_epochs",
            percentile(&detect, 0.5),
            "epochs",
        );
        report.info(
            "detect_latency_p90_epochs",
            percentile(&detect, 0.9),
            "epochs",
        );
        report.info(
            "reports_per_crash",
            ratio(sum(|r| r.outcome.reports), crashes),
            "count",
        );
    }
    if workload == Workload::CrashStorm {
        let inform = pool(|r| &r.crash.inform);
        let inform_all = pool(|r| &r.crash.inform_all);
        report.info("inform_latency_samples", inform.len() as f64, "count");
        report.info(
            "inform_latency_p50_epochs",
            percentile(&inform, 0.5),
            "epochs",
        );
        report.info(
            "inform_latency_p99_epochs",
            percentile(&inform, 0.99),
            "epochs",
        );
        report.info(
            "inform_all_latency_samples",
            inform_all.len() as f64,
            "count",
        );
        report.info(
            "inform_all_latency_p90_epochs",
            percentile(&inform_all, 0.9),
            "epochs",
        );
    }
    account(report, firsts.iter().copied());

    let same = reps.iter().all(|r| {
        r.iter().all(|x| {
            let o = &r[0].outcome;
            x.counters == r[0].counters
                && x.outcome.false_detections == o.false_detections
                && x.outcome.missed == o.missed
                && x.outcome.detection_latency == o.detection_latency
        })
    });
    report.check(
        "repetitions_identical",
        same,
        format!("{} instances x {} rounds", reps.len(), reps[0].len()),
    );
    for rep in &firsts {
        check_outcome(report, workload, rep);
    }
    if firsts[0].breakdown.is_some() {
        let over: Vec<String> = reps
            .iter()
            .flatten()
            .filter_map(|r| {
                let b = r.breakdown?;
                let phases = b.window_exec_s + b.exchange_s + b.trace_merge_s + b.scheduling_s;
                (phases > r.run_s * 1.02 + 0.005)
                    .then(|| format!("phases {phases:.4} s > run {:.4} s", r.run_s))
            })
            .collect();
        report.check(
            "engine_phases_within_wall",
            over.is_empty(),
            over.first().cloned().unwrap_or_else(|| {
                "window, exchange, merge and scheduling sum to at most the run".into()
            }),
        );
    }
}

/// Checks every run's outcome must pass, traced or not.
fn check_outcome(report: &mut Report, workload: Workload, rep: &Rep) {
    let c = &rep.counters;
    report.check(
        "copies_reconcile",
        c.offered == c.deliveries + c.losses + c.dropped_dead,
        format!(
            "offered {} = delivered {} + lost {} + dropped_dead {}",
            c.offered, c.deliveries, c.losses, c.dropped_dead
        ),
    );
    report.check(
        "scored_pairs_reconcile",
        rep.crash.missed == rep.outcome.missed.len() as u64,
        format!(
            "{} missed of {} owed; evaluate_host reports {}",
            rep.crash.missed,
            rep.crash.owed,
            rep.outcome.missed.len()
        ),
    );
    if workload == Workload::ChaosFork {
        report.check(
            "no_hard_violations",
            rep.hard_violations.is_empty(),
            rep.hard_violations
                .first()
                .cloned()
                .unwrap_or_else(|| "Monitor at stride 64 saw none".into()),
        );
    }
}

fn check_finite(report: &mut Report) {
    let bad: Vec<&str> = report
        .json
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| n.as_str())
        .collect();
    report.check(
        "metrics_finite",
        bad.is_empty(),
        if bad.is_empty() {
            "every reported value is a finite number".into()
        } else {
            format!("not finite: {}", bad.join(", "))
        },
    );
}

/// Checks two runs did the same work. `ledger_ops` is left out where
/// one run resumed from a checkpoint, which does not carry it.
fn check_same(
    report: &mut Report,
    name: &'static str,
    (a, b): (&Counters, &Counters),
    with_ledger_ops: bool,
    what: &str,
) {
    let keys = |c: &Counters| {
        let ledger_ops = with_ledger_ops.then_some(c.ledger_ops);
        (c.events, c.transmissions, c.bytes, ledger_ops)
    };
    report.check(
        name,
        keys(a) == keys(b),
        format!(
            "{what}: events, transmissions, bytes, ledger_ops {:?} vs {:?}",
            keys(a),
            keys(b)
        ),
    );
}

/// Index of the repetition with the median engine-run span.
fn median_index(values: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx[idx.len() / 2]
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
fn per_layer(report: &mut Report, rep: &Rep, spans: &Spans, untraced_run_s: f64) {
    let o = &rep.outcome;
    let c = &rep.counters;
    let b = spans.breakdown.unwrap_or_default();
    let actor_busy = spans.stages.total_busy_s();
    report.metric("topology_build_s", spans.topology_build_s, "s");
    report.metric("formation_s", spans.formation_s, "s");
    report.metric("clusters", spans.clusters as f64, "count");
    report.metric(
        "singleton_clusters",
        spans.singleton_clusters as f64,
        "count",
    );
    report.metric("engine_build_s", spans.engine_build_s, "s");
    report.metric("evaluate_s", spans.evaluate_s, "s");
    report.metric("events", c.events as f64, "count");
    report.metric("events_per_s", c.events as f64 / untraced_run_s, "1/s");
    report.metric("windows", b.windows as f64, "count");
    report.metric("window_exec_s", b.window_exec_s, "s");
    report.metric("exchange_s", b.exchange_s, "s");
    report.metric("scheduling_s", b.scheduling_s, "s");
    report.metric("engine_self_s", spans.engine_run_s - actor_busy, "s");
    report.metric("allocs_per_event", ratio(spans.allocs, c.events), "count");
    report.metric("transmissions", c.transmissions as f64, "count");
    report.metric("deliveries", c.deliveries as f64, "count");
    report.metric("losses", c.losses as f64, "count");
    report.metric("dropped_dead", c.dropped_dead as f64, "count");
    report.metric("fanout", ratio(c.offered, c.transmissions), "count");
    report.metric("delivery_ratio", ratio(c.deliveries, c.offered), "ratio");
    for (k, stage) in STAGES.iter().enumerate() {
        report.metric(
            &format!("{stage}.calls"),
            spans.stages.calls[k] as f64,
            "count",
        );
        report.metric(&format!("{stage}.busy_s"), spans.stages.busy_s(k), "s");
        report.metric(
            &format!("{stage}.ns_per_call"),
            spans.stages.ns_per_call(k),
            "ns",
        );
    }
    report.metric("actor_busy_s", actor_busy, "s");
    report.metric("reports_sent", o.reports as f64, "count");
    report.metric("reports_suppressed", o.reports_suppressed as f64, "count");
    report.metric(
        "report_suppression_ratio",
        ratio(o.reports_suppressed, o.reports + o.reports_suppressed),
        "ratio",
    );
    report.metric("peer_forwards_sent", o.peer_forwards as f64, "count");
    report.metric("retransmissions", o.retransmissions as f64, "count");
    report.metric("updates_missed", o.update_misses as f64, "count");
    report.metric("ledger_ops", c.ledger_ops as f64, "count");
    report.metric("clone_ops", spans.clone_ops as f64, "count");
    report.metric("suspicions_raised", o.suspicions_raised as f64, "count");
    report.metric(
        "suspicions_retracted",
        o.suspicions_retracted as f64,
        "count",
    );
    report.metric(
        "retraction_ratio",
        ratio(o.suspicions_retracted, o.suspicions_raised),
        "ratio",
    );
}

/// Checks that tie the traced spans to their parents and the traced
/// counters to the untraced run's.
fn check_spans(report: &mut Report, rep: &Rep, spans: &Spans, untraced: &Counters) {
    check_same(
        report,
        "traced_counters_equal_untraced",
        (&rep.counters, untraced),
        true,
        "traced vs untraced",
    );
    let c = &rep.counters;
    let st = &spans.stages;
    report.check(
        "events_reconcile",
        c.events == st.message_calls() + c.dropped_dead + st.timer_calls()
            && st.message_calls() == c.deliveries
            && st.timer_calls() == c.timers_fired,
        format!(
            "engine events {} = message calls {} + dropped_dead {} + timer calls {}",
            c.events,
            st.message_calls(),
            c.dropped_dead,
            st.timer_calls()
        ),
    );
    let actor_busy = st.total_busy_s();
    let parent = match spans.breakdown {
        Some(b) => {
            let phases = b.window_exec_s + b.exchange_s + b.trace_merge_s + b.scheduling_s;
            report.check(
                "engine_phases_within_wall",
                phases <= spans.engine_run_s * 1.02 + 0.005,
                format!(
                    "phases {phases:.4} s, engine run {:.4} s",
                    spans.engine_run_s
                ),
            );
            ("window_exec_s", b.window_exec_s)
        }
        None => ("engine_run_s", spans.engine_run_s),
    };
    report.check(
        "stages_within_parent_span",
        actor_busy <= parent.1 * 1.05 + 0.005,
        format!(
            "protocol stages {actor_busy:.4} s (sampled 1 in 8) within {} {:.4} s",
            parent.0, parent.1
        ),
    );
    report.info("engine_run_s", spans.engine_run_s, "s");
}

fn tiled_untraced(report: &mut Report, w: Workload, spec: &TiledSpec, args: &Args) {
    let n = workers();
    let seeds = instance_seeds(args.seed, spec.instances);
    let reps = measure(args.seconds, &seeds, |s| workloads::tiled_rep(spec, s, n));
    end_to_end(report, w, &reps, n);
}

/// The traced run measures the first instance of the untraced run.
fn tiled_traced(report: &mut Report, w: Workload, spec: &TiledSpec, args: &Args) {
    let seed = instance_seeds(args.seed, 1)[0];
    let base: Vec<Rep> = (0..TRACE_REPS)
        .map(|_| workloads::tiled_rep(spec, seed, 1))
        .collect();
    let traced: Vec<(Rep, Spans)> = (0..TRACE_REPS)
        .map(|_| workloads::tiled_traced(spec, seed))
        .collect();
    let base_run = median(&base.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_runs: Vec<f64> = traced.iter().map(|(r, _)| r.run_s).collect();
    let (rep, spans) = &traced[median_index(&traced_runs)];
    per_layer(report, rep, spans, base_run);
    absent_chaos_layers(report);
    tracing_overhead(report, median(&traced_runs), base_run);
    account(report, [rep]);
    check_outcome(report, w, rep);
    check_spans(report, rep, spans, &base[0].counters);
}

/// `chaos_fork`-only layers, reported as zero where neither a Monitor
/// nor a checkpoint runs.
fn absent_chaos_layers(report: &mut Report) {
    for (name, unit) in [
        ("monitor_events", "count"),
        ("monitor_sweeps", "count"),
        ("hard_violations", "count"),
        ("monitor_sweep_s", "s"),
        ("checkpoint_bytes", "B"),
        ("checkpoint_write_s", "s"),
        ("restore_s", "s"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

fn tracing_overhead(report: &mut Report, traced_s: f64, untraced_s: f64) {
    report.metric(
        "tracing_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    report.info("traced_run_s_median", traced_s, "s");
    report.info("untraced_run_s_median", untraced_s, "s");
}

fn chaos_untraced(report: &mut Report, spec: &ChaosSpec, args: &Args) {
    let seeds = instance_seeds(args.seed, spec.instances);
    let reps = measure(args.seconds, &seeds, |s| {
        workloads::chaos_rep(spec, s, spec.stride)
    });
    end_to_end(report, Workload::ChaosFork, &reps, 1);
}

/// The traced run measures the first instance of the untraced run.
fn chaos_traced(report: &mut Report, spec: &ChaosSpec, args: &Args) {
    let seed = instance_seeds(args.seed, 1)[0];
    let base: Vec<Rep> = (0..TRACE_REPS)
        .map(|_| workloads::chaos_continuous(spec, seed, false).0)
        .collect();
    let traced: Vec<(Rep, Spans)> = (0..TRACE_REPS)
        .map(|_| workloads::chaos_continuous(spec, seed, true))
        .collect();
    let swept: Vec<_> = (0..TRACE_REPS)
        .map(|_| workloads::chaos_layers(spec, seed, spec.stride))
        .collect();
    let unswept: Vec<_> = (0..TRACE_REPS)
        .map(|_| workloads::chaos_layers(spec, seed, 0))
        .collect();
    let forked = workloads::chaos_rep(spec, seed, spec.stride);

    let base_run = median(&base.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_runs: Vec<f64> = traced.iter().map(|(r, _)| r.run_s).collect();
    let (rep, spans) = &traced[median_index(&traced_runs)];
    let setup = workloads::chaos_setup(spec, seed);
    let (topology_build_s, formation_s) = workloads::field_spans(&setup.exp);
    let spans = Spans {
        topology_build_s,
        formation_s,
        stages: spans.stages.clone(),
        ..*spans
    };
    per_layer(report, rep, &spans, base_run);

    let (layers, _) = &swept[0];
    let med = |v: &[(workloads::ChaosLayers, f64)], f: fn(&workloads::ChaosLayers, f64) -> f64| {
        median(&v.iter().map(|(l, s)| f(l, *s)).collect::<Vec<_>>())
    };
    report.metric("monitor_events", layers.monitor_events as f64, "count");
    report.metric("monitor_sweeps", layers.monitor_sweeps as f64, "count");
    report.metric(
        "hard_violations",
        forked.hard_violations.len() as f64,
        "count",
    );
    report.metric(
        "monitor_sweep_s",
        med(&swept, |_, s| s) - med(&unswept, |_, s| s),
        "s",
    );
    report.metric("checkpoint_bytes", layers.checkpoint_bytes as f64, "B");
    report.metric(
        "checkpoint_write_s",
        med(&swept, |l, _| l.checkpoint_write_s),
        "s",
    );
    report.metric("restore_s", med(&swept, |l, _| l.restore_s), "s");
    tracing_overhead(report, median(&traced_runs), base_run);
    account(report, [&forked]);
    check_outcome(report, Workload::ChaosFork, &forked);
    check_spans(report, rep, &spans, &base[0].counters);
    check_same(
        report,
        "fork_equals_continuous",
        (&forked.counters, &base[0].counters),
        false,
        "forked from the warm checkpoint vs one continuous engine",
    );
    check_same(
        report,
        "campaign_fork_equals_inline",
        (&layers.campaign_counters, &forked.counters),
        true,
        "campaign::run_monitored_forked vs the inline fork",
    );
    check_same(
        report,
        "monitor_is_observational",
        (&unswept[0].0.campaign_counters, &layers.campaign_counters),
        true,
        "Monitor stride 0 vs stride 64",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match (args.workload, args.trace) {
        (w @ Workload::SteadyField, false) => tiled_untraced(&mut report, w, &STEADY_FIELD, &args),
        (w @ Workload::CrashStorm, false) => tiled_untraced(&mut report, w, &CRASH_STORM, &args),
        (w @ Workload::SteadyField, true) => tiled_traced(&mut report, w, &STEADY_FIELD, &args),
        (w @ Workload::CrashStorm, true) => tiled_traced(&mut report, w, &CRASH_STORM, &args),
        (Workload::ChaosFork, false) => chaos_untraced(&mut report, &CHAOS_FORK, &args),
        (Workload::ChaosFork, true) => chaos_traced(&mut report, &CHAOS_FORK, &args),
    }
    check_finite(&mut report);
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
