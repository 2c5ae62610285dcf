//! The two full-constellation workloads: `constellation-sweep` (the
//! headline pristine duty-cycle sweep) and `fault-churn` (a dense,
//! per-shell faulted timeline with placement and W-TinyLFU).
//!
//! Both drive the public campaign surface the way a caller would: build
//! one scenario per Starlink 2024 shell, compute the covered-city source
//! table, freeze the epochs, then call `run_traffic_multishell` once per
//! campaign point. A "command" on these workloads is one such call.

use crate::probes;
use crate::stats::{self, Metrics};
use crate::trace::Tracer;
use crate::{delta_share, pinned, Outcome, Registry};
use spacecdn_core::network::LsnNetwork;
use spacecdn_core::placement::PlacementSpec;
use spacecdn_core::scenario::Scenario;
use spacecdn_core::traffic::{
    run_traffic_multishell, PolicyKind, TrafficConfig, TrafficReport, TrafficSource,
};
use spacecdn_core::{clear_graph_pool, delta_stats};
use spacecdn_geo::{DetRng, SimDuration, SimTime};
use spacecdn_lsn::{AccessModel, FaultSchedule};
use spacecdn_measure::traffic::covered_traffic_sources;
use spacecdn_orbit::{Constellation, MultiConstellation};
use spacecdn_terra::fiber::FiberModel;
use std::time::Instant;

/// Largest dense candidate id the traffic engine can mint (ids are u16).
const DENSE_ID_CAP: usize = u16::MAX as usize;
/// Catalog shards per call (a semantic parameter, not a thread count).
const STREAMS: usize = 8;

/// One full-constellation workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Catalog size (objects).
    pub catalog: usize,
    /// Zipf exponent.
    pub alpha: f64,
    /// Per-satellite cache bytes.
    pub cache_bytes_per_sat: u64,
    /// Cache policy every fleet runs.
    pub policy: PolicyKind,
    /// Placement spec (`None` = pure pull-through).
    pub placement: Option<&'static str>,
    /// Topology epochs per call.
    pub epochs: usize,
    /// Seconds between epochs.
    pub epoch_step_s: u64,
    /// Duty fractions, one call each per repetition.
    pub duties: &'static [f64],
    /// Requests per call.
    pub requests_per_call: u64,
    /// Per-shell fault timelines (satellite outages + ISL flaps).
    pub churn: bool,
    /// Cold set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

/// The ROADMAP headline run: all four 2024 shells, pristine, swept over
/// three duty fractions, 12M requests per repetition.
pub const SWEEP: Spec = Spec {
    name: "constellation-sweep",
    catalog: 10_000,
    alpha: 0.9,
    cache_bytes_per_sat: 8 << 30,
    policy: PolicyKind::LruTtl,
    placement: None,
    epochs: 4,
    epoch_step_s: 157,
    duties: &[1.0, 0.6, 0.3],
    requests_per_call: 4_000_000,
    churn: false,
    setups: 9,
};

/// A dense churning timeline: 60 five-second epochs under per-shell
/// satellite outages and ISL flaps, with orbit-aware placement,
/// cooperative lookup, ground tiers and W-TinyLFU.
pub const CHURN: Spec = Spec {
    name: "fault-churn",
    catalog: 50_000,
    alpha: 0.8,
    cache_bytes_per_sat: 1 << 30,
    policy: PolicyKind::TinyLfu,
    placement: Some("perplane-2:budget-6000:coop:tiers"),
    epochs: 60,
    epoch_step_s: 5,
    duties: &[1.0],
    requests_per_call: 1_000_000,
    churn: true,
    setups: 3,
};

impl Spec {
    fn step(&self) -> SimDuration {
        SimDuration::from_secs(self.epoch_step_s)
    }

    fn placement(&self) -> Option<PlacementSpec> {
        self.placement
            .map(|s| PlacementSpec::parse(s).expect("workload placement spec parses"))
    }

    fn copy_budget(&self) -> usize {
        self.placement().map_or(0, |p| p.copy_budget)
    }

    /// The engine configuration of one call, every field set here so no
    /// environment knob can reach it.
    fn engine_cfg(&self, seed: u64, duty: f64) -> TrafficConfig {
        TrafficConfig {
            requests: self.requests_per_call,
            streams: STREAMS,
            epochs: self.epochs,
            epoch_step: self.step(),
            catalog_size: self.catalog,
            zipf_alpha: self.alpha,
            cache_bytes_per_sat: self.cache_bytes_per_sat,
            ttl: SimDuration::from_mins(30),
            policy: self.policy,
            duty_fraction: duty,
            duty_slot: SimDuration::from_mins(10),
            escalation: vec![1, 3, 5, 10],
            placement: self.placement(),
            seed,
            start: SimTime::EPOCH,
        }
    }
}

/// Everything a call needs, built by [`setup`].
struct World {
    scenarios: Vec<Scenario>,
    sources: Vec<TrafficSource>,
    total_sats: usize,
    /// Wall seconds of each `advance_to` made while freezing epochs.
    advance_s: Vec<f64>,
}

fn shell_network(fleet: &MultiConstellation, k: usize) -> LsnNetwork {
    LsnNetwork::new(
        Constellation::new(*fleet.shell(k).config()),
        Vec::new(),
        AccessModel::default(),
        FiberModel::default(),
    )
}

/// Shell `k`'s fault timeline, drawn over that shell's own satellites and
/// links: 5 % of satellites get one outage (mean 60 s) and 2 % of ISLs
/// flap 40 s up / 15 s down.
fn churn_schedule(seed: u64, k: usize, net: &LsnNetwork, horizon: SimDuration) -> FaultSchedule {
    let mut rng = DetRng::new(seed, &format!("perfbench/churn/shell{k}"));
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_outages(
        net.constellation().len(),
        0.05,
        horizon,
        SimDuration::from_secs(60),
        &mut rng,
    );
    let pristine = net
        .snapshot(
            SimTime::EPOCH,
            &FaultSchedule::none().plan_at(SimTime::EPOCH),
        )
        .graph_handle();
    schedule.random_isl_flaps(
        &pristine,
        0.02,
        SimDuration::from_secs(40),
        SimDuration::from_secs(15),
        &mut rng,
    );
    schedule
}

/// Build the workload from cold: the snapshot pool is emptied first, so
/// every set-up pays the same graph builds.
fn setup(spec: &Spec, seed: u64, tr: &mut Tracer) -> World {
    clear_graph_pool();
    let fleet = MultiConstellation::starlink_2024();
    let step = spec.step();
    let horizon = step.mul(spec.epochs as u64);
    let nets: Vec<LsnNetwork> = (0..fleet.shell_count())
        .map(|k| shell_network(&fleet, k))
        .collect();
    let schedules: Vec<FaultSchedule> = tr.span("lsn", 0, |_| {
        nets.iter()
            .enumerate()
            .map(|(k, net)| {
                if spec.churn {
                    churn_schedule(seed, k, net, horizon)
                } else {
                    FaultSchedule::none()
                }
            })
            .collect()
    });
    let total_sats = nets.iter().map(|n| n.constellation().len()).sum();
    let mut scenarios: Vec<Scenario> = tr.span("core.scenario", 0, |_| {
        nets.into_iter()
            .zip(&schedules)
            .map(|(net, schedule)| {
                Scenario::builder(net)
                    .schedule(schedule.clone())
                    .cache_policy(spec.policy)
                    .placement(spec.placement())
                    .build()
            })
            .collect()
    });
    // Sources ride the calibrated Shell 1 network (shell 0 of the 2024
    // fleet), under that shell's own fault timeline.
    let sources = tr.span("measure.traffic", 0, |_| {
        covered_traffic_sources(&LsnNetwork::starlink(), &schedules[0], spec.epochs, step)
    });
    assert!(
        sources.len() * spec.epochs + spec.copy_budget() < DENSE_ID_CAP,
        "{}: {} sources x {} epochs exceeds the engine's u16 candidate ids",
        spec.name,
        sources.len(),
        spec.epochs
    );
    let mut advance_s = Vec::with_capacity(scenarios.len() * spec.epochs);
    for sc in scenarios.iter_mut() {
        for e in 0..spec.epochs {
            let t0 = Instant::now();
            tr.span("core.scenario", 1 + e as u64, |_| {
                sc.advance_to(SimTime::EPOCH + step.mul(e as u64))
            });
            advance_s.push(t0.elapsed().as_secs_f64());
        }
    }
    World {
        scenarios,
        sources,
        total_sats,
        advance_s,
    }
}

/// What one call produced, after its report is checked and dropped.
struct Call {
    wall_s: f64,
    requests: u64,
    space_hits: u64,
    digest: u64,
    p50_ms: f64,
    p90_ms: f64,
}

/// The correctness gates of one report.
fn check_report(r: &TrafficReport, shells: usize, want_requests: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if r.requests != want_requests {
        bad.push(format!("requests {} != {}", r.requests, want_requests));
    }
    if r.overhead_hits + r.isl_hits + r.origin_fetches != r.requests {
        bad.push(format!(
            "overhead {} + isl {} + origin {} != requests {}",
            r.overhead_hits, r.isl_hits, r.origin_fetches, r.requests
        ));
    }
    if r.per_shell.len() != shells {
        bad.push(format!(
            "{} per-shell rows for {} shells",
            r.per_shell.len(),
            shells
        ));
    }
    let sum = |f: fn(&spacecdn_core::traffic::ShellTraffic) -> u64| -> u64 {
        r.per_shell.iter().map(f).sum()
    };
    for (what, per_shell, total) in [
        ("overhead", sum(|s| s.overhead_hits), r.overhead_hits),
        ("isl", sum(|s| s.isl_hits), r.isl_hits),
        ("inserts", sum(|s| s.inserts), r.inserts),
    ] {
        if per_shell != total {
            bad.push(format!("per-shell {what} {per_shell} != total {total}"));
        }
    }
    if r.latencies.len() as u64 != r.requests {
        bad.push(format!(
            "{} latency samples for {} requests",
            r.latencies.len(),
            r.requests
        ));
    }
    bad
}

/// One repetition: a call per duty fraction. Quantiles are computed only
/// when asked (sorting millions of samples is benchmark work, not
/// program work).
fn run_rep(
    spec: &Spec,
    seed: u64,
    world: &mut World,
    tr: &mut Tracer,
    rep: usize,
    quantiles: bool,
    failures: &mut Vec<String>,
) -> Vec<Call> {
    let shells = world.scenarios.len();
    let mut calls = Vec::with_capacity(spec.duties.len());
    for (d, &duty) in spec.duties.iter().enumerate() {
        let cfg = spec.engine_cfg(seed, duty);
        let group = (rep * spec.duties.len() + d) as u64;
        let t0 = Instant::now();
        let mut report = tr.span("core.traffic", group, |_| {
            run_traffic_multishell(&mut world.scenarios, &world.sources, &cfg)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        for msg in check_report(&report, shells, spec.requests_per_call) {
            failures.push(format!("rep {rep} duty {duty}: {msg}"));
        }
        let (p50_ms, p90_ms) = if quantiles {
            (
                report.latencies.quantile(0.5).unwrap_or(f64::NAN),
                report.latencies.quantile(0.9).unwrap_or(f64::NAN),
            )
        } else {
            (f64::NAN, f64::NAN)
        };
        calls.push(Call {
            wall_s,
            requests: report.requests,
            space_hits: report.overhead_hits + report.isl_hits,
            digest: report.decision_digest,
            p50_ms,
            p90_ms,
        });
    }
    calls
}

/// Digest gates: every repetition repeats the first, and the first
/// matches the pinned digests when the seed is the pinned one.
fn check_digests(spec: &Spec, seed: u64, reps: &[Vec<Call>], failures: &mut Vec<String>) {
    let first: Vec<u64> = reps[0].iter().map(|c| c.digest).collect();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let digests: Vec<u64> = rep.iter().map(|c| c.digest).collect();
        if digests != first {
            failures.push(format!("rep {i} digests {digests:x?} != rep 0 {first:x?}"));
        }
    }
    if let Some(want) = pinned::digests(spec.name, seed) {
        if first != want {
            failures.push(format!(
                "seed {seed} digests {first:x?} != pinned {want:x?}"
            ));
        }
    }
    println!("decision digests (seed {seed}): {first:x?}");
}

fn rep_throughput(rep: &[Call]) -> f64 {
    let requests: u64 = rep.iter().map(|c| c.requests).sum();
    let wall: f64 = rep.iter().map(|c| c.wall_s).sum();
    requests as f64 / wall
}

/// The untraced run: end-to-end metrics.
pub fn measure(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut world = None;
    for _ in 0..spec.setups {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(setup(spec, seed, &mut tr));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");
    println!(
        "set-up: {} sources, {} satellites, {} epochs; {:?} s",
        world.sources.len(),
        world.total_sats,
        spec.epochs,
        setup_s
    );

    // The first repetition fills lazily warmed routing tables. It is
    // checked and gives the simulated metrics, but it is not timed.
    let mut failures = Vec::new();
    let mut reps = vec![run_rep(
        spec,
        seed,
        &mut world,
        &mut tr,
        0,
        true,
        &mut failures,
    )];
    let registry = Registry::read();
    let window = Instant::now();
    while reps.len() < 2 || window.elapsed().as_secs_f64() < seconds {
        let rep = run_rep(
            spec,
            seed,
            &mut world,
            &mut tr,
            reps.len(),
            false,
            &mut failures,
        );
        println!(
            "rep {}: {:.0} req/s ({})",
            reps.len(),
            rep_throughput(&rep),
            rep.iter()
                .map(|c| format!("{:.3} s", c.wall_s))
                .collect::<Vec<_>>()
                .join(", ")
        );
        reps.push(rep);
    }
    let window_s = window.elapsed().as_secs_f64();
    Registry::read().print_delta(&registry);
    check_digests(spec, seed, &reps, &mut failures);

    let timed = &reps[1..];
    let calls: Vec<f64> = timed.iter().flatten().map(|c| c.wall_s * 1e3).collect();
    let throughputs: Vec<f64> = timed.iter().map(|r| rep_throughput(r)).collect();
    let first = &reps[0];
    let requests: u64 = first.iter().map(|c| c.requests).sum();
    let hits: u64 = first.iter().map(|c| c.space_hits).sum();
    let mean = |f: fn(&Call) -> f64| first.iter().map(f).sum::<f64>() / first.len() as f64;
    // Too few calls for a percentile with ten samples beyond it: the tail
    // is the slowest campaign point's median over repetitions.
    let tail_ms = (0..spec.duties.len())
        .map(|d| stats::median(&timed.iter().map(|r| r[d].wall_s * 1e3).collect::<Vec<_>>()))
        .fold(f64::NAN, f64::max);
    println!(
        "commands (engine calls): {} · tail = slowest point's median over {} repetitions",
        calls.len(),
        timed.len()
    );

    let mut m = Metrics::default();
    m.put("sim_req_per_s", stats::median(&throughputs), "1/s");
    m.put("setup_s", stats::median(&setup_s), "s");
    m.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    m.put("cmd_p50_ms", stats::median(&calls), "ms");
    m.put("cmd_tail_ms", tail_ms, "ms");
    m.put("cmds_per_s", calls.len() as f64 / window_s, "1/s");
    m.put("sim_hit_ratio", hits as f64 / requests as f64, "ratio");
    m.put("sim_fetch_p50_ms", mean(|c| c.p50_ms), "ms");
    m.put("sim_fetch_p90_ms", mean(|c| c.p90_ms), "ms");
    Outcome {
        attempted: calls.len() as u64 + 1,
        failures,
        metrics: m,
    }
}

/// The traced run: set up once and alternate untraced and traced
/// repetitions for `seconds`, then replay the arrival and policy-fleet
/// layers at the workload's parameters.
pub fn trace(spec: &Spec, seed: u64, seconds: f64, trace_out: &std::path::Path) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut failures = Vec::new();
    let mut windows: Vec<(u64, u64)> = Vec::new();

    let reg0 = Registry::read();
    let delta0 = delta_stats();
    let t_setup = tr.now_ns();
    let mut world = tr.span("bench.setup", 0, |tr| setup(spec, seed, tr));
    windows.push((t_setup, tr.now_ns()));
    let reg_setup = Registry::read();

    // One untimed repetition lets lazily warmed routing tables fill
    // before traced and untraced repetitions are compared.
    let mut reps = vec![run_rep(
        spec,
        seed,
        &mut world,
        &mut off,
        0,
        false,
        &mut failures,
    )];
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_requests = 0u64;
    let mut traced_task_ns = 0u64;
    let start = Instant::now();
    while traced_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let rep = run_rep(
            spec,
            seed,
            &mut world,
            &mut off,
            reps.len(),
            false,
            &mut failures,
        );
        plain_s.push(t0.elapsed().as_secs_f64());
        reps.push(rep);

        let before = Registry::read();
        let t0 = Instant::now();
        let from = tr.now_ns();
        let rep = tr.span("bench.rep", reps.len() as u64, |tr| {
            run_rep(spec, seed, &mut world, tr, reps.len(), false, &mut failures)
        });
        windows.push((from, tr.now_ns()));
        traced_s.push(t0.elapsed().as_secs_f64());
        traced_requests += rep.iter().map(|c| c.requests).sum::<u64>();
        traced_task_ns += Registry::read().hist_sum("engine.par_map.task_ns")
            - before.hist_sum("engine.par_map.task_ns");
        reps.push(rep);
    }
    check_digests(spec, seed, &reps, &mut failures);
    let reg1 = Registry::read();
    let delta1 = delta_stats();

    let mut rows = std::collections::BTreeMap::new();
    for &(a, b) in &windows {
        for (k, v) in tr.self_times(a, b) {
            *rows.entry(k).or_insert(0.0) += v;
        }
    }
    let wall: f64 = windows.iter().map(|&(a, b)| (b - a) as f64 / 1e9).sum();
    let overhead = stats::median(&traced_s) / stats::median(&plain_s) - 1.0;
    let run_s: f64 = tr.named("core.traffic").map(|s| s.secs()).sum();
    let threads = spacecdn_engine::thread_count();

    let arrival_ns = probes::arrival_ns(
        seed,
        STREAMS,
        spec.catalog,
        spec.alpha,
        &world.sources,
        SimTime::EPOCH + spec.step().mul(spec.epochs as u64),
        spec.requests_per_call / STREAMS as u64,
    );
    let (get_ns, insert_ns) = probes::fleet_ns(&probes::FleetProbe {
        policy: spec.policy,
        sats: world.total_sats,
        hot_sats: (world.sources.len() * spec.epochs).min(world.total_sats),
        bytes_per_sat: spec.cache_bytes_per_sat / STREAMS as u64,
        seed,
        catalog: spec.catalog,
        alpha: spec.alpha,
        streams: STREAMS,
    });

    let mut m = Metrics::default();
    let per_mreq = |name: &str| {
        reg1.counter_delta(&reg_setup, name) as f64
            / (reps.len() as f64 * spec.requests_per_call as f64 * spec.duties.len() as f64 / 1e6)
    };
    m.put(
        "measure.traffic.sources_s",
        tr.named("measure.traffic").map(|s| s.secs()).sum(),
        "s",
    );
    m.put(
        "core.scenario.advance_us",
        stats::median(&world.advance_s) * 1e6,
        "us",
    );
    m.put("lsn.delta_share", delta_share(&delta0, &delta1), "ratio");
    m.put(
        "engine.snapshot_pool.hit_ratio",
        reg1.pool_hit_ratio(&reg0),
        "ratio",
    );
    let traced_calls = tr.named("core.traffic").count() as f64;
    m.put("core.traffic.run_s", run_s / traced_calls, "s");
    m.put(
        "core.traffic.ns_per_req",
        run_s * 1e9 / traced_requests as f64,
        "ns",
    );
    m.put(
        "core.traffic.batch_reuse",
        reg1.counter_delta(&reg_setup, "core.traffic.batch.table_reuses") as f64
            / reg1.counter_delta(&reg_setup, "core.traffic.requests") as f64,
        "ratio",
    );
    m.put(
        "core.traffic.batches_formed",
        per_mreq("core.traffic.batch.formed"),
        "1/Mreq",
    );
    m.put(
        "core.traffic.invalidations",
        per_mreq("core.traffic.invalidations"),
        "1/Mreq",
    );
    m.put("core.traffic.arrival_ns", arrival_ns, "ns");
    m.put("content.fleet.get_ns", get_ns, "ns");
    m.put("content.fleet.insert_ns", insert_ns, "ns");
    m.put(
        "content.fleet.inserts",
        per_mreq("core.traffic.inserts"),
        "1/Mreq",
    );
    m.put(
        "content.fleet.evictions",
        per_mreq("core.traffic.evictions"),
        "1/Mreq",
    );
    m.put(
        "engine.busy_share",
        traced_task_ns as f64 / 1e9 / (run_s * threads as f64),
        "ratio",
    );
    m.put("engine.threads", threads as f64, "count");
    for name in [
        "serve.parse_us",
        "serve.journal_us",
        "serve.session_us",
        "serve.socket_us",
    ] {
        m.put_not_called(name, "us");
    }
    m.put_not_called("serve.journal_bytes", "bytes");
    crate::put_self_rows(&mut m, &rows, wall, overhead);
    crate::write_trace(trace_out, &tr);
    Outcome {
        attempted: reps.iter().map(|r| r.len() as u64).sum::<u64>() + 1,
        failures,
        metrics: m,
    }
}
