//! Determinism regression tests for the experiment engine and routing
//! caches: campaign outputs must be byte-identical regardless of thread
//! count, and memoized routing tables must match direct recomputation —
//! including on degraded topologies.
//!
//! These tests mutate process-global engine/cache overrides, so they are
//! serialised behind one mutex rather than relying on test-runner
//! ordering.

use spacecdn_suite::core::{clear_graph_pool, graph_pool_stats};
use spacecdn_suite::engine::{set_snapshot_pool_override, set_thread_override};
use spacecdn_suite::geo::{DetRng, SimTime};
use spacecdn_suite::lsn::{
    set_routing_cache_override, FaultPlan, FaultSchedule, IslGraph, SourceTables,
};
use spacecdn_suite::measure::aim::{AimCampaign, AimConfig};
use spacecdn_suite::measure::spacecdn::hop_bound_experiment;
use spacecdn_suite::orbit::shell::shells;
use spacecdn_suite::orbit::{Constellation, SatIndex};
use std::sync::Mutex;

/// Serialises tests that touch the global thread/cache overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_thread_override(Some(threads));
    let out = f();
    set_thread_override(None);
    out
}

#[test]
fn aim_campaign_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let cfg = AimConfig {
        epochs: 3,
        tests_per_epoch: 2,
        probes_per_test: 3,
        ..AimConfig::default()
    };
    let countries = ["MZ", "ES", "KE", "JP"];
    let sequential = with_thread_count(1, || {
        serde_json::to_string(AimCampaign::run_for(&cfg, &countries).records()).unwrap()
    });
    for threads in [2, 5] {
        let parallel = with_thread_count(threads, || {
            serde_json::to_string(AimCampaign::run_for(&cfg, &countries).records()).unwrap()
        });
        assert_eq!(
            sequential, parallel,
            "AIM records diverged at {threads} threads"
        );
    }
}

/// Flatten a Fig-7 sweep into a comparable string (Percentiles doesn't
/// expose its raw samples, so compare the full quantile ladder plus the
/// exact hop histogram and fallback count).
fn fig7_fingerprint() -> String {
    let mut out = String::new();
    for mut r in hop_bound_experiment(&[1, 3, 5], 60, 2, 23, &FaultSchedule::none()) {
        out.push_str(&format!(
            "bound={}:fallbacks={};",
            r.max_hops, r.ground_fallbacks
        ));
        out.push_str(&format!("hops={:?};", r.hop_histogram));
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            out.push_str(&format!("q{q}={:?};", r.latencies.quantile(q)));
        }
    }
    out
}

#[test]
fn fig7_sweep_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, fig7_fingerprint);
    let parallel = with_thread_count(4, fig7_fingerprint);
    assert_eq!(sequential, parallel, "Fig-7 sweep depends on thread count");
}

#[test]
fn fig7_sweep_identical_with_and_without_snapshot_pool() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    clear_graph_pool();
    let unpooled = fig7_fingerprint();

    set_snapshot_pool_override(Some(true));
    clear_graph_pool();
    let (hits0, _, _) = graph_pool_stats();
    let pooled = fig7_fingerprint();
    // Re-running the sweep now reuses every epoch snapshot from the pool.
    let pooled_again = fig7_fingerprint();
    let (hits1, _, len) = graph_pool_stats();

    set_snapshot_pool_override(None);
    clear_graph_pool();

    assert_eq!(unpooled, pooled, "snapshot pool changes Fig-7 output");
    assert_eq!(pooled, pooled_again, "pooled rerun diverged");
    assert!(hits1 > hits0, "second pooled run never hit the pool");
    assert!(len > 0, "pool retained no snapshots");
}

#[test]
fn fig7_sweep_identical_with_and_without_metrics() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Telemetry must be a pure observer: forcing it off and on around the
    // same campaign has to produce byte-identical results.
    spacecdn_suite::telemetry::set_metrics_override(Some(false));
    clear_graph_pool();
    let without = fig7_fingerprint();

    spacecdn_suite::telemetry::set_metrics_override(Some(true));
    clear_graph_pool();
    let with = fig7_fingerprint();

    spacecdn_suite::telemetry::set_metrics_override(None);
    clear_graph_pool();
    assert_eq!(without, with, "telemetry perturbs Fig-7 output");
}

#[test]
fn stable_metrics_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Metrics tagged `Determinism::Stable` count deterministic campaign
    // work (retrieval outcomes, trial counts, spatial queries), so their
    // values — unlike racy cache-hit splits or timings — must not depend
    // on how the work was scheduled. Reset the registry and the snapshot
    // pool before each run so each fingerprint covers exactly one sweep.
    spacecdn_suite::telemetry::set_metrics_override(Some(true));
    let fingerprint_at = |threads: usize| {
        with_thread_count(threads, || {
            clear_graph_pool();
            spacecdn_suite::telemetry::reset();
            let _ = fig7_fingerprint();
            spacecdn_suite::telemetry::snapshot().stable_fingerprint()
        })
    };
    let sequential = fingerprint_at(1);
    assert!(
        sequential.contains("core.retrieval."),
        "stable fingerprint missing retrieval metrics:\n{sequential}"
    );
    for threads in [2, 5] {
        let parallel = fingerprint_at(threads);
        assert_eq!(
            sequential, parallel,
            "stable metrics diverged at {threads} threads"
        );
    }
    spacecdn_suite::telemetry::set_metrics_override(None);
    clear_graph_pool();
}

/// Flatten one full-constellation traffic-engine run into a comparable
/// string: every counter, both byte tallies, the per-shell breakdown,
/// the exact hop histogram, and the full quantile ladder as raw bits.
fn traffic_fingerprint() -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, Geodetic, Latency,
        TrafficConfig, TrafficSource,
    };
    let mut scenarios = starlink_shell_scenarios(&[0, 1, 2, 3], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 256 << 20,
        ..TrafficConfig::default()
    };
    let sources: Vec<TrafficSource> = [
        (40.4, -3.7, 6u32),
        (-25.97, 32.57, 2),
        (51.5, -0.13, 9),
        (35.68, 139.69, 10),
    ]
    .into_iter()
    .map(|(lat, lon, weight)| TrafficSource {
        position: Geodetic::ground(lat, lon),
        weight,
        fallback_rtt: vec![Latency::from_ms(140.0); cfg.epochs],
    })
    .collect();
    let mut r = run_traffic_multishell(&mut scenarios, &sources, &cfg);
    let mut out = format!(
        "req={};oh={};isl={};origin={};dead={};ins={};ev={};ttl={};inv={};served={};ob={};hops={:?};shells={:?};",
        r.requests,
        r.overhead_hits,
        r.isl_hits,
        r.origin_fetches,
        r.dead_zones,
        r.inserts,
        r.evictions,
        r.ttl_expiries,
        r.invalidations,
        r.served_bytes,
        r.origin_bytes,
        r.hop_histogram,
        r.per_shell,
    );
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        out.push_str(&format!(
            "q{q}={:?};",
            r.latencies.quantile(q).map(f64::to_bits)
        ));
    }
    out
}

#[test]
fn traffic_engine_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, traffic_fingerprint);
    for threads in [2, 5, 8] {
        let parallel = with_thread_count(threads, traffic_fingerprint);
        assert_eq!(
            sequential, parallel,
            "traffic engine diverged at {threads} threads"
        );
    }
}

/// [`traffic_fingerprint`] with an orbit-aware placement plan pinned
/// under the pull-through fleets and cooperative neighbor lookup on:
/// covers the pre-seeded holder lists, the pinned/neighbor hit split,
/// the ground-tier counters and the per-request decision digest across
/// the parallelism grain.
fn traffic_placement_fingerprint() -> String {
    placement_fingerprint("perplane-4:budget-4000:cap-64:coop")
}

/// [`traffic_placement_fingerprint`] under any placement spec.
fn placement_fingerprint(spec: &str) -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, Geodetic, Latency,
        PlacementSpec, TrafficConfig, TrafficSource,
    };
    let mut scenarios = starlink_shell_scenarios(&[0, 1], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 256 << 20,
        placement: Some(PlacementSpec::parse(spec).expect("valid spec")),
        ..TrafficConfig::default()
    };
    let sources: Vec<TrafficSource> = [
        (40.4, -3.7, 6u32),
        (-25.97, 32.57, 2),
        (51.5, -0.13, 9),
        (35.68, 139.69, 10),
    ]
    .into_iter()
    .map(|(lat, lon, weight)| TrafficSource {
        position: Geodetic::ground(lat, lon),
        weight,
        fallback_rtt: vec![Latency::from_ms(140.0); cfg.epochs],
    })
    .collect();
    let mut r = run_traffic_multishell(&mut scenarios, &sources, &cfg);
    let mut out = format!(
        "req={};oh={};isl={};origin={};dead={};ins={};ev={};ttl={};inv={};pin={};nb={};ge={};gr={};go={};digest={:#018x};served={};ob={};hops={:?};shells={:?};",
        r.requests,
        r.overhead_hits,
        r.isl_hits,
        r.origin_fetches,
        r.dead_zones,
        r.inserts,
        r.evictions,
        r.ttl_expiries,
        r.invalidations,
        r.pinned_hits,
        r.neighbor_hits,
        r.ground_edge_hits,
        r.ground_regional_hits,
        r.ground_origin_hits,
        r.decision_digest,
        r.served_bytes,
        r.origin_bytes,
        r.hop_histogram,
        r.per_shell,
    );
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        out.push_str(&format!(
            "q{q}={:?};",
            r.latencies.quantile(q).map(f64::to_bits)
        ));
    }
    out
}

#[test]
fn placement_traffic_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, traffic_placement_fingerprint);
    // The pin only means something if the placement path actually ran:
    // pinned replicas and the coop rung must both serve requests here.
    assert!(
        sequential.contains("pin=") && !sequential.contains("pin=0;"),
        "placement fingerprint served no pinned hits:\n{sequential}"
    );
    assert!(
        !sequential.contains("nb=0;"),
        "placement fingerprint served no cooperative neighbor hits:\n{sequential}"
    );
    for threads in [2, 5, 8] {
        let parallel = with_thread_count(threads, traffic_placement_fingerprint);
        assert_eq!(
            sequential, parallel,
            "placement-enabled traffic diverged at {threads} threads"
        );
    }
}

/// The placement fingerprint with the tiered ground fallback on: every
/// ground fetch walks the edge → regional → origin `CacheHierarchy`.
fn traffic_tiers_fingerprint() -> String {
    placement_fingerprint("perplane-4:budget-4000:cap-64:coop:tiers")
}

#[test]
fn tiered_ground_fallback_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, traffic_tiers_fingerprint);
    // The pin only means something if every ground tier served requests.
    for tier in ["ge=", "gr=", "go="] {
        assert!(
            sequential.contains(tier) && !sequential.contains(&format!("{tier}0;")),
            "tiered fingerprint served nothing from {tier}:\n{sequential}"
        );
    }
    for threads in [2, 5, 8] {
        let parallel = with_thread_count(threads, traffic_tiers_fingerprint);
        assert_eq!(
            sequential, parallel,
            "tiered-ground traffic diverged at {threads} threads"
        );
    }
}

/// [`traffic_fingerprint`] under a specific cache policy, single shell,
/// with caches tight enough that every policy's eviction path runs hot.
fn traffic_policy_fingerprint(policy: spacecdn_suite::prelude::PolicyKind) -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, Geodetic, Latency,
        TrafficConfig, TrafficSource,
    };
    let mut scenarios = starlink_shell_scenarios(&[0], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 8 << 20,
        policy,
        ..TrafficConfig::default()
    };
    let sources: Vec<TrafficSource> = [
        (40.4, -3.7, 6u32),
        (-25.97, 32.57, 2),
        (51.5, -0.13, 9),
        (35.68, 139.69, 10),
    ]
    .into_iter()
    .map(|(lat, lon, weight)| TrafficSource {
        position: Geodetic::ground(lat, lon),
        weight,
        fallback_rtt: vec![Latency::from_ms(140.0); cfg.epochs],
    })
    .collect();
    let mut r = run_traffic_multishell(&mut scenarios, &sources, &cfg);
    let mut out = format!(
        "req={};oh={};isl={};origin={};dead={};ins={};ev={};ttl={};inv={};served={};ob={};hops={:?};",
        r.requests,
        r.overhead_hits,
        r.isl_hits,
        r.origin_fetches,
        r.dead_zones,
        r.inserts,
        r.evictions,
        r.ttl_expiries,
        r.invalidations,
        r.served_bytes,
        r.origin_bytes,
        r.hop_histogram,
    );
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        out.push_str(&format!(
            "q{q}={:?};",
            r.latencies.quantile(q).map(f64::to_bits)
        ));
    }
    out
}

#[test]
fn traffic_engine_identical_at_any_thread_count_for_every_policy() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Each policy's TrafficReport must be byte-identical at 1/2/5/8
    // worker threads: shard fleets are per-stream, so policy state must
    // never leak across the parallelism grain.
    let mut fingerprints = Vec::new();
    for policy in spacecdn_suite::prelude::PolicyKind::ALL {
        let sequential = with_thread_count(1, || traffic_policy_fingerprint(policy));
        for threads in [2, 5, 8] {
            let parallel = with_thread_count(threads, || traffic_policy_fingerprint(policy));
            assert_eq!(
                sequential,
                parallel,
                "{} policy diverged at {threads} threads",
                policy.name()
            );
        }
        fingerprints.push(sequential);
    }
    // Sanity: the knob actually reaches the engine — under eviction
    // pressure the policies cannot all tell the same story.
    fingerprints.dedup();
    assert!(
        fingerprints.len() > 1,
        "all policies produced identical reports — policy knob inert?"
    );
}

#[test]
fn traffic_engine_identical_with_delta_on_and_off_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Delta-aware epoch advancement patches the previous epoch's graph in
    // place instead of rebuilding; a full-constellation traffic report
    // must come out byte-identical either way, at every thread count.
    spacecdn_suite::core::set_delta_override(Some(false));
    clear_graph_pool();
    let canonical = with_thread_count(1, traffic_fingerprint);
    for delta in [false, true] {
        spacecdn_suite::core::set_delta_override(Some(delta));
        for threads in [1, 2, 5, 8] {
            clear_graph_pool();
            let fp = with_thread_count(threads, traffic_fingerprint);
            assert_eq!(
                canonical, fp,
                "traffic engine diverged with delta={delta} at {threads} threads"
            );
        }
    }
    spacecdn_suite::core::set_delta_override(None);
    clear_graph_pool();
}

#[test]
fn hop_distance_between_is_symmetric_and_reuses_tables() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(79, "determinism-symmetry");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.1, &mut rng);
    let graph = IslGraph::build(&constellation, SimTime::from_secs(211), &faults);

    set_routing_cache_override(Some(true));
    let pairs = [(0u32, 900u32), (111, 1583), (700, 42)];
    for (a, b) in pairs {
        let (a, b) = (SatIndex(a), SatIndex(b));
        let forward = graph.hop_distance_between(a, b);
        // The reverse query must be answered from the same table (hops are
        // integer BFS levels — direction can't change them) without
        // computing b's table.
        let before = graph.reverse_table_hits();
        let backward = graph.hop_distance_between(b, a);
        assert_eq!(forward, backward, "hop distance asymmetric {a:?}↔{b:?}");
        assert!(
            graph.reverse_table_hits() > before,
            "reverse lookup recomputed instead of reusing {a:?}'s table"
        );
    }
    set_routing_cache_override(None);
}

#[test]
fn routing_cache_matches_direct_computation_on_faulted_graph() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(77, "determinism-faults");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.15, &mut rng);
    let graph = IslGraph::build(&constellation, SimTime::from_secs(431), &faults);

    for src in [0u32, 111, 700, 1583] {
        let src = SatIndex(src);
        let direct = SourceTables::compute(&graph, src);

        set_routing_cache_override(Some(true));
        let cached = graph.routing_tables(src);
        assert_eq!(*cached, direct, "cached tables diverge for {src:?}");
        // A second lookup returns the same memoized entry.
        assert_eq!(*graph.routing_tables(src), direct);

        set_routing_cache_override(Some(false));
        let uncached = graph.routing_tables(src);
        assert_eq!(*uncached, direct, "kill switch changes answers for {src:?}");
    }
    set_routing_cache_override(None);
}

#[test]
fn link_load_totals_identical_across_instances() {
    // `LinkLoad` keeps loads in a `HashMap`, whose iteration order is
    // seeded per instance. Float addition is not associative, so summing
    // in iteration order made `total_link_work` (and `isl_load.json`)
    // drift in the last ulp between runs. Build the same load twice —
    // two maps, two seeds — and demand bit-identical aggregates.
    let constellation = Constellation::new(shells::starlink_shell1());
    let graph = IslGraph::build(&constellation, SimTime::EPOCH, &FaultPlan::none());
    let build = || {
        let mut load = spacecdn_suite::lsn::LinkLoad::new();
        for i in 0..400u32 {
            let src = SatIndex((i * 37) % constellation.len() as u32);
            let dst = SatIndex((i * 101 + 13) % constellation.len() as u32);
            // Demands with busy mantissas so any reordering of the sum
            // shows up in the low bits.
            load.route(&graph, src, dst, 0.1 * (f64::from(i) + 0.37));
        }
        load
    };
    let a = build();
    let b = build();
    assert_eq!(
        a.total_link_work().to_bits(),
        b.total_link_work().to_bits(),
        "total_link_work drifts across HashMap instances"
    );
    assert_eq!(a.mean_hops().to_bits(), b.mean_hops().to_bits());
    assert_eq!(a.max_link(), b.max_link());
    assert_eq!(a.loaded_links(), b.loaded_links());
}

#[test]
fn nearest_alive_spatial_matches_linear_on_faulted_graph() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(78, "determinism-spatial");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.25, &mut rng);
    let graph = IslGraph::build(&constellation, SimTime::from_secs(97), &faults);

    set_routing_cache_override(Some(true));
    for lat in [-52.0, -10.0, 0.0, 33.0, 51.5] {
        for lon in [-170.0, -45.0, 0.0, 77.0, 139.0] {
            let g = spacecdn_suite::geo::Geodetic::ground(lat, lon);
            assert_eq!(
                graph.nearest_alive(g),
                graph.nearest_alive_linear(g),
                "spatial index diverges at lat={lat} lon={lon}"
            );
        }
    }
    set_routing_cache_override(None);
}

/// The covered-city fallback table built the straightforward way: every
/// snapshot first, then one sequential city × epoch loop that re-runs
/// anycast selection per cell. The reference the epoch-parallel build
/// must match bit for bit.
fn naive_covered_traffic_sources(
    net: &spacecdn_suite::prelude::LsnNetwork,
    schedule: &FaultSchedule,
    start: SimTime,
    epochs: usize,
    epoch_step: spacecdn_suite::geo::SimDuration,
) -> Vec<spacecdn_suite::prelude::TrafficSource> {
    use spacecdn_suite::geo::Latency;
    use spacecdn_suite::prelude::TrafficSource;
    use spacecdn_suite::terra::cdn::{anycast_select, cdn_sites};
    use spacecdn_suite::terra::city::cities;
    use spacecdn_suite::terra::starlink::{covered_countries, home_pop};

    let covered = covered_countries();
    let sites = cdn_sites();
    let snapshots: Vec<_> = (0..epochs)
        .map(|e| start + epoch_step.mul(e as u64))
        .map(|t| net.snapshot(t, &schedule.plan_at(t)))
        .collect();
    let mut sources = Vec::new();
    for city in cities() {
        if !covered.contains(&city.cc) {
            continue;
        }
        let pop = home_pop(city.cc, city.position());
        let fallback_rtt: Vec<Latency> = snapshots
            .iter()
            .map(|snap| {
                snap.starlink_rtt_to_pop(city.position(), &pop, None)
                    .map(|p| {
                        let (_, pop_to_site) =
                            anycast_select(pop.position(), pop.city.region, &sites, net.fiber())
                                .expect("sites non-empty");
                        p.rtt + pop_to_site
                    })
                    .unwrap_or(Latency::from_ms(300.0))
            })
            .collect();
        sources.push(TrafficSource {
            position: city.position(),
            weight: (city.population_k / 2000).max(1),
            fallback_rtt,
        });
    }
    sources
}

/// Every field of a source table, floats as raw bits.
fn sources_fingerprint(sources: &[spacecdn_suite::prelude::TrafficSource]) -> Vec<String> {
    sources
        .iter()
        .map(|s| {
            let rtts: Vec<u64> = s.fallback_rtt.iter().map(|r| r.ms().to_bits()).collect();
            format!(
                "lat={:x};lon={:x};alt={:x};w={};rtt={rtts:x?}",
                s.position.lat_deg.to_bits(),
                s.position.lon_deg.to_bits(),
                s.position.alt_km.to_bits(),
                s.weight
            )
        })
        .collect()
}

/// The stable-metric fingerprint without the fan-out's own bookkeeping
/// (the reference build does not fan out, so its batch and task counts
/// differ by construction).
fn stable_work_fingerprint() -> String {
    spacecdn_suite::telemetry::snapshot()
        .stable_fingerprint()
        .lines()
        .filter(|l| !l.contains("engine.par_map."))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn covered_sources_identical_to_reference_at_any_thread_count() {
    use spacecdn_suite::geo::{Latency, SimDuration};
    use spacecdn_suite::measure::traffic::covered_traffic_sources_from;
    use spacecdn_suite::prelude::LsnNetwork;

    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let net = LsnNetwork::starlink();
    // A churning timeline that does not start at the epoch: satellite
    // outages plus ISL flaps, sampled every 5 s from t = 95.25 s.
    let start = SimTime::from_millis(95_250);
    let (epochs, step) = (6, SimDuration::from_secs(5));
    let mut rng = DetRng::new(12, "determinism-covered-sources");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_outages(
        net.constellation().len(),
        0.1,
        SimDuration::from_secs(130),
        SimDuration::from_secs(10),
        &mut rng,
    );
    let pristine = net
        .snapshot(SimTime::EPOCH, &FaultPlan::none())
        .graph_handle();
    schedule.random_isl_flaps(
        &pristine,
        0.05,
        SimDuration::from_secs(4),
        SimDuration::from_secs(3),
        &mut rng,
    );

    spacecdn_suite::telemetry::set_metrics_override(Some(true));
    let measured = |build: &dyn Fn() -> Vec<spacecdn_suite::prelude::TrafficSource>| {
        clear_graph_pool();
        spacecdn_suite::telemetry::reset();
        let sources = build();
        (sources, stable_work_fingerprint())
    };
    let (reference, reference_work) = with_thread_count(1, || {
        measured(&|| naive_covered_traffic_sources(&net, &schedule, start, epochs, step))
    });
    assert!(
        reference_work.contains("lsn.spatial.queries"),
        "stable fingerprint missing spatial queries:\n{reference_work}"
    );
    let dark = Latency::from_ms(300.0);
    assert!(reference.len() > 80, "got {} sources", reference.len());
    assert!(
        reference.iter().any(|s| s
            .fallback_rtt
            .windows(2)
            .any(|w| w[0] != w[1] && w[1] != dark)),
        "the churning schedule never moved a fallback RTT between epochs"
    );
    let reference = sources_fingerprint(&reference);

    for threads in [1, 2, 5, 8] {
        let (sources, work) = with_thread_count(threads, || {
            measured(&|| covered_traffic_sources_from(&net, &schedule, start, epochs, step))
        });
        assert_eq!(
            sources_fingerprint(&sources),
            reference,
            "source table diverged from the reference at {threads} threads"
        );
        assert_eq!(
            work, reference_work,
            "stable metrics of the build diverged at {threads} threads"
        );
    }
    spacecdn_suite::telemetry::set_metrics_override(None);
    clear_graph_pool();
}

/// Two Starlink 2024 shells, each under its own churning fault timeline
/// (satellite outages plus ISL flaps drawn over that shell's satellites
/// and links), for the re-run leg below.
fn churning_shell_scenarios(
    epochs: usize,
    step: spacecdn_suite::geo::SimDuration,
) -> Vec<spacecdn_suite::prelude::Scenario> {
    use spacecdn_suite::geo::SimDuration;
    use spacecdn_suite::lsn::AccessModel;
    use spacecdn_suite::orbit::MultiConstellation;
    use spacecdn_suite::prelude::{LsnNetwork, Scenario};
    use spacecdn_suite::terra::fiber::FiberModel;

    let fleet = MultiConstellation::starlink_2024();
    (0..2)
        .map(|k| {
            let net = LsnNetwork::new(
                Constellation::new(*fleet.shell(k).config()),
                Vec::new(),
                AccessModel::default(),
                FiberModel::default(),
            );
            let mut rng = DetRng::new(19, &format!("determinism/churn/shell{k}"));
            let mut schedule = FaultSchedule::none();
            schedule.random_sat_outages(
                net.constellation().len(),
                0.05,
                step.mul(epochs as u64),
                SimDuration::from_secs(20),
                &mut rng,
            );
            let pristine = net
                .snapshot(SimTime::EPOCH, &FaultPlan::none())
                .graph_handle();
            schedule.random_isl_flaps(
                &pristine,
                0.03,
                SimDuration::from_secs(12),
                SimDuration::from_secs(6),
                &mut rng,
            );
            Scenario::builder(net).schedule(schedule).build()
        })
        .collect()
}

/// The churn legs' workload: five sources over 24 × 5 s epochs under
/// placement `spec`.
fn churn_workload(
    spec: &str,
) -> (
    spacecdn_suite::prelude::TrafficConfig,
    Vec<spacecdn_suite::prelude::TrafficSource>,
) {
    use spacecdn_suite::geo::SimDuration;
    use spacecdn_suite::prelude::{Geodetic, Latency, PlacementSpec, TrafficConfig, TrafficSource};
    let epochs = 24;
    let cfg = TrafficConfig {
        requests: 6_000,
        streams: 5,
        epochs,
        epoch_step: SimDuration::from_secs(5),
        catalog_size: 600,
        cache_bytes_per_sat: 64 << 20,
        policy: spacecdn_suite::prelude::PolicyKind::LruTtl,
        placement: Some(PlacementSpec::parse(spec).expect("valid spec")),
        ..TrafficConfig::default()
    };
    let sources: Vec<TrafficSource> = [
        (40.4, -3.7, 6u32),
        (-25.97, 32.57, 2),
        (51.5, -0.13, 9),
        (35.68, 139.69, 10),
        (-33.87, 151.21, 4),
    ]
    .into_iter()
    .map(|(lat, lon, weight)| TrafficSource {
        position: Geodetic::ground(lat, lon),
        weight,
        fallback_rtt: vec![Latency::from_ms(140.0); cfg.epochs],
    })
    .collect();
    (cfg, sources)
}

/// Every counter of a churn-leg report, the decision digest, the
/// per-shell rows and the full quantile ladder as raw bits.
fn churn_report_fingerprint(r: &mut spacecdn_suite::prelude::TrafficReport) -> String {
    let mut out = format!(
        "req={};oh={};isl={};origin={};dead={};ins={};ev={};ttl={};inv={};pin={};nb={};ge={};gr={};go={};digest={:#018x};served={};ob={};hops={:?};shells={:?};",
        r.requests,
        r.overhead_hits,
        r.isl_hits,
        r.origin_fetches,
        r.dead_zones,
        r.inserts,
        r.evictions,
        r.ttl_expiries,
        r.invalidations,
        r.pinned_hits,
        r.neighbor_hits,
        r.ground_edge_hits,
        r.ground_regional_hits,
        r.ground_origin_hits,
        r.decision_digest,
        r.served_bytes,
        r.origin_bytes,
        r.hop_histogram,
        r.per_shell,
    );
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        out.push_str(&format!(
            "q{q}={:?};",
            r.latencies.quantile(q).map(f64::to_bits)
        ));
    }
    out
}

/// Fingerprints of `runs` consecutive `run_traffic_multishell` calls on
/// one set of churning scenarios: 2 shells × 24 epochs, more graphs than
/// the process-wide snapshot pool holds, so a re-run can only reuse
/// graphs through the timeline each scenario kept from its last freeze.
fn churn_rerun_fingerprints(runs: usize) -> Vec<String> {
    use spacecdn_suite::prelude::run_traffic_multishell;
    let (cfg, sources) = churn_workload("perplane-2:budget-600:coop");
    let mut scenarios = churning_shell_scenarios(cfg.epochs, cfg.epoch_step);
    (0..runs)
        .map(|_| {
            churn_report_fingerprint(&mut run_traffic_multishell(&mut scenarios, &sources, &cfg))
        })
        .collect()
}

#[test]
fn churning_rerun_identical_to_fresh_scenarios_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // A re-run on the same scenarios gets back the graphs (and warm
    // routing tables) the first run froze; its report must equal a run
    // on freshly built scenarios, at every thread count, with the
    // snapshot pool (and so the retained timeline) on or off.
    set_snapshot_pool_override(Some(false));
    clear_graph_pool();
    let fresh = with_thread_count(1, || churn_rerun_fingerprints(1)).remove(0);
    assert!(
        !fresh.contains("inv=0;"),
        "the churning timeline never invalidated a cached copy:\n{fresh}"
    );
    for pooled in [true, false] {
        set_snapshot_pool_override(Some(pooled));
        for threads in [1, 2, 5, 8] {
            clear_graph_pool();
            let runs = with_thread_count(threads, || churn_rerun_fingerprints(2));
            for (i, fp) in runs.iter().enumerate() {
                assert_eq!(
                    &fresh, fp,
                    "run {i} diverged from fresh scenarios at {threads} threads (pool {pooled})"
                );
            }
        }
    }
    set_snapshot_pool_override(None);
    clear_graph_pool();
}

#[test]
fn shared_geometry_table_identical_at_any_thread_count() {
    use spacecdn_suite::prelude::run_traffic_multishell;
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Every stream of a call reads one lazily filled (source, epoch)
    // geometry table; whichever stream fills a cell first, the report,
    // the stable metrics and the number of cells built must not depend
    // on the thread count.
    let (cfg, sources) = churn_workload("perplane-2:budget-600:coop:tiers");
    spacecdn_suite::telemetry::set_metrics_override(Some(true));
    let run_at = |threads: usize| {
        with_thread_count(threads, || {
            clear_graph_pool();
            let mut scenarios = churning_shell_scenarios(cfg.epochs, cfg.epoch_step);
            spacecdn_suite::telemetry::reset();
            let mut r = run_traffic_multishell(&mut scenarios, &sources, &cfg);
            let metrics = spacecdn_suite::telemetry::snapshot();
            (
                churn_report_fingerprint(&mut r),
                metrics.stable_fingerprint(),
                metrics,
            )
        })
    };
    let (report, stable, metrics) = run_at(1);
    let counter = |name: &str| {
        metrics
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing:\n{stable}"))
    };
    let builds = counter("core.traffic.batch.geometry_builds");
    let formed = counter("core.traffic.batch.formed");
    let queries = counter("lsn.spatial.queries");
    let shells = 2;
    assert!(
        builds <= formed.min((sources.len() * cfg.epochs) as u64),
        "{builds} geometry builds for {formed} contexts over {} pairs",
        sources.len() * cfg.epochs
    );
    assert!(
        builds < formed,
        "{} streams shared no geometry: {builds} builds for {formed} contexts",
        cfg.streams
    );
    assert!(
        queries <= shells * builds,
        "{queries} nearest-satellite queries for {builds} geometry builds"
    );
    for threads in [2, 5, 8] {
        let (r, st, _) = run_at(threads);
        assert_eq!(report, r, "report diverged at {threads} threads");
        assert_eq!(stable, st, "stable metrics diverged at {threads} threads");
    }
    spacecdn_suite::telemetry::set_metrics_override(None);
    clear_graph_pool();
}
