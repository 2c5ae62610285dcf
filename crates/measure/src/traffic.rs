//! Steady-state traffic campaign: request-driven cache performance per
//! duty-cycle fraction.
//!
//! Where [`crate::spacecdn`] measures one fetch at a time against
//! pre-placed copies, this campaign drives the [`spacecdn_core::traffic`]
//! engine: Zipf-distributed requests from population-weighted covered
//! cities warm per-satellite LRU+TTL caches through pull-through, and the
//! report captures what the paper's §4/§5 discussion actually cares
//! about — hit ratio, origin offload, and the latency CDF — as the
//! thermal duty-cycle fraction throttles which satellites may cache.

use spacecdn_core::network::LsnNetwork;
use spacecdn_core::placement::PlacementSpec;
use spacecdn_core::scenario::Scenario;
use spacecdn_core::traffic::{
    run_traffic_multishell, PolicyKind, TrafficConfig, TrafficReport, TrafficSource,
};
use spacecdn_des::Percentiles;
use spacecdn_engine::par_map;
use spacecdn_geo::{Latency, SimDuration, SimTime};
use spacecdn_lsn::{AccessModel, FaultSchedule};
use spacecdn_orbit::{Constellation, MultiConstellation};
use spacecdn_telemetry::LazyCounter;
use spacecdn_terra::cdn::{anycast_select, cdn_sites};
use spacecdn_terra::city::{cities, City};
use spacecdn_terra::fiber::FiberModel;
use spacecdn_terra::starlink::{covered_countries, home_pop, StarlinkPop};

/// Campaign points produced (stable: fixed by the sweep parameters).
static TRAFFIC_POINTS: LazyCounter = LazyCounter::stable("measure.traffic.points");

/// Parameters of a traffic campaign sweep.
#[derive(Debug, Clone)]
pub struct TrafficCampaignConfig {
    /// Duty-cycle fractions to sweep (each gets its own full run).
    pub duty_fractions: Vec<f64>,
    /// Total simulated requests per sweep point.
    pub requests: u64,
    /// Independent request streams (parallelism grain; does not change
    /// results).
    pub streams: usize,
    /// Topology epochs the run advances through.
    pub epochs: usize,
    /// Wall time between epochs.
    pub epoch_step: SimDuration,
    /// Catalog size (objects).
    pub catalog_size: usize,
    /// Zipf popularity exponent.
    pub zipf_alpha: f64,
    /// Per-satellite cache capacity in bytes.
    pub cache_bytes_per_sat: u64,
    /// Object freshness lifetime.
    pub ttl: SimDuration,
    /// Cache eviction/admission policy every satellite fleet runs.
    pub policy: PolicyKind,
    /// Pinned replica placement layered under the pull-through fleets
    /// (`None` = pure pull-through).
    pub placement: Option<PlacementSpec>,
    /// Which Starlink 2024 shells to simulate (indices into
    /// [`MultiConstellation::starlink_2024`]); the default is Shell 1
    /// only, matching the pre-multishell campaign.
    pub shells: Vec<usize>,
    /// Master seed for every stream in the campaign.
    pub seed: u64,
}

impl Default for TrafficCampaignConfig {
    fn default() -> Self {
        TrafficCampaignConfig {
            duty_fractions: vec![1.0, 0.6, 0.3],
            requests: 50_000,
            streams: 8,
            epochs: 3,
            epoch_step: SimDuration::from_secs(157),
            catalog_size: 10_000,
            zipf_alpha: 0.9,
            cache_bytes_per_sat: 8 << 30,
            ttl: SimDuration::from_mins(30),
            policy: PolicyKind::from_env(),
            placement: PlacementSpec::from_env(),
            shells: vec![0],
            seed: 42,
        }
    }
}

/// One sweep point: the traffic engine's report for a duty fraction.
#[derive(Debug)]
pub struct TrafficPoint {
    /// Active cache fraction this point ran under.
    pub fraction: f64,
    /// Cache hit ratio over all requests (overhead + ISL hits).
    pub hit_ratio: f64,
    /// Byte fraction served from space rather than origin.
    pub origin_offload: f64,
    /// Request latency samples (milliseconds).
    pub latencies: Percentiles,
    /// The engine's full report (counters, hop histogram, byte tallies).
    pub report: TrafficReport,
}

/// Population-weighted request sources over Starlink-covered cities, with
/// the per-epoch ground-fallback RTT each city would see riding the
/// regular Starlink-CDN path (PoP homing + anycast CDN selection) under
/// `schedule` at that epoch. Cities whose sky is dark at an epoch fall
/// back to a conservative 300 ms.
///
/// Deterministic: the RTT query runs without jitter (`rng = None`), so
/// the same schedule and epochs always produce the same source table.
pub fn covered_traffic_sources(
    net: &LsnNetwork,
    schedule: &FaultSchedule,
    epochs: usize,
    epoch_step: SimDuration,
) -> Vec<TrafficSource> {
    covered_traffic_sources_from(net, schedule, SimTime::EPOCH, epochs, epoch_step)
}

/// [`covered_traffic_sources`] with the epoch timeline anchored at
/// `start` instead of [`SimTime::EPOCH`] — the fallback table for a
/// traffic burst whose `TrafficConfig::start` carries a long-lived
/// session's running clock.
///
/// The table is built one epoch per [`par_map`] task: each task takes
/// its epoch's snapshot, evaluates every covered city against it and
/// drops it, so at most one snapshot per worker is alive at a time. The
/// PoP→CDN anycast leg depends only on the home PoP, so it is computed
/// once per distinct PoP up front. Every task's arithmetic is the same
/// whatever the schedule of tasks, so the table is bit-identical at any
/// thread count.
pub fn covered_traffic_sources_from(
    net: &LsnNetwork,
    schedule: &FaultSchedule,
    start: SimTime,
    epochs: usize,
    epoch_step: SimDuration,
) -> Vec<TrafficSource> {
    let covered = covered_countries();
    let sites = cdn_sites();
    // Every covered city with the index of its home PoP in `pops`.
    let mut pops: Vec<StarlinkPop> = Vec::new();
    let homed: Vec<(&City, usize)> = cities()
        .iter()
        .filter(|city| covered.contains(&city.cc))
        .map(|city| {
            let pop = home_pop(city.cc, city.position());
            let k = pops.iter().position(|&p| p == pop).unwrap_or_else(|| {
                pops.push(pop);
                pops.len() - 1
            });
            (city, k)
        })
        .collect();
    let pop_to_site: Vec<Latency> = pops
        .iter()
        .map(|pop| {
            anycast_select(pop.position(), pop.city.region, &sites, net.fiber())
                .expect("sites non-empty")
                .1
        })
        .collect();

    let epoch_times: Vec<SimTime> = (0..epochs)
        .map(|e| start + epoch_step.mul(e as u64))
        .collect();
    let columns: Vec<Vec<Latency>> = par_map(&epoch_times, |_, &t| {
        let snap = net.snapshot(t, &schedule.plan_at(t));
        homed
            .iter()
            .map(|&(city, k)| {
                snap.starlink_rtt_to_pop(city.position(), &pops[k], None)
                    .map(|p| p.rtt + pop_to_site[k])
                    .unwrap_or(Latency::from_ms(300.0))
            })
            .collect()
    });

    homed
        .iter()
        .enumerate()
        .map(|(i, &(city, _))| TrafficSource {
            position: city.position(),
            // One weight unit per ~2M people, at least one — the same
            // bucketing the fig7/fig8 city sampler uses.
            weight: (city.population_k / 2000).max(1),
            fallback_rtt: columns.iter().map(|column| column[i]).collect(),
        })
        .collect()
}

/// One retrieval scenario per requested Starlink 2024 shell, all under
/// the same fault timeline — the shell set [`run_traffic_multishell`]
/// consumes. Shell 0 of [`MultiConstellation::starlink_2024`] is exactly
/// the calibrated Shell 1 geometry, so `&[0]` reproduces the
/// single-shell campaign; gateways and models match
/// [`LsnNetwork::starlink`].
///
/// # Panics
/// Panics when a shell index is out of range for the 2024 constellation.
pub fn starlink_shell_scenarios(shells: &[usize], schedule: &FaultSchedule) -> Vec<Scenario> {
    let fleet = MultiConstellation::starlink_2024();
    shells
        .iter()
        .map(|&k| {
            assert!(
                k < fleet.shell_count(),
                "shell index {k} out of range for Starlink 2024"
            );
            Scenario::builder(LsnNetwork::new(
                Constellation::new(*fleet.shell(k).config()),
                Vec::new(),
                AccessModel::default(),
                FiberModel::default(),
            ))
            .schedule(schedule.clone())
            .build()
        })
        .collect()
}

/// Run the steady-state traffic campaign: one full engine run per duty
/// fraction across every configured shell, all under the same fault
/// timeline. Pristine campaigns pass [`FaultSchedule::none()`].
///
/// Sources and their ground-fallback RTTs come from the calibrated
/// Shell 1 network (the bent pipe rides the shell users home to), while
/// in-space serving spans every shell in `cfg.shells`.
pub fn traffic_campaign(
    cfg: &TrafficCampaignConfig,
    schedule: &FaultSchedule,
) -> Vec<TrafficPoint> {
    let net = LsnNetwork::starlink();
    let sources = covered_traffic_sources(&net, schedule, cfg.epochs, cfg.epoch_step);
    let mut scenarios = starlink_shell_scenarios(&cfg.shells, schedule);

    let mut points = Vec::new();
    for &fraction in &cfg.duty_fractions {
        let engine_cfg = TrafficConfig {
            requests: cfg.requests,
            streams: cfg.streams,
            epochs: cfg.epochs,
            epoch_step: cfg.epoch_step,
            catalog_size: cfg.catalog_size,
            zipf_alpha: cfg.zipf_alpha,
            cache_bytes_per_sat: cfg.cache_bytes_per_sat,
            ttl: cfg.ttl,
            policy: cfg.policy,
            placement: cfg.placement,
            duty_fraction: fraction,
            seed: cfg.seed,
            ..TrafficConfig::default()
        };
        let report = run_traffic_multishell(&mut scenarios, &sources, &engine_cfg);
        TRAFFIC_POINTS.incr();
        points.push(TrafficPoint {
            fraction,
            hit_ratio: report.hit_ratio(),
            origin_offload: report.origin_offload(),
            latencies: report.latencies.clone(),
            report,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TrafficCampaignConfig {
        TrafficCampaignConfig {
            duty_fractions: vec![1.0, 0.3],
            requests: 2_000,
            streams: 4,
            epochs: 2,
            catalog_size: 400,
            cache_bytes_per_sat: 64 << 20,
            ..TrafficCampaignConfig::default()
        }
    }

    #[test]
    fn sources_cover_the_paper_geography() {
        let net = LsnNetwork::starlink();
        let sources =
            covered_traffic_sources(&net, &FaultSchedule::none(), 2, SimDuration::from_secs(157));
        assert!(sources.len() > 80, "got {}", sources.len());
        assert!(sources.iter().all(|s| s.weight >= 1));
        assert!(sources.iter().all(|s| s.fallback_rtt.len() == 2));
        // Fallbacks are real computed paths, not all the 300 ms default.
        assert!(sources
            .iter()
            .any(|s| s.fallback_rtt.iter().any(|&r| r != Latency::from_ms(300.0))));
    }

    #[test]
    fn campaign_sweeps_fractions_and_degrades_when_throttled() {
        let cfg = quick_cfg();
        let points = traffic_campaign(&cfg, &FaultSchedule::none());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.report.requests, cfg.requests);
            assert_eq!(p.latencies.len() as u64, cfg.requests);
            assert!((0.0..=1.0).contains(&p.hit_ratio));
            assert!((0.0..=1.0).contains(&p.origin_offload));
        }
        // Throttling caches to 30 % cannot improve the hit ratio.
        assert!(
            points[0].hit_ratio >= points[1].hit_ratio,
            "full {} vs throttled {}",
            points[0].hit_ratio,
            points[1].hit_ratio
        );
        // The default single-shell campaign reports one shell slice.
        assert_eq!(points[0].report.per_shell.len(), 1);
    }

    #[test]
    fn campaign_spans_all_starlink_shells() {
        let cfg = TrafficCampaignConfig {
            duty_fractions: vec![1.0],
            shells: vec![0, 1, 2, 3],
            ..quick_cfg()
        };
        let points = traffic_campaign(&cfg, &FaultSchedule::none());
        assert_eq!(points.len(), 1);
        let report = &points[0].report;
        assert_eq!(report.requests, cfg.requests);
        assert_eq!(report.per_shell.len(), 4);
        assert_eq!(
            report.per_shell.iter().map(|s| s.inserts).sum::<u64>(),
            report.inserts
        );
        assert!(
            report.per_shell.iter().filter(|s| s.inserts > 0).count() >= 2,
            "full-constellation demand must fill multiple shells: {:?}",
            report.per_shell
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_shell_index_panics() {
        starlink_shell_scenarios(&[7], &FaultSchedule::none());
    }
}
