//! Closed-loop SpaceCDN workload simulation.
//!
//! Everything else in this crate answers *static* questions (one fetch, one
//! placement). This module runs the living system: clients around the world
//! issue Zipf/regional requests over simulated time, satellite caches fill
//! by pull-through and bubble prefetch, the constellation rotates beneath
//! the demand, and the report shows what a SpaceCDN operator would see on a
//! dashboard — hit-ratio warm-up, latency distributions, and the churn that
//! orbital motion inflicts on cache locality.

use crate::bubbles::{BubbleRegion, BubbleWorld};
use crate::network::LsnNetwork;
use spacecdn_content::catalog::{Catalog, RegionTag};
use spacecdn_content::popularity::RegionalPopularity;
use spacecdn_des::{run_until, Percentiles, Scheduler};
use spacecdn_geo::{DetRng, Geodetic, Km, SimDuration, SimTime};
use spacecdn_lsn::{bfs_nearest, spacecdn_fetch_rtt, FaultPlan};
use spacecdn_terra::cdn::{anycast_select, cdn_sites};
use spacecdn_terra::city::{cities, City};
use spacecdn_terra::starlink::{covered_countries, home_pop};

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Mean request inter-arrival time (global).
    pub mean_interarrival: SimDuration,
    /// Per-satellite cache capacity, bytes.
    pub cache_bytes: u64,
    /// ISL hop budget for in-space retrieval.
    pub max_isl_hops: u32,
    /// Topology/prefetch refresh period.
    pub refresh_period: SimDuration,
    /// Catalog size.
    pub catalog_size: usize,
    /// Zipf exponent of demand.
    pub zipf_alpha: f64,
    /// Home-region popularity boost.
    pub regional_affinity: f64,
    /// Objects prefetched per bubble region on each refresh.
    pub hot_set_size: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            duration: SimDuration::from_mins(20),
            mean_interarrival: SimDuration::from_millis(250),
            cache_bytes: 500_000_000,
            max_isl_hops: 6,
            refresh_period: SimDuration::from_mins(2),
            catalog_size: 3000,
            zipf_alpha: 1.0,
            regional_affinity: 10.0,
            hot_set_size: 800,
        }
    }
}

/// What the operator's dashboard shows after the run.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Total requests served.
    pub requests: u64,
    /// Served by the overhead satellite.
    pub overhead_hits: u64,
    /// Served from another satellite over ISLs.
    pub isl_hits: u64,
    /// Fell back to the ground (bent pipe).
    pub ground_fetches: u64,
    /// Full fetch-latency distribution, ms.
    pub latency: Percentiles,
    /// Per-minute in-space hit ratio, showing warm-up and churn.
    pub hit_ratio_timeline: Vec<(u64, f64)>,
}

impl WorkloadReport {
    /// Fraction of requests served from space.
    pub fn space_hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.overhead_hits + self.isl_hits) as f64 / self.requests as f64
    }
}

/// Demand regions used by the workload (three macro-regions with distinct
/// content tastes — enough to exercise the bubble machinery without turning
/// the experiment into a geography quiz).
fn demand_regions() -> Vec<BubbleRegion> {
    vec![
        BubbleRegion {
            tag: RegionTag(0),
            center: Geodetic::ground(48.0, 8.0), // Europe
            radius: Km(3200.0),
        },
        BubbleRegion {
            tag: RegionTag(1),
            center: Geodetic::ground(38.0, -95.0), // North America
            radius: Km(3500.0),
        },
        BubbleRegion {
            tag: RegionTag(2),
            center: Geodetic::ground(-5.0, 25.0), // Africa
            radius: Km(4200.0),
        },
    ]
}

fn tag_for_city(city: &City, regions: &[BubbleRegion]) -> RegionTag {
    regions
        .iter()
        .min_by(|a, b| {
            let da = city.position().great_circle_distance(a.center).0;
            let db = city.position().great_circle_distance(b.center).0;
            da.partial_cmp(&db).expect("finite")
        })
        .map(|r| r.tag)
        .expect("regions non-empty")
}

enum Ev {
    Request,
    Refresh,
}

/// Rebuild the topology snapshot and each pool city's ground-fetch RTT.
fn snapshot_with_ground<'a>(
    net: &'a LsnNetwork,
    t: SimTime,
    pool: &[&City],
    sites: &[spacecdn_terra::cdn::CdnSite],
) -> (crate::network::LsnSnapshot<'a>, Vec<f64>) {
    let snap = net.snapshot(t, &FaultPlan::none());
    let ground: Vec<f64> = pool
        .iter()
        .map(|city| {
            let pop = home_pop(city.cc, city.position());
            let (_, pop_to_site) =
                anycast_select(pop.position(), pop.city.region, sites, net.fiber()).expect("sites");
            snap.starlink_rtt_to_pop(city.position(), &pop, None)
                .map(|p| p.rtt.ms() + pop_to_site.ms())
                .unwrap_or(300.0)
        })
        .collect();
    (snap, ground)
}

/// Run the closed-loop workload and return the dashboard report.
pub fn run_workload(net: &LsnNetwork, config: &WorkloadConfig) -> WorkloadReport {
    let mut rng = DetRng::new(config.seed, "workload");
    let regions = demand_regions();
    let tags: Vec<RegionTag> = regions.iter().map(|r| r.tag).collect();
    let catalog = Catalog::generate(config.catalog_size, &tags, 0.7, &mut rng);
    let popularity = RegionalPopularity::build(
        &catalog,
        regions.len() as u8,
        config.zipf_alpha,
        config.regional_affinity,
        &mut rng,
    );

    // Client pool: covered cities, annotated with their demand region and
    // their bent-pipe ground-fetch RTT (refreshed with each snapshot).
    let covered = covered_countries();
    let pool: Vec<&City> = cities()
        .iter()
        .filter(|c| covered.contains(&c.cc))
        .collect();
    let sites = cdn_sites();

    let mut world = BubbleWorld::new(
        net.constellation().len(),
        config.cache_bytes,
        regions.clone(),
    );

    struct State<'a> {
        snap: crate::network::LsnSnapshot<'a>,
        ground_rtt: Vec<f64>, // per pool index
        report: WorkloadReport,
        bucket_requests: u64,
        bucket_space: u64,
        bucket_start_min: u64,
    }

    let (snap, ground_rtt) = snapshot_with_ground(net, SimTime::EPOCH, &pool, &sites);
    world.prefetch(
        net.constellation(),
        SimTime::EPOCH,
        &catalog,
        &popularity,
        config.hot_set_size,
    );

    let mut state = State {
        snap,
        ground_rtt,
        report: WorkloadReport {
            requests: 0,
            overhead_hits: 0,
            isl_hits: 0,
            ground_fetches: 0,
            latency: Percentiles::new(),
            hit_ratio_timeline: Vec::new(),
        },
        bucket_requests: 0,
        bucket_space: 0,
        bucket_start_min: 0,
    };

    let mut sched: Scheduler<Ev> = Scheduler::new();
    sched.schedule_at(
        SimTime::EPOCH
            + SimDuration::from_secs_f64(rng.exponential(config.mean_interarrival.as_secs_f64())),
        Ev::Request,
    );
    sched.schedule_at(SimTime::EPOCH + config.refresh_period, Ev::Refresh);

    let horizon = SimTime::EPOCH + config.duration;
    run_until(&mut state, &mut sched, horizon, |st, sched, at, ev| {
        match ev {
            Ev::Refresh => {
                let (snap, ground) = snapshot_with_ground(net, at, &pool, &sites);
                st.snap = snap;
                st.ground_rtt = ground;
                world.prefetch(
                    net.constellation(),
                    at,
                    &catalog,
                    &popularity,
                    config.hot_set_size,
                );
                sched.schedule_after(config.refresh_period, Ev::Refresh);
            }
            Ev::Request => {
                // Minute buckets for the timeline.
                let minute = at.0 / 60_000_000_000;
                if minute != st.bucket_start_min && st.bucket_requests > 0 {
                    st.report.hit_ratio_timeline.push((
                        st.bucket_start_min,
                        st.bucket_space as f64 / st.bucket_requests as f64,
                    ));
                    st.bucket_requests = 0;
                    st.bucket_space = 0;
                    st.bucket_start_min = minute;
                }

                let idx = rng.index(pool.len());
                let city = pool[idx];
                let tag = tag_for_city(city, &regions);
                let id = popularity.sample(tag, &mut rng);

                st.report.requests += 1;
                st.bucket_requests += 1;

                if let Some((overhead, up_slant)) = st.snap.overhead_sat(city.position()) {
                    let graph = st.snap.graph();
                    // Serve from the overhead satellite, else hunt the ISL
                    // neighbourhood for any satellite caching the object.
                    let found = bfs_nearest(graph, overhead, config.max_isl_hops, |s| {
                        world.contains(s, id)
                    });
                    match found {
                        Some(path) => {
                            let serving = *path.sats.last().expect("non-empty");
                            let rtt =
                                spacecdn_fetch_rtt(net.access(), up_slant, &path, Some(&mut rng));
                            st.report.latency.add(rtt.ms());
                            st.bucket_space += 1;
                            if path.hop_count() == 0 {
                                st.report.overhead_hits += 1;
                            } else {
                                st.report.isl_hits += 1;
                            }
                            // Recency update on the serving cache.
                            world.serve(serving, id, &catalog);
                        }
                        None => {
                            st.report.ground_fetches += 1;
                            st.report.latency.add(st.ground_rtt[idx]);
                            // Pull-through: the overhead satellite caches
                            // what it just hauled from the ground.
                            world.serve(overhead, id, &catalog);
                        }
                    }
                }

                let next = rng.exponential(config.mean_interarrival.as_secs_f64());
                sched.schedule_after(SimDuration::from_secs_f64(next), Ev::Request);
            }
        }
    });

    if state.bucket_requests > 0 {
        state.report.hit_ratio_timeline.push((
            state.bucket_start_min,
            state.bucket_space as f64 / state.bucket_requests as f64,
        ));
    }
    state.report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> WorkloadConfig {
        WorkloadConfig {
            duration: SimDuration::from_mins(6),
            mean_interarrival: SimDuration::from_millis(600),
            refresh_period: SimDuration::from_mins(2),
            catalog_size: 1500,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn workload_serves_mostly_from_space() {
        let net = LsnNetwork::starlink();
        let report = run_workload(&net, &quick_config());
        assert!(report.requests > 300, "requests {}", report.requests);
        assert!(
            report.space_hit_ratio() > 0.6,
            "space hit ratio {:.3}",
            report.space_hit_ratio()
        );
        // The latency distribution mixes fast space hits and slow ground
        // fetches.
        let mut lat = report.latency;
        assert!(lat.median().unwrap() < 80.0);
    }

    #[test]
    fn overhead_hits_dominate_isl_hits_with_prefetch() {
        // Bubble prefetch puts regional content directly overhead.
        let net = LsnNetwork::starlink();
        let report = run_workload(&net, &quick_config());
        assert!(
            report.overhead_hits > report.isl_hits,
            "overhead {} vs isl {}",
            report.overhead_hits,
            report.isl_hits
        );
    }

    #[test]
    fn timeline_buckets_cover_run() {
        let net = LsnNetwork::starlink();
        let report = run_workload(&net, &quick_config());
        assert!(report.hit_ratio_timeline.len() >= 4);
        for (_, ratio) in &report.hit_ratio_timeline {
            assert!((0.0..=1.0).contains(ratio));
        }
    }

    #[test]
    fn deterministic_runs() {
        let net = LsnNetwork::starlink();
        let a = run_workload(&net, &quick_config());
        let b = run_workload(&net, &quick_config());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.overhead_hits, b.overhead_hits);
        assert_eq!(a.ground_fetches, b.ground_fetches);
    }

    #[test]
    fn tiny_caches_push_traffic_to_ground() {
        let net = LsnNetwork::starlink();
        let starved = WorkloadConfig {
            cache_bytes: 5_000_000, // a few objects per satellite
            hot_set_size: 20,
            ..quick_config()
        };
        let rich = quick_config();
        let starved_report = run_workload(&net, &starved);
        let rich_report = run_workload(&net, &rich);
        assert!(
            starved_report.space_hit_ratio() < rich_report.space_hit_ratio(),
            "starved {:.3} vs rich {:.3}",
            starved_report.space_hit_ratio(),
            rich_report.space_hit_ratio()
        );
    }
}
