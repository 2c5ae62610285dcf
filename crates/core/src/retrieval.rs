//! The SpaceCDN fetch logic of Figure 6.
//!
//! 1. If the overhead satellite caches the object, serve it directly
//!    (red arrow).
//! 2. Otherwise route over ISLs to the nearest satellite holding a copy,
//!    within a hop budget (blue arrow).
//! 3. If no copy is within budget, fall back to the ground cache behind
//!    the bent pipe (black arrow).
//!
//! The one entry point is [`RetrievalRequest`]: a builder-style
//! description of a fetch (user position, hop-budget escalation ladder,
//! ground-fallback RTT, graceful-degradation policy) executed against a
//! topology snapshot — either directly via [`RetrievalRequest::execute`]
//! or through a long-lived [`crate::scenario::Scenario`] session. Both
//! request modes walk the same ladder; a non-graceful request walks only
//! its widest rung. The batched engine in [`crate::traffic`] composes its
//! own costs and shares only [`space_segment_cost`] with this path.

use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{DetRng, Geodetic, Km, Latency};
use spacecdn_lsn::{AccessModel, IslGraph};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::{LazyCounter, LazyHistogram, Unit};
use std::collections::BTreeSet;

/// Fetch-outcome counters (stable: outcomes are pure functions of the
/// deterministic campaign inputs, so the tallies are identical at any
/// thread count). Every request counts its outcome here. A non-graceful
/// request splits `ground_fallback` into `budget_miss` (no copy within the
/// hop budget) and `ground_cheaper` (a copy was in budget but the bent
/// pipe still won on RTT); a graceful one splits it under
/// `resilient.degraded.*` instead.
static OVERHEAD_HITS: LazyCounter = LazyCounter::stable("core.retrieval.overhead_hit");
static ISL_HITS: LazyCounter = LazyCounter::stable("core.retrieval.isl_hit");
static GROUND_FALLBACKS: LazyCounter = LazyCounter::stable("core.retrieval.ground_fallback");
static BUDGET_MISSES: LazyCounter = LazyCounter::stable("core.retrieval.budget_miss");
static GROUND_CHEAPER: LazyCounter = LazyCounter::stable("core.retrieval.ground_cheaper");
/// BFS hop distance of every ISL-served fetch.
static ISL_HOPS: LazyHistogram = LazyHistogram::stable("core.retrieval.hops", Unit::Hops);

/// Graceful-request counters (stable, like the fetch-outcome counters
/// above); non-graceful requests never touch them. `retries` counts
/// hop-budget escalations beyond the first attempt; `degraded` counts
/// fetches that ended at the ground cache, split by reason.
static RESILIENT_FETCHES: LazyCounter = LazyCounter::stable("core.retrieval.resilient.fetches");
static RESILIENT_RETRIES: LazyCounter = LazyCounter::stable("core.retrieval.resilient.retries");
static RESILIENT_DEGRADED: LazyCounter = LazyCounter::stable("core.retrieval.resilient.degraded");
static DEGRADED_DEAD_ZONE: LazyCounter =
    LazyCounter::stable("core.retrieval.resilient.degraded.dead_zone");
static DEGRADED_BUDGET: LazyCounter =
    LazyCounter::stable("core.retrieval.resilient.degraded.budget_exhausted");
static DEGRADED_GROUND_CHEAPER: LazyCounter =
    LazyCounter::stable("core.retrieval.resilient.degraded.ground_cheaper");
/// Hop-budget attempts per graceful fetch (1 = served on the first rung).
static RESILIENT_ATTEMPTS: LazyHistogram =
    LazyHistogram::stable("core.retrieval.resilient.attempts", Unit::Count);

/// Full space-segment round-trip cost of fetching over an ISL route:
/// two-way vacuum propagation along `dist_km` plus per-hop switching.
/// Selecting on kilometres alone would be wrong — a shorter route through
/// more (cheaper) hops can still lose on total. Shared by the ladder here
/// and the batched traffic engine so the cost model cannot drift.
#[inline]
pub fn space_segment_cost(access: &AccessModel, dist_km: f64, route_hops: u32) -> Latency {
    propagation_delay(Km(dist_km), Medium::Vacuum).round_trip()
        + access.isl_processing(route_hops as usize)
}

/// Round-trip cost of a cooperative probe to a directly-linked +Grid
/// neighbor: two-way vacuum propagation over the single ISL edge, with
/// *no* per-hop switching charge — the overhead satellite already holds
/// its neighbors' cache digests, so the fetch skips route setup and store
/// -and-forward processing. This is what makes a cooperative hit strictly
/// cheaper than the same satellite reached through the rung-1 escalation
/// ladder. Shared by the traffic engine and the placement oracle so the
/// cost model cannot drift.
#[inline]
pub fn neighbor_probe_cost(edge_km: f64) -> Latency {
    propagation_delay(Km(edge_km), Medium::Vacuum).round_trip()
}

/// Where a request was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalSource {
    /// The satellite directly overhead had the object.
    Overhead,
    /// A satellite `hops` ISL hops away had it.
    Isl {
        /// Hop distance to the serving satellite.
        hops: u32,
    },
    /// No satellite within budget had it; served from the ground.
    Ground,
}

/// One resolved fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalOutcome {
    /// Serving source.
    pub source: RetrievalSource,
    /// Full fetch RTT.
    pub rtt: Latency,
    /// The serving satellite (None for ground fallback).
    pub serving_sat: Option<SatIndex>,
}

/// Why a fetch degraded to the ground cache (or found no service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// No satellite can serve the user at all (the terminal sees sky with
    /// no servable satellite); traffic never reaches space.
    DeadZone,
    /// Every hop budget on the escalation ladder was tried and no alive
    /// copy was reachable within the largest one.
    BudgetExhausted,
    /// Copies were reachable, but the bent pipe to the ground cache beat
    /// every one of them on RTT.
    GroundCheaper,
}

/// One content fetch, described policy-first and executed against a
/// snapshot.
///
/// Construct with [`RetrievalRequest::new`] and refine with the builder
/// methods; the struct is `#[non_exhaustive]` so new policy knobs can be
/// added without breaking callers.
///
/// * `.graceful(true)` (the default) walks the hop-budget **escalation
///   ladder** and always resolves: when space cannot serve, the fetch
///   degrades to the ground cache with the reason recorded.
/// * `.graceful(false)` performs a single attempt at the **last** rung of
///   the ladder (so `.hop_budget(n)` means "one attempt at budget n") and
///   reports a dead zone as `outcome: None`.
///
/// Copy selection is **latency-optimal within the hop budget**: among
/// copies reachable in ≤ budget ISL hops (BFS metric — the budget the
/// paper sweeps), the one with the lowest space-segment cost wins.
/// Hop-nearest and latency-nearest differ on the +Grid because
/// intra-plane hops are ~3× longer than inter-plane ones. Routing always
/// uses the *given* snapshot's tables, so fetches detour around links and
/// satellites that died after the content was placed — the cache set is
/// the warm-time intent, the graph is the present truth.
///
/// When `rng` is given, user-link jitter is drawn at most once per fetch,
/// at points that are part of the contract. A graceful request draws
/// exactly once whenever a satellite is overhead, however many rungs it
/// tries, so a request sequence replayed under different fault plans
/// keeps its RNG stream aligned. A non-graceful request draws only when
/// the overhead satellite or an in-budget copy can serve; the Figure 7/8
/// campaigns depend on that.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct RetrievalRequest {
    /// Requesting user's position.
    pub user: Geodetic,
    /// Hop budgets to try in order (non-empty, strictly ascending). In
    /// non-graceful mode only the last (widest) rung is attempted.
    pub escalation: Vec<u32>,
    /// RTT of the bent-pipe ground fallback (computed by the caller from
    /// the network model so retrieval stays decoupled from PoP homing).
    pub ground_fallback_rtt: Latency,
    /// Walk the escalation ladder and degrade gracefully (`true`, the
    /// default) vs. single-attempt semantics (`false`).
    pub graceful: bool,
}

impl RetrievalRequest {
    /// A fetch for `user` with the paper's default policy: the
    /// 1 → 3 → 5 → 10 escalation ladder, a 160 ms ground fallback, and
    /// graceful degradation.
    pub fn new(user: Geodetic) -> Self {
        RetrievalRequest {
            user,
            escalation: vec![1, 3, 5, 10],
            ground_fallback_rtt: Latency::from_ms(160.0),
            graceful: true,
        }
    }

    /// Replace the escalation ladder with the single rung `budget`.
    #[must_use]
    pub fn hop_budget(mut self, budget: u32) -> Self {
        self.escalation = vec![budget];
        self
    }

    /// Replace the escalation ladder (must be non-empty and strictly
    /// ascending — validated on execute).
    #[must_use]
    pub fn escalation(mut self, ladder: impl Into<Vec<u32>>) -> Self {
        self.escalation = ladder.into();
        self
    }

    /// Set the ground-fallback RTT.
    #[must_use]
    pub fn ground_fallback(mut self, rtt: Latency) -> Self {
        self.ground_fallback_rtt = rtt;
        self
    }

    /// Choose graceful-ladder (`true`) vs. single-attempt (`false`)
    /// semantics.
    #[must_use]
    pub fn graceful(mut self, graceful: bool) -> Self {
        self.graceful = graceful;
        self
    }

    /// Execute the request against one shell's topology snapshot and the
    /// set of satellites currently caching the object.
    ///
    /// Panics when the escalation ladder is empty or not strictly
    /// ascending.
    pub fn execute(
        &self,
        graph: &IslGraph,
        access: &AccessModel,
        caches: &BTreeSet<SatIndex>,
        rng: Option<&mut DetRng>,
    ) -> FetchResult {
        assert!(
            !self.escalation.is_empty() && self.escalation.windows(2).all(|w| w[0] < w[1]),
            "escalation ladder must be non-empty and ascending"
        );
        walk_ladder(self, graph, access, caches, rng)
    }
}

/// The resolution of one [`RetrievalRequest`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResult {
    /// The served fetch. `None` only for a non-graceful request in a dead
    /// zone (no servable satellite and no modelled ground path); graceful
    /// requests always resolve.
    pub outcome: Option<RetrievalOutcome>,
    /// Hop budgets tried (1 = first rung sufficed; 0 only in a dead zone,
    /// where there was nothing to escalate).
    pub attempts: u32,
    /// `Some` when the fetch fell back to the ground cache (or found no
    /// service at all).
    pub degraded: Option<DegradeReason>,
}

impl FetchResult {
    /// True when the fetch was served from a satellite (overhead or ISL).
    pub fn space_hit(&self) -> bool {
        self.outcome
            .as_ref()
            .is_some_and(|o| o.source != RetrievalSource::Ground)
    }

    /// The serving satellite, when space served.
    pub fn serving_sat(&self) -> Option<SatIndex> {
        self.outcome.as_ref().and_then(|o| o.serving_sat)
    }
}

/// The Figure 6 escalation ladder, shared by both request modes. A
/// non-graceful request walks the one-rung ladder of its widest budget;
/// the modes differ only in dead-zone reporting, the telemetry family
/// they count into and when the user-link jitter is drawn (see
/// [`RetrievalRequest`]).
fn walk_ladder(
    req: &RetrievalRequest,
    graph: &IslGraph,
    access: &AccessModel,
    caches: &BTreeSet<SatIndex>,
    mut rng: Option<&mut DetRng>,
) -> FetchResult {
    let graceful = req.graceful;
    let ladder = if graceful {
        &req.escalation[..]
    } else {
        &req.escalation[req.escalation.len() - 1..]
    };
    let ground = RetrievalOutcome {
        source: RetrievalSource::Ground,
        rtt: req.ground_fallback_rtt,
        serving_sat: None,
    };
    if graceful {
        RESILIENT_FETCHES.incr();
    }

    let Some((overhead, up_slant)) = graph.nearest_alive(req.user) else {
        if graceful {
            RESILIENT_DEGRADED.incr();
            DEGRADED_DEAD_ZONE.incr();
            RESILIENT_ATTEMPTS.record(0);
        }
        return FetchResult {
            outcome: graceful.then_some(ground),
            attempts: 0,
            degraded: Some(DegradeReason::DeadZone),
        };
    };
    let mut draw_user_link = || match rng.as_deref_mut() {
        Some(r) => access.user_link_rtt_sample(up_slant, r),
        None => access.user_link_rtt_median(up_slant),
    };
    let mut user_link = graceful.then(&mut draw_user_link);

    // Candidate copies as (satellite, BFS hops, space-segment cost), in
    // BTreeSet order so cost ties resolve deterministically. An overhead
    // copy is the only candidate: it costs nothing in space, so no rung
    // can beat it.
    let copies: Vec<(SatIndex, u32, Latency)> =
        if caches.contains(&overhead) && graph.is_alive(overhead) {
            vec![(overhead, 0, Latency::ZERO)]
        } else {
            let widest = ladder[ladder.len() - 1];
            let tables = graph.routing_tables(overhead);
            caches
                .iter()
                .filter_map(|&sat| {
                    let h = tables.hops[sat.as_usize()];
                    let (dist_km, route_hops) = tables.km[sat.as_usize()];
                    (graph.is_alive(sat) && h != u32::MAX && h <= widest && dist_km.is_finite())
                        .then(|| (sat, h, space_segment_cost(access, dist_km, route_hops)))
                })
                .collect()
        };

    let mut attempts = 0u32;
    let mut any_in_budget = false;
    for &budget in ladder {
        attempts += 1;
        if attempts > 1 {
            RESILIENT_RETRIES.incr();
        }
        let mut best: Option<(SatIndex, u32, Latency)> = None;
        for &(sat, h, cost) in &copies {
            if h <= budget && best.is_none_or(|(_, _, b)| cost < b) {
                best = Some((sat, h, cost));
            }
        }
        let Some((serving, bfs_hops, space_cost)) = best else {
            continue;
        };
        any_in_budget = true;
        let rtt = *user_link.get_or_insert_with(&mut draw_user_link) + space_cost;
        // A rational client takes whichever source is cheaper: a copy at
        // the far edge of a generous hop budget — or even the overhead
        // copy behind a slow user link — can lose to the bent pipe.
        if rtt <= req.ground_fallback_rtt {
            // The source reports the BFS hop distance — the "found within
            // n hops" metric of the paper — even when the latency-optimal
            // route takes more (shorter) hops.
            let source = if bfs_hops == 0 {
                OVERHEAD_HITS.incr();
                RetrievalSource::Overhead
            } else {
                ISL_HITS.incr();
                ISL_HOPS.record(u64::from(bfs_hops));
                RetrievalSource::Isl { hops: bfs_hops }
            };
            if graceful {
                RESILIENT_ATTEMPTS.record(u64::from(attempts));
            }
            return FetchResult {
                outcome: Some(RetrievalOutcome {
                    source,
                    rtt,
                    serving_sat: Some(serving),
                }),
                attempts,
                degraded: None,
            };
        }
        if bfs_hops == 0 {
            break; // the overhead copy lost: no wider rung adds a copy
        }
        // Ground currently wins, but keep escalating: a wider budget can
        // admit a kilometre-cheaper copy that beats the bent pipe.
    }

    // Ground fallback: the caller-provided bent-pipe RTT (already includes
    // the user link, so no double counting).
    GROUND_FALLBACKS.incr();
    let reason_counter = match (graceful, any_in_budget) {
        (true, true) => &DEGRADED_GROUND_CHEAPER,
        (true, false) => &DEGRADED_BUDGET,
        (false, true) => &GROUND_CHEAPER,
        (false, false) => &BUDGET_MISSES,
    };
    reason_counter.incr();
    if graceful {
        RESILIENT_DEGRADED.incr();
        RESILIENT_ATTEMPTS.record(u64::from(attempts));
    }
    let reason = if any_in_budget {
        DegradeReason::GroundCheaper
    } else {
        DegradeReason::BudgetExhausted
    };
    FetchResult {
        outcome: Some(ground),
        attempts,
        degraded: Some(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacecdn_geo::SimTime;
    use spacecdn_lsn::FaultPlan;
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;

    fn setup() -> (Constellation, IslGraph, AccessModel) {
        let c = Constellation::new(shells::starlink_shell1());
        let g = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        (c, g, AccessModel::default())
    }

    /// One non-graceful attempt at `max_hops` with a 150 ms ground
    /// fallback, outside a dead zone.
    fn plain(
        g: &IslGraph,
        access: &AccessModel,
        user: Geodetic,
        caches: &BTreeSet<SatIndex>,
        max_hops: u32,
    ) -> RetrievalOutcome {
        RetrievalRequest::new(user)
            .hop_budget(max_hops)
            .ground_fallback(Latency::from_ms(150.0))
            .graceful(false)
            .execute(g, access, caches, None)
            .outcome
            .expect("a satellite is overhead")
    }

    /// A graceful fetch over `ladder` with a `ground_ms` fallback.
    fn graceful(
        g: &IslGraph,
        access: &AccessModel,
        user: Geodetic,
        caches: &BTreeSet<SatIndex>,
        ladder: &[u32],
        ground_ms: f64,
    ) -> (RetrievalOutcome, FetchResult) {
        let fetched = RetrievalRequest::new(user)
            .escalation(ladder)
            .ground_fallback(Latency::from_ms(ground_ms))
            .execute(g, access, caches, None);
        let outcome = fetched
            .outcome
            .clone()
            .expect("graceful fetch always resolves");
        (outcome, fetched)
    }

    #[test]
    fn overhead_hit_is_fastest() {
        let (_, g, access) = setup();
        let user = Geodetic::ground(40.0, -3.7);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let caches: BTreeSet<_> = [overhead].into_iter().collect();
        let out = plain(&g, &access, user, &caches, 5);
        assert_eq!(out.source, RetrievalSource::Overhead);
        assert_eq!(out.serving_sat, Some(overhead));
        assert!(out.rtt.ms() < 25.0, "got {}", out.rtt);
    }

    #[test]
    fn isl_hit_reports_hops_and_costs_more() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(-25.97, 32.57);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        // Place the only copy three inter-plane hops east.
        let target = {
            let mut cur = overhead;
            for _ in 0..3 {
                cur = g
                    .neighbors(cur)
                    .iter()
                    .find(|e| c.plane_of(e.to) == (c.plane_of(cur) + 1) % 72)
                    .unwrap()
                    .to;
            }
            cur
        };
        let caches: BTreeSet<_> = [target].into_iter().collect();
        let out = plain(&g, &access, user, &caches, 5);
        assert_eq!(out.source, RetrievalSource::Isl { hops: 3 });
        assert_eq!(out.serving_sat, Some(target));

        let direct = plain(&g, &access, user, &[overhead].into_iter().collect(), 5);
        assert!(out.rtt > direct.rtt);
    }

    #[test]
    fn budget_exceeded_falls_back_to_ground() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(10.0, 10.0);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        // Copy on the far side of the constellation.
        let far = c.sat_at(
            c.plane_of(overhead) as i64 + 36,
            c.slot_of(overhead) as i64 + 11,
        );
        let caches: BTreeSet<_> = [far].into_iter().collect();
        let out = plain(&g, &access, user, &caches, 3);
        assert_eq!(out.source, RetrievalSource::Ground);
        assert_eq!(out.rtt, Latency::from_ms(150.0));
        assert_eq!(out.serving_sat, None);
    }

    #[test]
    fn empty_cache_set_always_ground() {
        let (_, g, access) = setup();
        let out = plain(
            &g,
            &access,
            Geodetic::ground(0.0, 0.0),
            &BTreeSet::new(),
            10,
        );
        assert_eq!(out.source, RetrievalSource::Ground);
    }

    #[test]
    fn nearest_copy_wins() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(48.1, 11.6);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let near = g.neighbors(overhead).get(0).unwrap().to;
        let far = c.sat_at(
            c.plane_of(overhead) as i64 + 5,
            c.slot_of(overhead) as i64 + 5,
        );
        let caches: BTreeSet<_> = [far, near].into_iter().collect();
        let out = plain(&g, &access, user, &caches, 20);
        assert_eq!(out.serving_sat, Some(near));
        assert_eq!(out.source, RetrievalSource::Isl { hops: 1 });
    }

    #[test]
    fn dead_cache_satellite_skipped() {
        let c = Constellation::new(shells::starlink_shell1());
        let user = Geodetic::ground(51.5, -0.13);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(user).unwrap();
        let mut faults = FaultPlan::none();
        faults.fail_sat(overhead);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        // The failed satellite is in the cache set but cannot serve.
        let caches: BTreeSet<_> = [overhead].into_iter().collect();
        let access = AccessModel::default();
        let out = plain(&g, &access, user, &caches, 10);
        assert_eq!(out.source, RetrievalSource::Ground);
    }

    #[test]
    fn single_rung_ladder_matches_plain_retrieve() {
        let (c, g, access) = setup();
        let mut rng = DetRng::new(21, "resilient-eq");
        for trial in 0..40 {
            let user = Geodetic::ground(rng.uniform(-55.0, 55.0), rng.uniform(-180.0, 180.0));
            let caches: BTreeSet<_> = (0..rng.index(9))
                .map(|_| SatIndex(rng.index(c.len()) as u32))
                .collect();
            let budget = 1 + rng.index(11) as u32;
            let ground = rng.uniform(30.0, 200.0);
            let req = RetrievalRequest::new(user)
                .hop_budget(budget)
                .ground_fallback(Latency::from_ms(ground));
            let plain = req
                .clone()
                .graceful(false)
                .execute(&g, &access, &caches, None);
            let resilient = req.execute(&g, &access, &caches, None);
            assert!(plain.outcome.is_some());
            assert_eq!(
                resilient.outcome, plain.outcome,
                "trial {trial}: single-rung graceful diverges from non-graceful"
            );
        }
    }

    #[test]
    fn escalation_widens_until_copy_found() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(-25.97, 32.57);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        // The only copy four inter-plane hops east: rungs 1 and 3 miss it,
        // rung 5 serves it.
        let target = c.sat_at(c.plane_of(overhead) as i64 + 4, c.slot_of(overhead) as i64);
        let caches: BTreeSet<_> = [target].into_iter().collect();
        let (out, fetched) = graceful(&g, &access, user, &caches, &[1, 3, 5, 10], 200.0);
        assert_eq!(out.source, RetrievalSource::Isl { hops: 4 });
        assert_eq!(out.serving_sat, Some(target));
        assert_eq!(fetched.attempts, 3, "rungs 1 and 3 must be tried and fail");
        assert_eq!(fetched.degraded, None);
    }

    #[test]
    fn exhausted_ladder_degrades_to_ground() {
        let (_, g, access) = setup();
        let (out, fetched) = graceful(
            &g,
            &access,
            Geodetic::ground(0.0, 0.0),
            &BTreeSet::new(),
            &[1, 3, 5, 10],
            160.0,
        );
        assert_eq!(out.source, RetrievalSource::Ground);
        assert_eq!(out.rtt, Latency::from_ms(160.0));
        assert_eq!(fetched.attempts, 4);
        assert_eq!(fetched.degraded, Some(DegradeReason::BudgetExhausted));
    }

    #[test]
    fn dead_zone_still_serves_from_ground() {
        let c = Constellation::new(spacecdn_orbit::shell::shells::test_shell());
        let mut faults = FaultPlan::none();
        for s in c.sat_indices() {
            faults.fail_sat(s);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let fetched = RetrievalRequest::new(Geodetic::ground(10.0, 10.0)).execute(
            &g,
            &AccessModel::default(),
            &[SatIndex(0)].into_iter().collect(),
            None,
        );
        assert_eq!(fetched.outcome.unwrap().source, RetrievalSource::Ground);
        assert_eq!(fetched.attempts, 0);
        assert_eq!(fetched.degraded, Some(DegradeReason::DeadZone));
    }

    #[test]
    fn reroutes_around_links_dead_since_warm() {
        // Content placed on the pristine fleet; by fetch time the direct
        // corridor to the copy is gone. The graceful fetch must detour
        // over the surviving mesh instead of failing.
        let c = Constellation::new(shells::starlink_shell1());
        let user = Geodetic::ground(48.1, 11.6);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(user).unwrap();
        let copy = c.sat_at(c.plane_of(overhead) as i64 + 2, c.slot_of(overhead) as i64);
        let caches: BTreeSet<_> = [copy].into_iter().collect();
        let access = AccessModel::default();
        let ladder = [1, 3, 5, 10];
        let (before, _) = graceful(&g0, &access, user, &caches, &ladder, 250.0);
        assert_eq!(before.source, RetrievalSource::Isl { hops: 2 });

        // Kill every link of the satellite between overhead and the copy.
        let between = c.sat_at(c.plane_of(overhead) as i64 + 1, c.slot_of(overhead) as i64);
        let mut faults = FaultPlan::none();
        for e in g0.neighbors(between) {
            faults.fail_link(between, e.to);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let (after, fetched) = graceful(&g, &access, user, &caches, &ladder, 250.0);
        // Still served from space — via a longer detour.
        assert_eq!(after.serving_sat, Some(copy));
        assert_eq!(fetched.degraded, None);
        let (RetrievalSource::Isl { hops: h0 }, RetrievalSource::Isl { hops: h1 }) =
            (before.source, after.source)
        else {
            panic!("both fetches must be ISL-served");
        };
        assert!(h1 > h0, "detour must cost extra hops ({h1} vs {h0})");
        assert!(after.rtt >= before.rtt);
    }

    #[test]
    fn gsl_outage_moves_overhead_but_space_still_serves() {
        let c = Constellation::new(shells::starlink_shell1());
        let user = Geodetic::ground(51.5, -0.13);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(user).unwrap();
        let mut faults = FaultPlan::none();
        faults.fail_gsl(overhead);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        // The copy sits on the GSL-failed satellite: it cannot serve as
        // the overhead sat any more, but it can still *source* the object
        // over its ISLs to the new overhead satellite.
        let caches: BTreeSet<_> = [overhead].into_iter().collect();
        let (out, fetched) = graceful(
            &g,
            &AccessModel::default(),
            user,
            &caches,
            &[1, 3, 5, 10],
            250.0,
        );
        assert_eq!(out.serving_sat, Some(overhead));
        assert!(matches!(out.source, RetrievalSource::Isl { .. }));
        assert_eq!(fetched.degraded, None);
    }

    #[test]
    fn rtt_monotone_in_hop_distance() {
        // Copies progressively farther away yield non-decreasing RTT.
        let (c, g, access) = setup();
        let user = Geodetic::ground(-1.29, 36.82);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let mut last = 0.0;
        for d in 0..6i64 {
            let sat = c.sat_at(c.plane_of(overhead) as i64 + d, c.slot_of(overhead) as i64);
            let caches: BTreeSet<_> = [sat].into_iter().collect();
            let out = plain(&g, &access, user, &caches, 20);
            assert!(
                out.rtt.ms() >= last - 1e-9,
                "rtt must grow with distance: {} after {last}",
                out.rtt
            );
            last = out.rtt.ms();
        }
    }

    #[test]
    fn request_dead_zone_reporting_by_gracefulness() {
        let c = Constellation::new(spacecdn_orbit::shell::shells::test_shell());
        let mut faults = FaultPlan::none();
        for s in c.sat_indices() {
            faults.fail_sat(s);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let access = AccessModel::default();
        let caches: BTreeSet<_> = [SatIndex(0)].into_iter().collect();
        let req = RetrievalRequest::new(Geodetic::ground(10.0, 10.0));

        let graceful = req.clone().execute(&g, &access, &caches, None);
        assert_eq!(graceful.degraded, Some(DegradeReason::DeadZone));
        assert_eq!(
            graceful.outcome.unwrap().source,
            RetrievalSource::Ground,
            "graceful dead zone still resolves to ground"
        );

        let strict = req.graceful(false).execute(&g, &access, &caches, None);
        assert_eq!(strict.outcome, None);
        assert_eq!(strict.degraded, Some(DegradeReason::DeadZone));
        assert_eq!(strict.attempts, 0);
    }

    #[test]
    #[should_panic(expected = "escalation ladder must be non-empty and ascending")]
    fn request_rejects_descending_ladder() {
        let (_, g, access) = setup();
        RetrievalRequest::new(Geodetic::ground(0.0, 0.0))
            .escalation(vec![5u32, 3])
            .execute(&g, &access, &BTreeSet::new(), None);
    }

    #[test]
    fn non_graceful_request_uses_widest_rung() {
        // A copy 4 hops out: single attempt at the ladder's last rung (5)
        // must serve it, exactly like hop_budget(5).
        let (c, g, access) = setup();
        let user = Geodetic::ground(-25.97, 32.57);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let target = c.sat_at(c.plane_of(overhead) as i64 + 4, c.slot_of(overhead) as i64);
        let caches: BTreeSet<_> = [target].into_iter().collect();
        let ladder = RetrievalRequest::new(user)
            .escalation(vec![1u32, 3, 5])
            .ground_fallback(Latency::from_ms(200.0))
            .graceful(false)
            .execute(&g, &access, &caches, None);
        let single = RetrievalRequest::new(user)
            .hop_budget(5)
            .ground_fallback(Latency::from_ms(200.0))
            .graceful(false)
            .execute(&g, &access, &caches, None);
        assert_eq!(ladder, single);
        assert_eq!(ladder.attempts, 1);
        assert_eq!(
            ladder.outcome.unwrap().source,
            RetrievalSource::Isl { hops: 4 }
        );
    }

    #[test]
    fn fetch_result_helpers_classify_outcomes() {
        let (_, g, access) = setup();
        let user = Geodetic::ground(40.0, -3.7);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let hit = RetrievalRequest::new(user).execute(
            &g,
            &access,
            &[overhead].into_iter().collect(),
            None,
        );
        assert!(hit.space_hit());
        assert_eq!(hit.serving_sat(), Some(overhead));

        let miss = RetrievalRequest::new(user).execute(&g, &access, &BTreeSet::new(), None);
        assert!(!miss.space_hit());
        assert_eq!(miss.serving_sat(), None);
    }
}
