//! The constellation-scale streaming traffic engine: request-driven
//! simulation of Zipf-distributed content demand against warm
//! per-satellite caches across every shell.
//!
//! Everything else in this crate resolves *one* fetch against a fixed
//! copy set. This module runs the workload the ROADMAP's million-user
//! north star needs — tens of millions of requests over the full
//! multi-shell constellation — in bounded memory and at ≥1M requests per
//! second. Three structural choices make that possible:
//!
//! - **Streaming arrivals.** A Poisson arrival process knows its next
//!   event analytically, so [`ArrivalStream`] generates each shard's
//!   arrivals lazily on the [`spacecdn_des::stream`] core (merged with
//!   the fixed epoch ticks) instead of materializing millions of queue
//!   entries. Per-shard memory is O(1) in the request count; the only
//!   per-request retention is the latency reservoir in the report.
//! - **Flat SoA cache state.** Per-satellite caches are one
//!   [`PolicyFleet`] (LRU+TTL, SIEVE, S3-FIFO or W-TinyLFU, selected by
//!   [`TrafficConfig::policy`]): parallel arrays indexed by a global
//!   satellite slot with intrusive policy links (each policy proven
//!   decision-identical to a naive reference by the differential oracle
//!   in `spacecdn-content`). Holder lists — which satellites cache each
//!   object — are maintained *eagerly*: evictions report their victims,
//!   the fleet's clock advance reports every TTL lapse it applied, and
//!   epoch invalidations drain the wiped slots. The
//!   per-request candidate scan is therefore pure arithmetic over live
//!   holders, with no per-candidate freshness probing.
//! - **Batched retrieval per (source, epoch).** All requests a source
//!   issues within one topology epoch share the same overhead satellite,
//!   user-link geometry and routing tables per shell. One engine call
//!   keeps a read-only `GeomTable` with a cell per (source, epoch): the
//!   first stream to serve a pair builds its geometry there, and every
//!   other stream reads it. The table is lazy (only pairs some request
//!   touches are built) and lives for the call. A stream's own `BatchCtx`
//!   holds just a reference to the shared geometry plus the generation
//!   stamp of its scan memos, so thousands of requests reuse one
//!   resolution (`core.traffic.batch.*` telemetry tracks the
//!   amortization).
//!
//! # Determinism contract
//!
//! The catalog is partitioned into `streams` disjoint shards by content
//! id. Each shard runs as an independent task on
//! [`spacecdn_engine::par_map`] with two private `DetRng` streams —
//! `traffic/arrivals/{s}` feeding the arrival stream (inter-arrival gap,
//! source roll, object rank, in that pinned order per arrival) and
//! `traffic/service/{s}` for the one scheduling-jitter draw each
//! non-dead-zone request makes — its own event stream, and its own cache
//! fleet; shards only share the **read-only** per-epoch topology
//! snapshots and the call's geometry table, whose cells are each written
//! once, by whichever shard needs them first, with a value that does not
//! depend on which shard that is. Shard samplers are built with
//! [`ZipfSampler::over_ranks`], so the union of all shards reproduces the
//! global Zipf demand exactly while no mutable state crosses a thread
//! boundary. (A shard may
//! inherit the scan-memo arrays of a finished one, but stamped with
//! generations no new batch context can carry, so nothing in them is
//! ever read.) Reports merge in shard order. The result: byte-identical
//! output at any thread count, for the full constellation, proven by
//! `tests/determinism.rs`.

use crate::duty_cycle::DutyCycler;
use crate::placement::{PlacementPlan, PlacementSpec};
use crate::retrieval::{neighbor_probe_cost, space_segment_cost};
use crate::scenario::Scenario;
use spacecdn_content::catalog::{Catalog, ContentId};
use spacecdn_content::hierarchy::{CacheHierarchy, ServedBy, TierLatencies};
use spacecdn_content::policy::PolicyFleet;
pub use spacecdn_content::policy::PolicyKind;
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_des::stream::{drive, EventStream, FixedTicks, Merged, MergedEvent};
use spacecdn_des::Percentiles;
use spacecdn_engine::par_map_indices;
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{DetRng, Geodetic, Latency, SimDuration, SimTime};
use spacecdn_lsn::{AccessModel, IslGraph, SourceTables};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::{LazyCounter, LazyHistogram, LocalHistogram, Unit};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Traffic counters (stable: per-stream work is deterministic and the
/// tallies are sums over streams, so they are identical at any thread
/// count).
static REQUESTS: LazyCounter = LazyCounter::stable("core.traffic.requests");
static HITS_OVERHEAD: LazyCounter = LazyCounter::stable("core.traffic.hits.overhead");
static HITS_ISL: LazyCounter = LazyCounter::stable("core.traffic.hits.isl");
static HITS_PINNED: LazyCounter = LazyCounter::stable("core.traffic.hits.pinned");
static HITS_NEIGHBOR: LazyCounter = LazyCounter::stable("core.traffic.hits.neighbor");
static ORIGIN_FETCHES: LazyCounter = LazyCounter::stable("core.traffic.origin_fetches");
static DEAD_ZONES: LazyCounter = LazyCounter::stable("core.traffic.dead_zones");
static INSERTS: LazyCounter = LazyCounter::stable("core.traffic.inserts");
static EVICTIONS: LazyCounter = LazyCounter::stable("core.traffic.evictions");
static TTL_EXPIRIES: LazyCounter = LazyCounter::stable("core.traffic.ttl_expiries");
static INVALIDATIONS: LazyCounter = LazyCounter::stable("core.traffic.invalidations");
/// Per-request served latency in microseconds (stable: latencies are
/// deterministic, so the log2 bucket tallies are thread-count-invariant).
static LATENCY_US: LazyHistogram = LazyHistogram::stable("core.traffic.latency_us", Unit::Count);

/// Batching counters (stable: batch contexts are built and reused by
/// each shard's deterministic event sequence, so the tallies are sums
/// over shards and thread-count-invariant). `formed` counts contexts
/// built — one per (source, epoch) pair a shard actually serves;
/// `table_reuses` counts requests that reused an existing context's
/// routing tables instead of re-resolving them.
static BATCHES_FORMED: LazyCounter = LazyCounter::stable("core.traffic.batch.formed");
/// (Source, epoch) geometries built into an engine call's shared table
/// (stable: each cell is built exactly once, on first use by any stream,
/// and the set of pairs the streams touch is fixed by their deterministic
/// event sequences, so the count is the same at any thread count).
static GEOMETRY_BUILDS: LazyCounter = LazyCounter::stable("core.traffic.batch.geometry_builds");
static BATCH_TABLE_REUSES: LazyCounter = LazyCounter::stable("core.traffic.batch.table_reuses");
/// Requests amortized over each batch context, recorded at context
/// retirement (stable, same argument as the batch counters).
static BATCH_REQUESTS: LazyHistogram =
    LazyHistogram::stable("core.traffic.batch.requests", Unit::Count);
/// End-of-run cache occupancy of every satellite slot holding at least
/// one object, per shard (stable: each shard's final fleet state is
/// deterministic and slots are visited in slot order).
static CACHE_OCCUPANCY: LazyHistogram =
    LazyHistogram::stable("core.traffic.cache.occupancy_bytes", Unit::Bytes);

/// Ground-hierarchy sizing for the tiered fallback (placement spec
/// `tiers`): a handful of metro edges under one regional, the classic §2
/// tree. Capacities are per run and split across streams like the
/// satellite caches, so the partition is workload-invariant.
const GROUND_EDGES: usize = 8;
const GROUND_EDGE_BYTES: u64 = 16 << 30;
const GROUND_REGIONAL_BYTES: u64 = 256 << 30;

/// One demand source: a population point issuing requests.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    /// Where the requests originate.
    pub position: Geodetic,
    /// Relative request weight (e.g. population in units of ~2M); must be
    /// ≥ 1.
    pub weight: u32,
    /// Ground-fallback RTT per epoch (bent pipe to the PoP plus anycast
    /// to the nearest CDN site, computed by the caller); must have one
    /// entry per simulated epoch.
    pub fallback_rtt: Vec<Latency>,
}

/// Workload parameters of a traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total requests across all streams.
    pub requests: u64,
    /// Catalog shards simulated as independent parallel streams. This is
    /// a *semantic* parameter (it fixes the partition and the RNG
    /// streams), not a thread count: output is byte-identical however
    /// many threads execute the shards.
    pub streams: usize,
    /// Topology epochs to simulate (the constellation rotates and the
    /// fault schedule lowers to a new plan at each).
    pub epochs: usize,
    /// Wall-clock spacing of topology epochs.
    pub epoch_step: SimDuration,
    /// Number of objects in the generated catalog.
    pub catalog_size: usize,
    /// Zipf exponent of demand.
    pub zipf_alpha: f64,
    /// Aggregate cache capacity per satellite, bytes (split evenly across
    /// streams).
    pub cache_bytes_per_sat: u64,
    /// Freshness lifetime of cached objects.
    pub ttl: SimDuration,
    /// Eviction/admission policy every shard fleet runs. Defaults to the
    /// `SPACECDN_POLICY` environment knob (LRU+TTL when unset).
    pub policy: PolicyKind,
    /// Fraction of satellites allowed to cache at any instant (Figure
    /// 8's thermal duty cycling); inserts on inactive satellites are
    /// skipped.
    pub duty_fraction: f64,
    /// Duty-cycle slot length.
    pub duty_slot: SimDuration,
    /// Hop-budget escalation ladder for every fetch.
    pub escalation: Vec<u32>,
    /// Orbit-aware replica placement: when set, a slot-keyed
    /// [`PlacementPlan`] pre-seeds pinned copies across the shells,
    /// optionally with cooperative +Grid neighbor lookup and a tiered
    /// ground fallback (see [`PlacementSpec`]). Defaults to the
    /// `SPACECDN_PLACEMENT` environment knob (`None` when unset).
    pub placement: Option<PlacementSpec>,
    /// Experiment seed.
    pub seed: u64,
    /// Virtual instant the run opens at: epochs freeze at
    /// `start + epoch_step·e` and arrivals spread over
    /// `(start, start + epoch_step·epochs]`. [`SimTime::EPOCH`] (the
    /// default) reproduces the classic batch timeline; long-lived
    /// sessions (`spacecdn-serve`) hand each burst their running clock.
    pub start: SimTime,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            requests: 50_000,
            streams: 8,
            epochs: 3,
            epoch_step: SimDuration::from_secs(157),
            catalog_size: 10_000,
            zipf_alpha: 0.9,
            cache_bytes_per_sat: 8 << 30,
            ttl: SimDuration::from_mins(30),
            policy: PolicyKind::from_env(),
            duty_fraction: 1.0,
            duty_slot: SimDuration::from_mins(10),
            escalation: vec![1, 3, 5, 10],
            placement: PlacementSpec::from_env(),
            seed: 42,
            start: SimTime::EPOCH,
        }
    }
}

/// Per-shell slice of a traffic run's space-served outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShellTraffic {
    /// Requests served by this shell's overhead satellite.
    pub overhead_hits: u64,
    /// Requests served over this shell's ISLs.
    pub isl_hits: u64,
    /// Pull-through fills landing on this shell.
    pub inserts: u64,
}

/// Aggregated outcome of a traffic run.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// Requests issued.
    pub requests: u64,
    /// Requests served by the overhead satellite's cache.
    pub overhead_hits: u64,
    /// Requests served over ISLs from a nearby satellite's cache.
    pub isl_hits: u64,
    /// Requests that fell back to the terrestrial origin/ground cache.
    pub origin_fetches: u64,
    /// Origin fetches caused by a dead zone (no servable satellite).
    pub dead_zones: u64,
    /// Pull-through cache fills.
    pub inserts: u64,
    /// Objects evicted under capacity pressure (LRU).
    pub evictions: u64,
    /// Objects dropped because their TTL lapsed.
    pub ttl_expiries: u64,
    /// Objects wiped because their satellite failed at an epoch boundary.
    pub invalidations: u64,
    /// Requests served from a plan-pinned replica (a subset of
    /// `overhead_hits + isl_hits`; zero without placement).
    pub pinned_hits: u64,
    /// Requests served by the cooperative +Grid neighbor rung (a subset
    /// of `isl_hits`; zero unless the placement spec enables `coop`).
    pub neighbor_hits: u64,
    /// Ground fetches absorbed by the hierarchy's edge tier (only when
    /// the placement spec enables `tiers`).
    pub ground_edge_hits: u64,
    /// Ground fetches absorbed by the regional tier.
    pub ground_regional_hits: u64,
    /// Ground fetches that went all the way to the origin over the WAN.
    pub ground_origin_hits: u64,
    /// Order-dependent FNV-1a fold of every request's decision tuple —
    /// (source, serving slot or `u32::MAX`, hops or `u32::MAX`, served
    /// RTT bits) — in arrival order per shard, combined in shard order.
    /// One u64 pins the full per-request decision trace for the
    /// differential oracle and the determinism suite without retaining
    /// per-request samples.
    pub decision_digest: u64,
    /// Bytes served from satellite caches.
    pub served_bytes: u64,
    /// Bytes fetched from the terrestrial origin.
    pub origin_bytes: u64,
    /// Per-request served latency (milliseconds).
    pub latencies: Percentiles,
    /// ISL-hit hop histogram: index = BFS hop distance of the serving
    /// satellite.
    pub hop_histogram: Vec<u64>,
    /// Space-served outcomes attributed to each shell, in shell order
    /// (one entry per scenario passed to [`run_traffic_multishell`]).
    pub per_shell: Vec<ShellTraffic>,
}

impl TrafficReport {
    /// Fraction of requests served from space (overhead + ISL).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.overhead_hits + self.isl_hits) as f64 / self.requests as f64
    }

    /// Fraction of delivered bytes that never touched the terrestrial
    /// origin — the quantity that decides whether in-orbit caching pays.
    pub fn origin_offload(&self) -> f64 {
        let total = self.served_bytes + self.origin_bytes;
        if total == 0 {
            return 0.0;
        }
        self.served_bytes as f64 / total as f64
    }

    /// Fold another report into this one — shard reduction within a run,
    /// and burst accumulation across a long-lived serve session.
    pub fn merge(&mut self, other: &TrafficReport) {
        self.requests += other.requests;
        self.overhead_hits += other.overhead_hits;
        self.isl_hits += other.isl_hits;
        self.origin_fetches += other.origin_fetches;
        self.dead_zones += other.dead_zones;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.ttl_expiries += other.ttl_expiries;
        self.invalidations += other.invalidations;
        self.pinned_hits += other.pinned_hits;
        self.neighbor_hits += other.neighbor_hits;
        self.ground_edge_hits += other.ground_edge_hits;
        self.ground_regional_hits += other.ground_regional_hits;
        self.ground_origin_hits += other.ground_origin_hits;
        // Order-dependent: shard reduction and burst accumulation both
        // merge in a fixed order, so the combined digest stays pinned.
        self.decision_digest = self.decision_digest.rotate_left(17) ^ other.decision_digest;
        self.served_bytes += other.served_bytes;
        self.origin_bytes += other.origin_bytes;
        self.latencies.merge(&other.latencies);
        if self.hop_histogram.len() < other.hop_histogram.len() {
            self.hop_histogram.resize(other.hop_histogram.len(), 0);
        }
        for (i, &n) in other.hop_histogram.iter().enumerate() {
            self.hop_histogram[i] += n;
        }
        if self.per_shell.len() < other.per_shell.len() {
            self.per_shell
                .resize(other.per_shell.len(), ShellTraffic::default());
        }
        for (i, s) in other.per_shell.iter().enumerate() {
            self.per_shell[i].overhead_hits += s.overhead_hits;
            self.per_shell[i].isl_hits += s.isl_hits;
            self.per_shell[i].inserts += s.inserts;
        }
    }
}

/// One generated request: which source issued it and which shard-local
/// object rank it wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Index into the run's source list.
    pub source: u32,
    /// Shard-local popularity rank (index into the shard's id list).
    pub rank: u32,
}

/// Lazy Poisson arrival stream for one catalog shard.
///
/// Yields exactly `quota` arrivals with exponential inter-arrival gaps,
/// clamped to the horizon so every shard meets its quota. Per arrival the
/// RNG stream `traffic/arrivals/{shard}` is consumed in a pinned order —
/// inter-arrival gap, then source roll, then Zipf rank — which
/// `crates/core/tests/streaming.rs` proves identical to a materialized
/// reference generator (times, sources, ranks, and RNG consumption).
pub struct ArrivalStream<'a> {
    rng: DetRng,
    weight_cdf: &'a [u64],
    sampler: &'a ZipfSampler,
    horizon: SimTime,
    mean_interarrival_s: f64,
    prev: SimTime,
    issued: u64,
    quota: u64,
}

impl<'a> ArrivalStream<'a> {
    /// The arrival stream of shard `shard` under `seed`: `quota` requests
    /// spread over `(EPOCH, horizon]` with mean rate `quota / horizon`.
    pub fn new(
        seed: u64,
        shard: usize,
        weight_cdf: &'a [u64],
        sampler: &'a ZipfSampler,
        horizon: SimTime,
        quota: u64,
    ) -> Self {
        Self::starting_at(
            seed,
            shard,
            weight_cdf,
            sampler,
            SimTime::EPOCH,
            horizon,
            quota,
        )
    }

    /// [`Self::new`] from an arbitrary origin: `quota` requests spread
    /// over `(start, horizon]`. The RNG stream and per-arrival draw order
    /// are unchanged, so a stream starting at `start` is the `start`-shift
    /// of the one starting at [`SimTime::EPOCH`], gap for gap.
    #[allow(clippy::too_many_arguments)]
    pub fn starting_at(
        seed: u64,
        shard: usize,
        weight_cdf: &'a [u64],
        sampler: &'a ZipfSampler,
        start: SimTime,
        horizon: SimTime,
        quota: u64,
    ) -> Self {
        ArrivalStream {
            rng: DetRng::new(seed, &format!("traffic/arrivals/{shard}")),
            weight_cdf,
            sampler,
            horizon,
            mean_interarrival_s: horizon.since(start).as_secs_f64() / quota.max(1) as f64,
            prev: start,
            issued: 0,
            quota,
        }
    }

    /// The stream's RNG after the arrivals generated so far — lets the
    /// equivalence suite assert the exact consumption order.
    pub fn into_rng(self) -> DetRng {
        self.rng
    }
}

impl EventStream for ArrivalStream<'_> {
    type Event = Arrival;

    fn next_event(&mut self) -> Option<(SimTime, Arrival)> {
        if self.issued >= self.quota {
            return None;
        }
        self.issued += 1;
        let gap = SimDuration::from_secs_f64(self.rng.exponential(self.mean_interarrival_s));
        let at = (self.prev + gap).min(self.horizon);
        self.prev = at;
        let total = *self.weight_cdf.last().expect("non-empty sources");
        let roll = self.rng.index(total as usize) as u64;
        let source = self.weight_cdf.partition_point(|&c| c <= roll) as u32;
        let rank = self.sampler.sample(&mut self.rng) as u32;
        Some((at, Arrival { source, rank }))
    }
}

/// Marks a memoized serving candidate as a plan-pinned replica (bit 31 of
/// the stored global slot — slot counts stay far below 2³¹). Pinned
/// copies live outside the policy fleet, so the serve path must not
/// consult (or debug-assert against) the fleet for them.
const PIN_FLAG: u32 = 1 << 31;

/// FNV-1a fold of one request's decision tuple into the running digest.
/// Cheap enough for the ≥1M req/s hot path (four xor-multiplies).
#[inline]
fn fold_decision(digest: &mut u64, source: u32, slot: u32, hops: u32, rtt: Latency) {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = *digest;
    for w in [source as u64, slot as u64, hops as u64, rtt.ms().to_bits()] {
        h = (h ^ w).wrapping_mul(PRIME);
    }
    *digest = h;
}

/// FNV-1a offset basis: each shard's digest starts here.
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// +Grid degree: a satellite has at most four ISLs.
const GRID_DEGREE: usize = 4;

/// Per-shell retrieval geometry of one (source, epoch): the overhead
/// satellite (as a global slot), its user-link propagation round trip,
/// and the routing tables rooted at it.
struct ShellCtx {
    overhead_slot: u32,
    user_prop: Latency,
    tables: Arc<SourceTables>,
    /// Cooperative-lookup targets: the overhead satellite's live +Grid
    /// neighbors (global slots) and their full probe RTTs (user link +
    /// two-way edge propagation, no switching charge), the first
    /// `neighbor_count` entries valid. None unless the placement spec
    /// enables `coop`.
    neighbor_slots: [u32; GRID_DEGREE],
    neighbor_probes: [Latency; GRID_DEGREE],
    neighbor_count: u8,
}

impl ShellCtx {
    /// The probe RTT of global slot `g` when it is a cooperative target.
    fn neighbor_probe(&self, g: u32) -> Option<Latency> {
        self.neighbor_slots[..self.neighbor_count as usize]
            .iter()
            .position(|&n| n == g)
            .map(|i| self.neighbor_probes[i])
    }
}

/// The retrieval geometry of one (source, epoch), as read from a
/// [`GeomTable`]: the pull-through target and one cell per shell.
#[derive(Clone, Copy)]
struct Geom<'t> {
    /// Pull-through target: the overhead slot with the smallest slant
    /// range across shells (`None` in a total dead zone).
    fill: Option<u32>,
    shells: &'t [OnceLock<ShellCtx>],
}

impl<'t> Geom<'t> {
    /// Shell `k`'s geometry, `None` when no satellite of that shell can
    /// serve the source.
    fn shell(&self, k: usize) -> Option<&'t ShellCtx> {
        self.shells[k].get()
    }
}

/// One engine call's retrieval geometry per (source, epoch), shared
/// read-only by every stream. Each pair's geometry is a pure function of
/// the epoch's graphs and the source position, so it is built once, by
/// whichever stream first serves the pair, and never changed. Cells are
/// filled lazily: a short burst touches a few pairs of a large table,
/// and building the rest would run Dijkstra for nothing.
struct GeomTable<'a> {
    /// `[epoch × sources + source]`: the pair's fill target, set once its
    /// shell cells are written.
    fills: Vec<OnceLock<Option<u32>>>,
    /// `[(epoch × sources + source) × shells + shell]`: written only
    /// while the pair's `fills` cell is being set, so once that cell is
    /// set an empty shell cell means the shell has no servable satellite.
    shells: Vec<OnceLock<ShellCtx>>,
    graphs: &'a [Vec<Arc<IslGraph>>],
    shell_offsets: &'a [u32],
    sources: &'a [TrafficSource],
    coop: bool,
}

impl<'a> GeomTable<'a> {
    fn new(
        graphs: &'a [Vec<Arc<IslGraph>>],
        shell_offsets: &'a [u32],
        sources: &'a [TrafficSource],
        coop: bool,
    ) -> Self {
        let pairs = graphs.len() * sources.len();
        GeomTable {
            fills: (0..pairs).map(|_| OnceLock::new()).collect(),
            shells: (0..pairs * shell_offsets.len())
                .map(|_| OnceLock::new())
                .collect(),
            graphs,
            shell_offsets,
            sources,
            coop,
        }
    }

    /// The geometry of source `si` at epoch `e`, built on first use.
    fn get(&self, e: usize, si: usize) -> Geom<'_> {
        let pair = e * self.sources.len() + si;
        let k = self.shell_offsets.len();
        let shells = &self.shells[pair * k..(pair + 1) * k];
        let fill = *self.fills[pair].get_or_init(|| self.build(e, si, shells));
        Geom { fill, shells }
    }

    /// Resolve the overhead satellite, user link, routing tables and
    /// (with `coop`) +Grid neighbors of source `si` in every shell at
    /// epoch `e` into `cells`, returning the pair's fill target.
    fn build(&self, e: usize, si: usize, cells: &[OnceLock<ShellCtx>]) -> Option<u32> {
        GEOMETRY_BUILDS.incr();
        let pos = self.sources[si].position;
        let mut fill: Option<(u32, f64)> = None;
        for (k, graph) in self.graphs[e].iter().enumerate() {
            let Some((sat, slant)) = graph.nearest_alive(pos) else {
                continue;
            };
            let slot = self.shell_offsets[k] + sat.0;
            if fill.is_none_or(|(_, s)| slant.0 < s) {
                fill = Some((slot, slant.0));
            }
            let user_prop = propagation_delay(slant, Medium::Vacuum).round_trip();
            // Cooperative probe targets: the CSR row already excludes
            // dead neighbors and failed links, so every entry is a live
            // one-hop fetch.
            let mut neighbor_slots = [0; GRID_DEGREE];
            let mut neighbor_probes = [Latency::ZERO; GRID_DEGREE];
            let mut neighbor_count = 0;
            if self.coop {
                let (row, kms) = graph.neighbor_row(sat.0);
                assert!(
                    row.len() <= GRID_DEGREE,
                    "+Grid rows hold at most four links"
                );
                for (i, (&nb, &km)) in row.iter().zip(kms).enumerate() {
                    neighbor_slots[i] = self.shell_offsets[k] + nb;
                    neighbor_probes[i] = user_prop + neighbor_probe_cost(km);
                }
                neighbor_count = row.len() as u8;
            }
            let built = cells[k].set(ShellCtx {
                overhead_slot: slot,
                user_prop,
                tables: graph.routing_tables(sat),
                neighbor_slots,
                neighbor_probes,
                neighbor_count,
            });
            debug_assert!(built.is_ok(), "a pair's shell cells are written once");
        }
        fill.map(|(slot, _)| slot)
    }
}

/// Memoized candidate scan for one (source, rank): the best base RTT
/// (jitter excluded), hop count, and serving slot per escalation rung.
/// Holder lists are append-mostly — pull-through only ever adds holders,
/// and a new holder can only *improve* the bests — so the memo folds in
/// just the unseen tail (`seen..len`) on reuse. Only an actual removal
/// (eviction, TTL lapse, invalidation) or a retired batch context forces
/// a full rescan: `gen` must match the source's live context and
/// `removals` the rank's removal count, both of which start above the
/// memo's zeroed defaults.
#[derive(Clone, Default)]
struct RankMemo {
    gen: u32,
    removals: u32,
    seen: u32,
    bests: Vec<Option<(Latency, u32, u32)>>,
}

/// One stream's scan scratch: the [`RankMemo`] and slot-cost arrays and
/// the generation counter that stamps their entries. An entry is valid
/// only under the generation that wrote it and generations only grow, so
/// a scratch passed on to the next stream needs no clearing: nothing it
/// holds can match a context of the new stream.
///
/// One engine call keeps finished streams' scratch in a [`ScratchPool`]
/// for the streams still to start, so a call first-touches (page-faults)
/// these arrays once per engine thread rather than once per stream —
/// hundreds of MB per call on a dense campaign. Since no stale entry can
/// match, which stream gets which scratch never changes an answer.
#[derive(Default)]
struct ScanScratch {
    memo: Vec<RankMemo>,
    slot_cost: Vec<(u32, Latency, u32)>,
    next_gen: u32,
}

/// Scratch handed back by an engine call's finished streams. It holds at
/// most one entry per engine thread and is dropped with the call.
type ScratchPool = Mutex<Vec<ScanScratch>>;

impl ScanScratch {
    /// A scratch from `pool` (or a new one), [reserved](Self::reserve)
    /// for the given sizes.
    fn take(pool: &ScratchPool, memos: usize, slots: usize, gens: u64) -> Self {
        let mut s = pool
            .lock()
            .expect("scan scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        s.reserve(memos, slots, gens);
        s
    }

    /// Hold at least `memos` memo and `slots` slot-cost entries, with
    /// room for `gens` more generations (a stream forms at most one
    /// context per request). Stamps are reset only when the counter could
    /// otherwise wrap; new entries carry the never-written stamp 0.
    fn reserve(&mut self, memos: usize, slots: usize, gens: u64) {
        if self.next_gen == 0 || u64::from(self.next_gen) + gens > u64::from(u32::MAX) {
            self.memo.iter_mut().for_each(|m| m.gen = 0);
            self.slot_cost.iter_mut().for_each(|c| c.0 = 0);
            self.next_gen = 1;
        }
        if self.memo.len() < memos {
            self.memo.resize(memos, RankMemo::default());
        }
        if self.slot_cost.len() < slots {
            self.slot_cost.resize(slots, (0, Latency::ZERO, u32::MAX));
        }
    }

    /// Return the scratch to `pool` for the next stream to start. The
    /// memos' rung buffers are freed first, as dropping the stream's memos
    /// would: kept, they would grow a scratch that serves several streams
    /// to the union of all their touched (source, rank) pairs.
    fn give_back(mut self, pool: &ScratchPool) {
        for m in &mut self.memo {
            m.bests = Vec::new();
        }
        pool.lock().expect("scan scratch pool poisoned").push(self);
    }
}

/// One stream's view of a (source, epoch) batch: the shared geometry
/// and what is the stream's own. Forming one is a table lookup; the
/// geometry is built at most once per engine call (see [`GeomTable`]).
struct BatchCtx<'t> {
    geom: Geom<'t>,
    /// Build generation, starting at 1: stamped into every memo entry
    /// this context's scans produce, so retiring the context (new epoch,
    /// new geometry) implicitly invalidates them all.
    gen: u32,
    requests: u64,
}

/// Mutable state of one catalog shard's simulation.
struct ShardWorld<'a> {
    service_rng: DetRng,
    fleet: PolicyFleet,
    /// Shard-local rank → global satellite slots holding a live copy.
    /// Maintained eagerly: pruned on eviction, TTL lapse, and epoch
    /// invalidation, so the serve-path scan needs no freshness probes.
    holders: Vec<Vec<u32>>,
    /// Shard-local rank → plan-pinned replica slots. Pinned copies live
    /// outside the policy fleet: they never evict, never expire, and
    /// survive outages (a dead pinned satellite is simply unreachable —
    /// its routing-table hops are `u32::MAX` — until it returns). Folded
    /// into a memo only on rebuild, since the lists never change.
    pinned: Vec<Vec<u32>>,
    /// Cooperative +Grid neighbor lookup enabled (placement spec `coop`).
    coop: bool,
    /// Tiered ground fallback (placement spec `tiers`): misses route
    /// through a per-shard [`CacheHierarchy`] and pay the tier surcharge
    /// on top of the source's flat fallback RTT.
    ground: Option<CacheHierarchy>,
    /// Latency surcharge over the flat fallback per serving tier
    /// (edge, regional, origin): the edge tier is the PoP the flat
    /// fallback already models, deeper tiers add their extra round trips.
    tier_surcharge: [Latency; 3],
    /// Per-rank count of holder *removals* (evictions, TTL lapses,
    /// invalidations), starting at 1; appends are tracked by list length
    /// instead, so scan memos survive them (see [`RankMemo`]).
    holder_removals: Vec<u32>,
    rank_of: HashMap<ContentId, u32>,
    ctxs: Vec<Option<BatchCtx<'a>>>,
    /// Scan memos, flat-indexed `source × ranks + rank` (see [`RankMemo`]).
    /// The scheduling jitter is a common additive term on every
    /// candidate's RTT, so a memo is recomputed only when the rank's
    /// holder list or the source's batch geometry changes — which Zipf
    /// demand makes rare exactly where requests concentrate.
    memo: Vec<RankMemo>,
    /// Generation for the next batch context (at least 1; 0 marks
    /// never-written memo entries). Handed on with the arrays it stamps
    /// (see [`ScanScratch`]).
    next_gen: u32,
    /// Per-(source, candidate) cost cache, flat-indexed
    /// `source × dense_cap + dense id` and tagged with the context
    /// generation that computed it: `(gen, base RTT, hops)`, with
    /// `hops == u32::MAX` meaning unreachable from that source. A
    /// candidate's cost is rank-independent, so memo folds across all
    /// ranks reuse the same warm entries instead of re-reading scattered
    /// routing tables. Only slots that ever receive a pull-through fill
    /// can hold content, so candidates get *dense* ids as fills first
    /// touch them — at most one per (source, epoch) — keeping the whole
    /// cache small enough to stay cache-resident.
    slot_cost: Vec<(u32, Latency, u32)>,
    /// Global slot → dense candidate id (`u16::MAX` = never filled).
    dense_of: Vec<u16>,
    /// Next dense id to assign; bounded by `dense_cap`.
    next_dense: u16,
    /// Dense id capacity: `sources × epochs`, the exact upper bound on
    /// distinct fill targets.
    dense_cap: usize,
    epoch: usize,
    report: TrafficReport,
    /// Batch contexts built this shard (flushed to telemetry once).
    batches_formed: u64,
    /// Per-request latency samples, folded into the registry histogram
    /// once per shard instead of two atomics per request.
    latency_local: LocalHistogram,
    // Scratch buffers (allocation-free steady state).
    dropped: Vec<ContentId>,
    // Shard demand model.
    shard_ids: &'a [ContentId],
    sizes: &'a [u64],
    catalog: &'a Catalog,
    // Shared read-only context.
    geoms: &'a GeomTable<'a>,
    graphs: &'a [Vec<Arc<IslGraph>>],
    shell_offsets: &'a [u32],
    shell_of: &'a [u8],
    sources: &'a [TrafficSource],
    duty: &'a DutyCycler,
    cfg: &'a TrafficConfig,
    access: &'a AccessModel,
}

impl ShardWorld<'_> {
    /// Drop `slot` from `content`'s holder list (order-insensitive) and
    /// invalidate every memo built over the old membership.
    fn prune_holder(
        holders: &mut [Vec<u32>],
        removals: &mut [u32],
        rank_of: &HashMap<ContentId, u32>,
        content: ContentId,
        slot: u32,
    ) {
        let rank = rank_of[&content] as usize;
        let hs = &mut holders[rank];
        if let Some(p) = hs.iter().position(|&g| g == slot) {
            hs.swap_remove(p);
            removals[rank] = removals[rank].wrapping_add(1);
        }
    }

    /// Resolve a ground-served request: flat fallback RTT, plus the tier
    /// surcharge when the hierarchy fallback is enabled. Requests enter
    /// the hierarchy at the edge their source maps to (`si` mod edges),
    /// warming it by pull-through like any terrestrial CDN.
    fn ground_latency(&mut self, si: usize, content: ContentId, fallback: Latency) -> Latency {
        let Some(ground) = self.ground.as_mut() else {
            return fallback;
        };
        let outcome = ground.request(si, content, self.catalog);
        let tier = match outcome.served_by {
            ServedBy::Edge => {
                self.report.ground_edge_hits += 1;
                0
            }
            ServedBy::Regional => {
                self.report.ground_regional_hits += 1;
                1
            }
            ServedBy::Origin => {
                self.report.ground_origin_hits += 1;
                2
            }
        };
        fallback + self.tier_surcharge[tier]
    }

    /// Resolve one request at simulated time `t`.
    fn arrival(&mut self, t: SimTime, a: Arrival) {
        self.report.requests += 1;
        // The fleet expires every entry due by `t`; prune their holders.
        for &(slot, content) in self.fleet.set_now(t) {
            Self::prune_holder(
                &mut self.holders,
                &mut self.holder_removals,
                &self.rank_of,
                content,
                slot,
            );
        }

        let si = a.source as usize;
        if self.ctxs[si].is_none() {
            let gen = self.next_gen;
            self.next_gen = self.next_gen.wrapping_add(1);
            self.ctxs[si] = Some(BatchCtx {
                geom: self.geoms.get(self.epoch, si),
                gen,
                requests: 0,
            });
            self.batches_formed += 1;
        }
        let mut ctx = self.ctxs[si].take().expect("context just ensured");
        ctx.requests += 1;

        let rank = a.rank as usize;
        let content = self.shard_ids[rank];
        let size = self.sizes[rank];
        let fallback = self.sources[si].fallback_rtt[self.epoch];

        if ctx.geom.fill.is_none() {
            // Total dead zone: no shell has a visible satellite. Ground
            // serve at the fallback RTT (tiered when enabled), no jitter
            // draw.
            self.report.origin_fetches += 1;
            self.report.dead_zones += 1;
            self.report.origin_bytes += size;
            let latency = self.ground_latency(si, content, fallback);
            fold_decision(
                &mut self.report.decision_digest,
                a.source,
                u32::MAX,
                u32::MAX,
                latency,
            );
            self.report.latencies.add_latency(latency);
            self.latency_local.record((latency.ms() * 1000.0) as u64);
            self.ctxs[si] = Some(ctx);
            return;
        }

        // One scheduling-jitter draw per servable request, shared by
        // every shell's user link (the Ka-band scheduler is at the user
        // terminal, not the satellite).
        let sched_ms = self.access.sched_overhead_ms_sample(&mut self.service_rng);
        let jitter = Latency::from_ms(sched_ms);

        // Candidate scan, memoized per (batch, rank). The jitter is the
        // same additive term on every candidate, so the per-rung winner
        // is decided by base RTT alone — the scan only reruns when the
        // holder list changes under this batch, which Zipf demand makes
        // rare exactly where requests concentrate.
        let ladder = &self.cfg.escalation;
        // With cooperative lookup on, rung 0 probes the overhead
        // satellite and its four +Grid neighbors (at digest-probe cost,
        // cheaper than the same hop through the ladder) *before* the
        // hop-budget escalation ladder, which follows shifted by one.
        let rungs0 = self.coop as usize;
        let hs = &self.holders[rank];
        let memo = &mut self.memo[si * self.shard_ids.len() + rank];
        let rebuilt = memo.gen != ctx.gen || memo.removals != self.holder_removals[rank];
        if rebuilt {
            memo.bests.clear();
            memo.bests.resize(rungs0 + ladder.len(), None);
            memo.gen = ctx.gen;
            memo.removals = self.holder_removals[rank];
            memo.seen = 0;
        }
        if rebuilt || (memo.seen as usize) < hs.len() {
            // Fold candidates into the per-rung bests, in list order:
            // plan-pinned replicas first (only on a rebuild — their list
            // never changes, so a surviving memo already folded them),
            // then the unseen dynamic-holder tail. `bests` is
            // non-increasing in RTT across ladder rungs (wider budgets
            // admit supersets), so a candidate cascades upward until it
            // stops improving; strict `<` keeps the earliest candidate
            // on exact ties, making the scan order part of the
            // deterministic contract. Folding the tail of an unchanged
            // prefix is exactly a full scan of the whole list.
            let pinned_part: &[u32] = if rebuilt { &self.pinned[rank] } else { &[] };
            let tail = &hs[memo.seen as usize..];
            for (i, &g) in pinned_part.iter().chain(tail.iter()).enumerate() {
                let is_pinned = i < pinned_part.len();
                let gstore = if is_pinned { g | PIN_FLAG } else { g };
                let dense = self.dense_of[g as usize] as usize;
                debug_assert_ne!(dense, u16::MAX as usize, "holder without a dense id");
                let cached = &mut self.slot_cost[si * self.dense_cap + dense];
                if cached.0 != ctx.gen {
                    *cached = (ctx.gen, Latency::ZERO, u32::MAX);
                    let shell = self.shell_of[g as usize] as usize;
                    if let Some(sc) = ctx.geom.shell(shell) {
                        if g == sc.overhead_slot {
                            *cached = (ctx.gen, sc.user_prop, 0);
                        } else {
                            let local = (g - self.shell_offsets[shell]) as usize;
                            let h = sc.tables.hops[local];
                            let (dist_km, route_hops) = sc.tables.km[local];
                            if h != u32::MAX && dist_km.is_finite() {
                                let cost = space_segment_cost(self.access, dist_km, route_hops);
                                *cached = (ctx.gen, sc.user_prop + cost, h);
                            }
                        }
                    }
                }
                let (_, rtt, hops) = *cached;
                if hops == u32::MAX {
                    continue;
                }
                if rungs0 == 1 {
                    // Cooperative rung: overhead at its ladder cost, a
                    // +Grid neighbor at probe cost (no switching charge).
                    let cand = if hops == 0 {
                        Some((rtt, 0u32))
                    } else {
                        let shell = self.shell_of[g as usize] as usize;
                        ctx.geom
                            .shell(shell)
                            .and_then(|sc| sc.neighbor_probe(g))
                            .map(|probe| (probe, 1))
                    };
                    if let Some((crtt, chops)) = cand {
                        match memo.bests[0] {
                            Some((brtt, _, _)) if crtt >= brtt => {}
                            _ => memo.bests[0] = Some((crtt, chops, gstore)),
                        }
                    }
                }
                let Some(j0) = ladder.iter().position(|&budget| hops <= budget) else {
                    continue;
                };
                for j in (rungs0 + j0)..memo.bests.len() {
                    match memo.bests[j] {
                        Some((brtt, _, _)) if rtt >= brtt => break,
                        _ => memo.bests[j] = Some((rtt, hops, gstore)),
                    }
                }
            }
            memo.seen = hs.len() as u32;
        }

        // Serve at the first rung whose best beats the bent pipe —
        // exactly the resilient escalation ladder, collapsed to one scan
        // (with the cooperative neighborhood probed first when enabled).
        let served = memo
            .bests
            .iter()
            .enumerate()
            .filter_map(|(j, b)| b.map(|(base, hops, g)| (j, base + jitter, hops, g)))
            .find(|&(_, rtt, _, _)| rtt <= fallback);

        let latency = match served {
            Some((rung, rtt, hops, gstore)) => {
                let slot = gstore & !PIN_FLAG;
                if gstore & PIN_FLAG != 0 {
                    // Pinned replicas live outside the policy fleet: no
                    // lookup, no recency touch, nothing to evict.
                    self.report.pinned_hits += 1;
                } else {
                    let hit = self.fleet.get(slot, content);
                    debug_assert!(hit, "holder index out of sync with the fleet");
                }
                if rungs0 == 1 && rung == 0 && hops == 1 {
                    self.report.neighbor_hits += 1;
                }

                let shell = self.shell_of[slot as usize] as usize;
                if hops == 0 {
                    self.report.overhead_hits += 1;
                    self.report.per_shell[shell].overhead_hits += 1;
                } else {
                    self.report.isl_hits += 1;
                    self.report.per_shell[shell].isl_hits += 1;
                    let h = hops as usize;
                    if self.report.hop_histogram.len() <= h {
                        self.report.hop_histogram.resize(h + 1, 0);
                    }
                    self.report.hop_histogram[h] += 1;
                }
                self.report.served_bytes += size;
                fold_decision(&mut self.report.decision_digest, a.source, slot, hops, rtt);
                rtt
            }
            None => {
                self.report.origin_fetches += 1;
                self.report.origin_bytes += size;
                // Pull-through fill: the lowest-slant overhead satellite
                // caches the object on the way down — when the duty
                // cycle lets it, and unless the plan already pins this
                // object there (a pinned copy never needs a dynamic
                // shadow).
                let fill = ctx
                    .geom
                    .fill
                    .expect("non-dead-zone batch has a fill target");
                if self.duty.is_active(SatIndex(fill), t) && !self.pinned[rank].contains(&fill) {
                    self.dropped.clear();
                    if self
                        .fleet
                        .insert_collect(fill, content, size, &mut self.dropped)
                    {
                        self.report.inserts += 1;
                        let shell = self.shell_of[fill as usize] as usize;
                        self.report.per_shell[shell].inserts += 1;
                        if self.dense_of[fill as usize] == u16::MAX {
                            self.dense_of[fill as usize] = self.next_dense;
                            self.next_dense += 1;
                            debug_assert!((self.next_dense as usize) <= self.dense_cap);
                        }
                        let hs = &mut self.holders[rank];
                        if !hs.contains(&fill) {
                            hs.push(fill);
                        }
                    }
                    while let Some(victim) = self.dropped.pop() {
                        Self::prune_holder(
                            &mut self.holders,
                            &mut self.holder_removals,
                            &self.rank_of,
                            victim,
                            fill,
                        );
                    }
                }
                let latency = self.ground_latency(si, content, fallback);
                fold_decision(
                    &mut self.report.decision_digest,
                    a.source,
                    u32::MAX,
                    u32::MAX,
                    latency,
                );
                latency
            }
        };

        self.report.latencies.add_latency(latency);
        self.latency_local.record((latency.ms() * 1000.0) as u64);
        self.ctxs[si] = Some(ctx);
    }

    /// Swap to epoch `e`: retire every batch context (their geometry is
    /// stale) and wipe caches of satellites the fault schedule killed,
    /// draining their holder entries in the same pass.
    fn epoch_start(&mut self, e: usize) {
        for slot in self.ctxs.iter_mut() {
            if let Some(ctx) = slot.take() {
                BATCH_REQUESTS.record(ctx.requests);
            }
        }
        self.epoch = e;
        for (shell, graph) in self.graphs[e].iter().enumerate() {
            let off = self.shell_offsets[shell];
            for local in 0..graph.len() {
                let g = off + local as u32;
                if self.fleet.len_of(g) > 0 && !graph.is_alive(SatIndex(local as u32)) {
                    let n = self.fleet.clear_sat(g, &mut self.dropped);
                    self.report.invalidations += n;
                    INVALIDATIONS.add(n);
                    while let Some(id) = self.dropped.pop() {
                        Self::prune_holder(
                            &mut self.holders,
                            &mut self.holder_removals,
                            &self.rank_of,
                            id,
                            g,
                        );
                    }
                }
            }
        }
    }
}

/// Validate the shared workload inputs (common to both entry points).
fn validate(sources: &[TrafficSource], cfg: &TrafficConfig) {
    assert!(!sources.is_empty(), "traffic needs at least one source");
    assert!(cfg.streams >= 1, "traffic needs at least one stream");
    assert!(cfg.epochs >= 1, "traffic needs at least one epoch");
    assert!(
        cfg.catalog_size >= cfg.streams,
        "catalog must have at least one object per stream"
    );
    for s in sources {
        assert!(s.weight >= 1, "source weights must be ≥ 1");
        assert_eq!(
            s.fallback_rtt.len(),
            cfg.epochs,
            "one fallback RTT per epoch required"
        );
    }
}

/// Drive `cfg.requests` Zipf-distributed requests from `sources` through
/// a multi-shell constellation — one scenario per shell, all advanced
/// through the same epochs — warming per-satellite LRU+TTL caches by
/// pull-through.
///
/// Each scenario provides one shell's network, fault schedule, and
/// per-epoch snapshots (each is frozen through `cfg.start + e ×
/// cfg.epoch_step` for `e` in `0..cfg.epochs` and left at the last
/// epoch); the access model is taken from the first scenario. A scenario
/// keeps the timeline it froze, so calling this again on the same
/// scenarios and timeline reuses every graph and the routing tables the
/// earlier call warmed (bit-identical to a fresh build, see
/// [`Scenario::freeze_epochs_from`]). Every request sees all
/// shells at once: candidates from every shell compete in one escalation
/// ladder (hop budgets compare across shells), the user link of each
/// shell uses that shell's overhead slant with one shared jitter draw,
/// and pull-through fills land on the lowest-slant overhead satellite
/// across shells. A request is a dead zone only when *no* shell has a
/// visible satellite. Fetches are graceful, so every request resolves.
///
/// # Panics
/// Panics on an empty scenario or source list, a zero weight, a source
/// whose `fallback_rtt` length differs from `cfg.epochs`, or a catalog
/// smaller than the stream count.
pub fn run_traffic_multishell(
    scenarios: &mut [Scenario],
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> TrafficReport {
    assert!(
        !scenarios.is_empty(),
        "traffic needs at least one shell scenario"
    );
    validate(sources, cfg);

    // Per-epoch, per-shell snapshots, shared read-only by every stream
    // (frozen through the scenarios, so a re-run reuses each scenario's
    // kept timeline and the process-wide pool deduplicates across
    // scenarios). Epoch-major layout.
    let per_shell: Vec<Vec<Arc<IslGraph>>> = scenarios
        .iter_mut()
        .map(|sc| sc.freeze_epochs_from(cfg.start, cfg.epochs, cfg.epoch_step))
        .collect();
    let shells = per_shell.len();
    debug_assert!(shells <= u8::MAX as usize, "shell ids are bytes");
    let graphs: Vec<Vec<Arc<IslGraph>>> = (0..cfg.epochs)
        .map(|e| per_shell.iter().map(|g| Arc::clone(&g[e])).collect())
        .collect();

    // Global satellite slots: shell k's satellite i lives at
    // `shell_offsets[k] + i`; `shell_of` inverts that in O(1).
    let mut shell_offsets = Vec::with_capacity(shells);
    let mut shell_of: Vec<u8> = Vec::new();
    let mut total_sats = 0u32;
    for (k, g) in graphs[0].iter().enumerate() {
        shell_offsets.push(total_sats);
        total_sats += g.len() as u32;
        shell_of.resize(total_sats as usize, k as u8);
    }

    let catalog = Catalog::generate(
        cfg.catalog_size,
        &[],
        0.0,
        &mut DetRng::new(cfg.seed, "traffic/catalog"),
    );
    // Popularity rank → content id, decoupled from id order by one
    // seeded shuffle.
    let mut by_rank: Vec<ContentId> = catalog.objects().iter().map(|o| o.id).collect();
    DetRng::new(cfg.seed, "traffic/ranks").shuffle(&mut by_rank);

    // Orbit-aware placement: one slot-keyed plan per shell, materialized
    // to pinned global slots per popularity rank. An object belongs to
    // shell `rank % shells`; the copy budget is split across shells in
    // proportion to their demand mass (largest remainder, deterministic
    // ties by shell index), so equal budgets stay comparable across shell
    // counts. Built once on the calling thread and shared read-only.
    let pinned_global: Vec<Vec<u32>> = if let Some(spec) = &cfg.placement {
        let mass: Vec<f64> = (0..cfg.catalog_size)
            .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_alpha))
            .collect();
        let shell_mass: Vec<f64> = (0..shells)
            .map(|k| mass.iter().skip(k).step_by(shells).sum())
            .collect();
        let total_mass: f64 = shell_mass.iter().sum();
        let share = |k: usize| spec.copy_budget as f64 * shell_mass[k] / total_mass;
        let mut budgets: Vec<usize> = (0..shells).map(|k| share(k).floor() as usize).collect();
        let mut left = spec.copy_budget.saturating_sub(budgets.iter().sum());
        let mut order: Vec<usize> = (0..shells).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (share(a) - share(a).floor(), share(b) - share(b).floor());
            fb.partial_cmp(&fa).expect("finite shares").then(a.cmp(&b))
        });
        for k in order {
            if left == 0 {
                break;
            }
            budgets[k] += 1;
            left -= 1;
        }
        let mut pinned: Vec<Vec<u32>> = vec![Vec::new(); cfg.catalog_size];
        for (k, sc) in scenarios.iter().enumerate() {
            let constellation = sc.network().constellation();
            let mut shell_masses = vec![0.0; cfg.catalog_size];
            for r in (k..cfg.catalog_size).step_by(shells) {
                shell_masses[r] = mass[r];
            }
            let plan = PlacementPlan::builder(spec.strategy)
                .seed(cfg.seed)
                .copy_budget(budgets[k])
                .per_object_cap(spec.per_object_cap)
                .build_for_catalog(constellation, &shell_masses);
            for r in (k..cfg.catalog_size).step_by(shells) {
                let mut slots: Vec<u32> = plan
                    .sats_of(r, constellation)
                    .into_iter()
                    .map(|sat| shell_offsets[k] + sat.0)
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                pinned[r] = slots;
            }
        }
        pinned
    } else {
        Vec::new()
    };
    let coop = cfg.placement.as_ref().is_some_and(|s| s.cooperative);
    let ground_tiers = cfg.placement.as_ref().is_some_and(|s| s.ground_tiers);
    let tier_latencies = TierLatencies::typical();
    let tier_surcharge = [
        Latency::ZERO,
        tier_latencies.edge_to_regional,
        tier_latencies.edge_to_regional + tier_latencies.regional_to_origin,
    ];

    let weight_cdf: Vec<u64> = sources
        .iter()
        .scan(0u64, |acc, s| {
            *acc += u64::from(s.weight);
            Some(*acc)
        })
        .collect();

    let duty = DutyCycler::new(cfg.duty_fraction, cfg.duty_slot, cfg.seed);
    let cache_bytes = (cfg.cache_bytes_per_sat / cfg.streams as u64).max(1);
    let horizon = cfg.start + cfg.epoch_step.mul(cfg.epochs as u64);
    let access = scenarios[0].network().access();

    let geoms = GeomTable::new(&graphs, &shell_offsets, sources, coop);
    let scratch_pool = ScratchPool::default();
    let reports = par_map_indices(cfg.streams, |s| {
        // This stream's catalog shard: global ranks whose content id
        // falls in residue class `s`.
        let ranks: Vec<usize> = (0..cfg.catalog_size)
            .filter(|&r| by_rank[r].0 as usize % cfg.streams == s)
            .collect();
        let shard_ids: Vec<ContentId> = ranks.iter().map(|&r| by_rank[r]).collect();
        let sizes: Vec<u64> = shard_ids
            .iter()
            .map(|&id| catalog.get(id).expect("catalog id").size_bytes)
            .collect();
        let rank_of: HashMap<ContentId, u32> = shard_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        let sampler = ZipfSampler::over_ranks(&ranks, cfg.zipf_alpha);
        let quota = cfg.requests / cfg.streams as u64
            + u64::from((s as u64) < cfg.requests % cfg.streams as u64);

        // This shard's slice of the pinned plan, in shard-rank order, and
        // dense candidate ids pre-assigned to every distinct pinned slot
        // (pinned replicas are serving candidates from request one, before
        // any pull-through fill would have minted their ids).
        let pinned: Vec<Vec<u32>> = if pinned_global.is_empty() {
            vec![Vec::new(); shard_ids.len()]
        } else {
            ranks.iter().map(|&r| pinned_global[r].clone()).collect()
        };
        let mut dense_of = vec![u16::MAX; total_sats as usize];
        let mut next_dense: u16 = 0;
        for list in &pinned {
            for &g in list {
                if dense_of[g as usize] == u16::MAX {
                    dense_of[g as usize] = next_dense;
                    next_dense += 1;
                }
            }
        }
        let dense_cap = sources.len() * cfg.epochs + next_dense as usize;
        assert!(
            dense_cap < u16::MAX as usize,
            "dense candidate ids must fit u16"
        );

        let scratch = ScanScratch::take(
            &scratch_pool,
            sources.len() * shard_ids.len(),
            sources.len() * dense_cap,
            quota,
        );
        let mut world = ShardWorld {
            service_rng: DetRng::new(cfg.seed, &format!("traffic/service/{s}")),
            fleet: PolicyFleet::new(cfg.policy, total_sats as usize, cache_bytes, cfg.ttl),
            holders: vec![Vec::new(); shard_ids.len()],
            pinned,
            coop,
            ground: ground_tiers.then(|| {
                CacheHierarchy::new(
                    GROUND_EDGES,
                    (GROUND_EDGE_BYTES / cfg.streams as u64).max(1),
                    (GROUND_REGIONAL_BYTES / cfg.streams as u64).max(1),
                    tier_latencies,
                )
            }),
            tier_surcharge,
            holder_removals: vec![1; shard_ids.len()],
            rank_of,
            ctxs: (0..sources.len()).map(|_| None).collect(),
            memo: scratch.memo,
            next_gen: scratch.next_gen,
            slot_cost: scratch.slot_cost,
            dense_of,
            next_dense,
            dense_cap,
            epoch: 0,
            report: TrafficReport {
                per_shell: vec![ShellTraffic::default(); shells],
                decision_digest: DIGEST_BASIS,
                ..TrafficReport::default()
            },
            batches_formed: 0,
            latency_local: LocalHistogram::new(),
            dropped: Vec::new(),
            shard_ids: &shard_ids,
            sizes: &sizes,
            catalog: &catalog,
            geoms: &geoms,
            graphs: &graphs,
            shell_offsets: &shell_offsets,
            shell_of: &shell_of,
            sources,
            duty: &duty,
            cfg,
            access,
        };

        let arrivals = ArrivalStream::starting_at(
            cfg.seed,
            s,
            &weight_cdf,
            &sampler,
            cfg.start,
            horizon,
            quota,
        );
        let ticks = FixedTicks::new(cfg.start, cfg.epoch_step, 1, cfg.epochs as u64);
        // Epoch ticks are the tie-winning stream: a boundary and an
        // arrival at the same instant swap the snapshot first, matching
        // the heap scheduler's FIFO order when boundaries are scheduled
        // up front.
        let mut stream = Merged::new(ticks, arrivals);
        let fired = drive(&mut world, &mut stream, horizon, |w, t, ev| match ev {
            MergedEvent::First(e) => w.epoch_start(e as usize),
            MergedEvent::Second(a) => w.arrival(t, a),
        });
        debug_assert_eq!(
            fired,
            quota + cfg.epochs as u64 - 1,
            "stream {s} must meet its quota"
        );

        // End-of-stream accounting: retire the last epoch's batches,
        // sample final cache occupancy, and fold the fleet's eviction
        // and expiry counters into the report.
        for slot in world.ctxs.iter_mut() {
            if let Some(ctx) = slot.take() {
                BATCH_REQUESTS.record(ctx.requests);
            }
        }
        let mut occupied = Vec::new();
        world.fleet.occupied_into(&mut occupied);
        for (_, _, bytes) in occupied {
            CACHE_OCCUPANCY.record(bytes);
        }
        world.report.evictions = world.fleet.stats().evictions;
        world.report.ttl_expiries = world.fleet.stats().expirations;

        // Telemetry flush: the hot loop only touches plain shard-local
        // tallies; the shared registry sees one bulk add per metric per
        // shard. Every arrival either formed a context or reused one.
        let r = &world.report;
        REQUESTS.add(r.requests);
        HITS_OVERHEAD.add(r.overhead_hits);
        HITS_ISL.add(r.isl_hits);
        HITS_PINNED.add(r.pinned_hits);
        HITS_NEIGHBOR.add(r.neighbor_hits);
        ORIGIN_FETCHES.add(r.origin_fetches);
        DEAD_ZONES.add(r.dead_zones);
        INSERTS.add(r.inserts);
        EVICTIONS.add(r.evictions);
        TTL_EXPIRIES.add(r.ttl_expiries);
        BATCHES_FORMED.add(world.batches_formed);
        BATCH_TABLE_REUSES.add(r.requests - world.batches_formed);
        LATENCY_US.merge_local(&world.latency_local);
        ScanScratch {
            memo: std::mem::take(&mut world.memo),
            slot_cost: std::mem::take(&mut world.slot_cost),
            next_gen: world.next_gen,
        }
        .give_back(&scratch_pool);
        world.report
    });

    let mut merged = TrafficReport::default();
    for r in &reports {
        merged.merge(r);
    }
    merged
}

/// Single-shell convenience wrapper over [`run_traffic_multishell`]:
/// drive `cfg.requests` requests from `sources` through one scenario's
/// constellation and fault schedule.
///
/// # Panics
/// Panics on the same invalid inputs as [`run_traffic_multishell`].
pub fn run_traffic(
    scenario: &mut Scenario,
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> TrafficReport {
    run_traffic_multishell(std::slice::from_mut(scenario), sources, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LsnNetwork;
    use spacecdn_lsn::{AccessModel, FaultSchedule};
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::{Constellation, MultiConstellation};
    use spacecdn_terra::fiber::FiberModel;

    fn small_scenario(schedule: FaultSchedule) -> Scenario {
        Scenario::builder(LsnNetwork::new(
            Constellation::new(shells::starlink_shell1()),
            Vec::new(),
            AccessModel::default(),
            FiberModel::default(),
        ))
        .schedule(schedule)
        .build()
    }

    fn shell_scenarios() -> Vec<Scenario> {
        MultiConstellation::starlink_2024()
            .shells()
            .iter()
            .map(|shell| {
                Scenario::builder(LsnNetwork::new(
                    Constellation::new(*shell.config()),
                    Vec::new(),
                    AccessModel::default(),
                    FiberModel::default(),
                ))
                .build()
            })
            .collect()
    }

    fn test_sources(epochs: usize) -> Vec<TrafficSource> {
        [
            (40.4, -3.7, 6u32),
            (-25.97, 32.57, 2),
            (51.5, -0.13, 9),
            (-1.29, 36.82, 4),
            (35.68, 139.69, 10),
        ]
        .into_iter()
        .map(|(lat, lon, weight)| TrafficSource {
            position: Geodetic::ground(lat, lon),
            weight,
            fallback_rtt: vec![Latency::from_ms(140.0); epochs],
        })
        .collect()
    }

    fn quick_cfg() -> TrafficConfig {
        TrafficConfig {
            requests: 3_000,
            streams: 4,
            epochs: 2,
            catalog_size: 500,
            cache_bytes_per_sat: 256 << 20,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn caches_warm_and_hit_ratio_climbs() {
        let cfg = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert!(report.inserts > 0, "pull-through must fill caches");
        assert!(
            report.hit_ratio() > 0.2,
            "warm Zipf demand must hit: {}",
            report.hit_ratio()
        );
        assert!(report.origin_fetches > 0, "cold start must miss");
        assert_eq!(
            report.overhead_hits + report.isl_hits + report.origin_fetches,
            report.requests
        );
        assert_eq!(report.latencies.len() as u64, report.requests);
        assert!(report.origin_offload() > 0.0);
        assert_eq!(report.per_shell.len(), 1, "single shell, single slice");
        assert_eq!(report.per_shell[0].overhead_hits, report.overhead_hits);
        assert_eq!(report.per_shell[0].isl_hits, report.isl_hits);
        assert_eq!(report.per_shell[0].inserts, report.inserts);
    }

    #[test]
    fn capacity_pressure_causes_evictions() {
        let cfg = TrafficConfig {
            // Tiny caches: a handful of assets fill a satellite.
            cache_bytes_per_sat: 4 << 20,
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(
            report.evictions > 0,
            "tiny caches must evict under Zipf load"
        );
    }

    #[test]
    fn short_ttl_expires_entries() {
        let cfg = TrafficConfig {
            ttl: SimDuration::from_secs(20),
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(
            report.ttl_expiries > 0,
            "20s TTL over 314s must expire entries"
        );
        // Expiry forces re-fetch: a long-TTL run hits strictly more.
        let long = TrafficConfig {
            ttl: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let mut sc2 = small_scenario(FaultSchedule::none());
        let long_report = run_traffic(&mut sc2, &test_sources(long.epochs), &long);
        assert!(
            long_report.hit_ratio() > report.hit_ratio(),
            "long TTL {} must beat short TTL {}",
            long_report.hit_ratio(),
            report.hit_ratio()
        );
    }

    /// Pins the TTL expiry path for every policy: short TTL, tight caches
    /// and an epoch that kills a third of the fleet, so expirations,
    /// evictions and invalidations all interleave. The constants were
    /// computed with the engine's own timer queue, before expiry moved
    /// into the fleet, and must not move.
    #[test]
    fn short_ttl_churn_is_pinned_for_every_policy() {
        let pins: [(PolicyKind, u64, u64, u64, u64); 4] = [
            (PolicyKind::LruTtl, 0x346f_d129_c972_ed55, 981, 302, 48),
            (PolicyKind::Sieve, 0x1264_e469_d809_a0ef, 986, 298, 49),
            (PolicyKind::S3Fifo, 0x50ce_faa4_d29c_899a, 999, 284, 49),
            (PolicyKind::TinyLfu, 0x4069_e63c_7454_3ec7, 1137, 145, 47),
        ];
        for (policy, digest, expiries, evictions, invalidations) in pins {
            let cfg = TrafficConfig {
                ttl: SimDuration::from_secs(20),
                cache_bytes_per_sat: 4 << 20,
                policy,
                ..quick_cfg()
            };
            let mut rng = DetRng::new(5, "traffic/faults");
            let mut schedule = FaultSchedule::none();
            schedule.random_sat_outages(
                1584,
                0.33,
                SimDuration::from_secs(60),
                SimDuration::from_mins(30),
                &mut rng,
            );
            let mut sc = small_scenario(schedule);
            let r = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
            let name = policy.name();
            assert!(r.ttl_expiries > 0, "{name}: no TTL expiries");
            assert!(r.evictions > 0, "{name}: no evictions");
            assert!(r.invalidations > 0, "{name}: no invalidations");
            assert_eq!(
                (
                    r.decision_digest,
                    r.ttl_expiries,
                    r.evictions,
                    r.invalidations
                ),
                (digest, expiries, evictions, invalidations),
                "{name}: expiry path moved"
            );
        }
    }

    #[test]
    fn fault_schedule_invalidates_failed_satellites() {
        let cfg = quick_cfg();
        let mut rng = DetRng::new(5, "traffic/faults");
        let mut schedule = FaultSchedule::none();
        // A third of the fleet dies between epoch 0 and epoch 1.
        schedule.random_sat_outages(
            1584,
            0.33,
            SimDuration::from_secs(60),
            SimDuration::from_mins(30),
            &mut rng,
        );
        let mut sc = small_scenario(schedule);
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(
            report.invalidations > 0,
            "failed satellites must drop their contents"
        );

        let mut pristine = small_scenario(FaultSchedule::none());
        let pristine_report = run_traffic(&mut pristine, &test_sources(cfg.epochs), &cfg);
        assert_eq!(pristine_report.invalidations, 0);
        assert!(
            pristine_report.hit_ratio() >= report.hit_ratio(),
            "faults must not improve the hit ratio: {} vs {}",
            pristine_report.hit_ratio(),
            report.hit_ratio()
        );
    }

    #[test]
    fn duty_cycle_throttles_cache_fills() {
        let full = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let full_report = run_traffic(&mut sc, &test_sources(full.epochs), &full);

        let throttled = TrafficConfig {
            duty_fraction: 0.2,
            ..quick_cfg()
        };
        let mut sc2 = small_scenario(FaultSchedule::none());
        let throttled_report = run_traffic(&mut sc2, &test_sources(throttled.epochs), &throttled);
        assert!(
            throttled_report.inserts < full_report.inserts,
            "20% duty cycle must skip fills: {} vs {}",
            throttled_report.inserts,
            full_report.inserts
        );
        assert!(
            throttled_report.hit_ratio() < full_report.hit_ratio(),
            "fewer fills must mean fewer hits: {} vs {}",
            throttled_report.hit_ratio(),
            full_report.hit_ratio()
        );
    }

    #[test]
    fn stream_count_changes_partition_not_totals() {
        // Different stream counts are different (valid) workload
        // partitions; both must meet the exact request quota.
        for streams in [1usize, 3] {
            let cfg = TrafficConfig {
                streams,
                requests: 1_000,
                epochs: 2,
                catalog_size: 300,
                ..TrafficConfig::default()
            };
            let mut sc = small_scenario(FaultSchedule::none());
            let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
            assert_eq!(report.requests, 1_000, "streams={streams}");
        }
    }

    #[test]
    fn full_constellation_attributes_traffic_to_shells() {
        let cfg = quick_cfg();
        let mut scs = shell_scenarios();
        let report = run_traffic_multishell(&mut scs, &test_sources(cfg.epochs), &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert_eq!(report.per_shell.len(), 4, "Starlink 2024 has four shells");
        assert_eq!(
            report
                .per_shell
                .iter()
                .map(|s| s.overhead_hits)
                .sum::<u64>(),
            report.overhead_hits
        );
        assert_eq!(
            report.per_shell.iter().map(|s| s.isl_hits).sum::<u64>(),
            report.isl_hits
        );
        assert_eq!(
            report.per_shell.iter().map(|s| s.inserts).sum::<u64>(),
            report.inserts
        );
        assert!(
            report.per_shell.iter().filter(|s| s.inserts > 0).count() >= 2,
            "pull-through fills should land on multiple shells: {:?}",
            report.per_shell
        );
        assert!(
            report.hit_ratio() > 0.2,
            "four shells of caches must hit at least as well as one: {}",
            report.hit_ratio()
        );
    }

    #[test]
    fn more_shells_never_hurt_service() {
        // The same demand against the full constellation can only add
        // servable candidates relative to Shell 1 alone.
        let cfg = quick_cfg();
        let mut one = small_scenario(FaultSchedule::none());
        let single = run_traffic(&mut one, &test_sources(cfg.epochs), &cfg);
        let mut scs = shell_scenarios();
        let multi = run_traffic_multishell(&mut scs, &test_sources(cfg.epochs), &cfg);
        assert!(
            multi.dead_zones <= single.dead_zones,
            "extra shells cannot create dead zones: {} vs {}",
            multi.dead_zones,
            single.dead_zones
        );
    }

    #[test]
    #[should_panic(expected = "one fallback RTT per epoch")]
    fn mismatched_fallback_length_panics() {
        let cfg = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let sources = test_sources(cfg.epochs + 1);
        run_traffic(&mut sc, &sources, &cfg);
    }

    use crate::placement::{PlacementSpec, PlacementStrategy};

    fn placed_cfg(spec: &str) -> TrafficConfig {
        TrafficConfig {
            placement: Some(PlacementSpec::parse(spec).expect("valid spec")),
            ..quick_cfg()
        }
    }

    #[test]
    fn pinned_replicas_serve_from_request_one() {
        let base = TrafficConfig {
            placement: None,
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let baseline = run_traffic(&mut sc, &test_sources(base.epochs), &base);

        let cfg = placed_cfg("perplane-4:budget-4000:cap-64");
        let mut sc2 = small_scenario(FaultSchedule::none());
        let placed = run_traffic(&mut sc2, &test_sources(cfg.epochs), &cfg);

        assert!(placed.pinned_hits > 0, "plan copies must serve");
        assert_eq!(
            placed.overhead_hits + placed.isl_hits + placed.origin_fetches,
            placed.requests
        );
        assert!(
            placed.pinned_hits <= placed.overhead_hits + placed.isl_hits,
            "pinned hits are a subset of space hits"
        );
        assert!(
            placed.hit_ratio() > baseline.hit_ratio(),
            "pre-seeded copies must beat a cold start: {} vs {}",
            placed.hit_ratio(),
            baseline.hit_ratio()
        );
        assert_eq!(baseline.pinned_hits, 0);
        assert_eq!(baseline.neighbor_hits, 0);
    }

    #[test]
    fn cooperative_lookup_serves_neighbor_probes() {
        let plain = placed_cfg("perplane-4:budget-4000:cap-64");
        let mut sc = small_scenario(FaultSchedule::none());
        let without = run_traffic(&mut sc, &test_sources(plain.epochs), &plain);

        let coop = placed_cfg("perplane-4:budget-4000:cap-64:coop");
        let mut sc2 = small_scenario(FaultSchedule::none());
        let with = run_traffic(&mut sc2, &test_sources(coop.epochs), &coop);

        assert_eq!(without.neighbor_hits, 0);
        assert!(with.neighbor_hits > 0, "the +Grid probe must serve");
        assert!(
            with.neighbor_hits <= with.isl_hits,
            "neighbor hits ride the ISL accounting"
        );
        // The probe only reprices one-hop fetches cheaper and reorders
        // nothing else, so space service cannot degrade.
        assert!(
            with.hit_ratio() >= without.hit_ratio(),
            "coop cannot lose hits: {} vs {}",
            with.hit_ratio(),
            without.hit_ratio()
        );
    }

    #[test]
    fn ground_tiers_partition_origin_fetches() {
        let cfg = placed_cfg("perplane-2:budget-500:cap-16:tiers");
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(report.origin_fetches > 0);
        assert_eq!(
            report.ground_edge_hits + report.ground_regional_hits + report.ground_origin_hits,
            report.origin_fetches,
            "every ground serve lands on exactly one tier"
        );
        assert!(
            report.ground_edge_hits > 0,
            "warm ground edges must absorb repeats"
        );
        // Tier surcharges only ever add latency over the flat fallback.
        let flat = TrafficConfig {
            placement: Some(PlacementSpec::parse("perplane-2:budget-500:cap-16").unwrap()),
            ..quick_cfg()
        };
        let mut sc2 = small_scenario(FaultSchedule::none());
        let flat_report = run_traffic(&mut sc2, &test_sources(flat.epochs), &flat);
        let (mut a, mut b) = (report.latencies.clone(), flat_report.latencies.clone());
        assert!(
            a.quantile(1.0).unwrap() >= b.quantile(1.0).unwrap(),
            "tiers cannot serve faster than the flat fallback"
        );
    }

    #[test]
    fn decision_digest_pins_the_trace() {
        let cfg = placed_cfg("cover-3:budget-2000:cap-32:coop");
        let mut sc = small_scenario(FaultSchedule::none());
        let a = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        let mut sc2 = small_scenario(FaultSchedule::none());
        let b = run_traffic(&mut sc2, &test_sources(cfg.epochs), &cfg);
        assert_eq!(a.decision_digest, b.decision_digest, "same run, same trace");
        assert_ne!(a.decision_digest, 0);

        let other = placed_cfg("cover-3:budget-2000:cap-32");
        let mut sc3 = small_scenario(FaultSchedule::none());
        let c = run_traffic(&mut sc3, &test_sources(other.epochs), &other);
        assert_ne!(
            a.decision_digest, c.decision_digest,
            "different decisions, different digest"
        );
    }

    #[test]
    fn placement_spec_strategies_all_run() {
        for strat in [
            PlacementStrategy::PerPlane { k: 2 },
            PlacementStrategy::RandomFraction { fraction: 0.1 },
            PlacementStrategy::RandomCount { count: 100 },
            PlacementStrategy::CoverRadius { hops: 4 },
        ] {
            let cfg = TrafficConfig {
                placement: Some(PlacementSpec {
                    copy_budget: 1_000,
                    ..PlacementSpec::new(strat)
                }),
                requests: 1_000,
                ..quick_cfg()
            };
            let mut sc = small_scenario(FaultSchedule::none());
            let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
            assert_eq!(report.requests, 1_000, "{strat:?}");
            assert!(report.pinned_hits > 0, "{strat:?} must serve pinned copies");
        }
    }

    #[test]
    fn multishell_placement_splits_budget_across_shells() {
        let cfg = TrafficConfig {
            placement: Some(PlacementSpec::parse("perplane-4:budget-6000:cap-64:coop").unwrap()),
            ..quick_cfg()
        };
        let mut scs = shell_scenarios();
        let report = run_traffic_multishell(&mut scs, &test_sources(cfg.epochs), &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert!(report.pinned_hits > 0);
        assert_eq!(
            report.overhead_hits + report.isl_hits + report.origin_fetches,
            report.requests
        );
    }

    #[test]
    fn scan_scratch_keeps_stamps_until_generations_would_wrap() {
        let stamped = |s: &ScanScratch| -> (Vec<u32>, Vec<u32>) {
            (
                s.memo.iter().map(|m| m.gen).collect(),
                s.slot_cost.iter().map(|c| c.0).collect(),
            )
        };
        let mut s = ScanScratch::default();
        s.reserve(3, 2, 10);
        assert_eq!(s.next_gen, 1, "a new scratch starts above the stamp 0");
        assert_eq!(stamped(&s), (vec![0; 3], vec![0; 2]));

        // A used scratch keeps its stamps and counter; growth appends
        // never-written entries, and nothing shrinks.
        s.memo[1].gen = 4;
        s.slot_cost[0].0 = 3;
        s.next_gen = 5;
        s.reserve(5, 1, 10);
        assert_eq!(s.next_gen, 5);
        assert_eq!(stamped(&s), (vec![0, 4, 0, 0, 0], vec![3, 0]));

        // A run that could wrap the counter clears every stamp first.
        s.next_gen = u32::MAX - 5;
        s.reserve(5, 2, 10);
        assert_eq!(s.next_gen, 1);
        assert_eq!(stamped(&s), (vec![0; 5], vec![0; 2]));

        // Handing a scratch on keeps its stamps and counter but frees the
        // rung buffers.
        s.memo[2].gen = 7;
        s.memo[2].bests = vec![None; 4];
        s.next_gen = 8;
        let pool = ScratchPool::default();
        s.give_back(&pool);
        let s = ScanScratch::take(&pool, 5, 2, 10);
        assert_eq!(s.next_gen, 8);
        assert_eq!(stamped(&s), (vec![0, 0, 7, 0, 0], vec![0; 2]));
        assert!(s.memo.iter().all(|m| m.bests.capacity() == 0));
        assert!(pool.lock().unwrap().is_empty());
    }
}
