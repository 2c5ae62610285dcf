//! The classical terrestrial CDN cache hierarchy.
//!
//! §2: "a content delivery network is a hierarchy of geo-distributed
//! servers designed to cache and serve content as close to the end-users as
//! possible … Most internal CDN operations assume a static tree-like
//! topology and user request influx from leaves of the hierarchy." This
//! module is that tree: edge caches over regional caches over an origin,
//! with per-tier latency costs. It is the ground-side system SpaceCDN
//! competes with *and* falls back to, and the substrate for cache-miss
//! WAN-cost accounting (§2: "cache miss rates and content fetches over WANs
//! are high for these \[LSN\] users").

use crate::catalog::{Catalog, ContentId};
use crate::policy::{CacheStats, PolicyFleet, PolicyKind};
use serde::Serialize;
use spacecdn_geo::Latency;

/// Which tier ultimately served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ServedBy {
    /// The edge cache closest to the client.
    Edge,
    /// The regional parent cache.
    Regional,
    /// The origin server (a WAN fetch).
    Origin,
}

/// Latency cost of reaching each tier from the client's egress, RTT.
#[derive(Debug, Clone, Copy)]
pub struct TierLatencies {
    /// Client ↔ edge cache.
    pub to_edge: Latency,
    /// Edge ↔ regional cache (added on edge miss).
    pub edge_to_regional: Latency,
    /// Regional ↔ origin (added on regional miss).
    pub regional_to_origin: Latency,
}

impl TierLatencies {
    /// A typical well-provisioned deployment: edge in the metro, regional
    /// in-continent, origin across a WAN.
    pub fn typical() -> Self {
        TierLatencies {
            to_edge: Latency::from_ms(8.0),
            edge_to_regional: Latency::from_ms(25.0),
            regional_to_origin: Latency::from_ms(90.0),
        }
    }

    /// Builder starting from [`typical`](Self::typical); every setter
    /// validates its latency, so an accidental negative (e.g. a subtraction
    /// gone wrong in a campaign sweep) fails at construction instead of
    /// silently producing time-travelling fetches.
    pub fn builder() -> TierLatenciesBuilder {
        TierLatenciesBuilder(Self::typical())
    }
}

/// Validating builder for [`TierLatencies`].
#[derive(Debug, Clone, Copy)]
pub struct TierLatenciesBuilder(TierLatencies);

impl TierLatenciesBuilder {
    fn checked(name: &str, l: Latency) -> Latency {
        assert!(
            l.ms().is_finite() && l.ms() >= 0.0,
            "{name} must be a finite non-negative latency, got {} ms",
            l.ms()
        );
        l
    }

    /// Client ↔ edge RTT.
    #[must_use]
    pub fn to_edge(mut self, l: Latency) -> Self {
        self.0.to_edge = Self::checked("to_edge", l);
        self
    }

    /// Edge ↔ regional RTT.
    #[must_use]
    pub fn edge_to_regional(mut self, l: Latency) -> Self {
        self.0.edge_to_regional = Self::checked("edge_to_regional", l);
        self
    }

    /// Regional ↔ origin RTT.
    #[must_use]
    pub fn regional_to_origin(mut self, l: Latency) -> Self {
        self.0.regional_to_origin = Self::checked("regional_to_origin", l);
        self
    }

    /// Finish the build.
    pub fn build(self) -> TierLatencies {
        self.0
    }
}

/// One resolved request through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyOutcome {
    /// The tier that had the object.
    pub served_by: ServedBy,
    /// Full fetch RTT including misses on the way up.
    pub rtt: Latency,
}

/// A two-level cache tree with an origin: many edges per regional.
///
/// Each tier is one LRU [`PolicyFleet`] (`edges` has one slot per edge,
/// `regional` a single slot); two fleets because a fleet has one
/// capacity. Accounting lives entirely in the per-tier [`CacheStats`] the
/// fleets already keep: every request is one `get` against an edge, so
/// edge gets = requests, edge hits = edge-served, regional hits =
/// regional-served, and regional misses = origin fetches. There are no
/// side counters to drift.
pub struct CacheHierarchy {
    edges: PolicyFleet,
    regional: PolicyFleet,
    latencies: TierLatencies,
    /// Bytes fetched over the regional↔origin WAN (the cost §2 worries
    /// about).
    wan_bytes: u64,
}

impl CacheHierarchy {
    /// Build a hierarchy with `edge_count` edges of `edge_bytes` each and a
    /// regional cache of `regional_bytes`.
    ///
    /// # Panics
    /// Panics when `edge_count == 0`: a hierarchy needs leaves.
    pub fn new(
        edge_count: usize,
        edge_bytes: u64,
        regional_bytes: u64,
        latencies: TierLatencies,
    ) -> Self {
        assert!(edge_count > 0, "hierarchy needs at least one edge");
        CacheHierarchy {
            edges: PolicyFleet::new(
                PolicyKind::LruTtl,
                edge_count,
                edge_bytes,
                PolicyFleet::NO_EXPIRY,
            ),
            regional: PolicyFleet::new(
                PolicyKind::LruTtl,
                1,
                regional_bytes,
                PolicyFleet::NO_EXPIRY,
            ),
            latencies,
            wan_bytes: 0,
        }
    }

    /// Number of edge caches.
    pub fn edge_count(&self) -> usize {
        self.edges.sat_count()
    }

    /// Resolve a request arriving at edge `edge_idx` (mod edge count).
    /// Misses pull the object down the tree (both regional and edge install
    /// it — standard pull-through).
    pub fn request(
        &mut self,
        edge_idx: usize,
        id: ContentId,
        catalog: &Catalog,
    ) -> HierarchyOutcome {
        let size = catalog.get(id).map(|o| o.size_bytes).unwrap_or(0);
        let edge = (edge_idx % self.edges.sat_count()) as u32;
        let l = self.latencies;

        if self.edges.get(edge, id) {
            return HierarchyOutcome {
                served_by: ServedBy::Edge,
                rtt: l.to_edge,
            };
        }
        if self.regional.get(0, id) {
            self.edges.insert(edge, id, size);
            return HierarchyOutcome {
                served_by: ServedBy::Regional,
                rtt: l.to_edge + l.edge_to_regional,
            };
        }
        self.wan_bytes += size;
        self.regional.insert(0, id, size);
        self.edges.insert(edge, id, size);
        HierarchyOutcome {
            served_by: ServedBy::Origin,
            rtt: l.to_edge + l.edge_to_regional + l.regional_to_origin,
        }
    }

    /// Aggregate [`CacheStats`] over all edge caches (edge `gets` is the
    /// total request count the hierarchy has seen).
    pub fn edge_stats(&self) -> CacheStats {
        self.edges.stats()
    }

    /// [`CacheStats`] of the regional parent (its `misses` are exactly the
    /// origin fetches).
    pub fn regional_stats(&self) -> CacheStats {
        self.regional.stats()
    }

    /// Requests ultimately served by `tier`, derived from the tier stats:
    /// edge hits, regional hits, or regional misses (origin).
    pub fn served(&self, tier: ServedBy) -> u64 {
        match tier {
            ServedBy::Edge => self.edge_stats().hits,
            ServedBy::Regional => self.regional_stats().hits,
            ServedBy::Origin => self.regional_stats().misses,
        }
    }

    /// Fraction of requests served without touching the origin.
    pub fn cdn_hit_ratio(&self) -> f64 {
        let total = self.edge_stats().gets;
        if total == 0 {
            0.0
        } else {
            (self.served(ServedBy::Edge) + self.served(ServedBy::Regional)) as f64 / total as f64
        }
    }

    /// Total bytes pulled over the WAN from the origin.
    pub fn wan_bytes(&self) -> u64 {
        self.wan_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::ZipfSampler;
    use spacecdn_geo::DetRng;

    fn catalog() -> Catalog {
        let mut rng = DetRng::new(1, "hier-cat");
        Catalog::generate(500, &[], 0.0, &mut rng)
    }

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(4, 60_000_000, 300_000_000, TierLatencies::typical())
    }

    #[test]
    fn cold_miss_goes_to_origin_then_warms() {
        let cat = catalog();
        let mut h = hierarchy();
        let id = ContentId(5);
        let first = h.request(0, id, &cat);
        assert_eq!(first.served_by, ServedBy::Origin);
        assert_eq!(first.rtt, Latency::from_ms(123.0));

        let second = h.request(0, id, &cat);
        assert_eq!(second.served_by, ServedBy::Edge);
        assert_eq!(second.rtt, Latency::from_ms(8.0));
    }

    #[test]
    fn sibling_edge_hits_regional() {
        let cat = catalog();
        let mut h = hierarchy();
        let id = ContentId(9);
        h.request(0, id, &cat); // warms edge 0 and the regional
        let sibling = h.request(1, id, &cat);
        assert_eq!(sibling.served_by, ServedBy::Regional);
        assert_eq!(sibling.rtt, Latency::from_ms(33.0));
        // And now edge 1 is warm too.
        assert_eq!(h.request(1, id, &cat).served_by, ServedBy::Edge);
    }

    #[test]
    fn edge_index_wraps() {
        let cat = catalog();
        let mut h = hierarchy();
        let id = ContentId(3);
        h.request(2, id, &cat);
        assert_eq!(h.request(6, id, &cat).served_by, ServedBy::Edge); // 6 % 4 == 2
    }

    #[test]
    fn wan_bytes_counted_once_per_origin_fetch() {
        let cat = catalog();
        let mut h = hierarchy();
        let id = ContentId(11);
        let size = cat.get(id).unwrap().size_bytes;
        h.request(0, id, &cat);
        h.request(1, id, &cat);
        h.request(0, id, &cat);
        assert_eq!(h.wan_bytes(), size);
        assert_eq!(h.served(ServedBy::Edge), 1);
        assert_eq!(h.served(ServedBy::Regional), 1);
        assert_eq!(h.served(ServedBy::Origin), 1);
    }

    #[test]
    fn tier_stats_reconcile_like_the_fleet_taxonomy() {
        let cat = catalog();
        let mut h = hierarchy();
        let zipf = ZipfSampler::new(cat.len(), 1.0);
        let mut rng = DetRng::new(7, "hier-stats");
        let n = 2000u64;
        for i in 0..n as usize {
            let id = ContentId(zipf.sample(&mut rng) as u64);
            h.request(i % 4, id, &cat);
        }
        let edge = h.edge_stats();
        let regional = h.regional_stats();
        // Every request is exactly one edge get.
        assert_eq!(edge.gets, n);
        assert_eq!(edge.hits + edge.misses, edge.gets);
        assert_eq!(regional.hits + regional.misses, regional.gets);
        // Edge misses are the only traffic the regional sees.
        assert_eq!(regional.gets, edge.misses);
        // Served-by partition covers every request.
        assert_eq!(
            h.served(ServedBy::Edge) + h.served(ServedBy::Regional) + h.served(ServedBy::Origin),
            n
        );
        // Departures reconcile: inserts - len = departures, per tier.
        assert_eq!(edge.departures(), edge.inserts - h.edges.len() as u64);
        assert_eq!(
            regional.departures(),
            regional.inserts - h.regional.len() as u64
        );
    }

    #[test]
    fn zipf_workload_mostly_served_by_cdn() {
        let cat = catalog();
        let mut h = hierarchy();
        let zipf = ZipfSampler::new(cat.len(), 1.0);
        let mut rng = DetRng::new(2, "hier-load");
        for i in 0..5000 {
            let id = ContentId(zipf.sample(&mut rng) as u64);
            h.request(i % 4, id, &cat);
        }
        let ratio = h.cdn_hit_ratio();
        assert!(ratio > 0.65, "hit ratio {ratio}");
        let (e, r, o) = (
            h.served(ServedBy::Edge),
            h.served(ServedBy::Regional),
            h.served(ServedBy::Origin),
        );
        assert!(e > r, "edges should absorb most load: {e} vs {r}");
        assert!(o < 2000, "origin fetches {o}");
    }

    #[test]
    fn tiny_edges_push_load_to_regional() {
        let cat = catalog();
        // Edges hold almost nothing; regional holds everything.
        let mut h = CacheHierarchy::new(4, 2_000_000, 1_000_000_000, TierLatencies::typical());
        let zipf = ZipfSampler::new(cat.len(), 0.8);
        let mut rng = DetRng::new(3, "hier-tiny");
        for i in 0..5000 {
            let id = ContentId(zipf.sample(&mut rng) as u64);
            h.request(i % 4, id, &cat);
        }
        let (e, r) = (h.served(ServedBy::Edge), h.served(ServedBy::Regional));
        assert!(
            r > e / 3,
            "regional should carry real load: edge {e} regional {r}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_edges_panics() {
        let _ = CacheHierarchy::new(0, 1, 1, TierLatencies::typical());
    }

    #[test]
    fn latency_builder_defaults_and_overrides() {
        let l = TierLatencies::builder().build();
        assert_eq!(l.to_edge, Latency::from_ms(8.0));
        let l = TierLatencies::builder()
            .to_edge(Latency::from_ms(2.0))
            .edge_to_regional(Latency::from_ms(10.0))
            .regional_to_origin(Latency::from_ms(0.0))
            .build();
        assert_eq!(l.to_edge, Latency::from_ms(2.0));
        assert_eq!(l.edge_to_regional, Latency::from_ms(10.0));
        assert_eq!(l.regional_to_origin, Latency::from_ms(0.0));
    }

    #[test]
    #[should_panic(expected = "edge_to_regional must be a finite non-negative latency")]
    fn latency_builder_rejects_negative() {
        let _ = TierLatencies::builder().edge_to_regional(Latency::from_ms(-1.0));
    }
}
