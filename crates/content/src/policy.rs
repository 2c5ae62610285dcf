//! The cache-policy zoo: four eviction orders over one store.
//!
//! Satellite caches are tiny, duty-cycled, and expensive to refill from the
//! ground, so *what* a satellite admits and evicts matters far more than on
//! terrestrial CDNs. This module defines:
//!
//! - [`CacheStats`] — the counters every fleet keeps, under the unified
//!   evicted/expired/invalidated departure taxonomy;
//! - [`PolicyKind`] — the selector wired through `TrafficConfig`,
//!   `Scenario`, and the serve protocol's `cache` mutation op;
//! - the eviction orders behind [`PolicyFleet`]: LRU (below), SIEVE,
//!   S3-FIFO and W-TinyLFU (their own modules). The store in
//!   `fleet.rs` does everything that is the same for every policy —
//!   lookup, oversize rejection, refresh expiry, byte accounting, the
//!   departure taxonomy and TTL expiry — and an order only keeps its own
//!   lists and per-entry metadata. The hot path dispatches through a
//!   four-arm `match` on a private enum (static dispatch per arm, no
//!   vtable).
//!
//! All four orders are intrusive lists over the shared `EntryArena` and
//! are pinned decision-for-decision to naive map/VecDeque references in
//! `tests/policy_oracle.rs`.

use crate::arena::{EntryArena, List, NIL};
use crate::catalog::ContentId;
use crate::fleet::Store;
use crate::s3fifo::S3Fifo;
use crate::sieve::Sieve;
use crate::tinylfu::TinyLfu;

pub use crate::fleet::PolicyFleet;

/// Hit/miss counters shared by all policies.
///
/// The departure taxonomy is unified across every policy: an entry leaves
/// a cache for exactly one of three reasons — **evicted** under capacity
/// pressure (including admission-filter rejections that drop a window
/// candidate), **expired** when the clock passed its TTL, or
/// **invalidated** by an explicit `remove`/`clear_sat`. The books
/// balance: `hits + misses == gets` and
/// `evictions + expirations + invalidations == inserts - len`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the object.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Total lookups (incremented independently of hit/miss so the
    /// `hits + misses == gets` reconciliation is a real check).
    pub gets: u64,
    /// New entries admitted (refreshes of an existing entry excluded).
    pub inserts: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
    /// Objects dropped because their TTL lapsed.
    pub expirations: u64,
    /// Objects dropped by explicit `remove` or `clear`.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// All departures: `evictions + expirations + invalidations`.
    pub fn departures(&self) -> u64 {
        self.evictions + self.expirations + self.invalidations
    }
}

/// Which eviction/admission policy a cache fleet runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// LRU with TTL expiry — the baseline.
    #[default]
    LruTtl,
    /// SIEVE: FIFO queue with a visited bit and a lazily sweeping hand.
    Sieve,
    /// S3-FIFO: small probationary FIFO + main FIFO + ghost queue.
    S3Fifo,
    /// Window-TinyLFU: tiny LRU window + SLRU main, admission decided by a
    /// count-min frequency sketch.
    TinyLfu,
}

impl PolicyKind {
    /// Every policy, in canonical (report/sweep) order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::LruTtl,
        PolicyKind::Sieve,
        PolicyKind::S3Fifo,
        PolicyKind::TinyLfu,
    ];

    /// Canonical wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::LruTtl => "lru",
            PolicyKind::Sieve => "sieve",
            PolicyKind::S3Fifo => "s3fifo",
            PolicyKind::TinyLfu => "tinylfu",
        }
    }

    /// Parse a wire name (canonical names plus common aliases).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lru" | "lru+ttl" | "lru_ttl" | "lruttl" => Some(PolicyKind::LruTtl),
            "sieve" => Some(PolicyKind::Sieve),
            "s3fifo" | "s3-fifo" => Some(PolicyKind::S3Fifo),
            "tinylfu" | "w-tinylfu" | "wtinylfu" | "tiny-lfu" => Some(PolicyKind::TinyLfu),
            _ => None,
        }
    }

    /// The `SPACECDN_POLICY` environment knob (default: `lru`).
    ///
    /// # Panics
    /// Panics on an unrecognized policy name — a silently ignored knob
    /// would un-pin every downstream report.
    pub fn from_env() -> PolicyKind {
        match std::env::var("SPACECDN_POLICY") {
            Ok(s) if !s.is_empty() => PolicyKind::parse(&s)
                .unwrap_or_else(|| panic!("SPACECDN_POLICY: unknown policy {s:?}")),
            _ => PolicyKind::default(),
        }
    }
}

/// A policy's eviction order: its lists and per-entry metadata, and the
/// four decisions a policy makes — what a hit or refresh does to an
/// entry ([`Order::touch`]), where a new entry links and which entry is
/// the victim ([`Order::insert`]), and in what order a wiped satellite
/// drops its entries ([`Order::first`]).
pub(crate) enum Order {
    Lru(Lru),
    Sieve(Sieve),
    S3Fifo(S3Fifo),
    TinyLfu(TinyLfu),
}

impl Order {
    pub fn new(kind: PolicyKind, sats: usize, capacity: u64) -> Self {
        match kind {
            PolicyKind::LruTtl => Order::Lru(Lru::new(sats)),
            PolicyKind::Sieve => Order::Sieve(Sieve::new(sats)),
            PolicyKind::S3Fifo => Order::S3Fifo(S3Fifo::new(sats, capacity)),
            PolicyKind::TinyLfu => Order::TinyLfu(TinyLfu::new(sats, capacity)),
        }
    }

    pub fn kind(&self) -> PolicyKind {
        match self {
            Order::Lru(_) => PolicyKind::LruTtl,
            Order::Sieve(_) => PolicyKind::Sieve,
            Order::S3Fifo(_) => PolicyKind::S3Fifo,
            Order::TinyLfu(_) => PolicyKind::TinyLfu,
        }
    }

    /// Every `get` and `insert_collect`, before anything else: TinyLFU
    /// counts the request in its sketch, whatever the outcome.
    #[inline]
    pub fn on_request(&mut self, sat: u32, content: ContentId) {
        if let Order::TinyLfu(o) = self {
            o.on_request(sat, content);
        }
    }

    /// A hit on, or a refresh of, entry `e` on `sat`.
    #[inline]
    pub fn touch(&mut self, a: &mut EntryArena, sat: u32, e: u32) {
        match self {
            Order::Lru(o) => o.touch(a, sat, e),
            Order::Sieve(o) => o.touch(e),
            Order::S3Fifo(o) => o.touch(e),
            Order::TinyLfu(o) => o.touch(a, sat, e),
        }
    }

    /// Admit a new `(sat, content)`: evict victims through
    /// [`Store::evict`] as the policy decides, allocate the entry with
    /// [`Store::alloc`] and link it.
    #[inline]
    pub fn insert(
        &mut self,
        s: &mut Store,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) {
        match self {
            Order::Lru(o) => o.insert(s, sat, content, size, evicted),
            Order::Sieve(o) => o.insert(s, sat, content, size, evicted),
            Order::S3Fifo(o) => o.insert(s, sat, content, size, evicted),
            Order::TinyLfu(o) => o.insert(s, sat, content, size, evicted),
        }
    }

    /// Take entry `e` off whichever list holds it, ahead of its release.
    pub fn unlink(&mut self, a: &mut EntryArena, e: u32) {
        match self {
            Order::Lru(o) => o.unlink(a, e),
            Order::Sieve(o) => o.unlink(a, e),
            Order::S3Fifo(o) => o.unlink(a, e),
            Order::TinyLfu(o) => o.unlink(a, e),
        }
    }

    /// The entry `clear_sat` drops next on `sat`, if any.
    pub fn first(&self, sat: u32) -> Option<u32> {
        let e = match self {
            Order::Lru(o) => o.list[sat as usize].head,
            Order::Sieve(o) => o.first(sat),
            Order::S3Fifo(o) => o.first(sat),
            Order::TinyLfu(o) => o.first(sat),
        };
        (e != NIL).then_some(e)
    }

    /// `sat` was wiped: drop any per-satellite history.
    pub fn cleared(&mut self, sat: u32) {
        match self {
            Order::Lru(_) | Order::TinyLfu(_) => {}
            Order::Sieve(o) => o.cleared(sat),
            Order::S3Fifo(o) => o.cleared(sat),
        }
    }
}

/// LRU: one list per satellite; a hit or refresh moves the entry to the
/// head, new entries link at the head, and the tail is the victim.
pub(crate) struct Lru {
    list: Vec<List>,
}

impl Lru {
    fn new(sats: usize) -> Self {
        Lru {
            list: vec![List::EMPTY; sats],
        }
    }

    #[inline]
    fn touch(&mut self, a: &mut EntryArena, sat: u32, e: u32) {
        let list = &mut self.list[sat as usize];
        // Zipf-hot entries are usually already most-recent; the relink
        // (six scattered link writes) is pure overhead then.
        if list.head != e {
            a.unlink(list, e);
            a.push_front(list, e);
        }
    }

    fn insert(
        &mut self,
        s: &mut Store,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) {
        let list = &mut self.list[sat as usize];
        while s.over(sat, size) {
            let victim = list.tail;
            debug_assert_ne!(victim, NIL, "eviction loop with an empty list");
            s.arena.unlink(list, victim);
            s.evict(victim, evicted);
        }
        let e = s.alloc(sat, content, size);
        s.arena.push_front(list, e);
    }

    fn unlink(&mut self, a: &mut EntryArena, e: u32) {
        a.unlink(&mut self.list[a.sat[e as usize] as usize], e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacecdn_geo::{SimDuration, SimTime};

    #[test]
    fn hit_ratio_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("W-TinyLFU"), Some(PolicyKind::TinyLfu));
        assert_eq!(PolicyKind::parse("lru+ttl"), Some(PolicyKind::LruTtl));
        assert_eq!(PolicyKind::parse("nope"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::LruTtl);
    }

    #[test]
    fn fleet_constructs_and_reports_every_kind() {
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 2, 1_000, SimDuration::from_secs(60));
            assert_eq!(f.kind(), kind);
            assert_eq!(f.sat_count(), 2);
            assert_eq!(f.capacity_bytes_per_sat(), 1_000);
            assert!(f.is_empty());
            assert!(f.insert(0, ContentId(1), 100));
            assert!(f.get(0, ContentId(1)), "{}: fresh hit", kind.name());
            assert!(
                !f.get(1, ContentId(1)),
                "{}: satellite isolation",
                kind.name()
            );
            assert_eq!(f.len_of(0), 1);
            assert_eq!(f.used_bytes_of(0), 100);
            assert_eq!(f.len(), 1);
            let s = f.stats();
            assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
            assert_eq!(s.gets, s.hits + s.misses);
            let mut occ = Vec::new();
            f.occupied_into(&mut occ);
            assert_eq!(occ, vec![(0, 1, 100)]);
            assert!(f.remove(0, ContentId(1)));
            assert_eq!(f.stats().invalidations, 1);
            assert!(f.is_empty());
        }
    }

    #[test]
    fn ttl_expiry_is_uniform_across_policies() {
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 1, 1_000, SimDuration::from_secs(60));
            f.insert(0, ContentId(1), 100);
            f.insert(0, ContentId(2), 100);
            let expired = f.set_now(SimTime::from_secs(60)).to_vec();
            assert_eq!(
                expired,
                [(0, ContentId(1)), (0, ContentId(2))],
                "{}",
                kind.name()
            );
            assert!(!f.contains(0, ContentId(1)), "{}", kind.name());
            assert_eq!(f.stats().expirations, 2, "{}", kind.name());
            assert_eq!(f.len_of(0), 0);
            assert_eq!(f.used_bytes_of(0), 0);
            // Books balance after expiry.
            let s = f.stats();
            assert_eq!(s.departures(), s.inserts - f.len() as u64);
        }
    }

    #[test]
    fn clear_sat_reports_every_drop_for_every_policy() {
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 2, 10_000, SimDuration::from_secs(60));
            for n in 0..8u64 {
                f.insert(0, ContentId(n), 100);
            }
            f.insert(1, ContentId(99), 100);
            let mut dropped = Vec::new();
            assert_eq!(f.clear_sat(0, &mut dropped), 8, "{}", kind.name());
            dropped.sort();
            assert_eq!(dropped, (0..8).map(ContentId).collect::<Vec<_>>());
            assert_eq!(f.len_of(0), 0);
            assert_eq!(f.len_of(1), 1, "other satellites untouched");
            assert_eq!(f.stats().invalidations, 8);
        }
    }

    #[test]
    fn eviction_reporting_is_exact_for_every_policy() {
        // Tiny caches force churn; every departure must be reported so the
        // engine's holder lists stay correct. Verify via set reconciliation:
        // inserted - (reported departures) == final contents.
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 1, 300, SimDuration::from_secs(600));
            let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            let mut evicted = Vec::new();
            for n in 0..40u64 {
                evicted.clear();
                if f.insert_collect(0, ContentId(n), 100, &mut evicted) {
                    live.insert(n);
                }
                for v in &evicted {
                    assert!(live.remove(&v.0), "{}: unknown victim {v:?}", kind.name());
                }
                // Re-touch a survivor to churn recency/frequency state.
                if let Some(&keep) = live.iter().next() {
                    f.get(0, ContentId(keep));
                }
            }
            assert_eq!(f.len_of(0), live.len(), "{}", kind.name());
            for &n in &live {
                assert!(f.contains(0, ContentId(n)), "{}: {n} lost", kind.name());
            }
            let s = f.stats();
            assert_eq!(
                s.departures(),
                s.inserts - f.len() as u64,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn env_knob_rejects_garbage() {
        // Exercise the parse-failure path directly (env mutation in tests
        // races other threads, so call the parser the knob uses).
        PolicyKind::parse("warble")
            .unwrap_or_else(|| panic!("SPACECDN_POLICY: unknown policy \"warble\""));
    }
}
