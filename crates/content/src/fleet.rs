//! Flat structure-of-arrays cache fleet: every satellite's LRU+TTL cache
//! in parallel vectors.
//!
//! Per-satellite list heads and byte counters are plain vectors indexed by
//! satellite slot, entries live in one shared arena of parallel vectors
//! (content id, size, expiry, intrusive LRU links), and a single
//! `(satellite, content) → entry` hash index serves the whole fleet. One
//! allocation-free doubly linked list per satellite gives O(1) touch and
//! eviction. The expiry lives *in* the entry, so an eviction drops it
//! atomically and `expired_purges` only ever counts real TTL lapses.
//!
//! Behaviour is pinned decision-for-decision to a naive reference by
//! `tests/policy_oracle.rs`. Besides the traffic engine's satellite
//! fleets, [`FleetCache`] is the byte-capacity LRU under the ground
//! [`crate::hierarchy::CacheHierarchy`] and the content bubbles of
//! `spacecdn-core`, which run it with [`FleetCache::NO_EXPIRY`].

use crate::catalog::ContentId;
use crate::policy::CacheStats;
use spacecdn_geo::{SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Null link/slot marker for the intrusive lists and the free list.
const NIL: u32 = u32::MAX;

/// Minimal multiply-rotate hasher for the fleet's `(satellite, content)`
/// index — the single hot hash table on the traffic fast path, where
/// SipHash's per-lookup cost is measurable. Not DoS-resistant, which is
/// fine for deterministic simulation keys we generate ourselves.
#[derive(Default)]
pub struct SlotHasher {
    state: u64,
}

impl SlotHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

type SlotIndex = HashMap<(u32, ContentId), u32, BuildHasherDefault<SlotHasher>>;

/// A whole constellation's LRU+TTL caches in flat parallel arrays.
///
/// Satellites are addressed by a dense `u32` slot (the traffic engine
/// uses shell-offset global indices); all satellites share one byte
/// capacity and one TTL. The clock is fleet-global and monotone
/// ([`FleetCache::set_now`]); simulation event times never decrease, so
/// one clock serves every satellite.
pub struct FleetCache {
    sat_capacity: u64,
    ttl: SimDuration,
    now: SimTime,
    // Per-satellite state, indexed by satellite slot.
    head: Vec<u32>,
    tail: Vec<u32>,
    used: Vec<u64>,
    count: Vec<u32>,
    // Entry arena: parallel vectors linked into per-satellite LRU lists
    // (head = most recent, tail = eviction victim) with a free list.
    e_sat: Vec<u32>,
    e_content: Vec<ContentId>,
    e_size: Vec<u64>,
    e_expiry: Vec<SimTime>,
    e_prev: Vec<u32>,
    e_next: Vec<u32>,
    free: Vec<u32>,
    index: SlotIndex,
    stats: CacheStats,
}

impl FleetCache {
    /// TTL for fleets that never call [`FleetCache::set_now`]: their clock
    /// stays at [`SimTime::EPOCH`], so no entry can lapse and the fleet is
    /// a plain byte-capacity LRU.
    pub const NO_EXPIRY: SimDuration = SimDuration(u64::MAX / 2);

    /// A fleet of `sats` empty caches, each with `capacity_bytes` and
    /// entries expiring `ttl` after insertion.
    ///
    /// # Panics
    /// Panics on a zero TTL — that cache could never serve anything.
    pub fn new(sats: usize, capacity_bytes: u64, ttl: SimDuration) -> Self {
        assert!(ttl > SimDuration::ZERO, "TTL must be positive");
        FleetCache {
            sat_capacity: capacity_bytes,
            ttl,
            now: SimTime::EPOCH,
            head: vec![NIL; sats],
            tail: vec![NIL; sats],
            used: vec![0; sats],
            count: vec![0; sats],
            e_sat: Vec::new(),
            e_content: Vec::new(),
            e_size: Vec::new(),
            e_expiry: Vec::new(),
            e_prev: Vec::new(),
            e_next: Vec::new(),
            free: Vec::new(),
            index: SlotIndex::default(),
            stats: CacheStats::default(),
        }
    }

    /// Advance the clock (monotonically; moving backwards is clamped).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    /// The current clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of satellite slots.
    pub fn sat_count(&self) -> usize {
        self.head.len()
    }

    /// Per-satellite byte capacity.
    pub fn capacity_bytes_per_sat(&self) -> u64 {
        self.sat_capacity
    }

    /// The freshness lifetime applied to every insert.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Objects cached on one satellite.
    pub fn len_of(&self, sat: u32) -> usize {
        self.count[sat as usize] as usize
    }

    /// Bytes cached on one satellite.
    pub fn used_bytes_of(&self, sat: u32) -> u64 {
        self.used[sat as usize]
    }

    /// Fleet-wide counters under the unified taxonomy: hits/misses/gets,
    /// inserts, and the three departure classes (evicted under pressure,
    /// expired on TTL lapse, invalidated by `remove`/`clear_sat`).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries dropped because their TTL lapsed (from any purge path).
    /// Alias for `stats().expirations`: fleet purges always drop a live
    /// entry (expiry lives in the entry, so there are no stale records).
    pub fn expired_purges(&self) -> u64 {
        self.stats.expirations
    }

    /// Objects cached fleet-wide (expired-but-untouched entries included).
    pub fn len(&self) -> usize {
        self.count.iter().map(|&n| n as usize).sum()
    }

    /// True when no satellite caches anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Satellites currently holding at least one object, as
    /// `(sat, entries, bytes)` in slot order.
    pub fn occupied(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.count
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(s, &n)| (s as u32, n, self.used[s]))
    }

    // -- intrusive-list plumbing -------------------------------------------

    fn unlink(&mut self, e: u32) {
        let (sat, prev, next) = (
            self.e_sat[e as usize] as usize,
            self.e_prev[e as usize],
            self.e_next[e as usize],
        );
        if prev == NIL {
            self.head[sat] = next;
        } else {
            self.e_next[prev as usize] = next;
        }
        if next == NIL {
            self.tail[sat] = prev;
        } else {
            self.e_prev[next as usize] = prev;
        }
    }

    fn push_front(&mut self, e: u32) {
        let sat = self.e_sat[e as usize] as usize;
        let old = self.head[sat];
        self.e_prev[e as usize] = NIL;
        self.e_next[e as usize] = old;
        if old == NIL {
            self.tail[sat] = e;
        } else {
            self.e_prev[old as usize] = e;
        }
        self.head[sat] = e;
    }

    /// Detach entry `e` entirely: index, list, byte accounting, arena.
    fn release(&mut self, e: u32) {
        let i = e as usize;
        self.index.remove(&(self.e_sat[i], self.e_content[i]));
        self.unlink(e);
        let sat = self.e_sat[i] as usize;
        self.used[sat] -= self.e_size[i];
        self.count[sat] -= 1;
        self.free.push(e);
    }

    fn alloc(&mut self, sat: u32, content: ContentId, size: u64) -> u32 {
        let expiry = self.now + self.ttl;
        if let Some(e) = self.free.pop() {
            let i = e as usize;
            self.e_sat[i] = sat;
            self.e_content[i] = content;
            self.e_size[i] = size;
            self.e_expiry[i] = expiry;
            e
        } else {
            let e = self.e_sat.len() as u32;
            self.e_sat.push(sat);
            self.e_content.push(content);
            self.e_size.push(size);
            self.e_expiry.push(expiry);
            self.e_prev.push(NIL);
            self.e_next.push(NIL);
            e
        }
    }

    #[inline]
    fn slot(&self, sat: u32, content: ContentId) -> Option<u32> {
        self.index.get(&(sat, content)).copied()
    }

    #[inline]
    fn lapsed(&self, e: u32) -> bool {
        self.now >= self.e_expiry[e as usize]
    }

    // -- cache operations ---------------------------------------------------

    /// Freshness check that reclaims: an entry found expired is purged and
    /// counted; a live entry is left untouched (no recency bump, no
    /// hit/miss accounting).
    pub fn is_fresh(&mut self, sat: u32, content: ContentId) -> bool {
        match self.slot(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Presence without side effects (counters and recency untouched).
    pub fn contains(&self, sat: u32, content: ContentId) -> bool {
        self.slot(sat, content).is_some_and(|e| !self.lapsed(e))
    }

    /// Drop `(sat, content)` if present *and* its TTL has lapsed, counting
    /// an expired purge. Supports eager expiry sweeps (the traffic
    /// engine's timer queue); a live or absent entry is untouched.
    pub fn expire_if_due(&mut self, sat: u32, content: ContentId) -> bool {
        match self.slot(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                true
            }
            _ => false,
        }
    }

    /// Look up an object: a fresh hit bumps recency and the hit counter;
    /// an expired entry is purged and counted as a miss.
    pub fn get(&mut self, sat: u32, content: ContentId) -> bool {
        self.stats.gets += 1;
        match self.slot(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                false
            }
            Some(e) => {
                // Zipf-hot entries are usually already most-recent; the
                // relink (six scattered link writes) is pure overhead then.
                if self.head[sat as usize] != e {
                    self.unlink(e);
                    self.push_front(e);
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Insert an object, evicting LRU victims as needed; returns false
    /// (caching nothing) when the object exceeds the satellite capacity.
    /// Re-inserting a live object refreshes recency and expiry but keeps
    /// the originally stored size (objects are immutable). Victims are
    /// appended to `evicted` so callers maintaining external holder
    /// indices can prune them eagerly.
    pub fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool {
        if let Some(e) = self.slot(sat, content) {
            if self.lapsed(e) {
                self.release(e);
                self.stats.expirations += 1;
            }
        }
        if size > self.sat_capacity {
            // The oversize check precedes the refresh path, so an
            // oversized re-insert rejects without refreshing.
            return false;
        }
        if let Some(e) = self.slot(sat, content) {
            self.unlink(e);
            self.push_front(e);
            self.e_expiry[e as usize] = self.now + self.ttl;
            return true;
        }
        while self.used[sat as usize] + size > self.sat_capacity {
            let victim = self.tail[sat as usize];
            debug_assert_ne!(victim, NIL, "eviction loop with an empty list");
            evicted.push(self.e_content[victim as usize]);
            self.release(victim);
            self.stats.evictions += 1;
        }
        let e = self.alloc(sat, content, size);
        self.index.insert((sat, content), e);
        self.push_front(e);
        self.used[sat as usize] += size;
        self.count[sat as usize] += 1;
        self.stats.inserts += 1;
        true
    }

    /// [`FleetCache::insert_collect`] without victim reporting.
    pub fn insert(&mut self, sat: u32, content: ContentId, size: u64) -> bool {
        let mut sink = Vec::new();
        self.insert_collect(sat, content, size, &mut sink)
    }

    /// Remove an object if present (fresh or expired), booking an
    /// invalidation; returns whether it was there. Hit/miss counters and
    /// recency are untouched.
    pub fn remove(&mut self, sat: u32, content: ContentId) -> bool {
        match self.slot(sat, content) {
            Some(e) => {
                self.release(e);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Wipe one satellite's cache (hit/miss counters preserved; each drop
    /// books an invalidation), appending every dropped content id to
    /// `dropped`; returns how many were dropped.
    pub fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64 {
        let mut n = 0;
        while self.head[sat as usize] != NIL {
            let e = self.head[sat as usize];
            dropped.push(self.e_content[e as usize]);
            self.release(e);
            n += 1;
        }
        self.stats.invalidations += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet(cap: u64) -> FleetCache {
        FleetCache::new(4, cap, SimDuration::from_secs(60))
    }

    #[test]
    fn satellites_are_isolated() {
        let mut f = fleet(1_000);
        assert!(f.insert(0, id(1), 100));
        assert!(f.insert(1, id(1), 100));
        assert!(f.get(0, id(1)));
        assert!(!f.get(2, id(1)));
        assert_eq!(f.len_of(0), 1);
        assert_eq!(f.len_of(2), 0);
        assert_eq!(f.used_bytes_of(1), 100);
    }

    #[test]
    fn lru_evicts_least_recent_per_satellite() {
        let mut f = fleet(300);
        f.insert(0, id(1), 100);
        f.insert(0, id(2), 100);
        f.insert(0, id(3), 100);
        assert!(f.get(0, id(1))); // 1 most recent; 2 now LRU
        let mut evicted = Vec::new();
        assert!(f.insert_collect(0, id(4), 100, &mut evicted));
        assert_eq!(evicted, vec![id(2)]);
        assert!(f.contains(0, id(1)) && f.contains(0, id(3)) && f.contains(0, id(4)));
        assert_eq!(f.stats().evictions, 1);
    }

    #[test]
    fn entries_expire_at_ttl_and_count_purges() {
        let mut f = fleet(1_000);
        f.insert(0, id(1), 100);
        f.set_now(SimTime::from_secs(60));
        assert!(!f.contains(0, id(1)));
        assert_eq!(f.used_bytes_of(0), 100, "lazy: bytes linger until touched");
        assert!(!f.is_fresh(0, id(1)));
        assert_eq!(f.used_bytes_of(0), 0);
        assert_eq!(f.expired_purges(), 1);
        assert!(!f.is_fresh(0, id(99)), "absent id is not a purge");
        assert_eq!(f.expired_purges(), 1);
    }

    #[test]
    fn expire_if_due_sweeps_only_lapsed_entries() {
        let mut f = fleet(1_000);
        f.insert(0, id(1), 100);
        assert!(!f.expire_if_due(0, id(1)), "fresh entry stays");
        f.set_now(SimTime::from_secs(60));
        assert!(f.expire_if_due(0, id(1)));
        assert!(!f.expire_if_due(0, id(1)), "already gone");
        assert_eq!(f.expired_purges(), 1);
        assert_eq!(f.stats().misses, 0, "sweeps are not lookups");
    }

    #[test]
    fn refresh_insert_extends_ttl_and_keeps_size() {
        let mut f = fleet(1_000);
        f.insert(0, id(1), 100);
        f.set_now(SimTime::from_secs(30));
        assert!(f.insert(0, id(1), 999)); // refresh ignores the new size
        assert_eq!(f.used_bytes_of(0), 100);
        f.set_now(SimTime::from_secs(89));
        assert!(f.contains(0, id(1)));
        f.set_now(SimTime::from_secs(90));
        assert!(!f.contains(0, id(1)));
    }

    #[test]
    fn oversized_insert_rejected() {
        let mut f = fleet(100);
        assert!(!f.insert(0, id(1), 101));
        assert_eq!(f.len_of(0), 0);
        assert!(f.insert(0, id(2), 100));
    }

    #[test]
    fn clear_sat_drains_and_reports() {
        let mut f = fleet(1_000);
        f.insert(0, id(1), 100);
        f.insert(0, id(2), 100);
        f.insert(1, id(3), 100);
        let mut dropped = Vec::new();
        assert_eq!(f.clear_sat(0, &mut dropped), 2);
        dropped.sort();
        assert_eq!(dropped, vec![id(1), id(2)]);
        assert_eq!(f.len_of(0), 0);
        assert_eq!(f.used_bytes_of(0), 0);
        assert_eq!(f.len_of(1), 1, "other satellites untouched");
        assert_eq!(f.clear_sat(0, &mut Vec::new()), 0);
    }

    #[test]
    fn arena_recycles_released_entries() {
        let mut f = fleet(200);
        for round in 0..50u64 {
            f.insert(0, id(round), 100);
            f.insert(0, id(round + 1000), 100);
        }
        // Churn of 100 inserts at 2-entry capacity must not grow the arena
        // past the live maximum.
        assert!(f.e_sat.len() <= 3, "arena grew to {}", f.e_sat.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ttl_panics() {
        let _ = FleetCache::new(1, 100, SimDuration::ZERO);
    }
}
