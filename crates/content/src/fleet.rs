//! One cache store for every policy: a whole constellation's caches in
//! flat parallel arrays, with the eviction policy reduced to an order.
//!
//! [`PolicyFleet`] has two parts. The **store** is written once: the
//! shared entry arena (content id, size, expiry, intrusive links, one
//! fleet-wide `(satellite, content) → entry` index), per-satellite byte
//! and entry counts, the capacity, the TTL, the clock, the
//! [`CacheStats`] under the evicted/expired/invalidated taxonomy, and the
//! TTL timer queue. The **order** (LRU, SIEVE, S3-FIFO or W-TinyLFU; see
//! [`crate::policy`]) keeps only its own lists and per-entry metadata and
//! decides four things: what a hit or refresh does to an entry's
//! position, where a new entry links, which entry is the victim, and in
//! what order `clear_sat` drops a satellite's entries.
//!
//! **Expiry is eager and lives in the store.** Every insert and every
//! refresh pushes an `(expiry, satellite, content)` record on a FIFO timer
//! queue; the clock is monotone and the TTL fleet-wide, so the queue is
//! sorted by construction. [`PolicyFleet::set_now`] pops every record due
//! by the new clock and expires the entry it names when that entry is
//! still present and itself due (a record whose entry has gone, or was
//! refreshed past the clock, is skipped). An entry therefore never
//! lingers past its expiry, and the departures come out in timer-record
//! order — which the traffic engine's holder lists, and so its decision
//! digest, depend on. A fleet built with [`PolicyFleet::NO_EXPIRY`] keeps
//! no timer records.
//!
//! **The queue is bounded.** A record whose entry was evicted,
//! invalidated or refreshed stays queued until its due time, which in a
//! run shorter than the TTL is the fleet's lifetime. So once the queue
//! holds more than twice the live entries plus a floor, it keeps (in
//! order) only the first record of each entry still present with
//! `expiry == due`, which is at most one per live entry: amortized O(1)
//! per push, O(live) memory. A refresh that leaves the expiry unchanged
//! (same clock) arms nothing, since the record it would add is a no-op
//! behind an identical earlier one. A dropped stale record still differs
//! from no record in one case: when a single clock step passes both it
//! and its entry's later expiry, the unbounded queue expires the entry at
//! the stale record's place, the bounded one at the live record's. Runs
//! whose clock steps are shorter than the gap between an entry's records,
//! and fleets that never outgrow the floor, see identical departures.
//!
//! Behaviour is pinned decision-for-decision to naive references by
//! `tests/policy_oracle.rs`. Besides the traffic engine's satellite
//! fleets, an LRU fleet with [`PolicyFleet::NO_EXPIRY`] is the
//! byte-capacity cache under the ground
//! [`crate::hierarchy::CacheHierarchy`], the content bubbles and static
//! placement of `spacecdn-core`.

use crate::arena::EntryArena;
use crate::catalog::ContentId;
use crate::policy::{CacheStats, Order, PolicyKind};
use spacecdn_geo::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Timer records a fleet may hold beyond twice its live entries before
/// it compacts the queue.
const TIMER_FLOOR: usize = 1024;

/// The part of a fleet every policy shares.
pub(crate) struct Store {
    pub arena: EntryArena,
    /// Bytes cached per satellite slot.
    used: Vec<u64>,
    /// Entries cached per satellite slot.
    count: Vec<u32>,
    capacity: u64,
    ttl: SimDuration,
    now: SimTime,
    stats: CacheStats,
    /// Entries cached fleet-wide.
    live: usize,
    /// `(expiry, sat, content)` per insert and refresh, oldest first,
    /// compacted past `2 × live + TIMER_FLOOR` records.
    timers: VecDeque<(SimTime, u32, ContentId)>,
    /// What the last `set_now` expired, in timer-record order.
    expired: Vec<(u32, ContentId)>,
}

impl Store {
    /// True when `size` more bytes do not fit on `sat`.
    #[inline]
    pub fn over(&self, sat: u32, size: u64) -> bool {
        self.used[sat as usize] + size > self.capacity
    }

    /// Queue a timer record for `(sat, content)` expiring at `expiry`.
    #[inline]
    fn arm(&mut self, expiry: SimTime, sat: u32, content: ContentId) {
        if self.ttl != PolicyFleet::NO_EXPIRY {
            self.timers.push_back((expiry, sat, content));
        }
    }

    /// Once the queue outgrows the live entries, keep, in order, only the
    /// first record of each present entry whose expiry is the record's
    /// due time (see the module doc).
    #[inline]
    fn bound_timers(&mut self) {
        if self.timers.len() <= 2 * self.live + TIMER_FLOOR {
            return;
        }
        let arena = &self.arena;
        let mut armed = vec![false; arena.slots()];
        self.timers
            .retain(|&(due, sat, content)| match arena.lookup(sat, content) {
                Some(e) if arena.expiry[e as usize] == due => {
                    !std::mem::replace(&mut armed[e as usize], true)
                }
                _ => false,
            });
    }

    /// Admit a new entry: allocate it, book its bytes and an insert, and
    /// arm its timer. The order links it.
    pub fn alloc(&mut self, sat: u32, content: ContentId, size: u64) -> u32 {
        let expiry = self.now + self.ttl;
        let e = self.arena.alloc(sat, content, size, expiry);
        self.used[sat as usize] += size;
        self.count[sat as usize] += 1;
        self.live += 1;
        self.stats.inserts += 1;
        self.arm(expiry, sat, content);
        e
    }

    /// Release an entry the order has already unlinked, returning its
    /// content id. The caller books the departure class.
    fn release(&mut self, e: u32) -> ContentId {
        let i = e as usize;
        let sat = self.arena.sat[i] as usize;
        self.used[sat] -= self.arena.size[i];
        self.count[sat] -= 1;
        self.live -= 1;
        self.arena.release(e);
        self.arena.content[i]
    }

    /// Evict an entry the order has already unlinked, reporting it.
    pub fn evict(&mut self, e: u32, evicted: &mut Vec<ContentId>) {
        evicted.push(self.release(e));
        self.stats.evictions += 1;
    }
}

/// A whole constellation's caches under one eviction/admission policy.
///
/// Satellites are addressed by a dense `u32` slot (the traffic engine
/// uses shell-offset global indices); all satellites share one byte
/// capacity and one TTL. The clock is fleet-global and monotone
/// ([`PolicyFleet::set_now`]); simulation event times never decrease, so
/// one clock serves every satellite.
///
/// Every departure is reported — eviction victims through
/// [`PolicyFleet::insert_collect`]'s `evicted` vector, TTL lapses through
/// [`PolicyFleet::set_now`]'s return value, duty-cycle drops through
/// [`PolicyFleet::clear_sat`]'s `dropped` vector — because the traffic
/// engine prunes its per-content holder lists eagerly and a silent drop
/// would desynchronize them.
pub struct PolicyFleet {
    store: Store,
    order: Order,
}

impl PolicyFleet {
    /// TTL for fleets that never call [`PolicyFleet::set_now`]: their
    /// clock stays at [`SimTime::EPOCH`], so no entry can lapse, no timer
    /// record is kept, and the fleet is a plain byte-capacity cache.
    pub const NO_EXPIRY: SimDuration = SimDuration(u64::MAX / 2);

    /// Build a fleet of `sats` empty caches running `kind`, each with
    /// `capacity_bytes` and entries expiring `ttl` after insertion.
    ///
    /// # Panics
    /// Panics on a zero TTL — that cache could never serve anything.
    pub fn new(kind: PolicyKind, sats: usize, capacity_bytes: u64, ttl: SimDuration) -> Self {
        assert!(ttl > SimDuration::ZERO, "TTL must be positive");
        PolicyFleet {
            store: Store {
                arena: EntryArena::new(),
                used: vec![0; sats],
                count: vec![0; sats],
                capacity: capacity_bytes,
                ttl,
                now: SimTime::EPOCH,
                stats: CacheStats::default(),
                live: 0,
                timers: VecDeque::new(),
                expired: Vec::new(),
            },
            order: Order::new(kind, sats, capacity_bytes),
        }
    }

    /// Which policy this fleet runs.
    pub fn kind(&self) -> PolicyKind {
        self.order.kind()
    }

    /// Advance the clock (monotonically; moving backwards is clamped) and
    /// expire every entry now due, returning each expired
    /// `(sat, content)` in timer-record order. The slice is the fleet's
    /// own scratch, overwritten by the next call.
    pub fn set_now(&mut self, now: SimTime) -> &[(u32, ContentId)] {
        let s = &mut self.store;
        s.now = s.now.max(now);
        s.expired.clear();
        while let Some(&(due, sat, content)) = s.timers.front() {
            if due > s.now {
                break;
            }
            s.timers.pop_front();
            let Some(e) = s.arena.lookup(sat, content) else {
                continue;
            };
            if s.arena.expiry[e as usize] <= s.now {
                self.order.unlink(&mut s.arena, e);
                s.release(e);
                s.stats.expirations += 1;
                s.expired.push((sat, content));
            }
        }
        &s.expired
    }

    /// The current clock.
    pub fn now(&self) -> SimTime {
        self.store.now
    }

    /// Number of satellite slots.
    pub fn sat_count(&self) -> usize {
        self.store.used.len()
    }

    /// Per-satellite byte capacity.
    pub fn capacity_bytes_per_sat(&self) -> u64 {
        self.store.capacity
    }

    /// The freshness lifetime applied to every insert.
    pub fn ttl(&self) -> SimDuration {
        self.store.ttl
    }

    /// Objects cached on one satellite.
    #[inline]
    pub fn len_of(&self, sat: u32) -> usize {
        self.store.count[sat as usize] as usize
    }

    /// Bytes cached on one satellite.
    #[inline]
    pub fn used_bytes_of(&self, sat: u32) -> u64 {
        self.store.used[sat as usize]
    }

    /// Objects cached fleet-wide.
    pub fn len(&self) -> usize {
        self.store.live
    }

    /// True when no satellite caches anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fleet-wide counters under the unified taxonomy: hits/misses/gets,
    /// inserts, and the three departure classes (evicted under pressure,
    /// expired on TTL lapse, invalidated by `remove`/`clear_sat`).
    pub fn stats(&self) -> CacheStats {
        self.store.stats
    }

    /// Look up an object: a hit updates the policy's recency or frequency
    /// state.
    #[inline]
    pub fn get(&mut self, sat: u32, content: ContentId) -> bool {
        self.order.on_request(sat, content);
        let s = &mut self.store;
        s.stats.gets += 1;
        match s.arena.lookup(sat, content) {
            Some(e) => {
                self.order.touch(&mut s.arena, sat, e);
                s.stats.hits += 1;
                true
            }
            None => {
                s.stats.misses += 1;
                false
            }
        }
    }

    /// Presence without side effects (counters and policy state untouched).
    #[inline]
    pub fn contains(&self, sat: u32, content: ContentId) -> bool {
        self.store.arena.lookup(sat, content).is_some()
    }

    /// Insert an object, evicting per policy as needed; returns false
    /// (caching nothing) when the object exceeds the satellite capacity.
    /// Re-inserting a present object refreshes policy state and expiry
    /// but keeps the originally stored size (objects are immutable); the
    /// oversize check comes first, so an oversized re-insert rejects
    /// without refreshing. Every entry dropped by the operation — victims,
    /// and under admission policies possibly the inserted object itself —
    /// is appended to `evicted`.
    #[inline]
    pub fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool {
        self.order.on_request(sat, content);
        let s = &mut self.store;
        if size > s.capacity {
            return false;
        }
        if let Some(e) = s.arena.lookup(sat, content) {
            self.order.touch(&mut s.arena, sat, e);
            let expiry = s.now + s.ttl;
            if s.arena.expiry[e as usize] != expiry {
                s.arena.expiry[e as usize] = expiry;
                s.arm(expiry, sat, content);
                s.bound_timers();
            }
            return true;
        }
        self.order.insert(s, sat, content, size, evicted);
        s.bound_timers();
        true
    }

    /// [`PolicyFleet::insert_collect`] without victim reporting.
    pub fn insert(&mut self, sat: u32, content: ContentId, size: u64) -> bool {
        let mut sink = Vec::new();
        self.insert_collect(sat, content, size, &mut sink)
    }

    /// Remove an object if present, booking an invalidation; returns
    /// whether it was there. Hit/miss counters are untouched.
    pub fn remove(&mut self, sat: u32, content: ContentId) -> bool {
        let s = &mut self.store;
        match s.arena.lookup(sat, content) {
            Some(e) => {
                self.order.unlink(&mut s.arena, e);
                s.release(e);
                s.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Wipe one satellite's cache (hit/miss counters preserved; each drop
    /// books an invalidation), appending every dropped content id to
    /// `dropped` in the policy's drop order; returns how many were dropped.
    pub fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64 {
        let s = &mut self.store;
        let mut n = 0;
        while let Some(e) = self.order.first(sat) {
            self.order.unlink(&mut s.arena, e);
            dropped.push(s.release(e));
            n += 1;
        }
        self.order.cleared(sat);
        s.stats.invalidations += n;
        n
    }

    /// Satellites currently holding at least one object, as
    /// `(sat, entries, bytes)` in slot order, appended to `out`.
    pub fn occupied_into(&self, out: &mut Vec<(u32, u32, u64)>) {
        let s = &self.store;
        for (sat, &n) in s.count.iter().enumerate() {
            if n > 0 {
                out.push((sat as u32, n, s.used[sat]));
            }
        }
    }

    /// Timer records queued (including ones already stale).
    #[cfg(test)]
    pub(crate) fn timer_records(&self) -> usize {
        self.store.timers.len()
    }

    /// Arena slots ever allocated (capacity watermark, for growth tests).
    #[cfg(test)]
    pub(crate) fn arena_slots(&self) -> usize {
        self.store.arena.slots()
    }

    /// The order, for policy-internal unit tests.
    #[cfg(test)]
    pub(crate) fn order(&self) -> &Order {
        &self.order
    }

    /// The store, for policy-internal unit tests.
    #[cfg(test)]
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn lru(cap: u64) -> PolicyFleet {
        PolicyFleet::new(PolicyKind::LruTtl, 4, cap, SimDuration::from_secs(60))
    }

    #[test]
    fn satellites_are_isolated() {
        let mut f = lru(1_000);
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
        let mut f = lru(300);
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
    fn entries_expire_eagerly_at_ttl() {
        let mut f = lru(1_000);
        f.insert(0, id(1), 100);
        f.insert(1, id(2), 100);
        assert!(f.set_now(SimTime::from_secs(59)).is_empty());
        assert_eq!(f.set_now(SimTime::from_secs(60)), &[(0, id(1)), (1, id(2))]);
        assert!(!f.contains(0, id(1)));
        assert_eq!(f.used_bytes_of(0), 0, "bytes leave with the entry");
        assert_eq!(f.stats().expirations, 2);
        assert_eq!(f.stats().misses, 0, "expiry is not a lookup");
        assert!(f.set_now(SimTime::from_secs(61)).is_empty());
    }

    #[test]
    fn departures_follow_timer_record_order() {
        // Records: (60, A), (60, B), (70, A). A's first record finds A due
        // once the clock passes 70, so A leaves before B even though B's
        // current expiry is the earlier one.
        let (a, b) = (id(1), id(2));
        let mut f = lru(1_000);
        f.insert(0, a, 100);
        f.insert(0, b, 100);
        f.set_now(SimTime::from_secs(10));
        assert!(f.insert(0, a, 100), "refresh");
        assert_eq!(f.set_now(SimTime::from_secs(100)), &[(0, a), (0, b)]);
        assert_eq!(f.stats().expirations, 2);
        assert_eq!(f.timer_records(), 0, "stale refresh record popped too");
    }

    #[test]
    fn no_expiry_fleet_keeps_no_timer_records() {
        let mut f = PolicyFleet::new(PolicyKind::LruTtl, 2, 100_000, PolicyFleet::NO_EXPIRY);
        for n in 0..10_000u64 {
            f.insert((n % 2) as u32, id(n % 700), 1_000);
        }
        assert!(f.stats().evictions > 0 && !f.is_empty());
        assert_eq!(f.timer_records(), 0);
    }

    #[test]
    fn timer_queue_stays_bounded_under_eviction_churn() {
        for kind in PolicyKind::ALL {
            // Ten objects fit; a 300-object universe churns through them.
            // The TTL outlives the run, so without compaction every insert
            // would leave its record queued.
            let mut f = PolicyFleet::new(kind, 2, 1_000, SimDuration::from_secs(3_600));
            let mut rng = spacecdn_geo::DetRng::new(5, "timer-bound");
            let mut evicted = Vec::new();
            for n in 0..100_000u64 {
                if n % 7 == 0 {
                    f.set_now(SimTime::from_millis(n));
                }
                f.insert_collect(
                    rng.index(2) as u32,
                    id(rng.index(300) as u64),
                    100,
                    &mut evicted,
                );
                assert!(
                    f.timer_records() <= 2 * f.len() + TIMER_FLOOR,
                    "{}: {} records for {} entries after {n} inserts",
                    kind.name(),
                    f.timer_records(),
                    f.len()
                );
            }
            assert!(f.stats().evictions > 90_000, "{}", kind.name());
            // The kept records still expire every live entry.
            let live = f.len();
            assert!(live > 0);
            let expired = f.set_now(SimTime::from_secs(10_000)).len();
            assert_eq!(expired, live, "{}", kind.name());
            assert!(f.is_empty());
            assert_eq!(f.timer_records(), 0);
        }
    }

    #[test]
    fn refresh_insert_extends_ttl_and_keeps_size() {
        let mut f = lru(1_000);
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
        let mut f = lru(100);
        assert!(!f.insert(0, id(1), 101));
        assert_eq!(f.len_of(0), 0);
        assert_eq!(f.timer_records(), 0, "a rejected insert arms nothing");
        assert!(f.insert(0, id(2), 100));
    }

    #[test]
    fn clear_sat_drains_and_reports() {
        let mut f = lru(1_000);
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
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 1, 200, SimDuration::from_secs(600));
            for round in 0..50u64 {
                f.insert(0, id(round % 7), 100);
                f.insert(0, id(round + 1000), 100);
            }
            // Churn at 2-entry capacity must not grow the arena past the
            // live maximum (plus a TinyLFU window candidate in flight).
            assert!(f.arena_slots() <= 3, "{}: {}", kind.name(), f.arena_slots());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ttl_panics() {
        let _ = PolicyFleet::new(PolicyKind::LruTtl, 1, 100, SimDuration::ZERO);
    }
}
