//! S3-FIFO eviction as a flat-SoA cache fleet.
//!
//! S3-FIFO (SOSP'23) runs three queues per satellite: a **small** FIFO
//! (~10% of capacity) that absorbs one-hit wonders, a **main** FIFO for
//! objects that proved themselves, and a byte-bounded **ghost** queue of
//! recently evicted ids (no bytes stored). New objects enter the small
//! queue — unless their id is in the ghost, which means they were evicted
//! recently and deserve the main queue directly. Eviction prefers the small
//! queue while it exceeds its target: a small-tail entry with any hits
//! (`freq > 0`) is promoted to the main head, otherwise it is evicted and
//! its id pushed to the ghost. Main-tail entries with `freq > 0` are
//! reinserted at the main head with `freq - 1` (lazy promotion); `freq == 0`
//! entries leave for good (not to the ghost — they had their chance).
//! Frequency is a 2-bit saturating counter bumped on hits.
//!
//! Fleet shape, TTL handling and the unified [`CacheStats`] taxonomy match
//! [`crate::fleet::FleetCache`]. Expired and invalidated entries do *not*
//! enter the ghost: the ghost models eviction regret, not freshness or
//! duty cycling. Victim identity is reported exactly through
//! `insert_collect`/`clear_sat` so the traffic engine's holder lists stay
//! eagerly correct.

use crate::arena::{meta_set, EntryArena, List, NIL};
use crate::catalog::ContentId;
use crate::fleet::SlotHasher;
use crate::policy::{CachePolicy, CacheStats};
use spacecdn_geo::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Saturation ceiling for the 2-bit per-entry hit counter.
const FREQ_MAX: u8 = 3;

type GhostIndex = HashMap<(u32, ContentId), u64, BuildHasherDefault<SlotHasher>>;

/// A whole constellation's S3-FIFO caches in flat parallel arrays.
pub struct S3FifoFleet {
    sat_capacity: u64,
    /// Byte target for the small queue (`capacity / 10`, min 1).
    small_target: u64,
    ttl: SimDuration,
    now: SimTime,
    // Per-satellite state, indexed by satellite slot.
    small: Vec<List>,
    main: Vec<List>,
    small_used: Vec<u64>,
    used: Vec<u64>,
    count: Vec<u32>,
    /// Per-satellite ghost FIFO of evicted ids (sizes live in `ghost_index`).
    ghost: Vec<VecDeque<ContentId>>,
    ghost_used: Vec<u64>,
    ghost_index: GhostIndex,
    // Entry arena + per-entry policy metadata.
    arena: EntryArena,
    in_main: Vec<bool>,
    freq: Vec<u8>,
    stats: CacheStats,
}

impl S3FifoFleet {
    /// A fleet of `sats` empty S3-FIFO caches.
    ///
    /// # Panics
    /// Panics on a zero TTL — that cache could never serve anything.
    pub fn new(sats: usize, capacity_bytes: u64, ttl: SimDuration) -> Self {
        assert!(ttl > SimDuration::ZERO, "TTL must be positive");
        S3FifoFleet {
            sat_capacity: capacity_bytes,
            small_target: (capacity_bytes / 10).max(1),
            ttl,
            now: SimTime::EPOCH,
            small: vec![List::EMPTY; sats],
            main: vec![List::EMPTY; sats],
            small_used: vec![0; sats],
            used: vec![0; sats],
            count: vec![0; sats],
            ghost: vec![VecDeque::new(); sats],
            ghost_used: vec![0; sats],
            ghost_index: GhostIndex::default(),
            arena: EntryArena::new(),
            in_main: Vec::new(),
            freq: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn lapsed(&self, e: u32) -> bool {
        self.now >= self.arena.expiry[e as usize]
    }

    /// Unlink `e` from whichever queue holds it, adjusting byte accounting.
    fn unlink_entry(&mut self, e: u32) {
        let i = e as usize;
        let sat = self.arena.sat[i] as usize;
        if self.in_main[i] {
            let mut list = self.main[sat];
            self.arena.unlink(&mut list, e);
            self.main[sat] = list;
        } else {
            let mut list = self.small[sat];
            self.arena.unlink(&mut list, e);
            self.small[sat] = list;
            self.small_used[sat] -= self.arena.size[i];
        }
        self.used[sat] -= self.arena.size[i];
        self.count[sat] -= 1;
    }

    /// Detach entry `e` entirely (no ghost record).
    fn release(&mut self, e: u32) {
        self.unlink_entry(e);
        self.arena.release(e);
    }

    /// Record an evicted id in the satellite's ghost queue, trimming the
    /// ghost to the cache's byte capacity.
    fn push_ghost(&mut self, sat: u32, content: ContentId, size: u64) {
        let prev = self.ghost_index.insert((sat, content), size);
        debug_assert!(prev.is_none(), "live entry already ghosted");
        self.ghost[sat as usize].push_back(content);
        self.ghost_used[sat as usize] += size;
        while self.ghost_used[sat as usize] > self.sat_capacity {
            let old = self.ghost[sat as usize]
                .pop_front()
                .expect("ghost bytes without ghost entries");
            let osize = self.ghost_index.remove(&(sat, old)).unwrap_or(0);
            self.ghost_used[sat as usize] -= osize;
        }
    }

    /// Drop `content` from the ghost if present; returns whether it was
    /// there (the S3-FIFO readmission signal).
    fn take_ghost(&mut self, sat: u32, content: ContentId) -> bool {
        match self.ghost_index.remove(&(sat, content)) {
            Some(size) => {
                let dq = &mut self.ghost[sat as usize];
                let pos = dq
                    .iter()
                    .position(|&c| c == content)
                    .expect("ghost index out of sync with ghost queue");
                dq.remove(pos);
                self.ghost_used[sat as usize] -= size;
                true
            }
            None => false,
        }
    }

    /// Evict exactly one entry from `sat` (promoting / reinserting along
    /// the way per the S3-FIFO rules), appending the victim to `evicted`.
    fn evict_one(&mut self, sat: u32, evicted: &mut Vec<ContentId>) {
        let s = sat as usize;
        loop {
            let from_small = !self.small[s].is_empty()
                && (self.small_used[s] > self.small_target || self.main[s].is_empty());
            if from_small {
                let v = self.small[s].tail;
                let i = v as usize;
                if self.freq[i] > 0 {
                    // Proven in small: promote to the main head, counter
                    // reset — it must re-earn protection there.
                    let size = self.arena.size[i];
                    let mut list = self.small[s];
                    self.arena.unlink(&mut list, v);
                    self.small[s] = list;
                    self.small_used[s] -= size;
                    self.freq[i] = 0;
                    self.in_main[i] = true;
                    let mut list = self.main[s];
                    self.arena.push_front(&mut list, v);
                    self.main[s] = list;
                    // Promotion freed small-queue pressure but no bytes;
                    // keep looking for a victim.
                    continue;
                }
                let content = self.arena.content[i];
                let size = self.arena.size[i];
                self.release(v);
                self.push_ghost(sat, content, size);
                evicted.push(content);
                self.stats.evictions += 1;
                return;
            }
            let v = self.main[s].tail;
            debug_assert_ne!(v, NIL, "eviction with both queues empty");
            let i = v as usize;
            if self.freq[i] > 0 {
                // Lazy second chance: decay and recycle to the main head.
                self.freq[i] -= 1;
                let mut list = self.main[s];
                self.arena.unlink(&mut list, v);
                self.arena.push_front(&mut list, v);
                self.main[s] = list;
                continue;
            }
            let content = self.arena.content[i];
            self.release(v);
            evicted.push(content);
            self.stats.evictions += 1;
            return;
        }
    }

    #[cfg(test)]
    fn ghost_len(&self, sat: u32) -> usize {
        self.ghost[sat as usize].len()
    }
}

impl CachePolicy for S3FifoFleet {
    fn name(&self) -> &'static str {
        "s3fifo"
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn sat_count(&self) -> usize {
        self.small.len()
    }

    fn capacity_bytes_per_sat(&self) -> u64 {
        self.sat_capacity
    }

    fn ttl(&self) -> SimDuration {
        self.ttl
    }

    fn len_of(&self, sat: u32) -> usize {
        self.count[sat as usize] as usize
    }

    fn used_bytes_of(&self, sat: u32) -> u64 {
        self.used[sat as usize]
    }

    fn len(&self) -> usize {
        self.count.iter().map(|&n| n as usize).sum()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn get(&mut self, sat: u32, content: ContentId) -> bool {
        self.stats.gets += 1;
        match self.arena.lookup(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                false
            }
            Some(e) => {
                let i = e as usize;
                self.freq[i] = (self.freq[i] + 1).min(FREQ_MAX);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn contains(&self, sat: u32, content: ContentId) -> bool {
        self.arena
            .lookup(sat, content)
            .is_some_and(|e| !self.lapsed(e))
    }

    fn is_fresh(&mut self, sat: u32, content: ContentId) -> bool {
        match self.arena.lookup(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    fn expire_if_due(&mut self, sat: u32, content: ContentId) -> bool {
        match self.arena.lookup(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                true
            }
            _ => false,
        }
    }

    fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool {
        if let Some(e) = self.arena.lookup(sat, content) {
            if self.lapsed(e) {
                self.release(e);
                self.stats.expirations += 1;
            }
        }
        if size > self.sat_capacity {
            return false;
        }
        if let Some(e) = self.arena.lookup(sat, content) {
            // Refresh: bump frequency like a hit, extend expiry, no move.
            let i = e as usize;
            self.freq[i] = (self.freq[i] + 1).min(FREQ_MAX);
            self.arena.expiry[i] = self.now + self.ttl;
            return true;
        }
        // A ghost hit routes the object straight into the main queue: it
        // was evicted recently, so the small-queue probation already failed
        // it once wrongly.
        let to_main = self.take_ghost(sat, content);
        while self.used[sat as usize] + size > self.sat_capacity {
            self.evict_one(sat, evicted);
        }
        let e = self.arena.alloc(sat, content, size, self.now + self.ttl);
        meta_set(&mut self.freq, e, 0);
        meta_set(&mut self.in_main, e, to_main);
        let s = sat as usize;
        if to_main {
            let mut list = self.main[s];
            self.arena.push_front(&mut list, e);
            self.main[s] = list;
        } else {
            let mut list = self.small[s];
            self.arena.push_front(&mut list, e);
            self.small[s] = list;
            self.small_used[s] += size;
        }
        self.used[s] += size;
        self.count[s] += 1;
        self.stats.inserts += 1;
        true
    }

    fn remove(&mut self, sat: u32, content: ContentId) -> bool {
        match self.arena.lookup(sat, content) {
            Some(e) => {
                self.release(e);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64 {
        let s = sat as usize;
        let mut n = 0;
        while self.small[s].head != NIL {
            let e = self.small[s].head;
            dropped.push(self.arena.content[e as usize]);
            self.release(e);
            n += 1;
        }
        while self.main[s].head != NIL {
            let e = self.main[s].head;
            dropped.push(self.arena.content[e as usize]);
            self.release(e);
            n += 1;
        }
        // Duty cycling wipes the ghost too: a powered-down satellite's
        // eviction history is stale by the time it wakes.
        while let Some(old) = self.ghost[s].pop_front() {
            self.ghost_index.remove(&(sat, old));
        }
        self.ghost_used[s] = 0;
        self.stats.invalidations += n;
        n
    }

    fn occupied_into(&self, out: &mut Vec<(u32, u32, u64)>) {
        for (s, &n) in self.count.iter().enumerate() {
            if n > 0 {
                out.push((s as u32, n, self.used[s]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet(cap: u64) -> S3FifoFleet {
        S3FifoFleet::new(2, cap, SimDuration::from_secs(60))
    }

    #[test]
    fn one_hit_wonders_churn_through_small() {
        // cap 1000 → small target 100 → one 100-byte object keeps small at
        // its target; a scan of never-read objects evicts only from small.
        let mut f = fleet(1_000);
        let mut ev = Vec::new();
        for n in 0..12u64 {
            f.insert_collect(0, id(n), 100, &mut ev);
        }
        assert_eq!(f.len_of(0), 10, "cache fills to capacity");
        assert_eq!(ev, vec![id(0), id(1)], "oldest unread objects leave first");
    }

    #[test]
    fn ghost_hit_readmits_to_main() {
        let mut f = fleet(1_000);
        let mut ev = Vec::new();
        for n in 0..12u64 {
            f.insert_collect(0, id(n), 100, &mut ev);
        }
        assert_eq!(ev, vec![id(0), id(1)]);
        assert_eq!(f.ghost_len(0), 2);
        // Re-requesting an evicted object lands it in main directly. The
        // readmission consumes 0's ghost record; making room evicts 2 from
        // small, which ghosts it — net ghost: {1, 2}.
        f.insert_collect(0, id(0), 100, &mut ev);
        assert!(f.in_main[f.arena.lookup(0, id(0)).unwrap() as usize]);
        assert!(!f.ghost_index.contains_key(&(0, id(0))));
        assert_eq!(f.ghost_len(0), 2);
    }

    #[test]
    fn hit_in_small_promotes_at_eviction_time() {
        let mut f = fleet(1_000);
        for n in 0..10u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
        }
        assert!(f.get(0, id(0)), "0 still cached");
        // Scan: 0 must survive (promoted to main when the hand reaches it).
        let mut ev = Vec::new();
        for n in 100..106u64 {
            f.insert_collect(0, id(n), 100, &mut ev);
        }
        assert!(f.contains(0, id(0)), "hit object promoted, not evicted");
        assert!(!ev.contains(&id(0)));
        assert!(f.in_main[f.arena.lookup(0, id(0)).unwrap() as usize]);
    }

    #[test]
    fn main_decays_before_evicting() {
        let mut f = fleet(1_000);
        // Fill main via ghost readmission.
        for n in 0..12u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
        }
        f.insert_collect(0, id(0), 100, &mut Vec::new()); // main via ghost
        f.get(0, id(0)); // freq 1
                         // Drain everything else; 0's decay chance keeps it longer than a
                         // freq-0 main entry would last.
        let mut ev = Vec::new();
        for n in 200..212u64 {
            f.insert_collect(0, id(n), 100, &mut ev);
        }
        let s = f.stats();
        assert_eq!(s.departures(), s.inserts - f.len() as u64);
    }

    #[test]
    fn ghost_is_byte_bounded() {
        let mut f = fleet(1_000);
        // Churn 50 distinct 100-byte objects: ghost holds at most
        // cap/size = 10 ids.
        for n in 0..50u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
        }
        assert!(f.ghost_len(0) <= 10, "ghost holds {}", f.ghost_len(0));
        assert!(f.ghost_used[0] <= 1_000);
    }

    #[test]
    fn clear_sat_wipes_ghost_too() {
        let mut f = fleet(1_000);
        for n in 0..15u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
        }
        assert!(f.ghost_len(0) > 0);
        let mut dropped = Vec::new();
        assert_eq!(f.clear_sat(0, &mut dropped), 10);
        assert_eq!(f.ghost_len(0), 0);
        // Post-clear, a previously ghosted id is a plain newcomer (small).
        f.insert_collect(0, id(0), 100, &mut Vec::new());
        assert!(!f.in_main[f.arena.lookup(0, id(0)).unwrap() as usize]);
    }

    #[test]
    fn expired_entries_skip_the_ghost() {
        let mut f = fleet(1_000);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        f.set_now(SimTime::from_secs(60));
        assert!(!f.get(0, id(1)));
        assert_eq!(f.ghost_len(0), 0, "expiry is not eviction regret");
        assert_eq!(f.stats().expirations, 1);
    }
}
