//! SIEVE eviction as a flat-SoA cache fleet.
//!
//! SIEVE (NSDI'24) is a FIFO queue with one *visited* bit per entry and a
//! *hand* that sweeps from the queue tail (oldest) toward the head: a hit
//! just sets the visited bit (no list movement — cheap, scan-resistant),
//! and eviction walks the hand over visited entries, clearing each bit and
//! retaining the entry, until it finds an unvisited one to evict. Retained
//! entries get exactly one "second chance" per sweep: once the hand clears
//! a bit it moves strictly headward, so it cannot probe the same retained
//! entry again until the sweep wraps — a property pinned by the proptest
//! below.
//!
//! Fleet shape, TTL handling and the unified [`CacheStats`] taxonomy match
//! [`crate::fleet::FleetCache`]; entries live in the shared
//! `EntryArena`. Victim identity is reported exactly through
//! `insert_collect`/`clear_sat` so the traffic engine's holder lists stay
//! eagerly correct.

use crate::arena::{meta_set, EntryArena, List, NIL};
use crate::catalog::ContentId;
use crate::policy::{CachePolicy, CacheStats};
use spacecdn_geo::{SimDuration, SimTime};

/// A whole constellation's SIEVE caches in flat parallel arrays.
pub struct SieveFleet {
    sat_capacity: u64,
    ttl: SimDuration,
    now: SimTime,
    // Per-satellite state, indexed by satellite slot.
    queue: Vec<List>,
    /// Per-satellite hand: next sweep position, `NIL` = restart from tail.
    hand: Vec<u32>,
    used: Vec<u64>,
    count: Vec<u32>,
    // Entry arena + per-entry policy metadata.
    arena: EntryArena,
    visited: Vec<bool>,
    stats: CacheStats,
    /// Entries probed (visited bit cleared) during the most recent victim
    /// selection, for the sweep proptest.
    probe_trail: Vec<u32>,
}

impl SieveFleet {
    /// A fleet of `sats` empty SIEVE caches.
    ///
    /// # Panics
    /// Panics on a zero TTL — that cache could never serve anything.
    pub fn new(sats: usize, capacity_bytes: u64, ttl: SimDuration) -> Self {
        assert!(ttl > SimDuration::ZERO, "TTL must be positive");
        SieveFleet {
            sat_capacity: capacity_bytes,
            ttl,
            now: SimTime::EPOCH,
            queue: vec![List::EMPTY; sats],
            hand: vec![NIL; sats],
            used: vec![0; sats],
            count: vec![0; sats],
            arena: EntryArena::new(),
            visited: Vec::new(),
            stats: CacheStats::default(),
            probe_trail: Vec::new(),
        }
    }

    #[inline]
    fn lapsed(&self, e: u32) -> bool {
        self.now >= self.arena.expiry[e as usize]
    }

    /// Detach entry `e` entirely, stepping the hand off it first.
    fn release(&mut self, e: u32) {
        let i = e as usize;
        let sat = self.arena.sat[i] as usize;
        if self.hand[sat] == e {
            // The hand must keep sweeping headward from the survivor next
            // to the departing entry.
            self.hand[sat] = self.arena.prev[i];
        }
        let mut list = self.queue[sat];
        self.arena.unlink(&mut list, e);
        self.queue[sat] = list;
        self.used[sat] -= self.arena.size[i];
        self.count[sat] -= 1;
        self.arena.release(e);
    }

    /// Select the eviction victim on `sat`: sweep the hand headward over
    /// visited entries (clearing their bit — the second chance), stopping
    /// at the first unvisited entry. The caller releases the victim.
    fn select_victim(&mut self, sat: u32) -> u32 {
        self.probe_trail.clear();
        let s = sat as usize;
        let mut h = self.hand[s];
        if h == NIL {
            h = self.queue[s].tail;
        }
        debug_assert_ne!(h, NIL, "victim selection on an empty queue");
        while self.visited[h as usize] {
            self.visited[h as usize] = false;
            self.probe_trail.push(h);
            h = self.arena.prev[h as usize];
            if h == NIL {
                h = self.queue[s].tail;
            }
        }
        // Advance the hand past the victim before it disappears.
        self.hand[s] = self.arena.prev[h as usize];
        h
    }

    #[cfg(test)]
    fn last_probe_trail(&self) -> &[u32] {
        &self.probe_trail
    }
}

impl CachePolicy for SieveFleet {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn sat_count(&self) -> usize {
        self.queue.len()
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
                self.visited[e as usize] = true;
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
            // The oversize check precedes the refresh path (FleetCache
            // convention): an oversized re-insert rejects without refresh.
            return false;
        }
        if let Some(e) = self.arena.lookup(sat, content) {
            // Refresh: SIEVE never moves entries; mark visited like a hit.
            self.visited[e as usize] = true;
            self.arena.expiry[e as usize] = self.now + self.ttl;
            return true;
        }
        while self.used[sat as usize] + size > self.sat_capacity {
            let victim = self.select_victim(sat);
            evicted.push(self.arena.content[victim as usize]);
            self.release(victim);
            self.stats.evictions += 1;
        }
        let e = self.arena.alloc(sat, content, size, self.now + self.ttl);
        meta_set(&mut self.visited, e, false);
        let mut list = self.queue[sat as usize];
        self.arena.push_front(&mut list, e);
        self.queue[sat as usize] = list;
        self.used[sat as usize] += size;
        self.count[sat as usize] += 1;
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
        let mut n = 0;
        while self.queue[sat as usize].head != NIL {
            let e = self.queue[sat as usize].head;
            dropped.push(self.arena.content[e as usize]);
            self.release(e);
            n += 1;
        }
        self.hand[sat as usize] = NIL;
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
    use proptest::prelude::*;

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet(cap: u64) -> SieveFleet {
        SieveFleet::new(2, cap, SimDuration::from_secs(60))
    }

    #[test]
    fn unvisited_entries_evict_in_fifo_order() {
        let mut f = fleet(300);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        f.insert_collect(0, id(2), 100, &mut Vec::new());
        f.insert_collect(0, id(3), 100, &mut Vec::new());
        let mut ev = Vec::new();
        f.insert_collect(0, id(4), 100, &mut ev);
        assert_eq!(ev, vec![id(1)], "oldest unvisited entry goes first");
    }

    #[test]
    fn visited_entries_get_a_second_chance() {
        let mut f = fleet(300);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        f.insert_collect(0, id(2), 100, &mut Vec::new());
        f.insert_collect(0, id(3), 100, &mut Vec::new());
        assert!(f.get(0, id(1))); // visited: survives one sweep
        let mut ev = Vec::new();
        f.insert_collect(0, id(4), 100, &mut ev);
        assert_eq!(ev, vec![id(2)], "hand skips visited 1, evicts 2");
        assert!(f.contains(0, id(1)));
        // The hand rests headward of the evicted slot (on 3) and continues
        // from there: 3 is unvisited, so it goes next — 1's consumed bit
        // does not get re-examined until the sweep wraps.
        let mut ev = Vec::new();
        f.insert_collect(0, id(5), 100, &mut ev);
        assert_eq!(ev, vec![id(3)]);
        assert!(f.contains(0, id(1)), "1 still riding its second chance");
    }

    #[test]
    fn hand_survives_removal_of_its_entry() {
        let mut f = fleet(300);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        f.insert_collect(0, id(2), 100, &mut Vec::new());
        f.insert_collect(0, id(3), 100, &mut Vec::new());
        f.get(0, id(1));
        f.get(0, id(2));
        // Evicting for 4 sweeps hand over 1 and 2 (clearing bits), evicts 3?
        // No: tail is 1 (oldest). Sweep clears 1, moves to 2, clears 2,
        // moves to 3, 3 unvisited → victim. Hand now at 3's prev... = NIL
        // (3 was head... actually head is 3). After 3 evicts, hand = prev of
        // 3 headward = NIL → next sweep restarts at tail.
        let mut ev = Vec::new();
        f.insert_collect(0, id(4), 100, &mut ev);
        assert_eq!(ev, vec![id(3)]);
        // Remove the entry the hand would examine next; accounting and
        // later evictions must stay exact.
        assert!(f.remove(0, id(1)));
        let mut ev = Vec::new();
        f.insert_collect(0, id(5), 100, &mut ev);
        f.insert_collect(0, id(6), 100, &mut ev);
        assert_eq!(ev, vec![id(2)], "cleared bit on 2 was consumed");
        assert_eq!(f.len_of(0), 3);
    }

    #[test]
    fn arena_recycles_under_churn() {
        let mut f = fleet(200);
        for round in 0..50u64 {
            f.insert_collect(0, id(round), 100, &mut Vec::new());
            f.insert_collect(0, id(round + 1000), 100, &mut Vec::new());
        }
        assert!(f.arena.slots() <= 3, "arena grew to {}", f.arena.slots());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The SIEVE second-chance contract: during one victim selection
        /// the hand never probes (clears) the same retained entry twice,
        /// and never probes more entries than were live at sweep start.
        #[test]
        fn hand_never_probes_a_retained_entry_twice_per_sweep(
            ops in prop::collection::vec((0..30u64, 0..2u8), 1..300),
        ) {
            let mut f = SieveFleet::new(1, 500, SimDuration::from_secs(600));
            for (o, flag) in ops {
                if flag == 1 {
                    f.get(0, id(o));
                } else {
                    let live_before = f.len_of(0);
                    let mut ev = Vec::new();
                    f.insert_collect(0, id(o), 100, &mut ev);
                    let trail = f.last_probe_trail();
                    let mut seen = std::collections::HashSet::new();
                    for &e in trail {
                        prop_assert!(seen.insert(e), "hand probed slot {e} twice");
                    }
                    prop_assert!(
                        trail.len() <= live_before,
                        "probed {} entries with only {live_before} live",
                        trail.len()
                    );
                }
            }
        }
    }
}
