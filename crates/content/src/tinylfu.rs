//! Window-TinyLFU eviction as a flat-SoA cache fleet.
//!
//! W-TinyLFU (Einziger et al.) splits each satellite's capacity into a tiny
//! LRU **window** (~1%) where every new object lands, and an SLRU **main**
//! region — **probation** plus **protected** (~80% of main) segments. When
//! the window overflows, its LRU tail becomes an admission *candidate*: a
//! count-min [`FrequencySketch`] (shared fleet-wide, keyed by
//! `(satellite, content)`) compares the candidate's recent request
//! frequency against the main-region victim it would displace, and the
//! loser is evicted. A probation hit promotes to protected (demoting
//! protected's LRU tail back to probation when full); sketch counters are
//! bumped once per `get` and once per `insert`, whatever the outcome, and
//! halve periodically so stale popularity ages out.
//!
//! Determinism: the sketch hashes with fixed constants and admission breaks
//! ties in favour of the incumbent (strict `>` admits), so identical
//! request sequences make identical decisions on every run and at any
//! thread count. The exact decision procedure is mirrored naively by the
//! oracle in `tests/policy_oracle.rs`.
//!
//! Fleet shape, TTL handling and the unified [`CacheStats`] taxonomy match
//! [`crate::fleet::FleetCache`]. Every departure — main victims *and*
//! rejected candidates (which may be the object just inserted) — is
//! reported through `insert_collect`'s `evicted` vector so the traffic
//! engine's holder lists stay eagerly correct.

use crate::arena::{meta_set, EntryArena, List, NIL};
use crate::catalog::ContentId;
use crate::policy::{CachePolicy, CacheStats};
use crate::sketch::FrequencySketch;
use spacecdn_geo::{SimDuration, SimTime};

/// Segment tags.
const SEG_WINDOW: u8 = 0;
const SEG_PROBATION: u8 = 1;
const SEG_PROTECTED: u8 = 2;

/// Sketch key: satellites live far below bit 40 of any real content id
/// space, so this xor-fold keeps per-satellite streams distinct.
#[inline]
fn sketch_key(sat: u32, content: ContentId) -> u64 {
    (u64::from(sat) << 40) ^ content.0
}

/// A whole constellation's W-TinyLFU caches in flat parallel arrays.
pub struct TinyLfuFleet {
    sat_capacity: u64,
    /// Window byte budget: `capacity / 100`, min 1.
    window_cap: u64,
    /// Main-region byte budget: `capacity - window_cap`.
    main_cap: u64,
    /// Protected-segment byte budget: `4/5` of main.
    protected_cap: u64,
    ttl: SimDuration,
    now: SimTime,
    // Per-satellite state, indexed by satellite slot.
    window: Vec<List>,
    probation: Vec<List>,
    protected: Vec<List>,
    w_used: Vec<u64>,
    prob_used: Vec<u64>,
    prot_used: Vec<u64>,
    count: Vec<u32>,
    // Entry arena + per-entry policy metadata.
    arena: EntryArena,
    seg: Vec<u8>,
    sketch: FrequencySketch,
    stats: CacheStats,
}

impl TinyLfuFleet {
    /// A fleet of `sats` empty W-TinyLFU caches.
    ///
    /// # Panics
    /// Panics on a zero TTL — that cache could never serve anything.
    pub fn new(sats: usize, capacity_bytes: u64, ttl: SimDuration) -> Self {
        assert!(ttl > SimDuration::ZERO, "TTL must be positive");
        let window_cap = (capacity_bytes / 100).max(1);
        let main_cap = capacity_bytes.saturating_sub(window_cap);
        TinyLfuFleet {
            sat_capacity: capacity_bytes,
            window_cap,
            main_cap,
            protected_cap: main_cap * 4 / 5,
            ttl,
            now: SimTime::EPOCH,
            window: vec![List::EMPTY; sats],
            probation: vec![List::EMPTY; sats],
            protected: vec![List::EMPTY; sats],
            w_used: vec![0; sats],
            prob_used: vec![0; sats],
            prot_used: vec![0; sats],
            count: vec![0; sats],
            arena: EntryArena::new(),
            seg: Vec::new(),
            sketch: FrequencySketch::with_entries(sats.max(1) * 64),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn lapsed(&self, e: u32) -> bool {
        self.now >= self.arena.expiry[e as usize]
    }

    /// Unlink `e` from its segment, adjusting that segment's byte count.
    fn unlink_entry(&mut self, e: u32) {
        let i = e as usize;
        let sat = self.arena.sat[i] as usize;
        let size = self.arena.size[i];
        match self.seg[i] {
            SEG_WINDOW => {
                let mut list = self.window[sat];
                self.arena.unlink(&mut list, e);
                self.window[sat] = list;
                self.w_used[sat] -= size;
            }
            SEG_PROBATION => {
                let mut list = self.probation[sat];
                self.arena.unlink(&mut list, e);
                self.probation[sat] = list;
                self.prob_used[sat] -= size;
            }
            _ => {
                let mut list = self.protected[sat];
                self.arena.unlink(&mut list, e);
                self.protected[sat] = list;
                self.prot_used[sat] -= size;
            }
        }
        self.count[sat] -= 1;
    }

    /// Detach entry `e` entirely.
    fn release(&mut self, e: u32) {
        self.unlink_entry(e);
        self.arena.release(e);
    }

    /// Drop an entry already unlinked from every list.
    fn drop_unlinked(&mut self, e: u32) {
        let sat = self.arena.sat[e as usize] as usize;
        self.count[sat] -= 1;
        self.arena.release(e);
    }

    /// Hit-path segment movement: window/protected entries bump to their
    /// list head; probation entries promote to protected, demoting
    /// protected tails back to probation as needed.
    fn touch_hit(&mut self, e: u32) {
        let i = e as usize;
        let sat = self.arena.sat[i] as usize;
        let size = self.arena.size[i];
        match self.seg[i] {
            SEG_WINDOW => {
                let mut list = self.window[sat];
                if list.head != e {
                    self.arena.unlink(&mut list, e);
                    self.arena.push_front(&mut list, e);
                    self.window[sat] = list;
                }
            }
            SEG_PROTECTED => {
                let mut list = self.protected[sat];
                if list.head != e {
                    self.arena.unlink(&mut list, e);
                    self.arena.push_front(&mut list, e);
                    self.protected[sat] = list;
                }
            }
            _ => {
                if size > self.protected_cap {
                    // Too big to ever protect: bump within probation.
                    let mut list = self.probation[sat];
                    if list.head != e {
                        self.arena.unlink(&mut list, e);
                        self.arena.push_front(&mut list, e);
                        self.probation[sat] = list;
                    }
                    return;
                }
                let mut list = self.probation[sat];
                self.arena.unlink(&mut list, e);
                self.probation[sat] = list;
                self.prob_used[sat] -= size;
                while self.prot_used[sat] + size > self.protected_cap {
                    let demote = self.protected[sat].tail;
                    debug_assert_ne!(demote, NIL, "protected bytes without entries");
                    let dsize = self.arena.size[demote as usize];
                    let mut list = self.protected[sat];
                    self.arena.unlink(&mut list, demote);
                    self.protected[sat] = list;
                    self.prot_used[sat] -= dsize;
                    let mut list = self.probation[sat];
                    self.arena.push_front(&mut list, demote);
                    self.probation[sat] = list;
                    self.prob_used[sat] += dsize;
                    self.seg[demote as usize] = SEG_PROBATION;
                }
                let mut list = self.protected[sat];
                self.arena.push_front(&mut list, e);
                self.protected[sat] = list;
                self.prot_used[sat] += size;
                self.seg[i] = SEG_PROTECTED;
            }
        }
    }

    /// Run the admission filter for window-overflow candidate `cand`
    /// (already unlinked from the window): evict sketch-colder main
    /// victims until it fits, or evict the candidate itself the moment an
    /// incumbent matches it. Ties favour the incumbent.
    fn admit_to_main(&mut self, cand: u32, evicted: &mut Vec<ContentId>) {
        let i = cand as usize;
        let sat = self.arena.sat[i];
        let s = sat as usize;
        let csize = self.arena.size[i];
        if csize > self.main_cap {
            evicted.push(self.arena.content[i]);
            self.drop_unlinked(cand);
            self.stats.evictions += 1;
            return;
        }
        let cand_est = self.sketch.estimate(sketch_key(sat, self.arena.content[i]));
        while self.prob_used[s] + self.prot_used[s] + csize > self.main_cap {
            let victim = if self.probation[s].tail != NIL {
                self.probation[s].tail
            } else {
                self.protected[s].tail
            };
            debug_assert_ne!(victim, NIL, "main bytes without entries");
            let vkey = sketch_key(sat, self.arena.content[victim as usize]);
            if cand_est > self.sketch.estimate(vkey) {
                evicted.push(self.arena.content[victim as usize]);
                self.release(victim);
                self.stats.evictions += 1;
            } else {
                evicted.push(self.arena.content[i]);
                self.drop_unlinked(cand);
                self.stats.evictions += 1;
                return;
            }
        }
        let mut list = self.probation[s];
        self.arena.push_front(&mut list, cand);
        self.probation[s] = list;
        self.prob_used[s] += csize;
        self.seg[i] = SEG_PROBATION;
    }

    /// Shed window overflow through the admission filter.
    fn rebalance_window(&mut self, sat: u32, evicted: &mut Vec<ContentId>) {
        let s = sat as usize;
        while self.w_used[s] > self.window_cap {
            let cand = self.window[s].tail;
            debug_assert_ne!(cand, NIL, "window bytes without entries");
            let mut list = self.window[s];
            self.arena.unlink(&mut list, cand);
            self.window[s] = list;
            self.w_used[s] -= self.arena.size[cand as usize];
            self.admit_to_main(cand, evicted);
        }
    }

    /// The admission sketch (diagnostics and tests).
    pub fn sketch(&self) -> &FrequencySketch {
        &self.sketch
    }
}

impl CachePolicy for TinyLfuFleet {
    fn name(&self) -> &'static str {
        "tinylfu"
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn sat_count(&self) -> usize {
        self.window.len()
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
        let s = sat as usize;
        self.w_used[s] + self.prob_used[s] + self.prot_used[s]
    }

    fn len(&self) -> usize {
        self.count.iter().map(|&n| n as usize).sum()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn get(&mut self, sat: u32, content: ContentId) -> bool {
        self.sketch.increment(sketch_key(sat, content));
        self.stats.gets += 1;
        match self.arena.lookup(sat, content) {
            Some(e) if self.lapsed(e) => {
                self.release(e);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                false
            }
            Some(e) => {
                self.touch_hit(e);
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
        self.sketch.increment(sketch_key(sat, content));
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
            // Refresh: same segment movement as a hit, expiry extended.
            self.touch_hit(e);
            self.arena.expiry[e as usize] = self.now + self.ttl;
            return true;
        }
        let e = self.arena.alloc(sat, content, size, self.now + self.ttl);
        meta_set(&mut self.seg, e, SEG_WINDOW);
        let s = sat as usize;
        let mut list = self.window[s];
        self.arena.push_front(&mut list, e);
        self.window[s] = list;
        self.w_used[s] += size;
        self.count[s] += 1;
        self.stats.inserts += 1;
        self.rebalance_window(sat, evicted);
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
        for seg in [SEG_WINDOW, SEG_PROBATION, SEG_PROTECTED] {
            loop {
                let head = match seg {
                    SEG_WINDOW => self.window[s].head,
                    SEG_PROBATION => self.probation[s].head,
                    _ => self.protected[s].head,
                };
                if head == NIL {
                    break;
                }
                dropped.push(self.arena.content[head as usize]);
                self.release(head);
                n += 1;
            }
        }
        self.stats.invalidations += n;
        n
    }

    fn occupied_into(&self, out: &mut Vec<(u32, u32, u64)>) {
        for (s, &n) in self.count.iter().enumerate() {
            if n > 0 {
                out.push((s as u32, n, self.used_bytes_of(s as u32)));
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

    #[test]
    fn segment_budgets_partition_capacity() {
        let f = TinyLfuFleet::new(1, 10_000, SimDuration::from_secs(60));
        assert_eq!(f.window_cap, 100);
        assert_eq!(f.main_cap, 9_900);
        assert_eq!(f.protected_cap, 7_920);
        let tiny = TinyLfuFleet::new(1, 1, SimDuration::from_secs(60));
        assert_eq!(tiny.window_cap, 1);
        assert_eq!(tiny.main_cap, 0);
    }

    #[test]
    fn new_objects_enter_the_window_and_graduate_to_probation() {
        let f_cap = 10_000u64; // window 100
        let mut f = TinyLfuFleet::new(1, f_cap, SimDuration::from_secs(60));
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        let e = f.arena.lookup(0, id(1)).unwrap();
        assert_eq!(f.seg[e as usize], SEG_WINDOW);
        // Next insert overflows the window; 1 becomes the candidate and is
        // admitted to empty main (nothing to displace).
        f.insert_collect(0, id(2), 100, &mut Vec::new());
        let e = f.arena.lookup(0, id(1)).unwrap();
        assert_eq!(f.seg[e as usize], SEG_PROBATION);
        assert_eq!(f.used_bytes_of(0), 200);
    }

    #[test]
    fn probation_hit_promotes_to_protected() {
        let mut f = TinyLfuFleet::new(1, 10_000, SimDuration::from_secs(60));
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        f.insert_collect(0, id(2), 100, &mut Vec::new()); // 1 → probation
        assert!(f.get(0, id(1)));
        let e = f.arena.lookup(0, id(1)).unwrap();
        assert_eq!(f.seg[e as usize], SEG_PROTECTED);
    }

    #[test]
    fn admission_filter_rejects_cold_candidates() {
        // Fill main with objects that each got several hits (hot), then
        // push a never-requested candidate through: the sketch must reject
        // it rather than displace a hot incumbent.
        let mut f = TinyLfuFleet::new(1, 1_000, SimDuration::from_secs(600));
        // window 10, main 990 → 9 objects of 100 fill main + 1 in window.
        for n in 0..10u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
            for _ in 0..4 {
                f.get(0, id(n));
            }
        }
        // Cold newcomer displaces the window occupant (candidate), which
        // then faces a hot probation tail and loses.
        let mut ev = Vec::new();
        f.insert_collect(0, id(99), 100, &mut ev);
        assert!(
            !ev.is_empty(),
            "window overflow must resolve through admission"
        );
        // The hot set survives in full.
        for n in 0..9u64 {
            assert!(f.contains(0, id(n)), "hot object {n} displaced");
        }
        let s = f.stats();
        assert_eq!(s.departures(), s.inserts - f.len() as u64);
    }

    #[test]
    fn candidate_self_eviction_is_reported() {
        // main_cap 0 (capacity 1): every graduation candidate self-evicts,
        // and the reported victim can be the object just inserted.
        let mut f = TinyLfuFleet::new(1, 1, SimDuration::from_secs(60));
        assert!(f.insert_collect(0, id(1), 1, &mut Vec::new()));
        let mut ev = Vec::new();
        assert!(f.insert_collect(0, id(2), 1, &mut ev));
        assert_eq!(ev, vec![id(1)], "window tail rejected by empty main");
        assert!(f.contains(0, id(2)));
        assert_eq!(f.len_of(0), 1);
    }

    #[test]
    fn protected_overflow_demotes_not_drops() {
        let mut f = TinyLfuFleet::new(1, 1_000, SimDuration::from_secs(600));
        // protected_cap = 990*4/5 = 792 → 7 objects of 100 fit.
        for n in 0..9u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
        }
        // Promote 8 of them; the 8th promotion must demote the coldest
        // back to probation rather than dropping it.
        let before = f.len_of(0);
        for n in 0..8u64 {
            if f.contains(0, id(n)) {
                f.get(0, id(n));
            }
        }
        assert_eq!(f.len_of(0), before, "promotion churn never drops entries");
        let s = f.stats();
        assert_eq!(s.departures(), s.inserts - f.len() as u64);
    }

    #[test]
    fn arena_recycles_under_churn() {
        let mut f = TinyLfuFleet::new(1, 200, SimDuration::from_secs(600));
        for round in 0..60u64 {
            f.insert_collect(0, id(round % 7), 100, &mut Vec::new());
        }
        assert!(f.arena.slots() <= 8, "arena grew to {}", f.arena.slots());
    }
}
