//! S3-FIFO eviction order.
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
//! Frequency is a 2-bit saturating counter bumped on hits and refreshes.
//!
//! Lookup, expiry, byte accounting and the departure taxonomy live in the
//! store ([`crate::fleet`]). Expired and invalidated entries do *not*
//! enter the ghost: the ghost models eviction regret, not freshness or
//! duty cycling.

use crate::arena::{meta_set, EntryArena, List, SlotHasher, NIL};
use crate::catalog::ContentId;
use crate::fleet::Store;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Saturation ceiling for the 2-bit per-entry hit counter.
const FREQ_MAX: u8 = 3;

type GhostIndex = HashMap<(u32, ContentId), u64, BuildHasherDefault<SlotHasher>>;

/// Per-satellite S3-FIFO queues over the shared arena.
pub(crate) struct S3Fifo {
    /// Byte bound of each satellite's ghost: the cache capacity.
    capacity: u64,
    /// Byte target for the small queue (`capacity / 10`, min 1).
    small_target: u64,
    small: Vec<List>,
    main: Vec<List>,
    small_used: Vec<u64>,
    /// Per-satellite ghost FIFO of evicted ids (sizes live in `ghost_index`).
    ghost: Vec<VecDeque<ContentId>>,
    ghost_used: Vec<u64>,
    ghost_index: GhostIndex,
    in_main: Vec<bool>,
    freq: Vec<u8>,
}

impl S3Fifo {
    pub fn new(sats: usize, capacity: u64) -> Self {
        S3Fifo {
            capacity,
            small_target: (capacity / 10).max(1),
            small: vec![List::EMPTY; sats],
            main: vec![List::EMPTY; sats],
            small_used: vec![0; sats],
            ghost: vec![VecDeque::new(); sats],
            ghost_used: vec![0; sats],
            ghost_index: GhostIndex::default(),
            in_main: Vec::new(),
            freq: Vec::new(),
        }
    }

    /// A hit or refresh bumps the frequency; nothing moves.
    #[inline]
    pub fn touch(&mut self, e: u32) {
        let f = &mut self.freq[e as usize];
        *f = (*f + 1).min(FREQ_MAX);
    }

    /// Take `e` off whichever queue holds it.
    pub fn unlink(&mut self, a: &mut EntryArena, e: u32) {
        let i = e as usize;
        let sat = a.sat[i] as usize;
        if self.in_main[i] {
            a.unlink(&mut self.main[sat], e);
        } else {
            a.unlink(&mut self.small[sat], e);
            self.small_used[sat] -= a.size[i];
        }
    }

    /// Evict until `size` fits, then link the new entry: at the main head
    /// on a ghost hit (it was evicted recently, so small-queue probation
    /// already failed it once wrongly), else at the small head.
    pub fn insert(
        &mut self,
        s: &mut Store,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) {
        let to_main = self.take_ghost(sat, content);
        while s.over(sat, size) {
            self.evict_one(s, sat, evicted);
        }
        let e = s.alloc(sat, content, size);
        meta_set(&mut self.freq, e, 0);
        meta_set(&mut self.in_main, e, to_main);
        let sl = sat as usize;
        if to_main {
            s.arena.push_front(&mut self.main[sl], e);
        } else {
            s.arena.push_front(&mut self.small[sl], e);
            self.small_used[sl] += size;
        }
    }

    /// Record an evicted id in the satellite's ghost queue, trimming the
    /// ghost to the cache's byte capacity.
    fn push_ghost(&mut self, sat: u32, content: ContentId, size: u64) {
        let prev = self.ghost_index.insert((sat, content), size);
        debug_assert!(prev.is_none(), "live entry already ghosted");
        let s = sat as usize;
        self.ghost[s].push_back(content);
        self.ghost_used[s] += size;
        while self.ghost_used[s] > self.capacity {
            let old = self.ghost[s]
                .pop_front()
                .expect("ghost bytes without ghost entries");
            let osize = self.ghost_index.remove(&(sat, old)).unwrap_or(0);
            self.ghost_used[s] -= osize;
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

    /// Evict exactly one entry from `sat`, promoting and reinserting along
    /// the way per the S3-FIFO rules.
    fn evict_one(&mut self, s: &mut Store, sat: u32, evicted: &mut Vec<ContentId>) {
        let sl = sat as usize;
        let a = &mut s.arena;
        loop {
            let from_small = !self.small[sl].is_empty()
                && (self.small_used[sl] > self.small_target || self.main[sl].is_empty());
            if from_small {
                let v = self.small[sl].tail;
                let i = v as usize;
                if self.freq[i] > 0 {
                    // Proven in small: promote to the main head, counter
                    // reset — it must re-earn protection there. Promotion
                    // frees small-queue pressure but no bytes; keep looking.
                    a.unlink(&mut self.small[sl], v);
                    self.small_used[sl] -= a.size[i];
                    self.freq[i] = 0;
                    self.in_main[i] = true;
                    a.push_front(&mut self.main[sl], v);
                    continue;
                }
                let (content, size) = (a.content[i], a.size[i]);
                self.unlink(a, v);
                self.push_ghost(sat, content, size);
                s.evict(v, evicted);
                return;
            }
            let v = self.main[sl].tail;
            debug_assert_ne!(v, NIL, "eviction with both queues empty");
            let i = v as usize;
            if self.freq[i] > 0 {
                // Lazy second chance: decay and recycle to the main head.
                self.freq[i] -= 1;
                a.unlink(&mut self.main[sl], v);
                a.push_front(&mut self.main[sl], v);
                continue;
            }
            self.unlink(a, v);
            s.evict(v, evicted);
            return;
        }
    }

    /// `clear_sat` drops the small queue head to tail, then main.
    pub fn first(&self, sat: u32) -> u32 {
        let s = sat as usize;
        if self.small[s].is_empty() {
            self.main[s].head
        } else {
            self.small[s].head
        }
    }

    /// Duty cycling wipes the ghost too: a powered-down satellite's
    /// eviction history is stale by the time it wakes.
    pub fn cleared(&mut self, sat: u32) {
        let s = sat as usize;
        while let Some(old) = self.ghost[s].pop_front() {
            self.ghost_index.remove(&(sat, old));
        }
        self.ghost_used[s] = 0;
    }

    #[cfg(test)]
    fn ghost_len(&self, sat: u32) -> usize {
        self.ghost[sat as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Order, PolicyFleet, PolicyKind};
    use spacecdn_geo::{SimDuration, SimTime};

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet(cap: u64) -> PolicyFleet {
        PolicyFleet::new(PolicyKind::S3Fifo, 2, cap, SimDuration::from_secs(60))
    }

    fn s3(f: &PolicyFleet) -> &S3Fifo {
        match f.order() {
            Order::S3Fifo(o) => o,
            _ => unreachable!("an S3-FIFO fleet"),
        }
    }

    fn in_main(f: &PolicyFleet, content: ContentId) -> bool {
        let e = f.store().arena.lookup(0, content).expect("cached");
        s3(f).in_main[e as usize]
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
        assert_eq!(s3(&f).ghost_len(0), 2);
        // Re-requesting an evicted object lands it in main directly. The
        // readmission consumes 0's ghost record; making room evicts 2 from
        // small, which ghosts it — net ghost: {1, 2}.
        f.insert_collect(0, id(0), 100, &mut ev);
        assert!(in_main(&f, id(0)));
        assert!(!s3(&f).ghost_index.contains_key(&(0, id(0))));
        assert_eq!(s3(&f).ghost_len(0), 2);
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
        assert!(in_main(&f, id(0)));
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
        assert!(
            s3(&f).ghost_len(0) <= 10,
            "ghost holds {}",
            s3(&f).ghost_len(0)
        );
        assert!(s3(&f).ghost_used[0] <= 1_000);
    }

    #[test]
    fn clear_sat_wipes_ghost_too() {
        let mut f = fleet(1_000);
        for n in 0..15u64 {
            f.insert_collect(0, id(n), 100, &mut Vec::new());
        }
        assert!(s3(&f).ghost_len(0) > 0);
        let mut dropped = Vec::new();
        assert_eq!(f.clear_sat(0, &mut dropped), 10);
        assert_eq!(s3(&f).ghost_len(0), 0);
        // Post-clear, a previously ghosted id is a plain newcomer (small).
        f.insert_collect(0, id(0), 100, &mut Vec::new());
        assert!(!in_main(&f, id(0)));
    }

    #[test]
    fn expired_entries_skip_the_ghost() {
        let mut f = fleet(1_000);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        assert_eq!(f.set_now(SimTime::from_secs(60)), &[(0, id(1))]);
        assert_eq!(s3(&f).ghost_len(0), 0, "expiry is not eviction regret");
        assert_eq!(f.stats().expirations, 1);
        // Re-admission after expiry is a plain newcomer (small queue).
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        assert!(!in_main(&f, id(1)));
    }
}
