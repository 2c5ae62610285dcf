//! SIEVE eviction order.
//!
//! SIEVE (NSDI'24) is a FIFO queue with one *visited* bit per entry and a
//! *hand* that sweeps from the queue tail (oldest) toward the head: a hit
//! just sets the visited bit (no list movement — cheap, scan-resistant),
//! and eviction walks the hand over visited entries, clearing each bit and
//! retaining the entry, until it finds an unvisited one to evict. Retained
//! entries get exactly one "second chance" per sweep: once the hand clears
//! a bit it moves strictly headward, so it cannot probe the same retained
//! entry again until the sweep wraps — a property pinned by the proptest
//! below. A departing entry steps the hand off itself first.
//!
//! Lookup, expiry, byte accounting and the departure taxonomy live in the
//! store ([`crate::fleet`]); this order keeps only the queues, the hands
//! and the visited bits.

use crate::arena::{meta_set, EntryArena, List, NIL};
use crate::catalog::ContentId;
use crate::fleet::Store;

/// Per-satellite SIEVE queues over the shared arena.
pub(crate) struct Sieve {
    queue: Vec<List>,
    /// Per-satellite hand: next sweep position, `NIL` = restart from tail.
    hand: Vec<u32>,
    visited: Vec<bool>,
    /// Entries probed (visited bit cleared) during the most recent victim
    /// selection, for the sweep proptest.
    probe_trail: Vec<u32>,
}

impl Sieve {
    pub fn new(sats: usize) -> Self {
        Sieve {
            queue: vec![List::EMPTY; sats],
            hand: vec![NIL; sats],
            visited: Vec::new(),
            probe_trail: Vec::new(),
        }
    }

    /// A hit or refresh: SIEVE never moves entries, it marks them.
    #[inline]
    pub fn touch(&mut self, e: u32) {
        self.visited[e as usize] = true;
    }

    /// Take `e` off its queue, stepping the hand off it first.
    pub fn unlink(&mut self, a: &mut EntryArena, e: u32) {
        let sat = a.sat[e as usize] as usize;
        if self.hand[sat] == e {
            // The hand must keep sweeping headward from the survivor next
            // to the departing entry.
            self.hand[sat] = a.prev[e as usize];
        }
        a.unlink(&mut self.queue[sat], e);
    }

    /// Evict until `size` fits, then link the new entry unvisited at the
    /// queue head.
    pub fn insert(
        &mut self,
        s: &mut Store,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) {
        while s.over(sat, size) {
            let victim = self.select_victim(&s.arena, sat);
            self.unlink(&mut s.arena, victim);
            s.evict(victim, evicted);
        }
        let e = s.alloc(sat, content, size);
        meta_set(&mut self.visited, e, false);
        s.arena.push_front(&mut self.queue[sat as usize], e);
    }

    /// Select the eviction victim on `sat`: sweep the hand headward over
    /// visited entries (clearing their bit — the second chance), stopping
    /// at the first unvisited entry, and rest the hand past it.
    fn select_victim(&mut self, a: &EntryArena, sat: u32) -> u32 {
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
            h = a.prev[h as usize];
            if h == NIL {
                h = self.queue[s].tail;
            }
        }
        self.hand[s] = a.prev[h as usize];
        h
    }

    /// `clear_sat` drops from the queue head.
    pub fn first(&self, sat: u32) -> u32 {
        self.queue[sat as usize].head
    }

    pub fn cleared(&mut self, sat: u32) {
        self.hand[sat as usize] = NIL;
    }

    #[cfg(test)]
    fn last_probe_trail(&self) -> &[u32] {
        &self.probe_trail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Order, PolicyFleet, PolicyKind};
    use proptest::prelude::*;
    use spacecdn_geo::SimDuration;

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet(cap: u64) -> PolicyFleet {
        PolicyFleet::new(PolicyKind::Sieve, 2, cap, SimDuration::from_secs(60))
    }

    fn probe_trail(f: &PolicyFleet) -> &[u32] {
        match f.order() {
            Order::Sieve(o) => o.last_probe_trail(),
            _ => unreachable!("a SIEVE fleet"),
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The SIEVE second-chance contract: during one victim selection
        /// the hand never probes (clears) the same retained entry twice,
        /// and never probes more entries than were live at sweep start.
        #[test]
        fn hand_never_probes_a_retained_entry_twice_per_sweep(
            ops in prop::collection::vec((0..30u64, 0..2u8), 1..300),
        ) {
            let mut f = PolicyFleet::new(PolicyKind::Sieve, 1, 500, SimDuration::from_secs(600));
            for (o, flag) in ops {
                if flag == 1 {
                    f.get(0, id(o));
                } else {
                    let live_before = f.len_of(0);
                    let mut ev = Vec::new();
                    f.insert_collect(0, id(o), 100, &mut ev);
                    let trail = probe_trail(&f);
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
