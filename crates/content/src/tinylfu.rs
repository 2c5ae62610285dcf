//! Window-TinyLFU eviction order.
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
//! Lookup, expiry, byte accounting and the departure taxonomy live in the
//! store ([`crate::fleet`]). Every departure — main victims *and* rejected
//! candidates (which may be the object just inserted) — goes through the
//! store's eviction path, so it is reported in `insert_collect`'s
//! `evicted` vector.

use crate::arena::{meta_set, EntryArena, List, NIL};
use crate::catalog::ContentId;
use crate::fleet::Store;
use crate::sketch::FrequencySketch;

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

/// Per-satellite W-TinyLFU segments over the shared arena.
pub(crate) struct TinyLfu {
    /// Window byte budget: `capacity / 100`, min 1.
    window_cap: u64,
    /// Main-region byte budget: `capacity - window_cap`.
    main_cap: u64,
    /// Protected-segment byte budget: `4/5` of main.
    protected_cap: u64,
    /// Segment lists and their bytes, indexed `[segment][sat]`.
    lists: [Vec<List>; 3],
    seg_used: [Vec<u64>; 3],
    seg: Vec<u8>,
    sketch: FrequencySketch,
}

impl TinyLfu {
    pub fn new(sats: usize, capacity: u64) -> Self {
        let window_cap = (capacity / 100).max(1);
        let main_cap = capacity.saturating_sub(window_cap);
        TinyLfu {
            window_cap,
            main_cap,
            protected_cap: main_cap * 4 / 5,
            lists: std::array::from_fn(|_| vec![List::EMPTY; sats]),
            seg_used: std::array::from_fn(|_| vec![0; sats]),
            seg: Vec::new(),
            sketch: FrequencySketch::with_entries(sats.max(1) * 64),
        }
    }

    /// Count a request in the admission sketch.
    #[inline]
    pub fn on_request(&mut self, sat: u32, content: ContentId) {
        self.sketch.increment(sketch_key(sat, content));
    }

    /// Link `e` at the head of segment `seg`.
    fn link(&mut self, a: &mut EntryArena, e: u32, seg: u8) {
        let (sat, size) = (a.sat[e as usize] as usize, a.size[e as usize]);
        a.push_front(&mut self.lists[seg as usize][sat], e);
        self.seg_used[seg as usize][sat] += size;
        self.seg[e as usize] = seg;
    }

    /// Take `e` off its segment.
    pub fn unlink(&mut self, a: &mut EntryArena, e: u32) {
        let (sat, size) = (a.sat[e as usize] as usize, a.size[e as usize]);
        let seg = self.seg[e as usize] as usize;
        a.unlink(&mut self.lists[seg][sat], e);
        self.seg_used[seg][sat] -= size;
    }

    /// A hit or refresh: window/protected entries bump to their list head;
    /// probation entries promote to protected, demoting protected tails
    /// back to probation as needed.
    pub fn touch(&mut self, a: &mut EntryArena, sat: u32, e: u32) {
        let i = e as usize;
        let sat = sat as usize;
        let size = a.size[i];
        let seg = self.seg[i];
        if seg != SEG_PROBATION || size > self.protected_cap {
            // Window, protected, or too big to ever protect: bump in place.
            let list = &mut self.lists[seg as usize][sat];
            if list.head != e {
                a.unlink(list, e);
                a.push_front(list, e);
            }
            return;
        }
        self.unlink(a, e);
        let protected = SEG_PROTECTED as usize;
        while self.seg_used[protected][sat] + size > self.protected_cap {
            let demote = self.lists[protected][sat].tail;
            debug_assert_ne!(demote, NIL, "protected bytes without entries");
            self.unlink(a, demote);
            self.link(a, demote, SEG_PROBATION);
        }
        self.link(a, e, SEG_PROTECTED);
    }

    /// Link the new entry at the window head, then shed window overflow
    /// through the admission filter.
    pub fn insert(
        &mut self,
        s: &mut Store,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) {
        let e = s.alloc(sat, content, size);
        meta_set(&mut self.seg, e, SEG_WINDOW);
        self.link(&mut s.arena, e, SEG_WINDOW);
        let sl = sat as usize;
        while self.seg_used[SEG_WINDOW as usize][sl] > self.window_cap {
            let cand = self.lists[SEG_WINDOW as usize][sl].tail;
            debug_assert_ne!(cand, NIL, "window bytes without entries");
            self.unlink(&mut s.arena, cand);
            self.admit_to_main(s, cand, evicted);
        }
    }

    /// Run the admission filter for window-overflow candidate `cand`
    /// (already unlinked from the window): evict sketch-colder main
    /// victims until it fits, or evict the candidate itself the moment an
    /// incumbent matches it. Ties favour the incumbent.
    fn admit_to_main(&mut self, s: &mut Store, cand: u32, evicted: &mut Vec<ContentId>) {
        let i = cand as usize;
        let sat = s.arena.sat[i];
        let sl = sat as usize;
        let csize = s.arena.size[i];
        if csize > self.main_cap {
            s.evict(cand, evicted);
            return;
        }
        let cand_est = self.sketch.estimate(sketch_key(sat, s.arena.content[i]));
        let (prob, prot) = (SEG_PROBATION as usize, SEG_PROTECTED as usize);
        while self.seg_used[prob][sl] + self.seg_used[prot][sl] + csize > self.main_cap {
            let victim = if self.lists[prob][sl].tail != NIL {
                self.lists[prob][sl].tail
            } else {
                self.lists[prot][sl].tail
            };
            debug_assert_ne!(victim, NIL, "main bytes without entries");
            let vkey = sketch_key(sat, s.arena.content[victim as usize]);
            if cand_est > self.sketch.estimate(vkey) {
                self.unlink(&mut s.arena, victim);
                s.evict(victim, evicted);
            } else {
                s.evict(cand, evicted);
                return;
            }
        }
        self.link(&mut s.arena, cand, SEG_PROBATION);
    }

    /// `clear_sat` drops the window head to tail, then probation, then
    /// protected.
    pub fn first(&self, sat: u32) -> u32 {
        let s = sat as usize;
        self.lists
            .iter()
            .map(|l| l[s].head)
            .find(|&h| h != NIL)
            .unwrap_or(NIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Order, PolicyFleet, PolicyKind};
    use spacecdn_geo::SimDuration;

    fn id(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet(cap: u64, ttl_secs: u64) -> PolicyFleet {
        PolicyFleet::new(
            PolicyKind::TinyLfu,
            1,
            cap,
            SimDuration::from_secs(ttl_secs),
        )
    }

    fn tlfu(f: &PolicyFleet) -> &TinyLfu {
        match f.order() {
            Order::TinyLfu(o) => o,
            _ => unreachable!("a TinyLFU fleet"),
        }
    }

    fn seg_of(f: &PolicyFleet, content: ContentId) -> u8 {
        let e = f.store().arena.lookup(0, content).expect("cached");
        tlfu(f).seg[e as usize]
    }

    #[test]
    fn segment_budgets_partition_capacity() {
        let f = TinyLfu::new(1, 10_000);
        assert_eq!(f.window_cap, 100);
        assert_eq!(f.main_cap, 9_900);
        assert_eq!(f.protected_cap, 7_920);
        let tiny = TinyLfu::new(1, 1);
        assert_eq!(tiny.window_cap, 1);
        assert_eq!(tiny.main_cap, 0);
    }

    #[test]
    fn new_objects_enter_the_window_and_graduate_to_probation() {
        let f_cap = 10_000u64; // window 100
        let mut f = fleet(f_cap, 60);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        assert_eq!(seg_of(&f, id(1)), SEG_WINDOW);
        // Next insert overflows the window; 1 becomes the candidate and is
        // admitted to empty main (nothing to displace).
        f.insert_collect(0, id(2), 100, &mut Vec::new());
        assert_eq!(seg_of(&f, id(1)), SEG_PROBATION);
        assert_eq!(f.used_bytes_of(0), 200);
    }

    #[test]
    fn probation_hit_promotes_to_protected() {
        let mut f = fleet(10_000, 60);
        f.insert_collect(0, id(1), 100, &mut Vec::new());
        f.insert_collect(0, id(2), 100, &mut Vec::new()); // 1 → probation
        assert!(f.get(0, id(1)));
        assert_eq!(seg_of(&f, id(1)), SEG_PROTECTED);
    }

    #[test]
    fn admission_filter_rejects_cold_candidates() {
        // Fill main with objects that each got several hits (hot), then
        // push a never-requested candidate through: the sketch must reject
        // it rather than displace a hot incumbent.
        let mut f = fleet(1_000, 600);
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
        let mut f = fleet(1, 60);
        assert!(f.insert_collect(0, id(1), 1, &mut Vec::new()));
        let mut ev = Vec::new();
        assert!(f.insert_collect(0, id(2), 1, &mut ev));
        assert_eq!(ev, vec![id(1)], "window tail rejected by empty main");
        assert!(f.contains(0, id(2)));
        assert_eq!(f.len_of(0), 1);
    }

    #[test]
    fn protected_overflow_demotes_not_drops() {
        let mut f = fleet(1_000, 600);
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
}
