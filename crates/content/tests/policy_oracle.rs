//! Differential cache oracle: every fleet policy pinned
//! decision-for-decision against a textbook reference.
//!
//! The flat-SoA fleets in `spacecdn-content` (LRU+TTL, SIEVE, S3-FIFO,
//! W-TinyLFU) buy their speed with intrusive lists, slot arenas and shared
//! sketches — exactly the machinery that can drift subtly from the policy
//! each one claims to implement. This suite replays randomized traces
//! through each fleet *and* a deliberately naive reference built from
//! `Vec`/`VecDeque`/linear scans, and asserts that every observable agrees
//! at every step:
//!
//! - hit/miss verdicts from `get`, admission verdicts from
//!   `insert_collect`,
//! - **victim identity and order** in the `evicted`/`dropped` vectors and
//!   in the TTL departures each `set_now` returns (the traffic engine
//!   prunes holder lists eagerly, so a wrong or missing victim is an
//!   engine-state corruption, not a cosmetic bug). The reference expires
//!   eagerly by the same rule as the fleet, written naively: a plain
//!   `Vec` of `(expiry, sat, content)` records, one per insert and
//!   refresh, walked in push order on every `set_now`,
//! - per-satellite `len_of`/`used_bytes_of`, `contains`, and the full
//!   [`CacheStats`] under the unified evicted/expired/invalidated taxonomy.
//!
//! Traces sweep capacity 1..=64 bytes (forcing degenerate shapes like a
//! zero-byte TinyLFU main region), TTL expiry, duty-cycle `clear_sat`, and
//! explicit invalidation, driven by the repo's [`DetRng`] so failures are
//! reproducible from the printed seed. Each policy runs 130 traces of
//! 80..=200 operations (520 traces across the suite), and the suite
//! self-asserts that the interesting machinery actually fired: evictions,
//! expirations, S3-FIFO ghost readmissions, TinyLFU admission rejections,
//! and segment promotions all have to occur, so a generator regression
//! cannot quietly turn the oracle into a vacuous pass.

use spacecdn_content::{CacheStats, ContentId, PolicyFleet, PolicyKind};
use spacecdn_geo::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

const TRACES_PER_POLICY: u64 = 130;

// ---------------------------------------------------------------------------
// Reference entry + coverage bookkeeping
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefEntry {
    content: ContentId,
    size: u64,
    expiry: SimTime,
    /// SIEVE visited bit / S3-FIFO 2-bit frequency (unused elsewhere).
    meta: u8,
}

/// Events the suite requires to have happened at least once per policy, so
/// the trace generator cannot silently stop exercising the machinery.
#[derive(Debug, Default)]
struct Coverage {
    evictions: u64,
    expirations: u64,
    invalidations: u64,
    hits: u64,
    oversize_rejects: u64,
    clears: u64,
    /// S3-FIFO: ghost hits routing a readmission straight to main.
    ghost_hits: u64,
    /// S3-FIFO: small-queue entries promoted to main at eviction time.
    small_promotions: u64,
    /// TinyLFU: window candidates rejected by the admission filter.
    admission_rejections: u64,
    /// TinyLFU: candidates admitted by displacing a colder victim.
    admission_wins: u64,
    /// TinyLFU: probation entries promoted to protected on a hit.
    protected_promotions: u64,
}

// ---------------------------------------------------------------------------
// Naive count-min sketch (mirrors the spec in `spacecdn-content/src/sketch.rs`)
// ---------------------------------------------------------------------------

/// Reference TinyLFU sketch: per-row `Vec<u8>` counters and a transcription
/// of the documented hash spec. Any drift in the production sketch (rows,
/// seeds, finalizer, width rule, halving rule) changes admission decisions
/// and breaks the differential run.
struct RefSketch {
    rows: Vec<Vec<u8>>,
    width: u64,
    additions: u64,
    sample_size: u64,
}

const REF_SEEDS: [u64; 4] = [
    0x71d6_7fff_eda6_0001,
    0xfff7_eee0_0000_0003,
    0x8ebf_d028_c43a_0005,
    0x355c_ff4d_7e4f_0007,
];

impl RefSketch {
    fn with_entries(entries: usize) -> Self {
        let width = entries.next_power_of_two().max(64) as u64;
        RefSketch {
            rows: vec![vec![0u8; width as usize]; 4],
            width,
            additions: 0,
            sample_size: 10 * width,
        }
    }

    fn slot(&self, key: u64, row: usize) -> usize {
        let mut h = key.wrapping_add(REF_SEEDS[row]);
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
        (h % self.width) as usize
    }

    fn increment(&mut self, key: u64) {
        for row in 0..4 {
            let s = self.slot(key, row);
            if self.rows[row][s] < 15 {
                self.rows[row][s] += 1;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_size {
            for row in &mut self.rows {
                for c in row.iter_mut() {
                    *c >>= 1;
                }
            }
            self.additions /= 2;
        }
    }

    fn estimate(&self, key: u64) -> u8 {
        (0..4)
            .map(|row| self.rows[row][self.slot(key, row)])
            .min()
            .unwrap()
    }
}

fn sketch_key(sat: u32, content: ContentId) -> u64 {
    (u64::from(sat) << 40) ^ content.0
}

// ---------------------------------------------------------------------------
// The reference policies. Each satellite's queue is a `Vec<RefEntry>` with
// index 0 = list head (front) and the last index = tail (eviction end);
// every operation is a linear scan.
// ---------------------------------------------------------------------------

struct RefFleet {
    kind: PolicyKind,
    cap: u64,
    ttl: SimDuration,
    now: SimTime,
    stats: CacheStats,
    /// LRU / SIEVE: the single per-sat queue. S3-FIFO: the small queue.
    /// TinyLFU: the window.
    q1: Vec<Vec<RefEntry>>,
    /// S3-FIFO: the main queue. TinyLFU: probation.
    q2: Vec<Vec<RefEntry>>,
    /// TinyLFU: protected.
    q3: Vec<Vec<RefEntry>>,
    /// `(expiry, sat, content)` per successful insert or refresh, in push
    /// order.
    timers: Vec<(SimTime, u32, ContentId)>,
    /// SIEVE: per-sat hand (content id; None = restart from the tail).
    hand: Vec<Option<ContentId>>,
    /// S3-FIFO: per-sat ghost FIFO of `(content, size)`, front = oldest.
    ghost: Vec<VecDeque<(ContentId, u64)>>,
    sketch: RefSketch,
    cov: Coverage,
}

impl RefFleet {
    fn new(kind: PolicyKind, sats: usize, cap: u64, ttl: SimDuration) -> Self {
        RefFleet {
            kind,
            cap,
            ttl,
            now: SimTime::EPOCH,
            stats: CacheStats::default(),
            timers: Vec::new(),
            q1: vec![Vec::new(); sats],
            q2: vec![Vec::new(); sats],
            q3: vec![Vec::new(); sats],
            hand: vec![None; sats],
            ghost: vec![VecDeque::new(); sats],
            sketch: RefSketch::with_entries(sats.max(1) * 64),
            cov: Coverage::default(),
        }
    }

    // -- derived capacities -------------------------------------------------

    fn small_target(&self) -> u64 {
        (self.cap / 10).max(1)
    }

    fn window_cap(&self) -> u64 {
        (self.cap / 100).max(1)
    }

    fn main_cap(&self) -> u64 {
        self.cap.saturating_sub(self.window_cap())
    }

    fn protected_cap(&self) -> u64 {
        self.main_cap() * 4 / 5
    }

    // -- scans --------------------------------------------------------------

    fn queues(&self, sat: u32) -> [&Vec<RefEntry>; 3] {
        let s = sat as usize;
        [&self.q1[s], &self.q2[s], &self.q3[s]]
    }

    /// Which queue (0/1/2) and index holds `content` on `sat`.
    fn locate(&self, sat: u32, content: ContentId) -> Option<(usize, usize)> {
        for (qi, q) in self.queues(sat).into_iter().enumerate() {
            if let Some(i) = q.iter().position(|e| e.content == content) {
                return Some((qi, i));
            }
        }
        None
    }

    fn queue_mut(&mut self, sat: u32, qi: usize) -> &mut Vec<RefEntry> {
        let s = sat as usize;
        match qi {
            0 => &mut self.q1[s],
            1 => &mut self.q2[s],
            _ => &mut self.q3[s],
        }
    }

    fn bytes_in(q: &[RefEntry]) -> u64 {
        q.iter().map(|e| e.size).sum()
    }

    fn len_of(&self, sat: u32) -> usize {
        self.queues(sat).into_iter().map(Vec::len).sum()
    }

    fn used_bytes_of(&self, sat: u32) -> u64 {
        self.queues(sat)
            .into_iter()
            .map(|q| Self::bytes_in(q))
            .sum()
    }

    fn len(&self) -> u64 {
        (0..self.q1.len())
            .map(|s| self.len_of(s as u32) as u64)
            .sum()
    }

    // -- departure plumbing -------------------------------------------------

    /// Detach `(qi, i)` from `sat` with SIEVE hand stepping (the hand moves
    /// to the departing entry's headward neighbour, as in the fleet).
    fn detach(&mut self, sat: u32, qi: usize, i: usize) -> RefEntry {
        if self.kind == PolicyKind::Sieve
            && self.hand[sat as usize] == Some(self.q1[sat as usize][i].content)
        {
            self.hand[sat as usize] = if i == 0 {
                None
            } else {
                Some(self.q1[sat as usize][i - 1].content)
            };
        }
        self.queue_mut(sat, qi).remove(i)
    }

    fn entry(&self, sat: u32, qi: usize, i: usize) -> &RefEntry {
        &self.queues(sat)[qi][i]
    }

    // -- SIEVE victim selection --------------------------------------------

    /// Sweep the hand headward (toward index 0) over visited entries,
    /// clearing each bit, wrapping to the tail; returns the victim index
    /// and leaves the hand on the victim's headward neighbour.
    fn sieve_select_victim(&mut self, sat: u32) -> usize {
        let s = sat as usize;
        let q = &mut self.q1[s];
        let mut pos = match self.hand[s] {
            Some(c) => q.iter().position(|e| e.content == c).expect("hand entry"),
            None => q.len() - 1,
        };
        while q[pos].meta != 0 {
            q[pos].meta = 0;
            pos = if pos == 0 { q.len() - 1 } else { pos - 1 };
        }
        self.hand[s] = if pos == 0 {
            None
        } else {
            Some(q[pos - 1].content)
        };
        pos
    }

    // -- S3-FIFO eviction ---------------------------------------------------

    fn s3_push_ghost(&mut self, sat: u32, content: ContentId, size: u64) {
        let s = sat as usize;
        self.ghost[s].push_back((content, size));
        let mut used: u64 = self.ghost[s].iter().map(|&(_, sz)| sz).sum();
        while used > self.cap {
            let (_, osize) = self.ghost[s].pop_front().expect("ghost entry");
            used -= osize;
        }
    }

    fn s3_evict_one(&mut self, sat: u32, evicted: &mut Vec<ContentId>) {
        let s = sat as usize;
        loop {
            let small_used = Self::bytes_in(&self.q1[s]);
            let from_small = !self.q1[s].is_empty()
                && (small_used > self.small_target() || self.q2[s].is_empty());
            if from_small {
                let v = self.q1[s].pop().expect("small tail");
                if v.meta > 0 {
                    // Proven in small: promote to the main head, counter reset.
                    self.cov.small_promotions += 1;
                    self.q2[s].insert(0, RefEntry { meta: 0, ..v });
                    continue;
                }
                self.s3_push_ghost(sat, v.content, v.size);
                evicted.push(v.content);
                self.stats.evictions += 1;
                self.cov.evictions += 1;
                return;
            }
            let v = self.q2[s].pop().expect("main tail");
            if v.meta > 0 {
                self.q2[s].insert(
                    0,
                    RefEntry {
                        meta: v.meta - 1,
                        ..v
                    },
                );
                continue;
            }
            evicted.push(v.content);
            self.stats.evictions += 1;
            self.cov.evictions += 1;
            return;
        }
    }

    // -- TinyLFU segment movement ------------------------------------------

    /// Hit-path movement: window/protected bump to their head; probation
    /// promotes to protected, demoting protected tails while over budget.
    fn tlfu_touch(&mut self, sat: u32, qi: usize, i: usize) {
        let s = sat as usize;
        match qi {
            0 | 2 => {
                let q = self.queue_mut(sat, qi);
                let e = q.remove(i);
                q.insert(0, e);
            }
            _ => {
                let size = self.q2[s][i].size;
                if size > self.protected_cap() {
                    let e = self.q2[s].remove(i);
                    self.q2[s].insert(0, e);
                    return;
                }
                let e = self.q2[s].remove(i);
                while Self::bytes_in(&self.q3[s]) + size > self.protected_cap() {
                    let demoted = self.q3[s].pop().expect("protected tail");
                    self.q2[s].insert(0, demoted);
                }
                self.q3[s].insert(0, e);
                self.cov.protected_promotions += 1;
            }
        }
    }

    /// Admission filter for a window-overflow candidate (already detached
    /// from the window): evict sketch-colder main victims until the
    /// candidate fits, or evict the candidate on the first tie/loss.
    fn tlfu_admit(&mut self, sat: u32, cand: RefEntry, evicted: &mut Vec<ContentId>) {
        let s = sat as usize;
        if cand.size > self.main_cap() {
            evicted.push(cand.content);
            self.stats.evictions += 1;
            self.cov.evictions += 1;
            self.cov.admission_rejections += 1;
            return;
        }
        let cand_est = self.sketch.estimate(sketch_key(sat, cand.content));
        while Self::bytes_in(&self.q2[s]) + Self::bytes_in(&self.q3[s]) + cand.size
            > self.main_cap()
        {
            let (vq, vi) = if !self.q2[s].is_empty() {
                (1, self.q2[s].len() - 1)
            } else {
                (2, self.q3[s].len() - 1)
            };
            let victim = self.queue_mut(sat, vq)[vi].clone();
            if cand_est > self.sketch.estimate(sketch_key(sat, victim.content)) {
                self.queue_mut(sat, vq).remove(vi);
                evicted.push(victim.content);
                self.stats.evictions += 1;
                self.cov.evictions += 1;
                self.cov.admission_wins += 1;
            } else {
                evicted.push(cand.content);
                self.stats.evictions += 1;
                self.cov.evictions += 1;
                self.cov.admission_rejections += 1;
                return;
            }
        }
        self.q2[s].insert(0, cand);
    }

    fn tlfu_rebalance_window(&mut self, sat: u32, evicted: &mut Vec<ContentId>) {
        let s = sat as usize;
        while Self::bytes_in(&self.q1[s]) > self.window_cap() {
            let cand = self.q1[s].pop().expect("window tail");
            self.tlfu_admit(sat, cand, evicted);
        }
    }

    // -- the mirrored operation set ----------------------------------------

    /// Advance the clock and walk every timer record due by it, in push
    /// order: a record expires its entry when the entry is still present
    /// and itself due. Returns the expired `(sat, content)` in that order.
    fn set_now(&mut self, now: SimTime) -> Vec<(u32, ContentId)> {
        self.now = self.now.max(now);
        let records = std::mem::take(&mut self.timers);
        let mut expired = Vec::new();
        for (due, sat, content) in records {
            if due > self.now {
                self.timers.push((due, sat, content));
                continue;
            }
            if let Some((qi, i)) = self.locate(sat, content) {
                if self.entry(sat, qi, i).expiry <= self.now {
                    self.detach(sat, qi, i);
                    self.stats.expirations += 1;
                    self.cov.expirations += 1;
                    expired.push((sat, content));
                }
            }
        }
        expired
    }

    fn get(&mut self, sat: u32, content: ContentId) -> bool {
        if self.kind == PolicyKind::TinyLfu {
            self.sketch.increment(sketch_key(sat, content));
        }
        self.stats.gets += 1;
        let Some((qi, i)) = self.locate(sat, content) else {
            self.stats.misses += 1;
            return false;
        };
        match self.kind {
            PolicyKind::LruTtl => {
                let q = self.queue_mut(sat, qi);
                let e = q.remove(i);
                q.insert(0, e);
            }
            PolicyKind::Sieve => self.queue_mut(sat, qi)[i].meta = 1,
            PolicyKind::S3Fifo => {
                let e = &mut self.queue_mut(sat, qi)[i];
                e.meta = (e.meta + 1).min(3);
            }
            PolicyKind::TinyLfu => self.tlfu_touch(sat, qi, i),
        }
        self.stats.hits += 1;
        self.cov.hits += 1;
        true
    }

    fn contains(&self, sat: u32, content: ContentId) -> bool {
        self.locate(sat, content).is_some()
    }

    fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool {
        if self.kind == PolicyKind::TinyLfu {
            self.sketch.increment(sketch_key(sat, content));
        }
        if size > self.cap {
            self.cov.oversize_rejects += 1;
            return false;
        }
        if let Some((qi, i)) = self.locate(sat, content) {
            // Refresh: policy touch + expiry extension, original size kept.
            let expiry = self.now + self.ttl;
            self.timers.push((expiry, sat, content));
            match self.kind {
                PolicyKind::LruTtl => {
                    let q = self.queue_mut(sat, qi);
                    let mut e = q.remove(i);
                    e.expiry = expiry;
                    q.insert(0, e);
                }
                PolicyKind::Sieve => {
                    let e = &mut self.queue_mut(sat, qi)[i];
                    e.meta = 1;
                    e.expiry = expiry;
                }
                PolicyKind::S3Fifo => {
                    let e = &mut self.queue_mut(sat, qi)[i];
                    e.meta = (e.meta + 1).min(3);
                    e.expiry = expiry;
                }
                PolicyKind::TinyLfu => {
                    self.tlfu_touch(sat, qi, i);
                    let (qi, i) = self.locate(sat, content).expect("touched entry");
                    self.queue_mut(sat, qi)[i].expiry = expiry;
                }
            }
            return true;
        }
        let s = sat as usize;
        let entry = RefEntry {
            content,
            size,
            expiry: self.now + self.ttl,
            meta: 0,
        };
        self.timers.push((entry.expiry, sat, content));
        match self.kind {
            PolicyKind::LruTtl => {
                while self.used_bytes_of(sat) + size > self.cap {
                    let v = self.q1[s].pop().expect("lru tail");
                    evicted.push(v.content);
                    self.stats.evictions += 1;
                    self.cov.evictions += 1;
                }
                self.q1[s].insert(0, entry);
            }
            PolicyKind::Sieve => {
                while self.used_bytes_of(sat) + size > self.cap {
                    let vi = self.sieve_select_victim(sat);
                    let v = self.q1[s].remove(vi);
                    evicted.push(v.content);
                    self.stats.evictions += 1;
                    self.cov.evictions += 1;
                }
                self.q1[s].insert(0, entry);
            }
            PolicyKind::S3Fifo => {
                // A ghost hit routes the readmission straight to main.
                let to_main = if let Some(i) = self.ghost[s].iter().position(|&(c, _)| c == content)
                {
                    self.ghost[s].remove(i);
                    self.cov.ghost_hits += 1;
                    true
                } else {
                    false
                };
                while self.used_bytes_of(sat) + size > self.cap {
                    self.s3_evict_one(sat, evicted);
                }
                if to_main {
                    self.q2[s].insert(0, entry);
                } else {
                    self.q1[s].insert(0, entry);
                }
            }
            PolicyKind::TinyLfu => {
                self.q1[s].insert(0, entry);
                self.stats.inserts += 1;
                self.tlfu_rebalance_window(sat, evicted);
                return true;
            }
        }
        self.stats.inserts += 1;
        true
    }

    fn remove(&mut self, sat: u32, content: ContentId) -> bool {
        match self.locate(sat, content) {
            Some((qi, i)) => {
                self.detach(sat, qi, i);
                self.stats.invalidations += 1;
                self.cov.invalidations += 1;
                true
            }
            None => false,
        }
    }

    fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64 {
        let s = sat as usize;
        let mut n = 0;
        for qi in 0..3 {
            let drained: Vec<RefEntry> = std::mem::take(self.queue_mut(sat, qi));
            for e in drained {
                dropped.push(e.content);
                n += 1;
            }
        }
        self.hand[s] = None;
        self.ghost[s].clear();
        self.stats.invalidations += n;
        self.cov.invalidations += n;
        self.cov.clears += 1;
        n
    }
}

// ---------------------------------------------------------------------------
// Trace driver
// ---------------------------------------------------------------------------

/// Replay one randomized trace through the fleet and the reference,
/// asserting every observable after every operation.
fn run_trace(kind: PolicyKind, trace: u64, cov: &mut Coverage) {
    let mut rng = DetRng::new(trace, &format!("policy-oracle-{}", kind.name()));
    let sats = 1 + rng.index(3);
    let cap = 1 + rng.index(64) as u64;
    let ttl = SimDuration::from_secs(1 + rng.index(40) as u64);
    let universe = 1 + rng.index(24) as u64;
    let steps = 80 + rng.index(121);
    let ctx = format!("{} trace {trace} (sats {sats} cap {cap})", kind.name());

    let mut fleet = PolicyFleet::new(kind, sats, cap, ttl);
    let mut oracle = RefFleet::new(kind, sats, cap, ttl);
    let mut now_s = 0u64;

    for step in 0..steps {
        let sat = rng.index(sats) as u32;
        let content = ContentId(rng.index(universe as usize) as u64);
        let roll = rng.index(100);
        let at = format!("{ctx} step {step}");
        if roll < 45 {
            assert_eq!(
                fleet.get(sat, content),
                oracle.get(sat, content),
                "{at}: get"
            );
        } else if roll < 78 {
            // Sizes reach past small capacities so oversize rejection and
            // single-entry caches both occur.
            let size = 1 + rng.index(9) as u64;
            let mut ev_f = Vec::new();
            let mut ev_o = Vec::new();
            assert_eq!(
                fleet.insert_collect(sat, content, size, &mut ev_f),
                oracle.insert_collect(sat, content, size, &mut ev_o),
                "{at}: insert verdict"
            );
            assert_eq!(ev_f, ev_o, "{at}: victim identity/order");
        } else if roll < 85 {
            assert_eq!(
                fleet.remove(sat, content),
                oracle.remove(sat, content),
                "{at}: remove"
            );
        } else if roll < 88 {
            let mut d_f = Vec::new();
            let mut d_o = Vec::new();
            assert_eq!(
                fleet.clear_sat(sat, &mut d_f),
                oracle.clear_sat(sat, &mut d_o),
                "{at}: clear_sat count"
            );
            assert_eq!(d_f, d_o, "{at}: clear_sat drop order");
        } else {
            now_s += 1 + rng.index(10) as u64;
            let t = SimTime::from_secs(now_s);
            let expired = oracle.set_now(t);
            assert_eq!(fleet.set_now(t), expired, "{at}: TTL departures/order");
            assert_eq!(fleet.now(), t, "{at}: clock");
        }

        // Full-state agreement after every operation.
        assert_eq!(fleet.stats(), oracle.stats, "{at}: stats");
        for s in 0..sats as u32 {
            assert_eq!(fleet.len_of(s), oracle.len_of(s), "{at}: len_of({s})");
            assert_eq!(
                fleet.used_bytes_of(s),
                oracle.used_bytes_of(s),
                "{at}: used_bytes_of({s})"
            );
            assert!(fleet.used_bytes_of(s) <= cap, "{at}: over capacity");
        }
        assert_eq!(
            fleet.contains(sat, content),
            oracle.contains(sat, content),
            "{at}: contains"
        );
        // Breadth: every (sat, object) in the universe agrees, not just
        // the pair this step touched.
        for s in 0..sats as u32 {
            for o in 0..universe {
                assert_eq!(
                    fleet.contains(s, ContentId(o)),
                    oracle.contains(s, ContentId(o)),
                    "{at}: contains({s}, {o})"
                );
            }
        }
        // Taxonomy invariants hold at every step.
        let st = fleet.stats();
        assert_eq!(st.gets, st.hits + st.misses, "{at}: gets reconcile");
        assert_eq!(
            st.departures(),
            st.inserts - oracle.len(),
            "{at}: departures reconcile"
        );
    }

    // Fold this trace's coverage into the per-policy aggregate.
    let c = oracle.cov;
    cov.evictions += c.evictions;
    cov.expirations += c.expirations;
    cov.invalidations += c.invalidations;
    cov.hits += c.hits;
    cov.oversize_rejects += c.oversize_rejects;
    cov.clears += c.clears;
    cov.ghost_hits += c.ghost_hits;
    cov.small_promotions += c.small_promotions;
    cov.admission_rejections += c.admission_rejections;
    cov.admission_wins += c.admission_wins;
    cov.protected_promotions += c.protected_promotions;
}

fn run_policy(kind: PolicyKind) -> Coverage {
    let mut cov = Coverage::default();
    for trace in 0..TRACES_PER_POLICY {
        run_trace(kind, trace, &mut cov);
    }
    // The generator must actually exercise the shared machinery.
    assert!(cov.hits > 0, "no hits across {} traces", TRACES_PER_POLICY);
    assert!(cov.evictions > 0, "no evictions");
    assert!(cov.expirations > 0, "no TTL expirations");
    assert!(cov.invalidations > 0, "no invalidations");
    assert!(cov.oversize_rejects > 0, "no oversize rejections");
    assert!(cov.clears > 0, "no duty-cycle clears");
    cov
}

#[test]
fn oracle_pins_lru_ttl() {
    run_policy(PolicyKind::LruTtl);
}

#[test]
fn oracle_pins_sieve() {
    run_policy(PolicyKind::Sieve);
}

#[test]
fn oracle_pins_s3fifo() {
    let cov = run_policy(PolicyKind::S3Fifo);
    assert!(cov.ghost_hits > 0, "no ghost readmissions exercised");
    assert!(
        cov.small_promotions > 0,
        "no small→main promotions exercised"
    );
}

#[test]
fn oracle_pins_tinylfu() {
    let cov = run_policy(PolicyKind::TinyLfu);
    assert!(
        cov.admission_rejections > 0,
        "no admission rejections exercised"
    );
    assert!(cov.admission_wins > 0, "no admission wins exercised");
    assert!(
        cov.protected_promotions > 0,
        "no protected promotions exercised"
    );
}
