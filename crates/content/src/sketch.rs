//! Count-min frequency sketch for TinyLFU admission.
//!
//! A 4-row count-min sketch with 4-bit saturating counters estimates how
//! often a key has been requested without storing per-key state — the
//! admission filter of the W-TinyLFU order in `tinylfu.rs` compares the sketch
//! estimate of a window candidate against the main-cache victim it would
//! displace. Counters periodically halve (the TinyLFU "reset") so the
//! sketch tracks *recent* popularity: once `sample_size` increments have
//! been observed, every counter is halved (floor division) and the sample
//! counter restarts from half, aging out stale popularity instead of
//! accumulating it forever.
//!
//! Hashing is a deterministic per-row multiply-xor mix over fixed odd
//! constants — no `RandomState`, because the traffic engine's determinism
//! contract requires identical admission decisions on every run and at any
//! thread count. The exact spec below (row count, counter width, hash mix,
//! reset rule) is mirrored naively by the reference oracle in
//! `tests/policy_oracle.rs`, so any drift breaks the differential suite
//! rather than silently changing admission behaviour.

/// Rows in the sketch. Four is the classic TinyLFU depth: error ~e/width
/// per row, min across four rows.
const ROWS: usize = 4;

/// Per-row seed mixed into the key before the finalizer, so the rows are
/// independent hash functions.
const SEEDS: [u64; ROWS] = [
    0x71d6_7fff_eda6_0001,
    0xfff7_eee0_0000_0003,
    0x8ebf_d028_c43a_0005,
    0x355c_ff4d_7e4f_0007,
];

/// Counter ceiling: 4-bit counters saturate at 15, which is plenty to rank
/// recent popularity between a candidate and a victim.
pub const COUNTER_MAX: u8 = 15;

/// A deterministic count-min sketch with saturating 4-bit counters and
/// periodic halving.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    /// Row-major counters, `ROWS * width` of them, each `0..=COUNTER_MAX`.
    counters: Vec<u8>,
    /// Power-of-two row width.
    width: usize,
    /// `width - 1`, the index mask.
    mask: u64,
    /// Increments observed since the last reset.
    additions: u64,
    /// Increment count that triggers a halving reset.
    sample_size: u64,
    /// Resets performed (diagnostics and proptests).
    resets: u64,
}

impl FrequencySketch {
    /// A sketch sized for roughly `entries` tracked keys: the row width is
    /// the next power of two at or above `entries` (min 64) and the reset
    /// sample is `10 * width` increments.
    pub fn with_entries(entries: usize) -> Self {
        let width = entries.next_power_of_two().max(64);
        FrequencySketch {
            counters: vec![0; ROWS * width],
            width,
            mask: (width - 1) as u64,
            additions: 0,
            sample_size: 10 * width as u64,
            resets: 0,
        }
    }

    /// Per-row slot for `key` (deterministic multiply-xor finalizer).
    #[inline]
    fn slot(&self, key: u64, row: usize) -> usize {
        let mut h = key.wrapping_add(SEEDS[row]);
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
        row * self.width + (h & self.mask) as usize
    }

    /// Record one occurrence of `key`, halving all counters once
    /// `sample_size` increments have accumulated.
    pub fn increment(&mut self, key: u64) {
        for row in 0..ROWS {
            let s = self.slot(key, row);
            if self.counters[s] < COUNTER_MAX {
                self.counters[s] += 1;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_size {
            self.reset();
        }
    }

    /// Estimated occurrences of `key` since (roughly) the last reset: the
    /// minimum across rows, so collisions can only inflate it — a count-min
    /// sketch never undercounts within a sample window.
    pub fn estimate(&self, key: u64) -> u8 {
        let mut est = COUNTER_MAX;
        for row in 0..ROWS {
            est = est.min(self.counters[self.slot(key, row)]);
        }
        est
    }

    /// Halve every counter (floor) and restart the sample from half, aging
    /// out stale popularity.
    fn reset(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
        self.additions /= 2;
        self.resets += 1;
    }

    /// Increments observed since the last reset.
    pub fn additions(&self) -> u64 {
        self.additions
    }

    /// Increments that trigger a halving reset.
    pub fn sample_size(&self) -> u64 {
        self.sample_size
    }

    /// Halving resets performed so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Row width (power of two).
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn width_is_power_of_two_with_floor() {
        assert_eq!(FrequencySketch::with_entries(0).width(), 64);
        assert_eq!(FrequencySketch::with_entries(65).width(), 128);
        assert_eq!(FrequencySketch::with_entries(4096).width(), 4096);
    }

    #[test]
    fn estimates_track_and_saturate() {
        let mut s = FrequencySketch::with_entries(64);
        assert_eq!(s.estimate(7), 0);
        for _ in 0..3 {
            s.increment(7);
        }
        assert!(s.estimate(7) >= 3, "never undercounts");
        for _ in 0..100 {
            s.increment(7);
        }
        assert_eq!(s.estimate(7), COUNTER_MAX, "saturates at 15");
    }

    #[test]
    fn sample_window_triggers_reset() {
        let mut s = FrequencySketch::with_entries(64);
        let sample = s.sample_size();
        for k in 0..sample {
            s.increment(k);
        }
        assert_eq!(s.resets(), 1, "reset fires exactly at the sample size");
        assert_eq!(s.additions(), sample / 2, "sample restarts from half");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Count-min property: within a sample window (no reset) the
        /// estimate never undercounts the true count, counter saturation
        /// aside.
        #[test]
        fn never_undercounts_true_frequency(
            keys in prop::collection::vec(0..32u64, 1..300),
        ) {
            let mut s = FrequencySketch::with_entries(64);
            let mut truth = std::collections::HashMap::new();
            for &k in &keys {
                s.increment(k);
                *truth.entry(k).or_insert(0u64) += 1;
                prop_assert_eq!(s.resets(), 0, "trace fits one sample window");
            }
            for (&k, &n) in &truth {
                let capped = n.min(u64::from(COUNTER_MAX)) as u8;
                prop_assert!(
                    s.estimate(k) >= capped,
                    "key {} estimated {} < true {}",
                    k, s.estimate(k), capped
                );
            }
        }

        /// Halving commutes with the min over rows (floor of a min is the
        /// min of floors), so a reset maps every estimate to exactly
        /// `estimate >> 1` — relative order is preserved up to the 1-bit
        /// floor loss.
        #[test]
        fn halving_preserves_relative_order(
            keys in prop::collection::vec(0..48u64, 1..600),
        ) {
            let mut s = FrequencySketch::with_entries(64);
            for &k in &keys {
                s.increment(k);
            }
            let before: Vec<u8> = (0..48).map(|k| s.estimate(k)).collect();
            // Halve directly (same-module access): driving the sample window
            // shut with filler keys would collide into tracked slots and
            // blur the exactness this test pins.
            s.reset();
            for k in 0..48u64 {
                prop_assert_eq!(
                    s.estimate(k),
                    before[k as usize] >> 1,
                    "estimate after reset is exactly the floored half"
                );
            }
            // Exact halving implies order preservation within error bounds:
            // any strict order of at least 2x survives the floor.
            for a in 0..48usize {
                for b in 0..48usize {
                    if before[a] >= before[b].saturating_mul(2) && before[a] > 1 {
                        prop_assert!(s.estimate(a as u64) >= s.estimate(b as u64));
                    }
                }
            }
        }
    }
}
