//! Decision digests pinned for the default seed. A change that alters any
//! simulated decision of the sweep or churn workload changes these; a
//! simulator-only change (speed, memory, structure) must not.

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 42;

/// Per-call decision digests of one repetition at [`DEFAULT_SEED`].
pub fn digests(workload: &str, seed: u64) -> Option<Vec<u64>> {
    if seed != DEFAULT_SEED {
        return None;
    }
    match workload {
        "constellation-sweep" => Some(vec![
            0xf2e2_a40a_5b8a_39ed,
            0xa5f4_a620_9531_4465,
            0x3e43_3fb4_1310_27ad,
        ]),
        "fault-churn" => Some(vec![0xa5c5_117a_8d16_c59a]),
        _ => None,
    }
}
