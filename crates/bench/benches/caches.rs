//! Micro-benchmarks of the cache fleets under Zipf-shaped churn: one
//! steady-state `PolicyFleet` get/insert bench per policy.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spacecdn_content::catalog::ContentId;
use spacecdn_content::policy::{PolicyFleet, PolicyKind};
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_geo::{DetRng, SimDuration};

/// Replay the op mix against satellite slot 0. The clock never advances,
/// so no entry expires and every departure is a capacity eviction.
fn churn(fleet: &mut PolicyFleet, ops: &[(ContentId, u64, bool)], evicted: &mut Vec<ContentId>) {
    for &(id, size, is_insert) in ops {
        if is_insert {
            evicted.clear();
            fleet.insert_collect(0, id, size, evicted);
        } else {
            fleet.get(0, id);
        }
    }
}

fn bench_caches(c: &mut Criterion) {
    // Pre-generate a deterministic Zipf-ish op mix.
    let zipf = ZipfSampler::new(10_000, 0.9);
    let mut rng = DetRng::new(7, "cache-bench");
    let ops: Vec<(ContentId, u64, bool)> = (0..10_000)
        .map(|_| {
            let id = ContentId(zipf.sample(&mut rng) as u64);
            (id, 50_000 + rng.index(500_000) as u64, rng.chance(0.4))
        })
        .collect();

    for kind in PolicyKind::ALL {
        // Warm once outside the timed loop so every iteration runs
        // against a full cache: hits, misses and evictions at their
        // steady-state mix rather than a cold fill.
        let mut fleet = PolicyFleet::new(kind, 1, 200_000_000, SimDuration::from_secs(3600));
        let mut evicted = Vec::new();
        churn(&mut fleet, &ops, &mut evicted);
        c.bench_function(&format!("{}_10k_ops_zipf", kind.name()), |b| {
            b.iter(|| {
                churn(black_box(&mut fleet), &ops, &mut evicted);
                fleet.len()
            })
        });
    }
}

criterion_group!(benches, bench_caches);
criterion_main!(benches);
