//! Micro-benchmarks of the ISL routing substrate: snapshot construction,
//! Dijkstra, hop-bounded BFS — the inner loops of every experiment —
//! nearest-satellite search on a churned snapshot, and freezing a faulted
//! epoch timeline cold vs from a session's kept one.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spacecdn_core::network::LsnNetwork;
use spacecdn_core::{clear_graph_pool, Scenario};
use spacecdn_engine::set_snapshot_pool_override;
use spacecdn_geo::{DetRng, Geodetic, SimDuration, SimTime};
use spacecdn_lsn::{
    bfs_nearest, dijkstra, dijkstra_distances, dijkstra_distances_into, hop_distances,
    hop_distances_into, hop_distances_many, set_routing_cache_override, AccessModel, FaultPlan,
    FaultSchedule, IslEdge, IslGraph, SourceTables,
};
use spacecdn_orbit::shell::shells;
use spacecdn_orbit::{Constellation, SatIndex};
use spacecdn_terra::fiber::FiberModel;

/// Pre-CSR reference: single-source Dijkstra over nested `Vec<Vec<IslEdge>>`
/// adjacency with an `f64` `partial_cmp` heap and per-call output allocs —
/// the baseline `routing_bench` compares against (see that bin for the
/// faithful transcription; this copy keeps the criterion suite
/// self-contained).
fn nested_dijkstra(adjacency: &[Vec<IslEdge>], src: SatIndex) -> Vec<(f64, u32)> {
    use std::cmp::Ordering;
    #[derive(PartialEq)]
    struct Item {
        cost: f64,
        sat: u32,
    }
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .expect("finite")
                .then_with(|| other.sat.cmp(&self.sat))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut out = vec![(f64::INFINITY, u32::MAX); adjacency.len()];
    let mut heap = std::collections::BinaryHeap::new();
    out[src.as_usize()] = (0.0, 0);
    heap.push(Item {
        cost: 0.0,
        sat: src.0,
    });
    while let Some(Item { cost, sat }) = heap.pop() {
        if cost > out[sat as usize].0 {
            continue;
        }
        let hops = out[sat as usize].1;
        for edge in &adjacency[sat as usize] {
            let next = cost + edge.length.0;
            if next < out[edge.to.as_usize()].0 {
                out[edge.to.as_usize()] = (next, hops + 1);
                heap.push(Item {
                    cost: next,
                    sat: edge.to.0,
                });
            }
        }
    }
    out
}

fn bench_routing(c: &mut Criterion) {
    let constellation = Constellation::new(shells::starlink_shell1());
    let graph = IslGraph::build(&constellation, SimTime::EPOCH, &FaultPlan::none());
    let src = constellation.sat_at(10, 5);
    let dst = constellation.sat_at(46, 16);

    c.bench_function("isl_graph_build_shell1", |b| {
        b.iter(|| {
            IslGraph::build(
                black_box(&constellation),
                SimTime::from_secs(137),
                &FaultPlan::none(),
            )
        })
    });

    c.bench_function("dijkstra_point_to_point", |b| {
        b.iter(|| dijkstra(black_box(&graph), src, dst))
    });

    c.bench_function("dijkstra_single_source_all", |b| {
        b.iter(|| dijkstra_distances(black_box(&graph), src))
    });

    // CSR vs the pre-CSR nested data plane, same source, same outputs.
    let nested: Vec<Vec<IslEdge>> = (0..graph.len())
        .map(|i| graph.neighbors(SatIndex(i as u32)).iter().collect())
        .collect();
    c.bench_function("dijkstra_single_source_nested_baseline", |b| {
        b.iter(|| nested_dijkstra(black_box(&nested), src))
    });
    c.bench_function("dijkstra_single_source_into_recycled", |b| {
        let mut buf = Vec::new();
        b.iter(|| dijkstra_distances_into(black_box(&graph), src, &mut buf))
    });

    c.bench_function("bfs_hop_distances_all", |b| {
        b.iter(|| hop_distances(black_box(&graph), src))
    });
    c.bench_function("bfs_hop_distances_into_recycled", |b| {
        let mut buf = Vec::new();
        b.iter(|| hop_distances_into(black_box(&graph), src, &mut buf))
    });

    let batch: Vec<SatIndex> = (0..16).map(|i| SatIndex(i * 97)).collect();
    c.bench_function("bfs_hop_distances_many_16", |b| {
        b.iter(|| hop_distances_many(black_box(&graph), &batch))
    });

    c.bench_function("bfs_nearest_within_10", |b| {
        b.iter(|| bfs_nearest(black_box(&graph), src, 10, |s| s == dst || s == SatIndex(3)))
    });

    // Cached vs uncached full-table lookups: `routing_tables` memoizes per
    // (snapshot, source), so steady-state hits are a map probe + Arc clone
    // vs a full Dijkstra + BFS recomputation.
    c.bench_function("routing_tables_uncached", |b| {
        b.iter(|| SourceTables::compute(black_box(&graph), src))
    });
    c.bench_function("routing_tables_cached", |b| {
        graph.routing_tables(src); // warm the entry once
        b.iter(|| graph.routing_tables(black_box(src)))
    });

    // Spatial-index vs linear nearest-alive queries over a ground grid.
    let queries: Vec<_> = (-60..=60)
        .step_by(30)
        .flat_map(|lat| {
            (-180..180)
                .step_by(45)
                .map(move |lon| Geodetic::ground(lat as f64, lon as f64))
        })
        .collect();
    c.bench_function("nearest_alive_linear_scan", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter_map(|&g| graph.nearest_alive_linear(black_box(g)))
                .count()
        })
    });
    c.bench_function("nearest_alive_spatial_index", |b| {
        set_routing_cache_override(Some(true));
        b.iter(|| {
            queries
                .iter()
                .filter_map(|&g| graph.nearest_alive(black_box(g)))
                .count()
        });
        set_routing_cache_override(None);
    });
}

/// Nearest-satellite queries on a Shell 1 snapshot carried through four
/// 5 s delta steps under 5 % satellite outages (mean 10 s): its spatial
/// index holds drift-inflated cell bounds and a singleton cell per
/// returning satellite, as the graphs of a dense churning timeline do.
fn bench_faulted_nearest(c: &mut Criterion) {
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(42, "bench/routing/nearest-churn");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_outages(
        constellation.len(),
        0.05,
        SimDuration::from_secs(20),
        SimDuration::from_secs(10),
        &mut rng,
    );
    let mut graph = IslGraph::build(
        &constellation,
        SimTime::EPOCH,
        &schedule.plan_at(SimTime::EPOCH),
    );
    let fresh_cells = graph.spatial_index().cell_count();
    for k in 1..=4 {
        let t = SimTime::from_secs(5 * k);
        graph = graph.apply_delta(&constellation, t, &schedule.plan_at(t)).0;
    }
    assert!(
        graph.spatial_index().cell_count() > fresh_cells,
        "no satellite returned through the delta path"
    );
    let queries: Vec<_> = (-60..=60)
        .step_by(30)
        .flat_map(|lat| {
            (-180..180)
                .step_by(45)
                .map(move |lon| Geodetic::ground(lat as f64, lon as f64))
        })
        .collect();
    set_routing_cache_override(Some(true));
    c.bench_function("nearest_alive_spatial_index_churned", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter_map(|&g| graph.nearest_alive(black_box(g)))
                .count()
        })
    });
    set_routing_cache_override(None);
}

/// A Shell 1 session under a churning fault timeline: 5 % of satellites
/// get one outage (mean 60 s) and 2 % of ISLs flap 40 s up / 15 s down.
fn churning_shell1(horizon: SimDuration) -> Scenario {
    let net = LsnNetwork::new(
        Constellation::new(shells::starlink_shell1()),
        Vec::new(),
        AccessModel::default(),
        FiberModel::default(),
    );
    let mut rng = DetRng::new(42, "bench/routing/churn");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_outages(
        net.constellation().len(),
        0.05,
        horizon,
        SimDuration::from_secs(60),
        &mut rng,
    );
    let pristine = IslGraph::build(net.constellation(), SimTime::EPOCH, &FaultPlan::none());
    schedule.random_isl_flaps(
        &pristine,
        0.02,
        SimDuration::from_secs(40),
        SimDuration::from_secs(15),
        &mut rng,
    );
    Scenario::builder(net).schedule(schedule).build()
}

/// Freezing a faulted 60 × 5 s Shell 1 timeline. Cold: the snapshot pool
/// (and with it the kept timeline) is off, so every epoch is built or
/// patched. Warm: the same session re-freezes the timeline it kept from
/// its last freeze, so every epoch is reused as is.
fn bench_timeline_freeze(c: &mut Criterion) {
    let (epochs, step) = (60, SimDuration::from_secs(5));
    let mut sc = churning_shell1(step.mul(epochs as u64));
    let mut group = c.benchmark_group("freeze_epochs_shell1_60x5s_faulted");
    group.sample_size(10);

    set_snapshot_pool_override(Some(false));
    group.bench_function("cold", |b| {
        b.iter(|| sc.freeze_epochs_from(SimTime::EPOCH, epochs, step))
    });

    set_snapshot_pool_override(None);
    clear_graph_pool();
    sc.freeze_epochs_from(SimTime::EPOCH, epochs, step);
    group.bench_function("warm", |b| {
        b.iter(|| sc.freeze_epochs_from(SimTime::EPOCH, epochs, step))
    });
    group.finish();
    clear_graph_pool();
}

criterion_group!(
    benches,
    bench_routing,
    bench_faulted_nearest,
    bench_timeline_freeze
);
criterion_main!(benches);
