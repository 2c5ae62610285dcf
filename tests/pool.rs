//! Coverage for the cross-campaign snapshot pool as wired into the
//! network layer: FIFO eviction at the fixed capacity, the in-process
//! kill switch, and fault-digest keying (no aliasing between distinct
//! plans, full sharing between equal ones). Also the timeline a
//! `Scenario` keeps from its last freeze: a re-freeze reuses it, a
//! changed plan misses it, and the kill switch turns it off.
//!
//! The pool is process-global, so every test serialises behind one mutex
//! and clears it on entry. The `SPACECDN_NO_SNAPSHOT_POOL` environment
//! path is latched in a `OnceLock` and lives in its own binary
//! (`tests/pool_env.rs`).

use spacecdn_suite::core::network::LsnNetwork;
use spacecdn_suite::core::{
    clear_graph_pool, delta_stats, graph_pool_stats, set_delta_override, Scenario,
};
use spacecdn_suite::engine::set_snapshot_pool_override;
use spacecdn_suite::geo::{DetRng, SimDuration, SimTime};
use spacecdn_suite::lsn::{AccessModel, FaultPlan, FaultSchedule, IslGraph};
use spacecdn_suite::orbit::shell::ShellConfig;
use spacecdn_suite::orbit::{Constellation, SatIndex};
use spacecdn_suite::terra::fiber::FiberModel;
use std::sync::{Arc, Mutex};

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// The network layer's pool capacity (`GRAPH_POOL_CAPACITY` in
/// `core::network`); the eviction test pins it.
const CAPACITY: usize = 32;

fn small_net() -> LsnNetwork {
    let shell = ShellConfig {
        altitude_km: 550.0,
        inclination_deg: 53.0,
        plane_count: 5,
        sats_per_plane: 5,
        phase_factor: 1,
    };
    LsnNetwork::new(
        Constellation::new(shell),
        Vec::new(),
        AccessModel::default(),
        FiberModel::default(),
    )
}

/// `(hits, misses)` deltas of `f` against the global pool counters.
fn pool_delta(f: impl FnOnce()) -> (u64, u64) {
    let (h0, m0, _) = graph_pool_stats();
    f();
    let (h1, m1, _) = graph_pool_stats();
    (h1 - h0, m1 - m0)
}

#[test]
fn fifo_eviction_at_capacity() {
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(true));
    clear_graph_pool();
    let net = small_net();
    let none = FaultPlan::none();

    // Fill past capacity: every epoch is a distinct key, so all miss.
    let (hits, misses) = pool_delta(|| {
        for epoch in 0..CAPACITY as u64 + 8 {
            net.snapshot(SimTime::from_secs(epoch), &none);
        }
    });
    assert_eq!(hits, 0);
    assert_eq!(misses, CAPACITY as u64 + 8);
    let (_, _, len) = graph_pool_stats();
    assert_eq!(len, CAPACITY, "pool must cap at GRAPH_POOL_CAPACITY");

    // The newest entries survive; the oldest 8 were evicted FIFO.
    let (hits, misses) = pool_delta(|| {
        net.snapshot(SimTime::from_secs(CAPACITY as u64 + 7), &none);
        net.snapshot(SimTime::from_secs(8), &none); // oldest survivor
    });
    assert_eq!((hits, misses), (2, 0), "recent epochs must still be pooled");
    let (hits, misses) = pool_delta(|| {
        net.snapshot(SimTime::from_secs(0), &none);
        net.snapshot(SimTime::from_secs(7), &none);
    });
    assert_eq!((hits, misses), (0, 2), "evicted epochs must rebuild");

    set_snapshot_pool_override(None);
    clear_graph_pool();
}

#[test]
fn override_bypasses_pool_entirely() {
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    clear_graph_pool();
    let net = small_net();
    let none = FaultPlan::none();

    let (hits, misses) = pool_delta(|| {
        for _ in 0..3 {
            net.snapshot(SimTime::from_secs(5), &none);
        }
    });
    assert_eq!(
        (hits, misses),
        (0, 0),
        "disabled pool must neither hit nor record misses"
    );
    let (_, _, len) = graph_pool_stats();
    assert_eq!(len, 0, "disabled pool must retain nothing");

    set_snapshot_pool_override(None);
    clear_graph_pool();
}

#[test]
fn fault_digests_key_the_pool_without_aliasing() {
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(true));
    clear_graph_pool();
    let net = small_net();
    let t = SimTime::from_secs(3);

    // Distinct plans at the same epoch are distinct keys.
    let mut sat_down = FaultPlan::none();
    sat_down.fail_sat(SatIndex(4));
    let mut gsl_down = FaultPlan::none();
    gsl_down.fail_gsl(SatIndex(4));
    let mut link_down = FaultPlan::none();
    link_down.fail_link(SatIndex(4), SatIndex(5));
    let (hits, misses) = pool_delta(|| {
        net.snapshot(t, &FaultPlan::none());
        net.snapshot(t, &sat_down);
        net.snapshot(t, &gsl_down);
        net.snapshot(t, &link_down);
    });
    assert_eq!(
        (hits, misses),
        (0, 4),
        "distinct fault plans must not alias to one pooled snapshot"
    );

    // The same membership assembled in a different order is the same key.
    let mut forward = FaultPlan::none();
    let mut backward = FaultPlan::none();
    for i in 0..6u32 {
        forward.fail_sat(SatIndex(i));
        backward.fail_sat(SatIndex(5 - i));
        forward.fail_link(SatIndex(i), SatIndex(i + 7));
        backward.fail_link(SatIndex(5 - i + 7), SatIndex(5 - i));
    }
    let (hits, misses) = pool_delta(|| {
        net.snapshot(t, &forward);
        net.snapshot(t, &backward);
    });
    assert_eq!(
        (hits, misses),
        (1, 1),
        "identical membership must share one pooled snapshot"
    );

    // A schedule lowering to the same members also shares the entry.
    let mut schedule = FaultSchedule::none();
    for i in 0..6u32 {
        schedule.sat_outage(SatIndex(i), SimTime::EPOCH, None);
        schedule.isl_flap(
            SatIndex(i),
            SatIndex(i + 7),
            SimTime::EPOCH,
            SimDuration::from_secs(0),
            SimDuration::from_secs(1),
        );
    }
    let (hits, misses) = pool_delta(|| {
        net.snapshot(t, &schedule.plan_at(t));
    });
    assert_eq!(
        (hits, misses),
        (1, 0),
        "a lowered schedule with equal membership must hit the pooled entry"
    );

    set_snapshot_pool_override(None);
    clear_graph_pool();
}

#[test]
fn patched_and_fresh_snapshots_never_alias_different_bytes() {
    // Delta advancement inserts *patched* graphs into the pool under the
    // same `(config, epoch, fault digest)` key a fresh build would use. A
    // later cold lookup of that key therefore serves the patched bytes —
    // which must be indistinguishable, to the bit, from building from
    // scratch.
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(true));
    set_delta_override(Some(true));
    clear_graph_pool();
    let net = small_net();

    let t0 = SimTime::from_secs(11);
    let t1 = SimTime::from_secs(16);
    let mut plan = FaultPlan::none();
    plan.fail_sat(SatIndex(3));
    plan.fail_gsl(SatIndex(9));
    plan.fail_link(SatIndex(12), SatIndex(13));

    // Seed an epoch, then advance through the delta path: the second
    // snapshot is a patch of the first, pooled under t1's key.
    let prev = net.snapshot(t0, &FaultPlan::none()).graph_handle();
    let patched = net.snapshot_from(t1, &plan, Some(&prev)).graph_handle();

    // A cold lookup of the same key must hit the pooled (patched) entry…
    let (hits, misses) = pool_delta(|| {
        let pooled = net.snapshot(t1, &plan).graph_handle();
        assert!(
            std::ptr::eq(pooled.as_ref(), patched.as_ref()),
            "lookup must serve the pooled patched snapshot"
        );
    });
    assert_eq!((hits, misses), (1, 0));

    // …and the patched bytes must equal an independent fresh build's.
    let fresh = IslGraph::build(net.constellation(), t1, &plan);
    assert_eq!(patched.time(), fresh.time());
    let (po, pn, pl) = patched.csr();
    let (fo, fn_, fl) = fresh.csr();
    assert_eq!(po, fo, "patched CSR offsets diverge from fresh build");
    assert_eq!(pn, fn_, "patched CSR neighbours diverge from fresh build");
    for (k, (a, b)) in pl.iter().zip(fl).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "length bits diverge at edge {k}");
    }
    for i in 0..patched.len() as u32 {
        let s = SatIndex(i);
        assert_eq!(patched.is_alive(s), fresh.is_alive(s), "alive bit {i}");
        assert_eq!(patched.gsl_alive(s), fresh.gsl_alive(s), "servable bit {i}");
        let (a, b) = (patched.position(s), fresh.position(s));
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "pos x bits {i}");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "pos y bits {i}");
        assert_eq!(a.z.to_bits(), b.z.to_bits(), "pos z bits {i}");
    }

    set_delta_override(None);
    set_snapshot_pool_override(None);
    clear_graph_pool();
}

/// A session on [`small_net`] under churning satellite outages and ISL
/// flaps, so consecutive frozen epochs carry different fault plans.
fn churning_scenario() -> Scenario {
    let net = small_net();
    let mut rng = DetRng::new(31, "pool/timeline");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_outages(
        net.constellation().len(),
        0.2,
        SimDuration::from_secs(60),
        SimDuration::from_secs(8),
        &mut rng,
    );
    let pristine = net
        .snapshot(SimTime::EPOCH, &FaultPlan::none())
        .graph_handle();
    schedule.random_isl_flaps(
        &pristine,
        0.2,
        SimDuration::from_secs(7),
        SimDuration::from_secs(4),
        &mut rng,
    );
    Scenario::builder(net).schedule(schedule).build()
}

const TIMELINE_EPOCHS: usize = 8;

fn timeline_start() -> SimTime {
    SimTime::from_secs(10)
}

fn timeline_step() -> SimDuration {
    SimDuration::from_secs(5)
}

fn freeze(sc: &mut Scenario) -> Vec<Arc<IslGraph>> {
    sc.freeze_epochs_from(timeline_start(), TIMELINE_EPOCHS, timeline_step())
}

#[test]
fn refreeze_of_the_same_timeline_reuses_every_graph() {
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(true));
    clear_graph_pool();
    // Under churn every epoch has its own plan; on a pristine fleet every
    // epoch shares one plan digest, so only the instant tells them apart.
    let churning = churning_scenario();
    let pristine = Scenario::builder(small_net()).build();
    for (name, mut sc) in [("churning", churning), ("pristine", pristine)] {
        let first = freeze(&mut sc);
        let stats0 = delta_stats();
        let mut second = Vec::new();
        let (hits, misses) = pool_delta(|| second = freeze(&mut sc));
        assert_eq!(second.len(), first.len());
        for (e, (a, b)) in first.iter().zip(&second).enumerate() {
            assert!(Arc::ptr_eq(a, b), "{name}: epoch {e} was not reused");
            assert_eq!(
                b.time(),
                timeline_start() + timeline_step().mul(e as u64),
                "{name}: epoch {e} reused another instant's graph"
            );
        }
        assert_eq!(
            (hits, misses),
            (0, 0),
            "{name}: a re-freeze must not touch the pool"
        );
        assert_eq!(
            delta_stats(),
            stats0,
            "{name}: a re-freeze must neither build nor patch"
        );
        assert_eq!(
            sc.epoch(),
            timeline_start() + timeline_step().mul(TIMELINE_EPOCHS as u64 - 1)
        );
    }

    set_snapshot_pool_override(None);
    clear_graph_pool();
}

#[test]
fn schedule_mutation_rebuilds_only_the_changed_epoch() {
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(true));
    clear_graph_pool();
    let mut sc = churning_scenario();
    let first = freeze(&mut sc);

    // Knock out one satellite alive at epoch `k`, for that instant only
    // (outage windows are from-inclusive, until-exclusive).
    let k = 3;
    let t_k = timeline_start() + timeline_step().mul(k as u64);
    let victim = (0..first[k].len() as u32)
        .map(SatIndex)
        .find(|&s| first[k].is_alive(s))
        .expect("some satellite is alive");
    sc.mutate_schedule(|schedule| {
        schedule.sat_outage(victim, t_k, Some(t_k + SimDuration::from_secs(1)));
    });

    let stats0 = delta_stats();
    let mut second = Vec::new();
    let (hits, misses) = pool_delta(|| second = freeze(&mut sc));
    let stats1 = delta_stats();
    let built =
        (stats1.full_builds - stats0.full_builds) + (stats1.delta_advances - stats0.delta_advances);
    assert_eq!(built, 1, "exactly the changed epoch is rebuilt");
    assert_eq!(
        (hits, misses),
        (0, 1),
        "only the changed epoch reaches the pool"
    );
    for (e, (a, b)) in first.iter().zip(&second).enumerate() {
        if e == k {
            assert!(!Arc::ptr_eq(a, b), "the changed epoch must not be reused");
        } else {
            assert!(Arc::ptr_eq(a, b), "unchanged epoch {e} was not reused");
        }
    }
    assert!(
        !second[k].is_alive(victim),
        "the mutation must reach epoch {k}"
    );

    // The rebuilt graph equals an independent snapshot of that instant
    // and plan (pool off, so nothing is shared with the session).
    let plan = sc.schedule().plan_at(t_k);
    set_snapshot_pool_override(Some(false));
    let fresh = small_net().snapshot(t_k, &plan).graph_handle();
    set_snapshot_pool_override(Some(true));
    assert_eq!(second[k].csr(), fresh.csr());
    for i in 0..fresh.len() as u32 {
        let s = SatIndex(i);
        assert_eq!(second[k].is_alive(s), fresh.is_alive(s), "alive bit {i}");
        assert_eq!(
            second[k].gsl_alive(s),
            fresh.gsl_alive(s),
            "servable bit {i}"
        );
    }

    set_snapshot_pool_override(None);
    clear_graph_pool();
}

#[test]
fn disabled_pool_retains_no_timeline() {
    let _guard = POOL_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    clear_graph_pool();
    let mut sc = churning_scenario();
    let first = freeze(&mut sc);
    let second = freeze(&mut sc);
    for (e, b) in second.iter().enumerate() {
        assert!(
            first.iter().all(|a| !Arc::ptr_eq(a, b)),
            "epoch {e} shares a graph with the previous freeze"
        );
    }
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.csr(), b.csr(), "rebuilt graphs must match");
    }
    let (_, _, len) = graph_pool_stats();
    assert_eq!(len, 0, "disabled pool must retain nothing");

    set_snapshot_pool_override(None);
    clear_graph_pool();
}
