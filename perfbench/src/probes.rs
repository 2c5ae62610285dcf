//! Layer replays at a workload's parameters, run after the traced
//! window: the arrival generator (`core::traffic::ArrivalStream` over
//! `content::popularity::ZipfSampler`) and a steady-state
//! `content::policy::PolicyFleet`. They time one layer's primitive in
//! isolation, which a span around a whole engine call cannot.

use spacecdn_content::catalog::{Catalog, ContentId};
use spacecdn_content::policy::{PolicyFleet, PolicyKind};
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_core::traffic::{ArrivalStream, TrafficSource};
use spacecdn_des::stream::EventStream;
use spacecdn_geo::{DetRng, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Operations of the fleet warm-up, and gets the fleet replay times.
const FLEET_OPS: usize = 400_000;
/// Zipf draws split into held and absent keys at a time.
const CHUNK: usize = 512;
/// Upper bound on the fleet replay's draws.
const MAX_DRAWS: usize = 16 * FLEET_OPS;

/// Shard 0's popularity ranks, content ids and sizes, derived exactly as
/// the engine derives them from the seed.
fn shard0(
    seed: u64,
    catalog_size: usize,
    streams: usize,
) -> (Vec<usize>, Vec<ContentId>, Vec<u64>) {
    let catalog = Catalog::generate(
        catalog_size,
        &[],
        0.0,
        &mut DetRng::new(seed, "traffic/catalog"),
    );
    let mut by_rank: Vec<ContentId> = catalog.objects().iter().map(|o| o.id).collect();
    DetRng::new(seed, "traffic/ranks").shuffle(&mut by_rank);
    let ranks: Vec<usize> = (0..catalog_size)
        .filter(|&r| (by_rank[r].0 as usize).is_multiple_of(streams))
        .collect();
    let ids: Vec<ContentId> = ranks.iter().map(|&r| by_rank[r]).collect();
    let sizes = ids
        .iter()
        .map(|&id| catalog.get(id).expect("catalog id").size_bytes)
        .collect();
    (ranks, ids, sizes)
}

/// Mean nanoseconds per `ArrivalStream::next_event` for shard 0.
pub fn arrival_ns(
    seed: u64,
    streams: usize,
    catalog: usize,
    alpha: f64,
    sources: &[TrafficSource],
    horizon: SimTime,
    quota: u64,
) -> f64 {
    let (ranks, _, _) = shard0(seed, catalog, streams);
    let sampler = ZipfSampler::over_ranks(&ranks, alpha);
    let cdf: Vec<u64> = sources
        .iter()
        .scan(0u64, |acc, s| {
            *acc += u64::from(s.weight);
            Some(*acc)
        })
        .collect();
    let mut stream =
        ArrivalStream::starting_at(seed, 0, &cdf, &sampler, SimTime::EPOCH, horizon, quota);
    let t0 = Instant::now();
    let mut n = 0u64;
    while let Some(ev) = stream.next_event() {
        black_box(ev);
        n += 1;
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Parameters of the policy-fleet replay.
pub struct FleetProbe {
    /// Eviction/admission policy.
    pub policy: PolicyKind,
    /// Satellite slots in the fleet.
    pub sats: usize,
    /// Distinct slots the replay fills (the engine fills only the
    /// overhead satellites of its sources).
    pub hot_sats: usize,
    /// Capacity per slot (one stream's share).
    pub bytes_per_sat: u64,
    /// Workload seed.
    pub seed: u64,
    /// Catalog size.
    pub catalog: usize,
    /// Zipf exponent.
    pub alpha: f64,
    /// Catalog shards.
    pub streams: usize,
}

/// Mean nanoseconds per `get` and per `insert_collect` on a fleet warmed
/// to steady state by pull-through, timed on the operations the engine
/// performs: `get` only on a key the fleet holds (the engine's holder
/// index screens the rest), `insert_collect` only on an absent key (an
/// origin miss). Each chunk of Zipf draws is split by `contains` into
/// held keys, timed as gets, and distinct absent keys, timed as inserts,
/// so the fleet stays in the pull-through steady state.
pub fn fleet_ns(p: &FleetProbe) -> (f64, f64) {
    let (ranks, ids, sizes) = shard0(p.seed, p.catalog, p.streams);
    let sampler = ZipfSampler::over_ranks(&ranks, p.alpha);
    let mut rng = DetRng::new(p.seed, "perfbench/fleet");
    let hot: Vec<u32> = (0..p.hot_sats.max(1))
        .map(|k| ((k as u64 * 2_654_435_761) % p.sats as u64) as u32)
        .collect();
    let draw =
        |rng: &mut DetRng| -> (u32, usize) { (hot[rng.index(hot.len())], sampler.sample(rng)) };
    let mut fleet = PolicyFleet::new(
        p.policy,
        p.sats,
        p.bytes_per_sat,
        SimDuration::from_mins(30),
    );
    fleet.set_now(SimTime::from_secs(1));
    let mut evicted = Vec::new();
    for _ in 0..FLEET_OPS {
        let (sat, i) = draw(&mut rng);
        if !fleet.get(sat, ids[i]) {
            fleet.insert_collect(sat, ids[i], sizes[i], &mut evicted);
            evicted.clear();
        }
    }

    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u128, 0usize, 0u128, 0usize);
    let (mut held, mut absent) = (Vec::new(), Vec::new());
    let mut hits = 0u64;
    let mut draws = 0usize;
    while (gets < FLEET_OPS || inserts < FLEET_OPS / 8) && draws < MAX_DRAWS {
        held.clear();
        absent.clear();
        for _ in 0..CHUNK {
            let (sat, i) = draw(&mut rng);
            if fleet.contains(sat, ids[i]) {
                held.push((sat, i));
            } else if !absent.contains(&(sat, i)) {
                absent.push((sat, i));
            }
        }
        draws += CHUNK;
        let t0 = Instant::now();
        for &(sat, i) in &held {
            hits += u64::from(fleet.get(sat, ids[i]));
        }
        get_ns += t0.elapsed().as_nanos();
        gets += held.len();
        let t0 = Instant::now();
        for &(sat, i) in &absent {
            fleet.insert_collect(sat, ids[i], sizes[i], &mut evicted);
            evicted.clear();
        }
        insert_ns += t0.elapsed().as_nanos();
        inserts += absent.len();
    }
    black_box((hits, fleet.len()));
    println!("fleet probe: {gets} gets on held keys, {inserts} inserts of absent keys over {draws} draws");
    (
        get_ns as f64 / gets.max(1) as f64,
        insert_ns as f64 / inserts.max(1) as f64,
    )
}
