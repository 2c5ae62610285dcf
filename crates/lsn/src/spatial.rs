//! Lat/lon grid spatial index over snapshot satellite positions.
//!
//! `nearest_alive` used to scan all 1584 satellites per call; campaigns
//! call it for every (city, epoch) pair and every retrieval trial. This
//! index buckets alive satellites into fixed lat/lon cells at build time
//! and answers nearest-satellite queries by scanning only the cells whose
//! *conservative* distance lower bound can beat the best candidate found
//! so far.
//!
//! The result is exactly the linear scan's answer — including its
//! tie-break (lowest satellite index wins at equal distance) — because
//! candidate cells are pruned with a provable lower bound and surviving
//! members are compared with the same exact `(distance, index)` ordering
//! the scan uses. The bound per cell: members lie inside a cone around
//! the cell's mean direction `u` with angular radius `rho`, at radius
//! `r ∈ [r_min, r_max]` from Earth's centre. For a query point at radius
//! `gn` and angle `alpha` from `u`, every member sits at central angle
//! `theta ≥ theta_min = max(0, alpha - rho)`, so
//! `d² = gn² + r² - 2·gn·r·cos(theta)` is bounded below by taking `r_min`
//! in the quadratic term and the endpoint of `[r_min, r_max]` that
//! minimizes the cross term (each term minimized independently — the sum
//! of minima never exceeds the true minimum). A 1 m slack absorbs
//! floating-point rounding in the bound itself.

use spacecdn_geo::{Ecef, Km};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::LazyCounter;
use std::sync::Arc;

/// Query counters. Stable: `nearest` is a pure function of (snapshot,
/// query point) and campaigns issue a deterministic query sequence, so
/// both the query count and the per-query scan/prune split are identical
/// at any thread count.
static SPATIAL_QUERIES: LazyCounter = LazyCounter::stable("lsn.spatial.queries");
static SPATIAL_CELLS_SCANNED: LazyCounter = LazyCounter::stable("lsn.spatial.cells_scanned");
static SPATIAL_CELLS_PRUNED: LazyCounter = LazyCounter::stable("lsn.spatial.cells_pruned");

/// Cell granularity in degrees. 15° keeps the non-empty cell count near
/// 200 for Shell 1 (so the per-query bound pass is ~8× cheaper than the
/// full scan) while leaving several satellites per cell to amortize it.
const CELL_DEG: f64 = 15.0;
/// Slack subtracted from each cell's distance lower bound, in km, to
/// absorb floating-point rounding. 1 m is ~10⁴ × the worst-case error at
/// these magnitudes and costs no measurable pruning power.
const BOUND_SLACK_KM: f64 = 1e-3;

/// Accumulated drift (km of bound inflation) beyond which
/// [`SpatialIndex::advanced`] refuses to patch and demands a full rebuild.
/// At Shell 1 altitude satellites move ~8.1 km/s in ECEF, so at 5 s epoch
/// steps this re-tightens the bounds roughly every ten steps, keeping the
/// inflated cones within ~3.5° of the freshly built ones — pruning stays
/// effective while the rebuild cost is amortized ~10×.
const REBUILD_DRIFT_KM: f64 = 400.0;

#[derive(Debug, Clone)]
struct Cell {
    /// Unit mean direction of the members.
    unit: [f64; 3],
    /// Cosine/sine of the member cone's angular radius around `unit`,
    /// precomputed so query-time bounds need no trigonometry (`acos` per
    /// cell would cost more than the scan the index avoids).
    cos_rho: f64,
    sin_rho: f64,
    /// Radius range of members from Earth's centre, km.
    r_min: f64,
    r_max: f64,
    /// Member satellite indices, ascending. Shared between an index and
    /// its [`SpatialIndex::advanced`] successors so a patch step clones
    /// refcounts, not vectors.
    members: Arc<Vec<u32>>,
}

/// Grid index over the alive satellites of one snapshot.
#[derive(Debug, Clone, Default)]
pub struct SpatialIndex {
    cells: Vec<Cell>,
    /// Total bound inflation applied since the last full build, km.
    drift_km: f64,
}

fn norm(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn as_array(p: Ecef) -> [f64; 3] {
    [p.x, p.y, p.z]
}

impl SpatialIndex {
    /// Bucket the alive satellites of a snapshot. `positions` and `alive`
    /// are parallel arrays as held by the ISL graph.
    pub fn build(positions: &[Ecef], alive: &[bool]) -> Self {
        let lon_cells = (360.0 / CELL_DEG).ceil() as usize;
        let lat_cells = (180.0 / CELL_DEG).ceil() as usize;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); lon_cells * lat_cells];
        for (i, pos) in positions.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let geo = pos.to_geodetic();
            let lat_i = (((geo.lat_deg + 90.0) / CELL_DEG) as usize).min(lat_cells - 1);
            let lon_i = (((geo.lon_deg + 180.0) / CELL_DEG) as usize).min(lon_cells - 1);
            buckets[lat_i * lon_cells + lon_i].push(i as u32);
        }

        let mut cells = Vec::new();
        for members in buckets {
            if members.is_empty() {
                continue;
            }
            let mut sum = [0.0f64; 3];
            let mut r_min = f64::INFINITY;
            let mut r_max = 0.0f64;
            for &m in &members {
                let p = as_array(positions[m as usize]);
                let r = norm(p);
                r_min = r_min.min(r);
                r_max = r_max.max(r);
                sum[0] += p[0] / r;
                sum[1] += p[1] / r;
                sum[2] += p[2] / r;
            }
            let sum_norm = norm(sum);
            // Members of one lat/lon cell always share a hemisphere, so the
            // mean direction cannot vanish; guard anyway.
            let unit = if sum_norm > 1e-12 {
                [sum[0] / sum_norm, sum[1] / sum_norm, sum[2] / sum_norm]
            } else {
                [1.0, 0.0, 0.0]
            };
            let mut rho = 0.0f64;
            for &m in &members {
                let p = as_array(positions[m as usize]);
                let cos_angle = (dot(p, unit) / norm(p)).clamp(-1.0, 1.0);
                rho = rho.max(cos_angle.acos());
            }
            // Angular slack absorbs acos rounding before the cosine pair
            // is frozen for query-time bounds.
            let rho = rho + 1e-9;
            cells.push(Cell {
                unit,
                cos_rho: rho.cos(),
                sin_rho: rho.sin(),
                r_min,
                r_max,
                members: Arc::new(members),
            });
        }
        SpatialIndex {
            cells,
            drift_km: 0.0,
        }
    }

    /// Advance this index to a new snapshot without rebucketing: every
    /// cell's conservative bounds are inflated by `step_drift_km` (an upper
    /// bound on how far any member moved since the previous snapshot),
    /// `removed` satellites leave their cells and `added` satellites join
    /// as fresh singleton cells built from their `positions` entry.
    ///
    /// Returns `None` once the drift accumulated since the last full
    /// [`SpatialIndex::build`] would exceed `REBUILD_DRIFT_KM` (400 km) —
    /// the caller rebuilds, resetting the inflation.
    ///
    /// Exactness: `nearest` answers only require that membership equals the
    /// servable set (maintained exactly here) and that each cell's bound
    /// never exceeds the true member distance. A member that moved by at
    /// most `d` stays within `[r_min - d, r_max + d]` of Earth's centre
    /// (triangle inequality) and within `asin(d / (r_min - d))` of its old
    /// direction (the tangent-line bound from radius `≥ r_min - d`), so the
    /// widened interval plus the angle-added cone remain valid lower-bound
    /// inputs. Query results are therefore bit-identical to a fresh build's;
    /// only the *pruning* (and the stable scan counters) can differ.
    pub fn advanced(
        &self,
        positions: &[Ecef],
        removed: &[u32],
        added: &[u32],
        step_drift_km: f64,
    ) -> Option<SpatialIndex> {
        let drift_km = self.drift_km + step_drift_km;
        if drift_km > REBUILD_DRIFT_KM {
            return None;
        }
        let mut cells = self.cells.clone();
        if step_drift_km > 0.0 {
            for cell in &mut cells {
                cell.r_max += step_drift_km;
                cell.r_min = (cell.r_min - step_drift_km).max(0.0);
                let (sin_a, cos_a) = if cell.r_min > step_drift_km {
                    let a = (step_drift_km / cell.r_min).min(1.0).asin();
                    a.sin_cos()
                } else {
                    (1.0, 0.0) // degenerate geometry: open the cone fully
                };
                let cos_rho = cell.cos_rho * cos_a - cell.sin_rho * sin_a;
                let sin_rho = cell.sin_rho * cos_a + cell.cos_rho * sin_a;
                if sin_rho < 0.0 {
                    // rho + a passed pi: the cone covers the whole sphere.
                    cell.cos_rho = -1.0;
                    cell.sin_rho = 0.0;
                } else {
                    cell.cos_rho = cos_rho;
                    cell.sin_rho = sin_rho;
                }
            }
        }
        for &r in removed {
            for cell in &mut cells {
                if let Ok(at) = cell.members.binary_search(&r) {
                    Arc::make_mut(&mut cell.members).remove(at);
                    break;
                }
            }
        }
        cells.retain(|c| !c.members.is_empty());
        for &a in added {
            let p = as_array(positions[a as usize]);
            let r = norm(p);
            let unit = if r > 1e-12 {
                [p[0] / r, p[1] / r, p[2] / r]
            } else {
                [1.0, 0.0, 0.0]
            };
            // Same 1e-9 angular slack a fresh singleton cell would get.
            let rho = 1e-9f64;
            cells.push(Cell {
                unit,
                cos_rho: rho.cos(),
                sin_rho: rho.sin(),
                r_min: r,
                r_max: r,
                members: Arc::new(vec![a]),
            });
        }
        Some(SpatialIndex { cells, drift_km })
    }

    /// Lower bound on the distance from `g` (radius `gn`, unit `gu`) to
    /// any member of `cell`, minus [`BOUND_SLACK_KM`]. Trig-free:
    /// `cos(theta_min) = cos(max(0, alpha - rho))` expands to
    /// `cosα·cosρ + sinα·sinρ` when `alpha > rho`, and 1 otherwise —
    /// both cases need only the dot product and one square root.
    fn cell_lower_bound(cell: &Cell, gn: f64, gu: [f64; 3]) -> f64 {
        let cos_a = dot(gu, cell.unit).clamp(-1.0, 1.0);
        let cos_t = if cos_a >= cell.cos_rho {
            1.0 // the query direction lies inside the cone: theta_min = 0
        } else {
            let sin_a = (1.0 - cos_a * cos_a).max(0.0).sqrt();
            cos_a * cell.cos_rho + sin_a * cell.sin_rho
        };
        Self::bound_from_cos(cell, gn, cos_t).max(0.0).sqrt() - BOUND_SLACK_KM
    }

    /// Squared distance lower bound for a member at central angle at
    /// least `acos(cos_t)` from the query: `r_min` in the quadratic term,
    /// and the end of `[r_min, r_max]` that minimizes the cross term.
    #[inline]
    fn bound_from_cos(cell: &Cell, gn: f64, cos_t: f64) -> f64 {
        let cross_r = if cos_t > 0.0 { cell.r_max } else { cell.r_min };
        gn * gn + cell.r_min * cell.r_min - 2.0 * gn * cross_r * cos_t
    }

    /// True when [`Self::cell_lower_bound`] exceeds `best_km` — the
    /// pruning test. A cell outside the query's cone is first tried with
    /// `sinα ≤ 1`, which only raises `cos(theta_min)` and so lowers the
    /// bound, and needs no square root: when even that bound clears
    /// `best_km` by a further slack (far more than the rounding of
    /// either form), the exact bound does too. Only the cells near the
    /// incumbent pay for the exact bound.
    fn cell_pruned(cell: &Cell, gn: f64, gu: [f64; 3], best_km: f64) -> bool {
        let cos_a = dot(gu, cell.unit).clamp(-1.0, 1.0);
        if cos_a < cell.cos_rho {
            let reach = best_km + 2.0 * BOUND_SLACK_KM;
            let cos_t = cos_a * cell.cos_rho + cell.sin_rho;
            if reach > 0.0 && Self::bound_from_cos(cell, gn, cos_t) > reach * reach {
                return true;
            }
        }
        Self::cell_lower_bound(cell, gn, gu) > best_km
    }

    /// The alive satellite nearest to `ground`, with the exact semantics
    /// of the linear scan: minimal `(distance, index)` lexicographically.
    /// `None` when the index is empty (every satellite failed).
    pub fn nearest(&self, positions: &[Ecef], ground: Ecef) -> Option<(SatIndex, Km)> {
        if self.cells.is_empty() {
            return None;
        }
        SPATIAL_QUERIES.incr();
        let g = as_array(ground);
        let gn = norm(g);
        if gn <= 0.0 || gn.is_nan() {
            // Degenerate query point (Earth's centre or NaN coordinates):
            // every bound argument below would be ill-defined, fall back to
            // scanning all members.
            return self.scan_all(positions, ground);
        }
        let gu = [g[0] / gn, g[1] / gn, g[2] / gn];

        // Seed the incumbent from the cell whose mean direction is closest
        // to the query's (a dot product per cell, first such cell on
        // ties), then sweep the rest, skipping any cell whose bound proves
        // every member strictly farther than the incumbent — the slack
        // makes the bound strict, so a skipped member cannot even tie.
        // Scan order doesn't affect the answer: the `(distance, index)`
        // comparison is a total order, so the surviving minimum is the
        // linear scan's.
        let mut seed = 0;
        let mut seed_dot = f64::NEG_INFINITY;
        for (i, cell) in self.cells.iter().enumerate() {
            let d = dot(gu, cell.unit);
            if d > seed_dot {
                seed = i;
                seed_dot = d;
            }
        }

        let mut best: Option<(SatIndex, Km)> = None;
        let scan_cell = |cell: &Cell, best: &mut Option<(SatIndex, Km)>| {
            for &m in cell.members.iter() {
                let d = positions[m as usize].distance(ground);
                let better = match *best {
                    None => true,
                    Some((bi, bd)) => d.0 < bd.0 || (d.0 == bd.0 && m < bi.0),
                };
                if better {
                    *best = Some((SatIndex(m), d));
                }
            }
        };
        scan_cell(&self.cells[seed], &mut best);
        let mut scanned = 1u64;
        for (cell_i, cell) in self.cells.iter().enumerate() {
            if cell_i == seed {
                continue;
            }
            if let Some((_, bd)) = best {
                if Self::cell_pruned(cell, gn, gu, bd.0) {
                    continue;
                }
            }
            scan_cell(cell, &mut best);
            scanned += 1;
        }
        SPATIAL_CELLS_SCANNED.add(scanned);
        SPATIAL_CELLS_PRUNED.add(self.cells.len() as u64 - scanned);
        best
    }

    fn scan_all(&self, positions: &[Ecef], ground: Ecef) -> Option<(SatIndex, Km)> {
        let mut best: Option<(SatIndex, Km)> = None;
        for cell in &self.cells {
            for &m in cell.members.iter() {
                let d = positions[m as usize].distance(ground);
                let better = match best {
                    None => true,
                    Some((bi, bd)) => d.0 < bd.0 || (d.0 == bd.0 && m < bi.0),
                };
                if better {
                    best = Some((SatIndex(m), d));
                }
            }
        }
        best
    }

    /// Number of non-empty cells (diagnostic).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of indexed satellites (diagnostic).
    pub fn member_count(&self) -> usize {
        self.cells.iter().map(|c| c.members.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacecdn_geo::Geodetic;

    fn ring_positions(n: usize, alt_km: f64) -> Vec<Ecef> {
        (0..n)
            .map(|i| {
                let lon = -180.0 + 360.0 * i as f64 / n as f64;
                let lat = 50.0 * ((i as f64) * 0.7).sin();
                Geodetic::at_altitude(lat, lon, alt_km).to_ecef()
            })
            .collect()
    }

    fn linear_nearest(positions: &[Ecef], alive: &[bool], g: Ecef) -> Option<(SatIndex, Km)> {
        let mut best: Option<(SatIndex, Km)> = None;
        for (i, pos) in positions.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let d = pos.distance(g);
            if best.is_none_or(|(_, bd)| d.0 < bd.0) {
                best = Some((SatIndex(i as u32), d));
            }
        }
        best
    }

    #[test]
    fn matches_linear_scan_everywhere() {
        let positions = ring_positions(400, 550.0);
        let alive = vec![true; positions.len()];
        let index = SpatialIndex::build(&positions, &alive);
        assert_eq!(index.member_count(), 400);
        for lat in (-80..=80).step_by(17) {
            for lon in (-180..180).step_by(23) {
                let g = Geodetic::ground(lat as f64, lon as f64).to_ecef();
                assert_eq!(
                    index.nearest(&positions, g),
                    linear_nearest(&positions, &alive, g),
                    "mismatch at lat={lat} lon={lon}"
                );
            }
        }
    }

    #[test]
    fn respects_alive_mask() {
        let positions = ring_positions(100, 550.0);
        let mut alive = vec![true; positions.len()];
        for i in (0..100).step_by(3) {
            alive[i] = false;
        }
        let index = SpatialIndex::build(&positions, &alive);
        assert_eq!(index.member_count(), alive.iter().filter(|a| **a).count());
        let g = Geodetic::ground(10.0, 20.0).to_ecef();
        assert_eq!(
            index.nearest(&positions, g),
            linear_nearest(&positions, &alive, g)
        );
    }

    #[test]
    fn empty_index_yields_none() {
        let positions = ring_positions(10, 550.0);
        let alive = vec![false; positions.len()];
        let index = SpatialIndex::build(&positions, &alive);
        assert_eq!(index.cell_count(), 0);
        assert!(index
            .nearest(&positions, Geodetic::ground(0.0, 0.0).to_ecef())
            .is_none());
    }

    #[test]
    fn advanced_index_stays_exact() {
        // Drift the whole ring eastward in small steps, folding removals and
        // re-additions in, and never rebuild: the conservatively inflated
        // bounds must keep every nearest answer identical to a linear scan.
        let n = 300usize;
        let step_deg = 0.5f64;
        let positions_at = |k: usize| -> Vec<Ecef> {
            (0..n)
                .map(|i| {
                    let lon = -180.0 + 360.0 * i as f64 / n as f64 + step_deg * k as f64;
                    let lat = 50.0 * ((i as f64) * 0.7).sin();
                    Geodetic::at_altitude(lat, lon, 550.0).to_ecef()
                })
                .collect()
        };
        let mut positions = positions_at(0);
        let mut alive = vec![true; n];
        let mut index = SpatialIndex::build(&positions, &alive);
        for k in 1..=6usize {
            let next = positions_at(k);
            let step_drift = positions
                .iter()
                .zip(&next)
                .map(|(a, b)| a.distance(*b).0)
                .fold(0.0f64, f64::max);
            positions = next;
            // Kill one member and resurrect the previous victim each step.
            let dead = (k * 37) % n;
            let back = ((k - 1) * 37) % n;
            let mut removed = vec![dead as u32];
            let mut added = Vec::new();
            if k > 1 && back != dead {
                alive[back] = true;
                added.push(back as u32);
            }
            alive[dead] = false;
            removed.retain(|&r| !added.contains(&r));
            added.retain(|&a| a != dead as u32);
            index = index
                .advanced(&positions, &removed, &added, step_drift)
                .expect("drift budget exhausted");
            for lat in (-75..=75).step_by(25) {
                for lon in (-180..180).step_by(40) {
                    let g = Geodetic::ground(lat as f64, lon as f64).to_ecef();
                    assert_eq!(
                        index.nearest(&positions, g),
                        linear_nearest(&positions, &alive, g),
                        "mismatch at step {k} lat={lat} lon={lon}"
                    );
                }
            }
        }
    }

    #[test]
    fn advanced_gives_up_past_drift_budget() {
        let positions = ring_positions(50, 550.0);
        let alive = vec![true; positions.len()];
        let index = SpatialIndex::build(&positions, &alive);
        let part = index
            .advanced(&positions, &[], &[], REBUILD_DRIFT_KM * 0.6)
            .expect("first step within budget");
        assert!(part
            .advanced(&positions, &[], &[], REBUILD_DRIFT_KM * 0.6)
            .is_none());
    }

    #[test]
    fn prunes_most_cells() {
        let positions = ring_positions(1000, 550.0);
        let alive = vec![true; positions.len()];
        let index = SpatialIndex::build(&positions, &alive);
        // Sanity on the geometry that makes the index worthwhile.
        assert!(index.cell_count() > 20, "got {}", index.cell_count());
        assert!(
            index.cell_count() < positions.len() / 2,
            "got {}",
            index.cell_count()
        );
    }
}
