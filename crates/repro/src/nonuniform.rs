//! Non-uniform workload partitioning for NoP-connected chiplets
//! (paper §III-D).
//!
//! Multi-chip-module accelerators like Simba have per-chiplet latency
//! profiles: chiplets farther from the memory controller pay more
//! network-on-package (NoP) hops for operand delivery. Giving every core
//! the same work share makes the near cores wait for the far ones; the
//! non-uniform split assigns less work to far cores to minimize the
//! makespan `max_i (nop_i + w_i · c_i)` subject to `Σ w_i = W`.

/// Per-core NoP latency profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NopProfile {
    /// One-way NoP latency per core, in cycles.
    pub nop_latency: Vec<u64>,
    /// Per-unit-work compute cost per core (cycles per work unit);
    /// heterogeneous cores have different rates.
    pub cycles_per_unit: Vec<f64>,
}

impl NopProfile {
    /// A `rows × cols` chiplet grid with the memory controller at the west
    /// edge: core `(r, c)` pays `(c + 1) · hop_cycles` (Simba-style
    /// column-distance profile).
    pub fn grid_west_edge(rows: usize, cols: usize, hop_cycles: u64, cycles_per_unit: f64) -> Self {
        let mut nop = Vec::with_capacity(rows * cols);
        for _r in 0..rows {
            for c in 0..cols {
                nop.push((c as u64 + 1) * hop_cycles);
            }
        }
        Self {
            cycles_per_unit: vec![cycles_per_unit; rows * cols],
            nop_latency: nop,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.nop_latency.len()
    }
}

/// Splits `total_work` units across cores minimizing the makespan.
/// Returns `(shares, makespan_cycles)`; shares sum to `total_work`.
///
/// Water-filling solution: with deadline `λ`, core `i` can absorb
/// `(λ − nop_i)/c_i` units; binary-search the smallest feasible `λ`, then
/// round shares to integers preserving the total.
///
/// # Panics
///
/// Panics if the profile is empty or `total_work == 0`.
pub fn non_uniform_split(profile: &NopProfile, total_work: u64) -> (Vec<u64>, u64) {
    let n = profile.cores();
    assert!(n > 0, "need at least one core");
    assert!(total_work > 0, "no work to split");
    let capacity = |lambda: f64| -> f64 {
        (0..n)
            .map(|i| {
                let slack = lambda - profile.nop_latency[i] as f64;
                if slack <= 0.0 {
                    0.0
                } else {
                    slack / profile.cycles_per_unit[i]
                }
            })
            .sum()
    };
    // Bracket λ.
    let mut lo = *profile.nop_latency.iter().min().unwrap() as f64;
    let mut hi = profile
        .nop_latency
        .iter()
        .map(|&v| v as f64)
        .fold(0.0f64, f64::max)
        + total_work as f64
            * profile
                .cycles_per_unit
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
        + 1.0;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if capacity(mid) >= total_work as f64 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let lambda = hi;
    // Fractional shares → floor, then distribute the remainder to the
    // cores with the most slack.
    let fractional: Vec<f64> = (0..n)
        .map(|i| {
            let slack = lambda - profile.nop_latency[i] as f64;
            (slack.max(0.0) / profile.cycles_per_unit[i]).max(0.0)
        })
        .collect();
    let scale = total_work as f64 / fractional.iter().sum::<f64>().max(1e-12);
    let mut shares: Vec<u64> = fractional
        .iter()
        .map(|f| (f * scale).floor() as u64)
        .collect();
    let mut assigned: u64 = shares.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = fractional[a] * scale - shares[a] as f64;
        let fb = fractional[b] * scale - shares[b] as f64;
        fb.partial_cmp(&fa).unwrap()
    });
    let mut idx = 0;
    while assigned < total_work {
        shares[order[idx % n]] += 1;
        assigned += 1;
        idx += 1;
    }
    let makespan = (0..n)
        .map(|i| {
            profile.nop_latency[i] + (shares[i] as f64 * profile.cycles_per_unit[i]).ceil() as u64
        })
        .max()
        .unwrap();
    (shares, makespan)
}

/// The uniform-split makespan, for comparison.
pub fn uniform_split_makespan(profile: &NopProfile, total_work: u64) -> u64 {
    let n = profile.cores() as u64;
    let share = total_work.div_ceil(n);
    (0..profile.cores())
        .map(|i| profile.nop_latency[i] + (share as f64 * profile.cycles_per_unit[i]).ceil() as u64)
        .max()
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_cores_get_less_work() {
        let p = NopProfile::grid_west_edge(2, 4, 500, 1.0);
        let (shares, _) = non_uniform_split(&p, 100_000);
        // Column 0 cores (indices 0 and 4) vs column 3 cores (3 and 7).
        assert!(shares[0] > shares[3], "near core must get more work");
        assert!(shares[4] > shares[7]);
        assert_eq!(shares.iter().sum::<u64>(), 100_000);
    }

    #[test]
    fn non_uniform_beats_uniform() {
        let p = NopProfile::grid_west_edge(1, 8, 2000, 1.0);
        let work = 50_000;
        let (_, nu) = non_uniform_split(&p, work);
        let u = uniform_split_makespan(&p, work);
        assert!(nu <= u, "non-uniform {nu} must not exceed uniform {u}");
        assert!(nu < u, "with strong NoP skew it should strictly win");
    }

    #[test]
    fn equal_profile_splits_evenly() {
        let p = NopProfile {
            nop_latency: vec![10; 4],
            cycles_per_unit: vec![1.0; 4],
        };
        let (shares, makespan) = non_uniform_split(&p, 4000);
        assert!(shares.iter().all(|&s| s == 1000));
        assert_eq!(makespan, 10 + 1000);
    }

    #[test]
    fn heterogeneous_rates_shift_work_to_fast_cores() {
        let p = NopProfile {
            nop_latency: vec![0, 0],
            cycles_per_unit: vec![1.0, 4.0],
        };
        let (shares, _) = non_uniform_split(&p, 1000);
        // Fast core should get ~4× the slow core's share.
        assert!(shares[0] > 3 * shares[1], "{shares:?}");
    }

    #[test]
    fn tiny_work_still_conserved() {
        let p = NopProfile::grid_west_edge(2, 2, 100, 2.0);
        let (shares, _) = non_uniform_split(&p, 3);
        assert_eq!(shares.iter().sum::<u64>(), 3);
    }
}
