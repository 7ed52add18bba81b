//! Pareto-frontier selection over two minimized objectives.
//!
//! Design-space exploration ends with a trade-off, not a single winner:
//! the interesting grid points are the ones where runtime cannot improve
//! without paying energy, and vice versa. `pareto_min` extracts that
//! frontier.

/// Returns the (ascending) indices of the points on the Pareto frontier
/// when **minimizing both objectives**.
///
/// A point is on the frontier iff no other point is at least as good in
/// both objectives and strictly better in one. Duplicate points are all
/// kept (neither strictly dominates the other), so ties don't silently
/// drop design points. When every point has the same second objective
/// (e.g. a sweep run without the energy feature), the frontier
/// degenerates to the runtime minimizers — still correct, just
/// one-dimensional.
pub(crate) fn pareto_min(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|&other| dominates(other, points[i])))
        .collect()
}

/// `a` Pareto-dominates `b` under minimization of both objectives.
fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}
