//! Operand address spaces.
//!
//! SCALE-Sim assigns each operand a disjoint, word-addressed region so that
//! traces can be disambiguated downstream (DRAM simulation, layout analysis,
//! energy counting). We keep that convention with wider (u64) regions so the
//! largest sweep workloads (10 000³ GEMMs) cannot overflow a region.

use crate::topology::GemmShape;
use std::fmt;

/// A word-granular address in the unified operand address space.
pub type Addr = u64;

/// Base address of the ifmap (`A`) region.
pub const IFMAP_BASE: Addr = 0;
/// Base address of the filter (`B`) region.
pub const FILTER_BASE: Addr = 1 << 40;
/// Base address of the ofmap (`C`) region.
pub const OFMAP_BASE: Addr = 2 << 40;

/// Which operand an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// Input feature map / activation matrix `A[M×K]`.
    Ifmap,
    /// Filter / weight matrix `B[K×N]`.
    Filter,
    /// Output feature map / result matrix `C[M×N]`.
    Ofmap,
}

impl OperandKind {
    /// All operand kinds in canonical order.
    pub const ALL: [OperandKind; 3] = [OperandKind::Ifmap, OperandKind::Filter, OperandKind::Ofmap];

    /// Classifies an address by its region.
    pub fn of_addr(addr: Addr) -> OperandKind {
        if addr >= OFMAP_BASE {
            OperandKind::Ofmap
        } else if addr >= FILTER_BASE {
            OperandKind::Filter
        } else {
            OperandKind::Ifmap
        }
    }

    /// Lowercase display name.
    pub fn name(&self) -> &'static str {
        match self {
            OperandKind::Ifmap => "ifmap",
            OperandKind::Filter => "filter",
            OperandKind::Ofmap => "ofmap",
        }
    }
}

impl fmt::Display for OperandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Maps GEMM coordinates to addresses (row-major within each region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandMap {
    gemm: GemmShape,
}

impl OperandMap {
    /// Creates the address map for a GEMM.
    pub fn new(gemm: GemmShape) -> Self {
        Self { gemm }
    }

    /// The GEMM shape this map covers.
    pub fn gemm(&self) -> GemmShape {
        self.gemm
    }

    /// Address of `A[m][k]`.
    #[inline]
    pub fn ifmap(&self, m: usize, k: usize) -> Addr {
        debug_assert!(m < self.gemm.m && k < self.gemm.k);
        IFMAP_BASE + (m as u64) * (self.gemm.k as u64) + k as u64
    }

    /// Address of `B[k][n]`.
    #[inline]
    pub fn filter(&self, k: usize, n: usize) -> Addr {
        debug_assert!(k < self.gemm.k && n < self.gemm.n);
        FILTER_BASE + (k as u64) * (self.gemm.n as u64) + n as u64
    }

    /// Address of `C[m][n]`.
    #[inline]
    pub fn ofmap(&self, m: usize, n: usize) -> Addr {
        debug_assert!(m < self.gemm.m && n < self.gemm.n);
        OFMAP_BASE + (m as u64) * (self.gemm.n as u64) + n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_classified() {
        let map = OperandMap::new(GemmShape::new(10_000, 10_000, 10_000));
        let a = map.ifmap(9_999, 9_999);
        let b = map.filter(9_999, 9_999);
        let c = map.ofmap(9_999, 9_999);
        assert!(a < FILTER_BASE);
        assert!((FILTER_BASE..OFMAP_BASE).contains(&b));
        assert!(c >= OFMAP_BASE);
        assert_eq!(OperandKind::of_addr(a), OperandKind::Ifmap);
        assert_eq!(OperandKind::of_addr(b), OperandKind::Filter);
        assert_eq!(OperandKind::of_addr(c), OperandKind::Ofmap);
    }

    #[test]
    fn coords_roundtrip() {
        let map = OperandMap::new(GemmShape::new(7, 5, 3));
        // Row-major within each region: offset / columns, offset % columns.
        let coords =
            |addr: Addr, base: Addr, cols: u64| ((addr - base) / cols, (addr - base) % cols);
        for (m, k) in (0..7).flat_map(|m| (0..3).map(move |k| (m, k))) {
            assert_eq!(coords(map.ifmap(m, k), IFMAP_BASE, 3), (m as u64, k as u64));
        }
        for (k, n) in (0..3).flat_map(|k| (0..5).map(move |n| (k, n))) {
            assert_eq!(
                coords(map.filter(k, n), FILTER_BASE, 5),
                (k as u64, n as u64)
            );
        }
        for (m, n) in (0..7).flat_map(|m| (0..5).map(move |n| (m, n))) {
            assert_eq!(coords(map.ofmap(m, n), OFMAP_BASE, 5), (m as u64, n as u64));
        }
    }

    #[test]
    fn operand_kind_names() {
        assert_eq!(OperandKind::Ifmap.to_string(), "ifmap");
        assert_eq!(OperandKind::ALL.len(), 3);
    }
}
