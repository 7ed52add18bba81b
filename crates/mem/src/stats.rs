//! Aggregate DRAM statistics.

/// Counters accumulated over a simulation, matching the metrics the paper
/// lists in §II-C (requests, latency, bandwidth, row-buffer behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests accepted.
    pub writes: u64,
    /// CAS issued to an already-open matching row.
    pub row_hits: u64,
    /// CAS that required activating a closed bank.
    pub row_misses: u64,
    /// CAS that required closing a different open row first.
    pub row_conflicts: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Sum of read round-trip latencies (memory cycles).
    pub total_read_latency: u64,
    /// Maximum read round-trip latency.
    pub max_read_latency: u64,
    /// Bytes moved in either direction.
    pub bytes_transferred: u64,
    /// Memory cycles the data bus was transferring.
    pub data_bus_busy_cycles: u64,
    /// Memory cycles during which at least one bank held an open row
    /// (active-standby time, summed over channels). Drives the background
    /// component of the power model.
    pub row_open_cycles: u64,
    /// Last simulated memory cycle.
    pub end_cycle: u64,
}

impl MemStats {
    /// Row-buffer hit rate over all classified CAS operations.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Achieved bandwidth in bytes per memory cycle.
    pub(crate) fn bytes_per_cycle(&self) -> f64 {
        if self.end_cycle == 0 {
            0.0
        } else {
            self.bytes_transferred as f64 / self.end_cycle as f64
        }
    }

    /// Achieved throughput in MB/s for a given clock period.
    pub fn throughput_mbps(&self, tck_ps: u64) -> f64 {
        let cycles_per_sec = 1.0e12 / tck_ps as f64;
        self.bytes_per_cycle() * cycles_per_sec / 1.0e6
    }

    /// Merges another stats block (e.g. from another channel).
    pub fn merge(&mut self, other: &MemStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.total_read_latency += other.total_read_latency;
        self.max_read_latency = self.max_read_latency.max(other.max_read_latency);
        self.bytes_transferred += other.bytes_transferred;
        self.data_bus_busy_cycles += other.data_bus_busy_cycles;
        self.row_open_cycles += other.row_open_cycles;
        self.end_cycle = self.end_cycle.max(other.end_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = MemStats {
            reads: 4,
            total_read_latency: 100,
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 0,
            bytes_transferred: 1000,
            end_cycle: 500,
            data_bus_busy_cycles: 250,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.bytes_per_cycle() - 2.0).abs() < 1e-12);
        // 2 B/cycle at 1 ns/cycle = 2 GB/s = 2000 MB/s.
        assert!((s.throughput_mbps(1000) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let s = MemStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.bytes_per_cycle(), 0.0);
    }

    #[test]
    fn merge_accumulates_and_maxes() {
        let mut a = MemStats {
            reads: 1,
            max_read_latency: 10,
            end_cycle: 100,
            ..Default::default()
        };
        let b = MemStats {
            reads: 2,
            max_read_latency: 30,
            end_cycle: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.max_read_latency, 30);
        assert_eq!(a.end_cycle, 100);
    }
}
