//! Physical-address decoding into DRAM coordinates.
//!
//! The mapping determines how streaming access patterns spread across
//! channels and banks, which in turn determines achievable parallelism —
//! the effect behind the paper's Fig. 9 channel-scaling study.

use crate::spec::DramOrg;

/// Decoded DRAM coordinates of a byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column (burst-aligned) within the row.
    pub column: usize,
}

impl DramAddr {
    /// Flat bank identifier within the channel (rank-major).
    pub fn flat_bank(&self, org: &DramOrg) -> usize {
        (self.rank * org.bank_groups + self.bank_group) * org.banks_per_group + self.bank
    }
}

/// Address interleaving schemes (field order from MSB to LSB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// `Row:Bank:Rank:Column:Channel` — consecutive bursts alternate
    /// channels, then walk a row; Ramulator's default for streaming.
    #[default]
    RoBaRaCoCh,
    /// `Row:Rank:Bank:Channel:Column` — a full row stays in one channel.
    RoRaBaChCo,
    /// `Channel:Rank:Bank:Row:Column` — channel from the top bits
    /// (coarse-grained partitioning across channels).
    ChRaBaRoCo,
}

impl AddressMapping {
    /// Decodes `byte_addr` for `org` with `channels` channels.
    ///
    /// The low `log2(burst_bytes)` bits address within a burst and are
    /// stripped first; the remaining fields are extracted in the scheme's
    /// order.
    pub fn decode(&self, byte_addr: u64, org: &DramOrg, channels: usize) -> DramAddr {
        let mut addr = byte_addr;
        let mut take = |n: usize| -> usize {
            if n <= 1 {
                return 0;
            }
            let n = n as u64;
            // Field widths are powers of two in every preset; spare the
            // six divisions a decode would otherwise cost per request.
            let v = if n.is_power_of_two() {
                let v = addr & (n - 1);
                addr >>= n.trailing_zeros();
                v
            } else {
                let v = addr % n;
                addr /= n;
                v
            };
            v as usize
        };
        take(org.burst_bytes());
        // Burst-aligned columns: columns / burst_length positions per row.
        let col_slots = (org.columns / org.burst_length).max(1);
        match self {
            AddressMapping::RoBaRaCoCh => {
                let channel = take(channels);
                let column = take(col_slots);
                let rank = take(org.ranks);
                let bank = take(org.banks_per_group);
                let bank_group = take(org.bank_groups);
                let row = take(org.rows);
                DramAddr {
                    channel,
                    rank,
                    bank_group,
                    bank,
                    row,
                    column,
                }
            }
            AddressMapping::RoRaBaChCo => {
                let column = take(col_slots);
                let channel = take(channels);
                let bank = take(org.banks_per_group);
                let bank_group = take(org.bank_groups);
                let rank = take(org.ranks);
                let row = take(org.rows);
                DramAddr {
                    channel,
                    rank,
                    bank_group,
                    bank,
                    row,
                    column,
                }
            }
            AddressMapping::ChRaBaRoCo => {
                let column = take(col_slots);
                let row = take(org.rows);
                let bank = take(org.banks_per_group);
                let bank_group = take(org.bank_groups);
                let rank = take(org.ranks);
                let channel = take(channels);
                DramAddr {
                    channel,
                    rank,
                    bank_group,
                    bank,
                    row,
                    column,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DramSpec;

    #[test]
    fn robaracoch_interleaves_channels_finely() {
        let spec = DramSpec::ddr4_2400();
        let m = AddressMapping::RoBaRaCoCh;
        let a = m.decode(0, &spec.org, 4);
        let b = m.decode(64, &spec.org, 4); // next burst
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn chrabaroco_keeps_stream_in_one_channel() {
        let spec = DramSpec::ddr4_2400();
        let m = AddressMapping::ChRaBaRoCo;
        for i in 0..64u64 {
            let d = m.decode(i * 64, &spec.org, 4);
            assert_eq!(d.channel, 0, "burst {i} left channel 0");
        }
    }

    #[test]
    fn decode_fields_in_range() {
        let spec = DramSpec::hbm2();
        for scheme in [
            AddressMapping::RoBaRaCoCh,
            AddressMapping::RoRaBaChCo,
            AddressMapping::ChRaBaRoCo,
        ] {
            for i in 0..10_000u64 {
                let d = scheme.decode(i * 37 * 64, &spec.org, 8);
                assert!(d.channel < 8);
                assert!(d.rank < spec.org.ranks);
                assert!(d.bank_group < spec.org.bank_groups);
                assert!(d.bank < spec.org.banks_per_group);
                assert!(d.row < spec.org.rows);
                assert!(d.column < spec.org.columns / spec.org.burst_length);
            }
        }
    }

    #[test]
    fn consecutive_rows_reuse_banks() {
        // In RoBaRaCoCh the row bits are the most significant: walking a
        // whole row's worth of columns then moving on reuses the same bank.
        let spec = DramSpec::ddr3_1600();
        let m = AddressMapping::RoBaRaCoCh;
        let a = m.decode(0, &spec.org, 1);
        let row_bytes = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64; // all banks' worth of columns
        let b = m.decode(row_bytes, &spec.org, 1);
        assert_eq!(b.row, a.row + 1);
    }

    #[test]
    fn flat_bank_is_dense() {
        let spec = DramSpec::ddr4_2400();
        let mut seen = std::collections::HashSet::new();
        for bg in 0..4 {
            for b in 0..4 {
                let d = DramAddr {
                    channel: 0,
                    rank: 0,
                    bank_group: bg,
                    bank: b,
                    row: 0,
                    column: 0,
                };
                seen.insert(d.flat_bank(&spec.org));
            }
        }
        assert_eq!(seen.len(), 16);
        assert_eq!(*seen.iter().max().unwrap(), 15);
    }
}
