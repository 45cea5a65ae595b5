//! World-generation configuration.

/// Configuration for [`crate::World::generate`]. All counts are organization
/// counts per archetype; prefix counts follow from per-archetype block and
/// routing fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldConfig {
    /// RNG seed; equal seeds give identical worlds.
    pub seed: u64,
    /// Global carriers (multi-region subsidiaries, many ASNs, customers).
    pub carriers: usize,
    /// Cloud/CDN providers (publish incomplete public IP lists).
    pub clouds: usize,
    /// Regional ISPs (originate customer space).
    pub isps: usize,
    /// IP leasing entities (space originated by many customer ASes, §8.1).
    pub leasing: usize,
    /// Mid-size enterprises.
    pub enterprises: usize,
    /// Small organizations holding a single /24 (the §7.2 cohort).
    pub small_orgs: usize,
    /// Educational institutions (the Internet2-affiliate analogue).
    pub edu: usize,
    /// Organizations holding space but no ASN (§8.1).
    pub no_asn: usize,
    /// Snapshot date (`YYYYMMDD`) used for record dates, certificate
    /// validity and validation.
    pub snapshot_date: u32,
    /// Number of address-block ownership transfers applied after the base
    /// allocation round — the longitudinal "next snapshot" knob (paper §10:
    /// periodic snapshots enable studying address transfers). Two worlds
    /// differing only in this field share their allocation layout; the
    /// transferred blocks change Direct Owner.
    pub transfers: usize,
}

impl WorldConfig {
    /// A minimal world for unit tests: a handful of every archetype.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            carriers: 2,
            clouds: 2,
            isps: 3,
            leasing: 1,
            enterprises: 6,
            small_orgs: 8,
            edu: 4,
            no_asn: 4,
            snapshot_date: 20240901,
            transfers: 0,
        }
    }

    /// The default evaluation scale: a few thousand routed prefixes —
    /// enough for every experiment's *shape* while keeping `cargo test`
    /// fast.
    pub fn default_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            carriers: 12,
            clouds: 8,
            isps: 40,
            leasing: 4,
            enterprises: 220,
            small_orgs: 320,
            edu: 120,
            no_asn: 80,
            snapshot_date: 20240901,
            transfers: 0,
        }
    }

    /// A large world for throughput benches (tens of thousands of routed
    /// prefixes).
    pub fn bench_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            carriers: 40,
            clouds: 24,
            isps: 240,
            leasing: 12,
            enterprises: 2200,
            small_orgs: 3200,
            edu: 600,
            no_asn: 700,
            snapshot_date: 20240901,
            transfers: 0,
        }
    }

    /// The stress scale: ten times the [`bench_scale`](Self::bench_scale)
    /// organization count, for measuring the build and the server on
    /// ~64 MB of inputs (perfbench's `batch-xl`). The growth is
    /// deliberately weighted toward the low-footprint archetypes
    /// (enterprises, /24 holders, ASN-less orgs): address *records* scale
    /// 10x while carriers, clouds and ISPs — whose /12–/19 blocks dominate
    /// raw address consumption — grow far less, keeping the per-RIR
    /// carver pools solvent.
    pub fn xl_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            carriers: 60,
            clouds: 48,
            isps: 2000,
            leasing: 120,
            enterprises: 22000,
            small_orgs: 45000,
            edu: 1200,
            no_asn: 3500,
            snapshot_date: 20240901,
            transfers: 0,
        }
    }

    /// A copy of this config representing the next snapshot, with `n`
    /// ownership transfers applied.
    pub fn with_transfers(mut self, n: usize) -> Self {
        self.transfers = n;
        self
    }

    /// Total number of organizations.
    pub fn total_orgs(&self) -> usize {
        self.carriers
            + self.clouds
            + self.isps
            + self.leasing
            + self.enterprises
            + self.small_orgs
            + self.edu
            + self.no_asn
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::default_scale(0x5EED_CAFE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let c = WorldConfig::tiny(1);
        assert_eq!(c.total_orgs(), 2 + 2 + 3 + 1 + 6 + 8 + 4 + 4);
        assert!(WorldConfig::default_scale(1).total_orgs() > 500);
        assert!(WorldConfig::bench_scale(1).total_orgs() > 5000);
        // The xl preset must stay at least 10x bench, as `prefix2org help`
        // and the README describe it.
        assert!(
            WorldConfig::xl_scale(1).total_orgs() >= 10 * WorldConfig::bench_scale(1).total_orgs()
        );
    }

    #[test]
    fn default_is_default_scale() {
        let d = WorldConfig::default();
        assert_eq!(d.snapshot_date, 20240901);
        assert!(d.total_orgs() > 100);
    }
}
