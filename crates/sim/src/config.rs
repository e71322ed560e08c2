//! System configuration (Table 2 of the paper).

use crate::cache::CacheGeometry;
use crate::memory::DramConfig;
use crate::prefetch::PrefetcherKind;
use crate::replacement::ReplacementKind;

/// Full configuration of the simulated CMP.
///
/// Defaults reproduce Table 2: N out-of-order cores at 2.5 GHz with private
/// 32 KB / 8-way / 64 B L1 caches (3-cycle load-to-use), a shared NUCA L2 of
/// 1 MB per core (16-way, 16-cycle hit; the modelled capacity falls short
/// of this, see [`crate::l2`]), a 2-D torus with 1-cycle hops, and
/// DDR3-1600 memory. The OoO width/ROB parameters are abstracted into the
/// 1-IPC in-order timing model (see DESIGN.md §2); the miss-latency
/// parameters, which drive every result in the paper, are modeled directly.
///
/// # Examples
///
/// ```
/// use strex_sim::config::SystemConfig;
///
/// let cfg = SystemConfig::with_cores(8);
/// assert_eq!(cfg.n_cores, 8);
/// assert_eq!(cfg.l1i_geometry.size_bytes(), 32 * 1024);
/// assert_eq!(cfg.aggregate_l1i_bytes(), 8 * 32 * 1024);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SystemConfig {
    /// Number of cores (the paper evaluates 2, 4, 8 and 16).
    pub n_cores: usize,
    /// Private L1 instruction cache shape.
    pub l1i_geometry: CacheGeometry,
    /// Private L1 data cache shape.
    pub l1d_geometry: CacheGeometry,
    /// Replacement policy for the L1-I (Figure 9 varies this).
    pub l1i_replacement: ReplacementKind,
    /// Replacement policy for the L1-D.
    pub l1d_replacement: ReplacementKind,
    /// Extra load-to-use cycles charged on an L1 data hit beyond the 1-IPC
    /// base cycle (Table 2: 3-cycle load-to-use).
    pub l1_hit_extra: u64,
    /// Shared L2 capacity per core in bytes (Table 2: 1 MB per core).
    ///
    /// At power-of-two core counts the modelled L2 holds this many bytes
    /// in total, not per core (see the modelling gap in [`crate::l2`]).
    pub l2_bytes_per_core: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 slice hit latency in cycles (Table 2: 16).
    pub l2_hit_latency: u64,
    /// L2 replacement policy.
    pub l2_replacement: ReplacementKind,
    /// Per-hop interconnect latency in cycles (Table 2: 1).
    pub hop_latency: u64,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Instruction prefetcher attached to each L1-I.
    pub prefetcher: PrefetcherKind,
    /// Core clock in GHz (used only for reporting).
    pub clock_ghz: f64,
}

impl SystemConfig {
    /// Table 2 configuration with `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn with_cores(n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        SystemConfig {
            n_cores,
            l1i_geometry: CacheGeometry::new(32 * 1024, 8),
            l1d_geometry: CacheGeometry::new(32 * 1024, 8),
            l1i_replacement: ReplacementKind::Lru,
            l1d_replacement: ReplacementKind::Lru,
            l1_hit_extra: 2,
            l2_bytes_per_core: 1024 * 1024,
            l2_assoc: 16,
            l2_hit_latency: 16,
            l2_replacement: ReplacementKind::Lru,
            hop_latency: 1,
            dram: DramConfig::default(),
            prefetcher: PrefetcherKind::None,
            clock_ghz: 2.5,
        }
    }

    /// Total L1-I capacity across all cores — SLICC's operating budget and
    /// the quantity the hybrid mechanism compares against the FPTable.
    pub fn aggregate_l1i_bytes(&self) -> u64 {
        self.n_cores as u64 * self.l1i_geometry.size_bytes()
    }

    /// Returns a copy with a different prefetcher.
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherKind) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// Returns a copy with a different L1-I replacement policy.
    pub fn with_l1i_replacement(mut self, kind: ReplacementKind) -> Self {
        self.l1i_replacement = kind;
        self
    }
}

impl Default for SystemConfig {
    /// The paper's headline 16-core configuration.
    fn default() -> Self {
        SystemConfig::with_cores(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.n_cores, 16);
        assert_eq!(cfg.l1i_geometry.size_bytes(), 32 * 1024);
        assert_eq!(cfg.l1i_geometry.assoc(), 8);
        assert_eq!(cfg.l2_assoc, 16);
        assert_eq!(cfg.l2_hit_latency, 16);
        assert_eq!(cfg.hop_latency, 1);
        assert!((cfg.clock_ghz - 2.5).abs() < f64::EPSILON);
    }

    #[test]
    fn aggregate_capacity_scales_with_cores() {
        assert_eq!(SystemConfig::with_cores(2).aggregate_l1i_bytes(), 64 * 1024);
        assert_eq!(
            SystemConfig::with_cores(16).aggregate_l1i_bytes(),
            512 * 1024
        );
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = SystemConfig::with_cores(4)
            .with_prefetcher(PrefetcherKind::NextLine)
            .with_l1i_replacement(ReplacementKind::Brrip);
        assert_eq!(cfg.prefetcher, PrefetcherKind::NextLine);
        assert_eq!(cfg.l1i_replacement, ReplacementKind::Brrip);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SystemConfig::with_cores(0);
    }
}
