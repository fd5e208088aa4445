//! Pluggable shard transports.
//!
//! The coordinator moves three kinds of payloads: dense-operand rows
//! *scattered* to shards, result rows *gathered* back, and boundary
//! feature rows exchanged between shards as a layer-to-layer *halo*.
//! A [`Transport`] prices each movement; the data itself always travels
//! in-process (the simulator has one address space), so transports
//! differ only in the **modeled** seconds they report:
//!
//! * [`ChannelTransport`] — the real-concurrency configuration: shards
//!   run on worker threads, payloads are shared-memory handoffs, and
//!   every transfer is free. Wall-clock time is the measurement.
//! * [`ModeledTransport`] — per-message latency + bandwidth accounting
//!   derived from `sim::arch` constants, for scaling curves on
//!   hardware the host doesn't have (1/2/4/8 GPUs per architecture).

use spmm_sim::Arch;

/// What a transfer is for; carriers may price directions differently
/// and observers use it to attribute bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Coordinator → shard: dense-operand rows the shard references.
    Scatter {
        /// Destination shard.
        shard: usize,
    },
    /// Shard → coordinator: the shard's output row block.
    Gather {
        /// Source shard.
        shard: usize,
    },
    /// Shard → shard: boundary feature rows between GCN layers.
    Halo {
        /// Owning shard of the rows.
        from: usize,
        /// Shard that references them.
        to: usize,
    },
}

/// Prices one payload movement; returns modeled seconds (0 for
/// in-process transports).
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Short name recorded in stats and bench artifacts.
    fn name(&self) -> &'static str;
    /// Modeled seconds to move `bytes` along `route`.
    fn transfer(&self, route: Route, bytes: u64) -> f64;
}

/// In-process channel transport: shards are worker threads, payloads
/// are `Arc`/move handoffs, transfers cost nothing beyond the memory
/// traffic the execution itself already pays.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTransport;

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn transfer(&self, _route: Route, _bytes: u64) -> f64 {
        0.0
    }
}

/// Latency + bandwidth model of an inter-GPU link.
///
/// [`ModeledTransport::for_arch`] derives the link from the
/// architecture's DRAM constants: an NVLink-class interconnect runs at
/// roughly a quarter of HBM bandwidth, and a hop costs roughly 20×
/// DRAM latency (µs-scale message overhead vs ~400 ns DRAM access).
#[derive(Debug, Clone, Copy)]
pub struct ModeledTransport {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

/// Interconnect bandwidth as a fraction of the architecture's DRAM
/// bandwidth (NVLink ≈ HBM/4 across the modeled generations).
const LINK_BW_FRACTION: f64 = 0.25;
/// Per-message latency as a multiple of DRAM access latency.
const LINK_LATENCY_FACTOR: f64 = 20.0;

impl ModeledTransport {
    /// An explicit link.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(latency_s >= 0.0 && bandwidth_bps > 0.0);
        ModeledTransport {
            latency_s,
            bandwidth_bps,
        }
    }

    /// The link the architecture's `sim::arch` constants imply.
    pub fn for_arch(arch: Arch) -> Self {
        let spec = arch.spec();
        ModeledTransport {
            latency_s: spec.dram_latency_ns * 1e-9 * LINK_LATENCY_FACTOR,
            bandwidth_bps: spec.dram_bw_gbps * 1e9 * LINK_BW_FRACTION,
        }
    }
}

impl Transport for ModeledTransport {
    fn name(&self) -> &'static str {
        "modeled"
    }

    fn transfer(&self, _route: Route, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transfers_are_free() {
        let t = ChannelTransport;
        assert_eq!(t.transfer(Route::Scatter { shard: 0 }, 1 << 30), 0.0);
        assert_eq!(t.name(), "channel");
    }

    #[test]
    fn modeled_transfer_is_latency_plus_bytes_over_bandwidth() {
        let t = ModeledTransport::new(1e-6, 100e9);
        let got = t.transfer(Route::Gather { shard: 1 }, 200_000_000);
        assert!((got - (1e-6 + 0.002)).abs() < 1e-12);
        // Empty messages still pay the latency.
        assert_eq!(t.transfer(Route::Halo { from: 0, to: 1 }, 0), 1e-6);
    }

    #[test]
    fn arch_links_scale_with_dram() {
        for arch in [Arch::Rtx4090, Arch::A800, Arch::H100] {
            let t = ModeledTransport::for_arch(arch);
            let spec = arch.spec();
            assert!(t.bandwidth_bps < spec.dram_bw_gbps * 1e9);
            assert!(t.latency_s > spec.dram_latency_ns * 1e-9);
        }
    }
}
