//! A warm device pool for serving layers: reuse [`Device`]s across jobs.
//!
//! A job server handling many small kernel launches cannot afford to
//! rebuild a [`Device`] (compute units, stream cores, memo FIFOs) per
//! request. [`DevicePool`] keeps finished devices on an idle list keyed
//! by their full [`DeviceConfig`] and hands them back to the next job
//! with the same configuration after a [`Device::reset_stats`].
//!
//! `reset_stats` deliberately clears *statistics* (tallies, wavefront
//! counts, hub-scoped telemetry series) but **keeps the memoization FIFO
//! contents**. A warm-reused device therefore starts with whatever
//! operand history the previous job left in its FPU FIFOs — the
//! cross-job form of the paper's temporal value locality. Callers that
//! need bit-cold results (e.g. deterministic campaigns) should build
//! their own devices; callers serving repetitive launch traffic get the
//! warm FIFOs for free. [`PoolStats`] reports how often each case
//! happened.
//!
//! The pool is synchronous and unlocked: a serving layer wraps it in its
//! own `Mutex` alongside the rest of its scheduler state.
//!
//! # Examples
//!
//! ```
//! use tm_sim::{pool::DevicePool, DeviceConfig};
//!
//! let mut pool = DevicePool::new(4);
//! let config = DeviceConfig::default();
//!
//! let device = pool.acquire(&config); // cold: freshly built
//! pool.release(device);
//! let device = pool.acquire(&config); // warm: same device, stats reset
//! assert_eq!(pool.stats().warm_hits, 1);
//! assert_eq!(pool.stats().cold_builds, 1);
//! pool.release(device);
//! ```

use crate::config::DeviceConfig;
use crate::device::Device;

/// Counters describing how the pool has served its callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions satisfied by resetting an idle device with a
    /// matching configuration (memo FIFOs still warm).
    pub warm_hits: u64,
    /// Acquisitions that had to construct a new device.
    pub cold_builds: u64,
    /// Devices dropped on release because the idle list was full.
    pub evictions: u64,
}

/// A bounded pool of idle [`Device`]s keyed by [`DeviceConfig`].
///
/// See the [module docs](self) for the warm-reuse semantics.
#[derive(Debug)]
pub struct DevicePool {
    idle: Vec<Device>,
    max_idle: usize,
    stats: PoolStats,
}

impl DevicePool {
    /// Creates a pool keeping at most `max_idle` idle devices.
    ///
    /// `max_idle == 0` disables reuse entirely: every acquisition is a
    /// cold build and every release drops the device.
    #[must_use]
    pub fn new(max_idle: usize) -> Self {
        Self {
            idle: Vec::new(),
            max_idle,
            stats: PoolStats::default(),
        }
    }

    /// Hands out a device for `config`.
    ///
    /// If an idle device was built from an identical configuration it is
    /// revived with [`Device::reset_stats`] — statistics and hub series
    /// cleared, memo FIFOs kept warm. Otherwise a fresh device is built.
    pub fn acquire(&mut self, config: &DeviceConfig) -> Device {
        if let Some(pos) = self.idle.iter().position(|d| d.config() == config) {
            let mut device = self.idle.swap_remove(pos);
            device.reset_stats();
            self.stats.warm_hits += 1;
            device
        } else {
            self.stats.cold_builds += 1;
            Device::new(config.clone())
        }
    }

    /// Returns a device to the idle list, evicting it if the list is at
    /// capacity. Telemetry hubs and recorders are detached first so an
    /// idle device cannot keep publishing into a finished job's scope.
    pub fn release(&mut self, mut device: Device) {
        device.detach_hub();
        device.detach_recorder();
        if self.idle.len() < self.max_idle {
            self.idle.push(device);
        } else {
            self.stats.evictions += 1;
        }
    }

    /// Number of devices currently idle.
    #[must_use]
    pub fn idle_len(&self) -> usize {
        self.idle.len()
    }

    /// Warm/cold/eviction counters since construction.
    #[must_use]
    pub const fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    #[test]
    fn warm_reuse_matches_config_and_resets_stats() {
        let mut pool = DevicePool::new(2);
        let config = DeviceConfig::default();
        let mut d = pool.acquire(&config);
        assert_eq!(pool.stats().cold_builds, 1);
        // Leave some state behind: one launch worth of stats + FIFO fill.
        let square = crate::program::VProgram::new(
            1,
            vec![crate::program::VInst::Alu {
                op: tm_fpu::FpOp::Mul,
                dst: 0,
                srcs: vec![crate::program::Src::Imm(2.0); 2],
            }],
        )
        .unwrap();
        d.run_program(&square, &mut crate::program::Bindings::new(Vec::new()), 64, 1);
        assert!(d.report().wavefronts > 0);
        pool.release(d);
        assert_eq!(pool.idle_len(), 1);

        let d = pool.acquire(&config);
        assert_eq!(pool.stats().warm_hits, 1);
        // Stats were reset; the device is ready for a fresh job.
        assert_eq!(d.report().wavefronts, 0);
        pool.release(d);
    }

    #[test]
    fn different_config_is_a_cold_build() {
        let mut pool = DevicePool::new(2);
        let a = DeviceConfig::default();
        let b = DeviceConfig {
            compute_units: a.compute_units + 1,
            ..a.clone()
        };
        let d = pool.acquire(&a);
        pool.release(d);
        let d = pool.acquire(&b);
        assert_eq!(pool.stats().cold_builds, 2);
        assert_eq!(pool.stats().warm_hits, 0);
        pool.release(d);
    }

    #[test]
    fn capacity_zero_always_evicts() {
        let mut pool = DevicePool::new(0);
        let config = DeviceConfig::default();
        let d = pool.acquire(&config);
        pool.release(d);
        assert_eq!(pool.idle_len(), 0);
        assert_eq!(pool.stats().evictions, 1);
        let _ = pool.acquire(&config);
        assert_eq!(pool.stats().cold_builds, 2);
    }
}
