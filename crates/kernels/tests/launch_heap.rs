//! Per-launch memory budget: one sequential `DeviceWorkload::run` at
//! `Scale::Default` must keep its peak live heap within 1 MiB for every
//! kernel — the order of the input and output buffers themselves.
//!
//! A counting global allocator tracks live bytes on the calling thread
//! (the libtest harness allocates on its own threads against the same
//! allocator) and the peak they reach while the launch runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tm_kernels::{calibrated_threshold, workload, Scale, ALL_KERNELS};
use tm_sim::prelude::*;

/// Peak live heap one launch may reach above its starting point.
const BUDGET_BYTES: usize = 1 << 20;

thread_local! {
    /// Bytes currently allocated by this thread. Const-initialized so
    /// the thread-local itself never allocates from inside the allocator.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The highest `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Counts live bytes (the default `realloc`/`alloc_zeroed` route through
/// `alloc` and `dealloc`, so these two cover them all).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: thread-local storage may already be gone during
        // thread teardown.
        let _ = LIVE.try_with(|live| {
            let now = live.get() + layout.size();
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Restarts peak tracking from the current live size and returns it.
fn reset_peak() -> usize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

#[test]
fn every_default_scale_launch_stays_within_one_mib() {
    let mut over = Vec::new();
    for id in ALL_KERNELS {
        let mut wl = workload::build(id, Scale::Default, 0xDA7E_2014);
        let config = DeviceConfig::builder()
            .with_compute_units(2)
            .with_policy(MatchPolicy::threshold(calibrated_threshold(id)))
            .build()
            .unwrap();
        let mut device = Device::new(config);
        let start = reset_peak();
        let out = wl.run(&mut device);
        let peak = PEAK.with(Cell::get) - start;
        assert!(!out.is_empty(), "{id} produced no output");
        eprintln!("{id}: peak live heap {} KiB", peak / 1024);
        if peak > BUDGET_BYTES {
            over.push(format!("{id}: {} KiB", peak / 1024));
        }
    }
    assert!(over.is_empty(), "launches over the 1 MiB budget: {over:?}");
}
