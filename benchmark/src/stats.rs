//! Order statistics, the FNV-1a digest, the host-speed reference walk
//! and the peak-memory probe.

/// Fewest samples a p90 may rest on: ten samples beyond the percentile.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (NumPy's default). `values` need not be sorted.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (see [`quantile`]).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The geometric mean over kinds of each kind's `q`-quantile, where
/// `kinds[i]` is the kind of `values[i]`.
///
/// A plain quantile over a mix of operations whose latencies differ by
/// kind sits on whichever kind ranks there, and jumps to its neighbour
/// when host noise reorders the two. This weights every kind alike.
///
/// # Panics
/// Panics on an empty slice, a NaN sample, or slices of unequal length.
#[must_use]
pub fn quantile_by_kind(values: &[f64], kinds: &[&str], q: f64) -> f64 {
    assert_eq!(values.len(), kinds.len(), "one kind per value");
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (v, k) in values.iter().zip(kinds) {
        by_kind.entry(k).or_default().push(*v);
    }
    let logs: f64 = by_kind.values().map(|v| quantile(v, q).ln()).sum();
    (logs / by_kind.len() as f64).exp()
}

/// The p90 of `values`, refused when fewer than `min_samples` back it.
///
/// # Errors
/// Names the metric and the sample count when there are too few samples.
pub fn p90(name: &str, values: &[f64], min_samples: usize) -> Result<f64, String> {
    if values.len() < min_samples.max(1) {
        return Err(format!(
            "{name}: a p90 needs at least {min_samples} samples, the run produced {}; \
             lengthen --seconds",
            values.len()
        ));
    }
    Ok(quantile(values, 0.9))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the rule the benchmark's spread checks use.
///
/// # Panics
/// Panics on fewer than two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let (n, m) = (4, v.len() + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// A 64-bit FNV-1a hash, the simulated-result digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the bit patterns of `values`, little-endian, in order.
    pub fn write_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// Time one reference walk takes on an undisturbed host: the 2-core
/// x86-64 container the benchmark was calibrated on (the fastest walks
/// of `cargo test --release --manifest-path benchmark/Cargo.toml --
/// --ignored --nocapture reference_walk_time`). Only a scale: both sides
/// of a comparison use the same value.
pub const NOMINAL_REF_SECS: f64 = 500e-6;

/// Entries of the reference table: 1 MiB, the footprint whose walk time
/// tracked the simulator's speed best among 256 KiB – 16 MiB tables.
const REF_ENTRIES: usize = 1 << 18;

/// Steps of one reference walk.
const REF_STEPS: usize = 1 << 16;

/// Times a fixed reference workload: a dependent random walk through a
/// 1 MiB table, walked once to warm it and once timed.
///
/// A shared host's caches and memory are contended by other tenants,
/// which slows the simulator by up to 2x for minutes at a time. The walk
/// slows with it, and since it runs no code of this repository, no change
/// to the program can move it. It runs on the calling thread only: two
/// concurrent walks contend with each other and made a noisier reference.
#[must_use]
pub fn reference_secs() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // Sattolo's shuffle: a single cycle through every entry.
        let mut next: Vec<u32> = (0..REF_ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_u32;
        for i in (1..REF_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            next.swap(i, x as usize % i);
        }
        next
    });
    let walk = || {
        let mut i = 0_usize;
        for _ in 0..REF_STEPS {
            i = table[i] as usize;
        }
        std::hint::black_box(i)
    };
    walk();
    let t = std::time::Instant::now();
    walk();
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result, its seconds, and how much slower
/// than nominal the host ran around it: the median of three reference
/// walks before and three after.
pub fn timed_on_host<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let mut walks: Vec<f64> = (0..3).map(|_| reference_secs()).collect();
    let t = std::time::Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    walks.extend((0..3).map(|_| reference_secs()));
    (out, secs, median(&walks) / NOMINAL_REF_SECS)
}

/// Half-width of the span of reference walks that estimates the host's
/// speed during one round, seconds. One walk is a noisy sample; the
/// median of those within a quarter second is steady, yet still follows
/// slowdowns that last seconds.
const SMOOTHING_SECS: f64 = 0.25;

/// The host slowdown during each interval between consecutive reference
/// walks, given as `(seconds, walk time)`: the median walk time of the
/// walks within [`SMOOTHING_SECS`] of the interval's midpoint (its own two
/// walks at least), over [`NOMINAL_REF_SECS`].
#[must_use]
pub fn host_slowdowns(walks: &[(f64, f64)]) -> Vec<f64> {
    walks
        .windows(2)
        .map(|pair| {
            let mid = (pair[0].0 + pair[1].0) / 2.0;
            let reach = SMOOTHING_SECS.max((pair[1].0 - pair[0].0) / 2.0);
            let near: Vec<f64> = walks
                .iter()
                .filter(|(t, _)| (t - mid).abs() <= reach)
                .map(|&(_, secs)| secs)
                .collect();
            median(&near) / NOMINAL_REF_SECS
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak_rss_mb: no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quantile_by_kind_weights_every_kind_alike() {
        // One kind: the plain quantile.
        assert_eq!(quantile_by_kind(&[3.0, 1.0, 2.0], &["a"; 3], 0.5), 2.0);
        assert_eq!(quantile_by_kind(&[3.0, 1.0, 2.0], &["a"; 3], 0.25), 1.5);
        // Kinds with medians 1 and 4 (the second has more samples).
        let v = [1.0, 1.0, 4.0, 3.0, 5.0];
        let got = quantile_by_kind(&v, &["a", "a", "b", "b", "b"], 0.5);
        assert!((got - 2.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn p90_refuses_thin_tails() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        let err = p90("op_ms_p90", &v, MIN_TAIL_SAMPLES).unwrap_err();
        assert!(err.contains("op_ms_p90") && err.contains("99"), "{err}");
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((p90("op_ms_p90", &v, MIN_TAIL_SAMPLES).unwrap() - 89.1).abs() < 1e-9);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    #[ignore = "prints the reference walk's time on this host; run with --ignored --nocapture"]
    fn reference_walk_time() {
        let mut t: Vec<f64> = (0..2000).map(|_| reference_secs()).collect();
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "reference walk: min {:.1} us, p10 {:.1} us, p50 {:.1} us",
            t[0] * 1e6,
            t[200] * 1e6,
            t[1000] * 1e6
        );
    }

    #[test]
    fn slowdowns_take_the_median_of_nearby_walks() {
        let n = NOMINAL_REF_SECS;
        // Rounds of 0.1 s: one outlier walk barely moves its neighbours.
        let walks: Vec<(f64, f64)> = (0..8)
            .map(|i| (f64::from(i) * 0.1, if i == 4 { 3.0 * n } else { n }))
            .collect();
        let s = host_slowdowns(&walks);
        assert_eq!(s.len(), 7);
        assert!(s.iter().all(|&x| x == 1.0), "{s:?}");
        // A round longer than the smoothing span uses its own two walks.
        assert_eq!(host_slowdowns(&[(0.0, n), (2.0, 2.0 * n)]), vec![1.5]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
