//! The benchmark's own statistics: percentiles with a sample-count
//! rule, medians and quartiles, the layer-ledger check, and the output
//! digest.

/// A layer ledger whose unattributed share exceeds this fails the run:
/// the layers no longer explain where the traced run's time went.
pub const MAX_UNATTRIBUTED_RATIO: f64 = 0.02;

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of unsorted `samples`,
/// reported only when at least ten samples lie beyond it: p50 needs 20
/// samples, p99 needs 1000. Fewer gives `None`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match an outside check. `None`
/// with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative or past-4 deltas extrapolate, exactly as Python does
        // for very small samples.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Checks a traced run's layer ledger: the layers' self times plus the
/// unattributed remainder make up `run_s` by construction, so the check
/// is that the remainder is non-negative (no layer was counted twice)
/// and at most [`MAX_UNATTRIBUTED_RATIO`] of the run. Returns the
/// unattributed ratio.
///
/// # Errors
///
/// A description of the violated condition.
pub fn ledger_check(layers: &[(&str, f64)], run_s: f64) -> Result<f64, String> {
    if run_s <= 0.0 {
        return Err(format!("run_s {run_s} is not positive"));
    }
    let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
    let ratio = (run_s - attributed) / run_s;
    // Timer reads straddling a layer boundary can overshoot by a few
    // nanoseconds per call; anything beyond that is double counting.
    if ratio < -1e-6 {
        return Err(format!("layers sum to {attributed:.6} s, more than run_s {run_s:.6} s"));
    }
    if ratio > MAX_UNATTRIBUTED_RATIO {
        return Err(format!(
            "bench.unattributed_ratio {ratio:.4} exceeds {MAX_UNATTRIBUTED_RATIO}: the layers \
             explain only {attributed:.6} of {run_s:.6} s"
        ));
    }
    Ok(ratio.max(0.0))
}

/// FNV-1a, the digest over a run's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentile_needs_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
        assert_eq!(percentile(&ramp(101), 0.9), Some(91.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&ramp(10)), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn ledger_passes_when_layers_explain_the_run() {
        let layers = [("server.admit_s", 7.0), ("frontend.busy_s", 2.0), ("sim.queue_s", 0.9)];
        let ratio = ledger_check(&layers, 10.0).unwrap();
        assert!((ratio - 0.01).abs() < 1e-12, "{ratio}");
    }

    #[test]
    fn ledger_fails_on_too_much_unattributed_time() {
        let layers = [("server.admit_s", 7.0), ("frontend.busy_s", 2.0)];
        let err = ledger_check(&layers, 10.0).unwrap_err();
        assert!(err.contains("bench.unattributed_ratio"), "{err}");
    }

    #[test]
    fn ledger_fails_when_layers_overcount() {
        let layers = [("server.admit_s", 7.0), ("durable.storage_s", 3.5)];
        assert!(ledger_check(&layers, 10.0).is_err());
        assert!(ledger_check(&layers, 0.0).is_err());
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let digest = |vals: &[f64]| {
            let mut h = Fnv::default();
            vals.iter().for_each(|&v| h.f64(v));
            h.finish()
        };
        assert_eq!(digest(&[1.0, 2.0]), digest(&[1.0, 2.0]));
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        let mut empty = Fnv::default();
        empty.bytes(b"");
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
    }
}
