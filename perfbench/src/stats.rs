//! Sample statistics, report digests and the host-memory reading.

use ta_core::GemmReport;

/// The 1-based nearest rank of percentile `p` (0–100) among `n` samples,
/// with slack for `p / 100 * n` landing a rounding error above an integer.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The percentiles a tail metric may use, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest reportable percentile of `n` samples: the highest of
/// p99.9, p99, p90 and p50 that has at least ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// A sample sorted once, read at several percentiles.
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    /// The percentile, or `None` when fewer than ten samples lie beyond it
    /// (the reporting rule: a tail needs ten samples past it).
    pub fn tail(&self, p: f64) -> Option<f64> {
        (samples_beyond(self.0.len(), p) >= 10).then(|| percentile(&self.0, p))
    }

    /// The median (any non-empty sample supports it).
    pub fn median(&self) -> f64 {
        percentile(&self.0, 50.0)
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

/// Nearest-rank lower quartile (p25) of an unsorted, non-empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(&Sample::new(values.to_vec()).0, 25.0)
}

/// FNV-1a over 64-bit words: the digest of simulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the simulated statistics of one report: cycles, ops, dense
    /// ops, the energy total's bit pattern and the sub-tiles simulated.
    pub fn report(&mut self, r: &GemmReport) {
        for w in [
            r.cycles,
            r.total_ops,
            r.dense_bit_ops,
            r.energy.total().to_bits(),
            r.subtiles_simulated,
        ] {
            self.word(w);
        }
    }

    pub fn of(r: &GemmReport) -> Self {
        let mut d = Self::default();
        d.report(r);
        d
    }
}

/// Peak resident set size (`VmHWM`) in MiB from a `/proc/<pid>/status` text.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_peak_rss_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        let s = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.tail(90.0), Some(90.0), "ten samples (91..=100) lie beyond");
        assert_eq!(s.tail(99.0), None);
        assert_eq!(s.median(), 50.0);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&twenty), 5.0);
        assert_eq!(median(&twenty), 10.0);
    }

    #[test]
    fn peak_rss_reader_parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t    20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(20.0));
        assert_eq!(parse_peak_rss_mib("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0), "this process has a peak RSS");
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.word(1);
        c.word(2);
        assert_eq!(a, c);
    }
}
