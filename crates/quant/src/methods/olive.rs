//! OliVe's quantization: outlier-victim pair encoding.
//!
//! OliVe (ISCA'23, by the same first author) quantizes the tensor body at
//! low precision and handles the rare large outliers by *sacrificing the
//! adjacent value* (the "victim"): the outlier is stored with an extended
//! (power-of-two "abfloat"-style) encoding in the two slots, and the
//! victim's value is dropped to zero. This keeps memory layout aligned and
//! hardware simple while preserving the outliers that dominate LLM
//! accuracy.
//!
//! This emulation reproduces that arithmetic: body values get per-channel
//! symmetric int quantization calibrated on the non-outlier body, outliers
//! are snapped to a power-of-two grid (sign · 2^e with e in a small range),
//! and each outlier's right neighbor is zeroed.

use crate::matrix::MatF32;
use crate::methods::QuantMethod;

/// Outlier-victim pair quantizer (8-bit body by default, as Table 3 runs
/// it on LLaMA FC layers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OliveQuant {
    bits: u32,
    /// Multiple of the body absmax above which a value counts as an
    /// outlier. OliVe finds <0.1% of values qualify on LLMs.
    outlier_threshold_sigma: f32,
}

impl OliveQuant {
    /// Creates the 8-bit outlier-victim method with the default outlier
    /// threshold (4 standard deviations of the channel body).
    pub fn new() -> Self {
        Self { bits: 8, outlier_threshold_sigma: 4.0 }
    }

    fn qmax(&self) -> f32 {
        ((1i32 << (self.bits - 1)) - 1) as f32
    }

    fn quantize_rowwise(&self, t: &MatF32) -> MatF32 {
        let qmax = self.qmax();
        let mut out = MatF32::zeros(t.rows(), t.cols());
        for r in 0..t.rows() {
            let row = t.row(r);
            if row.is_empty() {
                continue;
            }
            // Channel statistics for outlier detection.
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 =
                row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
            let sigma = var.sqrt();
            let thr = self.outlier_threshold_sigma * sigma.max(f32::MIN_POSITIVE);

            // Body scale calibrated on non-outliers only.
            let body_max = row
                .iter()
                .filter(|&&v| (v - mean).abs() <= thr)
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if body_max == 0.0 { 1.0 } else { body_max / qmax };

            let mut c = 0;
            while c < row.len() {
                let v = row[c];
                if (v - mean).abs() > thr {
                    // Outlier: adaptive-biased-float encoding (4-bit
                    // mantissa, wide exponent), victim (next element)
                    // zeroed.
                    out.set(r, c, abfloat_snap(v));
                    if c + 1 < row.len() {
                        out.set(r, c + 1, 0.0);
                        c += 2;
                        continue;
                    }
                } else {
                    let q = (v / scale).round().clamp(-qmax, qmax);
                    out.set(r, c, q * scale);
                }
                c += 1;
            }
        }
        out
    }
}

impl Default for OliveQuant {
    fn default() -> Self {
        Self::new()
    }
}

/// Snaps `v` onto OliVe's "adaptive biased float" grid: sign · (1 + m/8) ·
/// 2^e with a 3-bit mantissa `m` and unbounded exponent reach (relative
/// error ≤ 1/16 ≈ 6%, typically ~3%). Outliers keep almost all of their
/// magnitude, which is the whole point of the outlier-victim trade.
fn abfloat_snap(v: f32) -> f32 {
    if v == 0.0 {
        return 0.0;
    }
    let mag = v.abs();
    let e = mag.log2().floor();
    let base = e.exp2();
    let frac = mag / base; // in [1, 2)
    let m = (frac * 8.0).round() / 8.0;
    v.signum() * m * base
}

impl QuantMethod for OliveQuant {
    fn name(&self) -> &str {
        "OL"
    }

    fn weight_bits(&self) -> u32 {
        self.bits
    }

    fn act_bits(&self) -> u32 {
        self.bits
    }

    fn quantize_weight(&self, w: &MatF32) -> MatF32 {
        self.quantize_rowwise(w)
    }

    fn quantize_activation(&self, a: &MatF32) -> MatF32 {
        // Activations are quantized along feature rows too; OliVe's
        // hardware treats both symmetrically.
        self.quantize_rowwise(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::nmse;
    use crate::methods::BitFusionQuant;

    #[test]
    fn abfloat_snap_behaviour() {
        assert_eq!(abfloat_snap(0.0), 0.0);
        assert_eq!(abfloat_snap(8.0), 8.0);
        assert_eq!(abfloat_snap(-8.0), -8.0);
        // Relative error of the 3-bit-mantissa grid is ≤ 1/16.
        for v in [3.3f32, 100.0, 300.0, -77.7, 1e4] {
            let s = abfloat_snap(v);
            assert!(((s - v) / v).abs() <= 1.0 / 16.0, "{v} -> {s}");
        }
    }

    #[test]
    fn outliers_preserved_body_fine() {
        // Body large enough that per-tensor resolution loss dominates the
        // comparison (as in real layers, where outliers are <0.1%).
        let mut w = MatF32::from_fn(16, 256, |r, c| ((r * 256 + c) as f32 * 0.37).sin());
        w.set(0, 10, 300.0);
        let q = OliveQuant::new().quantize_weight(&w);
        // Outlier keeps almost all of its magnitude.
        assert!((q.get(0, 10) - 300.0).abs() <= 300.0 / 16.0);
        // Victim is zeroed.
        assert_eq!(q.get(0, 11), 0.0);
        // Body stays fine-grained: much better than per-tensor int8.
        let bf = BitFusionQuant::new(8).quantize_weight(&w);
        assert!(nmse(&w, &q) < nmse(&w, &bf) / 2.0);
    }

    #[test]
    fn clean_tensor_near_lossless() {
        let w = MatF32::from_fn(8, 32, |r, c| ((r + c) as f32 * 0.21).cos());
        let q = OliveQuant::new().quantize_weight(&w);
        assert!(nmse(&w, &q) < 1e-3);
    }

    #[test]
    fn empty_rows_no_panic() {
        let w = MatF32::zeros(3, 0);
        let q = OliveQuant::new().quantize_weight(&w);
        assert_eq!(q.rows(), 3);
        assert_eq!(q.cols(), 0);
    }
}
