//! Off-chip DRAM model: one sustained bandwidth and one transfer-time
//! formula, shared by the TransArray and every baseline so memory effects
//! never bias the comparison (§5.1's methodology).

/// Sustained DRAM bandwidth in bytes per accelerator cycle (≈128 GB/s at
/// 500 MHz).
pub const DRAM_BYTES_PER_CYCLE: f64 = 256.0;

/// Memory-channel cycles to move `bytes` at [`DRAM_BYTES_PER_CYCLE`]
/// (not rounded to bursts).
///
/// # Examples
///
/// ```
/// use ta_sim::dram_cycles;
///
/// assert_eq!(dram_cycles(0), 0);
/// assert_eq!(dram_cycles(257), 2);
/// ```
pub fn dram_cycles(bytes: u64) -> u64 {
    (bytes as f64 / DRAM_BYTES_PER_CYCLE).ceil() as u64
}

/// A burst-granularity DRAM request counter.
#[derive(Debug, Clone, PartialEq)]
pub struct DramModel {
    burst_bytes: u64,
    /// Logical transfer requests: one per [`DramModel::transfer`] call.
    requests: u64,
    /// Burst-granularity beats those requests decomposed into.
    bursts: u64,
}

impl DramModel {
    /// Creates a model with the given burst granularity.
    ///
    /// # Panics
    ///
    /// Panics if the burst size is zero.
    pub fn new(burst_bytes: u64) -> Self {
        assert!(burst_bytes > 0, "burst size must be non-zero");
        Self { burst_bytes, requests: 0, bursts: 0 }
    }

    /// The paper-scale default: 64-byte bursts.
    pub fn paper_default() -> Self {
        Self::new(64)
    }

    /// Records a transfer of `bytes` (rounded up to bursts) and returns
    /// the cycles the burst-rounded bytes occupy on the memory channel.
    ///
    /// Accounting: the call is **one request**; its burst-rounded beats
    /// accumulate separately in [`DramModel::bursts`].
    pub fn transfer(&mut self, bytes: u64) -> u64 {
        let bursts = bytes.div_ceil(self.burst_bytes);
        self.requests += 1;
        self.bursts += bursts;
        dram_cycles(bursts * self.burst_bytes)
    }

    /// Transfer requests recorded (one per [`DramModel::transfer`] call).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Burst beats recorded (each request's bytes rounded up to
    /// [`burst_bytes`](Self::new)-sized beats).
    pub fn bursts(&self) -> u64 {
        self.bursts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_rounds_to_bursts() {
        let mut d = DramModel::new(64);
        let cycles = d.transfer(257);
        assert_eq!(cycles, 2, "five 64 B bursts = 320 B = two 256 B cycles");
        assert_eq!(d.requests(), 1, "one transfer call = one request");
        assert_eq!(d.bursts(), 5);
    }

    #[test]
    fn requests_and_bursts_tracked_separately() {
        let mut d = DramModel::new(64);
        d.transfer(64); // 1 burst
        d.transfer(400); // 7 bursts
        d.transfer(1); // 1 burst
        assert_eq!(d.requests(), 3);
        assert_eq!(d.bursts(), 9);
    }

    #[test]
    #[should_panic(expected = "burst size must be non-zero")]
    fn zero_burst_rejected() {
        let _ = DramModel::new(0);
    }
}
