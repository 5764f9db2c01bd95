//! TransArray configuration — Table 1's design point plus the knobs the
//! design-space exploration sweeps, and the validating [`ConfigBuilder`]
//! front door.

use crate::error::ConfigError;
use ta_hasse::{ScoreboardConfig, MAX_DISTANCE};

/// Which Scoreboard supplies the SI (§3.3 / §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScoreboardMode {
    /// Per-sub-tile private SI generated by the hardware Scoreboard unit.
    #[default]
    Dynamic,
    /// One tensor-level SI shared by every tile (prefetched from DRAM; no
    /// Scoreboard unit, ~25% core-area saving, but SI misses).
    Static,
}

/// Full accelerator configuration. Defaults reproduce Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TransArrayConfig {
    /// TransRow width `T` (Table 1: 8).
    pub width: u32,
    /// Maximum TransRows per sub-tile (Table 1: 256).
    pub max_transrows: usize,
    /// Weight precision `S` in bits (8 → N=32 weight rows/tile, 4 → N=64).
    pub weight_bits: u32,
    /// Activation precision in bits (Table 1: 8).
    pub act_bits: u32,
    /// TransArray units on the chip (Table 2: 6).
    pub units: usize,
    /// Input-tile columns `M` processed per sub-tile pass (Table 1: 32).
    pub m_tile: usize,
    /// Scoreboard distance cap (Fig. 6 hardware: 4; supported range
    /// `1..=17`).
    pub max_distance: u8,
    /// Static or dynamic SI.
    pub scoreboard_mode: ScoreboardMode,
    /// Per-unit weight buffer (KB, Table 1: 8).
    pub weight_buf_kb: f64,
    /// Per-unit input buffer (KB, Table 1: 8).
    pub input_buf_kb: f64,
    /// Per-unit output buffer (KB, Table 1: 22).
    pub output_buf_kb: f64,
    /// Per-unit prefix buffer (KB, Table 1: 18).
    pub prefix_buf_kb: f64,
    /// Per-unit double buffer (KB, Table 1: 24).
    pub double_buf_kb: f64,
    /// Cap on exactly-simulated sub-tiles per layer; beyond it the
    /// simulator samples deterministically and extrapolates (DESIGN.md
    /// §3). `0` disables sampling.
    pub sample_limit: usize,
    /// Host worker threads for the tile-execution runtime: `1` runs the
    /// sub-tile grid serially (the default), `0` uses one worker per
    /// available core, `n` uses exactly `n` workers. Parallel runs are
    /// **bit-exact** against the serial path — per-worker aggregates are
    /// merged in a fixed shard order (see `runtime`).
    pub threads: usize,
    /// Plan-cache capacity in entries: `0` (the default) disables the
    /// cache, `n` memoizes up to `n` post-scoreboard plans behind a
    /// canonical permutation-invariant key over each sub-tile's pattern
    /// multiset (LRU eviction; see `ta_hasse::PlanCache`). Cached and
    /// freshly-planned results are **bit-identical** — the cache changes
    /// wall time only, never a report. Shared by every worker thread of
    /// one session and by every request of a `Session::run_batch`; its
    /// shard count is `ta_hasse::SharedPlanCache::new`'s automatic one.
    /// `TA_PLAN_CACHE` overrides the knob in the bench binaries.
    pub plan_cache: usize,
}

impl TransArrayConfig {
    /// Table 1's deployed design point with 8-bit weights.
    pub fn paper_w8() -> Self {
        Self {
            width: 8,
            max_transrows: 256,
            weight_bits: 8,
            act_bits: 8,
            units: 6,
            m_tile: 32,
            max_distance: 4,
            scoreboard_mode: ScoreboardMode::Dynamic,
            weight_buf_kb: 8.0,
            input_buf_kb: 8.0,
            output_buf_kb: 22.0,
            prefix_buf_kb: 18.0,
            double_buf_kb: 24.0,
            sample_limit: 2048,
            threads: 1,
            plan_cache: 0,
        }
    }

    /// Starts a validating [`ConfigBuilder`] from this design point.
    pub fn to_builder(self) -> ConfigBuilder {
        ConfigBuilder { cfg: self }
    }

    /// Starts a validating [`ConfigBuilder`] from the Table 1 W8 design
    /// point — the recommended way to derive a configuration.
    pub fn builder() -> ConfigBuilder {
        Self::paper_w8().to_builder()
    }

    /// Table 1's design point with 4-bit weights (`N = 64` rows/tile).
    pub fn paper_w4() -> Self {
        Self { weight_bits: 4, ..Self::paper_w8() }
    }

    /// Weight rows covered by one sub-tile: `max_transrows / weight_bits`
    /// (Table 1: 32 for 8-bit, 64 for 4-bit).
    pub fn n_tile(&self) -> usize {
        self.max_transrows / self.weight_bits as usize
    }

    /// Activation-precision throughput split (§4.5): the 12-bit PPE /
    /// 24-bit APE pair splits into two 6-bit / 12-bit halves for 4-bit
    /// activations, doubling the input columns processed per cycle.
    /// Returns 2 for ≤4-bit activations, 1 otherwise.
    pub fn act_split(&self) -> usize {
        if self.act_bits <= 4 {
            2
        } else {
            1
        }
    }

    /// Per-unit on-chip buffer (KB, Table 1: 80).
    pub fn unit_buffer_kb(&self) -> f64 {
        self.weight_buf_kb
            + self.input_buf_kb
            + self.output_buf_kb
            + self.prefix_buf_kb
            + self.double_buf_kb
    }

    /// Chip-level buffer (KB; Table 2 gives 480 for 6 units).
    pub fn total_buffer_kb(&self) -> f64 {
        self.unit_buffer_kb() * self.units as f64
    }

    /// The Scoreboard configuration this accelerator runs.
    pub fn scoreboard_config(&self) -> ScoreboardConfig {
        ScoreboardConfig {
            max_distance: self.max_distance,
            ..ScoreboardConfig::with_width(self.width)
        }
    }

    /// Validates internal consistency, returning the first violated
    /// constraint — what [`ConfigBuilder::build`] and
    /// [`crate::Session::new`] call.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the offending knob.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if !(1..=16).contains(&self.width) {
            return Err(ConfigError::WidthOutOfRange { width: self.width });
        }
        if !(1..=MAX_DISTANCE).contains(&usize::from(self.max_distance)) {
            return Err(ConfigError::MaxDistanceOutOfRange { max_distance: self.max_distance });
        }
        if self.max_transrows == 0 {
            return Err(ConfigError::ZeroTransrows);
        }
        if !(2..=16).contains(&self.weight_bits) {
            return Err(ConfigError::WeightBitsOutOfRange { bits: self.weight_bits });
        }
        if !self.max_transrows.is_multiple_of(self.weight_bits as usize) {
            return Err(ConfigError::IndivisibleTransrows {
                max_transrows: self.max_transrows,
                weight_bits: self.weight_bits,
            });
        }
        if !(2..=16).contains(&self.act_bits) {
            return Err(ConfigError::ActBitsOutOfRange { bits: self.act_bits });
        }
        if self.units == 0 {
            return Err(ConfigError::ZeroUnits);
        }
        if self.m_tile == 0 {
            return Err(ConfigError::ZeroMTile);
        }
        Ok(())
    }
}

/// Validating builder for [`TransArrayConfig`] — the front door of the
/// request–response API. Poked fields are only checked when a
/// [`crate::Session`] opens; [`ConfigBuilder::build`] checks every knob
/// up front and returns `Result<TransArrayConfig, ConfigError>`.
///
/// # Examples
///
/// ```
/// use ta_core::{ConfigError, TransArrayConfig};
///
/// let cfg = TransArrayConfig::builder()
///     .threads(2)
///     .plan_cache(4096)
///     .sample_limit(64)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.threads, 2);
///
/// let err = TransArrayConfig::builder().units(0).build().unwrap_err();
/// assert_eq!(err, ConfigError::ZeroUnits);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    cfg: TransArrayConfig,
}

impl ConfigBuilder {
    /// TransRow width `T` (Table 1: 8; supported range `1..=16`).
    pub fn width(mut self, width: u32) -> Self {
        self.cfg.width = width;
        self
    }

    /// Maximum TransRows per sub-tile (must divide into `weight_bits`).
    pub fn max_transrows(mut self, max_transrows: usize) -> Self {
        self.cfg.max_transrows = max_transrows;
        self
    }

    /// Weight precision in bits (`2..=16`).
    pub fn weight_bits(mut self, weight_bits: u32) -> Self {
        self.cfg.weight_bits = weight_bits;
        self
    }

    /// Activation precision in bits (`2..=16`).
    pub fn act_bits(mut self, act_bits: u32) -> Self {
        self.cfg.act_bits = act_bits;
        self
    }

    /// TransArray units on the chip (≥ 1).
    pub fn units(mut self, units: usize) -> Self {
        self.cfg.units = units;
        self
    }

    /// Input-tile columns processed per sub-tile pass (≥ 1).
    pub fn m_tile(mut self, m_tile: usize) -> Self {
        self.cfg.m_tile = m_tile;
        self
    }

    /// Scoreboard distance cap (Fig. 6 hardware: 4; supported range
    /// `1..=17`).
    pub fn max_distance(mut self, max_distance: u8) -> Self {
        self.cfg.max_distance = max_distance;
        self
    }

    /// Static or dynamic SI.
    pub fn scoreboard_mode(mut self, mode: ScoreboardMode) -> Self {
        self.cfg.scoreboard_mode = mode;
        self
    }

    /// Cap on exactly-simulated sub-tiles per layer (`0` = simulate all).
    pub fn sample_limit(mut self, sample_limit: usize) -> Self {
        self.cfg.sample_limit = sample_limit;
        self
    }

    /// Host worker threads (`1` = serial, `0` = one per core). Parallel
    /// runs stay bit-exact against serial ones.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Plan-cache capacity in entries (`0` = off).
    pub fn plan_cache(mut self, plan_cache: usize) -> Self {
        self.cfg.plan_cache = plan_cache;
        self
    }

    /// Validates every knob and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn build(self) -> Result<TransArrayConfig, ConfigError> {
        self.cfg.try_validate()?;
        Ok(self.cfg)
    }
}

impl Default for TransArrayConfig {
    fn default() -> Self {
        Self::paper_w8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_w8_design_point() {
        let c = TransArrayConfig::paper_w8();
        c.try_validate().unwrap();
        assert_eq!(c.width, 8);
        assert_eq!(c.max_transrows, 256);
        assert_eq!(c.n_tile(), 32);
        assert_eq!(c.m_tile, 32);
        assert_eq!(c.unit_buffer_kb(), 80.0);
        assert_eq!(c.total_buffer_kb(), 480.0);
    }

    #[test]
    fn table1_w4_design_point() {
        let c = TransArrayConfig::paper_w4();
        c.try_validate().unwrap();
        assert_eq!(c.n_tile(), 64);
    }

    #[test]
    fn scoreboard_config_propagates() {
        let c = TransArrayConfig::paper_w8();
        let sc = c.scoreboard_config();
        assert_eq!(sc.width, 8);
        assert_eq!(sc.max_distance, 4);
        assert_eq!(sc.effective_lanes(), 8);
    }

    #[test]
    fn threads_knob_defaults_serial() {
        assert_eq!(TransArrayConfig::paper_w8().threads, 1);
        let four = TransArrayConfig::builder().threads(4).build().unwrap();
        assert_eq!(four.threads, 4);
        TransArrayConfig::builder().threads(0).build().unwrap().try_validate().unwrap();
    }

    #[test]
    fn plan_cache_knob_defaults_off() {
        assert_eq!(TransArrayConfig::paper_w8().plan_cache, 0);
        let on = TransArrayConfig::builder().plan_cache(4096).build().unwrap();
        assert_eq!(on.plan_cache, 4096);
        on.try_validate().unwrap();
    }

    #[test]
    fn try_validate_reports_each_violation() {
        use crate::error::ConfigError;
        let base = TransArrayConfig::paper_w8;
        let cases: [(TransArrayConfig, ConfigError); 5] = [
            (TransArrayConfig { width: 17, ..base() }, ConfigError::WidthOutOfRange { width: 17 }),
            (TransArrayConfig { max_transrows: 0, ..base() }, ConfigError::ZeroTransrows),
            (
                TransArrayConfig { max_transrows: 100, ..base() },
                ConfigError::IndivisibleTransrows { max_transrows: 100, weight_bits: 8 },
            ),
            (TransArrayConfig { units: 0, ..base() }, ConfigError::ZeroUnits),
            (TransArrayConfig { m_tile: 0, ..base() }, ConfigError::ZeroMTile),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.try_validate().unwrap_err(), want);
        }
        base().try_validate().unwrap();
    }

    #[test]
    fn max_distance_outside_the_scoreboard_range_is_rejected() {
        for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
            let builder = TransArrayConfig::builder().scoreboard_mode(mode);
            for max_distance in [0, MAX_DISTANCE as u8 + 1, 200] {
                assert_eq!(
                    builder.clone().max_distance(max_distance).build().unwrap_err(),
                    ConfigError::MaxDistanceOutOfRange { max_distance },
                    "{mode:?}"
                );
            }
            for max_distance in 1..=MAX_DISTANCE as u8 {
                builder.clone().max_distance(max_distance).build().unwrap();
            }
        }
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = TransArrayConfig::builder()
            .width(4)
            .max_transrows(16)
            .weight_bits(4)
            .act_bits(4)
            .units(2)
            .m_tile(8)
            .max_distance(3)
            .scoreboard_mode(ScoreboardMode::Static)
            .sample_limit(64)
            .threads(2)
            .plan_cache(128)
            .build()
            .unwrap();
        assert_eq!(
            cfg,
            TransArrayConfig {
                width: 4,
                max_transrows: 16,
                weight_bits: 4,
                act_bits: 4,
                units: 2,
                m_tile: 8,
                max_distance: 3,
                scoreboard_mode: ScoreboardMode::Static,
                sample_limit: 64,
                threads: 2,
                plan_cache: 128,
                ..TransArrayConfig::paper_w8()
            }
        );
    }
}
