//! Error types for the public request–response API.
//!
//! Everything reachable from [`crate::Session`] returns [`TaError`]
//! instead of panicking: a request [`crate::Session::validate`] accepts
//! runs to an `Ok` or a typed error. Panics remain only for internal
//! invariant violations (a computed pattern missing from the slab).

use std::error::Error;
use std::fmt;

use ta_hasse::MAX_DISTANCE;

/// A configuration rejected by [`crate::ConfigBuilder`] (or by
/// [`crate::TransArrayConfig::try_validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// TransRow width outside the supported `1..=16` range.
    WidthOutOfRange {
        /// The rejected width.
        width: u32,
    },
    /// Scoreboard distance cap outside `1..=`[`MAX_DISTANCE`] (17), the
    /// range the Scoreboard supports.
    MaxDistanceOutOfRange {
        /// The rejected cap.
        max_distance: u8,
    },
    /// `max_transrows` was zero.
    ZeroTransrows,
    /// `max_transrows` is not a multiple of `weight_bits`, so weight rows
    /// cannot be sliced into whole TransRow groups.
    IndivisibleTransrows {
        /// The rejected row count.
        max_transrows: usize,
        /// The weight precision it must divide into.
        weight_bits: u32,
    },
    /// Weight precision outside `2..=16`.
    WeightBitsOutOfRange {
        /// The rejected precision.
        bits: u32,
    },
    /// Activation precision outside `2..=16`.
    ActBitsOutOfRange {
        /// The rejected precision.
        bits: u32,
    },
    /// The accelerator needs at least one TransArray unit.
    ZeroUnits,
    /// `m_tile` was zero.
    ZeroMTile,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WidthOutOfRange { width } => {
                write!(f, "width {width} out of range: must be in 1..=16")
            }
            Self::MaxDistanceOutOfRange { max_distance } => {
                write!(f, "max_distance {max_distance} out of range: must be in 1..={MAX_DISTANCE}")
            }
            Self::ZeroTransrows => write!(f, "max_transrows must be non-zero"),
            Self::IndivisibleTransrows { max_transrows, weight_bits } => write!(
                f,
                "max_transrows ({max_transrows}) must divide into weight_bits ({weight_bits})"
            ),
            Self::WeightBitsOutOfRange { bits } => {
                write!(f, "weight_bits {bits} out of range: must be in 2..=16")
            }
            Self::ActBitsOutOfRange { bits } => {
                write!(f, "act_bits {bits} out of range: must be in 2..=16")
            }
            Self::ZeroUnits => write!(f, "need at least one unit"),
            Self::ZeroMTile => write!(f, "m_tile must be non-zero"),
        }
    }
}

impl Error for ConfigError {}

/// Any error the request–response API ([`crate::Session`]) can return.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TaError {
    /// The accelerator configuration is invalid.
    Config(ConfigError),
    /// GEMM inner dimension mismatch: `weights.cols() != input.rows()`.
    ShapeMismatch {
        /// Columns of the weight matrix (the inner dimension `K`).
        weight_cols: usize,
        /// Rows of the input matrix (must equal `weight_cols`).
        input_rows: usize,
    },
    /// The input matrix does not fit the configured activation precision.
    InputRange {
        /// The configured activation precision in bits.
        act_bits: u32,
    },
    /// The weight matrix does not fit the configured weight precision.
    WeightRange {
        /// The configured weight precision in bits.
        weight_bits: u32,
    },
    /// A simulate request's pattern source disagrees with the
    /// accelerator's TransRow width.
    SourceWidthMismatch {
        /// The source's TransRow width.
        source: u32,
        /// The accelerator's TransRow width.
        accelerator: u32,
    },
    /// A simulate request's pattern source emitted a pattern with bits
    /// set above the TransRow width (reported for the first such pattern
    /// of the first offending sub-tile in walk order).
    PatternOutOfRange {
        /// The offending pattern.
        pattern: u16,
        /// The accelerator's TransRow width.
        width: u32,
    },
    /// A GEMM dimension is zero (e.g. an input with no columns): there is
    /// nothing to tile.
    EmptyOperand {
        /// Weight rows.
        n: usize,
        /// Reduction dimension.
        k: usize,
        /// Input columns.
        m: usize,
    },
    /// An execute request's exact result does not fit the `i32` output
    /// (reported for the first such element in row-major order).
    AccumulatorOverflow {
        /// Output row of the element.
        row: usize,
        /// Output column of the element.
        col: usize,
        /// The exact (i64) value that does not fit.
        value: i64,
    },
}

impl TaError {
    /// A stable snake_case tag naming this error's variant, for log
    /// lines, metrics labels, and machine-readable error taxonomies.
    /// Serving-layer error types (ta-serve's `ServeError`) wrap
    /// `TaError` for validation failures and lean on this tag when
    /// classifying rejections, so the strings here are a compatibility
    /// surface: add new tags freely, never rename existing ones.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Config(_) => "config",
            Self::ShapeMismatch { .. } => "shape_mismatch",
            Self::InputRange { .. } => "input_range",
            Self::WeightRange { .. } => "weight_range",
            Self::SourceWidthMismatch { .. } => "source_width_mismatch",
            Self::PatternOutOfRange { .. } => "pattern_out_of_range",
            Self::EmptyOperand { .. } => "empty_operand",
            Self::AccumulatorOverflow { .. } => "accumulator_overflow",
        }
    }
}

impl fmt::Display for TaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::ShapeMismatch { weight_cols, input_rows } => write!(
                f,
                "GEMM inner dimension mismatch: weights have {weight_cols} columns but the \
                 input has {input_rows} rows"
            ),
            Self::InputRange { act_bits } => {
                write!(f, "input does not fit act_bits ({act_bits}); quantize first")
            }
            Self::WeightRange { weight_bits } => {
                write!(f, "weights do not fit weight_bits ({weight_bits}); quantize first")
            }
            Self::SourceWidthMismatch { source, accelerator } => write!(
                f,
                "source width mismatch: source emits width-{source} patterns but the \
                 accelerator runs width {accelerator}"
            ),
            Self::PatternOutOfRange { pattern, width } => {
                write!(f, "pattern {pattern:#b} from the source exceeds the TransRow width {width}")
            }
            Self::EmptyOperand { n, k, m } => {
                write!(f, "empty GEMM operand: shape {n}x{k}x{m} has a zero dimension")
            }
            Self::AccumulatorOverflow { row, col, value } => {
                write!(f, "output ({row}, {col}) = {value} overflows i32")
            }
        }
    }
}

impl Error for TaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for TaError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_knob() {
        let e = ConfigError::IndivisibleTransrows { max_transrows: 100, weight_bits: 8 };
        assert!(e.to_string().contains("must divide"));
        let e = TaError::AccumulatorOverflow { row: 0, col: 3, value: 1 << 32 };
        assert!(e.to_string().contains("4294967296") && e.to_string().contains("(0, 3)"));
        let e = TaError::ShapeMismatch { weight_cols: 3, input_rows: 4 };
        assert!(e.to_string().contains("inner dimension mismatch"));
    }

    #[test]
    fn kind_tags_are_stable_snake_case() {
        let cases = [
            (TaError::Config(ConfigError::ZeroUnits), "config"),
            (TaError::ShapeMismatch { weight_cols: 1, input_rows: 2 }, "shape_mismatch"),
            (TaError::InputRange { act_bits: 8 }, "input_range"),
            (TaError::WeightRange { weight_bits: 4 }, "weight_range"),
            (TaError::SourceWidthMismatch { source: 4, accelerator: 8 }, "source_width_mismatch"),
            (TaError::PatternOutOfRange { pattern: 0x1ff, width: 8 }, "pattern_out_of_range"),
            (TaError::EmptyOperand { n: 4, k: 8, m: 0 }, "empty_operand"),
            (
                TaError::AccumulatorOverflow { row: 0, col: 0, value: 1 << 31 },
                "accumulator_overflow",
            ),
        ];
        for (err, tag) in cases {
            assert_eq!(err.kind(), tag);
            assert!(tag.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn ta_error_wraps_config_error_as_source() {
        let e = TaError::from(ConfigError::ZeroUnits);
        assert!(matches!(e, TaError::Config(ConfigError::ZeroUnits)));
        assert!(Error::source(&e).is_some());
        assert!(e.to_string().contains("at least one unit"));
    }
}
