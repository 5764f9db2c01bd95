//! Experiment scale control: full paper-scale runs vs quick smoke runs.

/// How much work each experiment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Random tiles averaged per design point (Fig. 9 / Fig. 13 sweeps).
    pub tiles: usize,
    /// Sub-tile sampling cap for layer simulations (Fig. 10/12/14).
    pub sample_limit: usize,
    /// Matrix side used by the Table 3 accuracy study.
    pub accuracy_dim: usize,
}

impl Scale {
    /// Paper-scale settings.
    pub fn full() -> Self {
        Self { tiles: 16, sample_limit: 1024, accuracy_dim: 192 }
    }

    /// Smoke-test settings (CI).
    pub fn quick() -> Self {
        Self { tiles: 3, sample_limit: 96, accuracy_dim: 64 }
    }

    /// `(n, k, m)` of the functional-execution bench GEMM
    /// (`l7b_qproj_exec`): an LLaMA-7B `q_proj`-shaped layer scaled down
    /// so the exact bit-level functional engine finishes in bench time —
    /// full scale keeps the paper's 32 sub-tile columns per k-chunk
    /// aspect, quick scale shrinks further for CI.
    pub fn exec_shape(&self) -> (usize, usize, usize) {
        if *self == Self::full() {
            (512, 512, 128)
        } else if *self == Self::quick() {
            (128, 128, 64)
        } else {
            // Custom (test) scales stay tiny: the exact functional engine
            // is measured, not stressed, in unit tests.
            (64, 64, 16)
        }
    }

    /// Parses a `TA_SCALE` value. Unknown values are an **error**, not a
    /// silent default: a typo'd `TA_SCALE=qiuck` used to fall through to
    /// the multi-minute full-scale run.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message listing the accepted values for
    /// anything other than `quick`/`smoke`/`full`.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.trim() {
            "quick" | "smoke" => Ok(Self::quick()),
            "full" => Ok(Self::full()),
            other => Err(format!(
                "unrecognized TA_SCALE value '{other}': expected 'quick' (alias 'smoke') or 'full'"
            )),
        }
    }

    /// The scale's canonical name (`"quick"` or `"full"`; custom scales
    /// report as `"custom"`). Recorded in bench JSON so baselines are
    /// only compared at matching scales.
    pub fn name(&self) -> &'static str {
        if *self == Self::quick() {
            "quick"
        } else if *self == Self::full() {
            "full"
        } else {
            "custom"
        }
    }

    /// Reads `TA_SCALE=quick|full` from the environment (default full). A
    /// `--smoke` or `--quick` CLI argument also selects [`Scale::quick`], so
    /// `cargo run -p ta-bench --bin all -- --smoke` works without env setup.
    /// Any other argument — and any unknown `TA_SCALE` value — is rejected:
    /// the figure binaries take nothing else, and silently ignoring a typo
    /// would run the multi-minute full-scale simulation instead of the
    /// intended smoke run.
    ///
    /// # Errors
    ///
    /// Returns the diagnostic message for an unrecognized CLI argument or
    /// an invalid `TA_SCALE` value. Library code must use this (or
    /// [`Scale::resolve`]) — only binaries may turn the error into an
    /// exit, via [`Scale::from_env`].
    pub fn try_from_env() -> Result<Self, String> {
        Self::resolve(std::env::args().skip(1), std::env::var("TA_SCALE"))
    }

    /// The pure resolution behind [`Scale::try_from_env`]: CLI arguments
    /// (`--smoke`/`--quick` win) plus the raw `TA_SCALE` lookup result.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for unknown arguments or values.
    pub fn resolve(
        args: impl IntoIterator<Item = String>,
        scale_var: Result<String, std::env::VarError>,
    ) -> Result<Self, String> {
        let mut quick = false;
        for arg in args {
            match arg.as_str() {
                "--smoke" | "--quick" => quick = true,
                other => {
                    return Err(format!(
                        "unrecognized argument '{other}' (expected --smoke or --quick)"
                    ));
                }
            }
        }
        if quick {
            return Ok(Self::quick());
        }
        match scale_var {
            Err(std::env::VarError::NotPresent) => Ok(Self::full()),
            Err(std::env::VarError::NotUnicode(_)) => {
                Err("TA_SCALE is not valid unicode".to_string())
            }
            Ok(value) => Self::parse(&value),
        }
    }

    /// [`Scale::try_from_env`] for the figure **binaries**: prints the
    /// error and exits 2. Never call this from library code — the
    /// process-exit stays confined to `fn main`s.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        })
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.tiles < f.tiles);
        assert!(q.sample_limit < f.sample_limit);
        assert!(q.accuracy_dim < f.accuracy_dim);
    }

    #[test]
    fn parse_accepts_known_values() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::quick()));
        assert_eq!(Scale::parse("smoke"), Ok(Scale::quick()));
        assert_eq!(Scale::parse("full"), Ok(Scale::full()));
        assert_eq!(Scale::parse("  quick "), Ok(Scale::quick()), "whitespace tolerated");
    }

    #[test]
    fn parse_rejects_unknown_values_helpfully() {
        for bad in ["qiuck", "FULL", "paper", "", "1"] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains("expected 'quick'"), "unhelpful error for '{bad}': {err}");
        }
    }

    #[test]
    fn resolve_args_win_over_env() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            Scale::resolve(args(&["--smoke"]), Ok("full".into())),
            Ok(Scale::quick()),
            "--smoke beats TA_SCALE"
        );
        assert_eq!(
            Scale::resolve(args(&["--quick"]), Err(std::env::VarError::NotPresent)),
            Ok(Scale::quick())
        );
        assert_eq!(
            Scale::resolve(args(&[]), Err(std::env::VarError::NotPresent)),
            Ok(Scale::full())
        );
        assert_eq!(Scale::resolve(args(&[]), Ok("quick".into())), Ok(Scale::quick()));
    }

    #[test]
    fn resolve_error_paths_return_instead_of_exiting() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let bad_arg = Scale::resolve(args(&["--paper"]), Err(std::env::VarError::NotPresent))
            .expect_err("unknown argument must error");
        assert!(bad_arg.contains("unrecognized argument '--paper'"), "{bad_arg}");
        let bad_env = Scale::resolve(args(&[]), Ok("qiuck".into())).expect_err("typo must error");
        assert!(bad_env.contains("expected 'quick'"), "{bad_env}");
        let not_unicode = Scale::resolve(
            args(&[]),
            Err(std::env::VarError::NotUnicode(std::ffi::OsString::new())),
        )
        .expect_err("non-unicode must error");
        assert!(not_unicode.contains("unicode"), "{not_unicode}");
        // A smoke argument still wins even when TA_SCALE is garbage.
        assert_eq!(Scale::resolve(args(&["--smoke"]), Ok("garbage".into())), Ok(Scale::quick()));
    }

    #[test]
    fn scale_names() {
        assert_eq!(Scale::quick().name(), "quick");
        assert_eq!(Scale::full().name(), "full");
        assert_eq!(Scale { tiles: 1, sample_limit: 1, accuracy_dim: 1 }.name(), "custom");
    }
}
