//! Cross-crate integration: the complete pipeline FP32 → quantize →
//! bit-slice → Scoreboard → Transitive Array must be lossless at the
//! integer level and match the FP32 reference within quantization error.

use transitive_array::core::{
    GemmReport, GemmRequest, GemmShape, PatternSource, ScoreboardMode, Session, TransArrayConfig,
};
use transitive_array::models::{
    llm_activation_matrix, llm_weight_matrix, QuantGaussianSource, StreamRng, UniformBitSource,
};
use transitive_array::quant::{
    calibrate, dequantize, gemm_f32, gemm_i32, nmse, quantize, Granularity, MatF32, MatI32,
    QuantScheme,
};

fn session(cfg: TransArrayConfig) -> Session {
    Session::new(cfg).unwrap()
}

fn execute(cfg: TransArrayConfig, w: &MatI32, x: &MatI32) -> (MatI32, GemmReport) {
    let resp = session(cfg).run(GemmRequest::execute(w.clone(), x.clone())).unwrap();
    (resp.output.unwrap(), resp.report)
}

fn simulate(
    session: &Session,
    shape: GemmShape,
    src: impl PatternSource + Send + 'static,
) -> GemmReport {
    session.run(GemmRequest::simulate(shape, src)).unwrap().report
}

/// A source that keeps the default `fork()` (`None`): the sharded walker
/// must run it as one shard over the caller's own source.
struct NonForking(QuantGaussianSource);

impl PatternSource for NonForking {
    fn width(&self) -> u32 {
        self.0.width()
    }
    fn subtile_patterns(&mut self, n_tile: usize, k_chunk: usize) -> Vec<u16> {
        self.0.subtile_patterns(n_tile, k_chunk)
    }
    fn rows_per_subtile(&self) -> usize {
        self.0.rows_per_subtile()
    }
}

fn small_cfg(weight_bits: u32, mode: ScoreboardMode) -> TransArrayConfig {
    TransArrayConfig {
        width: 4,
        max_transrows: weight_bits as usize * 4,
        weight_bits,
        units: 2,
        m_tile: 8,
        sample_limit: 0,
        scoreboard_mode: mode,
        ..TransArrayConfig::paper_w8()
    }
}

#[test]
fn fp32_to_accelerator_end_to_end() {
    // LLM-like FP32 tensors.
    let w_f = llm_weight_matrix(24, 40, 1);
    let a_f = llm_activation_matrix(40, 12, 2);

    // Quantize both sides at W8A8 per-channel (plain PTQ; the W4 recipe
    // needs the SmoothQuant migration — see ta-quant's TaQuant — which is
    // exercised by the Table 3 tests).
    let w_scheme = QuantScheme::new(8, Granularity::PerChannel);
    let a_scheme = QuantScheme::new(8, Granularity::PerChannel);
    let wp = calibrate(&w_f, w_scheme);
    let ap = calibrate(&a_f, a_scheme);
    let w_q = quantize(&w_f, &wp);
    let a_q = quantize(&a_f, &ap);

    // Integer losslessness on the accelerator.
    let (out, report) = execute(small_cfg(8, ScoreboardMode::Dynamic), &w_q, &a_q);
    assert_eq!(out, gemm_i32(&w_q, &a_q), "accelerator must be bit-exact");
    assert!(report.density < 0.6, "density {}", report.density);

    // The dequantized result approximates the FP32 GEMM: compare against
    // the fake-quantized reference (the quantizer's own error bound).
    let w_hat = dequantize(&w_q, &wp);
    let a_hat = dequantize(&a_q, &ap);
    let fq_reference = gemm_f32(&w_hat, &a_hat);
    let fp_reference = gemm_f32(&w_f, &a_f);
    // The accelerator output, rescaled, must be (near) identical to the
    // fake-quant reference…
    let out_f = MatF32::from_fn(out.rows(), out.cols(), |r, c| {
        // Per-channel w scale × per-feature a scales do not factor out of
        // the sum exactly, so compare the integer path against the same
        // integer path computed densely instead.
        out.get(r, c) as f32
    });
    let dense_int = gemm_i32(&w_q, &a_q);
    let dense_f =
        MatF32::from_fn(dense_int.rows(), dense_int.cols(), |r, c| dense_int.get(r, c) as f32);
    assert_eq!(out_f.as_slice(), dense_f.as_slice());
    // …and the fake-quant reference is close to FP32 (sanity on the
    // quantization substrate itself).
    let e = nmse(&fp_reference, &fq_reference);
    assert!(e < 0.05, "quantization pipeline error too large: {e}");
}

#[test]
fn both_modes_agree_on_every_seed() {
    for seed in 0..8u64 {
        let mut rng = StreamRng::new(seed);
        let w = MatI32::from_fn(12, 20, |_, _| {
            ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7)
        });
        let x = MatI32::from_fn(20, 6, |_, _| {
            ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
        });
        let (d, _) = execute(small_cfg(4, ScoreboardMode::Dynamic), &w, &x);
        let (s, _) = execute(small_cfg(4, ScoreboardMode::Static), &w, &x);
        let reference = gemm_i32(&w, &x);
        assert_eq!(d, reference, "dynamic seed {seed}");
        assert_eq!(s, reference, "static seed {seed}");
    }
}

/// Determinism suite (tile-execution runtime contract): execute-request
/// output **and** the full `GemmReport` — including the floating-point
/// density/energy/seconds fields — must be bit-identical for
/// `threads = 1, 2, 8` in both Scoreboard modes.
#[test]
fn parallel_execute_gemm_bit_identical_across_thread_counts() {
    let mut rng = StreamRng::new(2024);
    // Large enough for several weight tiles and k-chunks per shard.
    let w =
        MatI32::from_fn(40, 36, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(36, 9, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let reference = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(reference.0, gemm_i32(&w, &x), "{mode:?} serial must be lossless");
        for threads in [2usize, 8] {
            let cfg = TransArrayConfig { threads, ..small_cfg(4, mode) };
            let (out, report) = execute(cfg, &w, &x);
            assert_eq!(out, reference.0, "{mode:?} threads={threads}: output must be bit-exact");
            assert_eq!(
                report, reference.1,
                "{mode:?} threads={threads}: GemmReport must be bit-identical"
            );
        }
    }
}

/// Same contract for at-scale simulation with sampling enabled: sharded
/// simulation must reproduce the serial report bit-for-bit across thread
/// counts, modes, and synthetic sources — including a source that cannot
/// fork, which runs as one shard over the caller's own source.
#[test]
fn parallel_simulate_layer_bit_identical_across_thread_counts() {
    let shape = GemmShape::new(512, 256, 128);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        for sample_limit in [0usize, 24] {
            let run = |threads: usize| {
                let cfg = TransArrayConfig {
                    sample_limit,
                    threads,
                    scoreboard_mode: mode,
                    ..TransArrayConfig::paper_w8()
                };
                let s = session(cfg);
                let n_tile = s.config().n_tile();
                let quant = QuantGaussianSource::new(8, 8, n_tile, 7);
                let quant_rep = simulate(&s, shape, quant);
                let uniform_rep = simulate(&s, shape, UniformBitSource::new(8, n_tile * 8, 7));
                let non_forking_rep = simulate(&s, shape, NonForking(quant));
                assert_eq!(
                    non_forking_rep, quant_rep,
                    "{mode:?} sample_limit={sample_limit} threads={threads}: a non-forking \
                     source must match its forking twin"
                );
                (quant_rep, uniform_rep, non_forking_rep)
            };
            let reference = run(1);
            for threads in [2usize, 8] {
                let got = run(threads);
                assert_eq!(
                    got, reference,
                    "{mode:?} sample_limit={sample_limit} threads={threads}: reports must be bit-identical"
                );
            }
        }
    }
}

/// Plan-cache determinism contract: enabling the memoized plan cache
/// must leave every `GemmReport` — including the floating-point
/// density/energy/seconds fields — bit-identical to the uncached run,
/// across thread counts and Scoreboard modes, while
/// actually hitting (a cache that never hits proves nothing).
#[test]
fn plan_cache_bit_identical_across_thread_counts() {
    let shape = GemmShape::new(512, 256, 128);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let cfg_for = |threads: usize, plan_cache: usize| TransArrayConfig {
            sample_limit: 24,
            threads,
            plan_cache,
            scoreboard_mode: mode,
            ..TransArrayConfig::paper_w8()
        };
        let run = |s: &Session| {
            simulate(s, shape, QuantGaussianSource::new(8, 8, s.config().n_tile(), 7))
        };
        let reference = run(&session(cfg_for(1, 0)));
        for threads in [1usize, 2, 8] {
            let s = session(cfg_for(threads, 512));
            let cold = run(&s);
            let warm = run(&s);
            assert_eq!(cold, reference, "{mode:?} threads={threads}: cold cached run differs");
            assert_eq!(warm, reference, "{mode:?} threads={threads}: warm cached run differs");
            let stats = s.accelerator().plan_cache_stats().expect("cache enabled");
            assert!(stats.insertions > 0, "{mode:?} threads={threads}: cache unused: {stats:?}");
            if mode == ScoreboardMode::Dynamic {
                // Static mode correctly misses across calls: each
                // simulation builds a fresh SI table and cached
                // entries are scoped to the SI instance that produced
                // them. Dynamic plans carry no such scope, so the warm
                // replay must reuse every one.
                assert!(
                    stats.hits > 0,
                    "{mode:?} threads={threads}: warm replay must hit: {stats:?}"
                );
            }
        }
    }
}

/// The same contract for the exact functional engine: cached
/// execute output and report equal the uncached serial run at
/// threads 1/2/8.
#[test]
fn plan_cache_execute_gemm_bit_identical_across_thread_counts() {
    let mut rng = StreamRng::new(4096);
    let w =
        MatI32::from_fn(40, 36, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(36, 9, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let reference = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(reference.0, gemm_i32(&w, &x), "{mode:?}: reference must be lossless");
        for threads in [1usize, 2, 8] {
            let cfg = TransArrayConfig { threads, plan_cache: 128, ..small_cfg(4, mode) };
            let (out, report) = execute(cfg, &w, &x);
            assert_eq!(out, reference.0, "{mode:?} threads={threads}: cached output differs");
            assert_eq!(report, reference.1, "{mode:?} threads={threads}: cached report differs");
        }
    }
}

/// Fused-path contract: the arena-backed engine behind execute requests
/// stays lossless and report-identical at threads 1/2/8 with the plan
/// cache on and off, in both Scoreboard modes. (Its per-sub-tile
/// equivalence with the subset-sum definition, on a reused scratch with
/// the plan cache off, cold and warm, is a `ta-core` unit test.)
#[test]
fn fused_engine_matches_oracle_and_stays_deterministic() {
    // End-to-end: the fused engine at threads 1/2/8 × modes × cache
    // settings agrees with the dense reference and the serial report.
    let w = MatI32::from_fn(37, 29, |r, c| (((r * 29 + c) as i64 * 2654435761 % 15) - 7) as i32);
    let x = MatI32::from_fn(29, 11, |r, c| (((r * 11 + c) as i64 * 40503 % 255) - 127) as i32);
    let reference = gemm_i32(&w, &x);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let serial = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(serial.0, reference, "{mode:?}: fused serial engine must be lossless");
        for threads in [1usize, 2, 8] {
            for plan_cache in [0usize, 64] {
                let cfg = TransArrayConfig { threads, plan_cache, ..small_cfg(4, mode) };
                let (out, report) = execute(cfg, &w, &x);
                assert_eq!(out, reference, "{mode:?} threads={threads} cache={plan_cache}");
                assert_eq!(
                    report, serial.1,
                    "{mode:?} threads={threads} cache={plan_cache}: report must be bit-identical"
                );
            }
        }
    }
}

/// Word-parallel kernel contract: with every hot loop routed through
/// `ta_bitslice::kernels` (word-granular extraction, slab row-adds,
/// fused weighted accumulation), the pipeline must stay lossless and the
/// full `GemmReport` bit-identical at threads 1/2/8 in both Scoreboard
/// modes. K = 70 forces a non-word-multiple tail so the masked tail
/// path of every kernel sits on the execution path, not just in unit
/// tests.
#[test]
fn word_parallel_kernels_keep_reports_bit_identical() {
    let mut rng = StreamRng::new(6464);
    let w =
        MatI32::from_fn(41, 70, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(70, 13, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    let reference = gemm_i32(&w, &x);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let serial = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(serial.0, reference, "{mode:?}: kernel path must be lossless");
        for threads in [1usize, 2, 8] {
            let cfg = TransArrayConfig { threads, ..small_cfg(4, mode) };
            let (out, report) = execute(cfg, &w, &x);
            assert_eq!(out, reference, "{mode:?} threads={threads}: output must be bit-exact");
            assert_eq!(
                report, serial.1,
                "{mode:?} threads={threads}: GemmReport must be bit-identical"
            );
        }
    }
}

#[test]
fn eight_bit_weights_wide_activations() {
    let mut rng = StreamRng::new(77);
    let w = MatI32::from_fn(9, 33, |_, _| {
        ((rng.next_gaussian() * 39.0).round() as i32).clamp(-128, 127)
    });
    let x = MatI32::from_fn(33, 17, |_, _| {
        ((rng.next_gaussian() * 39.0).round() as i32).clamp(-128, 127)
    });
    let cfg = TransArrayConfig {
        width: 8,
        max_transrows: 64,
        weight_bits: 8,
        units: 3,
        m_tile: 4,
        sample_limit: 0,
        ..TransArrayConfig::paper_w8()
    };
    let (out, report) = execute(cfg, &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
    // 8-bit TranSparsity on Gaussian data sits well below bit sparsity.
    assert!(report.density < 0.40, "density {}", report.density);
}

/// Exactness matrix of the execute path: every weight width × activation
/// width × TransRow width, both Scoreboard modes, `Session::run` at
/// threads 1/2 and `run_serial`, on a ragged last n-tile and ragged K.
/// Operands are random in range, all-minimum, all-maximum, and a mix
/// whose first rows/columns hit the extremes. A result that fits `i32`
/// must equal `gemm_i32`; one that does not must come back as
/// `AccumulatorOverflow` naming the first (row-major) element past `i32`
/// with its exact value.
#[test]
fn execute_exactness_matrix() {
    use transitive_array::core::TaError;

    let mut rng = StreamRng::new(2020);
    for weight_bits in [2u32, 3, 8, 16] {
        for act_bits in [2u32, 8, 16] {
            let (w_lo, w_hi) = (-(1i32 << (weight_bits - 1)), (1i32 << (weight_bits - 1)) - 1);
            let (x_lo, x_hi) = (-(1i32 << (act_bits - 1)), (1i32 << (act_bits - 1)) - 1);
            for width in [1u32, 5, 8, 16] {
                // Four weight rows per n-tile: n = 6 leaves the last one
                // half full; K = width + 3 leaves the last k-chunk ragged.
                let (n, k) = (6usize, width as usize + 3);
                let mut random = |lo: i32, hi: i32| {
                    lo + (rng.next_u64() % (i64::from(hi) - i64::from(lo) + 1) as u64) as i32
                };
                let cases: Vec<(&str, MatI32, MatI32)> = vec![
                    (
                        "random",
                        MatI32::from_fn(n, k, |_, _| random(w_lo, w_hi)),
                        MatI32::from_fn(k, 3, |_, _| random(x_lo, x_hi)),
                    ),
                    (
                        "all-min",
                        MatI32::from_fn(n, k, |_, _| w_lo),
                        MatI32::from_fn(k, 1, |_, _| x_lo),
                    ),
                    (
                        "all-max",
                        MatI32::from_fn(n, k, |_, _| w_hi),
                        MatI32::from_fn(k, 1, |_, _| x_hi),
                    ),
                    (
                        "mixed",
                        MatI32::from_fn(n, k, |r, c| [w_hi, w_lo, (c as i32 % 3) - 1][r.min(2)]),
                        MatI32::from_fn(k, 3, |r, c| [x_lo, x_hi, (r as i32 % 3) - 1][c]),
                    ),
                ];
                for (name, w, x) in &cases {
                    let exact: Vec<i64> = (0..n * x.cols())
                        .map(|i| {
                            let (r, c) = (i / x.cols(), i % x.cols());
                            (0..k).map(|j| i64::from(w.get(r, j)) * i64::from(x.get(j, c))).sum()
                        })
                        .collect();
                    let want = match exact.iter().position(|&v| i32::try_from(v).is_err()) {
                        Some(i) => Err(TaError::AccumulatorOverflow {
                            row: i / x.cols(),
                            col: i % x.cols(),
                            value: exact[i],
                        }),
                        None => Ok(gemm_i32(w, x)),
                    };
                    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
                        let ctx = format!("w{weight_bits} a{act_bits} T{width} {name} {mode:?}");
                        let cfg = TransArrayConfig {
                            width,
                            max_transrows: weight_bits as usize * 4,
                            weight_bits,
                            act_bits,
                            units: 2,
                            m_tile: 2,
                            sample_limit: 0,
                            scoreboard_mode: mode,
                            ..TransArrayConfig::paper_w8()
                        };
                        let run = |s: &Session, serial: bool| {
                            let request = GemmRequest::execute(w.clone(), x.clone());
                            let resp = if serial { s.run_serial(request) } else { s.run(request) };
                            resp.map(|r| r.output.expect("execute returns an output"))
                        };
                        let one = session(cfg.clone());
                        assert_eq!(run(&one, true), want, "{ctx} run_serial");
                        assert_eq!(run(&one, false), want, "{ctx} run threads=1");
                        let two = session(TransArrayConfig { threads: 2, ..cfg });
                        assert_eq!(run(&two, false), want, "{ctx} run threads=2");
                    }
                }
            }
        }
    }
}
