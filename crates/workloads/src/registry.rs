//! The [`Workload`] trait and the registry enumerating every workload
//! the repo evaluates — the bench roster, the figure DSE point, and the
//! grown model zoo.

use crate::{contention, fig9, kernel, l7b, serve, zoo, Scale};
use ta_bitslice::{conv_direct, flatten_weights, im2col};
use ta_core::{GemmReport, GemmRequest, GemmResponse, GemmShape, Session, TransArrayConfig};
use ta_models::simulate_gemms;
use ta_quant::{gemm_i32, MatI32};

/// An order-insensitive-free (FNV-1a) fingerprint accumulator for
/// reference-oracle outputs. Floats are hashed by their exact bit
/// pattern — the oracles are bit-determinism checks, not tolerances.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// Fresh accumulator (FNV-1a offset basis).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one u64.
    pub fn push_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs one f64 by bit pattern.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Absorbs a string (oracles tag themselves with their workload
    /// name so deliberately bit-identical entries — serial vs.
    /// parallel — still fingerprint distinctly).
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a full integer matrix.
    pub fn push_mat(&mut self, m: &MatI32) {
        self.push_u64(m.rows() as u64);
        self.push_u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.push_u64(v as u32 as u64);
        }
    }

    /// Absorbs the deterministic fields of a simulation report.
    pub fn push_report(&mut self, rep: &GemmReport) {
        self.push_u64(rep.cycles);
        self.push_u64(rep.total_ops);
        self.push_u64(rep.dense_bit_ops);
        self.push_f64(rep.density);
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One workload the evaluation can run: a stable name, its GEMM
/// shape(s), construction of its pattern sources / operands, and a
/// deterministic reference oracle. Measurement (timing, gating, JSON)
/// stays in `ta-bench`; *what* is measured is defined here.
pub trait Workload: Send + Sync {
    /// Stable name — bench JSON, `--only` filters, and docs join on it.
    fn name(&self) -> &'static str;

    /// One-line description for `bench_smoke --list`.
    fn description(&self) -> &'static str;

    /// The GEMM shape(s) the workload runs at `scale` (empty for
    /// non-GEMM workloads such as the DSE point and the cache sweep).
    fn shapes(&self, scale: Scale) -> Vec<GemmShape>;

    /// Whether the workload produces modeled cycles (vs pure wall/DSE
    /// metrics).
    fn has_cycle_model(&self) -> bool;

    /// Whether the workload is part of the `bench_smoke` regression
    /// gate roster.
    fn gated(&self) -> bool;

    /// Constructs the workload's sources/operands/configs without
    /// running it — the cheap "does it even build at this scale" probe
    /// the conformance suite calls at quick scale.
    fn prepare(&self, scale: Scale);

    /// Runs the workload's reference path and returns a bit-exact
    /// fingerprint of its deterministic outputs. `threads` is the
    /// parallel worker knob (`0` = auto); the fingerprint must not
    /// depend on it — that is the determinism contract the conformance
    /// suite checks across threads 1/2/8.
    fn oracle(&self, scale: Scale, threads: usize) -> u64;
}

// ---------------------------------------------------------------------------
// Bench roster entries
// ---------------------------------------------------------------------------

struct Fig9Dse;

impl Workload for Fig9Dse {
    fn name(&self) -> &'static str {
        "fig9_dse_t8_r256"
    }
    fn description(&self) -> &'static str {
        "Fig. 9 DSE point: Scoreboard density of uniform random data, 8-bit, row size 256"
    }
    fn shapes(&self, _scale: Scale) -> Vec<GemmShape> {
        Vec::new()
    }
    fn has_cycle_model(&self) -> bool {
        false
    }
    fn gated(&self) -> bool {
        true
    }
    fn prepare(&self, _scale: Scale) {
        crate::sources::dse_source(8, 256, 42);
    }
    fn oracle(&self, scale: Scale, _threads: usize) -> u64 {
        let stats = fig9::suite_point(scale.tiles);
        let mut d = Digest::new();
        d.push_str(self.name());
        d.push_u64(stats.total_ops);
        d.push_f64(stats.density());
        d.finish()
    }
}

#[derive(Clone, Copy)]
enum L7bMode {
    Serial,
    Parallel,
    Cached,
    Exec,
}

/// Opens a session on a workload's (valid by construction) design point.
fn session(cfg: TransArrayConfig) -> Session {
    Session::new(cfg).expect("workload configs are valid")
}

/// Runs one of a workload's (valid by construction) requests.
fn run(session: &Session, request: GemmRequest) -> GemmResponse {
    session.run(request).expect("workload requests are valid")
}

/// Simulates the LLaMA-7B `q_proj` layer on `session`.
fn simulate_qproj(session: &Session) -> GemmReport {
    let source = l7b::pattern_source(session.config().n_tile());
    run(session, GemmRequest::simulate(l7b::qproj_shape(), source)).report
}

/// Executes one GEMM on `session`, returning the output and report.
fn execute(session: &Session, weights: &MatI32, input: &MatI32) -> (MatI32, GemmReport) {
    let resp = run(session, GemmRequest::execute(weights.clone(), input.clone()));
    (resp.output.expect("execute responses carry the output"), resp.report)
}

struct L7bQproj(L7bMode);

impl Workload for L7bQproj {
    fn name(&self) -> &'static str {
        match self.0 {
            L7bMode::Serial => "l7b_qproj_serial",
            L7bMode::Parallel => "l7b_qproj_parallel",
            L7bMode::Cached => "l7b_qproj_cached",
            L7bMode::Exec => "l7b_qproj_exec",
        }
    }
    fn description(&self) -> &'static str {
        match self.0 {
            L7bMode::Serial => "LLaMA-7B q_proj layer simulation, one worker",
            L7bMode::Parallel => "LLaMA-7B q_proj layer simulation, parallel workers",
            L7bMode::Cached => "LLaMA-7B q_proj with the shared plan cache (warm replay)",
            L7bMode::Exec => "LLaMA-7B q_proj functional bit-exact execution (scaled shape)",
        }
    }
    fn shapes(&self, scale: Scale) -> Vec<GemmShape> {
        match self.0 {
            L7bMode::Exec => {
                let (n, k, m) = scale.exec_shape();
                vec![GemmShape::new(n, k, m)]
            }
            _ => vec![l7b::qproj_shape()],
        }
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        true
    }
    fn prepare(&self, scale: Scale) {
        let cfg = l7b::layer_config(scale, 1);
        l7b::pattern_source(cfg.n_tile());
        if matches!(self.0, L7bMode::Exec) {
            l7b::exec_operands(scale);
        }
    }
    fn oracle(&self, scale: Scale, threads: usize) -> u64 {
        let mut d = Digest::new();
        d.push_str(self.name());
        match self.0 {
            L7bMode::Serial => {
                d.push_report(&simulate_qproj(&session(l7b::layer_config(scale, 1))))
            }
            L7bMode::Parallel => {
                d.push_report(&simulate_qproj(&session(l7b::layer_config(scale, threads))))
            }
            L7bMode::Cached => {
                let s = session(TransArrayConfig {
                    plan_cache: l7b::DEFAULT_PLAN_CACHE_ENTRIES,
                    ..l7b::layer_config(scale, threads)
                });
                let stats = || s.accelerator().plan_cache_stats().expect("cached mode caches");
                let warm = simulate_qproj(&s);
                let before = stats();
                let replay = simulate_qproj(&s);
                let hit_rate = stats().delta(&before).hit_rate();
                assert_eq!(warm, replay, "warm plan-cached replay must stay bit-identical");
                d.push_report(&replay);
                d.push_f64(hit_rate);
            }
            L7bMode::Exec => {
                let (w, x) = l7b::exec_operands(scale);
                let (out, rep) = execute(&session(l7b::layer_config(scale, threads)), &w, &x);
                assert_eq!(out, gemm_i32(&w, &x), "functional engine must stay bit-exact");
                d.push_mat(&out);
                d.push_report(&rep);
            }
        }
        d.finish()
    }
}

struct ServeOpenLoop;

impl Workload for ServeOpenLoop {
    fn name(&self) -> &'static str {
        "serve_open_loop"
    }
    fn description(&self) -> &'static str {
        "ta-serve frontend under a seeded open-loop Poisson trace, bit-checked"
    }
    fn shapes(&self, _scale: Scale) -> Vec<GemmShape> {
        serve::shapes().to_vec()
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        true
    }
    fn prepare(&self, scale: Scale) {
        serve::session();
        serve::trace(scale);
    }
    fn oracle(&self, scale: Scale, _threads: usize) -> u64 {
        // The serving stack fixes its own worker count; the oracle is
        // the direct serial execution of every trace request — exactly
        // the reference the measured workload bit-checks against.
        let session = serve::session();
        let mut d = Digest::new();
        d.push_str(self.name());
        for arrival in &serve::trace(scale) {
            let resp =
                session.run_serial(serve::request(arrival)).expect("trace requests are valid");
            if let Some(out) = &resp.output {
                d.push_mat(out);
            }
            d.push_report(&resp.report);
        }
        d.finish()
    }
}

struct ServeOverload;

impl Workload for ServeOverload {
    fn name(&self) -> &'static str {
        "serve_overload"
    }
    fn description(&self) -> &'static str {
        "ta-serve under a scripted storm: SLO rejects, deadline sheds, injected worker panics"
    }
    fn shapes(&self, _scale: Scale) -> Vec<GemmShape> {
        serve::shapes().to_vec()
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        true
    }
    fn prepare(&self, scale: Scale) {
        serve::session();
        serve::overload_arrivals(scale);
        serve::overload_request();
    }
    fn oracle(&self, scale: Scale, _threads: usize) -> u64 {
        // Fingerprints the workload's *content* — the storm trace's
        // requests plus the fixed recovery-wave request — by direct
        // serial execution. The overload counters themselves (rejects,
        // sheds, worker losses) are scripted on the virtual clock and
        // gated exactly in ta-bench; the oracle pins down the operands
        // those counters are measured over.
        let session = serve::session();
        let mut d = Digest::new();
        d.push_str(self.name());
        for arrival in &serve::overload_arrivals(scale) {
            let resp =
                session.run_serial(serve::request(arrival)).expect("trace requests are valid");
            if let Some(out) = &resp.output {
                d.push_mat(out);
            }
            d.push_report(&resp.report);
        }
        let wave = session.run_serial(serve::overload_request()).expect("wave request is valid");
        if let Some(out) = &wave.output {
            d.push_mat(out);
        }
        d.push_report(&wave.report);
        d.finish()
    }
}

#[derive(Clone, Copy)]
enum KernelMode {
    Popcount,
    Extract,
    Slice,
    Source,
    Im2col,
}

struct KernelMicro(KernelMode);

impl Workload for KernelMicro {
    fn name(&self) -> &'static str {
        match self.0 {
            KernelMode::Popcount => "kernel_micro_popcount",
            KernelMode::Extract => "kernel_micro_extract",
            KernelMode::Slice => "kernel_micro_slice",
            KernelMode::Source => "kernel_micro_source",
            KernelMode::Im2col => "kernel_micro_im2col",
        }
    }
    fn description(&self) -> &'static str {
        match self.0 {
            KernelMode::Popcount => "word-parallel popcount / XOR-popcount row sweep",
            KernelMode::Extract => "sub-tile TransRow pattern extraction sweep",
            KernelMode::Slice => "int8 bit-plane slicing of a ragged-width matrix",
            KernelMode::Source => "Gaussian int8 weight pattern source sub-tile sweep",
            KernelMode::Im2col => "im2col lowering of a ragged-width conv layer",
        }
    }
    fn shapes(&self, scale: Scale) -> Vec<GemmShape> {
        match self.0 {
            KernelMode::Im2col => {
                let (shape, _) = kernel::conv_case(scale);
                let (n, k, m) = shape.gemm_dims();
                vec![GemmShape::new(n, k, m)]
            }
            _ => Vec::new(),
        }
    }
    fn has_cycle_model(&self) -> bool {
        false
    }
    fn gated(&self) -> bool {
        true
    }
    fn prepare(&self, scale: Scale) {
        match self.0 {
            KernelMode::Im2col => {
                kernel::conv_case(scale);
            }
            KernelMode::Slice => {
                kernel::slice_matrix(scale);
            }
            KernelMode::Source => {}
            _ => {
                kernel::plane_matrix(scale);
            }
        }
    }
    fn oracle(&self, scale: Scale, _threads: usize) -> u64 {
        let mut d = Digest::new();
        d.push_str(self.name());
        let total = match self.0 {
            KernelMode::Popcount => kernel::popcount_total(&kernel::plane_matrix(scale)),
            KernelMode::Extract => {
                let mut patterns = Vec::new();
                kernel::extract_total(&kernel::plane_matrix(scale), &mut patterns)
            }
            KernelMode::Slice => kernel::slice_set_bits(&kernel::slice_matrix(scale)),
            KernelMode::Source => kernel::source_set_bits(scale, &mut Vec::new()),
            KernelMode::Im2col => {
                let (shape, input) = kernel::conv_case(scale);
                kernel::im2col_nonzeros(&shape, &input)
            }
        };
        d.push_u64(total);
        d.finish()
    }
}

struct PlanCacheContention;

impl Workload for PlanCacheContention {
    fn name(&self) -> &'static str {
        "plan_cache_contention"
    }
    fn description(&self) -> &'static str {
        "sharded plan-cache hit path hammered from 1/2/8/16 threads at hit rate 1.0"
    }
    fn shapes(&self, _scale: Scale) -> Vec<GemmShape> {
        Vec::new()
    }
    fn has_cycle_model(&self) -> bool {
        false
    }
    fn gated(&self) -> bool {
        true
    }
    fn prepare(&self, _scale: Scale) {
        contention::prewarmed_cache(0);
    }
    fn oracle(&self, _scale: Scale, _threads: usize) -> u64 {
        // Thread count shapes only throughput, never residency: the
        // fingerprint covers the pre-warmed cache's deterministic state.
        let (cache, keys) = contention::prewarmed_cache(0);
        let mut d = Digest::new();
        d.push_str(self.name());
        d.push_u64(cache.len() as u64);
        for key in &keys {
            d.push_u64(u64::from(cache.get(key).is_some()));
        }
        d.finish()
    }
}

// ---------------------------------------------------------------------------
// Model-zoo entries
// ---------------------------------------------------------------------------

/// Digests a batch's per-layer reports, then its cycle and MAC totals.
fn digest_batch(d: &mut Digest, reports: &[GemmReport]) {
    for rep in reports {
        d.push_report(rep);
    }
    d.push_u64(reports.iter().map(|r| r.cycles).sum());
    d.push_u64(reports.iter().map(|r| r.shape.macs()).sum());
}

struct LlamaBlockPrefill;

impl Workload for LlamaBlockPrefill {
    fn name(&self) -> &'static str {
        "llama_block_prefill"
    }
    fn description(&self) -> &'static str {
        "all seven FC GEMMs of a LLaMA-1-7B block at prefill length, one batch"
    }
    fn shapes(&self, scale: Scale) -> Vec<GemmShape> {
        zoo::prefill_layers(scale).iter().map(|l| l.shape).collect()
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        false
    }
    fn prepare(&self, scale: Scale) {
        zoo::block_config(scale, 1);
        assert_eq!(zoo::prefill_layers(scale).len(), 7);
    }
    fn oracle(&self, scale: Scale, threads: usize) -> u64 {
        let s = session(zoo::block_config(scale, threads));
        let reports = simulate_gemms(&s, &zoo::prefill_layers(scale), zoo::PREFILL_SEED)
            .expect("zoo layers are valid");
        let mut d = Digest::new();
        d.push_str(self.name());
        digest_batch(&mut d, &reports);
        d.finish()
    }
}

struct LlamaBlockDecode;

impl Workload for LlamaBlockDecode {
    fn name(&self) -> &'static str {
        "llama_block_decode"
    }
    fn description(&self) -> &'static str {
        "QK^T decode steps over a growing KV cache, executed bit-exactly"
    }
    fn shapes(&self, scale: Scale) -> Vec<GemmShape> {
        (0..zoo::decode_steps(scale))
            .map(|t| GemmShape::new(zoo::PREFILL_KV + t + 1, zoo::HEAD_DIM, 1))
            .collect()
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        false
    }
    fn prepare(&self, scale: Scale) {
        let stream = zoo::DecodeStream::new(0xA77E, zoo::decode_steps(scale));
        stream.step_request(0);
    }
    fn oracle(&self, scale: Scale, threads: usize) -> u64 {
        let stream = zoo::DecodeStream::new(0xA77E, zoo::decode_steps(scale));
        let s = session(TransArrayConfig { threads, ..zoo::decode_config() });
        let mut d = Digest::new();
        d.push_str(self.name());
        for t in 0..stream.steps() {
            let (k, q) = stream.step_operands(t);
            let (out, rep) = execute(&s, &k, &q);
            assert_eq!(out, gemm_i32(&k, &q), "decode QK^T must stay bit-exact");
            d.push_mat(&out);
            d.push_report(&rep);
        }
        d.finish()
    }
}

struct ResnetConvIm2col;

impl Workload for ResnetConvIm2col {
    fn name(&self) -> &'static str {
        "resnet_conv_im2col"
    }
    fn description(&self) -> &'static str {
        "ResNet conv layer lowered via im2col, executed against the direct conv"
    }
    fn shapes(&self, scale: Scale) -> Vec<GemmShape> {
        let (n, k, m) = zoo::resnet_conv_shape(scale).gemm_dims();
        vec![GemmShape::new(n, k, m)]
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        false
    }
    fn prepare(&self, scale: Scale) {
        let shape = zoo::resnet_conv_shape(scale);
        zoo::resnet_operands(&shape, zoo::RESNET_SEED);
    }
    fn oracle(&self, scale: Scale, threads: usize) -> u64 {
        let shape = zoo::resnet_conv_shape(scale);
        let (weights, input) = zoo::resnet_operands(&shape, zoo::RESNET_SEED);
        let patches = im2col(&shape, &input);
        let wmat = flatten_weights(&shape, &weights);
        let s = session(TransArrayConfig { threads, ..zoo::resnet_config() });
        let (out, rep) = execute(&s, &wmat, &patches);
        assert_eq!(
            out,
            conv_direct(&shape, &weights, &input),
            "im2col conv on TransArray must be exact"
        );
        let mut d = Digest::new();
        d.push_str(self.name());
        d.push_mat(&out);
        d.push_report(&rep);
        d.finish()
    }
}

struct MoeExperts;

impl Workload for MoeExperts {
    fn name(&self) -> &'static str {
        "moe_experts"
    }
    fn description(&self) -> &'static str {
        "mixture-of-experts batch: many small expert FFN GEMMs at once"
    }
    fn shapes(&self, scale: Scale) -> Vec<GemmShape> {
        zoo::moe_layers(scale).iter().map(|l| l.shape).collect()
    }
    fn has_cycle_model(&self) -> bool {
        true
    }
    fn gated(&self) -> bool {
        false
    }
    fn prepare(&self, scale: Scale) {
        zoo::moe_config(scale, 1);
        assert!(zoo::moe_layers(scale).len() >= 8, "MoE means many small GEMMs");
    }
    fn oracle(&self, scale: Scale, threads: usize) -> u64 {
        let s = session(zoo::moe_config(scale, threads));
        let reports = simulate_gemms(&s, &zoo::moe_layers(scale), zoo::MOE_SEED)
            .expect("zoo layers are valid");
        let mut d = Digest::new();
        d.push_str(self.name());
        digest_batch(&mut d, &reports);
        d.finish()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every workload the evaluation knows, bench-roster entries first (in
/// gate order), then the model zoo.
pub fn registry() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Fig9Dse),
        Box::new(L7bQproj(L7bMode::Serial)),
        Box::new(L7bQproj(L7bMode::Parallel)),
        Box::new(L7bQproj(L7bMode::Cached)),
        Box::new(L7bQproj(L7bMode::Exec)),
        Box::new(ServeOpenLoop),
        Box::new(ServeOverload),
        Box::new(KernelMicro(KernelMode::Popcount)),
        Box::new(KernelMicro(KernelMode::Extract)),
        Box::new(KernelMicro(KernelMode::Slice)),
        Box::new(KernelMicro(KernelMode::Source)),
        Box::new(KernelMicro(KernelMode::Im2col)),
        Box::new(PlanCacheContention),
        Box::new(LlamaBlockPrefill),
        Box::new(LlamaBlockDecode),
        Box::new(ResnetConvIm2col),
        Box::new(MoeExperts),
    ]
}

/// Looks a workload up by its stable name.
pub fn find(name: &str) -> Option<Box<dyn Workload>> {
    registry().into_iter().find(|w| w.name() == name)
}

/// Every registered workload name, registry order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|w| w.name()).collect()
}
