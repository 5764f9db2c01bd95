//! Registry conformance: every entry's reference oracle is
//! deterministic across thread counts, names are unique and stable, and
//! quick-scale construction of every entry succeeds.

use ta_workloads::{find, names, registry, Scale};

fn tiny() -> Scale {
    Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 }
}

#[test]
fn names_are_unique_and_stable() {
    let got = names();
    let mut dedup = got.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), got.len(), "duplicate workload names: {got:?}");
    // The stable roster: bench gate order first, then the zoo. Renaming
    // any of these breaks bench JSON joins, --only filters, and docs.
    assert_eq!(
        got,
        vec![
            "fig9_dse_t8_r256",
            "l7b_qproj_serial",
            "l7b_qproj_parallel",
            "l7b_qproj_cached",
            "l7b_qproj_exec",
            "serve_open_loop",
            "serve_overload",
            "kernel_micro_popcount",
            "kernel_micro_extract",
            "kernel_micro_slice",
            "kernel_micro_source",
            "kernel_micro_im2col",
            "plan_cache_contention",
            "llama_block_prefill",
            "llama_block_decode",
            "resnet_conv_im2col",
            "moe_experts",
        ]
    );
}

#[test]
fn gate_roster_matches_bench_schema() {
    let gated: Vec<_> = registry().into_iter().filter(|w| w.gated()).collect();
    // Twelve PerfRecord workloads plus the contention sweep (gated
    // through the report's contention arm, not a PerfRecord).
    assert_eq!(gated.len(), 13);
}

#[test]
fn quick_scale_construction_succeeds_for_every_entry() {
    for w in registry() {
        w.prepare(Scale::quick());
        // Shape enumeration is part of construction; GEMM entries must
        // report at least one shape.
        let shapes = w.shapes(Scale::quick());
        if w.has_cycle_model() {
            assert!(!shapes.is_empty(), "{} models cycles but reports no shape", w.name());
        }
    }
}

#[test]
fn oracles_are_deterministic_across_threads() {
    for w in registry() {
        let t1 = w.oracle(tiny(), 1);
        let t2 = w.oracle(tiny(), 2);
        let t8 = w.oracle(tiny(), 8);
        assert_eq!(t1, t2, "{}: oracle differs between 1 and 2 threads", w.name());
        assert_eq!(t1, t8, "{}: oracle differs between 1 and 8 threads", w.name());
    }
}

#[test]
fn oracles_fingerprint_real_output() {
    // A fingerprint that never varies would pass determinism vacuously;
    // distinct workloads must disagree with each other.
    let mut prints = Vec::new();
    for w in registry() {
        prints.push((w.name(), w.oracle(tiny(), 1)));
    }
    for i in 0..prints.len() {
        for j in (i + 1)..prints.len() {
            assert_ne!(
                prints[i].1, prints[j].1,
                "{} and {} produced identical fingerprints",
                prints[i].0, prints[j].0
            );
        }
    }
}

#[test]
fn find_resolves_registered_names_only() {
    assert!(find("l7b_qproj_serial").is_some());
    assert!(find("moe_experts").is_some());
    assert!(find("no_such_workload").is_none());
}
