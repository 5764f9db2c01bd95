//! Convolution on the Transitive Array via im2col (§5.10): lower a
//! ResNet-18-style conv layer to GEMM, execute it exactly, and compare
//! against the direct convolution.
//!
//! Run with: `cargo run --release --example resnet_conv`

use transitive_array::bitslice::{conv_direct, flatten_weights, im2col};
use transitive_array::models::resnet18_layers;
use transitive_array::prelude::*;
use transitive_array::workloads::zoo;

fn main() -> Result<(), TaError> {
    // The zoo's conv entry at quick scale: a small conv in the spirit of
    // layer1 (3x3) so the exact functional path runs instantly.
    let shape = zoo::resnet_conv_shape(Scale::quick());
    let (n, k, m) = shape.gemm_dims();
    println!(
        "conv {}x{}x{}x{} -> GEMM {}x{}x{}",
        shape.out_c, shape.in_c, shape.kh, shape.kw, n, k, m
    );

    let (weights, input) = zoo::resnet_operands(&shape, zoo::RESNET_SEED);

    // Lower with im2col and run on the accelerator (4-bit weights, as the
    // paper quantizes ResNet's interior layers).
    let patches = im2col(&shape, &input);
    let wmat = flatten_weights(&shape, &weights);
    let session = Session::new(zoo::resnet_config())?;
    let resp = session.run(GemmRequest::execute(wmat, patches))?;
    let (out, report) = (resp.output.expect("execute responses carry the output"), resp.report);

    // The direct loop-nest convolution is the golden model.
    let reference = conv_direct(&shape, &weights, &input);
    assert_eq!(out, reference, "im2col conv on TransArray must be exact");
    println!("im2col conv on TransArray — lossless ✓");
    println!(
        "density {:.2}%, {} ops vs {} dense bit-ops, {} cycles",
        100.0 * report.density,
        report.total_ops,
        report.dense_bit_ops,
        report.cycles
    );

    // The real network's 21 layers, for scale.
    println!("\nResNet-18 layer zoo (Fig. 14's x-axis):");
    for l in resnet18_layers().iter().take(6) {
        println!(
            "  {:>2}  {:<22} GEMM {:>4}x{:>4}x{:>5}  ({} MMACs, {}-bit wgt)",
            l.index,
            l.name,
            l.gemm.n,
            l.gemm.k,
            l.gemm.m,
            l.gemm.macs() / 1_000_000,
            l.weight_bits
        );
    }
    println!("  …and 15 more (see `cargo run -p ta-bench --bin all -- fig14`)");
    Ok(())
}
