//! LLaMA model-family workloads (§5.1): the FC (linear) and attention
//! GEMM shapes of one Transformer block for every model size the paper
//! evaluates, at the paper's prefill sequence length of 2048.

use ta_core::GemmShape;

/// One LLaMA model's architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlamaConfig {
    /// Display name as used in the figures (e.g. `"L-1 7B"`).
    pub name: &'static str,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// MLP intermediate dimension.
    pub intermediate: usize,
    /// Attention heads.
    pub heads: usize,
    /// Key/value heads (GQA; equals `heads` before LLaMA-3).
    pub kv_heads: usize,
    /// Transformer blocks.
    pub layers: usize,
}

impl LlamaConfig {
    /// LLaMA-1 7B.
    pub fn l1_7b() -> Self {
        Self {
            name: "L-1 7B",
            hidden: 4096,
            intermediate: 11008,
            heads: 32,
            kv_heads: 32,
            layers: 32,
        }
    }

    /// LLaMA-1 13B.
    pub fn l1_13b() -> Self {
        Self {
            name: "L-1 13B",
            hidden: 5120,
            intermediate: 13824,
            heads: 40,
            kv_heads: 40,
            layers: 40,
        }
    }

    /// LLaMA-1 30B.
    pub fn l1_30b() -> Self {
        Self {
            name: "L-1 30B",
            hidden: 6656,
            intermediate: 17920,
            heads: 52,
            kv_heads: 52,
            layers: 60,
        }
    }

    /// LLaMA-1 65B.
    pub fn l1_65b() -> Self {
        Self {
            name: "L-1 65B",
            hidden: 8192,
            intermediate: 22016,
            heads: 64,
            kv_heads: 64,
            layers: 80,
        }
    }

    /// LLaMA-2 7B (same block shapes as LLaMA-1 7B).
    pub fn l2_7b() -> Self {
        Self { name: "L-2 7B", ..Self::l1_7b() }
    }

    /// LLaMA-2 13B.
    pub fn l2_13b() -> Self {
        Self { name: "L-2 13B", ..Self::l1_13b() }
    }

    /// LLaMA-3 8B (grouped-query attention: 8 KV heads).
    pub fn l3_8b() -> Self {
        Self {
            name: "L-3 8B",
            hidden: 4096,
            intermediate: 14336,
            heads: 32,
            kv_heads: 8,
            layers: 32,
        }
    }

    /// The Fig. 10 roster in plotting order.
    pub fn roster() -> Vec<LlamaConfig> {
        vec![
            Self::l1_7b(),
            Self::l1_13b(),
            Self::l1_30b(),
            Self::l1_65b(),
            Self::l2_7b(),
            Self::l2_13b(),
            Self::l3_8b(),
        ]
    }

    /// Head dimension (`hidden / heads`; 128 across the family).
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// KV projection width (`kv_heads × head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }

    /// The FC (linear-layer) GEMMs of one Transformer block at prefill
    /// length `seq`, in execution order: Q, K, V, O, Gate, Up, Down.
    pub fn fc_layers(&self, seq: usize) -> Vec<NamedGemm> {
        let h = self.hidden;
        let kv = self.kv_dim();
        let i = self.intermediate;
        vec![
            NamedGemm::new("q_proj", GemmShape::new(h, h, seq)),
            NamedGemm::new("k_proj", GemmShape::new(kv, h, seq)),
            NamedGemm::new("v_proj", GemmShape::new(kv, h, seq)),
            NamedGemm::new("o_proj", GemmShape::new(h, h, seq)),
            NamedGemm::new("gate_proj", GemmShape::new(i, h, seq)),
            NamedGemm::new("up_proj", GemmShape::new(i, h, seq)),
            NamedGemm::new("down_proj", GemmShape::new(h, i, seq)),
        ]
    }

    /// The attention-score GEMMs of one block at `seq` (§5.7 treats the K
    /// and V caches as weight tensors): per *query* head, `QKᵀ`
    /// (`seq × head_dim × seq`) and `PV` (`head_dim × seq × seq`).
    /// Returns (shape, instance count) pairs.
    pub fn attention_gemms(&self, seq: usize) -> Vec<(NamedGemm, usize)> {
        let d = self.head_dim();
        vec![
            (NamedGemm::new("qk^T", GemmShape::new(seq, d, seq)), self.heads),
            (NamedGemm::new("pv", GemmShape::new(d, seq, seq)), self.heads),
        ]
    }
}

/// A named GEMM workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NamedGemm {
    /// Layer name.
    pub name: &'static str,
    /// GEMM shape.
    pub shape: GemmShape,
}

impl NamedGemm {
    /// Creates a named GEMM.
    pub fn new(name: &'static str, shape: GemmShape) -> Self {
        Self { name, shape }
    }
}

/// The paper's prefill sequence length (§5.1).
pub const PAPER_SEQ_LEN: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_dimensions() {
        assert_eq!(LlamaConfig::l1_7b().hidden, 4096);
        assert_eq!(LlamaConfig::l1_7b().head_dim(), 128);
        assert_eq!(LlamaConfig::l1_65b().hidden, 8192);
        assert_eq!(LlamaConfig::l1_65b().head_dim(), 128);
        assert_eq!(LlamaConfig::l3_8b().kv_dim(), 1024);
        assert_eq!(LlamaConfig::l1_13b().kv_dim(), 5120);
    }

    #[test]
    fn fc_layer_shapes_7b() {
        let layers = LlamaConfig::l1_7b().fc_layers(2048);
        assert_eq!(layers.len(), 7);
        let q = &layers[0];
        assert_eq!((q.shape.n, q.shape.k, q.shape.m), (4096, 4096, 2048));
        let gate = &layers[4];
        assert_eq!((gate.shape.n, gate.shape.k), (11008, 4096));
        let down = &layers[6];
        assert_eq!((down.shape.n, down.shape.k), (4096, 11008));
    }

    #[test]
    fn gqa_shrinks_kv_projections() {
        let l3 = LlamaConfig::l3_8b().fc_layers(2048);
        assert_eq!(l3[1].shape.n, 1024, "k_proj under GQA");
        assert_eq!(l3[2].shape.n, 1024, "v_proj under GQA");
        assert_eq!(l3[0].shape.n, 4096, "q_proj full width");
    }

    #[test]
    fn attention_shapes() {
        let att = LlamaConfig::l1_7b().attention_gemms(2048);
        assert_eq!(att.len(), 2);
        let (qk, heads) = &att[0];
        assert_eq!((qk.shape.n, qk.shape.k, qk.shape.m), (2048, 128, 2048));
        assert_eq!(*heads, 32);
        let (pv, _) = &att[1];
        assert_eq!((pv.shape.n, pv.shape.k, pv.shape.m), (128, 2048, 2048));
    }

    #[test]
    fn roster_order_matches_fig10() {
        let names: Vec<&str> = LlamaConfig::roster().iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            ["L-1 7B", "L-1 13B", "L-1 30B", "L-1 65B", "L-2 7B", "L-2 13B", "L-3 8B"]
        );
    }

    #[test]
    fn macs_grow_with_model_size() {
        let roster = LlamaConfig::roster();
        let fc_macs =
            |cfg: &LlamaConfig| -> u64 { cfg.fc_layers(2048).iter().map(|l| l.shape.macs()).sum() };
        let (m7, m65) = (fc_macs(&roster[0]), fc_macs(&roster[3]));
        // Per-block FC MACs scale ≈4× from 7B to 65B (hidden² quadruples,
        // MLP ratio shrinks slightly).
        assert!(m65 > 7 * m7 / 2, "{m65} vs {m7}");
    }
}
