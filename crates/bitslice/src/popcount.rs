//! PopCount / Hamming-order utilities the Scoreboard and its timing
//! model share.
//!
//! The Scoreboard traverses Hasse nodes level by level — i.e. in
//! *Hamming order*: all patterns with one set bit, then two, … (Alg. 1
//! line 3 hard-codes this order for `T = 4`: `0,1,2,4,8,3,5,6,9,…`).

/// All `2^width` patterns sorted by popcount (ascending), ties by numeric
/// value — the generalized traversal order of Alg. 1 / Alg. 2.
///
/// # Panics
///
/// Panics if `width` is outside `1..=16`.
///
/// # Examples
///
/// ```
/// use ta_bitslice::hamming_order;
///
/// assert_eq!(hamming_order(4)[..8], [0, 1, 2, 4, 8, 3, 5, 6]);
/// ```
pub fn hamming_order(width: u32) -> Vec<u16> {
    assert!((1..=16).contains(&width), "width must be in 1..=16");
    let mut v: Vec<u16> = (0..(1u32 << width)).map(|p| p as u16).collect();
    v.sort_by_key(|&p| (p.count_ones(), p));
    v
}

/// Immediate Hasse *suffixes* of `pattern`: every pattern reachable by a
/// single 0→1 flip within `width` bits (the Suffix Translator of Fig. 6).
///
/// # Panics
///
/// Panics if `width` is outside `1..=16`.
pub fn suffixes(pattern: u16, width: u32) -> Vec<u16> {
    assert!((1..=16).contains(&width), "width must be in 1..=16");
    // Iterate only the zero bits (cost ∝ their count), mirroring the
    // set-bit walk in `prefixes`, instead of scanning all `width` lanes.
    let mut zeros = !pattern & ((1u32 << width) - 1) as u16;
    let mut out = Vec::with_capacity(zeros.count_ones() as usize);
    while zeros != 0 {
        let bit = zeros & zeros.wrapping_neg();
        out.push(pattern | bit);
        zeros &= zeros - 1;
    }
    out
}

/// Immediate Hasse *prefixes* of `pattern`: every pattern reachable by a
/// single 1→0 flip (the Prefix Translator of Fig. 6).
pub fn prefixes(pattern: u16) -> Vec<u16> {
    let mut out = Vec::new();
    let mut bits = pattern;
    while bits != 0 {
        let bit = bits & bits.wrapping_neg();
        out.push(pattern & !bit);
        bits &= bits - 1;
    }
    out
}

/// The Hasse level of a pattern = its popcount.
#[inline]
pub fn level(pattern: u16) -> u32 {
    pattern.count_ones()
}

/// Binomial coefficient `C(n, k)` (u64, exact for the small arguments the
/// parallelism analysis of §2.4 needs).
///
/// # Panics
///
/// Panics on intermediate overflow (not reachable for `n ≤ 20`).
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i).expect("binomial overflow") / (i + 1);
    }
    acc
}

/// Depth of a bitonic sorting network (Batcher 1968) over `n` inputs:
/// `k(k+1)/2` compare-exchange layers for `n` padded to `2^k` — the
/// PopCount sorter's pipeline-fill latency, charged once per sub-tile
/// (§4.6 cites the bitonic sorter's `O(log² n)` time).
///
/// # Examples
///
/// ```
/// use ta_bitslice::bitonic_depth;
///
/// assert_eq!(bitonic_depth(256), 36);
/// ```
pub fn bitonic_depth(n: usize) -> u32 {
    if n <= 1 {
        return 0;
    }
    let k = n.next_power_of_two().trailing_zeros();
    k * (k + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitonic_depth_formula() {
        assert_eq!(bitonic_depth(0), 0);
        assert_eq!(bitonic_depth(1), 0);
        assert_eq!(bitonic_depth(2), 1);
        assert_eq!(bitonic_depth(4), 3);
        assert_eq!(bitonic_depth(256), 36);
        assert_eq!(bitonic_depth(200), 36); // padded to 256
    }

    #[test]
    fn hamming_order_4bit_matches_alg1() {
        // The exact traversal order hard-coded in Alg. 1 (with node 15 at
        // the end, which the paper's forward list omits because level-4
        // nodes have no suffixes to propagate to).
        assert_eq!(hamming_order(4), vec![0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15]);
    }

    #[test]
    fn hamming_order_is_level_monotone() {
        for width in [1u32, 5, 8] {
            let order = hamming_order(width);
            assert_eq!(order.len(), 1 << width);
            for w in order.windows(2) {
                assert!(level(w[0]) <= level(w[1]));
            }
        }
    }

    #[test]
    fn suffixes_of_node_3_width_4() {
        // Fig. 4(a): node 3 (0011) has suffixes 7 (0111) and 11 (1011).
        assert_eq!(suffixes(0b0011, 4), vec![0b0111, 0b1011]);
        // The top node has none.
        assert!(suffixes(0b1111, 4).is_empty());
        // Node 0 has all level-1 nodes.
        assert_eq!(suffixes(0, 4), vec![1, 2, 4, 8]);
    }

    #[test]
    fn prefixes_of_node_11() {
        // Fig. 4(a): node 11 (1011) has prefixes 3 (0011), 9 (1001), 10 (1010).
        let mut p = prefixes(0b1011);
        p.sort_unstable();
        assert_eq!(p, vec![0b0011, 0b1001, 0b1010]);
        assert!(prefixes(0).is_empty());
        assert_eq!(prefixes(0b1000), vec![0]);
    }

    #[test]
    fn prefix_suffix_duality() {
        let width = 6;
        for pattern in 0u16..(1 << width) {
            for s in suffixes(pattern, width) {
                assert!(prefixes(s).contains(&pattern), "{pattern:b} -> {s:b}");
            }
            for p in prefixes(pattern) {
                assert!(suffixes(p, width).contains(&pattern), "{p:b} -> {pattern:b}");
            }
        }
    }

    #[test]
    fn binomial_parallelism_examples() {
        // §2.4: Level 2 of a 4-bit graph has parallelism 6; Level 4 of an
        // 8-bit graph has 70.
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(8, 4), 70);
        assert_eq!(binomial(8, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }
}
