//! The packed Scoreboard entry of Fig. 6 — the exact bit-field layout the
//! hardware stores, plus the Prefix/Suffix **Translators** that recover
//! node indices from bitmaps by single-bit flips.
//!
//! For a 4-bit Scoreboard the figure lays out one entry as:
//!
//! ```text
//!  bits  0..4   Node            (T bits)
//!  bits  4..12  Count           (8 bits, saturating)
//!  bits 12..16  Prefix Bitmap 1 (T bits, distance 1)
//!  bits 16..28  Prefix Bitmaps 2,3,4 (3×T bits)
//!  bits 28..32  Lane ID         (⌈log2 T⌉.. stored as 4 bits here)
//!  bits 32..36  Suffix Bitmap   (T bits)
//! ```
//!
//! We generalize the same layout to any `T ≤ 16`. The value of this
//! module is fidelity + the storage arithmetic (§3.2's `2·T·2^T` SI
//! bound): the algorithmic Scoreboard in [`crate::Scoreboard`] uses
//! unpacked entries for speed, and the round-trip tests here prove the
//! packed form loses nothing the hardware needs.

use crate::node::{NodeEntry, NO_LANE};

/// A packed Scoreboard entry (generalized Fig. 6 layout, little-endian
/// bit order within a `u128`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedEntry {
    bits: u128,
    width: u32,
}

/// Number of prefix-bitmap fields stored (distances 1..=4, Fig. 6).
pub const PACKED_PREFIX_FIELDS: usize = 4;

impl PackedEntry {
    /// Packs a node entry (pattern + fields) at the given TransRow width.
    ///
    /// Counts saturate at 255 (the 8-bit Count field). The entry's prefix
    /// bitmap goes into the field of its distance; distances beyond 4 are
    /// not representable (the hardware treats them as outliers) and
    /// their prefix bitmaps are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=16` or the pattern exceeds it.
    pub fn pack(width: u32, pattern: u16, entry: &NodeEntry) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        assert!((pattern as u32) < (1u32 << width), "pattern exceeds width");
        let mut bits: u128 = 0;
        let mut off = 0u32;
        let mut put = |v: u128, len: u32, off: &mut u32| {
            let mask = (1u128 << len) - 1;
            bits |= (v & mask) << *off;
            *off += len;
        };
        put(pattern as u128, width, &mut off);
        put(entry.count.min(255) as u128, 8, &mut off);
        for d in 1..=PACKED_PREFIX_FIELDS {
            let bitmap = if usize::from(entry.distance) == d { entry.prefix_bitmap } else { 0 };
            put(bitmap as u128, width, &mut off);
        }
        let lane = if entry.lane == NO_LANE { (1u128 << 4) - 1 } else { entry.lane as u128 };
        put(lane, 4, &mut off);
        put(entry.suffix_bitmap as u128, width, &mut off);
        debug_assert!(off as usize <= 128);
        Self { bits, width }
    }

    /// Total bits one entry occupies at this width
    /// (`T + 8 + 4·T + 4 + T = 6T + 12`; 36 for `T = 4`, matching Fig. 6).
    pub fn bit_len(width: u32) -> u32 {
        6 * width + 12
    }

    /// Storage for a full table of `2^T` entries, in bytes.
    pub fn table_bytes(width: u32) -> u64 {
        (Self::bit_len(width) as u64 * (1u64 << width)).div_ceil(8)
    }

    /// The raw packed bits.
    pub fn raw(&self) -> u128 {
        self.bits
    }

    fn take(&self, off: &mut u32, len: u32) -> u128 {
        let v = (self.bits >> *off) & ((1u128 << len) - 1);
        *off += len;
        v
    }

    /// The node pattern.
    pub fn pattern(&self) -> u16 {
        (self.bits & ((1u128 << self.width) - 1)) as u16
    }

    /// The Count field.
    pub fn count(&self) -> u32 {
        let mut off = self.width;
        self.take(&mut off, 8) as u32
    }

    /// Prefix bitmap for distance `d` (1..=4).
    ///
    /// # Panics
    ///
    /// Panics if `d` is outside `1..=4`.
    pub fn prefix_bitmap(&self, d: u32) -> u16 {
        assert!((1..=PACKED_PREFIX_FIELDS as u32).contains(&d), "distance must be 1..=4");
        let mut off = self.width + 8 + (d - 1) * self.width;
        self.take(&mut off, self.width) as u16
    }

    /// The Lane ID (`None` when unassigned).
    pub fn lane(&self) -> Option<u8> {
        let mut off = self.width + 8 + 4 * self.width;
        let v = self.take(&mut off, 4) as u8;
        if v == 0xF {
            None
        } else {
            Some(v)
        }
    }

    /// The suffix bitmap.
    pub fn suffix_bitmap(&self) -> u16 {
        let mut off = self.width + 8 + 4 * self.width + 4;
        self.take(&mut off, self.width) as u16
    }

    /// **Prefix Translator** (Fig. 6 bottom-left): decodes the distance-`d`
    /// prefix bitmap into node indices by 1→0 flips of the entry's own
    /// pattern.
    pub fn translate_prefixes(&self, d: u32) -> Vec<u16> {
        let p = self.pattern();
        let bm = self.prefix_bitmap(d);
        (0..self.width)
            .filter_map(|j| {
                let bit = 1u16 << j;
                if bm & bit != 0 {
                    debug_assert!(p & bit != 0, "prefix bitmap must mark set bits");
                    Some(p & !bit)
                } else {
                    None
                }
            })
            .collect()
    }

    /// **Suffix Translator** (Fig. 6 bottom-right): decodes the suffix
    /// bitmap into node indices by 0→1 flips.
    pub fn translate_suffixes(&self) -> Vec<u16> {
        let p = self.pattern();
        let bm = self.suffix_bitmap();
        (0..self.width)
            .filter_map(|j| {
                let bit = 1u16 << j;
                if bm & bit != 0 {
                    debug_assert!(p & bit == 0, "suffix bitmap must mark clear bits");
                    Some(p | bit)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoreboard::{Scoreboard, ScoreboardConfig};

    #[test]
    fn fig6_entry_is_36_bits_at_width_4() {
        // Fig. 6's 4-bit entry spans bit offsets 0..36 (Node 4 + Count 8 +
        // PB1..4 16 + Lane 4 + Suffix 4).
        assert_eq!(PackedEntry::bit_len(4), 36);
        assert_eq!(PackedEntry::bit_len(8), 60);
    }

    #[test]
    fn table_storage_arithmetic() {
        // A full 8-bit table: 256 entries × 60 bits = 1920 B.
        assert_eq!(PackedEntry::table_bytes(8), 1920);
        // The SI extract (TransRow+Prefix only) is the §3.2 bound of 512 B
        // — far smaller than the full working table, as the paper notes.
        assert!(PackedEntry::table_bytes(8) > 512);
    }

    #[test]
    fn roundtrip_from_real_scoreboard() {
        let patterns = [14u16, 2, 5, 1, 15, 7, 2];
        let sb = Scoreboard::build(ScoreboardConfig::with_width(4), patterns);
        for p in sb.active_nodes() {
            let e = sb.node(p);
            let packed = PackedEntry::pack(4, p, e);
            assert_eq!(packed.pattern(), p);
            assert_eq!(packed.count(), e.count.min(255));
            assert_eq!(packed.lane(), Some(e.lane));
            assert_eq!(packed.suffix_bitmap(), e.suffix_bitmap);
            for d in 1..=4u32 {
                let want = if u32::from(e.distance) == d { e.prefix_bitmap } else { 0 };
                assert_eq!(packed.prefix_bitmap(d), want, "node {p} distance {d}");
            }
        }
    }

    #[test]
    fn translators_recover_hasse_neighbors() {
        // Fig. 6's example: node 10 (1010) with PB1 = {0010, 1000} and
        // suffixes {1011, 1110}.
        let mut e = NodeEntry::empty();
        e.count = 1;
        e.distance = 1;
        e.prefix_bitmap = 0b1010; // both set bits marked
        e.suffix_bitmap = 0b0101; // both clear bits marked
        e.lane = 2;
        let packed = PackedEntry::pack(4, 0b1010, &e);
        let mut prefixes = packed.translate_prefixes(1);
        prefixes.sort_unstable();
        assert_eq!(prefixes, vec![0b0010, 0b1000]);
        let mut suffixes = packed.translate_suffixes();
        suffixes.sort_unstable();
        assert_eq!(suffixes, vec![0b1011, 0b1110]);
    }

    #[test]
    fn count_saturates_at_255() {
        let mut e = NodeEntry::empty();
        e.count = 1000;
        let packed = PackedEntry::pack(8, 42, &e);
        assert_eq!(packed.count(), 255);
    }

    #[test]
    fn unassigned_lane_roundtrips_as_none() {
        let e = NodeEntry::empty();
        let packed = PackedEntry::pack(8, 7, &e);
        assert_eq!(packed.lane(), None);
    }

    #[test]
    #[should_panic(expected = "pattern exceeds width")]
    fn oversized_pattern_rejected() {
        let _ = PackedEntry::pack(4, 16, &NodeEntry::empty());
    }
}
