//! Scoreboard node entries — the bit-field record of Fig. 6.
//!
//! One entry exists per Hasse node (2^T entries). The hardware packs it
//! into ~34 bits; we keep the same fields in natural Rust types:
//! `Count`, `Distance`, one `Prefix Bitmap`, a `Suffix Bitmap`, and the
//! `Lane ID`. The figure stores prefix bitmaps for distances 1–4, but
//! after the backward pass (Alg. 2 line 11) only the one at the node's
//! own distance is non-zero, so that is the one kept; the packed form
//! ([`crate::PackedEntry`]) places it back in its distance's field.
//!
//! Bitmap semantics (the Prefix/Suffix *Translators* of Fig. 6): prefix
//! bitmap bit `j` names the immediate parent obtained by a 1→0 flip of the
//! node's own bit `j`; suffix bitmap bit `j` names the child obtained by a
//! 0→1 flip. The translators therefore never store full node indices —
//! exactly the compression the paper describes.

/// Largest accepted distance cap — enough for an *unbounded* chain on
/// 16-bit TransRows (distance ≤ 16, plus one so the cap can sit above
/// every reachable distance). The deployed hardware caps at 4
/// ([`HW_MAX_DISTANCE`]); the design-space exploration of Fig. 9 runs
/// uncapped.
pub const MAX_DISTANCE: usize = 17;

/// The deployed hardware's distance cap: nodes with distance ≥ 4 are
/// outliers dispatched at the end (§5.2, Fig. 6 stores prefix bitmaps for
/// distances 1–4).
pub const HW_MAX_DISTANCE: u8 = 4;

/// Sentinel for "no distance recorded yet" (`+∞` in Alg. 1).
pub const DIST_INF: u8 = u8::MAX;

/// Sentinel for "no lane assigned".
pub const NO_LANE: u8 = u8::MAX;

/// One Scoreboard entry (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEntry {
    /// Number of TransRows whose pattern equals this node (the `Count`
    /// field; drives FR reuse and load balancing).
    pub count: u32,
    /// Distance to the nearest *present* ancestor (or to node 0 through
    /// absent chains); [`DIST_INF`] until the forward pass reaches it.
    pub distance: u8,
    /// Prefix bitmap at the node's own `distance`: bit `j` set means the
    /// immediate parent `node & !(1<<j)` leads to a present ancestor at
    /// that distance. Zero while the distance is [`DIST_INF`].
    pub prefix_bitmap: u16,
    /// Suffix bitmap filled by the backward pass: bit `j` set means the
    /// child `node | (1<<j)` consumes this node's (transit) result.
    pub suffix_bitmap: u16,
    /// Lane this node's tree executes on ([`NO_LANE`] until balancing).
    pub lane: u8,
    /// `true` when the backward pass activated this absent node as a
    /// transit (TR) stop on a distance>1 path.
    pub transit: bool,
    /// The single immediate parent chosen by the backward pass (for
    /// distance>1 nodes) or by the balancer (distance-1 nodes). `u16::MAX`
    /// until chosen; node 0's children record parent 0.
    pub chosen_parent: u16,
}

impl NodeEntry {
    /// A fresh, never-touched entry.
    pub const fn empty() -> Self {
        Self {
            count: 0,
            distance: DIST_INF,
            prefix_bitmap: 0,
            suffix_bitmap: 0,
            lane: NO_LANE,
            transit: false,
            chosen_parent: u16::MAX,
        }
    }

    /// Whether at least one TransRow carries this pattern.
    #[inline]
    pub fn is_present(&self) -> bool {
        self.count > 0 && !self.transit
    }

    /// Whether the node participates in execution at all (present row or
    /// activated transit stop).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.count > 0
    }

    /// Whether a parent has been committed for this node.
    #[inline]
    pub fn has_chosen_parent(&self) -> bool {
        self.chosen_parent != u16::MAX
    }
}

impl Default for NodeEntry {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_is_inactive() {
        let e = NodeEntry::empty();
        assert!(!e.is_present());
        assert!(!e.is_active());
        assert!(!e.has_chosen_parent());
        assert_eq!(e.distance, DIST_INF);
        assert_eq!(e.lane, NO_LANE);
    }

    #[test]
    fn present_vs_transit() {
        let mut e = NodeEntry::empty();
        e.count = 2;
        assert!(e.is_present());
        assert!(e.is_active());
        e.transit = true;
        assert!(!e.is_present(), "transit nodes are not 'present' rows");
        assert!(e.is_active());
    }

    #[test]
    fn entry_fits_sixteen_bytes() {
        // 2^T entries per Scoreboard: at T = 16 every byte is 64 KiB.
        assert!(std::mem::size_of::<NodeEntry>() <= 16);
    }

    #[test]
    fn default_matches_empty() {
        assert_eq!(NodeEntry::default(), NodeEntry::empty());
    }
}
