//! Resource budgets for an ingestion run.

/// Hard budgets a single ingestion run may not exceed, shared across
/// all of its sources.
///
/// Every allocation the parser makes is bounded by one of these (or by
/// a compile-time constant): the line buffer by
/// [`Limits::max_line_bytes`], the set of distinct links by
/// [`Limits::max_edge_records`], the AS-number table by
/// [`Limits::max_nodes`]. The set holds only distinct links, so on
/// all-distinct input each accepted record costs it the most: up to 31
/// bytes (a hash table at 7/16 to 7/8 load, the old and the new table
/// both live while it grows; measured peak heap at 10³ to 3·10⁶
/// records). A hostile input can therefore cost at most a predictable
/// amount of memory before it is rejected with a
/// [`CapExceeded`](crate::IngestErrorKind::CapExceeded) diagnostic —
/// in strict *and* lenient mode alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted line, in bytes (excluding the newline).
    pub max_line_bytes: usize,
    /// Total bytes read across all sources.
    pub max_bytes: u64,
    /// Total lines read across all sources.
    pub max_lines: u64,
    /// Edge records accepted (after per-record expansion of
    /// multi-origin AS sets, before dedup): every record counts,
    /// duplicates and self-loops included.
    pub max_edge_records: u64,
    /// Distinct AS numbers accepted.
    pub max_nodes: u64,
    /// Most members in one multi-origin AS set (AS-links `M` records):
    /// bounds the cross-product expansion of a single hostile line.
    pub max_moas_set: usize,
}

impl Default for Limits {
    /// Generous for real measurement data (the paper's merged 2010
    /// snapshot is ~35k ASes / ~100k links; these admit four orders of
    /// magnitude more), tight enough that a pathological input cannot
    /// exhaust memory.
    fn default() -> Self {
        Limits {
            max_line_bytes: 64 * 1024,
            max_bytes: 4 << 30,
            max_lines: 1 << 28,
            max_edge_records: 1 << 28,
            max_nodes: 1 << 26,
            max_moas_set: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let l = Limits::default();
        assert!(l.max_line_bytes >= 1024);
        assert!(l.max_bytes > l.max_line_bytes as u64);
        assert!(l.max_moas_set >= 2);
    }
}
