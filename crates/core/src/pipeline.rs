//! One-call pipeline: generate → percolate → tree → tags → segments.
//!
//! The experiment binaries and examples all start the same way; this
//! module packages that startup so downstream code can focus on its own
//! readout.

use crate::metrics::{metric_rows, MetricRow};
use crate::tags_analysis::{community_tag_infos, segment_bounds, CommunityTagInfo, SegmentBounds};
use crate::tree::CommunityTree;
use cpm::CpmResult;
use topology::{generate, AsTopology, InvalidConfig, ModelConfig};

/// Everything the paper's analysis needs, bundled.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The generated topology with its side datasets.
    pub topo: AsTopology,
    /// The percolation result (all k levels).
    pub result: CpmResult,
    /// The community tree with main/parallel classification.
    pub tree: CommunityTree,
    /// Structural metric rows (Figures 4.3 / 4.4 data).
    pub rows: Vec<MetricRow>,
    /// Tag profiles (IXP / geography) of every community.
    pub infos: Vec<CommunityTagInfo>,
    /// Crown / trunk / root segmentation derived from the tag profiles.
    pub bounds: SegmentBounds,
}

/// Runs the full pipeline for `config`, using `threads` workers for the
/// parallel CPM phases.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if the configuration fails validation.
///
/// # Panics
///
/// Panics if `threads == 0`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), topology::InvalidConfig> {
/// use kclique_core::analyze;
/// use topology::ModelConfig;
///
/// let analysis = analyze(&ModelConfig::tiny(42), 2)?;
/// assert!(analysis.result.k_max().unwrap() >= 8);
/// assert!(!analysis.tree.main_path().is_empty());
/// # Ok(())
/// # }
/// ```
pub fn analyze(config: &ModelConfig, threads: usize) -> Result<Analysis, InvalidConfig> {
    let topo = generate(config)?;
    let result = cpm::percolate_parallel(&topo.graph, threads, cpm::Mode::Exact);
    Ok(analyze_topology(topo, result))
}

/// Builds the analysis bundle from an existing topology and percolation
/// result (use this to avoid re-running CPM).
pub fn analyze_topology(topo: AsTopology, result: CpmResult) -> Analysis {
    let tree = CommunityTree::build(&result);
    let rows = metric_rows(&topo.graph, &result, &tree);
    let infos = community_tag_infos(&topo, &result, &tree);
    let k_max = result.k_max().unwrap_or(2);
    let bounds = segment_bounds(&topo, &infos, k_max);
    Analysis {
        topo,
        result,
        tree,
        rows,
        infos,
        bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_is_internally_consistent() {
        let analysis = analyze(&ModelConfig::tiny(42), 2).unwrap();
        assert_eq!(analysis.rows.len(), analysis.result.total_communities());
        assert_eq!(analysis.infos.len(), analysis.result.total_communities());
        assert_eq!(
            analysis.tree.main_path().len(),
            analysis.result.levels.len()
        );
        assert!(analysis.bounds.root_max_k < analysis.bounds.crown_min_k);
    }

    #[test]
    fn threads_do_not_change_the_analysis() {
        let a1 = analyze(&ModelConfig::tiny(5), 1).unwrap();
        let a4 = analyze(&ModelConfig::tiny(5), 4).unwrap();
        assert_eq!(a1.result.total_communities(), a4.result.total_communities());
        assert_eq!(a1.tree.main_path(), a4.tree.main_path());
        assert_eq!(a1.bounds, a4.bounds);
    }
}
