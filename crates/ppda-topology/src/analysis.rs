//! Graph analysis over link-quality topologies: BFS hop counts, diameter,
//! eccentricity, connectivity and the center node.

use crate::Topology;

impl Topology {
    /// Hop distance from `from` to every node, counting links with PRR at
    /// least `min_prr` as edges. `None` for unreachable nodes;
    /// `Some(0)` for `from` itself.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn hops_from(&self, from: usize, min_prr: f64) -> Vec<Option<u32>> {
        assert!(from < self.len(), "node {from} out of range");
        let n = self.len();
        let mut hops = vec![None; n];
        hops[from] = Some(0);
        let mut frontier = vec![from];
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for (v, hop) in hops.iter_mut().enumerate() {
                    if v != u && hop.is_none() && self.prr(u, v) >= min_prr {
                        *hop = Some(depth);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        hops
    }

    /// `true` when every node reaches every other over links with PRR at
    /// least `min_prr`.
    pub fn is_connected(&self, min_prr: f64) -> bool {
        self.hops_from(0, min_prr).iter().all(|h| h.is_some())
    }

    /// Network diameter in hops at the given link threshold, or `None` if
    /// the graph is disconnected.
    pub fn diameter(&self, min_prr: f64) -> Option<u32> {
        let mut max_hops = 0;
        for from in 0..self.len() {
            let hops = self.hops_from(from, min_prr);
            for h in hops {
                max_hops = max_hops.max(h?);
            }
        }
        Some(max_hops)
    }

    /// Eccentricity of a node: its maximum hop distance to any other node,
    /// or `None` if some node is unreachable.
    pub fn eccentricity(&self, node: usize, min_prr: f64) -> Option<u32> {
        let mut max_hops = 0;
        for h in self.hops_from(node, min_prr) {
            max_hops = max_hops.max(h?);
        }
        Some(max_hops)
    }

    /// The node with minimal eccentricity — the natural flood initiator.
    /// Ties break toward the lower node id. Falls back to node 0 if the
    /// graph is disconnected at this threshold.
    pub fn center_node(&self, min_prr: f64) -> usize {
        (0..self.len())
            .filter_map(|v| self.eccentricity(v, min_prr).map(|e| (e, v)))
            .min()
            .map(|(_, v)| v)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_hops_are_positions() {
        let t = Topology::line(5, 30.0, 1);
        let hops = t.hops_from(0, 0.5);
        for (i, h) in hops.iter().enumerate() {
            assert_eq!(h.unwrap() as usize, i, "node {i}");
        }
    }

    #[test]
    fn line_diameter() {
        let t = Topology::line(5, 30.0, 1);
        assert_eq!(t.diameter(0.5), Some(4));
    }

    #[test]
    fn line_center_is_middle() {
        let t = Topology::line(5, 30.0, 1);
        assert_eq!(t.center_node(0.5), 2);
    }

    #[test]
    fn disconnected_graph_detected() {
        // Two nodes 500 m apart cannot talk.
        let t = Topology::line(2, 500.0, 1);
        assert!(!t.is_connected(0.5));
        assert_eq!(t.diameter(0.5), None);
        assert_eq!(t.eccentricity(0, 0.5), None);
    }

    #[test]
    fn hops_from_self_is_zero() {
        let t = Topology::flocklab();
        assert_eq!(t.hops_from(7, 0.5)[7], Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hops_from_bad_node_panics() {
        let t = Topology::line(3, 30.0, 1);
        let _ = t.hops_from(99, 0.5);
    }

    #[test]
    fn center_of_flocklab_is_central() {
        let t = Topology::flocklab();
        let c = t.center_node(0.5);
        let ecc_c = t.eccentricity(c, 0.5).unwrap();
        let ecc_corner = t.eccentricity(0, 0.5).unwrap();
        assert!(ecc_c <= ecc_corner);
    }
}
