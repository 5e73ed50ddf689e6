//! The bootstrapping phase.
//!
//! Before any aggregation round, the deployment runs a one-time bootstrap
//! (paper §II/III): pairwise AES keys are provisioned, nodes learn the hop
//! structure ("which neighbor is reachable at what NTX value"), and the
//! network designates the aggregator set S4 trims its sharing chain to.
//! Nodes are assumed to be time-synchronized for the TDMA schedules, as in
//! the paper's evaluation; no synchronization flood is simulated.

use ppda_crypto::PairwiseKeys;
use ppda_topology::Topology;

use crate::config::ProtocolConfig;
use crate::error::MpcError;

/// Artifacts of the bootstrapping phase, consumed by both protocols.
#[derive(Debug, Clone)]
pub struct Bootstrap {
    keys: PairwiseKeys,
    aggregators: Vec<u16>,
    /// Full centrality ranking of every node, most central first. The
    /// aggregator set is a prefix of this; retaining the rest makes
    /// aggregator *re-election* under churn a ranked-list walk instead of
    /// a bootstrap re-run.
    ranking: Vec<u16>,
    hops: Vec<Vec<Option<u32>>>,
}

impl Bootstrap {
    /// Run the bootstrap for a deployment.
    ///
    /// Selects the `degree + 1 + redundancy` most central nodes as
    /// aggregators (ties broken by node id) and precomputes the hop table
    /// every node uses to reason about NTX reachability.
    ///
    /// # Errors
    ///
    /// * [`MpcError::InputMismatch`] if the topology size differs from the
    ///   configured one.
    /// * [`MpcError::TopologyDisconnected`] if the network is not connected
    ///   at the configured link threshold.
    pub fn run(topology: &Topology, config: &ProtocolConfig) -> Result<Self, MpcError> {
        if topology.len() != config.n_nodes {
            return Err(MpcError::InputMismatch {
                what: format!(
                    "topology has {} nodes, config expects {}",
                    topology.len(),
                    config.n_nodes
                ),
            });
        }
        if !topology.is_connected(config.link_threshold) {
            return Err(MpcError::TopologyDisconnected);
        }
        let n = topology.len();
        let hops: Vec<Vec<Option<u32>>> = (0..n)
            .map(|v| topology.hops_from(v, config.link_threshold))
            .collect();

        // Centrality ranking: eccentricity, then total hop count, then id.
        let mut ranked: Vec<(u32, u32, usize)> = (0..n)
            .map(|v| {
                let ecc = hops[v]
                    .iter()
                    .map(|h| h.expect("connected graph"))
                    .max()
                    .unwrap_or(0);
                let total: u32 = hops[v].iter().map(|h| h.expect("connected graph")).sum();
                (ecc, total, v)
            })
            .collect();
        ranked.sort();
        let ranking: Vec<u16> = ranked.iter().map(|&(_, _, v)| v as u16).collect();
        let aggregators: Vec<u16> = ranking
            .iter()
            .copied()
            .take(config.aggregator_count())
            .collect();

        Ok(Bootstrap {
            keys: PairwiseKeys::derive(&config.master_key, n as u16),
            aggregators,
            ranking,
            hops,
        })
    }

    /// The provisioned pairwise key store.
    pub fn keys(&self) -> &PairwiseKeys {
        &self.keys
    }

    /// The designated aggregator nodes, most central first.
    pub fn aggregators(&self) -> &[u16] {
        &self.aggregators
    }

    /// Full centrality ranking of every node, most central first (the
    /// aggregator set is its prefix).
    pub fn ranking(&self) -> &[u16] {
        &self.ranking
    }

    /// Elect up to `count` aggregators from the current membership: the
    /// `count` most central nodes that are still live, in ranking order.
    /// Nodes with `live[v] == false` (or beyond `live`'s length) are
    /// skipped — this is the churn-time re-election path, a ranked-list
    /// walk with no bootstrap re-run.
    pub fn elect(&self, count: usize, live: &[bool]) -> Vec<u16> {
        self.ranking
            .iter()
            .copied()
            .filter(|&v| live.get(v as usize).copied().unwrap_or(false))
            .take(count)
            .collect()
    }

    /// Hop distances from one node to every node at the bootstrap link
    /// threshold (the per-origin slice of the hop table).
    pub fn hops_from(&self, from: usize) -> &[Option<u32>] {
        &self.hops[from]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize) -> ProtocolConfig {
        ProtocolConfig::builder(n).build().unwrap()
    }

    #[test]
    fn selects_central_aggregators() {
        let t = Topology::flocklab();
        let b = Bootstrap::run(&t, &config(26)).unwrap();
        assert_eq!(b.aggregators().len(), 11);
        // The topology's center node must rank among the aggregators.
        let center = t.center_node(0.5) as u16;
        assert!(b.aggregators().contains(&center));
        // No duplicates.
        let mut set = b.aggregators().to_vec();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 11);
    }

    #[test]
    fn rejects_size_mismatch() {
        let t = Topology::flocklab();
        assert!(matches!(
            Bootstrap::run(&t, &config(45)),
            Err(MpcError::InputMismatch { .. })
        ));
    }

    #[test]
    fn rejects_disconnected() {
        let t = Topology::line(4, 500.0, 1);
        let cfg = ProtocolConfig::builder(4).degree(1).build().unwrap();
        assert!(matches!(
            Bootstrap::run(&t, &cfg),
            Err(MpcError::TopologyDisconnected)
        ));
    }

    #[test]
    fn hop_table_matches_topology() {
        let t = Topology::flocklab();
        let b = Bootstrap::run(&t, &config(26)).unwrap();
        let direct = t.hops_from(3, 0.5);
        assert_eq!(b.hops_from(3), &direct[..]);
    }

    #[test]
    fn keys_cover_all_pairs() {
        let t = Topology::flocklab();
        let b = Bootstrap::run(&t, &config(26)).unwrap();
        assert!(b.keys().key(0, 25).is_ok());
        assert!(b.keys().key(25, 0).is_ok());
    }

    #[test]
    fn ranking_prefixes_aggregators_and_covers_all_nodes() {
        let t = Topology::flocklab();
        let b = Bootstrap::run(&t, &config(26)).unwrap();
        assert_eq!(b.ranking().len(), 26);
        assert_eq!(&b.ranking()[..b.aggregators().len()], b.aggregators());
        let mut all = b.ranking().to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..26u16).collect::<Vec<_>>());
    }

    #[test]
    fn elect_skips_dead_nodes_in_ranking_order() {
        let t = Topology::flocklab();
        let b = Bootstrap::run(&t, &config(26)).unwrap();
        let all_live = vec![true; 26];
        assert_eq!(b.elect(11, &all_live), b.aggregators());
        // Kill the most central node: the set shifts down the ranking.
        let mut live = all_live.clone();
        live[b.ranking()[0] as usize] = false;
        let elected = b.elect(11, &live);
        assert_eq!(elected.len(), 11);
        assert!(!elected.contains(&b.ranking()[0]));
        assert_eq!(elected, &b.ranking()[1..12]);
        // Fewer live nodes than seats: take what's there.
        let two_live: Vec<bool> = (0..26).map(|v| v == 3 || v == 8).collect();
        let elected = b.elect(11, &two_live);
        assert_eq!(elected.len(), 2);
    }

    #[test]
    fn impl_is_deterministic() {
        let t = Topology::dcube();
        let cfg = config(45);
        let b1 = Bootstrap::run(&t, &cfg).unwrap();
        let b2 = Bootstrap::run(&t, &cfg).unwrap();
        assert_eq!(b1.aggregators(), b2.aggregators());
    }
}
