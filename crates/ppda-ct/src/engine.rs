//! Shared slot-reception machinery for the CT protocols.

use ppda_radio::channel::CI_RELIABILITY;
use ppda_topology::Topology;

/// Precomputed per-node neighbor lists (links with non-zero PRR), used to
/// resolve one TDMA sub-slot in O(degree) instead of O(n).
///
/// Two views of the same links are kept: receiver-major (`neighbors[v]` =
/// who `v` can hear) for the one-receiver [`LinkTable::reception_prob`]
/// query, and transmitter-major (`in_neighbors[u]` = who hears `u`) for
/// the slot loop, which accumulates all receivers' miss products in one
/// pass over the *transmitter* set — usually far smaller than the
/// receiver set early in a flood.
#[derive(Debug, Clone)]
pub(crate) struct LinkTable {
    neighbors: Vec<Vec<(u16, f64)>>,
    in_neighbors: Vec<Vec<(u16, f64)>>,
}

impl LinkTable {
    /// Evaluate every link under `attenuation_db` of extra attenuation,
    /// with each PRR scaled by `1 - loss` — the fault layer's per-link
    /// erasure model. `loss = 0` multiplies by exactly 1.0, so a
    /// zero-fault table holds the plain attenuated PRRs bit for bit.
    pub(crate) fn new(topology: &Topology, attenuation_db: f64, loss: f64) -> Self {
        let keep = 1.0 - loss.clamp(0.0, 1.0);
        let n = topology.len();
        let neighbors: Vec<Vec<(u16, f64)>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .filter_map(|j| {
                        let p = topology.prr_at(i, j, attenuation_db) * keep;
                        (p > 0.0).then_some((j as u16, p))
                    })
                    .collect()
            })
            .collect();
        // Transpose, preserving ascending order on the inner index so the
        // transmitter-major accumulation multiplies link misses in exactly
        // the order `reception_prob` does (bit-identical f64 products).
        let mut in_neighbors: Vec<Vec<(u16, f64)>> = vec![Vec::new(); n];
        for (v, nbs) in neighbors.iter().enumerate() {
            for &(u, prr) in nbs {
                in_neighbors[u as usize].push((v as u16, prr));
            }
        }
        LinkTable {
            neighbors,
            in_neighbors,
        }
    }

    /// Receivers in range of transmitter `u`, with the PRR of the link
    /// *towards* each receiver (i.e. `prr(receiver ← u)`).
    pub(crate) fn in_neighbors(&self, u: usize) -> &[(u16, f64)] {
        &self.in_neighbors[u]
    }

    /// Fold an accumulated miss product and in-range count into the final
    /// reception probability (the tail of [`LinkTable::reception_prob`]).
    #[inline]
    pub(crate) fn combine(miss: f64, in_range: u32) -> f64 {
        if in_range == 0 {
            0.0
        } else {
            let combined = 1.0 - miss;
            if in_range >= 2 {
                combined * CI_RELIABILITY
            } else {
                combined
            }
        }
    }

    /// Probability that `receiver` decodes the packet of the current
    /// sub-slot, given `is_tx[v]` flags for all transmitters (which all
    /// carry the *same* packet — the MiniCast/Glossy case).
    ///
    /// Sender diversity: `1 − Π(1 − PRRᵢ)` over in-range transmitters, with
    /// the constructive-interference reliability factor applied when more
    /// than one copy arrives.
    pub(crate) fn reception_prob(&self, receiver: usize, is_tx: &[bool]) -> f64 {
        let mut miss = 1.0;
        let mut in_range = 0u32;
        for &(nb, prr) in &self.neighbors[receiver] {
            if is_tx[nb as usize] {
                miss *= 1.0 - prr;
                in_range += 1;
            }
        }
        Self::combine(miss, in_range)
    }

    /// Neighbor count of a node (non-zero-PRR links).
    #[cfg(test)]
    pub(crate) fn degree(&self, node: usize) -> usize {
        self.neighbors[node].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_transmitters_no_reception() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        assert_eq!(links.reception_prob(0, &[false; 4]), 0.0);
    }

    #[test]
    fn out_of_range_transmitter_is_silent() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        let mut is_tx = [false; 4];
        is_tx[3] = true; // 90 m away from node 0
        assert_eq!(links.reception_prob(0, &is_tx), 0.0);
    }

    #[test]
    fn single_neighbor_prob_matches_link_prr() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        let mut is_tx = [false; 4];
        is_tx[1] = true;
        let p = links.reception_prob(0, &is_tx);
        assert!((p - t.prr(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn diversity_increases_probability() {
        let t = Topology::grid(3, 3, 12.0, 2);
        let links = LinkTable::new(&t, 0.0, 0.0);
        let mut one = vec![false; 9];
        one[1] = true;
        let p1 = links.reception_prob(0, &one);
        let mut two = one.clone();
        two[3] = true;
        let p2 = links.reception_prob(0, &two);
        assert!(p2 >= p1 * 0.999, "diversity must not hurt: {p1} vs {p2}");
    }

    #[test]
    fn transmitter_major_accumulation_is_bit_identical() {
        // The slot loop accumulates miss products transmitter-major; the
        // result must equal reception_prob bit-for-bit (same multiply
        // order), for every receiver and transmitter set.
        let t = Topology::grid(4, 4, 14.0, 3);
        let n = t.len();
        let links = LinkTable::new(&t, 2.0, 0.0);
        for pattern in [0b1u32, 0b1010, 0b111100, 0xFFFF] {
            let is_tx: Vec<bool> = (0..n).map(|v| pattern & (1 << v) != 0).collect();
            let mut miss = vec![1.0f64; n];
            let mut in_range = vec![0u32; n];
            for (u, &tx) in is_tx.iter().enumerate() {
                if !tx {
                    continue;
                }
                for &(v, prr) in links.in_neighbors(u) {
                    miss[v as usize] *= 1.0 - prr;
                    in_range[v as usize] += 1;
                }
            }
            for v in 0..n {
                let direct = links.reception_prob(v, &is_tx);
                let folded = LinkTable::combine(miss[v], in_range[v]);
                assert_eq!(direct.to_bits(), folded.to_bits(), "receiver {v}");
            }
        }
    }

    #[test]
    fn degree_counts_nonzero_links() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        // End node has at least its adjacent neighbor.
        assert!(links.degree(0) >= 1);
    }
}
