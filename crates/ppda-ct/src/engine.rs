//! Shared slot-reception machinery for the CT protocols: node bitsets and
//! the per-round link table.

use ppda_radio::channel::CI_RELIABILITY;
use ppda_topology::Topology;

/// Words of a bitset over `n` nodes: bit `v % 64` of word `v / 64` is
/// node `v`.
pub(crate) fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Whether node `v` is in the set.
#[cfg(test)]
pub(crate) fn contains(set: &[u64], v: usize) -> bool {
    set[v / 64] >> (v % 64) & 1 != 0
}

/// Add node `v` to the set.
pub(crate) fn insert(set: &mut [u64], v: usize) {
    set[v / 64] |= 1 << (v % 64);
}

/// One round's links, receiver-major: for each receiver `v`, the bitset
/// of nodes it can hear (links with non-zero PRR) and the dense row of
/// link miss probabilities `1 − prr(v ← u)`; plus the transpose, for each
/// transmitter `u`, the bitset of nodes that hear it. A listener's
/// reception probability costs O(⌈n/64⌉ + in-range transmitters), and
/// the transpose tells a flood which listeners a change of transmitters
/// can reach, so it recomputes only those.
#[derive(Debug, Clone)]
pub(crate) struct LinkTable {
    n: usize,
    words: usize,
    /// `hears[v * words..][..words]`: the nodes `v` can hear.
    hears: Vec<u64>,
    /// `heard_by[u * words..][..words]`: the nodes that can hear `u`.
    heard_by: Vec<u64>,
    /// `miss[v * n + u]`: `1 − prr(v ← u)` (1 where there is no link).
    miss: Vec<f64>,
}

impl LinkTable {
    /// Evaluate every link under `attenuation_db` of extra attenuation,
    /// with each PRR scaled by `1 - loss` — the fault layer's per-link
    /// erasure model. `loss = 0` multiplies by exactly 1.0, so a
    /// zero-fault table holds the plain attenuated PRRs bit for bit.
    pub(crate) fn new(topology: &Topology, attenuation_db: f64, loss: f64) -> Self {
        let keep = 1.0 - loss.clamp(0.0, 1.0);
        let n = topology.len();
        let words = words(n);
        let mut hears = vec![0u64; n * words];
        let mut heard_by = vec![0u64; n * words];
        let mut miss = vec![1.0f64; n * n];
        for v in 0..n {
            for u in 0..n {
                // `prr_at` is 0 on the diagonal: nobody hears itself.
                let prr = topology.prr_at(v, u, attenuation_db) * keep;
                if prr > 0.0 {
                    insert(&mut hears[v * words..], u);
                    insert(&mut heard_by[u * words..], v);
                    miss[v * n + u] = 1.0 - prr;
                }
            }
        }
        LinkTable {
            n,
            words,
            hears,
            heard_by,
            miss,
        }
    }

    /// Probability that `receiver` decodes the packet of a sub-slot whose
    /// transmitters, all carrying the *same* packet (the MiniCast case),
    /// are the set `tx`.
    ///
    /// Sender diversity: `1 − Π(1 − PRRᵤ)` over the in-range
    /// transmitters `u`, multiplied in ascending order, with the
    /// constructive-interference reliability factor applied when more
    /// than one copy arrives.
    #[inline]
    pub(crate) fn reception_prob(&self, receiver: usize, tx: &[u64]) -> f64 {
        let (hears, row) = self.row(receiver);
        let mut miss = 1.0;
        let mut in_range = 0;
        for (w, (&h, &t)) in hears.iter().zip(tx).enumerate() {
            let mut bits = h & t;
            in_range += bits.count_ones();
            while bits != 0 {
                miss *= row[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        match in_range {
            0 => 0.0,
            1 => 1.0 - miss,
            _ => (1.0 - miss) * CI_RELIABILITY,
        }
    }

    /// Receiver `v`'s row: the bitset of nodes it hears and its miss
    /// probabilities.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> (&[u64], &[f64]) {
        (
            &self.hears[v * self.words..][..self.words],
            &self.miss[v * self.n..][..self.n],
        )
    }

    /// The bitset of nodes that can hear transmitter `u`.
    #[inline]
    pub(crate) fn heard_by(&self, u: usize) -> &[u64] {
        &self.heard_by[u * self.words..][..self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set of the given nodes over `n`.
    fn set(n: usize, nodes: &[usize]) -> Vec<u64> {
        let mut s = vec![0u64; words(n)];
        for &v in nodes {
            insert(&mut s, v);
        }
        s
    }

    #[test]
    fn no_transmitters_no_reception() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        assert_eq!(links.reception_prob(0, &set(4, &[])), 0.0);
    }

    #[test]
    fn out_of_range_transmitter_is_silent() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        // Node 3 is 90 m away from node 0.
        assert_eq!(links.reception_prob(0, &set(4, &[3])), 0.0);
    }

    #[test]
    fn single_neighbor_prob_matches_link_prr() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        let p = links.reception_prob(0, &set(4, &[1]));
        assert!((p - t.prr(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn diversity_increases_probability() {
        let t = Topology::grid(3, 3, 12.0, 2);
        let links = LinkTable::new(&t, 0.0, 0.0);
        let p1 = links.reception_prob(0, &set(9, &[1]));
        let p2 = links.reception_prob(0, &set(9, &[1, 3]));
        assert!(p2 >= p1 * 0.999, "diversity must not hurt: {p1} vs {p2}");
    }

    #[test]
    fn transmitter_major_accumulation_is_bit_identical() {
        // An independent oracle straight from the topology: multiply link
        // misses over the ascending transmitters with a non-zero scaled
        // PRR, then apply the constructive-interference rule. The bitset
        // table must match it bit for bit, for every receiver and
        // transmitter set, on both sides of the bit 63/64 word boundary.
        fn oracle(t: &Topology, att: f64, keep: f64, v: usize, tx: &[usize]) -> f64 {
            let mut miss = 1.0;
            let mut in_range = 0;
            for &u in tx {
                let prr = t.prr_at(v, u, att) * keep;
                if prr > 0.0 {
                    miss *= 1.0 - prr;
                    in_range += 1;
                }
            }
            match in_range {
                0 => 0.0,
                1 => 1.0 - miss,
                _ => (1.0 - miss) * CI_RELIABILITY,
            }
        }
        let small = Topology::grid(4, 4, 14.0, 3);
        let large = Topology::grid(10, 9, 14.0, 3);
        // Some receivers hear transmitters in both words of a set.
        assert!((0..large.len())
            .any(|v| large.prr_at(v, 63, 2.0) > 0.0 && large.prr_at(v, 64, 2.0) > 0.0));
        let cases: [(&Topology, &[&[usize]]); 2] = [
            (
                &small,
                &[&[0], &[1, 3], &[2, 3, 4, 5], &[0, 5, 6, 9, 15], &[]],
            ),
            (
                &large,
                &[
                    &[63],
                    &[64],
                    &[62, 63, 64, 65],
                    &[53, 54, 63, 64, 72, 73],
                    &[0, 9, 44, 63, 64, 80, 89],
                ],
            ),
        ];
        for (t, patterns) in cases {
            let n = t.len();
            let all: Vec<usize> = (0..n).collect();
            for (att, loss) in [(2.0, 0.0), (0.0, 0.3)] {
                let links = LinkTable::new(t, att, loss);
                for tx in patterns.iter().copied().chain([&all[..]]) {
                    for v in 0..n {
                        let table = links.reception_prob(v, &set(n, tx));
                        let expected = oracle(t, att, 1.0 - loss, v, tx);
                        assert_eq!(table.to_bits(), expected.to_bits(), "receiver {v}, {tx:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn heard_by_is_the_transpose_of_hears() {
        // On both sides of the bit 63/64 word boundary, with and without
        // loss: `v` hears `u` exactly when `u` is heard by `v`.
        let t = Topology::grid(10, 9, 14.0, 3);
        for loss in [0.0, 0.4] {
            let links = LinkTable::new(&t, 1.0, loss);
            for v in 0..t.len() {
                for u in 0..t.len() {
                    assert_eq!(
                        contains(links.row(v).0, u),
                        contains(links.heard_by(u), v),
                        "{v} ← {u} at loss {loss}"
                    );
                }
            }
        }
    }

    #[test]
    fn degree_counts_nonzero_links() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0, 0.0);
        // End node has at least its adjacent neighbor: with everyone else
        // transmitting, it hears something.
        assert!(links.reception_prob(0, &set(4, &[1, 2, 3])) > 0.0);
    }
}
