//! MiniCast: many-to-many data sharing over a TDMA chain of interleaved
//! Glossy-style floods.
//!
//! The implementation is split along the protocol's natural lifecycle:
//!
//! * [`MiniCastSchedule`] — the immutable, topology-derived part: chain
//!   layout, initiator election, failover ranking, and the scheduled round
//!   length. Computing it walks the topology (BFS eccentricities), so a
//!   long-lived deployment builds it **once** and reuses it every round.
//! * [`LinkConditions`] — the cheap per-round state: the link table under
//!   this round's attenuation draw and link loss. One instance serves
//!   every phase of a round (all phases happen within seconds, under the
//!   same fading); [`LinkConditionsCache`] replays recurring ones.
//! * [`MiniCastScratch`] — the caller-owned flood state: every buffer a
//!   flood writes, and its result. A holder that runs one flood per
//!   round phase keeps one per phase and allocates nothing per flood.
//!
//! A round runs through [`MiniCastSchedule::run_into`] over one
//! `LinkConditions` and a scratch; [`MiniCastSchedule::run_with`] is its
//! allocating form, and [`MiniCastSchedule::run`] the all-to-all preset.
//!
//! A flood is simulated on node bitsets. A sub-slot's transmitters are
//! its packet's holders among the cycle's transmitting nodes, so a
//! silent sub-slot costs one AND. Each listener's reception probability
//! is memoized from one non-silent sub-slot to the next and recomputed
//! only when its in-range transmitters changed, which the link table's
//! transpose (who hears whom) tells from the change of transmitters. On
//! single-fragment chains a word of listeners draws into a success
//! bitset before its receptions are booked. Probabilities and the RNG
//! draw sequence are those of the plain per-listener loop, bit for bit.

use ppda_radio::{EnergyLedger, FrameSpec};
use ppda_sim::{derive_stream, SimDuration, SimTime, Xoshiro256};
use ppda_topology::Topology;

use crate::chain::ChainSpec;
use crate::engine::{insert, words, LinkTable};

/// MiniCast round parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniCastConfig {
    /// Number of times each node transmits the full chain (the paper's
    /// NTX). Low values reach only a perimeter of neighbors; high values
    /// give full network coverage at proportionally higher cost.
    pub ntx: u32,
    /// Override the computed round length (cycles). `None` = automatic:
    /// initiator eccentricity + `ntx` + a few slack cycles to absorb
    /// losses.
    pub max_cycles: Option<u32>,
    /// PRR threshold used when computing hop structure for the automatic
    /// round length.
    pub link_threshold: f64,
    /// Whether nodes power the radio down once their completion predicate
    /// holds and their NTX relay duty is done. The scalable protocol's
    /// firmware does this; a naive implementation keeps listening for the
    /// whole scheduled round.
    pub early_radio_off: bool,
}

impl Default for MiniCastConfig {
    fn default() -> Self {
        MiniCastConfig {
            ntx: 8,
            max_cycles: None,
            link_threshold: 0.5,
            early_radio_off: true,
        }
    }
}

/// Per-node outcome of a MiniCast round.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// Which chain packets this node holds at round end (own packets
    /// included).
    pub received: Vec<bool>,
    /// First instant at which the completion predicate held, if ever.
    pub predicate_met_at: Option<SimTime>,
    /// Instant the node switched its radio off (budget exhausted and
    /// predicate met), if before round end.
    pub radio_off_at: Option<SimTime>,
    /// Radio activity ledger for the round.
    pub ledger: EnergyLedger,
    /// Full-chain transmissions performed.
    pub chain_tx: u32,
    /// Whether the node was failure-injected (never participated).
    pub failed: bool,
}

/// Aggregate outcome of a MiniCast round.
#[derive(Debug, Clone, Default)]
pub struct MiniCastResult {
    /// Cycles actually simulated (≤ scheduled round length).
    pub cycles_run: u32,
    /// Scheduled cycles for the round.
    pub cycles_scheduled: u32,
    /// Duration of one chain cycle.
    pub cycle_duration: SimDuration,
    /// Per-node outcomes, indexed by node id.
    pub nodes: Vec<NodeOutcome>,
    chain_len: usize,
}

impl MiniCastResult {
    /// The a-priori scheduled round duration (the TDMA schedule is fixed
    /// before the round; phase boundaries use this, not the early-exit
    /// duration).
    pub fn scheduled_duration(&self) -> SimDuration {
        self.cycle_duration * self.cycles_scheduled as u64
    }

    /// Mean fraction of chain packets held per non-failed node.
    pub fn coverage(&self) -> f64 {
        let mut num = 0usize;
        let mut den = 0usize;
        for node in self.nodes.iter().filter(|n| !n.failed) {
            num += node.received.iter().filter(|&&r| r).count();
            den += self.chain_len;
        }
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// `true` if every non-failed node holds every packet.
    pub fn all_received(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| !n.failed)
            .all(|n| n.received.iter().all(|&r| r))
    }

    /// `true` if every non-failed node met its completion predicate.
    pub fn all_complete(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| !n.failed)
            .all(|n| n.predicate_met_at.is_some())
    }

    /// Mean radio-on time across non-failed nodes, in milliseconds.
    pub fn mean_radio_on_ms(&self) -> f64 {
        let live: Vec<&NodeOutcome> = self.nodes.iter().filter(|n| !n.failed).collect();
        if live.is_empty() {
            return 0.0;
        }
        live.iter()
            .map(|n| n.ledger.radio_on().as_millis_f64())
            .sum::<f64>()
            / live.len() as f64
    }
}

/// The per-round radio conditions: a link table under one attenuation draw
/// and one per-link loss.
///
/// Building one is O(n²) in the deployment size; both MiniCast phases of an
/// aggregation round can share a single instance because the round-scale
/// fading is drawn once per round.
#[derive(Debug, Clone)]
pub struct LinkConditions {
    links: LinkTable,
    n: usize,
}

impl LinkConditions {
    /// Evaluate every link of `topology` under `attenuation_db` of extra
    /// round-scale attenuation and a per-link erasure probability `loss`:
    /// each PRR is scaled by `1 - loss` for the round (the fault layer's
    /// link model, see [`FaultPlan`](crate::FaultPlan)). `loss = 0` keeps
    /// the attenuated PRRs bit for bit.
    pub fn new(topology: &Topology, attenuation_db: f64, loss: f64) -> Self {
        LinkConditions {
            links: LinkTable::new(topology, attenuation_db, loss),
            n: topology.len(),
        }
    }

    /// Number of nodes the conditions cover.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for an empty topology (unconstructible in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Memoizes [`LinkConditions`] per `(attenuation_db, loss)` operating
/// point, for holders that rebuild a table every round over one fixed
/// topology.
///
/// Profiling the round pipeline shows the O(n²) link-table build is paid
/// every round even though the fading mixtures draw the *calm* state
/// (attenuation 0 dB) for a large fraction of rounds, and the fault
/// layer's loss is a per-deployment constant — the same table over and
/// over. The cache keys on the exact f64 bit patterns, so a hit returns a
/// table **bit-identical** to a fresh [`LinkConditions::new`] build (table
/// construction draws no randomness).
///
/// The handful of retained entries use move-to-front eviction: the
/// recurring calm entry survives bursts of one-off continuous attenuation
/// draws, which themselves almost never repeat.
///
/// The cache is topology-oblivious by design — callers hold it alongside
/// **one** fixed topology (an executor's compiled plan) and must not share
/// it across topologies.
///
/// # Example
///
/// ```
/// use ppda_ct::LinkConditionsCache;
/// use ppda_topology::Topology;
///
/// let topology = Topology::grid(3, 3, 18.0, 5);
/// let mut cache = LinkConditionsCache::new();
/// cache.get(&topology, 0.0, 0.0);
/// cache.get(&topology, 4.5, 0.0); // continuous draw: one-off entry
/// cache.get(&topology, 0.0, 0.0); // calm again: no rebuild
/// assert_eq!(cache.builds(), 2);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinkConditionsCache {
    /// Most-recently-used first; bounded by `CAPACITY`.
    entries: Vec<((u64, u64), LinkConditions)>,
    hits: u64,
    builds: u64,
}

impl LinkConditionsCache {
    /// Retained operating points. One slot would thrash between the calm
    /// draw and the continuous draws; a few slots keep the calm entry
    /// resident unless that many distinct non-calm draws occur in a row.
    const CAPACITY: usize = 4;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The conditions for `(topology, attenuation_db, loss)`, built on the
    /// first request for this operating point and replayed bit-identically
    /// afterwards. `topology` must be the same network on every call.
    pub fn get(&mut self, topology: &Topology, attenuation_db: f64, loss: f64) -> &LinkConditions {
        debug_assert!(
            !attenuation_db.is_nan() && !loss.is_nan(),
            "NaN operating point would never hit its own cache entry"
        );
        // Keying on raw bit patterns would file 0.0 and -0.0 as distinct
        // entries (they build identical tables — `0.0 == -0.0`), wasting
        // MRU slots on the most common operating point; canonicalize the
        // negative-zero spelling away. `x + 0.0` maps -0.0 to +0.0 and is
        // the identity on every other non-NaN value.
        let key = ((attenuation_db + 0.0).to_bits(), (loss + 0.0).to_bits());
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            // Move-to-front so recurring points outlive one-off draws.
            self.entries[..=pos].rotate_right(1);
        } else {
            self.builds += 1;
            let conditions = LinkConditions::new(topology, attenuation_db, loss);
            self.entries.insert(0, (key, conditions));
            self.entries.truncate(Self::CAPACITY);
        }
        &self.entries[0].1
    }

    /// Requests served from a retained table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that built (and retained) a fresh table.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// Caller-owned MiniCast flood state: every buffer a flood writes, and
/// its result.
///
/// [`MiniCastSchedule::run_into`] resets and reuses all of it, so a
/// holder that keeps one per flood it runs — an executor keeps one per
/// round phase — allocates nothing per flood once the buffers have grown
/// to its largest topology and chain. The contents between floods carry
/// nothing over: a flood's draws and result do not depend on them.
#[derive(Debug, Default)]
pub struct MiniCastScratch {
    /// The holders of packet `j`, at `holders[j * w..][..w]`.
    holders: Vec<u64>,
    /// Node sets: radio on; joined the flood; live with the predicate
    /// not yet met; this cycle's chain transmitters; this sub-slot's
    /// transmitters; the last non-silent sub-slot's transmitters; the
    /// listeners to recompute; the nodes whose memoized probability is
    /// positive.
    on: Vec<u64>,
    joined: Vec<u64>,
    waiting: Vec<u64>,
    active: Vec<u64>,
    tx: Vec<u64>,
    last_tx: Vec<u64>,
    stale: Vec<u64>,
    drawable: Vec<u64>,
    /// Per node: reception probability under `last_tx`, packets held and
    /// frames received.
    prob: Vec<f64>,
    held: Vec<u64>,
    frames: Vec<u64>,
    /// Per-(node, packet) fragment receipt bitmaps, on fragmented chains
    /// only.
    frag_have: Vec<u64>,
    result: MiniCastResult,
}

/// Clear `buf` and refill it with `len` copies of `value`, keeping its
/// allocation.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// The immutable, reusable part of a MiniCast round: chain layout,
/// initiator election (the most central chain owner, plus the failover
/// ranking used when it is failure-injected), and the scheduled round
/// length.
///
/// Everything here derives from `(topology, chain, config)` only — no
/// per-round randomness — so a periodic-aggregation deployment computes it
/// once at bootstrap and replays it every sensing epoch with fresh
/// [`LinkConditions`].
#[derive(Debug, Clone)]
pub struct MiniCastSchedule {
    chain: ChainSpec,
    config: MiniCastConfig,
    initiator: usize,
    round_cycles: u32,
    /// Deduped chain owners ranked by (eccentricity, id) — the failover
    /// order when the designated initiator is dead. Owners disconnected at
    /// the link threshold are excluded.
    owner_rank: Vec<usize>,
    n: usize,
}

impl MiniCastSchedule {
    /// Extra cycles beyond `initiator eccentricity + ntx` kept in an
    /// automatic round length to absorb losses.
    const SLACK_CYCLES: u32 = 3;

    /// Bind a chain schedule to a topology. Per-round attenuation and
    /// loss are not part of the schedule: they live in the
    /// [`LinkConditions`] handed to [`MiniCastSchedule::run_with`].
    ///
    /// # Panics
    ///
    /// Panics if a chain owner id is outside the topology.
    pub fn new(topology: &Topology, chain: ChainSpec, config: MiniCastConfig) -> Self {
        let n = topology.len();
        for &o in chain.owners() {
            assert!((o as usize) < n, "chain owner {o} outside topology");
        }
        let mut owners: Vec<usize> = chain.owners().iter().map(|&o| o as usize).collect();
        owners.sort_unstable();
        owners.dedup();
        let mut ranked: Vec<(u32, usize)> = owners
            .iter()
            .filter_map(|&v| {
                topology
                    .eccentricity(v, config.link_threshold)
                    .map(|e| (e, v))
            })
            .collect();
        ranked.sort_unstable();
        let owner_rank: Vec<usize> = ranked.iter().map(|&(_, v)| v).collect();
        // The initiator kick-starts the round, so it must own at least one
        // sub-slot: the most central chain owner.
        let initiator = owner_rank
            .first()
            .copied()
            .unwrap_or_else(|| chain.owner(0) as usize);
        let ecc = topology
            .eccentricity(initiator, config.link_threshold)
            .unwrap_or(n as u32);
        let round_cycles = config
            .max_cycles
            .unwrap_or(ecc + config.ntx + Self::SLACK_CYCLES)
            .max(1);
        MiniCastSchedule {
            chain,
            config,
            initiator,
            round_cycles,
            owner_rank,
            n,
        }
    }

    /// The chain this schedule disseminates.
    pub fn chain(&self) -> &ChainSpec {
        &self.chain
    }

    /// The round parameters the schedule was built with.
    pub fn config(&self) -> &MiniCastConfig {
        &self.config
    }

    /// The flood initiator node.
    pub fn initiator(&self) -> usize {
        self.initiator
    }

    /// Scheduled round length in cycles.
    pub fn round_cycles(&self) -> u32 {
        self.round_cycles
    }

    /// Run one round where completion means "received the whole chain"
    /// (the all-to-all use of MiniCast).
    pub fn run(&self, conditions: &LinkConditions, rng: &mut Xoshiro256) -> MiniCastResult {
        let l = self.chain.len();
        self.run_with(conditions, rng, &vec![false; self.n], |_, have| {
            have.iter().filter(|&&h| h).count() == l
        })
    }

    /// Run one round with failure injection and a custom per-node
    /// completion predicate, into a fresh [`MiniCastScratch`]: the
    /// allocating form of [`MiniCastSchedule::run_into`], with the same
    /// draws and the same result.
    ///
    /// `failed[v]` nodes never power their radio. The predicate receives
    /// `(node, received)` and decides when the node has all it needs; a
    /// node switches off once its predicate holds *and* it has transmitted
    /// the chain NTX times (its relay duty). The predicate must be
    /// monotone — once it holds for a node it holds for every superset of
    /// that node's packets — because it is called only until it first
    /// holds. It may keep state (`FnMut`), for instance a per-node cursor
    /// over the packets it still waits for.
    ///
    /// # Panics
    ///
    /// Panics if `failed.len()` or the conditions' node count differs from
    /// the topology size the schedule was built for.
    pub fn run_with(
        &self,
        conditions: &LinkConditions,
        rng: &mut Xoshiro256,
        failed: &[bool],
        predicate: impl FnMut(usize, &[bool]) -> bool,
    ) -> MiniCastResult {
        let mut scratch = MiniCastScratch::default();
        self.run_into(conditions, rng, failed, predicate, &mut scratch);
        scratch.result
    }

    /// [`MiniCastSchedule::run_with`] into caller-owned state: the flood
    /// resets and reuses every buffer of `scratch`, its result's per-node
    /// `received` rows included, and returns that result. A holder that
    /// keeps one scratch per flood it runs allocates nothing once the
    /// buffers have grown to its largest topology and chain. The draws,
    /// the predicate calls and every result field equal a fresh
    /// `run_with`'s, whatever `scratch` held before.
    ///
    /// # Panics
    ///
    /// Panics if `failed.len()` or the conditions' node count differs from
    /// the topology size the schedule was built for.
    pub fn run_into<'s>(
        &self,
        conditions: &LinkConditions,
        rng: &mut Xoshiro256,
        failed: &[bool],
        mut predicate: impl FnMut(usize, &[bool]) -> bool,
        scratch: &'s mut MiniCastScratch,
    ) -> &'s MiniCastResult {
        let n = self.n;
        assert_eq!(conditions.len(), n, "link conditions size mismatch");
        assert_eq!(failed.len(), n, "failure mask size mismatch");
        let links = &conditions.links;
        let l = self.chain.len();
        let slot = self.chain.slot_duration();
        let airtime = self.chain.frame().airtime();
        let cycle_dur = self.chain.cycle_duration();
        // Fragmented packets occupy `frags` frames per sub-slot: a
        // transmitter sends (and a receiver draws reception for) each
        // fragment individually, and a packet counts as received only when
        // every fragment arrived.
        let frags = self.chain.fragments();
        let frag_full = u64::MAX >> (64 - frags);
        let tx_air = airtime * u64::from(frags);

        let w = words(n);
        let MiniCastScratch {
            holders,
            on,
            joined,
            waiting,
            active,
            tx,
            last_tx,
            stale,
            drawable,
            prob,
            held,
            frames,
            frag_have,
            result,
        } = scratch;
        reset(holders, l * w, 0);
        for set in [
            &mut *on,
            &mut *joined,
            &mut *waiting,
            &mut *active,
            &mut *tx,
            &mut *last_tx,
            &mut *stale,
            &mut *drawable,
        ] {
            reset(set, w, 0);
        }
        reset(prob, n, 0.0);
        reset(held, n, 0);
        reset(frames, n, 0);
        reset(frag_have, if frags > 1 { n * l } else { 0 }, 0);
        result.cycles_scheduled = self.round_cycles;
        result.cycle_duration = cycle_dur;
        result.chain_len = l;
        let nodes = &mut result.nodes;
        nodes.truncate(n);
        for (node, &f) in nodes.iter_mut().zip(failed) {
            node.received.clear();
            node.received.resize(l, false);
            node.predicate_met_at = None;
            node.radio_off_at = None;
            node.ledger = EnergyLedger::new();
            node.chain_tx = 0;
            node.failed = f;
        }
        let reused = nodes.len();
        nodes.extend(failed[reused..].iter().map(|&f| NodeOutcome {
            received: vec![false; l],
            predicate_met_at: None,
            radio_off_at: None,
            ledger: EnergyLedger::new(),
            chain_tx: 0,
            failed: f,
        }));

        for (j, &owner) in self.chain.owners().iter().enumerate() {
            let owner = owner as usize;
            if !failed[owner] {
                nodes[owner].received[j] = true;
                insert(&mut holders[j * w..], owner);
                held[owner] += 1;
            }
        }
        // If the designated initiator is dead, the deployment's failover
        // kicks in: the next most central live chain owner starts the
        // round (real CT stacks rotate initiators on sync silence).
        let initiator = if failed[self.initiator] {
            self.owner_rank.iter().copied().find(|&v| !failed[v])
        } else {
            Some(self.initiator)
        };
        if let Some(init) = initiator {
            insert(joined, init);
        }
        // Initial predicate check (e.g. a node that owns everything it
        // needs). `waiting` holds the live nodes whose predicate has not
        // held yet: the only ones it is called for.
        for (v, node) in nodes.iter_mut().enumerate() {
            if !node.failed {
                insert(on, v);
                if predicate(v, &node.received) {
                    node.predicate_met_at = Some(SimTime::ZERO);
                } else {
                    insert(waiting, v);
                }
            }
        }

        // Node sets are bitsets of `w` words (see `engine`): the holders
        // of packet `j` at `holders[j * w..][..w]`, the nodes whose radio
        // is on, the joined ones (the initiator and everyone who has
        // decoded a frame), a cycle's chain transmitters, and one
        // sub-slot's transmitters: its packet's holders among the cycle's
        // active nodes. A silent sub-slot thus costs one AND and draws no
        // randomness. Each listener multiplies `1 − prr` over its
        // in-range transmitters in ascending order, and listeners draw in
        // ascending order, so the probabilities and the RNG draw sequence
        // depend on the node order alone.
        //
        // `prob[v]` memoizes listener `v`'s reception probability under
        // `last_tx`, the previous non-silent sub-slot's transmitters, and
        // `drawable` holds the nodes whose memoized probability is
        // positive. The link table is fixed within a flood and `on` only
        // shrinks, so a listener that hears no node of `tx ^ last_tx`
        // has the same in-range transmitters, hence the same ascending
        // product, as before. Only the others are recomputed, and those
        // that were transmitting, whose probability was never taken. The
        // memo starts empty in every flood.
        let mut local_rng = rng.clone();
        let mut primed = false;
        let ntx = self.config.ntx;
        let mut cycles_run = 0u32;
        for cycle in 0..self.round_cycles {
            cycles_run = cycle + 1;
            let cycle_start = SimTime::ZERO + cycle_dur * u64::from(cycle);
            // Who transmits the chain during this cycle. A transmitter
            // sends every packet it holds now: a packet's holders change
            // only in its own sub-slot, where its transmitters don't
            // listen.
            for (k, a) in active.iter_mut().enumerate() {
                *a = 0;
                let mut bits = on[k] & joined[k];
                while bits != 0 {
                    let v = k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let node = &mut nodes[v];
                    if node.chain_tx < ntx {
                        *a |= 1 << (v % 64);
                        node.chain_tx += 1;
                        node.ledger.add_tx(tx_air * held[v]);
                    }
                }
            }

            for j in 0..l {
                let holders_j = &mut holders[j * w..][..w];
                let mut any_tx = 0;
                for ((t, &h), &a) in tx.iter_mut().zip(&*holders_j).zip(&*active) {
                    *t = h & a;
                    any_tx |= *t;
                }
                if any_tx == 0 {
                    continue;
                }
                let slot_end = cycle_start + slot * (j as u64 + 1);

                // The listeners to recompute, among `on & !tx`: those
                // that were transmitting and those that hear a node of
                // `tx ^ last_tx` (held in `last_tx` meanwhile). A repeated
                // transmitter set recomputes none.
                if primed {
                    for ((s, last), &t) in stale.iter_mut().zip(last_tx.iter_mut()).zip(&*tx) {
                        *s = *last;
                        *last ^= t;
                    }
                    for (k, &t) in tx.iter().enumerate() {
                        let mut delta = std::mem::replace(&mut last_tx[k], t);
                        while delta != 0 {
                            let u = k * 64 + delta.trailing_zeros() as usize;
                            delta &= delta - 1;
                            for (s, &h) in stale.iter_mut().zip(links.heard_by(u)) {
                                *s |= h;
                            }
                        }
                    }
                } else {
                    stale.fill(u64::MAX);
                    last_tx.copy_from_slice(tx);
                    primed = true;
                }
                for (k, s) in stale.iter().enumerate() {
                    let mut bits = s & on[k] & !tx[k];
                    while bits != 0 {
                        let v = k * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let p = links.reception_prob(v, tx);
                        prob[v] = p;
                        let bit = 1u64 << (v % 64);
                        drawable[k] = drawable[k] & !bit | u64::from(p > 0.0) << (v % 64);
                    }
                }

                for k in 0..w {
                    let mut rest = on[k] & !tx[k] & drawable[k];
                    if frags == 1 {
                        // One draw per listener: resolve the word's draws
                        // into a success bitset, then do its bookkeeping.
                        // No reception changes another listener's draw
                        // within a sub-slot, so the draw sequence is the
                        // per-listener one. The draws do not branch on
                        // whether a listener holds the packet; this path
                        // runs `paper_b1` 1.24× faster than the loop
                        // below (EXPERIMENTS.md).
                        let mut hits = 0u64;
                        while rest != 0 {
                            let b = rest.trailing_zeros() as usize;
                            rest &= rest - 1;
                            hits |= u64::from(local_rng.chance(prob[k * 64 + b])) << b;
                        }
                        // Overhearing a known packet still synchronizes.
                        joined[k] |= hits;
                        let mut new = hits & !holders_j[k];
                        holders_j[k] |= new;
                        let mut check = new & waiting[k];
                        while new != 0 {
                            let v = k * 64 + new.trailing_zeros() as usize;
                            new &= new - 1;
                            nodes[v].received[j] = true;
                            held[v] += 1;
                            frames[v] += 1;
                        }
                        while check != 0 {
                            let v = k * 64 + check.trailing_zeros() as usize;
                            check &= check - 1;
                            let node = &mut nodes[v];
                            if predicate(v, &node.received) {
                                node.predicate_met_at = Some(slot_end);
                                waiting[k] &= !(1 << (v % 64));
                            }
                        }
                        continue;
                    }
                    // Fragmented chains draw per listener and fragment.
                    while rest != 0 {
                        let b = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let (v, bit) = (k * 64 + b, 1u64 << b);
                        let p = prob[v];
                        if holders_j[k] & bit != 0 {
                            if local_rng.chance(p) {
                                joined[k] |= bit;
                            }
                            continue;
                        }
                        // Each still-missing fragment is an independent
                        // reception opportunity this sub-slot (transmitters
                        // hold complete packets, so every fragment is on
                        // the air). The packet completes only once the
                        // receipt bitmap fills — losing one fragment
                        // forfeits the whole packet for this sub-slot,
                        // never splices.
                        let mut got = frag_have[v * l + j];
                        let mut new_rx = 0u64;
                        for f in 0..frags {
                            if got >> f & 1 == 0 && local_rng.chance(p) {
                                got |= 1 << f;
                                new_rx += 1;
                            }
                        }
                        if new_rx == 0 {
                            continue;
                        }
                        joined[k] |= bit;
                        frames[v] += new_rx;
                        frag_have[v * l + j] = got;
                        if got == frag_full {
                            let node = &mut nodes[v];
                            node.received[j] = true;
                            holders_j[k] |= bit;
                            held[v] += 1;
                            if waiting[k] & bit != 0 && predicate(v, &node.received) {
                                node.predicate_met_at = Some(slot_end);
                                waiting[k] &= !bit;
                            }
                        }
                    }
                }
            }

            // Cycle boundary: switch off finished nodes, those no longer
            // waiting whose NTX duty is done. Nodes that decoded a frame
            // this cycle joined already; they transmit from the next
            // cycle on.
            if self.config.early_radio_off {
                let cycle_end = cycle_start + cycle_dur;
                for (k, word) in on.iter_mut().enumerate() {
                    let mut done = *word & !waiting[k];
                    while done != 0 {
                        let v = k * 64 + done.trailing_zeros() as usize;
                        done &= done - 1;
                        if nodes[v].chain_tx >= ntx {
                            *word &= !(1 << (v % 64));
                            nodes[v].radio_off_at = Some(cycle_end);
                        }
                    }
                }
            }
            if on.iter().all(|&word| word == 0) {
                break;
            }
        }
        *rng = local_rng;

        // Every sub-slot a node's radio is on lasts one `slot`: airtime
        // plus turnaround and processing per frame, so never less than
        // what the node sent or received in it. The radio switches only
        // at cycle boundaries, so a node's on-time is whole cycles, and
        // its listen time is the exact remainder after its tx and rx
        // time — the ledger needs no per-sub-slot writes. Durations are
        // whole microseconds, so one rx entry per node equals the sum of
        // one per frame.
        let round_end = SimTime::ZERO + cycle_dur * u64::from(cycles_run);
        for (node, &rx_frames) in nodes.iter_mut().zip(&*frames) {
            if node.failed {
                continue;
            }
            node.ledger.add_rx(airtime * rx_frames);
            let on_time = node.radio_off_at.unwrap_or(round_end) - SimTime::ZERO;
            let busy = node.ledger.tx_time() + node.ledger.rx_time();
            node.ledger.add_listen(on_time.saturating_sub(busy));
        }
        result.cycles_run = cycles_run;
        result
    }

    /// Measure mean all-to-all coverage as a function of NTX — the
    /// non-linear curve (steep rise, slow tail) that motivates S4's low-NTX
    /// sharing phase.
    ///
    /// Every node owns one sub-slot of `frame`; each NTX value runs
    /// `iterations` rounds under calm, loss-free [`LinkConditions`].
    /// Returns `(ntx, mean coverage over iterations)` pairs.
    pub fn coverage_vs_ntx(
        topology: &Topology,
        frame: FrameSpec,
        ntx_values: &[u32],
        iterations: u32,
        seed: u64,
    ) -> Vec<(u32, f64)> {
        // The chain and link conditions are NTX-independent: build them once
        // and share them across the sweep.
        let owners: Vec<u16> = (0..topology.len() as u16).collect();
        let chain = ChainSpec::new(frame, owners).expect("non-empty");
        let conditions = LinkConditions::new(topology, 0.0, 0.0);
        ntx_values
            .iter()
            .map(|&ntx| {
                let config = MiniCastConfig {
                    ntx,
                    ..MiniCastConfig::default()
                };
                let schedule = MiniCastSchedule::new(topology, chain.clone(), config);
                let mut total = 0.0;
                for it in 0..iterations {
                    let mut rng =
                        Xoshiro256::seed_from(derive_stream(seed, (ntx as u64) << 32 | it as u64));
                    total += schedule.run(&conditions, &mut rng).coverage();
                }
                (ntx, total / iterations as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::contains;
    use ppda_radio::FrameSpec;
    use proptest::prelude::*;

    fn frame() -> FrameSpec {
        FrameSpec::new(8, 0).unwrap()
    }

    fn all_to_all(topology: &Topology) -> ChainSpec {
        ChainSpec::new(frame(), (0..topology.len() as u16).collect()).unwrap()
    }

    /// Calm, loss-free conditions: the plain link table.
    fn calm(topology: &Topology) -> LinkConditions {
        LinkConditions::new(topology, 0.0, 0.0)
    }

    #[test]
    fn full_coverage_at_high_ntx() {
        let t = Topology::flocklab();
        let mc = MiniCastSchedule::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256::seed_from(42);
        let r = mc.run(&calm(&t), &mut rng);
        assert!(r.coverage() > 0.99, "coverage {}", r.coverage());
        assert!(r.all_received());
        assert!(r.all_complete());
    }

    #[test]
    fn low_ntx_partial_coverage_on_line() {
        // A 10-node line with 30 m spacing: data cannot cross the network
        // at ntx=2.
        let t = Topology::line(10, 30.0, 3);
        let mc = MiniCastSchedule::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 2,
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256::seed_from(7);
        let r = mc.run(&calm(&t), &mut rng);
        assert!(r.coverage() < 0.95, "line coverage {}", r.coverage());
        assert!(!r.all_received());
    }

    #[test]
    fn coverage_monotone_in_ntx() {
        let t = Topology::flocklab();
        let curve = MiniCastSchedule::coverage_vs_ntx(&t, frame(), &[1, 3, 6, 12], 5, 99);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.05,
                "coverage should grow with ntx: {curve:?}"
            );
        }
        assert!(curve.last().unwrap().1 > 0.99);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = Topology::flocklab();
        let mc = MiniCastSchedule::new(&t, all_to_all(&t), MiniCastConfig::default());
        let r1 = mc.run(&calm(&t), &mut Xoshiro256::seed_from(5));
        let r2 = mc.run(&calm(&t), &mut Xoshiro256::seed_from(5));
        assert_eq!(r1.coverage(), r2.coverage());
        assert_eq!(r1.cycles_run, r2.cycles_run);
        for (a, b) in r1.nodes.iter().zip(&r2.nodes) {
            assert_eq!(a.received, b.received);
            assert_eq!(a.predicate_met_at, b.predicate_met_at);
        }
    }

    #[test]
    fn degraded_conditions_reduce_coverage() {
        let t = Topology::flocklab();
        let config = MiniCastConfig {
            ntx: 2,
            max_cycles: Some(4),
            ..Default::default()
        };
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), config);
        let clean = LinkConditions::new(&t, 0.0, 0.0);
        let lossy = LinkConditions::new(&t, 0.0, 0.6);
        let mut clean_cov = 0.0;
        let mut lossy_cov = 0.0;
        for seed in 0..8u64 {
            clean_cov += schedule
                .run(&clean, &mut Xoshiro256::seed_from(seed))
                .coverage();
            lossy_cov += schedule
                .run(&lossy, &mut Xoshiro256::seed_from(seed))
                .coverage();
        }
        assert!(
            lossy_cov < clean_cov,
            "60% link loss must hurt coverage: {lossy_cov} vs {clean_cov}"
        );
    }

    #[test]
    #[should_panic(expected = "link conditions size mismatch")]
    fn mismatched_conditions_panic() {
        let t = Topology::flocklab();
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), MiniCastConfig::default());
        let small = LinkConditions::new(&Topology::line(3, 20.0, 1), 0.0, 0.0);
        let _ = schedule.run(&small, &mut Xoshiro256::seed_from(1));
    }

    #[test]
    fn failed_nodes_never_participate() {
        let t = Topology::flocklab();
        let mut failed = vec![false; t.len()];
        failed[3] = true;
        failed[17] = true;
        let mc = MiniCastSchedule::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let l = t.len();
        let r = mc.run_with(
            &calm(&t),
            &mut Xoshiro256::seed_from(11),
            &failed,
            |_, have| {
                // Live nodes need every packet except the failed nodes' own.
                have.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != 3 && j != 17)
                    .all(|(_, &h)| h)
            },
        );
        assert_eq!(r.nodes[3].chain_tx, 0);
        assert_eq!(r.nodes[3].ledger.radio_on(), SimDuration::ZERO);
        assert!(r.nodes[3].failed);
        // The failed nodes' packets spread to nobody.
        for v in 0..l {
            if v != 3 {
                assert!(!r.nodes[v].received[3]);
            }
        }
        // Everyone else still completes.
        assert!(r.all_complete());
    }

    #[test]
    fn early_radio_off_with_cheap_predicate() {
        let t = Topology::flocklab();
        // Predicate: own packet only — met immediately; nodes switch off
        // as soon as their NTX duty is done.
        let mc = MiniCastSchedule::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 2,
                ..Default::default()
            },
        );
        let failed = vec![false; t.len()];
        let r = mc.run_with(
            &calm(&t),
            &mut Xoshiro256::seed_from(13),
            &failed,
            |v, have| have[v],
        );
        // Radio-off must happen well before the scheduled end for most nodes.
        let off_count = r.nodes.iter().filter(|n| n.radio_off_at.is_some()).count();
        assert!(off_count > t.len() / 2, "only {off_count} turned off early");
        // And the round must terminate early once everyone is off.
        assert!(r.cycles_run <= r.cycles_scheduled);
    }

    #[test]
    fn radio_on_scales_with_chain_length() {
        let t = Topology::flocklab();
        let short = ChainSpec::new(frame(), (0..t.len() as u16).collect()).unwrap();
        let long_owners: Vec<u16> = (0..t.len() as u16).cycle().take(t.len() * 4).collect();
        let long = ChainSpec::new(frame(), long_owners).unwrap();
        let cfg = MiniCastConfig {
            ntx: 6,
            ..Default::default()
        };
        let r_short =
            MiniCastSchedule::new(&t, short, cfg).run(&calm(&t), &mut Xoshiro256::seed_from(17));
        let r_long =
            MiniCastSchedule::new(&t, long, cfg).run(&calm(&t), &mut Xoshiro256::seed_from(17));
        assert!(
            r_long.mean_radio_on_ms() > 2.0 * r_short.mean_radio_on_ms(),
            "long chain {} vs short {}",
            r_long.mean_radio_on_ms(),
            r_short.mean_radio_on_ms()
        );
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn owner_out_of_range_panics() {
        let t = Topology::line(3, 20.0, 1);
        let chain = ChainSpec::new(frame(), vec![5]).unwrap();
        let _ = MiniCastSchedule::new(&t, chain, MiniCastConfig::default());
    }

    #[test]
    #[should_panic(expected = "failure mask")]
    fn bad_failure_mask_panics() {
        let t = Topology::line(3, 20.0, 1);
        let chain = ChainSpec::new(frame(), vec![0, 1, 2]).unwrap();
        let mc = MiniCastSchedule::new(&t, chain, MiniCastConfig::default());
        let _ = mc.run_with(
            &calm(&t),
            &mut Xoshiro256::seed_from(1),
            &[false; 2],
            |_, _| true,
        );
    }

    #[test]
    fn failed_initiator_fails_over_to_live_owner() {
        let t = Topology::flocklab();
        let chain = all_to_all(&t);
        let mc = MiniCastSchedule::new(
            &t,
            chain,
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let mut failed = vec![false; t.len()];
        failed[mc.initiator()] = true;
        let dead = mc.initiator();
        let r = mc.run_with(
            &calm(&t),
            &mut Xoshiro256::seed_from(23),
            &failed,
            |_, have| {
                have.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != dead)
                    .all(|(_, &h)| h)
            },
        );
        // The round still runs: another owner kick-started it.
        assert!(
            r.coverage() > 0.9,
            "failover initiator must keep the round alive: {}",
            r.coverage()
        );
        assert!(r.all_complete());
    }

    #[test]
    fn initiator_defaults_to_center() {
        let t = Topology::line(5, 30.0, 1);
        let chain = ChainSpec::new(frame(), vec![0, 1, 2, 3, 4]).unwrap();
        let mc = MiniCastSchedule::new(&t, chain, MiniCastConfig::default());
        assert_eq!(mc.initiator(), 2);
    }

    #[test]
    fn conditions_cache_replays_tables_bit_identically() {
        let t = Topology::grid(3, 3, 18.0, 5);
        let mut cache = LinkConditionsCache::new();
        for &(db, loss) in &[(0.0, 0.0), (3.5, 0.0), (0.0, 0.0), (0.0, 0.2), (0.0, 0.0)] {
            let fresh = LinkConditions::new(&t, db, loss);
            let cached = cache.get(&t, db, loss);
            for v in 0..t.len() {
                let ((cached_hears, cached_miss), (fresh_hears, fresh_miss)) =
                    (cached.links.row(v), fresh.links.row(v));
                assert_eq!(
                    cached_hears, fresh_hears,
                    "bitsets differ at ({db}, {loss})"
                );
                assert_eq!(
                    cached.links.heard_by(v),
                    fresh.links.heard_by(v),
                    "transposed bitsets differ at ({db}, {loss})"
                );
                assert!(
                    cached_miss
                        .iter()
                        .zip(fresh_miss)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "cached table must be bit-identical at ({db}, {loss})"
                );
            }
        }
        assert_eq!(cache.builds(), 3, "three distinct operating points");
        assert_eq!(cache.hits(), 2, "both calm repeats hit");
    }

    #[test]
    fn conditions_cache_keeps_recurring_points_under_eviction_pressure() {
        let t = Topology::line(4, 30.0, 1);
        let mut cache = LinkConditionsCache::new();
        cache.get(&t, 0.0, 0.0);
        // More one-off draws than the capacity retains, interleaved with
        // the recurring calm point: move-to-front must keep it resident.
        for i in 0..8 {
            cache.get(&t, 1.0 + i as f64, 0.0);
            cache.get(&t, 0.0, 0.0);
        }
        assert_eq!(cache.builds(), 9, "calm built once, one-offs once each");
        assert_eq!(cache.hits(), 8, "every calm revisit is a hit");
    }

    #[test]
    fn conditions_cache_canonicalizes_negative_zero() {
        // Regression: raw `f64::to_bits` keys filed 0.0 and -0.0 as two
        // distinct entries even though they build identical tables,
        // wasting MRU slots on the most common (calm) operating point.
        let t = Topology::line(4, 30.0, 1);
        let mut cache = LinkConditionsCache::new();
        cache.get(&t, 0.0, 0.0);
        cache.get(&t, -0.0, 0.0);
        cache.get(&t, 0.0, -0.0);
        cache.get(&t, -0.0, -0.0);
        assert_eq!(cache.builds(), 1, "every zero spelling is one entry");
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn fragmented_chain_covers_at_high_ntx() {
        // A 3-fragment all-to-all chain still reaches everyone — each
        // fragment rides the same flood, just over more draws.
        let t = Topology::flocklab();
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let chain = ChainSpec::with_fragments(frame(), owners, 3).unwrap();
        let mc = MiniCastSchedule::new(
            &t,
            chain,
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let r = mc.run(&calm(&t), &mut Xoshiro256::seed_from(42));
        assert!(r.coverage() > 0.99, "coverage {}", r.coverage());
        assert!(r.all_complete());
    }

    #[test]
    fn fragmented_chain_costs_proportionally_more_time_and_energy() {
        let t = Topology::flocklab();
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let cfg = MiniCastConfig {
            ntx: 6,
            ..Default::default()
        };
        let plain =
            MiniCastSchedule::new(&t, ChainSpec::new(frame(), owners.clone()).unwrap(), cfg)
                .run(&calm(&t), &mut Xoshiro256::seed_from(17));
        let frag = MiniCastSchedule::new(
            &t,
            ChainSpec::with_fragments(frame(), owners, 4).unwrap(),
            cfg,
        )
        .run(&calm(&t), &mut Xoshiro256::seed_from(17));
        // The TDMA schedule is honest: 4 fragments per packet quadruple
        // the scheduled round duration...
        assert_eq!(
            frag.scheduled_duration().as_micros(),
            4 * plain.scheduled_duration().as_micros()
        );
        // ...and the radio pays for it.
        assert!(
            frag.mean_radio_on_ms() > 2.0 * plain.mean_radio_on_ms(),
            "fragmented {} vs plain {}",
            frag.mean_radio_on_ms(),
            plain.mean_radio_on_ms()
        );
    }

    #[test]
    fn fragmented_packet_needs_every_fragment() {
        // Under a heavily degraded channel a multi-fragment packet is
        // strictly harder to land than a single-frame one: per sub-slot,
        // completion needs *all* fragments.
        let t = Topology::line(6, 30.0, 3);
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let cfg = MiniCastConfig {
            ntx: 2,
            max_cycles: Some(3),
            ..Default::default()
        };
        let lossy = LinkConditions::new(&t, 0.0, 0.5);
        let failed = vec![false; t.len()];
        let mut plain_cov = 0.0;
        let mut frag_cov = 0.0;
        for seed in 0..16u64 {
            let plain =
                MiniCastSchedule::new(&t, ChainSpec::new(frame(), owners.clone()).unwrap(), cfg);
            plain_cov += plain
                .run_with(&lossy, &mut Xoshiro256::seed_from(seed), &failed, |_, _| {
                    false
                })
                .coverage();
            let frag = MiniCastSchedule::new(
                &t,
                ChainSpec::with_fragments(frame(), owners.clone(), 8).unwrap(),
                cfg,
            );
            frag_cov += frag
                .run_with(&lossy, &mut Xoshiro256::seed_from(seed), &failed, |_, _| {
                    false
                })
                .coverage();
        }
        assert!(
            frag_cov < plain_cov,
            "8-fragment packets must be harder to complete: {frag_cov} vs {plain_cov}"
        );
    }

    #[test]
    fn fragmented_rounds_are_deterministic() {
        let t = Topology::flocklab();
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let chain = ChainSpec::with_fragments(frame(), owners, 5).unwrap();
        let mc = MiniCastSchedule::new(&t, chain, MiniCastConfig::default());
        let a = mc.run(&calm(&t), &mut Xoshiro256::seed_from(5));
        let b = mc.run(&calm(&t), &mut Xoshiro256::seed_from(5));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.cycles_run, b.cycles_run);
    }

    /// The flood's plain listener loop, the oracle of the incremental one:
    /// one listener and one `reception_prob` at a time, one draw per
    /// listener with p > 0 (per missing fragment on fragmented chains),
    /// the bookkeeping and the predicate call per reception, and a scan
    /// of `received` for each cycle's tx time.
    fn reference_flood(
        schedule: &MiniCastSchedule,
        conditions: &LinkConditions,
        rng: &mut Xoshiro256,
        failed: &[bool],
        mut predicate: impl FnMut(usize, &[bool]) -> bool,
    ) -> MiniCastResult {
        let n = schedule.n;
        let links = &conditions.links;
        let chain = &schedule.chain;
        let l = chain.len();
        let slot = chain.slot_duration();
        let airtime = chain.frame().airtime();
        let cycle_dur = chain.cycle_duration();
        let frags = chain.fragments();
        let frag_full = u64::MAX >> (64 - frags);
        let tx_air = airtime * u64::from(frags);
        let w = words(n);
        let mut holders = vec![0u64; l * w];
        let (mut on, mut joined) = (vec![0u64; w], vec![0u64; w]);
        let (mut active, mut tx) = (vec![0u64; w], vec![0u64; w]);
        let mut frag_have = vec![0u64; n * l];
        let mut nodes: Vec<NodeOutcome> = (0..n)
            .map(|v| NodeOutcome {
                received: vec![false; l],
                predicate_met_at: None,
                radio_off_at: None,
                ledger: EnergyLedger::new(),
                chain_tx: 0,
                failed: failed[v],
            })
            .collect();
        for (j, &owner) in chain.owners().iter().enumerate() {
            let owner = owner as usize;
            if !failed[owner] {
                nodes[owner].received[j] = true;
                insert(&mut holders[j * w..], owner);
            }
        }
        let initiator = if failed[schedule.initiator] {
            schedule.owner_rank.iter().copied().find(|&v| !failed[v])
        } else {
            Some(schedule.initiator)
        };
        if let Some(init) = initiator {
            insert(&mut joined, init);
        }
        for (v, node) in nodes.iter_mut().enumerate() {
            if !node.failed {
                insert(&mut on, v);
                if predicate(v, &node.received) {
                    node.predicate_met_at = Some(SimTime::ZERO);
                }
            }
        }
        let ntx = schedule.config.ntx;
        let mut cycles_run = 0u32;
        for cycle in 0..schedule.round_cycles {
            cycles_run = cycle + 1;
            let cycle_start = SimTime::ZERO + cycle_dur * u64::from(cycle);
            active.fill(0);
            for (v, node) in nodes.iter_mut().enumerate() {
                if contains(&on, v) && contains(&joined, v) && node.chain_tx < ntx {
                    insert(&mut active, v);
                    node.chain_tx += 1;
                    let held = node.received.iter().filter(|&&h| h).count();
                    node.ledger.add_tx(tx_air * held as u64);
                }
            }
            for j in 0..l {
                for ((t, &held), &a) in tx.iter_mut().zip(&holders[j * w..][..w]).zip(&active) {
                    *t = held & a;
                }
                if tx.iter().all(|&t| t == 0) {
                    continue;
                }
                let slot_end = cycle_start + slot * (j as u64 + 1);
                for v in 0..n {
                    if !contains(&on, v) || contains(&tx, v) {
                        continue;
                    }
                    let p = links.reception_prob(v, &tx);
                    if p <= 0.0 {
                        continue;
                    }
                    if contains(&holders[j * w..], v) {
                        if rng.chance(p) {
                            insert(&mut joined, v);
                        }
                        continue;
                    }
                    let mut got = frag_have[v * l + j];
                    let mut new_rx = 0u64;
                    for f in 0..frags {
                        if got >> f & 1 == 0 && rng.chance(p) {
                            got |= 1 << f;
                            new_rx += 1;
                        }
                    }
                    if new_rx == 0 {
                        continue;
                    }
                    insert(&mut joined, v);
                    let node = &mut nodes[v];
                    node.ledger.add_rx(airtime * new_rx);
                    frag_have[v * l + j] = got;
                    if got == frag_full {
                        node.received[j] = true;
                        insert(&mut holders[j * w..], v);
                        if node.predicate_met_at.is_none() && predicate(v, &node.received) {
                            node.predicate_met_at = Some(slot_end);
                        }
                    }
                }
            }
            if schedule.config.early_radio_off {
                let cycle_end = cycle_start + cycle_dur;
                for (v, node) in nodes.iter_mut().enumerate() {
                    if contains(&on, v) && node.chain_tx >= ntx && node.predicate_met_at.is_some() {
                        on[v / 64] &= !(1 << (v % 64));
                        node.radio_off_at = Some(cycle_end);
                    }
                }
            }
            if on.iter().all(|&word| word == 0) {
                break;
            }
        }
        let round_end = SimTime::ZERO + cycle_dur * u64::from(cycles_run);
        for node in nodes.iter_mut().filter(|node| !node.failed) {
            let on_time = node.radio_off_at.unwrap_or(round_end) - SimTime::ZERO;
            let busy = node.ledger.tx_time() + node.ledger.rx_time();
            node.ledger.add_listen(on_time.saturating_sub(busy));
        }
        MiniCastResult {
            cycles_run,
            cycles_scheduled: schedule.round_cycles,
            cycle_duration: cycle_dur,
            nodes,
            chain_len: l,
        }
    }

    /// A drawn flood: its schedule, link conditions, failed nodes and the
    /// packets each node's predicate waits for.
    struct Flood {
        schedule: MiniCastSchedule,
        conditions: LinkConditions,
        failed: Vec<bool>,
        needs: Vec<Vec<usize>>,
    }

    /// Draw a flood from one seed: a line, grid or random geometric
    /// topology of about `n` nodes; a chain of 1–8 runs, each owner
    /// holding 1–20 consecutive sub-slots as S4's per-source runs do;
    /// failures (the initiator one time in four); per-node needs, from
    /// nothing (a relay) to the whole chain.
    #[allow(clippy::too_many_arguments)]
    fn draw_flood(
        shape: u8,
        n: usize,
        seed: u64,
        frags: u32,
        ntx: u32,
        early_radio_off: bool,
        loss_pct: u32,
        attenuation_tenths_db: u32,
    ) -> Flood {
        let mut rng = Xoshiro256::seed_from(seed);
        let topology = match shape {
            0 => Topology::line(n, 22.0 + rng.below(16) as f64, seed),
            1 => {
                let nx = (n as f64).sqrt().ceil() as usize;
                Topology::grid(nx, n.div_ceil(nx), 14.0 + rng.below(8) as f64, seed)
            }
            _ => {
                let side = (n as f64).sqrt() * (14.0 + rng.below(10) as f64);
                Topology::random_geometric(n, side, side, seed)
            }
        };
        let n = topology.len();
        let mut owners = Vec::new();
        for _ in 0..1 + rng.below(8) {
            let owner = rng.below(n as u64) as u16;
            owners.extend(std::iter::repeat_n(owner, 1 + rng.below(20) as usize));
        }
        let l = owners.len();
        let chain = ChainSpec::with_fragments(frame(), owners, frags).unwrap();
        let config = MiniCastConfig {
            ntx,
            // Some floods run a short fixed round, the rest the automatic
            // length.
            max_cycles: rng.chance(0.3).then(|| 1 + rng.below(6) as u32),
            early_radio_off,
            ..MiniCastConfig::default()
        };
        let schedule = MiniCastSchedule::new(&topology, chain, config);
        let mut failed: Vec<bool> = (0..n).map(|_| rng.chance(0.1)).collect();
        if rng.chance(0.25) {
            failed[schedule.initiator()] = true;
        }
        // A flood of relays only ends early once their duty is done.
        let relays_only = rng.chance(0.25);
        let needs = (0..n)
            .map(|_| match if relays_only { 0 } else { rng.below(4) } {
                0 => Vec::new(),
                1 => (0..l).collect(),
                _ => (0..l).filter(|_| rng.chance(0.3)).collect(),
            })
            .collect();
        let conditions = LinkConditions::new(
            &topology,
            f64::from(attenuation_tenths_db) / 10.0,
            f64::from(loss_pct) / 100.0,
        );
        Flood {
            schedule,
            conditions,
            failed,
            needs,
        }
    }

    /// A stateful, monotone predicate: per node, a cursor over the
    /// packets it waits for. It logs every call with a fingerprint of
    /// the packets it was shown.
    struct Needs<'a> {
        needs: &'a [Vec<usize>],
        cursor: Vec<usize>,
        calls: Vec<(usize, u64)>,
    }

    impl<'a> Needs<'a> {
        fn new(needs: &'a [Vec<usize>]) -> Self {
            Needs {
                needs,
                cursor: vec![0; needs.len()],
                calls: Vec::new(),
            }
        }

        fn check(&mut self, v: usize, have: &[bool]) -> bool {
            let fingerprint = have.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            self.calls.push((v, fingerprint));
            let need = &self.needs[v];
            let at = &mut self.cursor[v];
            *at += need[*at..].iter().take_while(|&&j| have[j]).count();
            *at == need.len()
        }
    }

    /// Every field of two results, the predicate calls and the RNG states
    /// after the floods must be equal.
    fn assert_same_flood(
        (got, got_calls, got_rng): (&MiniCastResult, &[(usize, u64)], &Xoshiro256),
        (want, want_calls, want_rng): (&MiniCastResult, &[(usize, u64)], &Xoshiro256),
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.cycles_run, want.cycles_run);
        prop_assert_eq!(got.cycles_scheduled, want.cycles_scheduled);
        prop_assert_eq!(got.cycle_duration, want.cycle_duration);
        prop_assert_eq!(got.chain_len, want.chain_len);
        prop_assert_eq!(&got.nodes, &want.nodes);
        prop_assert_eq!(got_calls, want_calls);
        prop_assert_eq!(got_rng, want_rng);
        Ok(())
    }

    proptest! {
        /// The incremental flood equals the plain listener loop: every
        /// result field, every predicate call and the RNG state after the
        /// flood, on topologies whose node sets span one to three words,
        /// with and without fragments, failures and early radio-off.
        #[test]
        fn incremental_flood_matches_the_reference(
            shape in 0u8..3,
            n in 2usize..=130,
            seed in any::<u64>(),
            frags in 1u32..=4,
            ntx in 1u32..=8,
            early in any::<bool>(),
            loss_pct in 0u32..=60,
            attenuation in 0u32..=60,
        ) {
            let f = draw_flood(shape, n, seed, frags, ntx, early, loss_pct, attenuation);
            let rng = Xoshiro256::seed_from(seed ^ 0x5A1);
            let (mut got_rng, mut want_rng) = (rng.clone(), rng);
            let (mut got_needs, mut want_needs) = (Needs::new(&f.needs), Needs::new(&f.needs));
            let got = f.schedule.run_with(&f.conditions, &mut got_rng, &f.failed, |v, h| {
                got_needs.check(v, h)
            });
            let want = reference_flood(&f.schedule, &f.conditions, &mut want_rng, &f.failed, |v, h| {
                want_needs.check(v, h)
            });
            assert_same_flood(
                (&got, &got_needs.calls, &got_rng),
                (&want, &want_needs.calls, &want_rng),
            )?;
        }

        /// One scratch carried through floods of different sizes,
        /// fragment counts and link conditions gives, every time, what a
        /// fresh `run_with` gives.
        #[test]
        fn reused_scratch_matches_fresh_floods(
            shapes in prop::collection::vec(0u8..3, 2..6),
            sizes in prop::collection::vec(2usize..=130, 5),
            seed in any::<u64>(),
        ) {
            let mut scratch = MiniCastScratch::default();
            let mut draw = Xoshiro256::seed_from(seed);
            for (i, &shape) in shapes.iter().enumerate() {
                let f = draw_flood(
                    shape,
                    sizes[i],
                    draw.below(u64::MAX),
                    1 + draw.below(4) as u32,
                    1 + draw.below(8) as u32,
                    draw.chance(0.5),
                    draw.below(61) as u32,
                    draw.below(61) as u32,
                );
                let rng = Xoshiro256::seed_from(draw.below(u64::MAX));
                let (mut got_rng, mut want_rng) = (rng.clone(), rng);
                let (mut got_needs, mut want_needs) = (Needs::new(&f.needs), Needs::new(&f.needs));
                let got = f.schedule.run_into(
                    &f.conditions,
                    &mut got_rng,
                    &f.failed,
                    |v, h| got_needs.check(v, h),
                    &mut scratch,
                );
                let want = f.schedule.run_with(&f.conditions, &mut want_rng, &f.failed, |v, h| {
                    want_needs.check(v, h)
                });
                assert_same_flood(
                    (got, &got_needs.calls, &got_rng),
                    (&want, &want_needs.calls, &want_rng),
                )?;
            }
        }
    }
}
