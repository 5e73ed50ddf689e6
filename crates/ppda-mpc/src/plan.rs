//! Compiled round plans.
//!
//! The paper's lifecycle — and the dominant cost split of MPC in IoT — is
//! "bootstrap once, aggregate every epoch": pairwise keys, aggregator
//! election, hop tables, and the TDMA chain layouts are all functions of the
//! *deployment* `(topology, config, variant)`, while each aggregation round
//! only contributes fresh readings, fresh randomness, and a failure mask.
//! [`RoundPlan`] compiles everything deployment-scoped exactly once; the
//! per-round remainder is executed by a [`RoundDriver`](crate::RoundDriver)
//! over the plan (see [`Deployment`](crate::Deployment)).
//!
//! The two protocols are one pipeline with three switches (`Variant`):
//! which nodes receive shares, which NTX both phases run at, and when a
//! node's radio may switch off.

use std::borrow::Cow;
use std::collections::HashMap;

use ppda_crypto::{Aes128, Ccm};
use ppda_ct::{ChainSpec, MiniCastConfig, MiniCastSchedule};
use ppda_field::share_x;
use ppda_sss::ReconstructionPlan;
use ppda_topology::Topology;

use crate::bootstrap::Bootstrap;
use crate::config::ProtocolConfig;
use crate::error::MpcError;
use crate::membership::{MembershipDelta, PlanPatch};
use crate::{Elem, Field};

/// Cycles of schedule slack beyond NTX in S4's perimeter-scope rounds.
pub(crate) const PERIMETER_SLACK_CYCLES: u32 = 2;

/// What distinguishes S3 from S4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Variant {
    pub name: &'static str,
    /// Shares go to every node (S3) or only to the aggregator set (S4).
    pub trim_to_aggregators: bool,
    /// Both phases run at `full_coverage_ntx` (S3) instead of the
    /// configured low NTX values (S4).
    pub full_coverage: bool,
    /// Radio-off / latency discipline: wait for the complete chain (S3) or
    /// for the k+1 threshold (S4).
    pub strict_completion: bool,
}

pub(crate) const S3_VARIANT: Variant = Variant {
    name: "S3",
    trim_to_aggregators: false,
    full_coverage: true,
    strict_completion: true,
};

pub(crate) const S4_VARIANT: Variant = Variant {
    name: "S4",
    trim_to_aggregators: true,
    full_coverage: false,
    strict_completion: false,
};

/// Which protocol variant a plan compiles.
///
/// # Example
///
/// ```
/// use ppda_mpc::ProtocolKind;
/// assert_eq!(ProtocolKind::S3.name(), "S3");
/// assert_eq!(ProtocolKind::S4.name(), "S4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Naive SSS over MiniCast (paper §II): every source sends one
    /// encrypted share to **every** node — an O(n²)-sub-slot sharing
    /// chain — and both phases run at the full-coverage NTX so that
    /// strict all-to-all delivery holds. Every node waits for the
    /// complete chain before it may finish.
    ///
    /// ```
    /// use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind};
    /// use ppda_topology::Topology;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let topology = Topology::flocklab();
    /// let config = ProtocolConfig::builder(topology.len()).sources(6).build()?;
    /// let report = Deployment::builder()
    ///     .topology(topology)
    ///     .config(config)
    ///     .protocol(ProtocolKind::S3)
    ///     .build()?
    ///     .driver()
    ///     .step()?;
    /// assert!(report.correct());
    /// assert_eq!(report.outcome.aggregator_count, 26); // every node holds shares
    /// # Ok(())
    /// # }
    /// ```
    S3,
    /// Scalable SSS over MiniCast (paper §III): three optimizations over
    /// [`ProtocolKind::S3`], all enabled by the low polynomial degree `k`:
    ///
    /// 1. **Trimmed sharing chain** — shares go only to the `k+1+r`
    ///    designated aggregators discovered at bootstrap, shrinking the
    ///    chain from `O(S·n)` to `O(S·(k+1))` sub-slots.
    /// 2. **Low NTX** — both phases run just long enough to reach the
    ///    necessary neighbors (the paper's NTX = 6 on FlockLab / 5 on
    ///    DCube), exploiting MiniCast's steep coverage-vs-NTX curve.
    /// 3. **Any-(k+1) reconstruction** — a node finishes (and sleeps) as
    ///    soon as it holds any `k+1` matching sum shares, which also
    ///    tolerates aggregator failures: with `f` failed aggregators the
    ///    round still completes as long as `k+1` live aggregators received
    ///    every live source's share.
    ///
    /// ```
    /// use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind};
    /// use ppda_radio::FadingProfile;
    /// use ppda_topology::Topology;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let topology = Topology::dcube();
    /// let config = ProtocolConfig::builder(topology.len())
    ///     .sources(12)
    ///     .ntx_sharing(7) // the calibrated D-Cube operating point
    ///     .ntx_reconstruction(7)
    ///     .fading(FadingProfile::none()) // calm conditions for the doc run
    ///     .build()?;
    /// let report = Deployment::builder()
    ///     .topology(topology)
    ///     .config(config)
    ///     .protocol(ProtocolKind::S4)
    ///     .seed(3)
    ///     .build()?
    ///     .driver()
    ///     .step()?;
    /// assert!(report.correct());
    /// # Ok(())
    /// # }
    /// ```
    S4,
}

impl ProtocolKind {
    /// Display name, as used in the paper.
    pub fn name(self) -> &'static str {
        self.variant().name
    }

    pub(crate) fn variant(self) -> Variant {
        match self {
            ProtocolKind::S3 => S3_VARIANT,
            ProtocolKind::S4 => S4_VARIANT,
        }
    }
}

/// One sharing-phase chain sub-slot: a `(source, destination)` pair plus
/// the indices the execution loop needs to look either endpoint up in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShareSlotSpec {
    /// Originating source node.
    pub src: u16,
    /// Destination node (share holder).
    pub dst: u16,
    /// Index of `src` in `config.sources`.
    pub src_index: usize,
    /// Index of `dst` in the plan's destination set.
    pub dst_index: usize,
}

/// A compiled aggregation round: every artifact that depends only on the
/// deployment `(topology, config, protocol)`, computed once and reused for
/// arbitrarily many rounds.
///
/// Contents: the [`Bootstrap`] (pairwise keys, aggregator election, hop
/// tables), the destination set and its precomputed share evaluation
/// points, both phases' chain layouts and [`MiniCastSchedule`]s (initiator
/// election, failover ranking, cycle budgets), the NTX budgets, and the
/// Lagrange reconstruction weights for the canonical aggregator subset.
///
/// The plan borrows the topology by default (zero-copy for campaign
/// fan-out); [`RoundPlan::into_owned`] detaches it for long-lived holders
/// such as membership-driven drivers. A [`Deployment`](crate::Deployment)
/// compiles the plan at build time, and its
/// [`RoundDriver`](crate::RoundDriver)s execute rounds over it.
///
/// # Example
///
/// ```
/// use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind, RoundPlan};
/// use ppda_topology::Topology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::flocklab();
/// let config = ProtocolConfig::builder(topology.len()).sources(6).build()?;
/// let plan = RoundPlan::new(&topology, &config, ProtocolKind::S4)?;
/// assert_eq!(plan.destinations().len(), config.aggregator_count());
///
/// // Rounds run through a deployment, which compiles the same plan.
/// let deployment = Deployment::builder()
///     .topology_ref(&topology)
///     .config(config.clone())
///     .protocol(ProtocolKind::S4)
///     .build()?;
/// assert_eq!(deployment.plan().destinations(), plan.destinations());
/// let mut driver = deployment.driver();
/// for seed in 0..3 {
///     assert!(driver.round_at(config.round_id, seed)?.correct());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoundPlan<'t> {
    topology: Cow<'t, Topology>,
    config: ProtocolConfig,
    kind: ProtocolKind,
    pub(crate) variant: Variant,
    pub(crate) bootstrap: Bootstrap,
    /// Current membership view (`None` = every configured node is a
    /// member). Non-member nodes never contribute readings and never hold
    /// shares; destinations below are elected from the members only.
    pub(crate) membership: Option<Vec<bool>>,
    /// Share destinations: all nodes (S3) or the aggregator set (S4).
    pub(crate) destinations: Vec<u16>,
    /// `share_x(destinations[i])`, precomputed.
    pub(crate) dest_xs: Vec<Elem>,
    /// Per node: is it a share destination?
    pub(crate) is_destination: Vec<bool>,
    /// Per node: its index in `destinations` (unused entries are 0; check
    /// `is_destination` first).
    pub(crate) dest_index: Vec<usize>,
    /// Slot indices addressed to each destination, concatenated;
    /// destination `di`'s slots are
    /// `slots_by_dest[dest_slot_offsets[di]..dest_slot_offsets[di + 1]]`.
    pub(crate) slots_by_dest: Vec<usize>,
    pub(crate) dest_slot_offsets: Vec<usize>,
    /// The sharing chain's sub-slots, in chain order.
    pub(crate) slots: Vec<ShareSlotSpec>,
    /// One CCM context per sub-slot: the pairwise key of a (src, dst) pair
    /// is deployment-scoped, so the AES key schedule expands once here
    /// instead of once per sealed packet per round.
    pub(crate) slot_ccm: Vec<Ccm>,
    /// The master secret's expanded key schedule, shared by every per-round
    /// DRBG instantiation.
    pub(crate) master_cipher: Aes128,
    pub(crate) sharing_schedule: MiniCastSchedule,
    pub(crate) recon_schedule: MiniCastSchedule,
    pub(crate) ntx_sharing: u32,
    pub(crate) ntx_reconstruction: u32,
    /// `degree + 1`.
    pub(crate) threshold: usize,
    /// Lagrange weights for the canonical (lowest-x) threshold subset of
    /// destination sum shares — the fast path of every reconstruction.
    pub(crate) recon_weights: ReconstructionPlan<Field>,
}

impl<'t> RoundPlan<'t> {
    /// Compile a plan for one deployment. This runs the bootstrap and
    /// builds both phases' chain schedules; everything it produces is
    /// deterministic in its inputs.
    ///
    /// # Errors
    ///
    /// * [`MpcError::InputMismatch`] if the topology size differs from the
    ///   configured one.
    /// * [`MpcError::TopologyDisconnected`] if the network is not connected
    ///   at the configured link threshold.
    /// * [`MpcError::InvalidConfig`] or [`MpcError::BatchTooWide`] if the
    ///   configuration breaks a constraint
    ///   [`ProtocolConfigBuilder::build`](crate::ProtocolConfigBuilder::build)
    ///   enforces (its fields are public, so a configuration need not come
    ///   from the builder), or a frame or chain constraint is violated.
    pub fn new(
        topology: &'t Topology,
        config: &ProtocolConfig,
        kind: ProtocolKind,
    ) -> Result<RoundPlan<'t>, MpcError> {
        Self::compile(Cow::Borrowed(topology), config.clone(), kind, None)
    }

    /// Compile a plan that owns its topology (for long-lived holders).
    ///
    /// # Errors
    ///
    /// See [`RoundPlan::new`].
    pub fn new_owned(
        topology: Topology,
        config: ProtocolConfig,
        kind: ProtocolKind,
    ) -> Result<RoundPlan<'static>, MpcError> {
        RoundPlan::compile(Cow::Owned(topology), config, kind, None)
    }

    /// Compile a plan from scratch for a specific membership view
    /// (`live[v]` ⇔ node `v` is currently a member).
    ///
    /// This is the *full-recompile* reference that [`RoundPlan::apply`]
    /// is tested against: the crate's unit tests re-run every round a
    /// membership-driven driver ran over a plan this constructor compiled
    /// for the view in force at that round, and require the same
    /// outcome, degraded report and patch record. Patching is strictly
    /// cheaper, since `apply` skips the bootstrap (pairwise keys, hop
    /// tables, centrality ranking) and reuses surviving AES-CCM contexts.
    ///
    /// # Errors
    ///
    /// See [`RoundPlan::new`]; additionally
    /// [`MpcError::MembershipExhausted`] when `live` leaves no
    /// destination, and [`MpcError::InputMismatch`] when `live` does not
    /// cover exactly the configured node count.
    pub fn new_with_membership(
        topology: &Topology,
        config: &ProtocolConfig,
        kind: ProtocolKind,
        live: &[bool],
    ) -> Result<RoundPlan<'static>, MpcError> {
        RoundPlan::compile(
            Cow::Owned(topology.clone()),
            config.clone(),
            kind,
            Some(live.to_vec()),
        )
    }

    fn compile(
        topology: Cow<'t, Topology>,
        config: ProtocolConfig,
        kind: ProtocolKind,
        membership: Option<Vec<bool>>,
    ) -> Result<RoundPlan<'t>, MpcError> {
        config.validate()?;
        let variant = kind.variant();
        let n = config.n_nodes;
        let bootstrap = Bootstrap::run(&topology, &config)?;
        if let Some(live) = &membership {
            if live.len() != n {
                return Err(MpcError::InputMismatch {
                    what: format!(
                        "membership mask covers {} nodes, config expects {n}",
                        live.len()
                    ),
                });
            }
        }

        let destinations = elect_destinations(variant, &config, &bootstrap, membership.as_deref());
        if destinations.is_empty() {
            return Err(MpcError::MembershipExhausted);
        }
        let tables = build_dest_tables(&destinations, n);
        let layout = build_slot_layout(&config, &destinations);
        let slot_ccm: Vec<Ccm> = layout
            .slots
            .iter()
            .map(|s| slot_cipher(&bootstrap, &config, s))
            .collect::<Result<_, MpcError>>()?;
        let master_cipher = Aes128::new(&config.master_key);

        let ntx_sharing = if variant.full_coverage {
            config.full_coverage_ntx
        } else {
            config.ntx_sharing
        };
        let ntx_reconstruction = if variant.full_coverage {
            config.full_coverage_ntx
        } else {
            config.ntx_reconstruction
        };

        let sharing_schedule =
            build_sharing_schedule(&topology, &config, variant, &layout.slots, ntx_sharing)?;
        let recon_schedule = build_recon_schedule(
            &topology,
            &config,
            variant,
            &destinations,
            ntx_reconstruction,
        )?;

        let threshold = config.degree + 1;
        let recon_weights = build_recon_weights(&tables.dest_xs, threshold)?;

        Ok(RoundPlan {
            topology,
            config,
            kind,
            variant,
            bootstrap,
            membership,
            destinations,
            dest_xs: tables.dest_xs,
            is_destination: tables.is_destination,
            dest_index: tables.dest_index,
            slots_by_dest: layout.slots_by_dest,
            dest_slot_offsets: layout.dest_slot_offsets,
            slots: layout.slots,
            slot_ccm,
            master_cipher,
            sharing_schedule,
            recon_schedule,
            ntx_sharing,
            ntx_reconstruction,
            threshold,
            recon_weights,
        })
    }

    /// Incrementally patch the compiled plan for a membership change.
    ///
    /// Re-runs only the bootstrap slices the delta invalidates:
    ///
    /// * the destination set is re-elected from the retained centrality
    ///   ranking ([`Bootstrap::elect`]) — no hop-table or key re-run;
    /// * when the destination set is unchanged (the common case for S4:
    ///   churn away from the aggregator set), nothing structural is
    ///   rebuilt — the patch only updates the membership mask;
    /// * otherwise the sharing chain is re-spliced, both phases'
    ///   MiniCast schedules recompiled for the new chain, the Lagrange
    ///   weights recomputed for the new survivor universe, and surviving
    ///   `(src, dst)` AES-CCM contexts *reused* — key schedules expand
    ///   only for pairs that did not exist before.
    ///
    /// The result is byte-identical to a full
    /// [`RoundPlan::new_with_membership`] recompile for the same view
    /// (the crate's recompile-oracle tests check it round by round), at a
    /// fraction of the cost: the `n²` pairwise-key derivation and the `n`
    /// BFS hop sweeps are never repeated.
    ///
    /// On error the plan is left unchanged.
    ///
    /// # Errors
    ///
    /// * [`MpcError::InputMismatch`] if the delta names a node outside
    ///   the deployment.
    /// * [`MpcError::MembershipExhausted`] if the change leaves no live
    ///   destination.
    /// * [`MpcError::InvalidConfig`] if the re-spliced chain violates a
    ///   frame or chain constraint.
    pub fn apply(&mut self, delta: &MembershipDelta) -> Result<PlanPatch, MpcError> {
        let n = self.config.n_nodes;
        for &v in delta.joins.iter().chain(delta.leaves.iter()) {
            if v as usize >= n {
                return Err(MpcError::InputMismatch {
                    what: format!("membership delta names node {v} in a {n}-node deployment"),
                });
            }
        }
        let mut live = self.membership.clone().unwrap_or_else(|| vec![true; n]);
        for &v in &delta.joins {
            live[v as usize] = true;
        }
        for &v in &delta.leaves {
            live[v as usize] = false;
        }

        let destinations =
            elect_destinations(self.variant, &self.config, &self.bootstrap, Some(&live));
        if destinations.is_empty() {
            return Err(MpcError::MembershipExhausted);
        }
        let mut patch = PlanPatch {
            round: delta.round,
            joined: delta.joins.len() as u32,
            left: delta.leaves.len() as u32,
            destinations_changed: false,
            destinations: destinations.len() as u32,
            slots_rebuilt: 0,
            ccm_reused: 0,
            ccm_created: 0,
        };
        if destinations == self.destinations {
            self.membership = Some(live);
            return Ok(patch);
        }
        patch.destinations_changed = true;

        // Rebuild the destination-scoped slices into locals first; the
        // plan mutates only once everything has succeeded.
        let tables = build_dest_tables(&destinations, n);
        let layout = build_slot_layout(&self.config, &destinations);
        patch.slots_rebuilt = layout.slots.len() as u32;
        let pool: HashMap<(u16, u16), &Ccm> = self
            .slots
            .iter()
            .zip(self.slot_ccm.iter())
            .map(|(s, c)| ((s.src, s.dst), c))
            .collect();
        let mut slot_ccm = Vec::with_capacity(layout.slots.len());
        for s in &layout.slots {
            if let Some(&ccm) = pool.get(&(s.src, s.dst)) {
                slot_ccm.push(ccm.clone());
                patch.ccm_reused += 1;
            } else {
                slot_ccm.push(slot_cipher(&self.bootstrap, &self.config, s)?);
                patch.ccm_created += 1;
            }
        }
        let sharing_schedule = build_sharing_schedule(
            &self.topology,
            &self.config,
            self.variant,
            &layout.slots,
            self.ntx_sharing,
        )?;
        let recon_schedule = build_recon_schedule(
            &self.topology,
            &self.config,
            self.variant,
            &destinations,
            self.ntx_reconstruction,
        )?;
        let recon_weights = build_recon_weights(&tables.dest_xs, self.threshold)?;

        self.membership = Some(live);
        self.destinations = destinations;
        self.dest_xs = tables.dest_xs;
        self.is_destination = tables.is_destination;
        self.dest_index = tables.dest_index;
        self.slots_by_dest = layout.slots_by_dest;
        self.dest_slot_offsets = layout.dest_slot_offsets;
        self.slots = layout.slots;
        self.slot_ccm = slot_ccm;
        self.sharing_schedule = sharing_schedule;
        self.recon_schedule = recon_schedule;
        self.recon_weights = recon_weights;
        Ok(patch)
    }

    /// Detach the plan from the borrowed topology (clones it once).
    pub fn into_owned(self) -> RoundPlan<'static> {
        RoundPlan {
            topology: Cow::Owned(self.topology.into_owned()),
            config: self.config,
            kind: self.kind,
            variant: self.variant,
            bootstrap: self.bootstrap,
            membership: self.membership,
            destinations: self.destinations,
            dest_xs: self.dest_xs,
            is_destination: self.is_destination,
            dest_index: self.dest_index,
            slots_by_dest: self.slots_by_dest,
            dest_slot_offsets: self.dest_slot_offsets,
            slots: self.slots,
            slot_ccm: self.slot_ccm,
            master_cipher: self.master_cipher,
            sharing_schedule: self.sharing_schedule,
            recon_schedule: self.recon_schedule,
            ntx_sharing: self.ntx_sharing,
            ntx_reconstruction: self.ntx_reconstruction,
            threshold: self.threshold,
            recon_weights: self.recon_weights,
        }
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The configuration the plan was compiled from.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// The compiled protocol variant.
    pub fn protocol(&self) -> ProtocolKind {
        self.kind
    }

    /// The bootstrap artifacts (keys, aggregators, hop tables).
    pub fn bootstrap(&self) -> &Bootstrap {
        &self.bootstrap
    }

    /// The share destination set: every node (S3) or the designated
    /// aggregators (S4), elected from the current membership.
    pub fn destinations(&self) -> &[u16] {
        &self.destinations
    }

    /// The current membership view (`None` = every configured node is a
    /// member). Patched by [`RoundPlan::apply`].
    pub fn membership(&self) -> Option<&[bool]> {
        self.membership.as_deref()
    }

    /// Sub-slots in the sharing chain.
    pub fn sharing_chain_len(&self) -> usize {
        self.slots.len()
    }

    /// The compiled lane width B (the configuration's `batch`).
    pub fn lanes(&self) -> usize {
        self.config.batch
    }

    /// The reconstruction threshold t = degree + 1: how many surviving
    /// sum shares any node needs to recover the aggregate. Degraded
    /// rounds report their survivor margin against this number.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// A fresh survivor-mask weight cache over this plan's destination
    /// x-set (mask bit `di` ↔ destination `di`). `None` when churn has
    /// shrunk the destination set below the reconstruction threshold —
    /// such rounds cannot reconstruct at all (they fail with
    /// [`MpcError::AggregationFailed`]), so no cache is needed.
    pub(crate) fn survivor_weight_cache(&self) -> Option<ppda_sss::WeightCache<Field>> {
        ppda_sss::WeightCache::new(&self.dest_xs, self.threshold).ok()
    }
}

/// The destination set for a membership view: all members (S3) or the
/// most central live members (S4). With no view, this reduces to the
/// bootstrap's static election.
fn elect_destinations(
    variant: Variant,
    config: &ProtocolConfig,
    bootstrap: &Bootstrap,
    live: Option<&[bool]>,
) -> Vec<u16> {
    match live {
        None if variant.trim_to_aggregators => bootstrap.aggregators().to_vec(),
        None => (0..config.n_nodes as u16).collect(),
        Some(live) if variant.trim_to_aggregators => {
            bootstrap.elect(config.aggregator_count(), live)
        }
        Some(live) => (0..config.n_nodes as u16)
            .filter(|&v| live[v as usize])
            .collect(),
    }
}

struct DestTables {
    dest_xs: Vec<Elem>,
    is_destination: Vec<bool>,
    dest_index: Vec<usize>,
}

fn build_dest_tables(destinations: &[u16], n: usize) -> DestTables {
    let dest_xs: Vec<Elem> = destinations
        .iter()
        .map(|&d| share_x::<Field>(d as usize))
        .collect();
    let mut is_destination = vec![false; n];
    let mut dest_index = vec![0usize; n];
    for (di, &d) in destinations.iter().enumerate() {
        is_destination[d as usize] = true;
        dest_index[d as usize] = di;
    }
    DestTables {
        dest_xs,
        is_destination,
        dest_index,
    }
}

struct SlotLayout {
    slots: Vec<ShareSlotSpec>,
    slots_by_dest: Vec<usize>,
    dest_slot_offsets: Vec<usize>,
}

/// Sharing chain: for every configured source, one sub-slot per
/// destination other than itself. The schedule is fixed a priori; failed
/// or non-member sources simply leave their sub-slots dark at run time.
fn build_slot_layout(config: &ProtocolConfig, destinations: &[u16]) -> SlotLayout {
    let mut slots = Vec::with_capacity(config.sources.len() * destinations.len());
    for (src_index, &src) in config.sources.iter().enumerate() {
        for (dst_index, &dst) in destinations.iter().enumerate() {
            if dst == src {
                continue; // the source keeps its own share locally
            }
            slots.push(ShareSlotSpec {
                src,
                dst,
                src_index,
                dst_index,
            });
        }
    }
    // Per-destination slot index (CSR layout): the completion predicate
    // of an aggregator checks only the slots addressed to it instead of
    // scanning the whole chain on every reception.
    let mut dest_slot_offsets = Vec::with_capacity(destinations.len() + 1);
    let mut slots_by_dest = Vec::with_capacity(slots.len());
    dest_slot_offsets.push(0);
    for &d in destinations {
        for (j, slot) in slots.iter().enumerate() {
            if slot.dst == d {
                slots_by_dest.push(j);
            }
        }
        dest_slot_offsets.push(slots_by_dest.len());
    }
    SlotLayout {
        slots,
        slots_by_dest,
        dest_slot_offsets,
    }
}

/// One sub-slot's AES-CCM context: the pairwise key of a `(src, dst)`
/// pair is deployment-scoped, so the AES key schedule expands once per
/// pair instead of once per sealed packet per round.
fn slot_cipher(
    bootstrap: &Bootstrap,
    config: &ProtocolConfig,
    slot: &ShareSlotSpec,
) -> Result<Ccm, MpcError> {
    let key = bootstrap
        .keys()
        .key(slot.src, slot.dst)
        .map_err(ppda_sss::SssError::from)?;
    Ccm::new(key, config.tag_len)
        .map_err(ppda_sss::SssError::from)
        .map_err(MpcError::from)
}

/// Compile the sharing-phase MiniCast schedule for a slot chain.
///
/// Frames carry the whole lane batch: B field elements per share packet
/// (B = 1 is the paper's scalar layout). Batches past one 127-byte
/// 802.15.4 PSDU compile — with `config.fragmentation` — to a fragmented
/// chain whose sub-slots span one frame per fragment; without the flag
/// they are rejected (normally already at config build time).
fn build_sharing_schedule(
    topology: &Topology,
    config: &ProtocolConfig,
    variant: Variant,
    slots: &[ShareSlotSpec],
    ntx_sharing: u32,
) -> Result<MiniCastSchedule, MpcError> {
    let (share_frame, fragments) =
        crate::config::share_frame_layout(config.batch, config.tag_len, config.fragmentation)?;
    let owners: Vec<u16> = slots.iter().map(|s| s.src).collect();
    let sharing_chain = ChainSpec::with_fragments(share_frame, owners, fragments).map_err(|e| {
        MpcError::InvalidConfig {
            what: e.to_string(),
        }
    })?;
    // S3 needs the full-coverage schedule (join wave + NTX + slack);
    // S4's whole point is a perimeter-scope round that ends right after
    // the NTX repetitions.
    let max_cycles = (!variant.full_coverage).then_some(ntx_sharing + PERIMETER_SLACK_CYCLES);
    Ok(MiniCastSchedule::new(
        topology,
        sharing_chain,
        MiniCastConfig {
            ntx: ntx_sharing,
            link_threshold: config.link_threshold,
            max_cycles,
            // Early sleep requires the completion-tracking machinery S4
            // introduces; the naive build just follows the schedule.
            early_radio_off: !variant.strict_completion,
        },
    ))
}

/// Compile the reconstruction-phase MiniCast schedule.
///
/// Reconstruction data must reach *every* node (all of them need the
/// aggregate), so even S4 keeps the full-length schedule here — the
/// chain is only |A| sub-slots, so this is cheap; the low NTX and
/// any-(k+1) predicate still apply.
fn build_recon_schedule(
    topology: &Topology,
    config: &ProtocolConfig,
    variant: Variant,
    destinations: &[u16],
    ntx_reconstruction: u32,
) -> Result<MiniCastSchedule, MpcError> {
    let (sum_frame, fragments) =
        crate::config::sum_frame_layout(config.batch, config.fragmentation)?;
    let recon_chain = ChainSpec::with_fragments(sum_frame, destinations.to_vec(), fragments)
        .map_err(|e| MpcError::InvalidConfig {
            what: e.to_string(),
        })?;
    Ok(MiniCastSchedule::new(
        topology,
        recon_chain,
        MiniCastConfig {
            ntx: ntx_reconstruction,
            link_threshold: config.link_threshold,
            early_radio_off: !variant.strict_completion,
            ..MiniCastConfig::default()
        },
    ))
}

/// The canonical reconstruction subset: when a node holds every
/// destination's sum share (the common case), it reconstructs from the
/// threshold shares with the lowest x — precompute those weights.
fn build_recon_weights(
    dest_xs: &[Elem],
    threshold: usize,
) -> Result<ReconstructionPlan<Field>, MpcError> {
    let mut sorted_xs = dest_xs.to_vec();
    sorted_xs.sort_unstable();
    ReconstructionPlan::new(&sorted_xs[..threshold.min(sorted_xs.len())]).map_err(MpcError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s4_plan_trims_to_aggregators() {
        let t = Topology::flocklab();
        let config = ProtocolConfig::builder(t.len()).sources(6).build().unwrap();
        let plan = RoundPlan::new(&t, &config, ProtocolKind::S4).unwrap();
        assert_eq!(plan.destinations().len(), config.aggregator_count());
        assert_eq!(plan.protocol(), ProtocolKind::S4);
        assert_eq!(plan.ntx_sharing, config.ntx_sharing);
        // 6 sources × 11 destinations, minus the source-owned slots.
        let own = config
            .sources
            .iter()
            .filter(|s| plan.destinations().contains(s))
            .count();
        assert_eq!(plan.sharing_chain_len(), 6 * 11 - own);
    }

    #[test]
    fn s3_plan_targets_every_node() {
        let t = Topology::flocklab();
        let config = ProtocolConfig::builder(t.len()).sources(3).build().unwrap();
        let plan = RoundPlan::new(&t, &config, ProtocolKind::S3).unwrap();
        assert_eq!(plan.destinations().len(), t.len());
        assert_eq!(plan.ntx_sharing, config.full_coverage_ntx);
        assert_eq!(plan.ntx_reconstruction, config.full_coverage_ntx);
    }

    #[test]
    fn plan_is_deterministic() {
        let t = Topology::dcube();
        let config = ProtocolConfig::builder(t.len()).sources(7).build().unwrap();
        let a = RoundPlan::new(&t, &config, ProtocolKind::S4).unwrap();
        let b = RoundPlan::new(&t, &config, ProtocolKind::S4).unwrap();
        assert_eq!(a.destinations, b.destinations);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.recon_weights, b.recon_weights);
        assert_eq!(
            a.sharing_schedule.initiator(),
            b.sharing_schedule.initiator()
        );
    }

    #[test]
    fn plan_rejects_bad_deployments() {
        let t = Topology::line(9, 400.0, 1);
        let config = ProtocolConfig::builder(9).degree(2).build().unwrap();
        assert!(matches!(
            RoundPlan::new(&t, &config, ProtocolKind::S4),
            Err(MpcError::TopologyDisconnected)
        ));
        let t = Topology::flocklab();
        let config = ProtocolConfig::builder(45).build().unwrap();
        assert!(matches!(
            RoundPlan::new(&t, &config, ProtocolKind::S3),
            Err(MpcError::InputMismatch { .. })
        ));
    }

    #[test]
    fn owned_plan_is_detached() {
        let config = ProtocolConfig::builder(26).sources(4).build().unwrap();
        let plan = {
            let t = Topology::flocklab();
            RoundPlan::new(&t, &config, ProtocolKind::S4)
                .unwrap()
                .into_owned()
        };
        assert_eq!(plan.topology().len(), 26);
        let topology = Topology::flocklab();
        let fresh = RoundPlan::new(&topology, &config, ProtocolKind::S4).unwrap();
        assert_eq!(plan.destinations(), fresh.destinations());
        assert_eq!(plan.slots, fresh.slots);
        assert_eq!(plan.recon_weights, fresh.recon_weights);
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(ProtocolKind::S3.name(), "S3");
        assert_eq!(ProtocolKind::S4.name(), "S4");
    }
}
