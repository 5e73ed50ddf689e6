//! Per-round execution over a compiled [`RoundPlan`].
//!
//! Everything here is work that genuinely differs from round to round:
//! reading generation, DRBG share generation and CCM sealing, the round's
//! fading draw and MiniCast simulation, sum accumulation, and per-node
//! reconstruction. All deployment-scoped computation (bootstrap, chains,
//! schedules, cipher contexts, Lagrange weights) comes precompiled from
//! the plan.
//!
//! There is one round pipeline, `ExecState::run_round`, and its only
//! caller is the [`RoundDriver`](crate::RoundDriver). Each source
//! contributes a vector of B readings (B = 1 is the paper's scalar round),
//! the whole lane batch travels in one sealed packet per (source,
//! destination), the fault and tamper plans always apply (their zero
//! values are byte-identical to fault-free, honest execution), and the
//! per-round scratch buffers live in the driver's `ExecState` instead of
//! being reallocated every round.

use std::io::Write as _;

use ppda_crypto::{Aes128, CtrDrbg};
use ppda_ct::{Delivery, FaultPlan, LinkConditionsCache, MiniCastResult};
use ppda_integrity::{IntegrityVerdict, SumAudit, TamperAction, TamperPlan};
use ppda_sim::{derive_stream, SimDuration, SimTime, Xoshiro256};
use ppda_sss::{
    open_share_lanes, seal_share_lanes, BatchSplitter, ReconstructionPlan, WeightCache,
};
use rand::RngCore;

use crate::config::ProtocolConfig;
use crate::error::MpcError;
use crate::outcome::{
    BatchAggregationOutcome, BatchNodeResult, DegradedOutcome, FaultReport, PhaseStats,
    RecoveryStatus,
};
use crate::plan::RoundPlan;
use crate::{Elem, Field};

/// Delivery-fault sub-stream tags for the two flooding phases.
const PHASE_SHARING: u32 = 0;
const PHASE_RECONSTRUCTION: u32 = 1;

/// Deterministic sensor readings for a round into a reusable buffer
/// (cleared first): `lanes` values per source, uniform in
/// `[0, max_reading)`, lane-major per source (`out[si * lanes + lane]`),
/// derived from the master key, round id and seed.
pub(crate) fn readings_into(
    master: &Aes128,
    config: &ProtocolConfig,
    round_id: u32,
    seed: u64,
    lanes: usize,
    out: &mut Vec<u64>,
) {
    let mut drbg =
        CtrDrbg::with_master_cipher(master, format!("readings|{round_id}|{seed}").as_bytes());
    out.clear();
    out.reserve(config.sources.len() * lanes);
    for _ in &config.sources {
        for _ in 0..lanes {
            out.push(drbg.next_u64() % config.max_reading);
        }
    }
}

fn phase_stats(result: &MiniCastResult, chain_len: usize, ntx: u32, fragments: u32) -> PhaseStats {
    PhaseStats {
        chain_len,
        cycles_scheduled: result.cycles_scheduled,
        cycles_run: result.cycles_run,
        scheduled_duration: result.scheduled_duration(),
        coverage: result.coverage(),
        ntx,
        fragments,
    }
}

/// Record `source`'s contribution in a mask, with the scalar
/// [`SumAccumulator`](ppda_sss::SumAccumulator)'s checks (id fits the
/// 128-bit mask, no duplicates).
fn contribute(mask: u128, source: u16) -> Result<u128, MpcError> {
    if source as usize >= ppda_sss::MAX_MASK_SOURCES {
        return Err(MpcError::Sss(ppda_sss::SssError::SourceIdTooLarge {
            source,
        }));
    }
    let bit = 1u128 << source;
    if mask & bit != 0 {
        return Err(MpcError::Sss(ppda_sss::SssError::DuplicateSource {
            source,
        }));
    }
    Ok(mask | bit)
}

/// Validate a round's caller-supplied inputs against the configuration.
fn validate_inputs(
    config: &ProtocolConfig,
    lanes: usize,
    secrets: &[u64],
    failed: &[bool],
) -> Result<(), MpcError> {
    if secrets.len() != config.sources.len() * lanes {
        return Err(MpcError::InputMismatch {
            what: format!(
                "{} secrets for {} sources × {} lanes",
                secrets.len(),
                config.sources.len(),
                lanes
            ),
        });
    }
    if failed.len() != config.n_nodes {
        return Err(MpcError::InputMismatch {
            what: format!(
                "failure mask of {} for {} nodes",
                failed.len(),
                config.n_nodes
            ),
        });
    }
    for &s in secrets {
        if s >= Elem::modulus() {
            return Err(MpcError::ReadingTooLarge { value: s });
        }
    }
    Ok(())
}

/// Per-round scratch buffers: every slab a round writes, allocated once
/// per driver and reused for its lifetime.
#[derive(Debug)]
struct RoundScratch {
    /// DRBG domain-separation string under construction.
    domain: Vec<u8>,
    /// One source's lane readings as field elements.
    lane_secrets: Vec<Elem>,
    /// Reusable polynomial slab for share generation.
    splitter: BatchSplitter<Field>,
    /// Per source: x-major share slab (`dests × lanes`), live sources only.
    share_slabs: Vec<Vec<Elem>>,
    share_live: Vec<bool>,
    /// Per sub-slot: the sealed frame payload.
    sealed: Vec<Vec<u8>>,
    slot_live: Vec<bool>,
    /// Decrypted payload and decoded lanes of the packet being opened.
    open_payload: Vec<u8>,
    open_lanes: Vec<Elem>,
    /// Per destination: lane sums (x-major slab), contributor masks,
    /// liveness and threshold-usability.
    sum_ys: Vec<Elem>,
    sum_mask: Vec<u128>,
    sum_live: Vec<bool>,
    usable: Vec<bool>,
    /// Reconstruction workspace: chosen subset rows and per-lane output.
    recon_xs: Vec<Elem>,
    recon_slab: Vec<Elem>,
    recon_out: Vec<Elem>,
    /// Destination indices a node holds, grouped during aggregation.
    held: Vec<usize>,
    /// The held indices in the chosen mask group, lowest x first.
    members: Vec<usize>,
    /// Per node: how far a monotone completion predicate has scanned the
    /// packets it waits for (they never un-arrive), so a flood checks each
    /// node's list once in total instead of once per reception.
    cursor: Vec<usize>,
}

/// A driver's execution state: scratch buffers plus the per-driver
/// caches. It never stores the plan — every method takes it as a
/// parameter — so a driver that *owns* (and patches) its plan can run
/// rounds without a self-referential borrow.
#[derive(Debug)]
pub(crate) struct ExecState {
    scratch: RoundScratch,
    /// Effective failure mask of a round: caller's mask OR'd with
    /// non-member nodes and the fault plan's dropout/churn draws.
    failed_eff: Vec<bool>,
    /// Lagrange weights per survivor mask, memoized across the driver's
    /// rounds: lossy rounds repeat the same few survivor patterns, so
    /// each distinct subset pays its O(t²) basis once. `None` when churn
    /// has left fewer destinations than the threshold (no reconstruction
    /// is possible, so no weights are needed).
    weight_cache: Option<WeightCache<Field>>,
    /// Link tables per `(attenuation, loss)` operating point, memoized
    /// across the driver's rounds: the fading mixtures draw the calm
    /// state for a large fraction of rounds and the fault layer's loss is
    /// a constant, so the O(n²) table rebuild would otherwise repeat the
    /// exact same work every round (see [`LinkConditionsCache`]).
    conditions: LinkConditionsCache,
}

impl ExecState {
    pub(crate) fn new(plan: &RoundPlan<'_>) -> Self {
        let config = plan.config();
        let lanes = config.batch;
        let n_sources = config.sources.len();
        let n_dests = plan.destinations.len();
        let n_slots = plan.slots.len();
        ExecState {
            failed_eff: Vec::with_capacity(config.n_nodes),
            weight_cache: plan.survivor_weight_cache(),
            conditions: LinkConditionsCache::new(),
            scratch: RoundScratch {
                domain: Vec::with_capacity(32),
                lane_secrets: Vec::with_capacity(lanes),
                splitter: BatchSplitter::new(config.degree, lanes),
                share_slabs: vec![Vec::with_capacity(n_dests * lanes); n_sources],
                share_live: vec![false; n_sources],
                sealed: vec![Vec::new(); n_slots],
                slot_live: vec![false; n_slots],
                open_payload: Vec::with_capacity(lanes * 8),
                open_lanes: Vec::with_capacity(lanes),
                sum_ys: vec![Elem::ZERO; n_dests * lanes],
                sum_mask: vec![0; n_dests],
                sum_live: vec![false; n_dests],
                usable: vec![false; n_dests],
                recon_xs: Vec::with_capacity(plan.threshold),
                recon_slab: Vec::with_capacity(plan.threshold * lanes),
                recon_out: Vec::with_capacity(lanes),
                held: Vec::with_capacity(n_dests),
                members: Vec::with_capacity(n_dests),
                cursor: vec![0; config.n_nodes],
            },
        }
    }

    /// Re-fit the destination-scoped buffers after a plan patch changed
    /// the destination set (slot count, sum slabs, weight-cache basis).
    /// Buffers keyed on sources or lanes are untouched — those axes never
    /// churn.
    pub(crate) fn sync(&mut self, plan: &RoundPlan<'_>) {
        let lanes = plan.config().batch;
        let n_dests = plan.destinations.len();
        let n_slots = plan.slots.len();
        self.scratch.sealed.resize(n_slots, Vec::new());
        self.scratch.slot_live.resize(n_slots, false);
        self.scratch.sum_ys.resize(n_dests * lanes, Elem::ZERO);
        self.scratch.sum_mask.resize(n_dests, 0);
        self.scratch.sum_live.resize(n_dests, false);
        self.scratch.usable.resize(n_dests, false);
        self.weight_cache = plan.survivor_weight_cache();
    }

    pub(crate) fn weight_cache(&self) -> Option<&WeightCache<Field>> {
        self.weight_cache.as_ref()
    }

    /// The round pipeline. The fault layer's draws extend the failure
    /// mask (dropout, churn), degrade the round's link conditions (loss,
    /// extra attenuation) and erase or duplicate decoded packets; every
    /// node then reconstructs from whichever ≥ t+1 sum shares actually
    /// survived, with Lagrange weights selected per observed x-set (and
    /// memoized per survivor mask). `tamper` mutates aggregator sum
    /// shares after honest accumulation (a cheating-aggregator model);
    /// the sum audit — active whenever the config enables integrity —
    /// renders the round's verdict. Zero fault and tamper plans are
    /// byte-identical to fault-free, honest execution, and a round below
    /// the threshold reports [`RecoveryStatus::Failed`], never a wrong
    /// aggregate.
    ///
    /// # Errors
    ///
    /// * [`MpcError::InputMismatch`] on wrong-sized inputs.
    /// * [`MpcError::ReadingTooLarge`] if a reading exceeds the field.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_round(
        &mut self,
        plan: &RoundPlan<'_>,
        round_id: u32,
        seed: u64,
        secrets: &[u64],
        failed: &[bool],
        faults: &FaultPlan,
        tamper: &TamperPlan,
    ) -> Result<(BatchAggregationOutcome, DegradedOutcome), MpcError> {
        let ExecState {
            scratch,
            failed_eff,
            weight_cache,
            conditions: conditions_cache,
        } = self;
        let config = plan.config();
        let lanes = config.batch;
        let n = config.n_nodes;
        validate_inputs(config, lanes, secrets, failed)?;

        let rf = faults.realize(round_id, seed);
        let mut report = FaultReport::default();
        // Non-members sit outside this round entirely; dropout and churn
        // then extend the mask further for the round.
        failed_eff.clear();
        failed_eff.extend_from_slice(failed);
        if let Some(live) = plan.membership.as_deref() {
            for (f, &l) in failed_eff.iter_mut().zip(live) {
                *f |= !l;
            }
        }
        for (v, f) in failed_eff.iter_mut().enumerate() {
            if !*f && rf.node_down(v) {
                *f = true;
                report.nodes_dropped += 1;
            }
        }
        let failed: &[bool] = failed_eff;

        let attenuation_db = {
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0xFAD));
            config.fading.draw(&mut rng)
        };
        // The fault layer sits *under* the link conditions: loss scales
        // every PRR, extra attenuation shifts the fading draw. A zero
        // plan builds a bit-identical table (`degraded` at loss 0 ≡
        // `new`), cached per operating point.
        let conditions = conditions_cache.get(
            plan.topology(),
            attenuation_db + rf.extra_attenuation_db(),
            rf.loss(),
        );

        let mut live_source_mask = 0u128;
        let mut expected = vec![Elem::ZERO; lanes];
        for (si, &src) in config.sources.iter().enumerate() {
            if failed[src as usize] {
                continue;
            }
            live_source_mask |= 1u128 << src;
            for (lane, e) in expected.iter_mut().enumerate() {
                *e += Elem::new(secrets[si * lanes + lane]);
            }
        }

        // ---- Sharing phase ------------------------------------------------
        for (si, &src) in config.sources.iter().enumerate() {
            if failed[src as usize] {
                scratch.share_live[si] = false;
                continue;
            }
            scratch.share_live[si] = true;
            scratch.domain.clear();
            write!(scratch.domain, "share|{round_id}|{seed}|{src}").expect("vec write");
            let mut drbg = CtrDrbg::with_master_cipher(&plan.master_cipher, &scratch.domain);
            scratch.lane_secrets.clear();
            scratch.lane_secrets.extend(
                secrets[si * lanes..(si + 1) * lanes]
                    .iter()
                    .map(|&v| Elem::new(v)),
            );
            scratch.splitter.split_into(
                &scratch.lane_secrets,
                &plan.dest_xs,
                &mut drbg,
                &mut scratch.share_slabs[si],
            )?;
        }
        for (j, slot) in plan.slots.iter().enumerate() {
            if !scratch.share_live[slot.src_index] {
                scratch.slot_live[j] = false;
                scratch.sealed[j].clear();
                continue;
            }
            scratch.slot_live[j] = true;
            let ys = &scratch.share_slabs[slot.src_index]
                [slot.dst_index * lanes..(slot.dst_index + 1) * lanes];
            seal_share_lanes(
                &plan.slot_ccm[j],
                slot.src,
                slot.dst,
                round_id,
                plan.dest_xs[slot.dst_index],
                ys,
                &mut scratch.sealed[j],
            )?;
        }

        let sharing_result = {
            // Predicate: which sub-slots a node must hold before its
            // sharing duty is complete.
            let slot_live = &scratch.slot_live;
            let is_destination = &plan.is_destination;
            let dest_index = &plan.dest_index;
            let slots_by_dest = &plan.slots_by_dest;
            let offsets = &plan.dest_slot_offsets;
            let strict = plan.variant.strict_completion;
            let cursor = &mut scratch.cursor;
            cursor.fill(0);
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0x5A1));
            plan.sharing_schedule
                .run_with(conditions, &mut rng, failed, |v, have| {
                    let at = &mut cursor[v];
                    if strict {
                        // Naive: wait for the complete chain. The static
                        // schedule has no notion of node liveness, so a
                        // dead source's sub-slots stall the predicate —
                        // exactly the rigidity the paper's S4 removes.
                        *at += have[*at..].iter().take_while(|&&h| h).count();
                        *at == have.len()
                    } else if is_destination[v] {
                        // Aggregator: needs exactly the packets addressed
                        // to it (the plan's per-destination slot index).
                        let di = dest_index[v];
                        let mine = &slots_by_dest[offsets[di]..offsets[di + 1]];
                        *at += mine[*at..]
                            .iter()
                            .take_while(|&&j| !slot_live[j] || have[j])
                            .count();
                        *at == mine.len()
                    } else {
                        // Pure relay: no data needs of its own.
                        true
                    }
                })
        };

        // ---- Local sum accumulation ---------------------------------------
        for (di, &d) in plan.destinations.iter().enumerate() {
            scratch.sum_live[di] = false;
            scratch.sum_mask[di] = 0;
            if failed[d as usize] {
                continue;
            }
            // Mirror the scalar SumAccumulator over the lane slab: same
            // source-id/duplicate checks, same field sums, one mask for
            // all lanes (they travel together).
            let row_start = di * lanes;
            scratch.sum_ys[row_start..row_start + lanes].fill(Elem::ZERO);
            let mut mask = 0u128;
            // Own share, if this destination is itself a live source.
            if let Some(si) = config.sources.iter().position(|&s| s == d) {
                if scratch.share_live[si] {
                    mask = contribute(mask, d)?;
                    let own = &scratch.share_slabs[si][di * lanes..(di + 1) * lanes];
                    for (acc, &y) in scratch.sum_ys[row_start..row_start + lanes]
                        .iter_mut()
                        .zip(own)
                    {
                        *acc += y;
                    }
                }
            }
            let my_slots =
                &plan.slots_by_dest[plan.dest_slot_offsets[di]..plan.dest_slot_offsets[di + 1]];
            for &j in my_slots {
                let slot = &plan.slots[j];
                if !scratch.slot_live[j] {
                    continue;
                }
                if !sharing_result.nodes[d as usize].received[j] {
                    report.shares_missing += 1;
                    continue;
                }
                // Per-delivery faults: a flooded share can still miss its
                // decode deadline or arrive twice (idempotent).
                match rf.delivery(PHASE_SHARING, j, d as usize) {
                    Delivery::Delayed => {
                        report.shares_delayed += 1;
                        continue;
                    }
                    Delivery::Duplicated => report.duplicates += 1,
                    Delivery::OnTime => {}
                }
                open_share_lanes(
                    &plan.slot_ccm[j],
                    slot.src,
                    d,
                    round_id,
                    plan.dest_xs[di],
                    lanes,
                    &scratch.sealed[j],
                    &mut scratch.open_payload,
                    &mut scratch.open_lanes,
                )?;
                mask = contribute(mask, slot.src)?;
                for (acc, &y) in scratch.sum_ys[row_start..row_start + lanes]
                    .iter_mut()
                    .zip(&scratch.open_lanes)
                {
                    *acc += y;
                }
            }
            scratch.sum_live[di] = true;
            scratch.sum_mask[di] = mask;
        }

        // ---- Aggregator tampering (test adversary) ------------------------
        // The cheating-aggregator model: after honest accumulation, a
        // seeded adversary mutates reported sum shares in place — forging
        // a lane, swapping two lanes, or flipping a bit — exactly where a
        // Byzantine holder would cheat before flooding its sum packet.
        // Draws are pure functions of (plan seed, round seed, round id,
        // aggregator), so every round replays exactly.
        if !tamper.is_zero() {
            let rt = tamper.realize(round_id, seed);
            for (di, &d) in plan.destinations.iter().enumerate() {
                if !scratch.sum_live[di] {
                    continue;
                }
                let row = di * lanes;
                match rt.action(d as usize, lanes) {
                    Some(TamperAction::ForgeSum { lane, delta }) => {
                        scratch.sum_ys[row + lane as usize] += Elem::new(u64::from(delta));
                    }
                    Some(TamperAction::LaneSwap { a, b }) => {
                        scratch.sum_ys.swap(row + a as usize, row + b as usize);
                    }
                    Some(TamperAction::BitFlip { lane, bit }) => {
                        let forged = scratch.sum_ys[row + lane as usize].value() ^ (1 << bit);
                        scratch.sum_ys[row + lane as usize] = Elem::new(forged);
                    }
                    None => {}
                }
            }
        }

        // ---- Reconstruction phase ------------------------------------------
        // A sum share is *usable* for threshold reconstruction when it
        // covers every live source. (A node discovers this bit the moment
        // it decodes the packet; precomputing it here is timing-equivalent.)
        for di in 0..plan.destinations.len() {
            scratch.usable[di] = scratch.sum_live[di] && scratch.sum_mask[di] == live_source_mask;
        }

        // ---- Sum audit (integrity on) -------------------------------------
        // Given t+1 usable sum shares, re-derive each aggregator's honest
        // sum share from the sources' share slabs and compare it against
        // what the aggregator actually reported. A clean round renders
        // `Verified`; the first lane whose reported share disagrees with
        // the recomputation renders `Tampered`. The slabs are executor
        // memory no real node holds, so this is a simulator oracle.
        let integrity = if config.integrity.is_on() {
            let mut audit = SumAudit::new(config.degree);
            audit.set_survivors(scratch.usable.iter().filter(|&&u| u).count());
            if audit.quorum() {
                for (di, &d) in plan.destinations.iter().enumerate() {
                    if !scratch.sum_live[di] {
                        continue;
                    }
                    let row = di * lanes;
                    for lane in 0..lanes {
                        let mut honest = Elem::ZERO;
                        for (si, &src) in config.sources.iter().enumerate() {
                            if scratch.sum_mask[di] & (1u128 << src) != 0 {
                                honest += scratch.share_slabs[si][di * lanes + lane];
                            }
                        }
                        audit.check_lane(
                            lane as u16,
                            &honest.to_bytes(),
                            &scratch.sum_ys[row + lane].to_bytes(),
                            Some(d),
                        );
                    }
                }
            }
            audit.verdict()
        } else {
            IntegrityVerdict::Unchecked
        };
        // The round's survivor set: destinations whose sum share covers
        // every live source — the shares the network can still
        // reconstruct the full aggregate from.
        let survivors: Vec<u16> = plan
            .destinations
            .iter()
            .enumerate()
            .filter(|&(di, _)| scratch.usable[di])
            .map(|(_, &d)| d)
            .collect();
        let threshold = plan.threshold;
        let recon_result = {
            let strict = plan.variant.strict_completion;
            let usable = &scratch.usable;
            let cursor = &mut scratch.cursor;
            cursor.fill(0);
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0x5A2));
            plan.recon_schedule
                .run_with(conditions, &mut rng, failed, |v, have| {
                    if strict {
                        let at = &mut cursor[v];
                        *at += have[*at..].iter().take_while(|&&h| h).count();
                        *at == have.len()
                    } else {
                        have.iter().zip(usable).filter(|&(&h, &u)| h && u).count() >= threshold
                    }
                })
        };

        // ---- Per-node aggregation -------------------------------------------
        let sharing_sched = sharing_result.scheduled_duration();
        let strict = plan.variant.strict_completion;
        let live_source_count = live_source_mask.count_ones() as usize;
        let mut live_nodes = 0usize;
        let mut nodes_recovered = 0usize;
        let mut nodes = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // v indexes four parallel per-node tables
        for v in 0..n {
            if failed[v] {
                nodes.push(BatchNodeResult {
                    aggregates: None,
                    included_sources: 0,
                    latency: None,
                    radio_on: SimDuration::ZERO,
                    energy_mj: 0.0,
                    failed: true,
                });
                continue;
            }
            live_nodes += 1;
            // A naive (strict) node only delivers once its all-to-all
            // predicate held — it has no protocol step for partial data.
            let (aggregates, included) =
                if strict && recon_result.nodes[v].predicate_met_at.is_none() {
                    (None, 0)
                } else {
                    scratch.held.clear();
                    for di in 0..plan.destinations.len() {
                        if !scratch.sum_live[di] {
                            continue;
                        }
                        if !recon_result.nodes[v].received[di] {
                            report.sums_missing += 1;
                            continue;
                        }
                        // A node's own sum never crossed a link; only
                        // relayed sums can suffer delivery faults.
                        if plan.destinations[di] as usize != v {
                            match rf.delivery(PHASE_RECONSTRUCTION, di, v) {
                                Delivery::Delayed => {
                                    report.sums_delayed += 1;
                                    continue;
                                }
                                Delivery::Duplicated => report.duplicates += 1,
                                Delivery::OnTime => {}
                            }
                        }
                        scratch.held.push(di);
                    }
                    aggregate_lanes(
                        &scratch.held,
                        &scratch.sum_ys,
                        &scratch.sum_mask,
                        &plan.dest_xs,
                        lanes,
                        config.degree,
                        &plan.recon_weights,
                        weight_cache.as_mut(),
                        &mut scratch.members,
                        &mut scratch.recon_xs,
                        &mut scratch.recon_slab,
                        &mut scratch.recon_out,
                    )
                };
            if aggregates.is_some() && included as usize == live_source_count {
                nodes_recovered += 1;
            }
            let latency = recon_result.nodes[v]
                .predicate_met_at
                .map(|t| sharing_sched + (t - SimTime::ZERO));
            let mut radio = sharing_result.nodes[v].ledger;
            radio.merge(&recon_result.nodes[v].ledger);
            nodes.push(BatchNodeResult {
                aggregates,
                included_sources: included,
                latency,
                radio_on: radio.radio_on(),
                energy_mj: radio.energy_mj(&ppda_radio::RadioCurrents::nrf52840()),
                failed: false,
            });
        }

        let recovery = if survivors.len() >= threshold {
            RecoveryStatus::Recovered {
                margin: survivors.len() - threshold,
            }
        } else {
            RecoveryStatus::Failed {
                missing: threshold - survivors.len(),
            }
        };
        Ok((
            BatchAggregationOutcome {
                protocol: plan.variant.name,
                lanes,
                expected_sums: expected.iter().map(|e| e.value()).collect(),
                nodes,
                sharing: phase_stats(
                    &sharing_result,
                    plan.slots.len(),
                    plan.ntx_sharing,
                    plan.sharing_schedule.chain().fragments(),
                ),
                reconstruction: phase_stats(
                    &recon_result,
                    plan.destinations.len(),
                    plan.ntx_reconstruction,
                    plan.recon_schedule.chain().fragments(),
                ),
                degree: config.degree,
                aggregator_count: plan.destinations.len(),
                source_count: config.sources.len(),
                integrity,
            },
            DegradedOutcome {
                threshold,
                survivors,
                recovery,
                nodes_recovered,
                live_nodes,
                faults: report,
                integrity,
            },
        ))
    }
}

/// Reconstruct a node's lane aggregates from the sum shares it holds
/// (destination indices into the sum slabs): group by contributor mask,
/// prefer the mask covering the most sources (ties: the mask held by more
/// nodes, then the mask value itself, for determinism), and reconstruct
/// once a group reaches degree+1 members — one weight application across
/// all lanes, with the plan's precomputed weights on the canonical subset
/// and cached survivor-mask weights otherwise (value-identical to a fresh
/// basis; see [`WeightCache`]).
#[allow(clippy::too_many_arguments)]
fn aggregate_lanes(
    held: &[usize],
    sum_ys: &[Elem],
    sum_mask: &[u128],
    dest_xs: &[Elem],
    lanes: usize,
    degree: usize,
    weights: &ReconstructionPlan<Field>,
    cache: Option<&mut WeightCache<Field>>,
    members: &mut Vec<usize>,
    recon_xs: &mut Vec<Elem>,
    recon_slab: &mut Vec<Elem>,
    recon_out: &mut Vec<Elem>,
) -> (Option<Vec<u64>>, u32) {
    use std::collections::HashMap;
    let uniform = held.windows(2).all(|w| sum_mask[w[0]] == sum_mask[w[1]]);
    let (bits, mask) = if uniform {
        // Fast path for the loss-free round: one mask, no grouping map.
        let Some(&first) = held.first() else {
            return (None, 0);
        };
        let mask = sum_mask[first];
        if mask == 0 || held.len() < degree + 1 {
            return (None, 0);
        }
        (mask.count_ones(), mask)
    } else {
        let mut groups: HashMap<u128, usize> = HashMap::new();
        for &di in held {
            *groups.entry(sum_mask[di]).or_default() += 1;
        }
        let mut best: Option<(u32, usize, u128)> = None;
        for (&mask, &count) in &groups {
            // An empty mask is an aggregate of nothing; never reconstruct it.
            if mask == 0 || count < degree + 1 {
                continue;
            }
            let key = (mask.count_ones(), count, mask);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        let Some((bits, _, mask)) = best else {
            return (None, 0);
        };
        (bits, mask)
    };
    members.clear();
    members.extend(held.iter().copied().filter(|&di| sum_mask[di] == mask));
    members.sort_by_key(|&di| dest_xs[di]);
    members.truncate(degree + 1);

    recon_xs.clear();
    recon_xs.extend(members.iter().map(|&di| dest_xs[di]));
    recon_slab.clear();
    for &di in members.iter() {
        recon_slab.extend_from_slice(&sum_ys[di * lanes..(di + 1) * lanes]);
    }

    if weights.xs() == &recon_xs[..] {
        if weights
            .reconstruct_batch_into(lanes, recon_slab, recon_out)
            .is_err()
        {
            return (None, 0);
        }
    } else {
        // Non-canonical survivor subset: weights per observed x-set,
        // memoized by survivor mask. The members are sorted ascending by
        // x and truncated to degree + 1, which is exactly the subset the
        // cache selects for this mask — same xs, same weights a fresh
        // `basis_at_zero` would produce.
        let survivor_mask = members.iter().fold(0u128, |m, &di| m | (1u128 << di));
        // A plan below the reconstruction threshold carries no cache —
        // and can never reach degree + 1 members anyway.
        let Some(cache) = cache else {
            return (None, 0);
        };
        let Ok(basis) = cache.weights(survivor_mask) else {
            return (None, 0);
        };
        recon_out.clear();
        recon_out.resize(lanes, Elem::ZERO);
        ppda_field::packed::weighted_sum_rows_into(basis, recon_slab, lanes, recon_out);
    }
    (Some(recon_out.iter().map(|e| e.value()).collect()), bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppda_field::share_x;

    fn readings(config: &ProtocolConfig, round_id: u32, seed: u64, lanes: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let master = Aes128::new(&config.master_key);
        readings_into(&master, config, round_id, seed, lanes, &mut out);
        out
    }

    #[test]
    fn readings_are_deterministic_and_bounded() {
        let c = ProtocolConfig::builder(10)
            .max_reading(100)
            .build()
            .unwrap();
        let a = readings(&c, c.round_id, 5, 1);
        let b = readings(&c, c.round_id, 5, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&v| v < 100));
        assert_ne!(a, readings(&c, c.round_id, 6, 1));
        assert_ne!(a, readings(&c, c.round_id + 1, 5, 1));
    }

    #[test]
    fn batched_readings_extend_the_scalar_stream() {
        // Lane-major per source from one DRBG stream: lane 0 of a B-lane
        // draw is NOT the 1-lane draw (the stream interleaves), but the
        // 1-lane draw is a prefix of every wider draw's stream.
        let c = ProtocolConfig::builder(8)
            .max_reading(1000)
            .build()
            .unwrap();
        let one_lane = readings(&c, c.round_id, 3, 1);
        let four_lanes = readings(&c, c.round_id, 3, 4);
        assert_eq!(four_lanes.len(), 8 * 4);
        assert!(four_lanes.iter().all(|&v| v < 1000));
        assert_eq!(one_lane[..], four_lanes[..8]);
    }

    fn weights(nodes: &[usize], threshold: usize) -> ReconstructionPlan<Field> {
        let mut xs: Vec<Elem> = nodes.iter().map(|&i| share_x::<Field>(i)).collect();
        xs.sort_unstable();
        ReconstructionPlan::new(&xs[..threshold]).unwrap()
    }

    #[test]
    fn aggregate_identical_on_and_off_the_fast_path() {
        // Same held set, plan weights that do / don't match the chosen
        // subset: the reconstructed lanes must not depend on whether the
        // canonical weights or the survivor-mask cache served them.
        // Polynomials 7 + 5x (lane 0) and 3 + 2x (lane 1) at x = 3, 4, 5.
        let dest_xs: Vec<Elem> = (0..5).map(share_x::<Field>).collect();
        let sum_ys: Vec<Elem> = (0..5u64)
            .flat_map(|di| [Elem::new(7 + 5 * (di + 1)), Elem::new(3 + 2 * (di + 1))])
            .collect();
        let sum_mask = vec![0b11u128; 5];
        let held = vec![2usize, 3, 4];
        let run = |w: &ReconstructionPlan<Field>| {
            let mut cache = WeightCache::new(&dest_xs, 2).unwrap();
            let (mut members, mut xs, mut slab) = (Vec::new(), Vec::new(), Vec::new());
            let mut out = Vec::new();
            aggregate_lanes(
                &held,
                &sum_ys,
                &sum_mask,
                &dest_xs,
                2,
                1,
                w,
                Some(&mut cache),
                &mut members,
                &mut xs,
                &mut slab,
                &mut out,
            )
        };
        let matching = run(&weights(&[2, 3], 2));
        let fallback = run(&weights(&[0, 1], 2));
        assert_eq!(matching, fallback);
        assert_eq!(matching.0, Some(vec![7, 3]));
    }

    #[test]
    fn aggregate_lanes_matches_scalar_selection() {
        // Two candidate mask groups in slab form with 2 lanes: the wider
        // mask wins even though both reach the threshold.
        let dest_xs: Vec<Elem> = (0..4).map(share_x::<Field>).collect();
        // Lane 0: polynomials 10 + x (wide) and 20 + x (narrow).
        // Lane 1: polynomials 30 + 2x (wide) and 40 + 2x (narrow).
        let sum_ys: Vec<Elem> = [
            (11u64, 32u64), // node 0: x=1
            (12, 34),       // node 1: x=2
            (23, 46),       // node 2: x=3 (narrow)
            (24, 48),       // node 3: x=4 (narrow)
        ]
        .iter()
        .flat_map(|&(a, b)| [Elem::new(a), Elem::new(b)])
        .collect();
        let sum_mask = vec![0b111u128, 0b111, 0b011, 0b011];
        let held = vec![0usize, 1, 2, 3];
        let w = weights(&[0, 1, 2, 3], 2);
        let mut cache = WeightCache::new(&dest_xs, 2).unwrap();
        let (mut members, mut xs, mut slab) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = Vec::new();
        let (agg, bits) = aggregate_lanes(
            &held,
            &sum_ys,
            &sum_mask,
            &dest_xs,
            2,
            1,
            &w,
            Some(&mut cache),
            &mut members,
            &mut xs,
            &mut slab,
            &mut out,
        );
        assert_eq!(agg, Some(vec![10, 30]));
        assert_eq!(bits, 3);
    }

    #[test]
    fn aggregate_lanes_needs_threshold() {
        let dest_xs: Vec<Elem> = (0..2).map(share_x::<Field>).collect();
        let sum_ys = vec![Elem::new(5), Elem::new(6)];
        let sum_mask = vec![1u128, 1];
        let w = weights(&[0, 1], 2);
        let mut cache = WeightCache::new(&dest_xs, 2).unwrap();
        let (mut members, mut xs, mut slab) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = Vec::new();
        let (agg, bits) = aggregate_lanes(
            &[0],
            &sum_ys,
            &sum_mask,
            &dest_xs,
            1,
            1,
            &w,
            Some(&mut cache),
            &mut members,
            &mut xs,
            &mut slab,
            &mut out,
        );
        assert_eq!(agg, None);
        assert_eq!(bits, 0);
    }

    #[test]
    fn aggregate_lanes_cached_weights_match_fresh_basis() {
        // A survivor subset off the canonical fast path, resolved twice:
        // the second call must hit the cache and produce the same lanes.
        let dest_xs: Vec<Elem> = (0..5).map(share_x::<Field>).collect();
        // Polynomial 9 + 4x on lane 0, 21 + 2x on lane 1 at x = di + 1.
        let sum_ys: Vec<Elem> = (0..5u64)
            .flat_map(|di| [Elem::new(9 + 4 * (di + 1)), Elem::new(21 + 2 * (di + 1))])
            .collect();
        let sum_mask = vec![0b11u128; 5];
        let held = vec![2usize, 3, 4]; // not the canonical lowest-x subset
        let w = weights(&[0, 1], 2);
        let mut cache = WeightCache::new(&dest_xs, 2).unwrap();
        let (mut members, mut xs, mut slab) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = Vec::new();
        let first = aggregate_lanes(
            &held,
            &sum_ys,
            &sum_mask,
            &dest_xs,
            2,
            1,
            &w,
            Some(&mut cache),
            &mut members,
            &mut xs,
            &mut slab,
            &mut out,
        );
        assert_eq!(first.0, Some(vec![9, 21]));
        assert_eq!(cache.cached(), 1);
        let again = aggregate_lanes(
            &held,
            &sum_ys,
            &sum_mask,
            &dest_xs,
            2,
            1,
            &w,
            Some(&mut cache),
            &mut members,
            &mut xs,
            &mut slab,
            &mut out,
        );
        assert_eq!(first, again);
        assert_eq!(cache.cached(), 1, "second resolution must hit the cache");
    }
}
