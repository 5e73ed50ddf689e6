//! The layer replay: one deployment round rebuilt from public constructors
//! and run layer by layer, with a span around every call into a layer.
//!
//! A [`Shadow`] compiles what the program's round plan holds (destinations,
//! the sharing chain's sub-slots, one AES-CCM context per sub-slot, both
//! MiniCast schedules, the canonical Lagrange weights) from
//! `Bootstrap::run`, `PairwiseKeys`, `Ccm::new`, `ChainSpec::with_fragments`
//! and `MiniCastSchedule::new`. [`Shadow::round`] then replays one round at
//! given `(round_id, seed)` coordinates in pipeline order: readings, fault
//! draws, link conditions, share split, seal, commitments, the sharing
//! flood, fragment reassembly and open + accumulate, the sum audit, the
//! reconstruction flood and per-node reconstruction. [`Replayed::compare`]
//! proves the replay did the program's work: every phase statistic,
//! aggregate and per-node figure must equal the program's `RoundReport`.

use std::collections::HashMap;
use std::time::Instant;

use ppda_crypto::{Aes128, Ccm, CtrDrbg};
use ppda_ct::{
    ChainSpec, Delivery, FaultPlan, LinkConditionsCache, MiniCastConfig, MiniCastResult,
    MiniCastSchedule,
};
use ppda_field::{share_x, PrimeField};
use ppda_integrity::{CommitContext, IntegrityVerdict, ShareCommitment, SumAudit};
use ppda_mpc::{
    Bootstrap, Elem, Field, MembershipDelta, MembershipTimeline, ProtocolConfig, ProtocolKind,
    RoundPlan, RoundReport,
};
use ppda_radio::{fragment_frame, Fragmenter, FrameSpec, RadioCurrents, Reassembler};
use ppda_service::DeploymentSpec;
use ppda_sim::{derive_stream, SimDuration, SimTime, Xoshiro256};
use ppda_sss::{
    open_share_lanes, seal_share_lanes, BatchSplitter, CommitPacket, ReconstructionPlan,
    SharePacket, SumBatch, WeightCache,
};
use ppda_topology::Topology;

/// Delivery-fault sub-stream tags of the two flooding phases.
const PHASE_SHARING: u32 = 0;
const PHASE_RECONSTRUCTION: u32 = 1;
/// Cycles of schedule slack beyond NTX in S4's perimeter-scope sharing.
const PERIMETER_SLACK_CYCLES: u32 = 2;

/// Span time (ns) and work counts accumulated over replayed rounds.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub rounds: u64,
    pub readings_ns: u64,
    pub faults_ns: u64,
    pub link_ns: u64,
    pub split_ns: u64,
    pub seal_ns: u64,
    pub commit_ns: u64,
    pub sharing_flood_ns: u64,
    /// Open + accumulate, fragment reassembly included (see
    /// [`Layers::open_self_ns`]).
    pub open_ns: u64,
    pub fragment_ns: u64,
    pub audit_ns: u64,
    pub recon_flood_ns: u64,
    pub reconstruct_ns: u64,
    pub patch_ns: u64,
    pub sharing_cycles: u64,
    pub receptions: u64,
    pub useful_receptions: u64,
    pub link_hits: u64,
    pub link_builds: u64,
    pub sealed_packets: u64,
    pub sealed_bytes: u64,
    pub opened_packets: u64,
    pub aes_blocks: u64,
    pub fragments: u64,
    pub patches: u64,
}

impl Layers {
    /// Open + accumulate self time: the open span minus its nested
    /// fragment-reassembly spans.
    pub fn open_self_ns(&self) -> u64 {
        self.open_ns - self.fragment_ns
    }

    /// Every layer span of the round pipeline (nested spans once).
    pub fn span_ns(&self) -> u64 {
        self.readings_ns
            + self.faults_ns
            + self.link_ns
            + self.split_ns
            + self.seal_ns
            + self.commit_ns
            + self.sharing_flood_ns
            + self.open_ns
            + self.audit_ns
            + self.recon_flood_ns
            + self.reconstruct_ns
            + self.patch_ns
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// AES block operations of one CCM seal or open of `payload` bytes under
/// the 8-byte share AAD: B₀, one AAD block and the payload blocks for the
/// CBC-MAC, the payload blocks and S₀ for CTR.
fn ccm_blocks(payload: usize) -> u64 {
    3 + 2 * payload.div_ceil(16) as u64
}

/// One sharing-chain sub-slot.
#[derive(Clone, Copy)]
struct SlotSpec {
    src: u16,
    dst: u16,
    src_index: usize,
    dst_index: usize,
}

/// Everything a round needs for one destination set.
struct Compiled {
    destinations: Vec<u16>,
    dest_xs: Vec<Elem>,
    is_destination: Vec<bool>,
    dest_index: Vec<usize>,
    slots: Vec<SlotSpec>,
    slots_by_dest: Vec<usize>,
    offsets: Vec<usize>,
    slot_ccm: Vec<Ccm>,
    sharing: MiniCastSchedule,
    recon: MiniCastSchedule,
    recon_weights: ReconstructionPlan<Field>,
}

/// A deployment's membership stream: the plan at the initial view and the
/// compiled deltas, applied the way a fresh driver fast-forwards.
struct Membership {
    initial: RoundPlan<'static>,
    deltas: Vec<MembershipDelta>,
}

/// The replay's own compile of one deployment.
pub struct Shadow {
    topology: Topology,
    config: ProtocolConfig,
    kind: ProtocolKind,
    faults: FaultPlan,
    bootstrap: Bootstrap,
    master: Aes128,
    commit_ctx: Vec<CommitContext>,
    share_layout: (FrameSpec, u32),
    sum_layout: (FrameSpec, u32),
    compiled: Vec<Compiled>,
    membership: Option<Membership>,
}

fn layout(
    datagram_len: usize,
    frame: Result<FrameSpec, impl ToString>,
) -> Result<(FrameSpec, u32), String> {
    match frame {
        Ok(frame) => Ok((frame, 1)),
        Err(_) => fragment_frame(datagram_len)
            .map(|(frame, count)| (frame, count as u32))
            .map_err(|e| e.to_string()),
    }
}

impl Shadow {
    pub fn new(spec: &DeploymentSpec) -> Result<Self, String> {
        let config = spec.config.clone();
        let bootstrap = Bootstrap::run(&spec.topology, &config).map_err(|e| e.to_string())?;
        let lanes = config.batch;
        let share_len = SharePacket::<Field>::sealed_len_batch(lanes, config.tag_len);
        let share_layout = layout(
            share_len,
            FrameSpec::new(lanes * <Field as PrimeField>::ENCODED_LEN, config.tag_len),
        )?;
        let sum_len = SumBatch::<Field>::encoded_len(lanes);
        let sum_layout = layout(sum_len, FrameSpec::new(sum_len, 0))?;
        let membership = if spec.membership.is_empty() {
            None
        } else {
            let timeline = MembershipTimeline::compile(
                &bootstrap,
                &config,
                &spec.membership,
                &spec.trickle,
                spec.seed,
            )
            .map_err(|e| e.to_string())?;
            let mut initial =
                RoundPlan::new_owned(spec.topology.clone(), config.clone(), spec.protocol)
                    .map_err(|e| e.to_string())?;
            let mut absent = MembershipDelta::at(config.round_id);
            absent.leaves = (0..config.n_nodes as u16)
                .filter(|&v| !timeline.initial()[v as usize])
                .collect();
            if !absent.is_empty() {
                initial.apply(&absent).map_err(|e| e.to_string())?;
            }
            Some(Membership {
                initial,
                deltas: timeline.deltas().to_vec(),
            })
        };
        Ok(Shadow {
            topology: spec.topology.clone(),
            commit_ctx: if config.integrity.is_on() {
                config
                    .sources
                    .iter()
                    .map(|&s| CommitContext::new(s))
                    .collect()
            } else {
                Vec::new()
            },
            master: Aes128::new(&config.master_key),
            config,
            kind: spec.protocol,
            faults: spec.faults.clone(),
            bootstrap,
            share_layout,
            sum_layout,
            compiled: Vec::new(),
            membership,
        })
    }

    fn strict(&self) -> bool {
        self.kind == ProtocolKind::S3
    }

    /// The destination set for a membership view: the most central live
    /// nodes (S4) or every live node (S3).
    fn elect(&self, live: Option<&[bool]>) -> Vec<u16> {
        let n = self.config.n_nodes as u16;
        match (self.kind, live) {
            (ProtocolKind::S3, None) => (0..n).collect(),
            (ProtocolKind::S3, Some(live)) => (0..n).filter(|&v| live[v as usize]).collect(),
            (_, None) => self.bootstrap.aggregators().to_vec(),
            (_, Some(live)) => self.bootstrap.elect(self.config.aggregator_count(), live),
        }
    }

    fn compile(&self, destinations: Vec<u16>) -> Result<Compiled, String> {
        let config = &self.config;
        let n = config.n_nodes;
        let dest_xs: Vec<Elem> = destinations
            .iter()
            .map(|&d| share_x::<Field>(d as usize))
            .collect();
        let mut is_destination = vec![false; n];
        let mut dest_index = vec![0; n];
        for (di, &d) in destinations.iter().enumerate() {
            is_destination[d as usize] = true;
            dest_index[d as usize] = di;
        }
        let mut slots = Vec::new();
        for (src_index, &src) in config.sources.iter().enumerate() {
            for (dst_index, &dst) in destinations.iter().enumerate() {
                if dst != src {
                    slots.push(SlotSpec {
                        src,
                        dst,
                        src_index,
                        dst_index,
                    });
                }
            }
        }
        let mut slots_by_dest = Vec::with_capacity(slots.len());
        let mut offsets = vec![0];
        for &d in &destinations {
            slots_by_dest.extend((0..slots.len()).filter(|&j| slots[j].dst == d));
            offsets.push(slots_by_dest.len());
        }
        let slot_ccm = slots
            .iter()
            .map(|s| {
                let key = self
                    .bootstrap
                    .keys()
                    .key(s.src, s.dst)
                    .map_err(|e| e.to_string())?;
                Ccm::new(key, config.tag_len).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (full_coverage, ntx_sharing, ntx_recon) = match self.kind {
            ProtocolKind::S3 => (true, config.full_coverage_ntx, config.full_coverage_ntx),
            ProtocolKind::S4 => (false, config.ntx_sharing, config.ntx_reconstruction),
        };
        let chain = |frame: (FrameSpec, u32), owners: Vec<u16>| {
            ChainSpec::with_fragments(frame.0, owners, frame.1).map_err(|e| e.to_string())
        };
        let sharing = MiniCastSchedule::new(
            &self.topology,
            chain(self.share_layout, slots.iter().map(|s| s.src).collect())?,
            MiniCastConfig {
                ntx: ntx_sharing,
                link_threshold: config.link_threshold,
                max_cycles: (!full_coverage).then_some(ntx_sharing + PERIMETER_SLACK_CYCLES),
                early_radio_off: !self.strict(),
                ..MiniCastConfig::default()
            },
        );
        let recon = MiniCastSchedule::new(
            &self.topology,
            chain(self.sum_layout, destinations.clone())?,
            MiniCastConfig {
                ntx: ntx_recon,
                link_threshold: config.link_threshold,
                early_radio_off: !self.strict(),
                ..MiniCastConfig::default()
            },
        );
        let mut sorted = dest_xs.clone();
        sorted.sort_unstable();
        let threshold = config.degree + 1;
        let recon_weights = ReconstructionPlan::new(&sorted[..threshold.min(sorted.len())])
            .map_err(|e| e.to_string())?;
        Ok(Compiled {
            destinations,
            dest_xs,
            is_destination,
            dest_index,
            slots,
            slots_by_dest,
            offsets,
            slot_ccm,
            sharing,
            recon,
            recon_weights,
        })
    }

    /// Replay the round at `(round_id, seed)`. `exec` carries what the
    /// program keeps across one driver's rounds (scratch buffers and the
    /// link and weight caches): reuse it to mirror a long-lived driver,
    /// or pass a fresh one to mirror the engine's per-span drivers.
    ///
    /// # Errors
    ///
    /// A layer call that fails, or a membership view the replay elects
    /// differently from the program's patched plan.
    // Node and destination indices address several parallel tables, as
    // in the program's executor.
    #[allow(clippy::needless_range_loop)]
    pub fn round(
        &mut self,
        exec: &mut Exec,
        layers: &mut Layers,
        round_id: u32,
        seed: u64,
    ) -> Result<Replayed, String> {
        // ---- Membership: clone the initial-view plan, apply due deltas.
        let mut live: Option<Vec<bool>> = None;
        let mut plan_destinations = None;
        if let Some(m) = &self.membership {
            let t = Instant::now();
            let mut plan = m.initial.clone();
            for delta in m.deltas.iter().take_while(|d| d.round <= round_id) {
                plan.apply(delta).map_err(|e| e.to_string())?;
                layers.patches += 1;
            }
            layers.patch_ns += ns(t);
            live = plan.membership().map(<[bool]>::to_vec);
            plan_destinations = Some(plan.destinations().to_vec());
        }
        let destinations = self.elect(live.as_deref());
        if let Some(theirs) = plan_destinations {
            if theirs != destinations {
                return Err(format!(
                    "membership: elected {destinations:?}, the patched plan holds {theirs:?}"
                ));
            }
        }
        let ci = match self
            .compiled
            .iter()
            .position(|c| c.destinations == destinations)
        {
            Some(ci) => ci,
            None => {
                let compiled = self.compile(destinations)?;
                self.compiled.push(compiled);
                self.compiled.len() - 1
            }
        };
        let plan = &self.compiled[ci];
        let config = &self.config;
        let lanes = config.batch;
        let n = config.n_nodes;
        let n_dests = plan.destinations.len();
        let n_slots = plan.slots.len();
        let threshold = config.degree + 1;
        let strict = self.strict();
        exec.fit(config, plan);
        let Exec {
            readings,
            failed,
            lane_secrets,
            splitter,
            share_slabs,
            share_live,
            sealed,
            slot_live,
            fragmenter,
            reassembler,
            frag_buf,
            open_payload,
            open_lanes,
            sum_ys,
            sum_mask,
            sum_live,
            usable,
            commit_bytes,
            commitments,
            commit_wire,
            recon_xs,
            recon_slab,
            recon_out,
            held,
            link,
            weights,
            ..
        } = exec;
        layers.rounds += 1;

        // ---- Readings (ppda-crypto DRBG).
        let t = Instant::now();
        crate::check::readings(&self.master, config, round_id, seed, readings);
        layers.readings_ns += ns(t);

        // ---- Fault draws and the round's failure mask (ppda-ct).
        let t = Instant::now();
        let rf = self.faults.realize(round_id, seed);
        let mut nodes_dropped = 0u32;
        failed.clear();
        failed.resize(n, false);
        if let Some(live) = &live {
            for (f, &l) in failed.iter_mut().zip(live) {
                *f |= !l;
            }
        }
        for (v, f) in failed.iter_mut().enumerate() {
            if !*f && rf.node_down(v) {
                *f = true;
                nodes_dropped += 1;
            }
        }
        layers.faults_ns += ns(t);

        // ---- Link conditions (ppda-ct cache over ppda-radio fading).
        let t = Instant::now();
        let attenuation_db = {
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0xFAD));
            config.fading.draw(&mut rng)
        };
        let (hits, builds) = (link.hits(), link.builds());
        let conditions = link.get(
            &self.topology,
            attenuation_db + rf.extra_attenuation_db(),
            rf.loss(),
        );
        layers.link_ns += ns(t);

        let mut live_source_mask = 0u128;
        let mut expected = vec![Elem::ZERO; lanes];
        for (si, &src) in config.sources.iter().enumerate() {
            if failed[src as usize] {
                continue;
            }
            live_source_mask |= 1u128 << src;
            for (lane, e) in expected.iter_mut().enumerate() {
                *e += Elem::new(readings[si * lanes + lane]);
            }
        }

        // ---- Share split (ppda-sss over ppda-field Horner, DRBG coins).
        let t = Instant::now();
        for (si, &src) in config.sources.iter().enumerate() {
            share_live[si] = !failed[src as usize];
            if !share_live[si] {
                continue;
            }
            let mut drbg = CtrDrbg::with_master_cipher(
                &self.master,
                format!("share|{round_id}|{seed}|{src}").as_bytes(),
            );
            lane_secrets.clear();
            lane_secrets.extend(
                readings[si * lanes..(si + 1) * lanes]
                    .iter()
                    .map(|&v| Elem::new(v)),
            );
            splitter
                .split_into(lane_secrets, &plan.dest_xs, &mut drbg, &mut share_slabs[si])
                .map_err(|e| e.to_string())?;
        }
        layers.split_ns += ns(t);

        // ---- AES-CCM seal (ppda-sss over ppda-crypto).
        let t = Instant::now();
        for (j, slot) in plan.slots.iter().enumerate() {
            slot_live[j] = share_live[slot.src_index];
            if !slot_live[j] {
                sealed[j].clear();
                continue;
            }
            let ys =
                &share_slabs[slot.src_index][slot.dst_index * lanes..(slot.dst_index + 1) * lanes];
            seal_share_lanes(
                &plan.slot_ccm[j],
                slot.src,
                slot.dst,
                round_id,
                plan.dest_xs[slot.dst_index],
                ys,
                &mut sealed[j],
            )
            .map_err(|e| e.to_string())?;
        }
        layers.seal_ns += ns(t);
        let payload_len = lanes * <Field as PrimeField>::ENCODED_LEN;
        for (j, s) in sealed.iter().enumerate() {
            if slot_live[j] {
                layers.sealed_packets += 1;
                layers.sealed_bytes += s.len() as u64;
                layers.aes_blocks += ccm_blocks(payload_len);
            }
        }

        // ---- Share commitments (ppda-integrity).
        if config.integrity.is_on() {
            let t = Instant::now();
            for (si, ctx) in self.commit_ctx.iter().enumerate() {
                commitments[si] = None;
                if !share_live[si] {
                    continue;
                }
                commit_bytes.clear();
                for y in &share_slabs[si] {
                    commit_bytes.extend_from_slice(&y.to_bytes());
                }
                let commitment = ctx.commit(round_id, commit_bytes);
                CommitPacket {
                    src: commitment.src,
                    round: round_id,
                    digest: commitment.digest,
                }
                .encode_into(commit_wire);
                let carried = CommitPacket::decode(commit_wire).map_err(|e| e.to_string())?;
                commitments[si] = Some(ShareCommitment {
                    src: carried.src,
                    digest: carried.digest,
                });
            }
            layers.commit_ns += ns(t);
        }

        // ---- Sharing flood (ppda-ct MiniCast).
        let t = Instant::now();
        let sharing = {
            let slot_live = &*slot_live;
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0x5A1));
            plan.sharing
                .run_with(conditions, &mut rng, failed, |v, have| {
                    if strict {
                        have.iter().all(|&h| h)
                    } else if plan.is_destination[v] {
                        let di = plan.dest_index[v];
                        plan.slots_by_dest[plan.offsets[di]..plan.offsets[di + 1]]
                            .iter()
                            .all(|&j| !slot_live[j] || have[j])
                    } else {
                        true
                    }
                })
        };
        layers.sharing_flood_ns += ns(t);
        layers.sharing_cycles += u64::from(sharing.cycles_run);
        for (v, node) in sharing.nodes.iter().enumerate() {
            for (j, &got) in node.received.iter().enumerate() {
                if got && plan.slots[j].src as usize != v {
                    layers.receptions += 1;
                    layers.useful_receptions += u64::from(plan.slots[j].dst as usize == v);
                }
            }
        }

        // ---- Fragment reassembly (ppda-radio) and open + accumulate
        //      (ppda-sss over ppda-crypto, field sums).
        let mut shares_missing = 0u32;
        let mut shares_delayed = 0u32;
        let mut duplicates = 0u32;
        let share_frags = self.share_layout.1;
        let t_open = Instant::now();
        for (di, &d) in plan.destinations.iter().enumerate() {
            sum_live[di] = false;
            sum_mask[di] = 0;
            if failed[d as usize] {
                continue;
            }
            let row = di * lanes;
            sum_ys[row..row + lanes].fill(Elem::ZERO);
            let mut mask = 0u128;
            if let Some(si) = config.sources.iter().position(|&s| s == d) {
                if share_live[si] {
                    mask |= 1u128 << d;
                    let own = &share_slabs[si][di * lanes..(di + 1) * lanes];
                    for (acc, &y) in sum_ys[row..row + lanes].iter_mut().zip(own) {
                        *acc += y;
                    }
                }
            }
            for &j in &plan.slots_by_dest[plan.offsets[di]..plan.offsets[di + 1]] {
                let slot = plan.slots[j];
                if !slot_live[j] {
                    continue;
                }
                if !sharing.nodes[d as usize].received[j] {
                    shares_missing += 1;
                    continue;
                }
                match rf.delivery(PHASE_SHARING, j, d as usize) {
                    Delivery::Delayed => {
                        shares_delayed += 1;
                        continue;
                    }
                    Delivery::Duplicated => duplicates += 1,
                    Delivery::OnTime => {}
                }
                let datagram: &[u8] = if share_frags > 1 {
                    let t = Instant::now();
                    let frames = fragmenter.fragment(&sealed[j]).map_err(|e| e.to_string())?;
                    frag_buf.clear();
                    for frame in &frames {
                        if let Some(whole) = reassembler
                            .accept(slot.src, frame)
                            .map_err(|e| e.to_string())?
                        {
                            *frag_buf = whole;
                        }
                    }
                    layers.fragments += frames.len() as u64;
                    layers.fragment_ns += ns(t);
                    if frag_buf.is_empty() {
                        return Err("radio: fragment reassembly did not complete".into());
                    }
                    frag_buf
                } else {
                    &sealed[j]
                };
                open_share_lanes(
                    &plan.slot_ccm[j],
                    slot.src,
                    d,
                    round_id,
                    plan.dest_xs[di],
                    lanes,
                    datagram,
                    open_payload,
                    open_lanes,
                )
                .map_err(|e| e.to_string())?;
                layers.opened_packets += 1;
                layers.aes_blocks += ccm_blocks(payload_len);
                let bit = 1u128 << slot.src;
                if mask & bit != 0 {
                    return Err(format!("sharing: duplicate share from source {}", slot.src));
                }
                mask |= bit;
                for (acc, &y) in sum_ys[row..row + lanes].iter_mut().zip(open_lanes.iter()) {
                    *acc += y;
                }
            }
            sum_live[di] = true;
            sum_mask[di] = mask;
        }
        layers.open_ns += ns(t_open);

        for di in 0..n_dests {
            usable[di] = sum_live[di] && sum_mask[di] == live_source_mask;
        }

        // ---- Sum audit (ppda-integrity).
        let integrity = if config.integrity.is_on() {
            let t = Instant::now();
            let mut audit = SumAudit::new(config.degree);
            audit.set_survivors(usable.iter().filter(|&&u| u).count());
            if audit.quorum() {
                let n_sources = config.sources.len();
                let spot = (0..n_sources)
                    .map(|k| (round_id as usize + k) % n_sources)
                    .find(|&si| commitments[si].is_some());
                if let Some(si) = spot {
                    let c = commitments[si].expect("spot-checked commitment exists");
                    commit_bytes.clear();
                    for y in &share_slabs[si] {
                        commit_bytes.extend_from_slice(&y.to_bytes());
                    }
                    if !c.verify(round_id, commit_bytes) {
                        audit.flag(0, None);
                    }
                }
                for (di, &d) in plan.destinations.iter().enumerate() {
                    if !sum_live[di] {
                        continue;
                    }
                    'lane: for lane in 0..lanes {
                        let mut committed = Elem::ZERO;
                        for (si, &src) in config.sources.iter().enumerate() {
                            if sum_mask[di] & (1u128 << src) == 0 {
                                continue;
                            }
                            if commitments[si].is_none() {
                                continue 'lane;
                            }
                            committed += share_slabs[si][di * lanes + lane];
                        }
                        audit.check_lane(
                            lane as u16,
                            &committed.to_bytes(),
                            &sum_ys[di * lanes + lane].to_bytes(),
                            Some(d),
                        );
                    }
                }
            }
            layers.audit_ns += ns(t);
            audit.verdict()
        } else {
            IntegrityVerdict::Unchecked
        };
        let survivors: Vec<u16> = plan
            .destinations
            .iter()
            .enumerate()
            .filter(|&(di, _)| usable[di])
            .map(|(_, &d)| d)
            .collect();

        // ---- Reconstruction flood (ppda-ct MiniCast).
        let t = Instant::now();
        let recon = {
            let usable = &*usable;
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0x5A2));
            plan.recon
                .run_with(conditions, &mut rng, failed, move |_, have| {
                    if strict {
                        have.iter().all(|&h| h)
                    } else {
                        have.iter().zip(usable).filter(|&(&h, &u)| h && u).count() >= threshold
                    }
                })
        };
        layers.recon_flood_ns += ns(t);

        // ---- Per-node reconstruction (ppda-sss weights, ppda-field sums).
        let t = Instant::now();
        let mut sums_missing = 0u32;
        let mut sums_delayed = 0u32;
        let sharing_sched = sharing.scheduled_duration();
        let live_source_count = live_source_mask.count_ones();
        let mut live_nodes = 0usize;
        let mut nodes_recovered = 0usize;
        let mut nodes = Vec::with_capacity(n);
        for v in 0..n {
            if failed[v] {
                nodes.push(ReplayedNode {
                    failed: true,
                    aggregates: None,
                    included: 0,
                    latency: None,
                    radio_on: SimDuration::ZERO,
                    energy_mj: 0.0,
                });
                continue;
            }
            live_nodes += 1;
            let (aggregates, included) = if strict && recon.nodes[v].predicate_met_at.is_none() {
                (None, 0)
            } else {
                held.clear();
                for di in 0..n_dests {
                    if !sum_live[di] {
                        continue;
                    }
                    if !recon.nodes[v].received[di] {
                        sums_missing += 1;
                        continue;
                    }
                    if plan.destinations[di] as usize != v {
                        match rf.delivery(PHASE_RECONSTRUCTION, di, v) {
                            Delivery::Delayed => {
                                sums_delayed += 1;
                                continue;
                            }
                            Delivery::Duplicated => duplicates += 1,
                            Delivery::OnTime => {}
                        }
                    }
                    held.push(di);
                }
                aggregate_lanes(
                    held,
                    sum_ys,
                    sum_mask,
                    plan,
                    lanes,
                    config.degree,
                    weights.as_mut(),
                    recon_xs,
                    recon_slab,
                    recon_out,
                )
            };
            if aggregates.is_some() && included == live_source_count {
                nodes_recovered += 1;
            }
            let latency = recon.nodes[v]
                .predicate_met_at
                .map(|at| sharing_sched + (at - SimTime::ZERO));
            let mut radio = sharing.nodes[v].ledger;
            radio.merge(&recon.nodes[v].ledger);
            nodes.push(ReplayedNode {
                failed: false,
                aggregates,
                included,
                latency,
                radio_on: radio.radio_on(),
                energy_mj: radio.energy_mj(&RadioCurrents::nrf52840()),
            });
        }
        layers.reconstruct_ns += ns(t);

        let sharing_phase = Phase::of(&sharing, n_slots, share_frags);
        let recon_phase = Phase::of(&recon, n_dests, self.sum_layout.1);
        layers.link_hits += link.hits() - hits;
        layers.link_builds += link.builds() - builds;
        Ok(Replayed {
            expected: expected.iter().map(|e| e.value()).collect(),
            nodes,
            sharing: sharing_phase,
            recon: recon_phase,
            survivors,
            nodes_recovered,
            live_nodes,
            faults: [
                nodes_dropped,
                shares_missing,
                shares_delayed,
                sums_missing,
                sums_delayed,
                duplicates,
            ],
            integrity,
        })
    }
}

/// Reconstruct a node's lane aggregates from the sum shares it holds:
/// the largest contributor mask held by at least degree + 1 destinations
/// (ties: more holders, then the larger mask), its lowest-x members, and
/// the plan's canonical weights or the survivor-mask weights.
#[allow(clippy::too_many_arguments)]
fn aggregate_lanes(
    held: &[usize],
    sum_ys: &[Elem],
    sum_mask: &[u128],
    plan: &Compiled,
    lanes: usize,
    degree: usize,
    cache: Option<&mut WeightCache<Field>>,
    recon_xs: &mut Vec<Elem>,
    recon_slab: &mut Vec<Elem>,
    recon_out: &mut Vec<Elem>,
) -> (Option<Vec<u64>>, u32) {
    let uniform = held.windows(2).all(|w| sum_mask[w[0]] == sum_mask[w[1]]);
    let (bits, mask) = if uniform {
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
        let best = groups
            .iter()
            .filter(|&(&mask, &count)| mask != 0 && count > degree)
            .map(|(&mask, &count)| (mask.count_ones(), count, mask))
            .max();
        let Some((bits, _, mask)) = best else {
            return (None, 0);
        };
        (bits, mask)
    };
    let mut members: Vec<usize> = held
        .iter()
        .copied()
        .filter(|&di| sum_mask[di] == mask)
        .collect();
    members.sort_by_key(|&di| plan.dest_xs[di]);
    members.truncate(degree + 1);
    recon_xs.clear();
    recon_xs.extend(members.iter().map(|&di| plan.dest_xs[di]));
    recon_slab.clear();
    for &di in &members {
        recon_slab.extend_from_slice(&sum_ys[di * lanes..(di + 1) * lanes]);
    }
    if plan.recon_weights.xs() == &recon_xs[..] {
        if plan
            .recon_weights
            .reconstruct_batch_into(lanes, recon_slab, recon_out)
            .is_err()
        {
            return (None, 0);
        }
    } else {
        let survivor_mask = members.iter().fold(0u128, |m, &di| m | (1u128 << di));
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

/// The executor state a program driver keeps across its rounds.
pub struct Exec {
    readings: Vec<u64>,
    failed: Vec<bool>,
    lane_secrets: Vec<Elem>,
    splitter: BatchSplitter<Field>,
    share_slabs: Vec<Vec<Elem>>,
    share_live: Vec<bool>,
    sealed: Vec<Vec<u8>>,
    slot_live: Vec<bool>,
    fragmenter: Fragmenter,
    reassembler: Reassembler,
    frag_buf: Vec<u8>,
    open_payload: Vec<u8>,
    open_lanes: Vec<Elem>,
    sum_ys: Vec<Elem>,
    sum_mask: Vec<u128>,
    sum_live: Vec<bool>,
    usable: Vec<bool>,
    commit_bytes: Vec<u8>,
    commitments: Vec<Option<ShareCommitment>>,
    commit_wire: Vec<u8>,
    recon_xs: Vec<Elem>,
    recon_slab: Vec<Elem>,
    recon_out: Vec<Elem>,
    held: Vec<usize>,
    link: LinkConditionsCache,
    weights: Option<WeightCache<Field>>,
    /// The destination set `weights` was built for.
    weights_for: Option<Vec<u16>>,
}

impl Exec {
    pub fn new(config: &ProtocolConfig) -> Self {
        Exec {
            readings: Vec::new(),
            failed: Vec::new(),
            lane_secrets: Vec::new(),
            splitter: BatchSplitter::new(config.degree, config.batch),
            share_slabs: vec![Vec::new(); config.sources.len()],
            share_live: vec![false; config.sources.len()],
            sealed: Vec::new(),
            slot_live: Vec::new(),
            fragmenter: Fragmenter::default(),
            reassembler: Reassembler::default(),
            frag_buf: Vec::new(),
            open_payload: Vec::new(),
            open_lanes: Vec::new(),
            sum_ys: Vec::new(),
            sum_mask: Vec::new(),
            sum_live: Vec::new(),
            usable: Vec::new(),
            commit_bytes: Vec::new(),
            commitments: vec![None; config.sources.len()],
            commit_wire: Vec::new(),
            recon_xs: Vec::new(),
            recon_slab: Vec::new(),
            recon_out: Vec::new(),
            held: Vec::new(),
            link: LinkConditionsCache::new(),
            weights: None,
            weights_for: None,
        }
    }

    /// Size the destination-scoped buffers for `plan`, and rebuild the
    /// survivor-mask weight cache when the destination set changed (as
    /// the program's executor does after a plan patch).
    fn fit(&mut self, config: &ProtocolConfig, plan: &Compiled) {
        let n_dests = plan.destinations.len();
        let n_slots = plan.slots.len();
        self.sealed.resize(n_slots, Vec::new());
        self.slot_live.resize(n_slots, false);
        self.sum_ys.resize(n_dests * config.batch, Elem::ZERO);
        self.sum_mask.resize(n_dests, 0);
        self.sum_live.resize(n_dests, false);
        self.usable.resize(n_dests, false);
        if self.weights_for.as_ref() != Some(&plan.destinations) {
            self.weights = WeightCache::new(&plan.dest_xs, config.degree + 1).ok();
            self.weights_for = Some(plan.destinations.clone());
        }
    }

    /// Survivor-mask bases this executor computed, and evictions.
    pub fn weight_work(&self) -> (u64, u64) {
        self.weights.as_ref().map_or((0, 0), |w| {
            (w.cached() as u64 + w.evictions(), w.evictions())
        })
    }
}

/// One flooding phase's statistics, as the report carries them.
#[derive(Debug, PartialEq)]
struct Phase {
    chain_len: usize,
    cycles_scheduled: u32,
    cycles_run: u32,
    scheduled_duration: SimDuration,
    coverage: f64,
    fragments: u32,
}

impl Phase {
    fn of(result: &MiniCastResult, chain_len: usize, fragments: u32) -> Self {
        Phase {
            chain_len,
            cycles_scheduled: result.cycles_scheduled,
            cycles_run: result.cycles_run,
            scheduled_duration: result.scheduled_duration(),
            coverage: result.coverage(),
            fragments,
        }
    }

    fn from_report(stats: &ppda_mpc::PhaseStats) -> Self {
        Phase {
            chain_len: stats.chain_len,
            cycles_scheduled: stats.cycles_scheduled,
            cycles_run: stats.cycles_run,
            scheduled_duration: stats.scheduled_duration,
            coverage: stats.coverage,
            fragments: stats.fragments,
        }
    }
}

#[derive(Debug, PartialEq)]
struct ReplayedNode {
    failed: bool,
    aggregates: Option<Vec<u64>>,
    included: u32,
    latency: Option<SimDuration>,
    radio_on: SimDuration,
    energy_mj: f64,
}

/// What the replay computed for one round.
pub struct Replayed {
    expected: Vec<u64>,
    nodes: Vec<ReplayedNode>,
    sharing: Phase,
    recon: Phase,
    survivors: Vec<u16>,
    nodes_recovered: usize,
    live_nodes: usize,
    /// Dropped, shares missing/delayed, sums missing/delayed, duplicates.
    faults: [u32; 6],
    integrity: IntegrityVerdict,
}

impl Replayed {
    /// `Err` names the first phase where the replay and the program's
    /// report disagree.
    pub fn compare(&self, report: &RoundReport) -> Result<(), String> {
        let f = &report.degraded.faults;
        let theirs_faults = [
            f.nodes_dropped,
            f.shares_missing,
            f.shares_delayed,
            f.sums_missing,
            f.sums_delayed,
            f.duplicates,
        ];
        let mismatch = |phase: &str, ours: &dyn std::fmt::Debug, theirs: &dyn std::fmt::Debug| {
            Err(format!(
                "phase {phase}: replay {ours:?}, program {theirs:?}"
            ))
        };
        if self.expected != report.outcome.expected_sums {
            return mismatch("inputs", &self.expected, &report.outcome.expected_sums);
        }
        if self.live_nodes != report.degraded.live_nodes || self.faults[0] != theirs_faults[0] {
            return mismatch(
                "faults",
                &(self.live_nodes, self.faults[0]),
                &(report.degraded.live_nodes, theirs_faults[0]),
            );
        }
        let sharing = Phase::from_report(&report.outcome.sharing);
        if self.sharing != sharing {
            return mismatch("sharing", &self.sharing, &sharing);
        }
        if self.faults[1..3] != theirs_faults[1..3] {
            return mismatch("sharing", &&self.faults[1..3], &&theirs_faults[1..3]);
        }
        if self.integrity != report.degraded.integrity || self.integrity != report.outcome.integrity
        {
            return mismatch("audit", &self.integrity, &report.degraded.integrity);
        }
        if self.survivors != report.degraded.survivors {
            return mismatch("audit", &self.survivors, &report.degraded.survivors);
        }
        let recon = Phase::from_report(&report.outcome.reconstruction);
        if self.recon != recon {
            return mismatch("reconstruction", &self.recon, &recon);
        }
        if self.faults[3..] != theirs_faults[3..] {
            return mismatch("reconstruction", &&self.faults[3..], &&theirs_faults[3..]);
        }
        for (v, (ours, theirs)) in self.nodes.iter().zip(&report.outcome.nodes).enumerate() {
            let theirs = ReplayedNode {
                failed: theirs.failed,
                aggregates: theirs.aggregates.clone(),
                included: theirs.included_sources,
                latency: theirs.latency,
                radio_on: theirs.radio_on,
                energy_mj: theirs.energy_mj,
            };
            if *ours != theirs {
                return mismatch(&format!("aggregation (node {v})"), ours, &theirs);
            }
        }
        if self.nodes.len() != report.outcome.nodes.len()
            || self.nodes_recovered != report.degraded.nodes_recovered
        {
            return mismatch(
                "aggregation",
                &self.nodes_recovered,
                &report.degraded.nodes_recovered,
            );
        }
        Ok(())
    }
}
