//! Feature-gated checkpoint/restore for a quiesced [`CampaignEngine`].
//!
//! A checkpoint captures, per deployment: the full [`DeploymentSpec`]
//! (name, topology, protocol configuration, protocol variant, fault
//! plan, seed and clock mode), the round-clock position (rounds
//! completed), and the merged [`CampaignAccumulator`]. Restoring
//! recompiles every deployment from its spec and resumes the clocks, so
//! a restored engine's subsequent rounds are **byte-identical** to the
//! rounds an uninterrupted engine would have run (round outcomes are
//! pure functions of their `(round_id, seed)` coordinates).
//!
//! The vendored serde subset has no derive macro, so the format is a
//! hand-rolled versioned little-endian blob, embedding the byte formats
//! [`Topology`] and [`CampaignAccumulator`] already define for their own
//! serde impls. [`Checkpoint`] implements `Serialize`/`Deserialize` as a
//! single byte string, matching the repo-wide convention.

use std::fmt;

use ppda_metrics::CampaignAccumulator;
use ppda_mpc::{
    ChurnSchedule, FaultPlan, IntegrityMode, MembershipEvent, MembershipEventKind, MpcError,
    ProtocolConfig, ProtocolKind, TrickleConfig,
};
use ppda_radio::FadingProfile;
use ppda_topology::Topology;
use serde::{Deserialize, Deserializer, Error as _, Serialize, Serializer};

use crate::engine::{CampaignEngine, ClockMode, DeploymentSpec, EngineError, MAX_WORKERS};

/// Current blob version. Version 2 appended the membership event
/// stream and Trickle parameters to every spec; version 3 appended the
/// config's fragmentation flag; version 4 appended the config's
/// integrity mode; version 5 dropped the two Trickle words (interval
/// doublings and redundancy constant) that no dissemination delay
/// reads. Older blobs (no membership / no flags / four Trickle words)
/// still restore.
const FORMAT_VERSION: u8 = 5;
const OLDEST_SUPPORTED_VERSION: u8 = 1;

/// A serialized, self-contained image of a quiesced engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    blob: Vec<u8>,
}

/// Why a checkpoint could not be taken or restored.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The engine refused to quiesce (e.g. it is tainted by an earlier
    /// failed advance, so its round streams have holes).
    Engine(EngineError),
    /// The blob is malformed (truncated, wrong version, bad embedded
    /// topology or accumulator).
    Format(String),
    /// A restored spec no longer compiles into a deployment.
    Compile(MpcError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Engine(e) => write!(f, "engine cannot checkpoint: {e}"),
            CheckpointError::Format(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Compile(e) => write!(f, "restored spec fails to compile: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Engine(e) => Some(e),
            CheckpointError::Format(_) => None,
            CheckpointError::Compile(e) => Some(e),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() < n {
            return Err(CheckpointError::Format("checkpoint truncated".into()));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > self.bytes.len() as u64 {
            return Err(CheckpointError::Format("checkpoint truncated".into()));
        }
        Ok(n as usize)
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.len()?;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        String::from_utf8(self.bytes_field()?.to_vec())
            .map_err(|_| CheckpointError::Format("checkpoint string is not UTF-8".into()))
    }
}

fn encode_spec(out: &mut Vec<u8>, spec: &DeploymentSpec) {
    put_bytes(out, spec.name.as_bytes());
    put_bytes(out, &spec.topology.to_blob());
    out.push(match spec.protocol {
        ProtocolKind::S3 => 3,
        ProtocolKind::S4 => 4,
    });
    match spec.clock {
        ClockMode::Epoch => out.push(0),
        ClockMode::SeedStripe { round_id } => {
            out.push(1);
            put_u32(out, round_id);
        }
    }
    put_u64(out, spec.seed);

    let c = &spec.config;
    put_u64(out, c.n_nodes as u64);
    put_u64(out, c.sources.len() as u64);
    for &s in &c.sources {
        out.extend_from_slice(&s.to_le_bytes());
    }
    put_u64(out, c.degree as u64);
    put_u32(out, c.ntx_sharing);
    put_u32(out, c.ntx_reconstruction);
    put_u32(out, c.full_coverage_ntx);
    put_u64(out, c.aggregator_redundancy as u64);
    put_u64(out, c.tag_len as u64);
    out.extend_from_slice(&c.master_key);
    put_f64(out, c.link_threshold);
    put_u32(out, c.round_id);
    put_u64(out, c.max_reading);
    put_f64(out, c.fading.calm_prob);
    put_f64(out, c.fading.mild_prob);
    put_f64(out, c.fading.mild_range.0);
    put_f64(out, c.fading.mild_range.1);
    put_f64(out, c.fading.harsh_range.0);
    put_f64(out, c.fading.harsh_range.1);
    put_u64(out, c.batch as u64);

    let f = &spec.faults;
    put_u64(out, f.seed);
    put_f64(out, f.loss);
    put_f64(out, f.extra_attenuation_db);
    put_f64(out, f.dropout);
    put_f64(out, f.delay);
    put_f64(out, f.duplicate);
    put_u64(out, f.churn.windows().len() as u64);
    for w in f.churn.windows() {
        out.extend_from_slice(&w.node.to_le_bytes());
        put_u32(out, w.from_round);
        put_u32(out, w.until_round);
    }

    // Version 2: the online-membership event stream plus the Trickle
    // parameters that govern its dissemination.
    put_u64(out, spec.membership.len() as u64);
    for ev in &spec.membership {
        put_u32(out, ev.round);
        out.extend_from_slice(&ev.node.to_le_bytes());
        out.push(match ev.kind {
            MembershipEventKind::Join => 0,
            MembershipEventKind::Leave => 1,
            MembershipEventKind::Crash => 2,
            MembershipEventKind::Rejoin => 3,
        });
    }
    let t = &spec.trickle;
    put_u32(out, t.i_min);
    put_u32(out, t.crash_detection);

    // Version 3: the fragmentation flag (wide lane batches span frames).
    out.push(u8::from(c.fragmentation));

    // Version 4: the integrity mode (sum audit on or off).
    out.push(u8::from(c.integrity.is_on()));
}

fn decode_spec(r: &mut Reader<'_>, version: u8) -> Result<DeploymentSpec, CheckpointError> {
    let name = r.string()?;
    let topology = Topology::from_blob(r.bytes_field()?).map_err(CheckpointError::Format)?;
    let protocol = match r.u8()? {
        3 => ProtocolKind::S3,
        4 => ProtocolKind::S4,
        other => {
            return Err(CheckpointError::Format(format!(
                "unknown protocol tag {other}"
            )))
        }
    };
    let clock = match r.u8()? {
        0 => ClockMode::Epoch,
        1 => ClockMode::SeedStripe { round_id: r.u32()? },
        other => {
            return Err(CheckpointError::Format(format!(
                "unknown clock tag {other}"
            )))
        }
    };
    let seed = r.u64()?;

    let n_nodes = r.u64()? as usize;
    let n_sources = r.len()?; // count ≤ remaining bytes, so a corrupt
                              // prefix fails cleanly (u16 reads re-check)
    let sources = (0..n_sources)
        .map(|_| r.u16())
        .collect::<Result<Vec<u16>, _>>()?;
    let degree = r.u64()? as usize;
    let ntx_sharing = r.u32()?;
    let ntx_reconstruction = r.u32()?;
    let full_coverage_ntx = r.u32()?;
    let aggregator_redundancy = r.u64()? as usize;
    let tag_len = r.u64()? as usize;
    let mut master_key = [0u8; 16];
    master_key.copy_from_slice(r.take(16)?);
    let link_threshold = r.f64()?;
    let round_id = r.u32()?;
    let max_reading = r.u64()?;
    let fading = FadingProfile {
        calm_prob: r.f64()?,
        mild_prob: r.f64()?,
        mild_range: (r.f64()?, r.f64()?),
        harsh_range: (r.f64()?, r.f64()?),
    };
    let batch = r.u64()? as usize;
    let mut config = ProtocolConfig {
        n_nodes,
        sources,
        degree,
        ntx_sharing,
        ntx_reconstruction,
        full_coverage_ntx,
        aggregator_redundancy,
        tag_len,
        master_key,
        link_threshold,
        round_id,
        max_reading,
        fading,
        batch,
        // Version ≤ 2 blobs predate the fragmenting transport: every
        // batch they could compile fits one frame, so the flag is off.
        fragmentation: false,
        // Version ≤ 3 blobs predate the integrity subsystem, whose off
        // mode is byte-identical to what those engines ran.
        integrity: IntegrityMode::Off,
    };

    let fault_seed = r.u64()?;
    let loss = r.f64()?;
    let extra_attenuation_db = r.f64()?;
    let dropout = r.f64()?;
    let delay = r.f64()?;
    let duplicate = r.f64()?;
    let n_windows = r.u64()? as usize;
    let mut windows = Vec::with_capacity(n_windows.min(1024));
    for _ in 0..n_windows {
        let node = r.u16()?;
        let from = r.u32()?;
        let until = r.u32()?;
        windows.push((node, from, until));
    }
    let faults = FaultPlan {
        seed: fault_seed,
        loss,
        extra_attenuation_db,
        dropout,
        delay,
        duplicate,
        churn: ChurnSchedule::from_windows(windows),
    };

    // Version-1 blobs predate online membership: restore them as
    // membership-free specs with the default Trickle parameters.
    let mut membership = Vec::new();
    let mut trickle = TrickleConfig::default();
    if version >= 2 {
        let n_events = r.u64()? as usize;
        membership.reserve(n_events.min(4096));
        for _ in 0..n_events {
            let round = r.u32()?;
            let node = r.u16()?;
            let kind = match r.u8()? {
                0 => MembershipEventKind::Join,
                1 => MembershipEventKind::Leave,
                2 => MembershipEventKind::Crash,
                3 => MembershipEventKind::Rejoin,
                other => {
                    return Err(CheckpointError::Format(format!(
                        "unknown membership event tag {other}"
                    )))
                }
            };
            membership.push(MembershipEvent { round, node, kind });
        }
        let i_min = r.u32()?;
        if version < 5 {
            // Versions 2–4 also carried the interval doublings and the
            // redundancy constant, which no dissemination delay reads.
            r.take(8)?;
        }
        trickle = TrickleConfig {
            i_min,
            crash_detection: r.u32()?,
        };
    }
    if version >= 3 {
        config.fragmentation = r.u8()? != 0;
    }
    if version >= 4 {
        config.integrity = if r.u8()? != 0 {
            IntegrityMode::On
        } else {
            IntegrityMode::Off
        };
    }

    Ok(DeploymentSpec {
        name,
        topology,
        config,
        protocol,
        faults,
        seed,
        clock,
        membership,
        trickle,
    })
}

impl Checkpoint {
    /// Capture a quiesced engine: every deployment's spec, round-clock
    /// position and merged metrics, plus the engine's pool geometry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Engine`] when the engine is tainted by an
    /// earlier failed advance (its round streams have holes that a
    /// restore could not reproduce).
    pub fn capture(engine: &CampaignEngine) -> Result<Checkpoint, CheckpointError> {
        let state = engine.quiesced_state().map_err(CheckpointError::Engine)?;
        let mut blob = Vec::new();
        blob.push(FORMAT_VERSION);
        put_u64(&mut blob, engine.workers() as u64);
        put_u64(&mut blob, engine.chunk());
        put_u64(&mut blob, state.len() as u64);
        for (spec, completed, metrics) in &state {
            encode_spec(&mut blob, spec);
            put_u64(&mut blob, *completed);
            put_bytes(&mut blob, &metrics.to_blob());
        }
        Ok(Checkpoint { blob })
    }

    /// Recompile every deployment and resume the fleet where it left
    /// off, with the checkpointed pool geometry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] on a malformed blob (including one
    /// naming more than [`MAX_WORKERS`] workers),
    /// [`CheckpointError::Compile`] when a restored spec no longer
    /// builds.
    pub fn restore(&self) -> Result<CampaignEngine, CheckpointError> {
        let mut r = Reader { bytes: &self.blob };
        let version = r.u8()?;
        if !(OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::Format(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let workers = r.u64()?;
        if workers > MAX_WORKERS as u64 {
            return Err(CheckpointError::Format(format!(
                "checkpoint names {workers} workers, above the ceiling of {MAX_WORKERS}"
            )));
        }
        let chunk = r.u64()?;
        let n = r.u64()? as usize;
        let mut specs = Vec::with_capacity(n.min(4096));
        let mut progress = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let spec = decode_spec(&mut r, version)?;
            let completed = r.u64()?;
            let metrics = CampaignAccumulator::from_blob(r.bytes_field()?)
                .map_err(CheckpointError::Format)?;
            specs.push(spec);
            progress.push((completed, metrics));
        }
        if !r.bytes.is_empty() {
            return Err(CheckpointError::Format(
                "trailing bytes after checkpoint".into(),
            ));
        }
        let mut engine = CampaignEngine::builder()
            .workers(workers as usize)
            .chunk(chunk)
            .deployments(specs)
            .build()
            .map_err(CheckpointError::Compile)?;
        engine.restore_progress(progress);
        Ok(engine)
    }

    /// The raw checkpoint bytes (e.g. to write to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.blob
    }

    /// Wrap raw bytes read back from storage. Validation happens on
    /// [`restore`](Checkpoint::restore).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Checkpoint {
        Checkpoint { blob: bytes.into() }
    }
}

impl Serialize for Checkpoint {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.blob)
    }
}

impl<'de> Deserialize<'de> for Checkpoint {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let blob = Vec::<u8>::deserialize(deserializer)?;
        // Validate the header eagerly so a wrong payload fails at
        // deserialization, not at a later restore.
        let supported = blob
            .first()
            .is_some_and(|&v| (OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&v));
        if !supported {
            return Err(D::Error::custom("not a campaign checkpoint"));
        }
        Ok(Checkpoint { blob })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::*;

    /// A two-deployment fleet: one with membership events, churn windows
    /// and a lossy fault plan at `i_min` = 3, one on the seed-stripe clock.
    fn fleet() -> Vec<DeploymentSpec> {
        let grid = |seed| {
            let topology = Topology::grid(3, 3, 15.0, seed);
            let config = ProtocolConfig::builder(topology.len())
                .sources(3)
                .build()
                .expect("grid config");
            (topology, config)
        };
        let (topology, config) = grid(69);
        let mut churny = DeploymentSpec::new("churny", topology, config);
        churny.membership = vec![
            MembershipEvent::leave(2, 8),
            MembershipEvent::join(4, 6),
            MembershipEvent::crash(6, 7),
            MembershipEvent::rejoin(12, 8),
        ];
        churny.trickle = TrickleConfig {
            i_min: 3,
            crash_detection: 2,
        };
        churny.faults = FaultPlan::lossy(0x5EED, 0.15)
            .with_dropout(0.05)
            .with_churn(ChurnSchedule::from_windows([(2, 3, 5), (5, 1, 9)]));
        churny.seed = 0xC0FFEE;
        let (topology, config) = grid(57);
        let mut striped = DeploymentSpec::new("striped", topology, config);
        striped.clock = ClockMode::SeedStripe { round_id: 7 };
        striped.seed = 1000;
        vec![churny, striped]
    }

    /// The fleet's checkpoint in version 5 and in version 4. Version 4
    /// carried two more Trickle words (interval doublings and redundancy
    /// constant) between `i_min` and `crash_detection`: each spec's v4
    /// bytes are its v5 bytes with 6 and 2 re-inserted there.
    fn base_blobs() -> &'static [Vec<u8>; 2] {
        static BLOBS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
        BLOBS.get_or_init(|| {
            let engine = CampaignEngine::builder()
                .workers(1)
                .deployments(fleet())
                .build()
                .expect("fleet compiles");
            let v5 = Checkpoint::capture(&engine).expect("checkpoint").blob;
            let mut v4 = vec![4];
            put_u64(&mut v4, engine.workers() as u64);
            put_u64(&mut v4, engine.chunk());
            let state = engine.quiesced_state().expect("quiesced");
            put_u64(&mut v4, state.len() as u64);
            for (spec, completed, metrics) in &state {
                let mut spec_bytes = Vec::new();
                encode_spec(&mut spec_bytes, spec);
                // Before `crash_detection` and the two flag bytes.
                let at = spec_bytes.len() - (4 + 2);
                let dropped = [6u32.to_le_bytes(), 2u32.to_le_bytes()].concat();
                spec_bytes.splice(at..at, dropped);
                v4.extend_from_slice(&spec_bytes);
                put_u64(&mut v4, *completed);
                put_bytes(&mut v4, &metrics.to_blob());
            }
            [v5, v4]
        })
    }

    /// Restore `bytes`: an engine or a typed format or compile error.
    fn restore_is_typed(bytes: Vec<u8>) -> Result<Option<CampaignEngine>, TestCaseError> {
        match Checkpoint::from_bytes(bytes).restore() {
            Ok(engine) => Ok(Some(engine)),
            Err(CheckpointError::Format(_) | CheckpointError::Compile(_)) => Ok(None),
            Err(CheckpointError::Engine(e)) => Err(TestCaseError::fail(format!(
                "restore raised an engine error: {e}"
            ))),
        }
    }

    /// Every byte of the version-5 blob pinned to 0x00 and to 0xFF in
    /// turn: the extreme counts, sizes, lane widths and intervals that
    /// single bit flips rarely reach. Each restore returns an engine or
    /// a typed error.
    #[test]
    fn restore_survives_every_byte_pinned_to_an_extreme() {
        let [v5, _] = base_blobs();
        for at in 0..v5.len() {
            for extreme in [0x00, 0xFF] {
                let mut bytes = v5.clone();
                bytes[at] = extreme;
                if let Err(e) = restore_is_typed(bytes) {
                    panic!("byte {at} pinned to {extreme:#04x}: {e:?}");
                }
            }
        }
    }

    proptest! {
        /// `Checkpoint::restore` is total. On arbitrary bytes, on
        /// truncations and single bit flips of a version-5 and a
        /// version-4 blob, and on a truncated blob continued by arbitrary
        /// bytes, it returns an engine or a typed error; an intact blob
        /// restores to the captured specs. Bit flips inside the embedded
        /// topology blob exercise `Topology::from_blob` as well. Restored
        /// engines are never advanced.
        #[test]
        fn restore_is_total(
            garbage in prop::collection::vec(any::<u8>(), 0..600),
            version_4 in any::<bool>(),
            cut in any::<prop::sample::Index>(),
            flip in any::<prop::sample::Index>(),
            bit in 0u32..8,
        ) {
            let [v5, v4] = base_blobs();
            let base = if version_4 { v4 } else { v5 };

            let restored = restore_is_typed(base.clone())?.expect("an intact blob restores");
            let recaptured = Checkpoint::capture(&restored).expect("checkpoint");
            // The intact blob restores to the captured specs.
            prop_assert_eq!(&recaptured.blob, v5);

            restore_is_typed(garbage.clone())?;
            let truncated = &base[..cut.index(base.len())];
            restore_is_typed(truncated.to_vec())?;
            restore_is_typed([truncated, &garbage].concat())?;
            let mut flipped = base.clone();
            flipped[flip.index(base.len())] ^= 1 << bit;
            restore_is_typed(flipped)?;
        }
    }
}
