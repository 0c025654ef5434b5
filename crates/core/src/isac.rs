//! The integrated ISAC frame: one chirp train carrying downlink data,
//! uplink backscatter, sensing, and localization simultaneously (paper §3.3).
//!
//! A frame is built from the downlink packet (CSSK slopes) padded with
//! header-slope chirps to the full slow-time window. The same train is then
//! "experienced" twice, once per signal path:
//!
//! * **Tag side** — the chirps arrive at the tag's envelope decoder at the
//!   SNR given by the one-way budget; the tag runs its full pipeline.
//! * **Radar side** — the scene (clutter, movers, and the tag modulating at
//!   its subcarrier) reflects the chirps; the radar dechirps, aligns (IF
//!   correction), subtracts background, forms the range–Doppler map,
//!   localizes the tag, demodulates the uplink, and runs CFAR detection for
//!   its primary sensing job.
//!
//! The tag's reflectivity toggles at its modulation frequency, so during
//! absorptive half-cycles it decodes and during reflective half-cycles it
//! retro-reflects — both at once from the frame's point of view, which is
//! exactly the integration the paper demonstrates.

use crate::downlink::FrameOutcome;
use crate::system::BiScatterSystem;
use biscatter_compute::ComputePool;
use biscatter_dsp::planner::{with_planner, FftPlanner};
use biscatter_dsp::signal::NoiseSource;
use biscatter_dsp::{simd, Real};
use biscatter_link::packet::DownlinkPacket;
use biscatter_obs::recorder::StageNanos;
use biscatter_obs::trace;
use biscatter_radar::receiver::acquire::{
    acquire_all, block_fft_len, AcquireConfig, AcquireScratch, Acquisition, CorrelatorBank,
    HypothesisScore, SlopeHypothesis,
};
use biscatter_radar::receiver::doppler::{range_doppler_into, RangeDopplerMap};
use biscatter_radar::receiver::localize::{locate_tag, TagLocation};
use biscatter_radar::receiver::multitag::{
    detect_all, MultiTagScratch, TagBank, TagDetection, TagProfile,
};
use biscatter_radar::receiver::range_profile::transform_len;
use biscatter_radar::receiver::uplink::{demodulate, UplinkScheme};
use biscatter_radar::receiver::{
    align_frame_into, receive_frame_into, AlignedFrame, FrontEndSplit,
};
use biscatter_radar::sensing::{CfarDetector, Detection};
use biscatter_radar::sequencer::isac_frame;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::if_gen::IfReceiver;
use biscatter_rf::scene::{Scatterer, Scene, TagModulation};
use biscatter_rf::slab::SampleSlab;
use biscatter_tag::decoder::DownlinkDecoder;
use precision::PrecisionTier;
use std::cell::Cell;
use std::time::Instant;

pub mod precision;

/// A static reflector in the scenario (range, amplitude relative to the
/// tag's reflective-state amplitude).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClutterSpec {
    /// Range, metres.
    pub range_m: f64,
    /// Amplitude relative to the tag (typically ≫ 1: walls and shelves
    /// reflect far more than a tag antenna).
    pub relative_amp: f64,
}

/// A moving target in the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoverSpec {
    /// Range at frame start, metres.
    pub range_m: f64,
    /// Radial velocity, m/s.
    pub velocity_mps: f64,
    /// Amplitude relative to the tag.
    pub relative_amp: f64,
}

/// One additional tag deployed in the scenario beyond the primary: where it
/// sits, how it modulates, and what it transmits. Detected through the
/// batched multi-tag engine together with the primary tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TagDeployment {
    /// Tag range from the radar, metres.
    pub range_m: f64,
    /// Switch modulation (subcarrier) frequency, Hz.
    pub mod_freq_hz: f64,
    /// Uplink bits the tag transmits during the frame (empty = beacon only).
    pub uplink_bits: Vec<bool>,
    /// Uplink scheme.
    pub uplink_scheme: UplinkScheme,
    /// Uplink bit duration, s.
    pub uplink_bit_duration_s: f64,
}

/// A tag that has not yet been acquired: the radar knows neither its chirp
/// timing nor (until acquisition classifies it) which alphabet slope it is
/// currently sweeping. [`run_cold_start_frame`] runs the correlator
/// bank over a raw acquisition dwell first and only enters the aligned
/// frame pipeline once the tag passes the PSLR gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStartSpec {
    /// True timing offset of the tag's chirps within the slot period, s
    /// (what acquisition must recover).
    pub timing_offset_s: f64,
    /// Index into [`acquire_hypotheses`] of the slope the tag is sweeping.
    pub slope_idx: usize,
    /// Whether a tag is present at all; `false` synthesizes a noise-only
    /// dwell that acquisition must reject.
    pub tag_present: bool,
}

/// One ISAC scenario: tag deployment plus environment.
#[derive(Debug, Clone)]
pub struct IsacScenario {
    /// Tag range from the radar, metres.
    pub tag_range_m: f64,
    /// Tag modulation (subcarrier) frequency, Hz.
    pub tag_mod_freq_hz: f64,
    /// Uplink bits the tag transmits during the frame (empty = beacon only).
    pub uplink_bits: Vec<bool>,
    /// Uplink scheme.
    pub uplink_scheme: UplinkScheme,
    /// Uplink bit duration, s.
    pub uplink_bit_duration_s: f64,
    /// Additional tags sharing the frame (paper §5's warehouse deployment).
    /// When non-empty, detection runs through the batched multi-tag engine
    /// and [`IsacOutcome::tags`] carries one entry per tag (primary first).
    pub extra_tags: Vec<TagDeployment>,
    /// Static clutter.
    pub clutter: Vec<ClutterSpec>,
    /// Moving targets.
    pub movers: Vec<MoverSpec>,
    /// When set, the primary tag starts unsynchronized and the frame runs
    /// the acquisition stage first (see [`ColdStartSpec`]).
    pub cold_start: Option<ColdStartSpec>,
}

impl IsacScenario {
    /// A clean single-tag scenario with a beacon subcarrier.
    pub fn single_tag(range_m: f64, mod_freq_hz: f64) -> Self {
        IsacScenario {
            tag_range_m: range_m,
            tag_mod_freq_hz: mod_freq_hz,
            uplink_bits: Vec::new(),
            uplink_scheme: UplinkScheme::Ook {
                freq_hz: mod_freq_hz,
            },
            uplink_bit_duration_s: 32.0 * 120e-6,
            extra_tags: Vec::new(),
            clutter: Vec::new(),
            movers: Vec::new(),
            cold_start: None,
        }
    }

    /// Marks the primary tag unacquired (builder style): the frame must
    /// first recover `timing_offset_s` and the slope at `slope_idx` from a
    /// raw dwell before any aligned processing runs.
    pub fn with_cold_start(mut self, timing_offset_s: f64, slope_idx: usize) -> Self {
        self.cold_start = Some(ColdStartSpec {
            timing_offset_s,
            slope_idx,
            tag_present: true,
        });
        self
    }

    /// Adds an additional tag to the scenario (builder style).
    pub fn with_extra_tag(mut self, tag: TagDeployment) -> Self {
        self.extra_tags.push(tag);
        self
    }

    /// The detection profiles of every tag in the scenario, primary first —
    /// the order [`IsacOutcome::tags`] follows. Appends into `out` so
    /// steady-state callers reuse its capacity.
    pub fn tag_profiles_into(&self, out: &mut Vec<TagProfile>) {
        out.clear();
        out.push(TagProfile {
            f_mod_hz: self.tag_mod_freq_hz,
            scheme: self.uplink_scheme,
            bit_duration_s: self.uplink_bit_duration_s,
        });
        for t in &self.extra_tags {
            out.push(TagProfile {
                f_mod_hz: t.mod_freq_hz,
                scheme: t.uplink_scheme,
                bit_duration_s: t.uplink_bit_duration_s,
            });
        }
    }

    /// The paper's office: several strong static reflectors.
    pub fn with_office_clutter(mut self) -> Self {
        self.clutter = vec![
            ClutterSpec {
                range_m: 1.2,
                relative_amp: 8.0,
            },
            ClutterSpec {
                range_m: 3.4,
                relative_amp: 6.0,
            },
            ClutterSpec {
                range_m: 8.8,
                relative_amp: 12.0,
            },
        ];
        self
    }
}

/// Everything one integrated frame produced.
#[derive(Debug, Clone, PartialEq)]
pub struct IsacOutcome {
    /// Downlink result at the tag.
    pub downlink: FrameOutcome,
    /// Tag localization at the radar (None = not found).
    pub location: Option<TagLocation>,
    /// Demodulated uplink bits (None = no bits requested or frame too short).
    pub uplink_bits: Option<Vec<bool>>,
    /// CFAR detections from the sensing path (background *not* subtracted).
    pub detections: Vec<Detection>,
    /// Per-tag results from the batched multi-tag engine, primary tag first.
    /// Empty for single-tag scenarios (which take the legacy detect path).
    pub tags: Vec<TagDetection>,
}

// ---------------------------------------------------------------------------
// Frame stages.
//
// The integrated frame decomposes into five stage functions. Stages 2–5 are
// generic over the sample precision (`Real`: f64 or f32). `run_isac_frame`
// is their allocating f64 composition, the oracle; `run_frame` composes the
// same functions on the running thread's buffers and a precision tier, and
// is what the runtime and the fleet call for every frame.
//
// The FFT-heavy stages (align, doppler, and the tag-side decode inside
// synthesize) reach their transforms through `biscatter_dsp::planner`'s
// thread-local plan cache, so each frame worker builds its plans once and
// reuses them for every subsequent frame with no cross-thread locking.
// `warm_dsp_plans` lets a worker pay that one-time cost at spawn instead of
// on its first frame.
// ---------------------------------------------------------------------------

/// Pre-builds this thread's FFT plans for the transform lengths a frame
/// from `sys` will need: the range FFT's packed real-input plan at every
/// length a chirp of the alphabet transforms at ([`transform_len`]), and
/// the slow-time (Doppler) plan. Calling it from a worker thread at startup
/// moves plan construction out of first-frame latency; it is idempotent and
/// cheap when the plans already exist.
pub fn warm_dsp_plans(sys: &BiScatterSystem) {
    with_planner(|p: &mut FftPlanner| {
        for &duration in sys.alphabet.durations() {
            let samples = (duration * sys.rx.if_sample_rate).round() as usize;
            let _ = p.rfft_plan(transform_len(samples, sys.rx.n_fft.max(2)));
        }
        let _ = p.plan(biscatter_dsp::fft::next_pow2(sys.frame_chirps.max(1)));
    });
}

/// Stage 1 output: the on-air frame, the tag-side downlink result, and the
/// radar-side scene it will reflect from.
#[derive(Debug, Clone)]
pub struct SynthesizedFrame {
    /// The transmitted chirp train (packet + header-slope padding).
    pub train: ChirpTrain,
    /// The reflecting scene (tag + clutter + movers).
    pub scene: Scene,
    /// Downlink outcome at the tag (the tag experiences the frame during
    /// synthesis: its envelope capture shares nothing with the radar path).
    pub downlink: FrameOutcome,
}

/// Stage 3 output, the aligned frame both receive paths read, under the
/// name the `biscatter-e2e` benchmark's replay imports: its rows are the
/// sensing path, its [`AlignedFrame::comms`] the comms path.
pub type AlignedPair<T = f64> = AlignedFrame<T>;

/// The buffers a frame runs through: one set per thread ([`BUFFERS`]),
/// sized by the thread's first frame and reused by every frame after it,
/// whichever cell it belongs to. Once sized, stages 2–4 allocate nothing
/// on a 1-thread pool (DESIGN.md §10.3); there is no slab of IF samples,
/// each chirp's samples live in a per-thread row through its range FFT.
#[derive(Default)]
struct FrameBuffers {
    /// Stage 2–3 aligned frame on the f64 tier.
    aligned: AlignedFrame,
    /// Stage 2–3 aligned frame on the f32 tier (unsized while every frame
    /// on the thread runs f64).
    aligned32: AlignedFrame<f32>,
    /// Stage 4–5 buffers, shared by both tiers.
    detect: DetectBuffers,
    /// Cold-start acquisition dwell capture.
    capture: Vec<f64>,
    /// Cold-start correlator bank (`set_hypotheses` keys on content, so
    /// its template spectra stay warm across frames).
    acq_bank: CorrelatorBank,
    /// Cold-start block-spectrum/energy slabs.
    acquire: AcquireScratch,
}

/// What stages 4 and 5 fill, in either precision.
#[derive(Default)]
struct DetectBuffers {
    /// Stage 4 range–Doppler map.
    map: RangeDopplerMap,
    /// Stage 5 mean-power scratch.
    mean_power: Vec<f64>,
    /// Stage 5 multi-tag bank (`set_tags` keys on content, so its cached
    /// detection templates stay warm across frames).
    bank: TagBank,
    /// Stage 5 multi-tag batch scratch (band/score/amplitude slabs).
    multitag: MultiTagScratch,
}

thread_local! {
    /// The tag's envelope capture of the frame being synthesized on this
    /// thread, its capacity reused by the next.
    static CAPTURE: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// The buffers of the frames this thread runs, out of their home while
    /// a frame runs (taken and set back, never borrowed across a fan-out:
    /// the calling thread works in its own pool regions).
    static BUFFERS: Cell<Option<Box<FrameBuffers>>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's frame buffers, taken out of [`BUFFERS`] and
/// put back when `f` returns. The thread's first frame sizes a fresh set;
/// so does the frame after one that panicked, which dropped its set as it
/// unwound.
fn with_buffers<R>(f: impl FnOnce(&mut FrameBuffers) -> R) -> R {
    let mut bufs = BUFFERS.take().unwrap_or_default();
    let out = f(&mut bufs);
    BUFFERS.set(Some(bufs));
    out
}

/// Stage 1 — frame synthesis: builds the chirp train, runs the tag-side
/// downlink decode at the scenario's SNR, and assembles the radar scene.
pub fn synthesize_frame(
    sys: &BiScatterSystem,
    scenario: &IsacScenario,
    payload: &[u8],
    seed: u64,
) -> SynthesizedFrame {
    let _span = biscatter_obs::span!("isac.synthesize");
    let packet = DownlinkPacket::new(payload.to_vec());
    let (train, _symbols, _) =
        isac_frame(&packet, &sys.alphabet, sys.radar.t_period, sys.frame_chirps)
            .expect("alphabet durations satisfy the duty constraint by construction");

    // --- Tag side: decode the downlink. ---
    let mut tag_noise = NoiseSource::new(seed);
    let snr_db = sys.downlink_snr_at(scenario.tag_range_m);
    let mut adc_stream = CAPTURE.take();
    sys.front_end
        .capture_train_into(&train, snr_db, 0.0, &mut tag_noise, &mut adc_stream);
    let decoder = DownlinkDecoder::new(sys.nominal_decider());
    let received = decoder.decode(&adc_stream, Some(payload.len()));
    CAPTURE.set(adc_stream);
    let downlink = FrameOutcome::new(payload, received.ok().and_then(|r| r.payload.ok()));

    // --- Radar-side scene. ---
    let tag_amp = sys.tag_if_amplitude(scenario.tag_range_m);
    let modulation = tag_modulation(
        scenario.tag_mod_freq_hz,
        &scenario.uplink_bits,
        scenario.uplink_scheme,
        scenario.uplink_bit_duration_s,
    );
    // The scene's one list of scatterers, sized up front.
    let n = 1 + scenario.extra_tags.len() + scenario.clutter.len() + scenario.movers.len();
    let scatterers = Vec::with_capacity(n);
    let mut scene = Scene { scatterers }.with(Scatterer {
        range_m: scenario.tag_range_m,
        azimuth_rad: 0.0,
        velocity_mps: 0.0,
        amplitude: tag_amp,
        modulation,
        leak: 0.01,
    });
    for t in &scenario.extra_tags {
        scene = scene.with(Scatterer {
            range_m: t.range_m,
            azimuth_rad: 0.0,
            velocity_mps: 0.0,
            amplitude: sys.tag_if_amplitude(t.range_m),
            modulation: tag_modulation(
                t.mod_freq_hz,
                &t.uplink_bits,
                t.uplink_scheme,
                t.uplink_bit_duration_s,
            ),
            leak: 0.01,
        });
    }
    for c in &scenario.clutter {
        scene = scene.with(Scatterer::clutter(c.range_m, c.relative_amp * tag_amp));
    }
    for m in &scenario.movers {
        scene = scene.with(Scatterer::mover(
            m.range_m,
            m.velocity_mps,
            m.relative_amp * tag_amp,
        ));
    }

    SynthesizedFrame {
        train,
        scene,
        downlink,
    }
}

/// How a tag's reflectivity toggles on air: a plain subcarrier beacon when
/// it has no bits to send, otherwise its uplink scheme gating/shifting the
/// subcarrier per bit.
fn tag_modulation(
    mod_freq_hz: f64,
    uplink_bits: &[bool],
    scheme: UplinkScheme,
    bit_duration_s: f64,
) -> TagModulation {
    if uplink_bits.is_empty() {
        return TagModulation::Subcarrier {
            freq_hz: mod_freq_hz,
            duty: 0.5,
        };
    }
    match scheme {
        UplinkScheme::Ook { freq_hz } => TagModulation::OokBits {
            freq_hz,
            bit_duration_s,
            bits: uplink_bits.to_vec(),
        },
        UplinkScheme::Fsk { freq0_hz, freq1_hz } => TagModulation::FskBits {
            freq0_hz,
            freq1_hz,
            bit_duration_s,
            bits: uplink_bits.to_vec(),
        },
    }
}

/// The radar's IF receiver for `sys`, and the frame's IF noise stream.
fn if_receiver(sys: &BiScatterSystem, seed: u64) -> (IfReceiver, NoiseSource) {
    let rx = IfReceiver {
        sample_rate_hz: sys.rx.if_sample_rate,
        noise_sigma: 1.0,
    };
    (rx, NoiseSource::new(seed ^ 0x5EED_0F1F_2F3F))
}

/// Stage 2 — dechirp / IF generation: the radar mixes the scene's
/// reflection of every chirp down to IF samples, writing into a reusable
/// sample slab in precision `T` and fanning chirp synthesis across `pool`
/// (each row draws its noise from its own place in the stream, so results
/// are bit-identical to the serial path for any worker count). Chirp
/// geometry runs in f64 either way, and both precisions draw the same noise
/// deviates (rounded once to f32 on that tier); the f32 tones carry single
/// precision rounding, so cross-tier agreement is statistical at operating
/// SNR, not per-sample.
///
/// With [`align_stage_into`] this is the two-stage reference of
/// [`front_end_stage_into`], which [`run_frame`] runs instead.
pub fn dechirp_stage_into<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    train: &ChirpTrain,
    scene: &Scene,
    seed: u64,
    out: &mut SampleSlab<T>,
) {
    let _span = biscatter_obs::span!("isac.dechirp");
    let (rx, mut if_noise) = if_receiver(sys, seed);
    rx.dechirp_train_into(pool, train, scene, 0.0, &mut if_noise, out);
}

/// Stages 2 and 3 fused — the radar front end without a slab of IF
/// samples: each chirp is synthesized, noised and range-transformed in one
/// pass into `out`'s rows ([`receive_frame_into`]), bit for bit what
/// [`dechirp_stage_into`] followed by [`align_stage_into`] leave in the
/// frame.
///
/// The two stages' trace spans, `isac.dechirp` then `isac.align`, split
/// the front end's wall time in the ratio of its rows' synthesis and
/// transform time ([`FrontEndSplit::divide`]); the split is returned for
/// the flight record.
pub fn front_end_stage_into<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    train: &ChirpTrain,
    scene: &Scene,
    seed: u64,
    out: &mut AlignedFrame<T>,
) -> FrontEndSplit {
    let (frame_id, t0) = (trace::current_frame(), trace::now_ns());
    let (rx, mut if_noise) = if_receiver(sys, seed);
    let split = receive_frame_into(pool, &sys.rx, &rx, train, scene, &mut if_noise, out);
    let wall = trace::now_ns().saturating_sub(t0);
    let (dechirp, align) = split.divide(wall);
    trace::record_span("isac.dechirp", frame_id, t0, dechirp);
    trace::record_span("isac.align", frame_id, t0 + dechirp, align);
    split
}

/// Stage 3 — align + IF correction: per-chirp range FFTs resampled onto the
/// common range grid, recycling `out`'s row slab and grid `Arc` and fanning
/// per-chirp FFT + resample across `pool`.
///
/// Both receive paths read one set of rows: the rows are the sensing path,
/// and the comms path reads them with chirp 0's profile subtracted when
/// the system subtracts background ([`AlignedFrame::comms`]).
pub fn align_stage_into<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    train: &ChirpTrain,
    if_data: &SampleSlab<T>,
    out: &mut AlignedFrame<T>,
) {
    let _span = biscatter_obs::span!("isac.align");
    align_frame_into(pool, &sys.rx, train, if_data, out);
}

/// Stage 4 — range–Doppler: slow-time FFT of the comms path, read off the
/// frame's rows, recycling `out`'s power slab and splitting range columns
/// across `pool`.
/// The power lands in an f64 map whatever the frame's precision.
pub fn doppler_stage_into<T: Real>(
    pool: &ComputePool,
    frame: &AlignedFrame<T>,
    out: &mut RangeDopplerMap,
) {
    let _span = biscatter_obs::span!("isac.doppler");
    range_doppler_into(pool, frame.comms(), out);
}

/// Stage 5 — uplink demod + CFAR/localization: localizes the tag on the
/// range–Doppler map, demodulates the uplink at its range bin, and runs
/// CFAR detection on the sensing path. `downlink` is the stage-1 tag-side
/// result, passed through into the assembled outcome. `mean_power` is
/// scratch, so the only allocations left are the outcome's own products
/// (location, bits, detections). The map, the uplink amplitudes, and the
/// mean power are f64 in either precision, so the detection code is shared.
pub fn detect_stage_with<T: Real>(
    scenario: &IsacScenario,
    frame: &AlignedFrame<T>,
    map: &RangeDopplerMap,
    downlink: FrameOutcome,
    mean_power: &mut Vec<f64>,
) -> IsacOutcome {
    let _span = biscatter_obs::span!("isac.detect");
    let location = locate_tag(map, scenario.tag_mod_freq_hz, 10.0);
    let uplink_bits = if scenario.uplink_bits.is_empty() {
        None
    } else {
        location.as_ref().and_then(|loc| {
            demodulate(
                frame.comms(),
                loc.range_bin,
                scenario.uplink_scheme,
                scenario.uplink_bit_duration_s,
            )
            .map(|d| d.bits)
        })
    };

    let detections = sensing_detections(frame, mean_power);

    IsacOutcome {
        downlink,
        location,
        uplink_bits,
        detections,
        tags: Vec::new(),
    }
}

/// CFAR detection on the sensing path: mean power over slow time per range
/// bin (each `|·|²` widened into the f64 accumulator), fed to the detector.
/// Shared by the single- and multi-tag detect stages.
fn sensing_detections<T: Real>(
    frame: &AlignedFrame<T>,
    mean_power: &mut Vec<f64>,
) -> Vec<Detection> {
    let n = frame.n_chirps() as f64;
    // Accumulate profiles-outer so each pass walks one contiguous profile
    // row, instead of striding `p[r]` across every profile per range bin
    // (cache-hostile column-major access for frames with many chirps).
    mean_power.clear();
    mean_power.resize(frame.range_grid.len(), 0.0);
    for p in frame.profiles.iter() {
        simd::norm_sq_accum(mean_power, p);
    }
    for acc in mean_power.iter_mut() {
        *acc /= n;
    }
    CfarDetector::default().detect(mean_power, &frame.range_grid)
}

/// Stage 5, batched: localizes and decodes **every** tag of the scenario
/// (primary + `extra_tags`) in one pass through the multi-tag engine on
/// `pool`, then runs the same sensing CFAR as [`detect_stage_with`].
///
/// The scenario's tag profiles are re-asserted on `bank` each call — a
/// no-op when unchanged, so a bank reused across frames keeps its cached
/// templates warm. The primary fields of the
/// outcome (`location`, `uplink_bits`) mirror `tags[0]`, with the same
/// bits-requested policy as the single-tag stage.
#[allow(clippy::too_many_arguments)]
pub fn detect_stage_multi<T: Real>(
    pool: &ComputePool,
    scenario: &IsacScenario,
    frame: &AlignedFrame<T>,
    map: &RangeDopplerMap,
    downlink: FrameOutcome,
    bank: &mut TagBank,
    scratch: &mut MultiTagScratch,
    mean_power: &mut Vec<f64>,
) -> IsacOutcome {
    let _span = biscatter_obs::span!("isac.detect");
    let mut profiles = Vec::with_capacity(1 + scenario.extra_tags.len());
    scenario.tag_profiles_into(&mut profiles);
    bank.set_tags(&profiles);
    let mut tags = Vec::new();
    detect_all(pool, bank, map, frame.comms(), scratch, &mut tags);

    let location = tags[0].location;
    let uplink_bits = if scenario.uplink_bits.is_empty() {
        None
    } else {
        tags[0].uplink.as_ref().map(|d| d.bits.clone())
    };
    let detections = sensing_detections(frame, mean_power);

    IsacOutcome {
        downlink,
        location,
        uplink_bits,
        detections,
        tags,
    }
}

/// Runs one integrated frame: the allocating composition of the five stages
/// on the global pool, with fresh buffers and the two-stage front end
/// ([`dechirp_stage_into`], then [`align_stage_into`]) — the f64 reference
/// that [`run_frame`] is tested against.
pub fn run_isac_frame(
    sys: &BiScatterSystem,
    scenario: &IsacScenario,
    payload: &[u8],
    seed: u64,
) -> IsacOutcome {
    let pool = ComputePool::global();
    let synth = synthesize_frame(sys, scenario, payload, seed);
    let mut if_data = SampleSlab::<f64>::new();
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, &mut if_data);
    let mut frame = AlignedFrame::default();
    align_stage_into(pool, sys, &synth.train, &if_data, &mut frame);
    let mut map = RangeDopplerMap::default();
    doppler_stage_into(pool, &frame, &mut map);
    let mut mean_power = Vec::new();
    if scenario.extra_tags.is_empty() {
        detect_stage_with(scenario, &frame, &map, synth.downlink, &mut mean_power)
    } else {
        detect_stage_multi(
            pool,
            scenario,
            &frame,
            &map,
            synth.downlink,
            &mut TagBank::default(),
            &mut MultiTagScratch::default(),
            &mut mean_power,
        )
    }
}

/// What every frame of one cell shares: the compute pool its stages fan
/// out on, the system it simulates, and the numeric tier of the hot stages.
#[derive(Clone, Copy)]
pub struct FrameCtx<'a> {
    /// Intra-frame compute pool.
    pub pool: &'a ComputePool,
    /// The radar/tag system.
    pub sys: &'a BiScatterSystem,
    /// Numeric tier of stages 2–5.
    pub tier: PrecisionTier,
}

/// Stage timing: each call returns the nanoseconds since the previous call
/// (or since the watch started) and restarts the watch.
fn stopwatch() -> impl FnMut() -> u64 {
    let mut t = Instant::now();
    move || {
        let now = Instant::now();
        let ns = (now - t).as_nanos() as u64;
        t = now;
        ns
    }
}

/// Runs one integrated frame through `ctx`: the five stages of
/// [`run_isac_frame`] on `ctx.pool`, on this thread's frame buffers, with
/// each stage's wall time written into `times` (the flight recorder's
/// [`StageNanos`]; timing is `Instant` reads only).
///
/// The tier picks the sample precision of stages 2–5: `F32` runs them in
/// single precision ([`precision`]), except for scenarios with extra tags,
/// which stay on f64 — warehouse-density frames are dominated by per-tag
/// scoring, not by the stages the f32 tier accelerates. On f64 the outcome
/// is bit-identical to [`run_isac_frame`] for any pool size. The buffers
/// are the calling thread's, one set per thread: once a frame has sized
/// them, stages 2–4 allocate nothing on either precision.
pub fn run_frame(
    ctx: &FrameCtx,
    scenario: &IsacScenario,
    payload: &[u8],
    seed: u64,
    times: &mut StageNanos,
) -> IsacOutcome {
    with_buffers(|bufs| bufs.run(ctx, scenario, payload, seed, times))
}

impl FrameBuffers {
    /// [`run_frame`] on this set, on the aligned frame of the tier's
    /// precision.
    fn run(
        &mut self,
        ctx: &FrameCtx,
        scenario: &IsacScenario,
        payload: &[u8],
        seed: u64,
        times: &mut StageNanos,
    ) -> IsacOutcome {
        let detect = &mut self.detect;
        if ctx.tier == PrecisionTier::F32 && scenario.extra_tags.is_empty() {
            detect.run_stages(ctx, &mut self.aligned32, scenario, payload, seed, times)
        } else {
            detect.run_stages(ctx, &mut self.aligned, scenario, payload, seed, times)
        }
    }
}

impl DetectBuffers {
    /// The stage sequence of [`run_frame`] in precision `T`, aligning into
    /// `frame`. The fused front end's wall time is split into the record's
    /// `dechirp` and `align` in the ratio its rows spent synthesizing and
    /// transforming ([`FrontEndSplit::divide`]).
    fn run_stages<T: Real>(
        &mut self,
        ctx: &FrameCtx,
        frame: &mut AlignedFrame<T>,
        scenario: &IsacScenario,
        payload: &[u8],
        seed: u64,
        times: &mut StageNanos,
    ) -> IsacOutcome {
        let (pool, sys) = (ctx.pool, ctx.sys);
        let mut lap = stopwatch();
        let synth = synthesize_frame(sys, scenario, payload, seed);
        times.synthesize = lap();

        let split = front_end_stage_into(pool, sys, &synth.train, &synth.scene, seed, frame);
        (times.dechirp, times.align) = split.divide(lap());
        doppler_stage_into(pool, frame, &mut self.map);
        times.doppler = lap();
        let (map, mean_power) = (&self.map, &mut self.mean_power);
        let out = if scenario.extra_tags.is_empty() {
            detect_stage_with(scenario, frame, map, synth.downlink, mean_power)
        } else {
            detect_stage_multi(
                pool,
                scenario,
                frame,
                map,
                synth.downlink,
                &mut self.bank,
                &mut self.multitag,
                mean_power,
            )
        };
        times.detect = lap();
        out
    }
}

// ---------------------------------------------------------------------------
// Cold-start acquisition stage (stage 0).
//
// Before the five aligned stages can run, an unsynchronized tag must be
// acquired from raw baseband: the correlator bank in
// `radar::receiver::acquire` recovers its timing offset and chirp slope.
// The acquisition sub-band model: the radar taps an anti-aliased slice of
// bandwidth `B_acq = fs/4` out of each sweep, so a chirp of duration `d`
// appears at baseband as a `B_acq/d` Hz/s chirp repeating every slot
// period — one slope hypothesis per alphabet duration.
// ---------------------------------------------------------------------------

/// The slope-hypothesis bank for `sys`: one hypothesis per alphabet chirp
/// duration (up to 8, spread evenly across the alphabet including both
/// endpoints), each sweeping the `fs/4` acquisition sub-band.
pub fn acquire_hypotheses(sys: &BiScatterSystem) -> Vec<SlopeHypothesis> {
    let durations = sys.alphabet.durations();
    let b_acq = sys.radar.if_sample_rate / 4.0;
    let n = durations.len().min(8);
    (0..n)
        .map(|i| {
            let idx = i * (durations.len() - 1) / (n - 1).max(1);
            let d = durations[idx];
            SlopeHypothesis {
                slope_hz_per_s: b_acq / d,
                duration_s: d,
            }
        })
        .collect()
}

/// The acquisition geometry for `sys`: dwells at the IF sample rate, lags
/// folding modulo the chirp slot period.
pub fn acquire_config(sys: &BiScatterSystem) -> AcquireConfig {
    let fs = sys.radar.if_sample_rate;
    AcquireConfig {
        sample_rate_hz: fs,
        window: (sys.radar.t_period * fs).round() as usize,
        ..AcquireConfig::default()
    }
}

/// Pre-builds this thread's FFT plan for the one block length
/// ([`block_fft_len`]) `sys`'s hypothesis bank correlates at — the
/// acquisition-stage counterpart of [`warm_dsp_plans`], same idempotency.
pub fn warm_acquire_plans(sys: &BiScatterSystem) {
    let fs = sys.radar.if_sample_rate;
    let longest = acquire_hypotheses(sys)
        .iter()
        .map(|h| h.template_len(fs))
        .max()
        .unwrap_or(1);
    with_planner(|p: &mut FftPlanner| {
        let _ = p.rfft_plan(block_fft_len(longest));
    });
}

/// Synthesizes the raw acquisition dwell a cold-start scenario's radar
/// captures: Gaussian noise at the tag's uplink SNR budget, plus (when the
/// tag is present) its sub-band chirp repeating every slot period at the
/// true timing offset. Deterministic in `seed`; `out` is cleared and
/// resized to [`AcquireConfig::dwell_len`].
///
/// # Panics
/// Panics if the scenario has no [`ColdStartSpec`].
pub fn synthesize_cold_start_capture(
    sys: &BiScatterSystem,
    scenario: &IsacScenario,
    seed: u64,
    out: &mut Vec<f64>,
) {
    let spec = scenario
        .cold_start
        .expect("synthesize_cold_start_capture needs a cold-start scenario");
    let cfg = acquire_config(sys);
    let hyps = acquire_hypotheses(sys);
    let fs = cfg.sample_rate_hz;
    let max_m = hyps.iter().map(|h| h.template_len(fs)).max().unwrap_or(1);
    let len = cfg.dwell_len(max_m);
    out.clear();
    out.resize(len, 0.0);

    // Noise floor from the two-way uplink budget: the per-chirp SNR spread
    // over the chirp's samples gives the per-sample SNR of the dwell.
    let amp = sys.tag_if_amplitude(scenario.tag_range_m);
    let hyp = hyps[spec.slope_idx.min(hyps.len().saturating_sub(1))];
    let m = hyp.template_len(fs);
    let snr_chirp = 10f64.powf(sys.uplink_snr_per_chirp(scenario.tag_range_m) / 10.0);
    let sigma = (amp * amp * m as f64 / (2.0 * snr_chirp)).sqrt();
    NoiseSource::new(seed ^ 0xC01D_57A7).add_awgn(out, sigma);

    if spec.tag_present {
        let chirp = biscatter_dsp::signal::chirp(m, 0.0, hyp.slope_hz_per_s, fs, amp, 0.0);
        let offset = ((spec.timing_offset_s * fs).round() as usize) % cfg.window;
        let mut start = offset;
        while start + m <= len {
            for (i, &c) in chirp.iter().enumerate() {
                out[start + i] += c;
            }
            start += cfg.window;
        }
    }
}

/// What one cold-start frame produced: the acquisition verdict, the full
/// per-hypothesis scoreboard, and — only if the tag was acquired — the
/// aligned frame's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartOutcome {
    /// The PSLR-gated acquisition (None = rejected: no aligned frame ran).
    pub acquisition: Option<Acquisition>,
    /// Every hypothesis's score, bank order.
    pub scores: Vec<HypothesisScore>,
    /// The integrated frame, present only after successful acquisition.
    pub frame: Option<IsacOutcome>,
}

/// Runs one cold-start frame: acquisition stage 0 (correlator bank over the
/// raw dwell, hypotheses fanned out over `ctx.pool`, its time written into
/// `times.acquire`), then — only on a PSLR pass — [`run_frame`] on the
/// aligned frame. Scenarios without a [`ColdStartSpec`] skip straight to
/// [`run_frame`].
///
/// The dwell capture, the correlator bank (with its cached template
/// spectra) and the block slabs are this thread's set, taken once for the
/// whole frame, so warm acquisition allocates only the scoreboard.
pub fn run_cold_start_frame(
    ctx: &FrameCtx,
    scenario: &IsacScenario,
    payload: &[u8],
    seed: u64,
    times: &mut StageNanos,
) -> ColdStartOutcome {
    if scenario.cold_start.is_none() {
        return ColdStartOutcome {
            acquisition: None,
            scores: Vec::new(),
            frame: Some(run_frame(ctx, scenario, payload, seed, times)),
        };
    }

    with_buffers(|bufs| {
        let (pool, sys) = (ctx.pool, ctx.sys);
        let mut lap = stopwatch();
        let mut scores = Vec::new();
        let acquisition = {
            let _span = biscatter_obs::span!("isac.acquire");
            let cfg = acquire_config(sys);
            synthesize_cold_start_capture(sys, scenario, seed, &mut bufs.capture);
            bufs.acq_bank.set_hypotheses(&acquire_hypotheses(sys));
            let (bank, capture) = (&mut bufs.acq_bank, &bufs.capture);
            acquire_all(pool, bank, &cfg, capture, &mut bufs.acquire, &mut scores)
        };
        times.acquire = lap();

        let frame = acquisition.map(|_| bufs.run(ctx, scenario, payload, seed, times));
        ColdStartOutcome {
            acquisition,
            scores,
            frame,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mod_freq(bin: usize) -> f64 {
        bin as f64 / (128.0 * 120e-6)
    }

    #[test]
    fn integrated_frame_close_range() {
        let sys = BiScatterSystem::paper_9ghz();
        let scenario = IsacScenario::single_tag(3.0, mod_freq(16)).with_office_clutter();
        let out = run_isac_frame(&sys, &scenario, b"CMD1", 1);
        // Downlink decoded.
        assert!(out.downlink.parsed);
        assert_eq!(out.downlink.received, b"CMD1");
        // Tag localized to cm level.
        let loc = out.location.expect("tag located");
        assert!((loc.range_m - 3.0).abs() < 0.10, "range {}", loc.range_m);
        // Sensing sees the strong clutter.
        assert!(!out.detections.is_empty());
    }

    #[test]
    fn uplink_bits_roundtrip() {
        let sys = BiScatterSystem::paper_9ghz();
        let bits = vec![true, false, true, true];
        let mut scenario = IsacScenario::single_tag(2.0, 1302.0);
        scenario.uplink_bits = bits.clone();
        scenario.uplink_scheme = UplinkScheme::Ook { freq_hz: 1302.0 };
        let out = run_isac_frame(&sys, &scenario, b"GO", 2);
        assert_eq!(out.uplink_bits.as_deref(), Some(&bits[..]));
    }

    #[test]
    fn localization_works_during_communication() {
        // The core ISAC claim (Fig. 16): varying slopes don't break
        // localization.
        let sys = BiScatterSystem::paper_9ghz();
        let scenario = IsacScenario::single_tag(5.5, mod_freq(20));
        // Long payload = most of the frame carries varying slopes.
        let payload = vec![0xA5u8; 16];
        let out = run_isac_frame(&sys, &scenario, &payload, 3);
        let loc = out.location.expect("tag located during comms");
        assert!((loc.range_m - 5.5).abs() < 0.10, "range {}", loc.range_m);
    }

    #[test]
    fn far_tag_still_works_at_7m() {
        let sys = BiScatterSystem::paper_9ghz();
        let scenario = IsacScenario::single_tag(7.0, mod_freq(16));
        let out = run_isac_frame(&sys, &scenario, b"FAR", 4);
        assert!(out.downlink.parsed, "downlink at 7 m");
        let loc = out.location.expect("tag located at 7 m");
        assert!((loc.range_m - 7.0).abs() < 0.15, "range {}", loc.range_m);
    }

    #[test]
    fn mover_detected_in_sensing_path() {
        let sys = BiScatterSystem::paper_9ghz();
        let mut scenario = IsacScenario::single_tag(4.0, mod_freq(16));
        scenario.movers = vec![MoverSpec {
            range_m: 6.0,
            velocity_mps: -2.0,
            relative_amp: 10.0,
        }];
        let out = run_isac_frame(&sys, &scenario, b"", 5);
        let near_mover = out.detections.iter().any(|d| (d.range_m - 6.0).abs() < 0.3);
        assert!(near_mover, "mover not detected: {:?}", out.detections);
    }
}
