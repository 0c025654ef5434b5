//! Batched multi-tag detection: one-pass localization + uplink decode for
//! every registered tag of a frame (paper §5's warehouse deployment, where
//! many tags share one radar frame separated by modulation frequency).
//!
//! The sequential back half ([`locate_tag`](super::localize::locate_tag) →
//! [`demodulate`](super::uplink::demodulate)) re-reads the range–Doppler map
//! and re-derives every constant per tag, so per-frame cost grows as
//! O(tags × map). The batch engine restructures the work around what K tags
//! share:
//!
//! * **Shared harmonic bands** — each tag's matched filter sums the same
//!   ±1-bin Doppler bands around its harmonics. The engine dedups identical
//!   `(lo, hi)` bands across all tags and harmonics and accumulates each
//!   unique band once, straight off the map's row-major slab into one band
//!   slab (no per-harmonic `Vec`s). Tags whose harmonics coincide — common
//!   when modulation frequencies are harmonically related — share the rows.
//! * **Cached per-tag templates** — a [`TagBank`] caches harmonic band
//!   indices/weights, Goertzel coefficients, and chirps-per-bit per tag,
//!   keyed by the map/frame geometry, so repeated frames pay zero setup.
//! * **Selection, not sorting** — the per-tag noise floor uses O(n)
//!   [`noise_floor_inplace`] on the score row (same value as the sort-based
//!   [`noise_floor`](biscatter_dsp::spectrum::noise_floor), destructive on
//!   scratch the engine owns), and the peak scan is fused into the final
//!   harmonic accumulation pass.
//! * **Chirp-major amplitude gather** — all located tags' slow-time
//!   amplitude rows are filled in one sweep over the comms path
//!   ([`CommsView`]), reading each chirp's profile once for every tag (rows
//!   sorted by range bin so the per-chirp gather walks monotonically),
//!   instead of K strided passes.
//! * **Deterministic fan-out** — every parallel stage partitions disjoint
//!   output regions (one band, one tag, or one column block per task) with
//!   a fixed per-element operation order, so results are bit-identical to
//!   the sequential per-tag loop at any pool size.
//!
//! Steady state allocates nothing: the band/score/amplitude slabs live in a
//! caller-owned [`MultiTagScratch`], decode output reuses the capacity of
//! the caller's [`TagDetection`] vector, and the remaining temporaries are
//! per-thread scratch.

use super::doppler::RangeDopplerMap;
use super::localize::{location_from, TagLocation, SQUARE_WAVE_HARMONICS};
use super::uplink::{decode_fsk_windows, decode_ook_windows, UplinkDecode, UplinkScheme};
use super::CommsView;
use biscatter_compute::ComputePool;
use biscatter_dsp::goertzel::GoertzelCoeffs;
use biscatter_dsp::simd::{self, TONES_PER_PASS};
use biscatter_dsp::spectrum::{noise_floor_inplace, parabolic_peak, Peak};
use biscatter_dsp::Real;
use biscatter_obs::metrics::Counter;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Registry handles for batched-detection telemetry: how much work the
/// band dedup avoids, and how many registered tags survive the SNR gate.
struct MultitagMetrics {
    /// Unique `(lo, hi)` bands actually accumulated (stage-1 tasks).
    bands_accumulated: Counter,
    /// Harmonic references that reused an already-accumulated band.
    bands_deduped: Counter,
    /// Tags whose peak passed the SNR gate (location produced).
    tags_located: Counter,
    /// Tags suppressed by the SNR gate.
    tags_gated: Counter,
}

fn metrics() -> &'static MultitagMetrics {
    static METRICS: OnceLock<MultitagMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = biscatter_obs::registry();
        MultitagMetrics {
            bands_accumulated: r.counter("multitag.bands.accumulated"),
            bands_deduped: r.counter("multitag.bands.deduped"),
            tags_located: r.counter("multitag.tags.located"),
            tags_gated: r.counter("multitag.tags.gated"),
        }
    })
}

/// Everything the radar knows about one registered tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagProfile {
    /// The tag's switch modulation frequency, Hz (its localization
    /// signature).
    pub f_mod_hz: f64,
    /// Uplink modulation the tag was assigned.
    pub scheme: UplinkScheme,
    /// Uplink bit period, s.
    pub bit_duration_s: f64,
}

/// Per-tag result of a batched detection pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagDetection {
    /// Localization, `None` when the tag's signature did not clear the SNR
    /// gate (identical to `locate_tag`).
    pub location: Option<TagLocation>,
    /// Uplink decode, `None` when the tag was not located or the frame is
    /// shorter than one bit window (identical to `demodulate`).
    pub uplink: Option<UplinkDecode>,
}

/// Cached per-tag detection template: which band-slab rows feed the matched
/// filter at which weights, plus the decode constants.
#[derive(Debug, Clone, Copy)]
struct TagPlan {
    band_idx: [usize; 3],
    weight: [f64; 3],
    n_harm: u8,
    chirps_per_bit: usize,
    g0: GoertzelCoeffs,
    g1: GoertzelCoeffs,
    fsk: bool,
}

/// Geometry-keyed cache shared by every frame with the same map/frame shape.
#[derive(Debug, Clone)]
struct BankCache {
    n_doppler: usize,
    map_t_period: f64,
    frame_t_period: f64,
    /// Unique clamped Doppler-bin windows `(lo, hi)`, accumulated once each.
    bands: Vec<(usize, usize)>,
    plans: Vec<TagPlan>,
}

/// The set of tags a radar watches for, plus the cached detection templates.
///
/// Rebuilding the cache happens lazily on the first frame after the tag set
/// or the map/frame geometry changes; repeated frames with the same shape
/// pay zero setup (and zero allocation).
#[derive(Debug, Clone)]
pub struct TagBank {
    profiles: Vec<TagProfile>,
    /// SNR gate passed to the localization step (dB), the `min_snr_db` of
    /// [`locate_tag`](super::localize::locate_tag).
    pub min_snr_db: f64,
    cache: Option<BankCache>,
}

impl Default for TagBank {
    fn default() -> Self {
        TagBank {
            profiles: Vec::new(),
            min_snr_db: 10.0,
            cache: None,
        }
    }
}

impl TagBank {
    /// A bank watching `profiles`, with the default 10 dB SNR gate.
    pub fn new(profiles: Vec<TagProfile>) -> Self {
        TagBank {
            profiles,
            ..TagBank::default()
        }
    }

    /// Replaces the registered tag set. A no-op (keeping the cache warm)
    /// when `profiles` equals the current set, so callers can re-assert the
    /// tag list every frame for free.
    pub fn set_tags(&mut self, profiles: &[TagProfile]) {
        if self.profiles != profiles {
            self.profiles.clear();
            self.profiles.extend_from_slice(profiles);
            self.cache = None;
        }
    }

    /// Builds (or keeps) the template cache for this map/frame geometry.
    fn ensure_cache(&mut self, map: &RangeDopplerMap, t_period: f64) {
        let matches = self.cache.as_ref().is_some_and(|c| {
            c.n_doppler == map.n_doppler
                && c.map_t_period == map.t_period
                && c.frame_t_period == t_period
        });
        if matches {
            return;
        }
        let nyquist = 0.5 / map.t_period;
        let fs_slow = 1.0 / t_period;
        let mut bands: Vec<(usize, usize)> = Vec::new();
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut plans = Vec::with_capacity(self.profiles.len());
        for p in &self.profiles {
            let (g0, g1, fsk) = match p.scheme {
                UplinkScheme::Ook { freq_hz } => {
                    let g = GoertzelCoeffs::new(freq_hz / fs_slow);
                    (g, g, false)
                }
                UplinkScheme::Fsk { freq0_hz, freq1_hz } => (
                    GoertzelCoeffs::new(freq0_hz / fs_slow),
                    GoertzelCoeffs::new(freq1_hz / fs_slow),
                    true,
                ),
            };
            let mut plan = TagPlan {
                band_idx: [0; 3],
                weight: [0.0; 3],
                n_harm: 0,
                chirps_per_bit: (p.bit_duration_s / t_period).round() as usize,
                g0,
                g1,
                fsk,
            };
            // Same harmonic walk as `signature_score`, including the stop at
            // the first harmonic beyond Nyquist.
            for (h, w) in SQUARE_WAVE_HARMONICS {
                let f = p.f_mod_hz * h;
                if f >= nyquist {
                    break;
                }
                let band = map.band_bins(map.bin_for_freq(f), 1);
                let idx = *index.entry(band).or_insert_with(|| {
                    bands.push(band);
                    bands.len() - 1
                });
                plan.band_idx[plan.n_harm as usize] = idx;
                plan.weight[plan.n_harm as usize] = w;
                plan.n_harm += 1;
            }
            plans.push(plan);
        }
        self.cache = Some(BankCache {
            n_doppler: map.n_doppler,
            map_t_period: map.t_period,
            frame_t_period: t_period,
            bands,
            plans,
        });
    }
}

/// Per-tag working state: the matched-filter score row plus the fused peak
/// and noise-floor results extracted from it.
#[derive(Debug, Clone, Default)]
struct TagSlot {
    score: Vec<f64>,
    peak_bin: usize,
    refined_bin: f64,
    peak_power: f64,
    floor: f64,
}

/// One decodable amplitude row: which tag, at which range bin.
#[derive(Debug, Clone, Copy, Default)]
struct AmpRow {
    tag: usize,
    bin: usize,
}

/// Caller-owned scratch for [`detect_all`]; reuse across frames for an
/// allocation-free steady state.
#[derive(Debug, Default)]
pub struct MultiTagScratch {
    /// `bands × n_range` accumulated unique harmonic bands.
    band_slab: Vec<f64>,
    slots: Vec<TagSlot>,
    /// `located rows × n_chirps` slow-time amplitudes, chirp-major filled.
    amp: Vec<f64>,
    rows: Vec<AmpRow>,
    /// Tag index → amplitude row index (`usize::MAX` = not decodable).
    row_of: Vec<usize>,
}

/// Localizes and decodes every tag in `bank` against one frame's
/// range–Doppler map and the comms path it was formed from, writing one
/// [`TagDetection`] per registered tag into `out` (resized to the bank's
/// length, buffers reused).
///
/// Results are bit-identical to running
/// [`locate_tag`](super::localize::locate_tag) followed by
/// [`demodulate`](super::uplink::demodulate) independently per tag, at any
/// `pool` size.
pub fn detect_all<T: Real>(
    pool: &ComputePool,
    bank: &mut TagBank,
    map: &RangeDopplerMap,
    comms: CommsView<'_, T>,
    scratch: &mut MultiTagScratch,
    out: &mut Vec<TagDetection>,
) {
    let _span = biscatter_obs::span!("multitag.detect_all");
    let k = bank.profiles.len();
    out.resize_with(k, TagDetection::default);
    if k == 0 {
        return;
    }
    let n_range = map.n_range();
    if n_range == 0 {
        for d in out.iter_mut() {
            d.location = None;
            d.uplink = None;
        }
        return;
    }
    bank.ensure_cache(map, comms.t_period());
    let cache = bank.cache.as_ref().expect("cache built above");
    let plans = &cache.plans;
    let bands = &cache.bands;
    let m = metrics();
    let harmonic_refs: u64 = plans.iter().map(|p| u64::from(p.n_harm)).sum();
    m.bands_accumulated.add(bands.len() as u64);
    m.bands_deduped.add(harmonic_refs - bands.len() as u64);
    let MultiTagScratch {
        band_slab,
        slots,
        amp,
        rows,
        row_of,
    } = scratch;

    // Stage 1: accumulate each unique harmonic band once, one band per
    // task. Each element is computed as the zero-then-ascending-row sum of
    // `range_slice_banded_into`, up to four rows per pass.
    band_slab.resize(bands.len() * n_range, 0.0);
    pool.par_chunks(&mut band_slab[..], n_range, |b, acc| {
        let (lo, hi) = bands[b];
        accumulate_band(map, lo, hi, acc);
    });

    // Stage 2: per-tag matched-filter score = weighted sum of its bands in
    // harmonic order, computed in one fused pass per element (same
    // zero-then-`+= w·band` value sequence as `signature_score`, one write instead
    // of a zero-fill plus a read-modify-write per harmonic) with the peak
    // argmax folded in (`>=` keeps the last maximal element, matching
    // `find_peak`'s `max_by`). The noise floor then reuses the score row
    // destructively — selection instead of the sequential path's
    // clone-and-sort, same value.
    slots.resize_with(k, TagSlot::default);
    {
        let band_slab = &band_slab[..];
        pool.par_chunks(&mut slots[..], 1, |t, slot| {
            let slot = &mut slot[0];
            let plan = &plans[t];
            slot.score.resize(n_range, 0.0);
            // All-zero score (every harmonic past Nyquist): max_by picks the
            // last of the equal maxima.
            let best_bin = score_into(plan, band_slab, n_range, &mut slot.score);
            let (refined, power) = parabolic_peak(&slot.score, best_bin);
            slot.peak_bin = best_bin;
            slot.refined_bin = refined;
            slot.peak_power = power;
            slot.floor = noise_floor_inplace(&mut slot.score);
        });
    }

    // Stage 3 (serial, cheap): SNR gate + location assembly per tag.
    for (t, slot) in slots.iter().enumerate() {
        let peak = Peak {
            bin: slot.peak_bin,
            refined_bin: slot.refined_bin,
            power: slot.peak_power,
        };
        out[t].location = location_from(map, peak, slot.floor, bank.min_snr_db);
        if out[t].location.is_some() {
            m.tags_located.inc();
        } else {
            m.tags_gated.inc();
        }
    }

    // Stage 4 (serial, cheap): collect decodable tags. Rows are sorted by
    // range bin (tag index tiebreak keeps the order canonical) so the
    // chirp-major gather below walks each profile monotonically.
    let n_chirps = comms.n_chirps();
    rows.clear();
    row_of.clear();
    row_of.resize(k, usize::MAX);
    for (t, d) in out.iter().enumerate() {
        if let Some(loc) = d.location {
            let cpb = plans[t].chirps_per_bit;
            if cpb >= 2 && n_chirps >= cpb {
                rows.push(AmpRow {
                    tag: t,
                    bin: loc.range_bin,
                });
            }
        }
    }
    rows.sort_unstable_by_key(|r| (r.bin, r.tag));
    for (i, r) in rows.iter().enumerate() {
        row_of[r.tag] = i;
    }

    // Stage 5: chirp-major amplitude gather — every chirp's profile row is
    // read once for all decodable tags, writing `[row][chirp]` so each
    // decode reads a contiguous slice. Column blocks of chirps fan out.
    let n_rows = rows.len();
    amp.clear();
    amp.resize(n_rows * n_chirps, 0.0);
    if n_rows > 0 {
        let col_chunk = n_chirps
            .div_ceil(4 * pool.threads())
            .clamp(8, n_chirps.max(8));
        let rows = &rows[..];
        pool.par_columns(&mut amp[..], n_rows, n_chirps, col_chunk, |band| {
            for c in band.cols() {
                for (r, row) in rows.iter().enumerate() {
                    band.set(r, c, comms.at(c, row.bin).to_f64().abs());
                }
            }
        });
    }

    // Stage 6: per-tag uplink decisions, one tag per task, reusing each
    // detection's decode buffers.
    let amp = &amp[..];
    let row_of = &row_of[..];
    pool.par_chunks(&mut out[..], 1, |t, det| {
        let det = &mut det[0];
        let row = row_of[t];
        if row == usize::MAX {
            det.uplink = None;
            return;
        }
        let plan = &plans[t];
        let cpb = plan.chirps_per_bit;
        let n_bits = n_chirps / cpb;
        let amp_row = &amp[row * n_chirps..][..n_chirps];
        let dec = det.uplink.get_or_insert_with(UplinkDecode::default);
        if plan.fsk {
            decode_fsk_windows(amp_row, cpb, n_bits, &plan.g0, &plan.g1, dec);
        } else {
            decode_ook_windows(amp_row, cpb, n_bits, &plan.g0, dec);
        }
    });
}

/// Fills `acc` with the Doppler band `lo..=hi` summed off the map, bit for
/// bit the zero-fill-then-ascending-row-add sequence
/// `((0.0 + row_lo[j]) + ...) + row_hi[j]` of `range_slice_banded_into`:
/// the first row is written, not added to zeros (`0.0 + x` is `x` for
/// every power, which is never −0), and the rest go through the weighted
/// sum [`simd::tones_accum`] at level 1.0 (`1.0·x` is exact), up to four
/// per pass, in ascending order.
fn accumulate_band(map: &RangeDopplerMap, lo: usize, hi: usize, acc: &mut [f64]) {
    const ONES: [f64; TONES_PER_PASS] = [1.0; TONES_PER_PASS];
    acc.copy_from_slice(map.range_slice(lo));
    let mut rows: [&[f64]; TONES_PER_PASS] = [&[]; TONES_PER_PASS];
    for first in (lo + 1..=hi).step_by(TONES_PER_PASS) {
        let g = (hi + 1 - first).min(TONES_PER_PASS);
        for (j, row) in rows[..g].iter_mut().enumerate() {
            *row = map.range_slice(first + j);
        }
        simd::tones_accum(acc, &rows[..g], &ONES[..g]);
    }
}

/// Fills `score` with the tag's weighted harmonic sum in one fused pass and
/// returns the peak bin. Each element is evaluated as
/// `((0.0 + w1*b1[r]) + w2*b2[r]) + w3*b3[r]` — the exact zero-fill-then-
/// weighted-add-per-harmonic sequence of `signature_score` — and the running `>=`
/// argmax keeps the last maximal element, matching `find_peak`'s `max_by`
/// (all-zero score: last bin).
fn score_into(plan: &TagPlan, band_slab: &[f64], n_range: usize, score: &mut [f64]) -> usize {
    let mut best_bin = n_range - 1;
    let mut best_val = f64::NEG_INFINITY;
    let band = |h: usize| &band_slab[plan.band_idx[h] * n_range..][..n_range];
    let w = &plan.weight;
    match plan.n_harm {
        0 => score.fill(0.0),
        1 => {
            for (r, (s, &p0)) in score.iter_mut().zip(band(0)).enumerate() {
                let v = 0.0 + w[0] * p0;
                *s = v;
                if v >= best_val {
                    best_val = v;
                    best_bin = r;
                }
            }
        }
        2 => {
            for (r, ((s, &p0), &p1)) in score.iter_mut().zip(band(0)).zip(band(1)).enumerate() {
                let v = (0.0 + w[0] * p0) + w[1] * p1;
                *s = v;
                if v >= best_val {
                    best_val = v;
                    best_bin = r;
                }
            }
        }
        _ => {
            let (b0, b1, b2) = (band(0), band(1), band(2));
            for (r, (((s, &p0), &p1), &p2)) in score.iter_mut().zip(b0).zip(b1).zip(b2).enumerate()
            {
                let v = ((0.0 + w[0] * p0) + w[1] * p1) + w[2] * p2;
                *s = v;
                if v >= best_val {
                    best_val = v;
                    best_bin = r;
                }
            }
        }
    }
    best_bin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::doppler::range_doppler;
    use crate::receiver::{align_frame, RxConfig};
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene};

    #[test]
    fn accumulate_band_matches_banded_slice() {
        // A noisy 32-chirp map with clutter and a tag. Every band of the
        // half-width the engine asks for, and wider ones up to seven rows
        // (two passes of the weighted sum), against the sequential
        // zero-then-add loop, bit for bit.
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); 32];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.05,
        };
        let scene = Scene::new()
            .with(Scatterer::clutter(2.0, 5.0))
            .with(Scatterer::tag(4.0, 1.0, 2083.3));
        let if_data = rx.dechirp_train(&train, &scene, 0.0, &mut NoiseSource::new(7));
        let frame = align_frame(&RxConfig::default(), &train, &if_data);
        let map = range_doppler(frame.comms());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut want = Vec::new();
        let mut got = vec![f64::NAN; map.n_range()];
        for half_width in 0..=3 {
            for center in 0..=map.n_doppler / 2 {
                let (lo, hi) = map.band_bins(center, half_width);
                map.range_slice_banded_into(center, half_width, &mut want);
                accumulate_band(&map, lo, hi, &mut got);
                assert_eq!(bits(&got), bits(&want), "rows {lo}..={hi}");
            }
        }
    }
}
