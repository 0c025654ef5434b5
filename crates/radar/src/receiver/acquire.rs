//! Correlator-bank acquisition: finding unsynchronized tags in raw baseband.
//!
//! Every other receiver path assumes frame-aligned chirps — `locate_tag` and
//! `detect_all` start from a perfectly synchronized range–Doppler map. A
//! cold-start tag has an unknown timing offset and (until its first downlink
//! symbol is classified) an unknown chirp slope, so before any of that
//! machinery can run, the radar must *acquire* it: decide whether a tag is
//! present, which slope it is sweeping, and where its chirps start.
//!
//! The engine is a classic matched-filter correlator bank made fast:
//!
//! * **Overlap-add FFT correlation** — the raw dwell is cross-correlated
//!   against each slope hypothesis's chirp template. Direct time-domain
//!   correlation is O(N·M) per hypothesis; here the dwell is cut into
//!   blocks of `L = n_fft − M + 1` samples, each zero-padded block goes
//!   through a cached [`RfftPlan`](biscatter_dsp::planner::RfftPlan), is
//!   multiplied by the **conjugate template spectrum**, returns through the
//!   packed inverse real FFT
//!   ([`RfftPlan::inverse`](biscatter_dsp::planner::RfftPlan::inverse)),
//!   and the block's linear correlation piece — positive lags up front,
//!   negative lags wrapped at the tail — is overlap-added into the output.
//!   O(N log M) per hypothesis, exact to rounding (the oracle property test
//!   pins ≤ 1e-9).
//! * **Geometry-keyed template cache** — a [`CorrelatorBank`] caches each
//!   hypothesis's conjugated spectrum (and its time-domain samples for the
//!   naive baseline), keyed on the sample rate and hypothesis set, exactly
//!   like the multi-tag `TagBank`: repeated frames pay zero setup.
//! * **Window energy accumulation** — the tag repeats its chirp every slot
//!   period, so correlation energy is folded modulo the window across
//!   `n_windows` repetitions (non-coherent integration): a tag far below
//!   the per-sample noise floor accumulates into a clean peak whose bin
//!   *is* the timing offset.
//! * **SIMD scans** — the spectral multiply, the energy fold, and the
//!   peak/PSLR scans all route through `dsp::dispatch` kernels with AVX2
//!   bodies ([`cmul_assign`](biscatter_dsp::simd::cmul_assign),
//!   [`sq_accum`](biscatter_dsp::simd::sq_accum),
//!   [`peak_max`](biscatter_dsp::simd::peak_max)) under the workspace's f64
//!   bit-identity contract.
//! * **Deterministic fan-out** — hypotheses are independent rows of
//!   caller-owned correlation/energy slabs, partitioned disjointly over the
//!   [`ComputePool`], so results are bit-identical to the serial loop at
//!   any pool size. After a warm-up call the steady state allocates
//!   nothing: slabs live in an [`AcquireScratch`], per-block FFT buffers in
//!   thread-local scratch, plans in the thread-local planner cache.
//!
//! The acquisition *decision* is a peak-to-sidelobe-ratio (PSLR) gate on
//! the best hypothesis's energy profile: a matched slope compresses into a
//! sharp peak (high PSLR), a mismatched slope or noise-only dwell stays
//! flat. The recovered offset hands the aligned capture to the standard
//! localization/uplink pipeline (`core::isac`'s cold-start stage).

use biscatter_compute::ComputePool;
use biscatter_dsp::complex::Cpx;
use biscatter_dsp::fft::next_pow2;
use biscatter_dsp::planner::with_planner;
use biscatter_dsp::simd;
use biscatter_dsp::spectrum::parabolic_peak;
use biscatter_dsp::TAU;
use biscatter_obs::metrics::{Counter, Gauge, Histogram};
use std::cell::RefCell;
use std::sync::OnceLock;

/// PSLR reported when the sidelobe floor is exactly zero (noise-free
/// synthetic dwells): finite so scores stay JSON-safe and comparable.
const PSLR_CAP_DB: f64 = 120.0;

/// Registry handles for acquisition telemetry.
struct AcquireMetrics {
    /// Slope hypotheses correlated (bank size × calls).
    hypotheses_evaluated: Counter,
    /// Windows folded into energy profiles (bank size × `n_windows`).
    windows_accumulated: Counter,
    /// `ensure_cache` calls served by the cached template spectra.
    cache_hits: Counter,
    /// `ensure_cache` calls that (re)built the template spectra.
    cache_misses: Counter,
    /// Dwells whose best hypothesis passed the PSLR gate.
    acquired: Counter,
    /// Dwells rejected by the PSLR gate (no tag, or too deep in noise).
    rejected: Counter,
    /// Current bank size (hypotheses cached).
    bank_hypotheses: Gauge,
    /// Best-hypothesis PSLR distribution, recorded in milli-dB on the
    /// log-bucketed histogram (`record_ns(pslr_db · 1000)`).
    pslr_mdb: Histogram,
}

fn metrics() -> &'static AcquireMetrics {
    static METRICS: OnceLock<AcquireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = biscatter_obs::registry();
        AcquireMetrics {
            hypotheses_evaluated: r.counter("acquire.hypotheses.evaluated"),
            windows_accumulated: r.counter("acquire.windows.accumulated"),
            cache_hits: r.counter("acquire.templates.cache_hits"),
            cache_misses: r.counter("acquire.templates.cache_misses"),
            acquired: r.counter("acquire.tags.acquired"),
            rejected: r.counter("acquire.tags.rejected"),
            bank_hypotheses: r.gauge("acquire.bank.hypotheses"),
            pslr_mdb: r.histogram("acquire.pslr_mdb"),
        }
    })
}

/// One chirp-slope hypothesis: the acquisition template is a baseband
/// linear chirp `cos(π·slope·t²)` lasting `duration_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeHypothesis {
    /// Sweep rate in the acquisition band, Hz/s.
    pub slope_hz_per_s: f64,
    /// Template duration, s (one chirp).
    pub duration_s: f64,
}

impl SlopeHypothesis {
    /// Template length in samples at `fs`.
    pub fn template_len(&self, fs: f64) -> usize {
        ((self.duration_s * fs).round() as usize).max(1)
    }

    /// Writes the template waveform (cleared and resized to
    /// [`SlopeHypothesis::template_len`]).
    pub fn fill_template(&self, fs: f64, out: &mut Vec<f64>) {
        let m = self.template_len(fs);
        out.clear();
        out.reserve(m);
        for i in 0..m {
            let t = i as f64 / fs;
            out.push((TAU * 0.5 * self.slope_hz_per_s * t * t).cos());
        }
    }
}

/// Acquisition geometry and decision thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquireConfig {
    /// Baseband sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Chirp repetition period in samples (the slot period `T_period·fs`);
    /// correlation lags fold modulo this window.
    pub window: usize,
    /// Repetitions accumulated non-coherently.
    pub n_windows: usize,
    /// Minimum energy peak-to-sidelobe ratio (dB) to declare acquisition.
    pub min_pslr_db: f64,
    /// Half-width of the main-lobe guard excluded from the sidelobe scan.
    pub guard_bins: usize,
}

impl Default for AcquireConfig {
    fn default() -> Self {
        AcquireConfig {
            sample_rate_hz: 10e6,
            window: 1200,
            n_windows: 8,
            min_pslr_db: 6.0,
            guard_bins: 32,
        }
    }
}

impl AcquireConfig {
    /// Dwell length (samples) that gives every hypothesis of template
    /// length `≤ max_template` its full `n_windows` of lags.
    pub fn dwell_len(&self, max_template: usize) -> usize {
        self.window * self.n_windows + max_template
    }
}

/// One hypothesis's cached matched filter.
#[derive(Debug, Clone)]
struct Template {
    /// Time-domain samples (the naive baseline and capture synthesis read
    /// these; the FFT path never does).
    samples: Vec<f64>,
    /// Zero-padded transform length (power of two ≥ 2·len).
    n_fft: usize,
    /// Input block length per FFT: `n_fft − len + 1`.
    block: usize,
    /// Conjugated half spectrum of the zero-padded template.
    spec_conj: Vec<Cpx>,
}

impl Template {
    fn build(samples: Vec<f64>) -> Template {
        let m = samples.len();
        let n_fft = next_pow2(2 * m.max(1)).max(2);
        let mut spec_conj = Vec::new();
        with_planner(|p| {
            p.with_real_scratch(n_fft, |p, buf| {
                buf[..m].copy_from_slice(&samples);
                p.rfft_half_into(buf, &mut spec_conj);
            });
        });
        for z in spec_conj.iter_mut() {
            *z = z.conj();
        }
        Template {
            samples,
            n_fft,
            block: n_fft - m + 1,
            spec_conj,
        }
    }

    fn len(&self) -> usize {
        self.samples.len()
    }
}

/// The per-hypothesis conjugate-template-spectrum cache, keyed on geometry
/// (sample rate + hypothesis set) like the multi-tag `TagBank`: reassigning
/// an identical hypothesis set is a no-op, and `ensure_cache` rebuilds only
/// when the key actually changed — so banks cycling through a `FrameArena`
/// pool keep their templates warm across frames.
#[derive(Debug, Default)]
pub struct CorrelatorBank {
    hypotheses: Vec<SlopeHypothesis>,
    /// `(sample_rate_hz, templates)` — present once built.
    cache: Option<(f64, Vec<Template>)>,
}

impl CorrelatorBank {
    /// Replaces the hypothesis set. A no-op (cache preserved) when the new
    /// set equals the current one.
    pub fn set_hypotheses(&mut self, hyps: &[SlopeHypothesis]) {
        if self.hypotheses == hyps {
            return;
        }
        self.hypotheses = hyps.to_vec();
        self.cache = None;
    }

    /// Longest template (samples) at `fs` across the bank.
    pub fn max_template_len(&self, fs: f64) -> usize {
        self.hypotheses
            .iter()
            .map(|h| h.template_len(fs))
            .max()
            .unwrap_or(0)
    }

    /// Builds the per-hypothesis templates for `fs` if the cache is stale;
    /// cheap when the geometry is unchanged.
    pub fn ensure_cache(&mut self, fs: f64) {
        let m = metrics();
        if let Some((cached_fs, t)) = &self.cache {
            if *cached_fs == fs && t.len() == self.hypotheses.len() {
                m.cache_hits.inc();
                return;
            }
        }
        m.cache_misses.inc();
        m.bank_hypotheses.set(self.hypotheses.len() as f64);
        let mut wave = Vec::new();
        let templates = self
            .hypotheses
            .iter()
            .map(|h| {
                h.fill_template(fs, &mut wave);
                Template::build(wave.clone())
            })
            .collect();
        self.cache = Some((fs, templates));
    }

    fn templates(&self) -> &[Template] {
        &self.cache.as_ref().expect("ensure_cache not called").1
    }
}

/// One hypothesis's acquisition score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypothesisScore {
    /// The hypothesis's sweep rate, Hz/s.
    pub slope_hz_per_s: f64,
    /// The hypothesis's template duration, s.
    pub duration_s: f64,
    /// Energy-peak lag bin — the timing-offset estimate in samples,
    /// modulo the window.
    pub offset_bin: usize,
    /// Parabolically refined peak position (fractional bins).
    pub refined_bin: f64,
    /// Peak of the folded correlation energy.
    pub peak_energy: f64,
    /// Strongest sidelobe outside the guard region.
    pub sidelobe_energy: f64,
    /// Peak-to-sidelobe ratio, dB (energy ratio, `10·log10`).
    pub pslr_db: f64,
}

/// A successful acquisition: the slope and timing offset handed to the
/// aligned frame pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    /// Index of the winning hypothesis in the bank.
    pub hypothesis: usize,
    /// Winning sweep rate, Hz/s.
    pub slope_hz_per_s: f64,
    /// Winning template duration, s.
    pub duration_s: f64,
    /// Timing offset, samples (integer bin).
    pub offset_samples: usize,
    /// Timing offset, seconds (parabolically refined).
    pub offset_s: f64,
    /// The winning hypothesis's PSLR, dB.
    pub pslr_db: f64,
}

/// Caller-owned slabs for the acquisition hot path: the per-hypothesis
/// correlation rows and folded energy rows. Hold one per pipeline (or lease
/// from a `FrameArena` pool); after the first dwell of a given geometry the
/// engine allocates nothing.
#[derive(Debug, Default)]
pub struct AcquireScratch {
    /// `n_hyp` rows × `raw.len()` stride of correlation lags.
    corr: Vec<f64>,
    /// `n_hyp` rows × `window` of folded energy.
    energy: Vec<f64>,
}

/// Per-thread FFT block buffers for the overlap-add loop (each pool worker
/// keeps its own, next to its thread-local planner).
#[derive(Default)]
struct BlockScratch {
    /// Zero-padded input block (length `n_fft`).
    seg: Vec<f64>,
    /// Block half spectrum.
    spec: Vec<Cpx>,
    /// Inverse-transformed circular correlation block.
    td: Vec<f64>,
    /// Packed half-length FFT scratch.
    pack: Vec<Cpx>,
}

thread_local! {
    static BLOCK: RefCell<BlockScratch> = RefCell::new(BlockScratch::default());
}

/// Overlap-add FFT cross-correlation of `raw` against one cached template:
/// `corr[j] = Σ_i raw[j+i]·t[i]` for the `raw.len() − M + 1` valid lags
/// (`corr` must arrive sized; it is zeroed here, then blocks accumulate).
///
/// Each length-`block` slice of `raw`, zero-padded to `n_fft`, yields its
/// circular correlation with the template; because `block + M − 1 ≤ n_fft`
/// there is no wrap *within* a block, so entries `0..take` are the block's
/// non-negative relative lags and entries `n_fft−q` (`q in 1..M`) its
/// negative lags — both are added into `corr` at the block's absolute
/// position. Summing over blocks reconstructs the exact linear correlation.
fn overlap_add_correlate(tmpl: &Template, raw: &[f64], corr: &mut [f64]) {
    let m = tmpl.len();
    let n = tmpl.n_fft;
    let block = tmpl.block;
    let n_lags = corr.len();
    corr.fill(0.0);
    BLOCK.with(|cell| {
        let b = &mut *cell.borrow_mut();
        with_planner(|p| {
            let plan = p.rfft_plan(n);
            let mut start = 0usize;
            while start < raw.len() {
                let take = block.min(raw.len() - start);
                b.seg.clear();
                b.seg.extend_from_slice(&raw[start..start + take]);
                b.seg.resize(n, 0.0);
                plan.process_with_scratch(&b.seg, &mut b.spec, &mut b.pack);
                simd::cmul_assign(&mut b.spec, &tmpl.spec_conj);
                plan.inverse(&b.spec, &mut b.td, &mut b.pack);
                // Non-negative relative lags j in 0..take land at start+j.
                let hi = take.min(n_lags.saturating_sub(start));
                if hi > 0 {
                    simd::add_assign(&mut corr[start..start + hi], &b.td[..hi]);
                }
                // Negative lags r[−q] = td[n−q], q in 1..M, land at start−q.
                if start > 0 && m > 1 {
                    let q_max = (m - 1).min(start);
                    let lo_out = start - q_max;
                    let hi_out = start.min(n_lags);
                    if hi_out > lo_out {
                        let t0 = n - q_max;
                        simd::add_assign(
                            &mut corr[lo_out..hi_out],
                            &b.td[t0..t0 + (hi_out - lo_out)],
                        );
                    }
                }
                start += block;
            }
        });
    });
}

/// Direct O(N·M) time-domain cross-correlation — the accuracy oracle and
/// the benchmarked baseline. `corr` is cleared and resized to the
/// `raw.len() − M + 1` valid lags.
///
/// # Panics
/// Panics if the template is empty or longer than `raw`.
pub fn naive_correlate_into(template: &[f64], raw: &[f64], corr: &mut Vec<f64>) {
    assert!(!template.is_empty() && raw.len() >= template.len());
    corr.clear();
    corr.resize(raw.len() - template.len() + 1, 0.0);
    for (j, c) in corr.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (i, &t) in template.iter().enumerate() {
            acc += raw[j + i] * t;
        }
        *c = acc;
    }
}

/// FFT overlap-add correlation of `raw` against an arbitrary template, for
/// property tests: the correlation the bank runs, but building the template
/// spectrum per call (the bank caches it).
///
/// # Panics
/// Panics if the template is empty or longer than `raw`.
pub fn fft_correlate_into(template: &[f64], raw: &[f64], corr: &mut Vec<f64>) {
    assert!(!template.is_empty() && raw.len() >= template.len());
    let tmpl = Template::build(template.to_vec());
    corr.clear();
    corr.resize(raw.len() - template.len() + 1, 0.0);
    overlap_add_correlate(&tmpl, raw, corr);
}

/// Folds `n_windows` repetitions of `corr` into one window of non-coherent
/// energy: `energy[l] = Σ_w corr[w·window + l]²`.
fn fold_energy(corr: &[f64], window: usize, n_windows: usize, energy: &mut [f64]) {
    energy.fill(0.0);
    for w in 0..n_windows {
        simd::sq_accum(energy, &corr[w * window..w * window + window]);
    }
}

/// Peak + PSLR scan of one hypothesis's energy profile.
fn score_energy(hyp: &SlopeHypothesis, energy: &[f64], guard: usize) -> HypothesisScore {
    let (bin, peak) = simd::peak_max(energy);
    let (refined_bin, _) = parabolic_peak(energy, bin);
    let lo = bin.saturating_sub(guard);
    let hi = (bin + guard + 1).min(energy.len());
    let side = simd::peak_max(&energy[..lo])
        .1
        .max(simd::peak_max(&energy[hi..]).1);
    let sidelobe_energy = side.max(0.0);
    let pslr_db = if peak > 0.0 && sidelobe_energy > 0.0 {
        (10.0 * (peak / sidelobe_energy).log10()).min(PSLR_CAP_DB)
    } else if peak > 0.0 {
        PSLR_CAP_DB
    } else {
        0.0
    };
    HypothesisScore {
        slope_hz_per_s: hyp.slope_hz_per_s,
        duration_s: hyp.duration_s,
        offset_bin: bin,
        refined_bin,
        peak_energy: peak,
        sidelobe_energy,
        pslr_db,
    }
}

/// Applies the PSLR gate to the scored bank: the best hypothesis (largest
/// peak energy, first on ties) wins, and is acquired only above the
/// configured PSLR.
fn decide(cfg: &AcquireConfig, scores: &[HypothesisScore]) -> Option<Acquisition> {
    let mut best = 0usize;
    for (i, s) in scores.iter().enumerate().skip(1) {
        if s.peak_energy > scores[best].peak_energy {
            best = i;
        }
    }
    let s = scores[best];
    metrics()
        .pslr_mdb
        .record_ns((s.pslr_db.max(0.0) * 1000.0) as u64);
    if s.pslr_db >= cfg.min_pslr_db {
        metrics().acquired.inc();
        Some(Acquisition {
            hypothesis: best,
            slope_hz_per_s: s.slope_hz_per_s,
            duration_s: s.duration_s,
            offset_samples: s.offset_bin,
            offset_s: s.refined_bin / cfg.sample_rate_hz,
            pslr_db: s.pslr_db,
        })
    } else {
        metrics().rejected.inc();
        None
    }
}

fn check_dwell(cfg: &AcquireConfig, raw_len: usize, max_m: usize) {
    assert!(cfg.window >= 1 && cfg.n_windows >= 1, "degenerate window");
    assert!(
        raw_len + 1 >= max_m + cfg.window * cfg.n_windows,
        "dwell of {raw_len} samples is too short for {} windows of {} \
         with a {max_m}-sample template",
        cfg.n_windows,
        cfg.window
    );
}

/// Runs the full correlator bank over one dwell: per-hypothesis overlap-add
/// correlation (fanned out over `pool`), window energy folding, peak/PSLR
/// scoring into `scores` (cleared; one entry per hypothesis, bank order),
/// and the acquisition decision.
///
/// Bit-identical to the serial loop for any pool size: each hypothesis owns
/// a disjoint slab row and a fixed operation order. Returns `None` when the
/// bank is empty or the best hypothesis fails the PSLR gate.
///
/// # Panics
/// Panics if the dwell is shorter than
/// [`AcquireConfig::dwell_len`]`(max_template) − 1` samples.
pub fn acquire_all(
    pool: &ComputePool,
    bank: &mut CorrelatorBank,
    cfg: &AcquireConfig,
    raw: &[f64],
    scratch: &mut AcquireScratch,
    scores: &mut Vec<HypothesisScore>,
) -> Option<Acquisition> {
    let _span = biscatter_obs::span!("acquire.bank");
    scores.clear();
    bank.ensure_cache(cfg.sample_rate_hz);
    let nh = bank.hypotheses.len();
    if nh == 0 {
        return None;
    }
    check_dwell(cfg, raw.len(), bank.max_template_len(cfg.sample_rate_hz));
    let m = metrics();
    m.hypotheses_evaluated.add(nh as u64);
    m.windows_accumulated.add((nh * cfg.n_windows) as u64);

    let stride = raw.len();
    scratch.corr.resize(nh * stride, 0.0);
    scratch.energy.resize(nh * cfg.window, 0.0);
    let templates = bank.templates();

    // Stage 1: one correlation row per hypothesis, disjoint by chunking.
    pool.par_chunks(&mut scratch.corr, stride, |h, row| {
        let _span = biscatter_obs::span!("acquire.correlate");
        let n_lags = raw.len() - templates[h].len() + 1;
        overlap_add_correlate(&templates[h], raw, &mut row[..n_lags]);
    });

    // Stage 2: fold each row's repetitions into one window of energy.
    let corr_slab = &scratch.corr;
    pool.par_chunks(&mut scratch.energy, cfg.window, |h, erow| {
        let _span = biscatter_obs::span!("acquire.accumulate");
        fold_energy(
            &corr_slab[h * stride..(h + 1) * stride],
            cfg.window,
            cfg.n_windows,
            erow,
        );
    });

    // Stage 3: serial peak/PSLR scoring (already SIMD per row) + decision.
    let _scan = biscatter_obs::span!("acquire.scan");
    for (h, hyp) in bank.hypotheses.iter().enumerate() {
        let erow = &scratch.energy[h * cfg.window..(h + 1) * cfg.window];
        scores.push(score_energy(hyp, erow, cfg.guard_bins));
    }
    decide(cfg, scores)
}

/// The benchmarked baseline: identical folding, scoring, and decision, but
/// with direct time-domain correlation instead of the FFT bank (serial —
/// the comparison isolates the correlation engine itself).
pub fn acquire_all_naive(
    bank: &mut CorrelatorBank,
    cfg: &AcquireConfig,
    raw: &[f64],
    scratch: &mut AcquireScratch,
    scores: &mut Vec<HypothesisScore>,
) -> Option<Acquisition> {
    scores.clear();
    bank.ensure_cache(cfg.sample_rate_hz);
    let nh = bank.hypotheses.len();
    if nh == 0 {
        return None;
    }
    check_dwell(cfg, raw.len(), bank.max_template_len(cfg.sample_rate_hz));
    let stride = raw.len();
    scratch.corr.resize(nh * stride, 0.0);
    scratch.energy.resize(nh * cfg.window, 0.0);
    let mut row_buf = Vec::new();
    for h in 0..nh {
        let tmpl = &bank.templates()[h];
        naive_correlate_into(&tmpl.samples, raw, &mut row_buf);
        let row = &mut scratch.corr[h * stride..h * stride + row_buf.len()];
        row.copy_from_slice(&row_buf);
        fold_energy(
            row,
            cfg.window,
            cfg.n_windows,
            &mut scratch.energy[h * cfg.window..(h + 1) * cfg.window],
        );
    }
    for (h, hyp) in bank.hypotheses.iter().enumerate() {
        let erow = &scratch.energy[h * cfg.window..(h + 1) * cfg.window];
        scores.push(score_energy(hyp, erow, cfg.guard_bins));
    }
    decide(cfg, scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rvec(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                ((i as u64).wrapping_mul(48271).wrapping_add(salt) % 1013) as f64 / 506.5 - 1.0
            })
            .collect()
    }

    #[test]
    fn overlap_add_matches_naive_small() {
        for &(m, n) in &[(1usize, 5usize), (4, 16), (7, 40), (16, 16), (33, 200)] {
            let t = rvec(m, 3);
            let raw = rvec(n, 11);
            let mut a = Vec::new();
            let mut b = Vec::new();
            fft_correlate_into(&t, &raw, &mut a);
            naive_correlate_into(&t, &raw, &mut b);
            assert_eq!(a.len(), b.len());
            let scale: f64 = b.iter().fold(0.0, |s, v| s.max(v.abs()));
            for (j, (&x, &y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + scale),
                    "m={m} n={n} lag {j}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn bank_cache_is_geometry_keyed() {
        let hyps = vec![
            SlopeHypothesis {
                slope_hz_per_s: 1e9,
                duration_s: 16e-6,
            },
            SlopeHypothesis {
                slope_hz_per_s: 2e9,
                duration_s: 8e-6,
            },
        ];
        let mut bank = CorrelatorBank::default();
        bank.set_hypotheses(&hyps);
        bank.ensure_cache(10e6);
        let before = metrics().cache_misses.get();
        bank.ensure_cache(10e6); // hit
        bank.set_hypotheses(&hyps); // identical: no-op, cache kept
        bank.ensure_cache(10e6); // still a hit
        assert_eq!(metrics().cache_misses.get(), before);
        bank.ensure_cache(5e6); // new rate: rebuild
        assert_eq!(metrics().cache_misses.get(), before + 1);
    }
}
