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
//! * **Overlap-save FFT correlation on one block length** — the raw dwell
//!   is cross-correlated against every slope hypothesis's chirp template.
//!   Direct time-domain correlation is O(N·M) per hypothesis. Here the bank
//!   picks one transform length `n = next_pow2(2·M_max)` from its longest
//!   template and cuts the lags that fold into blocks of
//!   `hop = n − M_max + 1`; block `b` transforms the `n` dwell samples from
//!   `b·hop` (zero-padded past the dwell's end) through a cached
//!   [`RfftPlan`](biscatter_dsp::planner::RfftPlan) **once for the whole
//!   bank**. Each hypothesis multiplies that spectrum by its **conjugate
//!   template spectrum** at `n` and returns through the packed inverse real
//!   FFT ([`RfftPlan::inverse`](biscatter_dsp::planner::RfftPlan::inverse));
//!   since `hop + M − 1 ≤ n` for every template, the first `hop` circular
//!   lags are exactly the linear correlation at lags `b·hop + j`. Exact to
//!   rounding (the oracle property test pins ≤ 1e-9).
//! * **Geometry-keyed template cache** — a [`CorrelatorBank`] caches each
//!   hypothesis's conjugated spectrum (and its time-domain samples for the
//!   naive baseline), keyed on the sample rate and hypothesis set, exactly
//!   like the multi-tag `TagBank`: repeated frames pay zero setup.
//! * **Window energy folded as lags come out** — the tag repeats its chirp
//!   every slot period, so correlation energy is folded modulo the window
//!   across `n_windows` repetitions (non-coherent integration): a tag far
//!   below the per-sample noise floor accumulates into a clean peak whose
//!   bin *is* the timing offset. Each block's lags are squared straight
//!   into the energy row, so no correlation row is ever stored; every bin
//!   still sums its windows in window order.
//! * **SIMD scans** — the spectral multiply, the energy fold, and the
//!   peak/PSLR scans all route through `dsp::dispatch` kernels under the
//!   workspace's f64 bit-identity contract: hand-written AVX2 bodies for
//!   [`cmul_into`](biscatter_dsp::simd::cmul_into) and
//!   [`peak_max`](biscatter_dsp::simd::peak_max), and the scalar loop
//!   compiled with AVX2 on for [`sq_accum`](biscatter_dsp::simd::sq_accum).
//! * **Deterministic fan-out** — the block spectra fan out over the
//!   [`ComputePool`] by block, then hypotheses fan out by energy row; both
//!   write disjoint rows of caller-owned slabs, so results are
//!   bit-identical to the serial loop at any pool size. After a warm-up
//!   call the steady state allocates nothing: the spectra and energy slabs
//!   live in an [`AcquireScratch`], per-block FFT buffers in thread-local
//!   scratch, plans in the thread-local planner cache.
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

/// The transform length of a correlator bank whose longest template has
/// `max_template` samples: the power of two ≥ `2·max_template` (at least
/// 2). Every hypothesis of the bank correlates at this one length.
pub fn block_fft_len(max_template: usize) -> usize {
    next_pow2(2 * max_template.max(1)).max(2)
}

/// Overlap-save geometry for templates of at most `M` samples: blocks of
/// `n` dwell samples, `hop = n − M + 1` apart, each yielding its first
/// `hop` lags.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OverlapSave {
    /// Transform length ([`block_fft_len`]).
    n: usize,
    /// Lags each block yields.
    hop: usize,
}

impl OverlapSave {
    fn for_template(max_template: usize) -> OverlapSave {
        let n = block_fft_len(max_template);
        OverlapSave {
            n,
            hop: n - max_template.max(1) + 1,
        }
    }

    /// Half-spectrum bins per block.
    fn bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Blocks that cover lags `0..n_lags`.
    fn blocks(&self, n_lags: usize) -> usize {
        n_lags.div_ceil(self.hop)
    }
}

/// One hypothesis's cached matched filter.
#[derive(Debug, Clone)]
struct Template {
    /// Time-domain samples (the naive baseline and capture synthesis read
    /// these; the FFT path never does).
    samples: Vec<f64>,
    /// Conjugated half spectrum of the template zero-padded to the bank's
    /// transform length.
    spec_conj: Vec<Cpx>,
}

impl Template {
    fn build(samples: Vec<f64>, n: usize) -> Template {
        let mut spec_conj = Vec::new();
        with_planner(|p| {
            p.with_real_scratch(n, |p, buf| {
                buf[..samples.len()].copy_from_slice(&samples);
                p.rfft_half_into(buf, &mut spec_conj);
            });
        });
        for z in spec_conj.iter_mut() {
            *z = z.conj();
        }
        Template { samples, spec_conj }
    }
}

/// A bank's cached templates at one sample rate, with the overlap-save
/// geometry their longest member sets.
#[derive(Debug)]
struct BankCache {
    fs: f64,
    geometry: OverlapSave,
    templates: Vec<Template>,
}

/// The per-hypothesis conjugate-template-spectrum cache, keyed on geometry
/// (sample rate + hypothesis set) like the multi-tag `TagBank`: reassigning
/// an identical hypothesis set is a no-op, and `ensure_cache` rebuilds only
/// when the key actually changed — so a bank reused across frames keeps
/// its templates warm.
#[derive(Debug, Default)]
pub struct CorrelatorBank {
    hypotheses: Vec<SlopeHypothesis>,
    /// Present once built.
    cache: Option<BankCache>,
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

    /// Builds the per-hypothesis templates for `fs`, all at the transform
    /// length the longest one sets, if the cache is stale; cheap when the
    /// geometry is unchanged.
    pub fn ensure_cache(&mut self, fs: f64) {
        let m = metrics();
        if let Some(c) = &self.cache {
            if c.fs == fs && c.templates.len() == self.hypotheses.len() {
                m.cache_hits.inc();
                return;
            }
        }
        m.cache_misses.inc();
        m.bank_hypotheses.set(self.hypotheses.len() as f64);
        let geometry = OverlapSave::for_template(self.max_template_len(fs));
        let mut wave = Vec::new();
        let templates = self
            .hypotheses
            .iter()
            .map(|h| {
                h.fill_template(fs, &mut wave);
                Template::build(wave.clone(), geometry.n)
            })
            .collect();
        self.cache = Some(BankCache {
            fs,
            geometry,
            templates,
        });
    }

    fn cached(&self) -> &BankCache {
        self.cache.as_ref().expect("ensure_cache not called")
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

/// Caller-owned slabs for the acquisition hot path: the dwell's block
/// spectra and the per-hypothesis folded energy rows. Hold one per
/// pipeline (the frame path keeps one per thread); after the first dwell
/// of a given geometry the engine allocates nothing.
#[derive(Debug, Default)]
pub struct AcquireScratch {
    /// One row of `n/2 + 1` half-spectrum bins per overlap-save block.
    spectra: Vec<Cpx>,
    /// `n_hyp` rows × `window` of folded energy.
    energy: Vec<f64>,
}

/// Per-thread FFT block buffers (each pool worker keeps its own, next to
/// its thread-local planner).
#[derive(Default)]
struct BlockScratch {
    /// Zero-padded dwell segment (length `n`).
    seg: Vec<f64>,
    /// Block spectrum times a template's conjugate spectrum.
    prod: Vec<Cpx>,
    /// Inverse-transformed circular correlation block.
    td: Vec<f64>,
    /// Packed half-length FFT scratch.
    pack: Vec<Cpx>,
}

thread_local! {
    static BLOCK: RefCell<BlockScratch> = RefCell::new(BlockScratch::default());
}

/// Half spectrum of overlap-save block `b` into `row`: the `n` dwell
/// samples from `b·hop`, zero-padded past the end of `raw`.
fn block_spectrum(geo: OverlapSave, raw: &[f64], b: usize, row: &mut [Cpx]) {
    let start = b * geo.hop;
    let end = (start + geo.n).min(raw.len());
    BLOCK.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.seg.clear();
        s.seg.extend_from_slice(&raw[start..end]);
        s.seg.resize(geo.n, 0.0);
        with_planner(|p| p.rfft_plan(geo.n).process_into(&s.seg, row, &mut s.pack));
    });
}

/// Correlates every block spectrum in `spectra` (rows of `geo.bins()`, in
/// block order) with one template: multiplies by the template's conjugate
/// spectrum, inverse-transforms, and hands the block's first `hop` lags
/// (fewer in the last block, so that lags stop at `n_lags`) to
/// `sink(first_lag, lags)` — `corr[b·hop + j] = Σ_i raw[b·hop + j + i]·t[i]`,
/// since `hop + M − 1 ≤ n` leaves those lags unwrapped.
fn correlate_blocks(
    geo: OverlapSave,
    spectra: &[Cpx],
    tmpl: &Template,
    n_lags: usize,
    mut sink: impl FnMut(usize, &[f64]),
) {
    BLOCK.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.prod.resize(geo.bins(), Cpx::ZERO);
        with_planner(|p| {
            let plan = p.rfft_plan(geo.n);
            for (b, spec) in spectra.chunks_exact(geo.bins()).enumerate() {
                let first = b * geo.hop;
                simd::cmul_into(&mut s.prod, spec, &tmpl.spec_conj);
                plan.inverse(&s.prod, &mut s.td, &mut s.pack);
                sink(first, &s.td[..geo.hop.min(n_lags - first)]);
            }
        });
    });
}

/// Squares consecutive correlation lags `first_lag, first_lag + 1, …` into
/// their window bins, `energy[lag mod window] += c²` with
/// `window = energy.len()`, one window-aligned stretch per
/// [`simd::sq_accum`] call. Fed lags in increasing order, every bin sums
/// its windows in window order.
fn fold_lags(energy: &mut [f64], first_lag: usize, lags: &[f64]) {
    let window = energy.len();
    let mut pos = first_lag % window;
    let mut rest = lags;
    while !rest.is_empty() {
        let take = rest.len().min(window - pos);
        simd::sq_accum(&mut energy[pos..pos + take], &rest[..take]);
        rest = &rest[take..];
        pos = 0;
    }
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

/// FFT overlap-save correlation of `raw` against an arbitrary template,
/// for property tests: the block spectra and block correlation the bank
/// runs, on the geometry a one-template bank would pick, building the
/// template spectrum per call (the bank caches it). `corr` is cleared and
/// resized to the `raw.len() − M + 1` valid lags.
///
/// # Panics
/// Panics if the template is empty or longer than `raw`.
pub fn fft_correlate_into(template: &[f64], raw: &[f64], corr: &mut Vec<f64>) {
    assert!(!template.is_empty() && raw.len() >= template.len());
    let geo = OverlapSave::for_template(template.len());
    let tmpl = Template::build(template.to_vec(), geo.n);
    let n_lags = raw.len() - template.len() + 1;
    let mut spectra = vec![Cpx::ZERO; geo.blocks(n_lags) * geo.bins()];
    for (b, row) in spectra.chunks_exact_mut(geo.bins()).enumerate() {
        block_spectrum(geo, raw, b, row);
    }
    corr.clear();
    corr.resize(n_lags, 0.0);
    correlate_blocks(geo, &spectra, &tmpl, n_lags, |first, lags| {
        corr[first..first + lags.len()].copy_from_slice(lags);
    });
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

/// Runs the full correlator bank over one dwell: the overlap-save block
/// spectra (once for the bank, fanned out over `pool` by block), then per
/// hypothesis (fanned out by energy row) the block correlations with the
/// window energy folded as they come out, peak/PSLR scoring into `scores`
/// (cleared; one entry per hypothesis, bank order), and the acquisition
/// decision. Only the `window·n_windows` lags that fold are correlated.
///
/// Bit-identical to the serial loop for any pool size: each block and each
/// hypothesis owns a disjoint slab row and a fixed operation order. Returns
/// `None` when the bank is empty or the best hypothesis fails the PSLR
/// gate.
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

    let BankCache {
        geometry: geo,
        templates,
        ..
    } = bank.cached();
    let (geo, n_lags) = (*geo, cfg.window * cfg.n_windows);
    scratch
        .spectra
        .resize(geo.blocks(n_lags) * geo.bins(), Cpx::ZERO);
    scratch.energy.resize(nh * cfg.window, 0.0);

    // Stage 1: each block's spectrum, once for the whole bank.
    pool.par_chunks(&mut scratch.spectra, geo.bins(), |b, row| {
        let _span = biscatter_obs::span!("acquire.spectra");
        block_spectrum(geo, raw, b, row);
    });

    // Stage 2: one energy row per hypothesis, folded block by block.
    let spectra = &scratch.spectra;
    pool.par_chunks(&mut scratch.energy, cfg.window, |h, erow| {
        let _span = biscatter_obs::span!("acquire.correlate");
        erow.fill(0.0);
        correlate_blocks(geo, spectra, &templates[h], n_lags, |first, lags| {
            fold_lags(erow, first, lags);
        });
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
    let n_lags = cfg.window * cfg.n_windows;
    scratch.energy.resize(nh * cfg.window, 0.0);
    let mut row = Vec::new();
    for (tmpl, erow) in bank
        .cached()
        .templates
        .iter()
        .zip(scratch.energy.chunks_exact_mut(cfg.window))
    {
        naive_correlate_into(&tmpl.samples, raw, &mut row);
        erow.fill(0.0);
        fold_lags(erow, 0, &row[..n_lags]);
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
