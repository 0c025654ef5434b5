//! `cargo bench --bench acquire` — the PR-9 correlator-bank acquisition
//! engine, recorded in `results/BENCH_acquire.json`:
//!
//! * per-dwell acquisition cost of the overlap-add FFT correlator bank
//!   (`acquire_all`, cached template spectra, SIMD scans) vs the naive
//!   O(N·M) time-domain correlation baseline (`acquire_all_naive`, same
//!   folding/scoring), at 1 / 2 / 4 / 8 / 16 slope hypotheses on the
//!   reference dwell (1024-sample templates, 8 × 1200-sample windows);
//! * steady-state heap allocations of one bank pass (must be 0);
//! * overlap-add-vs-oracle equivalence: the FFT correlation matches the
//!   time-domain oracle to ≤ 1e-9 at every hypothesis count, and both
//!   engines reach the same acquisition decision.
//!
//! `--quick` runs one pass per path and writes nothing, but still enforces
//! the oracle equivalence and zero-allocation assertions — the CI smoke
//! mode fails if the overlap-add engine ever drifts from the direct
//! correlation.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_core::json::Value;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::acquire::{
    acquire_all, acquire_all_naive, fft_correlate_into, naive_correlate_into, AcquireConfig,
    AcquireScratch, CorrelatorBank, SlopeHypothesis,
};
use biscatter_runtime::compute::ComputePool;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reference dwell: 1024-sample templates (102.4 µs chirps at 10 MS/s)
/// folding over 8 slot-period windows of 1200 samples.
const FS: f64 = 10e6;
const TEMPLATE_LEN: usize = 1024;
const WINDOW: usize = 1200;
const N_WINDOWS: usize = 8;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hypotheses(n: usize) -> Vec<SlopeHypothesis> {
    (0..n)
        .map(|i| SlopeHypothesis {
            slope_hz_per_s: (1.0 + 0.35 * i as f64) * 1e10,
            duration_s: TEMPLATE_LEN as f64 / FS,
        })
        .collect()
}

fn config() -> AcquireConfig {
    AcquireConfig {
        sample_rate_hz: FS,
        window: WINDOW,
        n_windows: N_WINDOWS,
        ..AcquireConfig::default()
    }
}

/// The reference dwell: deterministic pseudo-noise plus hypothesis 0's
/// chirp repeating at a fixed 347-sample offset (so every hypothesis count
/// has a true target to find and real sidelobes to scan).
fn build_dwell(cfg: &AcquireConfig) -> Vec<f64> {
    let mut raw: Vec<f64> = (0..cfg.dwell_len(TEMPLATE_LEN))
        .map(|i| (splitmix64(i as u64) & 0xFFFF) as f64 / 32768.0 - 1.0)
        .collect();
    let mut tmpl = Vec::new();
    hypotheses(1)[0].fill_template(FS, &mut tmpl);
    let mut start = 347usize;
    while start + tmpl.len() <= raw.len() {
        for (i, &c) in tmpl.iter().enumerate() {
            raw[start + i] += 2.5 * c;
        }
        start += cfg.window;
    }
    raw
}

fn main() {
    let args = Args::parse();
    let samples = 11;
    let sampler = Sampler::new(&args, samples);

    let cfg = config();
    let raw = build_dwell(&cfg);
    let pool = ComputePool::new(1);

    // --- Overlap-add vs time-domain oracle (asserted even under --quick). --
    {
        let mut tmpl = Vec::new();
        hypotheses(3)[2].fill_template(FS, &mut tmpl);
        let mut fft = Vec::new();
        let mut oracle = Vec::new();
        fft_correlate_into(&tmpl, &raw, &mut fft);
        naive_correlate_into(&tmpl, &raw, &mut oracle);
        let scale: f64 = oracle.iter().fold(0.0, |s, v| s.max(v.abs()));
        let worst = fft
            .iter()
            .zip(&oracle)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            worst <= 1e-9 * (1.0 + scale),
            "overlap-add drifted from the time-domain oracle: max |Δ| = {worst:e}"
        );
    }

    let counts = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut speedup_at_8 = 0.0;
    let mut steady_allocs_at_8 = 0;

    for nh in counts {
        let hyps = hypotheses(nh);
        let mut bank = CorrelatorBank::default();
        bank.set_hypotheses(&hyps);
        let mut naive_bank = CorrelatorBank::default();
        naive_bank.set_hypotheses(&hyps);
        let (mut scratch, mut naive_scratch) =
            (AcquireScratch::default(), AcquireScratch::default());
        let (mut fast_scores, mut slow_scores) = (Vec::new(), Vec::new());

        // --- Decision equivalence: both engines must agree. --------------
        let fast = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
        let slow = acquire_all_naive(
            &mut naive_bank,
            &cfg,
            &raw,
            &mut naive_scratch,
            &mut slow_scores,
        );
        let fast = fast.unwrap_or_else(|| panic!("nh={nh}: FFT bank missed the planted chirp"));
        let slow = slow.unwrap_or_else(|| panic!("nh={nh}: baseline missed the planted chirp"));
        assert_eq!(fast.hypothesis, slow.hypothesis, "nh={nh}: winners differ");
        assert_eq!(
            fast.offset_samples, slow.offset_samples,
            "nh={nh}: timing offsets differ"
        );
        assert_eq!(fast.hypothesis, 0, "nh={nh}: wrong hypothesis won");
        assert_eq!(fast.offset_samples, 347, "nh={nh}: wrong offset");

        // --- Steady-state allocations of one bank pass (at nh=8). --------
        if nh == 8 {
            acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
            steady_allocs_at_8 = counted(|| {
                acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
            })
            .1;
            assert_eq!(
                steady_allocs_at_8, 0,
                "correlator bank allocated in steady state"
            );
        }

        // --- Per-dwell acquisition latency, naive vs bank. ----------------
        let times = sampler.interleave(&mut [
            &mut || {
                let a = acquire_all_naive(
                    &mut naive_bank,
                    &cfg,
                    &raw,
                    &mut naive_scratch,
                    &mut slow_scores,
                );
                black_box(a);
            },
            &mut || {
                let a = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
                black_box(a);
            },
        ]);
        let (naive, fft) = (&times[0], &times[1]);
        let speedup = naive.median() / fft.median();
        if nh == 8 {
            speedup_at_8 = speedup;
        }
        println!(
            "nh={nh:2}: naive {naive}, bank {fft}, speedup {speedup:.2}x \
             (winner offset {} @ PSLR {:.1} dB)",
            fast.offset_samples, fast.pslr_db,
        );
        let mut row = Fields::default();
        row.num("hypotheses", nh as f64)
            .row("naive_dwell", "ns", naive)
            .row("bank_dwell", "ns", fft)
            .num("speedup", speedup);
        rows.push(row.into());
    }

    let dwell_len = raw.len();
    let mut fields = Fields::default();
    fields
        .num("template_len", TEMPLATE_LEN as f64)
        .num("window", WINDOW as f64)
        .num("n_windows", N_WINDOWS as f64)
        .num("dwell_len", dwell_len as f64)
        .set("per_hypothesis_count", Value::Array(rows))
        .num("speedup_at_8", speedup_at_8)
        .num("steady_state_allocs", steady_allocs_at_8 as f64)
        .set("oracle_equivalent", Value::Bool(true));
    harness::record(
        &args,
        "acquire",
        "correlator-bank acquisition",
        &format!(
            "acquisition of one {dwell_len}-sample dwell ({N_WINDOWS} x {WINDOW}-sample windows, \
             {TEMPLATE_LEN}-sample chirp templates) across slope-hypothesis counts, {samples} \
             interleaved samples after warm-up on a 1-thread pool; naive = O(N*M) time-domain \
             correlation with identical energy folding + PSLR scoring, bank = zero-padded \
             real-FFT overlap-add with cached conjugate template spectra (acquire_all). speedup \
             is the ratio of medians. steady_state_allocs counted by obs::alloc over one bank \
             pass at 8 hypotheses; acceptance: 0 allocs, FFT-vs-oracle correlation <= 1e-9, \
             identical decisions, and >= 3x at 8 hypotheses."
        ),
        fields,
    );

    if !args.quick {
        assert!(
            speedup_at_8 >= 3.0,
            "acceptance: the correlator bank at 8 hypotheses must be >= 3x the \
             naive baseline, got {speedup_at_8:.2}x"
        );
    }
}
