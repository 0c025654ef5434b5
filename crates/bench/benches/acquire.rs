//! `cargo bench --bench acquire` — the correlator-bank acquisition engine,
//! recorded in `results/BENCH_acquire.json`:
//!
//! * per-dwell acquisition cost of the overlap-save FFT correlator bank
//!   (`acquire_all`, one block spectrum per dwell block shared by the bank,
//!   cached template spectra, SIMD scans) vs the naive O(N·M) time-domain
//!   correlation baseline (`acquire_all_naive`, same folding/scoring), at
//!   1 / 2 / 4 / 8 / 16 slope hypotheses on the reference dwell
//!   (1024-sample templates, 8 × 1200-sample windows);
//! * the same on the production bank the `cold_start` workload runs (the
//!   streaming system's eight hypotheses, 200- to 960-sample templates,
//!   one of its dwells): row `production`;
//! * the inverse transforms each dwell ran: every hypothesis over the
//!   blocks of its first window, then the rest only for the hypotheses
//!   still in contention (`finished`), as both engines do;
//! * steady-state heap allocations of one bank pass (must be 0);
//! * FFT-vs-oracle equivalence: the FFT correlation matches the
//!   time-domain oracle to ≤ 1e-9 at every hypothesis count, the
//!   production bank finishes the hypotheses the naive engine finishes and
//!   its scores (a pruned row's over its first window) match the naive
//!   engine's to 1e-9 relative, and both engines reach the same
//!   acquisition decision.
//!
//! `--quick` runs one pass per path and writes nothing, but still enforces
//! the oracle equivalence and zero-allocation assertions — the CI smoke
//! mode fails if the FFT engine ever drifts from the direct correlation.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_core::isac::{acquire_config, acquire_hypotheses, synthesize_cold_start_capture};
use biscatter_core::json::Value;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::acquire::{
    acquire_all, acquire_all_naive, fft_correlate_into, inverse_transforms, naive_correlate_into,
    AcquireConfig, AcquireScratch, CorrelatorBank, SlopeHypothesis,
};
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::source::{cold_start_jobs, streaming_system};

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

/// The production bank on one `cold_start` dwell: asserts the bank's
/// scores sit within 1e-9 relative of the naive engine's with the same
/// decision and that a warmed pass allocates nothing, then times the two
/// engines interleaved.
fn production_row(sampler: &Sampler, pool: &ComputePool) -> Value {
    let sys = streaming_system();
    let cfg = acquire_config(&sys);
    let hyps = acquire_hypotheses(&sys);
    let job = cold_start_jobs(&sys, 1, 42).remove(0);
    let mut raw = Vec::new();
    synthesize_cold_start_capture(&sys, &job.scenario, job.seed, &mut raw);

    let (mut bank, mut naive_bank) = (CorrelatorBank::default(), CorrelatorBank::default());
    bank.set_hypotheses(&hyps);
    naive_bank.set_hypotheses(&hyps);
    let (mut scratch, mut naive_scratch) = (AcquireScratch::default(), AcquireScratch::default());
    let (mut fast_scores, mut slow_scores) = (Vec::new(), Vec::new());
    let fast = acquire_all(pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
    let slow = acquire_all_naive(
        &mut naive_bank,
        &cfg,
        &raw,
        &mut naive_scratch,
        &mut slow_scores,
    );
    let fast = fast.expect("production bank missed the tag");
    let slow = slow.expect("naive engine missed the tag");
    assert_eq!(
        (fast.hypothesis, fast.offset_samples),
        (slow.hypothesis, slow.offset_samples),
        "production bank: decisions differ"
    );
    let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    for (f, s) in fast_scores.iter().zip(&slow_scores) {
        assert!(
            f.finished == s.finished
                && f.offset_bin == s.offset_bin
                && rel(f.peak_energy, s.peak_energy)
                && rel(f.sidelobe_energy, s.sidelobe_energy)
                && (f.pslr_db - s.pslr_db).abs() <= 1e-9 * s.pslr_db.abs().max(1.0),
            "production bank drifted from the naive engine: {f:?} vs {s:?}"
        );
    }
    let allocs = counted(|| {
        acquire_all(pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
    })
    .1;
    assert_eq!(allocs, 0, "production bank allocated in steady state");

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
            let a = acquire_all(pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores);
            black_box(a);
        },
    ]);
    let (naive, fft) = (&times[0], &times[1]);
    let speedup = naive.median() / fft.median();
    let lens = hyps.iter().map(|h| h.template_len(cfg.sample_rate_hz));
    let (shortest, longest) = (lens.clone().min().unwrap(), lens.max().unwrap());
    let finished = fast_scores.iter().filter(|s| s.finished).count();
    let inverse = inverse_transforms(&cfg, longest, &fast_scores);
    println!(
        "production (nh={}, templates {shortest}..{longest}): naive {naive}, bank {fft}, \
         speedup {speedup:.2}x, {finished} finished, {inverse} inverse transforms",
        hyps.len(),
    );
    let mut row = Fields::default();
    row.num("hypotheses", hyps.len() as f64)
        .num("shortest_template", shortest as f64)
        .num("longest_template", longest as f64)
        .num("dwell_len", raw.len() as f64)
        .num("finished", finished as f64)
        .num("inverse_transforms", inverse as f64)
        .row("naive_dwell", "ns", naive)
        .row("bank_dwell", "ns", fft)
        .num("speedup", speedup)
        .num("steady_state_allocs", allocs as f64);
    row.into()
}

fn main() {
    let args = Args::parse();
    let samples = 11;
    let sampler = Sampler::new(&args, samples);

    let cfg = config();
    let raw = build_dwell(&cfg);
    let pool = ComputePool::new(1);

    // --- FFT vs time-domain oracle (asserted even under --quick). --------
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
            "FFT correlation drifted from the time-domain oracle: max |Δ| = {worst:e}"
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
        let finished = fast_scores.iter().filter(|s| s.finished).count();
        let inverse = inverse_transforms(&cfg, TEMPLATE_LEN, &fast_scores);
        println!(
            "nh={nh:2}: naive {naive}, bank {fft}, speedup {speedup:.2}x \
             (winner offset {} @ PSLR {:.1} dB; {finished} finished, {inverse} inverse \
             transforms)",
            fast.offset_samples, fast.pslr_db,
        );
        let mut row = Fields::default();
        row.num("hypotheses", nh as f64)
            .num("finished", finished as f64)
            .num("inverse_transforms", inverse as f64)
            .row("naive_dwell", "ns", naive)
            .row("bank_dwell", "ns", fft)
            .num("speedup", speedup);
        rows.push(row.into());
    }

    let production = production_row(&sampler, &pool);

    let dwell_len = raw.len();
    let mut fields = Fields::default();
    fields
        .num("template_len", TEMPLATE_LEN as f64)
        .num("window", WINDOW as f64)
        .num("n_windows", N_WINDOWS as f64)
        .num("dwell_len", dwell_len as f64)
        .set("per_hypothesis_count", Value::Array(rows))
        .set("production", production)
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
             correlation with identical energy folding + PSLR scoring, bank = real-FFT \
             overlap-save on one block length set by the longest template, each block's \
             spectrum computed once for the bank, cached conjugate template spectra, energy \
             folded as each block's lags come out (acquire_all). Both engines run two stages: \
             every hypothesis over the blocks of its first window, then the remaining blocks \
             only for hypotheses whose first-window peak-to-mean ratio is at least 1/4 of \
             the best (finished); inverse_transforms counts the bank's inverse real FFTs on \
             the dwell. production = the streaming system's 8-hypothesis bank \
             (200..960-sample templates) on cold_start_jobs(sys, 1, 42)'s dwell. speedup is \
             the ratio of medians. steady_state_allocs counted by obs::alloc over one bank \
             pass at 8 hypotheses; acceptance: 0 allocs, FFT-vs-oracle correlation <= 1e-9, \
             production bank finishing the naive engine's hypotheses with scores within 1e-9 \
             relative, identical decisions, and >= 3x at 8 hypotheses."
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
