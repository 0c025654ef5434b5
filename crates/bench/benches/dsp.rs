//! `cargo bench --bench dsp` — measures the PR-2 DSP fast path against the
//! seed implementations it replaced and records the ratios in
//! `results/BENCH_dsp.json`:
//!
//! * planned (cached) FFT vs a fresh plan per call vs the seed's
//!   incremental-twiddle engine (`fft::reference`), at 256/1024/4096;
//! * packed real-input FFT vs the widened complex transform of the same
//!   real signal;
//! * oscillator-recurrence dechirp vs a per-sample `cos()` baseline on a
//!   3-scatterer scene.
//!
//! A plain `main` (harness = false) so the measured medians can be written
//! to JSON. `--quick` runs each body once and skips the JSON write — the
//! CI smoke mode.

use std::hint::black_box;
use std::time::Instant;

use biscatter_core::dsp::complex::Cpx;
use biscatter_core::dsp::fft::reference;
use biscatter_core::dsp::planner::{with_planner, FftPlan};
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::TAU;
use biscatter_core::rf::chirp::Chirp;
use biscatter_core::rf::if_gen::IfReceiver;
use biscatter_core::rf::scene::{Scatterer, Scene};

/// Median per-iteration time of `f`, in nanoseconds. Each of `samples`
/// timed samples loops `f` until 2 ms elapse (so fast kernels dominate the
/// timer resolution); in quick mode the body runs exactly once.
fn median_ns<O>(quick: bool, samples: usize, mut f: impl FnMut() -> O) -> f64 {
    if quick {
        f();
        return 0.0;
    }
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for i in 0..=samples {
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            black_box(f());
            iters += 1;
            if start.elapsed().as_millis() >= 2 || iters >= 10_000 {
                break;
            }
        }
        if i > 0 {
            per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_iter[per_iter.len() / 2]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{:.2} ms", ns / 1e6)
    }
}

struct FftRow {
    n: usize,
    reference_ns: f64,
    fresh_plan_ns: f64,
    cached_plan_ns: f64,
}

/// Per-sample `cos()` dechirp identical to the seed's inner loop: rebuild
/// the IF tone argument and evaluate `amplitude_at` for every sample of
/// every scatterer. The baseline the oscillator recurrence replaced.
fn dechirp_cos_baseline(chirp: &Chirp, scene: &Scene, fs: f64, t_start: f64) -> Vec<f64> {
    let n = chirp.if_samples(fs);
    let mut out = vec![0.0f64; n];
    let alpha = chirp.slope();
    let c = biscatter_core::dsp::SPEED_OF_LIGHT;
    for s in &scene.scatterers {
        let r = s.range_at(t_start);
        if r <= 0.0 {
            continue;
        }
        let tau = 2.0 * r / c;
        let f_if = alpha * tau;
        let phase0 = TAU * (chirp.f0 * tau - 0.5 * alpha * tau * tau);
        for (i, o) in out.iter_mut().enumerate() {
            let t = i as f64 / fs;
            *o += s.amplitude_at(t_start + t) * (phase0 + TAU * f_if * t).cos();
        }
    }
    out
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let samples = 20;

    // --- Planned vs unplanned complex FFT -------------------------------
    let mut fft_rows = Vec::new();
    for n in [256usize, 1024, 4096] {
        let signal: Vec<Cpx> = (0..n)
            .map(|i| Cpx::cis(TAU * 0.11 * i as f64) + Cpx::real(0.3 * (0.05 * i as f64).sin()))
            .collect();

        let reference_ns = median_ns(quick, samples, || reference::fft(black_box(&signal)));
        let fresh_plan_ns = median_ns(quick, samples, || {
            let plan = FftPlan::new(n);
            let mut data = signal.clone();
            plan.process(&mut data);
            data
        });
        let plan = with_planner(|p| p.plan(n));
        let mut data = signal.clone();
        let mut scratch = Vec::new();
        let cached_plan_ns = median_ns(quick, samples, || {
            data.copy_from_slice(&signal);
            plan.process_with_scratch(black_box(&mut data), &mut scratch);
        });

        println!(
            "fft_{n:<5} reference {:>10}   fresh-plan {:>10}   cached-plan {:>10}",
            fmt_ns(reference_ns),
            fmt_ns(fresh_plan_ns),
            fmt_ns(cached_plan_ns),
        );
        fft_rows.push(FftRow {
            n,
            reference_ns,
            fresh_plan_ns,
            cached_plan_ns,
        });
    }

    // --- Real-input FFT vs widened complex -------------------------------
    let n_real = 4096usize;
    let real: Vec<f64> = (0..n_real)
        .map(|i| (TAU * 0.07 * i as f64).sin() + 0.2 * (TAU * 0.19 * i as f64).cos())
        .collect();
    let complex_of_real_ns = median_ns(quick, samples, || {
        with_planner(|p| {
            let mut data: Vec<Cpx> = real.iter().map(|&v| Cpx::real(v)).collect();
            p.fft_in_place(black_box(&mut data));
            data
        })
    });
    let mut half = Vec::new();
    let rfft_ns = median_ns(quick, samples, || {
        with_planner(|p| p.rfft_half_into(black_box(&real), &mut half));
    });
    println!(
        "rfft_{n_real}  complex {:>10}   packed-real {:>10}",
        fmt_ns(complex_of_real_ns),
        fmt_ns(rfft_ns),
    );

    // --- Oscillator vs cos() dechirp -------------------------------------
    let chirp = Chirp::new(9e9, 1e9, 96e-6);
    let scene = Scene::new()
        .with(Scatterer::clutter(2.0, 5.0))
        .with(Scatterer::mover(4.0, 1.0, 1.0))
        .with(Scatterer::tag(5.0, 1.0, 1041.7));
    let rx = IfReceiver {
        sample_rate_hz: 10e6,
        noise_sigma: 0.0, // noise off: time the tone synthesis, not the RNG
    };
    let n_if = chirp.if_samples(rx.sample_rate_hz);
    let cos_ns = median_ns(quick, samples, || {
        dechirp_cos_baseline(black_box(&chirp), &scene, rx.sample_rate_hz, 1e-3)
    });
    let osc_ns = median_ns(quick, samples, || {
        let mut noise = NoiseSource::new(1);
        rx.dechirp(black_box(&chirp), &scene, 1e-3, &mut noise)
    });
    println!(
        "dechirp_3scat_{n_if}  cos {:>10}   oscillator {:>10}",
        fmt_ns(cos_ns),
        fmt_ns(osc_ns),
    );

    if quick {
        println!("--quick: smoke run only, results/BENCH_dsp.json not rewritten");
        return;
    }

    // --- JSON report ------------------------------------------------------
    let ratio = |num: f64, den: f64| {
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    };
    let fft_json: Vec<String> = fft_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"n\": {},\n      \"reference_ns\": {:.0},\n      \"fresh_plan_ns\": {:.0},\n      \"cached_plan_ns\": {:.0},\n      \"speedup_cached_vs_reference\": {:.2},\n      \"speedup_cached_vs_fresh_plan\": {:.2}\n    }}",
                r.n,
                r.reference_ns,
                r.fresh_plan_ns,
                r.cached_plan_ns,
                ratio(r.reference_ns, r.cached_plan_ns),
                ratio(r.fresh_plan_ns, r.cached_plan_ns),
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"DSP fast path (crates/bench/benches/dsp.rs)\",\n  {dispatch},\n  \"cores\": {cores},\n  \"note\": \"medians of {samples} samples; reference = seed incremental-twiddle engine (fft::reference), fresh_plan = FftPlan::new per call, cached_plan = planner-cached tables reused across calls. plan-reuse criterion: speedup_cached_vs_fresh_plan at n=1024 >= 2x.\",\n  \"fft\": [\n{}\n  ],\n  \"rfft\": {{\n    \"n\": {n_real},\n    \"complex_fft_ns\": {complex_of_real_ns:.0},\n    \"packed_real_ns\": {rfft_ns:.0},\n    \"speedup\": {:.2}\n  }},\n  \"dechirp\": {{\n    \"scene\": \"clutter + mover + tag, {n_if} samples\",\n    \"cos_baseline_ns\": {cos_ns:.0},\n    \"oscillator_ns\": {osc_ns:.0},\n    \"speedup\": {:.2}\n  }}\n}}\n",
        fft_json.join(",\n"),
        ratio(complex_of_real_ns, rfft_ns),
        ratio(cos_ns, osc_ns),
        dispatch = biscatter_bench::dispatch_json_fields(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_dsp.json");
    std::fs::write(path, &json).expect("write BENCH_dsp.json");
    println!("wrote {path}");
}
