//! `cargo bench --bench dsp` — measures the PR-2 DSP fast path against the
//! seed implementations it replaced and records the ratios in
//! `results/BENCH_dsp.json`:
//!
//! * planned (cached) FFT vs a fresh plan per call vs the seed's
//!   incremental-twiddle engine (`fft::reference`), at 256/1024/4096;
//! * packed real-input FFT vs the widened complex transform of the same
//!   real signal;
//! * oscillator-recurrence dechirp vs a per-sample `cos()` baseline on a
//!   3-scatterer scene;
//! * the library's inverse-CDF noise fill vs a Box–Muller baseline over
//!   one streaming frame's IF noise.
//!
//! Each comparison's rows are timed interleaved. `--quick` runs each body
//! once and writes nothing — the CI smoke mode.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_core::dsp::complex::Cpx;
use biscatter_core::dsp::fft::reference;
use biscatter_core::dsp::planner::{with_planner, FftPlan};
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::TAU;
use biscatter_core::json::Value;
use biscatter_core::rf::chirp::Chirp;
use biscatter_core::rf::if_gen::IfReceiver;
use biscatter_core::rf::scene::{Scatterer, Scene};

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

/// The noise comparison's size: about one `cell_stream` frame's IF noise
/// deviates (32 chirps; the count varies with the slopes a payload picks).
const NOISE_DRAWS: usize = 26_504;

/// The Box–Muller draw the library used for f64 noise before the
/// inverse-CDF generator replaced it: two uniforms make two deviates, and
/// the second is cached for the next call. The noise comparison's baseline.
struct BoxMuller {
    src: NoiseSource,
    cached: Option<f64>,
}

impl BoxMuller {
    fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let r = (-2.0 * self.src.uniform().ln()).sqrt();
        let theta = TAU * self.src.uniform();
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

fn main() {
    let args = Args::parse();
    let samples = 20;
    let sampler = Sampler::new(&args, samples);

    // --- Planned vs unplanned complex FFT -------------------------------
    let mut fft_rows = Vec::new();
    for n in [256usize, 1024, 4096] {
        let signal: Vec<Cpx> = (0..n)
            .map(|i| Cpx::cis(TAU * 0.11 * i as f64) + Cpx::real(0.3 * (0.05 * i as f64).sin()))
            .collect();
        let plan = with_planner(|p| p.plan(n));
        let mut data = signal.clone();
        let mut scratch = Vec::new();
        let t = sampler.interleave(&mut [
            &mut || {
                black_box(reference::fft(black_box(&signal)));
            },
            &mut || {
                let plan = FftPlan::new(n);
                let mut data = signal.clone();
                plan.process(&mut data);
                black_box(data);
            },
            &mut || {
                data.copy_from_slice(&signal);
                plan.process_with_scratch(black_box(&mut data), &mut scratch);
            },
        ]);
        println!(
            "fft_{n:<5} reference {}   fresh-plan {}   cached-plan {}",
            t[0], t[1], t[2]
        );
        let mut row = Fields::default();
        row.num("n", n as f64)
            .row("reference", "ns", &t[0])
            .row("fresh_plan", "ns", &t[1])
            .row("cached_plan", "ns", &t[2])
            .num("speedup_cached_vs_reference", t[0].median() / t[2].median())
            .num(
                "speedup_cached_vs_fresh_plan",
                t[1].median() / t[2].median(),
            );
        fft_rows.push(row.into());
    }

    // --- Real-input FFT vs widened complex -------------------------------
    let n_real = 4096usize;
    let real: Vec<f64> = (0..n_real)
        .map(|i| (TAU * 0.07 * i as f64).sin() + 0.2 * (TAU * 0.19 * i as f64).cos())
        .collect();
    let mut half = Vec::new();
    let t = sampler.interleave(&mut [
        &mut || {
            with_planner(|p| {
                let mut data: Vec<Cpx> = real.iter().map(|&v| Cpx::real(v)).collect();
                p.fft_in_place(black_box(&mut data));
                black_box(data);
            })
        },
        &mut || with_planner(|p| p.rfft_half_into(black_box(&real), &mut half)),
    ]);
    println!("rfft_{n_real}  complex {}   packed-real {}", t[0], t[1]);
    let mut rfft = Fields::default();
    rfft.num("n", n_real as f64)
        .row("complex_fft", "ns", &t[0])
        .row("packed_real", "ns", &t[1])
        .num("speedup", t[0].median() / t[1].median());

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
    let t = sampler.interleave(&mut [
        &mut || {
            black_box(dechirp_cos_baseline(
                black_box(&chirp),
                &scene,
                rx.sample_rate_hz,
                1e-3,
            ));
        },
        &mut || {
            let mut noise = NoiseSource::new(1);
            black_box(rx.dechirp(black_box(&chirp), &scene, 1e-3, &mut noise));
        },
    ]);
    println!("dechirp_3scat_{n_if}  cos {}   oscillator {}", t[0], t[1]);
    let mut dechirp = Fields::default();
    dechirp
        .set(
            "scene",
            Value::String(format!("clutter + mover + tag, {n_if} samples")),
        )
        .row("cos_baseline", "ns", &t[0])
        .row("oscillator", "ns", &t[1])
        .num("speedup", t[0].median() / t[1].median());

    // --- Box–Muller vs inverse-CDF noise fill ----------------------------
    let sigma = black_box(1.0);
    let (mut bm_row, mut inv_row) = (vec![0.0f64; NOISE_DRAWS], vec![0.0f64; NOISE_DRAWS]);
    let mut bm = BoxMuller {
        src: NoiseSource::new(1),
        cached: None,
    };
    let mut inv = NoiseSource::new(1);
    let t = sampler.interleave(&mut [
        &mut || {
            for s in black_box(&mut bm_row).iter_mut() {
                *s += bm.gaussian() * sigma;
            }
        },
        &mut || inv.add_awgn(black_box(&mut inv_row[..]), sigma),
    ]);
    let per_draw = |s: &harness::Samples| s.median() / NOISE_DRAWS as f64;
    println!(
        "noise_{NOISE_DRAWS}  box-muller {}   inverse-cdf {}   ({:.1} vs {:.1} ns/draw)",
        t[0],
        t[1],
        per_draw(&t[0]),
        per_draw(&t[1])
    );
    let mut noise = Fields::default();
    noise
        .num("draws", NOISE_DRAWS as f64)
        .row("box_muller", "ns", &t[0])
        .row("inverse_cdf", "ns", &t[1])
        .num("box_muller_ns_per_draw", per_draw(&t[0]))
        .num("inverse_cdf_ns_per_draw", per_draw(&t[1]))
        .num("speedup", t[0].median() / t[1].median());

    let mut fields = Fields::default();
    fields
        .set("fft", Value::Array(fft_rows))
        .set("rfft", rfft.into())
        .set("dechirp", dechirp.into())
        .set("noise", noise.into());
    harness::record(
        &args,
        "dsp",
        "DSP fast path",
        &format!(
            "{samples} interleaved samples per comparison; reference = seed incremental-twiddle \
             engine (fft::reference), fresh_plan = FftPlan::new per call, cached_plan = \
             planner-cached tables reused across calls. noise: one frame's IF noise fill, \
             box_muller = the earlier f64 generator written out in the bench, inverse_cdf = \
             NoiseSource::add_awgn. speedups are ratios of medians. plan-reuse criterion: \
             speedup_cached_vs_fresh_plan at n=1024 >= 2x."
        ),
        fields,
    );
}
