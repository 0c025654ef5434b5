//! `cargo bench --bench kernels` — micro-benchmarks of the processing
//! kernels that dominate both ends of the link: the tag's per-slot symbol
//! decision (what the MCU runs per bit) and its whole downlink decode, the
//! single-bin Goertzel, the radar's IF synthesis of a 24-tag frame, its
//! alignment and the fused front end that does both without a slab, the
//! noise generator's jump to a row start, the range FFT + IF correction,
//! the range–Doppler map, and a full end-to-end downlink frame. The `dsp/` rows also time the kernels whose AVX2 tier is
//! the scalar loop compiled with AVX2 on (`round`, `norm_sq_accum`,
//! `sq_accum`) against the forced scalar tier, so a toolchain that stops
//! vectorizing one shows as a `scalar÷tier` ratio near 1, the first FFT
//! stage, whose one loop serves both tiers, and the Doppler stage's column
//! kernel (`fft_columns`, a hand body) against its scalar loop.
//!
//! Each row prints its median and quartiles; nothing is recorded. Name
//! filters pick rows (`-- tag` runs the `tag/*` rows); `--quick` runs each
//! body once.

use std::cell::RefCell;
use std::hint::black_box;

use biscatter_bench::harness::{Args, Sampler};
use biscatter_core::downlink::{measure_ber_symbols, run_frame_synced};
use biscatter_core::dsp::dispatch::{force_tier, tier, SimdTier};
use biscatter_core::dsp::fft::fft;
use biscatter_core::dsp::goertzel::goertzel_power;
use biscatter_core::dsp::planner::{first_stage, FftPlan};
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::simd;
use biscatter_core::dsp::Cpx;
use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, front_end_stage_into, synthesize_frame,
};
use biscatter_core::link::packet::{DownlinkPacket, DownlinkSymbol};
use biscatter_core::radar::receiver::doppler::{range_doppler_into, RangeDopplerMap};
use biscatter_core::radar::receiver::{align_frame, align_frame_into, AlignedFrame, RxConfig};
use biscatter_core::radar::sequencer::isac_frame;
use biscatter_core::rf::frame::{ChirpTrain, MAX_DUTY};
use biscatter_core::rf::if_gen::IfReceiver;
use biscatter_core::rf::scene::{Scatterer, Scene};
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_core::tag::acquisition::{estimate_period, estimate_slot_timing};
use biscatter_core::tag::decoder::DownlinkDecoder;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::source::multi_tag_jobs;

/// Times `body` as row `name` when the filters select it, and prints it.
fn row<O>(args: &Args, sampler: &Sampler, name: &str, body: impl FnMut() -> O) {
    if args.wants(name) {
        println!("{name:<40} {}", sampler.time(body));
    }
}

/// Times `body` on the process's dispatch tier and on the forced scalar
/// tier, interleaved, as rows `name` and `name/scalar`, and prints the
/// median and quartiles of the paired scalar ÷ tier ratios (1 by
/// construction when the process runs the scalar tier).
fn tier_rows(args: &Args, sampler: &Sampler, name: &str, body: impl FnMut()) {
    if !args.wants(name) {
        return;
    }
    let native = tier();
    let body = RefCell::new(body);
    let times = sampler.interleave(&mut [
        &mut || {
            force_tier(native);
            (body.borrow_mut())()
        },
        &mut || {
            force_tier(SimdTier::Scalar);
            (body.borrow_mut())()
        },
    ]);
    force_tier(native);
    println!("{name:<40} {}", times[0]);
    println!("{:<40} {}", format!("{name}/scalar"), times[1]);
    let ratio = times[1].paired(&times[0], |s, t| s / t);
    println!(
        "{:<40} {:.2}× [{:.2}, {:.2}]",
        format!("{name}/scalar÷tier"),
        ratio.median(),
        ratio.quantile(0.25),
        ratio.quantile(0.75)
    );
}

fn main() {
    let args = Args::parse();
    let fast = Sampler::new(&args, 20);
    let slow = Sampler::new(&args, 10);

    let tone: Vec<f64> = (0..1024)
        .map(|i| (std::f64::consts::TAU * 0.11 * i as f64).sin())
        .collect();
    row(&args, &fast, "dsp/goertzel_1024", || {
        goertzel_power(black_box(&tone), 0.11)
    });
    let cdata: Vec<Cpx> = tone.iter().map(|&x| Cpx::real(x)).collect();
    row(&args, &fast, "dsp/fft_1024", || fft(black_box(&cdata)));
    let odd: Vec<Cpx> = cdata.iter().take(1000).copied().collect();
    row(&args, &fast, "dsp/fft_bluestein_1000", || {
        fft(black_box(&odd))
    });

    // The compiled copies at their production sizes: a `cell_stream`
    // capture's 3,840 ADC codes (copied in, since libm rounds integers
    // faster), a 1,024-bin range row's mean power, and the cold-start
    // fold's 1,089 lags.
    let codes: Vec<f64> = tone.iter().cycle().take(3840).map(|x| 2047.4 * x).collect();
    let mut buf = codes.clone();
    tier_rows(&args, &fast, "dsp/round_3840", || {
        buf.copy_from_slice(&codes);
        simd::round(black_box(&mut buf));
    });
    let row1024: Vec<Cpx> = (tone.iter().zip(tone.iter().rev()))
        .map(|(&re, &im)| Cpx::new(re, im))
        .collect();
    let mut acc = vec![0.0; 1024];
    tier_rows(&args, &fast, "dsp/norm_sq_accum_1024", || {
        simd::norm_sq_accum(black_box(&mut acc), black_box(&row1024));
    });
    let lags: Vec<f64> = tone.iter().cycle().take(1089).copied().collect();
    let mut energy = vec![0.0; 1089];
    tier_rows(&args, &fast, "dsp/sq_accum_1089", || {
        simd::sq_accum(black_box(&mut energy), black_box(&lags));
    });
    // The first FFT stage at the `cell_stream` Doppler length and at
    // `warehouse_k24`'s, in place.
    for n in [32, 128] {
        let mut data = cdata[..n].to_vec();
        row(&args, &fast, &format!("dsp/fft_first_stage_{n}"), || {
            first_stage(black_box(&mut data[..]));
        });
    }
    // One Doppler block of `warehouse_k24`: 128 chirps of 16 adjacent range
    // bins through the plan's column transform, gathered by a copy.
    let plan = FftPlan::<f64>::new(128);
    let mut block = vec![Cpx::ZERO; 128 * 16];
    tier_rows(&args, &fast, "dsp/fft_columns_128x16", || {
        plan.process_columns(black_box(&mut block), 16, |i, row| {
            row.copy_from_slice(&row1024[4 * i..][..16]);
        });
    });

    let sys = BiScatterSystem::paper_9ghz();
    let decider = sys.nominal_decider();
    let chirps = vec![sys.alphabet.chirp_for(DownlinkSymbol::Data(12))];
    let train = ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period).unwrap();
    let mut noise = NoiseSource::new(1);
    let slot = sys.front_end.capture_train(&train, 20.0, 0.0, &mut noise);
    row(&args, &fast, "tag/symbol_decision_5bit", || {
        decider.decide_slot(black_box(&slot))
    });
    let mut n = NoiseSource::new(2);
    row(&args, &fast, "tag/downlink_frame_4bytes", || {
        run_frame_synced(&sys, &decider, black_box(b"PING"), 20.0, &mut n)
    });

    // The tag's whole downlink receive chain (period estimate, slot timing,
    // the timing-refinement sweep, packet parsing) on one capture carrying
    // a 4-byte command: a 32-chirp frame of the streaming geometry, seen by
    // a tag 3 m from the radar, and a full 128-chirp `paper_9ghz` frame, the
    // one `warehouse_k24` decodes, seen by its primary tag at 2 m. The
    // chain's front half has rows of its own: the envelope capture, the
    // period search (which reads only the capture's first 1,600 samples, so
    // one length shows it) and the slot-timing search.
    for (chirps, range_m, seed) in [(32, 3.0, 3), (128, 2.0, 4)] {
        let mut sys = BiScatterSystem::paper_9ghz();
        sys.frame_chirps = chirps;
        let packet = DownlinkPacket::new(b"CMD1".to_vec());
        let (train, _, _) =
            isac_frame(&packet, &sys.alphabet, sys.radar.t_period, sys.frame_chirps).unwrap();
        let snr_db = sys.downlink_snr_at(range_m);
        row(&args, &fast, &format!("tag/capture_{chirps}chirp"), || {
            let mut noise = NoiseSource::new(seed);
            sys.front_end
                .capture_train(black_box(&train), snr_db, 0.0, &mut noise)
        });
        let mut noise = NoiseSource::new(seed);
        let adc = sys.front_end.capture_train(&train, snr_db, 0.0, &mut noise);
        let decoder = DownlinkDecoder::new(sys.nominal_decider());
        let fs = decoder.decider.fs;
        let (t_min, t_max) = (decoder.t_period_min, decoder.t_period_max);
        if chirps == 32 {
            row(&args, &fast, "tag/period_32chirp", || {
                estimate_period(black_box(&adc), fs, t_min, t_max).unwrap()
            });
        }
        let coarse = (estimate_period(&adc, fs, t_min, t_max).unwrap() * fs).round() as usize;
        row(
            &args,
            &fast,
            &format!("tag/slot_timing_{chirps}chirp"),
            || estimate_slot_timing(black_box(&adc), coarse, 1.0 - MAX_DUTY),
        );
        row(
            &args,
            &fast,
            &format!("tag/downlink_decode_{chirps}chirp"),
            || {
                let result = decoder.decode(black_box(&adc), Some(4)).unwrap();
                assert_eq!(result.payload.as_deref(), Ok(&b"CMD1"[..]));
                result
            },
        );
    }

    // The radar's IF synthesis of one frame of the paper's §5 dense
    // deployment: 24 tags toggling their switches, the `warehouse_k24` frame
    // `frame_digest.rs` pins, into one reused slab, then its alignment; and
    // the fused front end that runs both without the slab, into a reused
    // frame. On a 1-thread pool (as a cell runs them) and on 2 threads.
    // The three rows are sampled interleaved, and the last line is the
    // paired ratio of the fused front end to the two stages it replaces.
    let job = multi_tag_jobs(&sys, 1, 24, 11).remove(0);
    let synth = synthesize_frame(&sys, &job.scenario, &job.payload, job.seed);
    for threads in [1, 2] {
        let suffix = if threads == 1 { "" } else { "/2threads" };
        let names = ["rf/dechirp_k24", "radar/align_k24", "rf/receive_k24"];
        if !names.iter().any(|n| args.wants(&format!("{n}{suffix}"))) {
            continue;
        }
        let pool = ComputePool::new(threads);
        let slab = RefCell::new(SampleSlab::<f64>::new());
        let (mut two, mut fused): (AlignedFrame, AlignedFrame) = Default::default();
        let times = slow.interleave(&mut [
            &mut || {
                let mut slab = slab.borrow_mut();
                dechirp_stage_into(&pool, &sys, &synth.train, &synth.scene, job.seed, &mut slab);
            },
            &mut || align_stage_into(&pool, &sys, &synth.train, &slab.borrow(), &mut two),
            &mut || {
                front_end_stage_into(
                    &pool,
                    &sys,
                    &synth.train,
                    &synth.scene,
                    job.seed,
                    &mut fused,
                );
            },
        ]);
        for (name, t) in names.iter().zip(&times) {
            println!("{:<40} {t}", format!("{name}{suffix}"));
        }
        let two_stage = times[0].paired(&times[1], |d, a| d + a);
        let ratio = times[2].paired(&two_stage, |f, t| f / t);
        println!(
            "{:<40} {:.3}× [{:.3}, {:.3}]",
            format!("rf/receive_k24{suffix}÷two_stage"),
            ratio.median(),
            ratio.quantile(0.25),
            ratio.quantile(0.75)
        );
    }
    let pool = ComputePool::new(1);

    // The cost of placing a row's IF noise: one jump of the generator to a
    // row start of that frame, through the table of powers.
    let mut at = 0u64;
    let row_starts: Vec<u64> = synth
        .train
        .slots()
        .iter()
        .map(|s| {
            at += s.chirp.if_samples(sys.rx.if_sample_rate) as u64;
            at
        })
        .collect();
    let mut next = row_starts.iter().cycle();
    row(&args, &fast, "dsp/noise_skip", || {
        let mut noise = NoiseSource::new(7);
        noise.jump(black_box(*next.next().expect("cycles")));
        noise
    });

    let chirps = vec![sys.alphabet.chirp_for(DownlinkSymbol::Header); 64];
    let train = ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period).unwrap();
    let scene = Scene::new()
        .with(Scatterer::clutter(2.0, 3.0))
        .with(Scatterer::tag(5.0, 1.0, 1041.7));
    let rx = IfReceiver {
        sample_rate_hz: sys.rx.if_sample_rate,
        noise_sigma: 0.1,
    };
    let mut noise = NoiseSource::new(3);
    let if_data = rx.dechirp_train(&train, &scene, 0.0, &mut noise);
    // Both stages on a 1-thread pool, as a cell runs them, into reused
    // outputs.
    let mut frame = AlignedFrame::default();
    row(&args, &slow, "radar/align_frame_64x960", || {
        align_frame_into(&pool, black_box(&sys.rx), &train, &if_data, &mut frame);
    });
    let frame = align_frame(&RxConfig::default(), &train, &if_data);
    let mut map = RangeDopplerMap::default();
    row(&args, &slow, "radar/range_doppler_64x1024", || {
        range_doppler_into(&pool, black_box(&frame).comms(), &mut map);
    });

    let mut seed = 0u64;
    row(&args, &slow, "end_to_end/ber_10_frames", || {
        seed += 1;
        measure_ber_symbols(black_box(&sys), 16.0, 10, 24, seed)
    });
}
