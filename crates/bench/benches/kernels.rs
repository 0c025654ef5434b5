//! `cargo bench --bench kernels` — micro-benchmarks of the processing
//! kernels that dominate both ends of the link: the tag's per-slot symbol
//! decision (what the MCU runs per bit) and its whole downlink decode, the
//! single-bin Goertzel, the radar's IF synthesis of a 24-tag frame, the
//! range FFT + IF correction, the range–Doppler map, and a full end-to-end
//! downlink frame.
//!
//! Each row prints its median and quartiles; nothing is recorded. Name
//! filters pick rows (`-- tag` runs the `tag/*` rows); `--quick` runs each
//! body once.

use std::hint::black_box;

use biscatter_bench::harness::{Args, Sampler};
use biscatter_core::downlink::{measure_ber_symbols, run_frame_synced};
use biscatter_core::dsp::fft::fft;
use biscatter_core::dsp::goertzel::goertzel_power;
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::Cpx;
use biscatter_core::isac::{dechirp_stage_into, synthesize_frame};
use biscatter_core::link::packet::{DownlinkPacket, DownlinkSymbol};
use biscatter_core::radar::receiver::doppler::range_doppler;
use biscatter_core::radar::receiver::{align_frame, RxConfig};
use biscatter_core::radar::sequencer::isac_frame;
use biscatter_core::rf::frame::ChirpTrain;
use biscatter_core::rf::if_gen::IfReceiver;
use biscatter_core::rf::scene::{Scatterer, Scene};
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_core::tag::decoder::DownlinkDecoder;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::source::multi_tag_jobs;

/// Times `body` as row `name` when the filters select it, and prints it.
fn row<O>(args: &Args, sampler: &Sampler, name: &str, body: impl FnMut() -> O) {
    if args.wants(name) {
        println!("{name:<40} {}", sampler.time(body));
    }
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
    // one `warehouse_k24` decodes, seen by its primary tag at 2 m.
    for (chirps, range_m, seed) in [(32, 3.0, 3), (128, 2.0, 4)] {
        let mut sys = BiScatterSystem::paper_9ghz();
        sys.frame_chirps = chirps;
        let packet = DownlinkPacket::new(b"CMD1".to_vec());
        let (train, _, _) =
            isac_frame(&packet, &sys.alphabet, sys.radar.t_period, sys.frame_chirps).unwrap();
        let mut noise = NoiseSource::new(seed);
        let adc =
            sys.front_end
                .capture_train(&train, sys.downlink_snr_at(range_m), 0.0, &mut noise);
        let decoder = DownlinkDecoder::new(sys.nominal_decider());
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
    // `frame_digest.rs` pins, on a 1-thread pool into one reused slab.
    let job = multi_tag_jobs(&sys, 1, 24, 11).remove(0);
    let synth = synthesize_frame(&sys, &job.scenario, &job.payload, job.seed);
    let pool = ComputePool::new(1);
    let mut slab = SampleSlab::<f64>::new();
    row(&args, &slow, "rf/dechirp_k24", || {
        dechirp_stage_into(&pool, &sys, &synth.train, &synth.scene, job.seed, &mut slab);
        black_box(slab.row(0)[0])
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
    row(&args, &slow, "radar/align_frame_64x960", || {
        align_frame(black_box(&sys.rx), &train, &if_data)
    });
    let frame = align_frame(&RxConfig::default(), &train, &if_data);
    row(&args, &slow, "radar/range_doppler_64x1024", || {
        range_doppler(black_box(&frame))
    });

    let mut seed = 0u64;
    row(&args, &slow, "end_to_end/ber_10_frames", || {
        seed += 1;
        measure_ber_symbols(black_box(&sys), 16.0, 10, 24, seed)
    });
}
