//! Multi-tag scenarios: several tags share one radar frame, separated by
//! their assigned modulation frequencies (paper §6 extension).

use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::radar::receiver::align_frame;
use biscatter_core::radar::receiver::doppler::range_doppler;
use biscatter_core::radar::receiver::localize::locate_tag;
use biscatter_core::rf::frame::ChirpTrain;
use biscatter_core::rf::if_gen::IfReceiver;
use biscatter_core::rf::scene::{Scatterer, Scene};
use biscatter_core::system::BiScatterSystem;

/// Width of one Doppler bin of `sys`'s frame, Hz.
fn doppler_bin_hz(sys: &BiScatterSystem) -> f64 {
    1.0 / (sys.frame_chirps as f64 * sys.radar.t_period)
}

/// Builds a shared frame with tags at the given `(range, mod_freq)` pairs
/// and returns the range–Doppler map.
fn shared_frame(
    sys: &BiScatterSystem,
    tags: &[(f64, f64)],
    seed: u64,
) -> biscatter_core::radar::receiver::doppler::RangeDopplerMap {
    let chirps = vec![
        sys.alphabet
            .chirp_for(biscatter_core::link::packet::DownlinkSymbol::Header);
        sys.frame_chirps
    ];
    let train = ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period).unwrap();
    let mut scene = Scene::new().with(Scatterer::clutter(1.5, 1.0));
    for &(r, f) in tags {
        scene = scene.with(Scatterer::tag(r, sys.tag_if_amplitude(r), f));
    }
    let rx = IfReceiver {
        sample_rate_hz: sys.rx.if_sample_rate,
        noise_sigma: 1.0,
    };
    let mut noise = NoiseSource::new(seed);
    let if_data = rx.dechirp_train(&train, &scene, 0.0, &mut noise);
    let frame = align_frame(&sys.rx, &train, &if_data);
    range_doppler(frame.comms())
}

#[test]
fn three_tags_separated_in_one_frame() {
    let sys = BiScatterSystem::paper_9ghz();
    let bin_hz = doppler_bin_hz(&sys);
    let deployments = [
        (2.0, 12.0 * bin_hz),
        (4.5, 20.0 * bin_hz),
        (6.0, 28.0 * bin_hz),
    ];

    let map = shared_frame(&sys, &deployments, 11);
    for &(r, f) in &deployments {
        let loc =
            locate_tag(&map, f, 10.0).unwrap_or_else(|| panic!("tag at {r} m / {f} Hz not found"));
        assert!(
            (loc.range_m - r).abs() < 0.12,
            "tag at {r}: located {}",
            loc.range_m
        );
    }
}

#[test]
fn wrong_frequency_finds_nothing() {
    let sys = BiScatterSystem::paper_9ghz();
    let f_used = 16.0 / (sys.frame_chirps as f64 * sys.radar.t_period);
    // 2.45x: safely away from the used tag's odd square-wave harmonics
    // (1, 3, 5, 7 ...) and from the matched filter's own harmonic taps.
    let f_unused = 2.45 * f_used;
    let map = shared_frame(&sys, &[(3.0, f_used)], 12);
    assert!(locate_tag(&map, f_used, 10.0).is_some());
    assert!(
        locate_tag(&map, f_unused, 10.0).is_none(),
        "phantom tag at unused frequency"
    );
}

#[test]
fn colocated_tags_distinct_frequencies() {
    // Two tags on the same shelf (same range) are still separable by
    // frequency — the situation unique modulation assignment exists for.
    let sys = BiScatterSystem::paper_9ghz();
    let f1 = 16.0 / (sys.frame_chirps as f64 * sys.radar.t_period);
    let f2 = 2.0 * f1;
    let map = shared_frame(&sys, &[(4.0, f1), (4.0, f2)], 13);
    let l1 = locate_tag(&map, f1, 10.0).expect("tag 1");
    let l2 = locate_tag(&map, f2, 10.0).expect("tag 2");
    assert!((l1.range_m - 4.0).abs() < 0.12);
    assert!((l2.range_m - 4.0).abs() < 0.12);
}

#[test]
fn planner_frequencies_remain_orthogonal_on_air() {
    // Eight bins of spacing hold up in the actual Doppler map: each tag's
    // peak at its own frequency dominates its power at the neighbour's
    // frequency.
    let sys = BiScatterSystem::paper_9ghz();
    let bin_hz = doppler_bin_hz(&sys);
    let (fa, fb) = (12.0 * bin_hz, 20.0 * bin_hz);
    let map = shared_frame(&sys, &[(2.5, fa), (5.5, fb)], 14);

    let la = locate_tag(&map, fa, 10.0).expect("tag a");
    let lb = locate_tag(&map, fb, 10.0).expect("tag b");
    assert!((la.range_m - 2.5).abs() < 0.12);
    assert!((lb.range_m - 5.5).abs() < 0.12);
}
