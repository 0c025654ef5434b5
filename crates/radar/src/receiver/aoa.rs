//! Angle-of-arrival estimation: 2D tag localization (range + azimuth).
//!
//! The paper evaluates 1D ranging, but its 24 GHz platform (TinyRad) carries
//! an RX array, and the motivating applications (asset tracking, SLAM
//! features) want positions, not just ranges. With a uniform linear array,
//! a tag at azimuth `θ` arrives with an inter-element phase of
//! `Δφ = 2π d_λ sin θ`. The tag's *modulation signature* makes the phase
//! comparison clean: we evaluate the complex slow-time DFT at the tag's
//! subcarrier frequency and range bin per antenna — clutter and movers don't
//! live there — and read the angle from the pairwise phase progression.

use super::doppler::range_doppler;
use super::localize::{locate_tag, TagLocation};
use super::AlignedFrame;
use biscatter_dsp::complex::Cpx;
use biscatter_dsp::TAU;

/// The complex slow-time DFT coefficient of `frame`'s comms path at
/// `range_bin`, evaluated at modulation frequency `f_hz` (Hann-windowed,
/// fractional-bin).
pub fn slow_time_coefficient(frame: &AlignedFrame, range_bin: usize, f_hz: f64) -> Cpx {
    let n = frame.n_chirps();
    let fs = frame.chirp_rate();
    let comms = frame.comms();
    let mut acc = Cpx::ZERO;
    for c in 0..n {
        let w = 0.5 - 0.5 * (TAU * c as f64 / n as f64).cos();
        let rot = Cpx::cis(-TAU * f_hz / fs * c as f64);
        acc += comms.at(c, range_bin) * rot * w;
    }
    acc
}

/// A 2D tag fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagPosition {
    /// Range, metres.
    pub range_m: f64,
    /// Azimuth off boresight, radians.
    pub azimuth_rad: f64,
    /// The underlying 1D localization (from antenna 0).
    pub location: TagLocation,
}

impl TagPosition {
    /// Cartesian coordinates `(x, y)` with y along boresight.
    pub fn cartesian(&self) -> (f64, f64) {
        (
            self.range_m * self.azimuth_rad.sin(),
            self.range_m * self.azimuth_rad.cos(),
        )
    }
}

/// Estimates a tag's 2D position from per-antenna aligned frames.
///
/// * `frames` — one [`AlignedFrame`] per RX antenna (uniform linear array),
///   as [`align_frame`](super::align_frame) aligns them; each is read
///   through its comms path,
/// * `spacing_wavelengths` — element pitch in wavelengths (≤ 0.5 for an
///   unambiguous ±90° field of view),
/// * `f_mod_hz` — the tag's subcarrier,
/// * `min_snr_db` — detection threshold for the 1D localization stage.
///
/// The angle is the amplitude-weighted mean of adjacent-antenna phase
/// differences, which cancels the common (range) phase and uses every
/// baseline.
pub fn locate_tag_2d(
    frames: &[AlignedFrame],
    spacing_wavelengths: f64,
    f_mod_hz: f64,
    min_snr_db: f64,
) -> Option<TagPosition> {
    let first = frames.first()?;
    let map = range_doppler(first.comms());
    let loc = locate_tag(&map, f_mod_hz, min_snr_db)?;
    if frames.len() < 2 {
        return Some(TagPosition {
            range_m: loc.range_m,
            azimuth_rad: 0.0,
            location: loc,
        });
    }
    // Complex signature per antenna at (range bin, f_mod).
    let coeffs: Vec<Cpx> = frames
        .iter()
        .map(|f| slow_time_coefficient(f, loc.range_bin, f_mod_hz))
        .collect();
    // Sum of adjacent-pair interferometric products: arg gives the mean
    // inter-element phase, magnitude-weighted.
    let mut acc = Cpx::ZERO;
    for pair in coeffs.windows(2) {
        acc += pair[1] * pair[0].conj();
    }
    let delta_phi = acc.arg();
    let s = delta_phi / (TAU * spacing_wavelengths);
    if s.abs() > 1.0 {
        return None; // outside the unambiguous field of view
    }
    Some(TagPosition {
        range_m: loc.range_m,
        azimuth_rad: s.asin(),
        location: loc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{align_frame, RxConfig};
    use biscatter_compute::ComputePool;
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene};
    use biscatter_rf::slab::SampleSlab;

    const SPACING: f64 = 0.5;

    fn frames_for(scene: &Scene, n_rx: usize, seed: u64) -> Vec<AlignedFrame> {
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); 128];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.01,
        };
        let mut noise = NoiseSource::new(seed);
        let mut capture = vec![SampleSlab::new(); n_rx];
        let pool = ComputePool::global();
        rx.dechirp_train_array_into(pool, &train, scene, 0.0, SPACING, &mut noise, &mut capture);
        let cfg = RxConfig::default();
        capture
            .iter()
            .map(|slab| align_frame(&cfg, &train, slab))
            .collect()
    }

    fn f_mod() -> f64 {
        16.0 / (128.0 * 120e-6)
    }

    #[test]
    fn boresight_tag_reads_zero_angle() {
        let scene = Scene::new().with(Scatterer::tag(4.0, 1.0, f_mod()));
        let frames = frames_for(&scene, 2, 1);
        let pos = locate_tag_2d(&frames, SPACING, f_mod(), 10.0).expect("found");
        assert!(
            pos.azimuth_rad.abs() < 2f64.to_radians(),
            "az {}",
            pos.azimuth_rad
        );
        assert!((pos.range_m - 4.0).abs() < 0.1);
    }

    #[test]
    fn angled_tag_estimated() {
        for az_deg in [-35.0f64, -10.0, 15.0, 40.0] {
            let az = az_deg.to_radians();
            let scene = Scene::new().with(Scatterer::tag(3.5, 1.0, f_mod()).at_azimuth(az));
            let frames = frames_for(&scene, 2, 2);
            let pos = locate_tag_2d(&frames, SPACING, f_mod(), 10.0).expect("found");
            assert!(
                (pos.azimuth_rad - az).abs() < 3f64.to_radians(),
                "az {az_deg}°: estimated {}°",
                pos.azimuth_rad.to_degrees()
            );
        }
    }

    #[test]
    fn more_antennas_sharpen_estimate() {
        let az = 20f64.to_radians();
        let scene = Scene::new().with(Scatterer::tag(5.0, 0.3, f_mod()).at_azimuth(az));
        let err = |n_rx: usize| {
            let frames = frames_for(&scene, n_rx, 3);
            let pos = locate_tag_2d(&frames, SPACING, f_mod(), 8.0).expect("found");
            (pos.azimuth_rad - az).abs()
        };
        // 4 antennas should not be worse than 2 (usually better).
        assert!(err(4) <= err(2) + 1f64.to_radians());
    }

    #[test]
    fn clutter_does_not_bias_angle() {
        // Strong boresight clutter + an angled tag: the modulation-domain
        // phase comparison must ignore the clutter.
        let az = 25f64.to_radians();
        let scene = Scene::new()
            .with(Scatterer::clutter(3.5, 20.0)) // same range as the tag!
            .with(Scatterer::tag(3.5, 1.0, f_mod()).at_azimuth(az));
        let frames = frames_for(&scene, 2, 4);
        let pos = locate_tag_2d(&frames, SPACING, f_mod(), 10.0).expect("found");
        assert!(
            (pos.azimuth_rad - az).abs() < 3f64.to_radians(),
            "estimated {}°",
            pos.azimuth_rad.to_degrees()
        );
    }

    #[test]
    fn cartesian_conversion() {
        let scene =
            Scene::new().with(Scatterer::tag(4.0, 1.0, f_mod()).at_azimuth(30f64.to_radians()));
        let frames = frames_for(&scene, 2, 5);
        let pos = locate_tag_2d(&frames, SPACING, f_mod(), 10.0).expect("found");
        let (x, y) = pos.cartesian();
        assert!((x - 2.0).abs() < 0.25, "x {x}");
        assert!((y - 3.464).abs() < 0.25, "y {y}");
    }

    #[test]
    fn single_antenna_degrades_to_1d() {
        let scene = Scene::new().with(Scatterer::tag(4.0, 1.0, f_mod()));
        let frames = frames_for(&scene, 1, 6);
        let pos = locate_tag_2d(&frames, SPACING, f_mod(), 10.0).expect("found");
        assert_eq!(pos.azimuth_rad, 0.0);
    }

    /// The coefficient read through the comms view equals the read of rows
    /// with the background subtracted in place, bit for bit, at the tag's
    /// bin, at a clutter bin and at bin 0.
    #[test]
    fn slow_time_coefficient_reads_rows_subtracted_in_place() {
        let scene = Scene::new()
            .with(Scatterer::clutter(2.5, 20.0))
            .with(Scatterer::tag(4.0, 1.0, f_mod()).at_azimuth(0.3));
        let frame = frames_for(&scene, 1, 7).remove(0);
        let mut stored = frame.clone();
        stored.subtract_background();
        // The read of stored rows, before the view.
        let stored_read = |range_bin: usize| {
            let n = stored.n_chirps();
            let mut acc = Cpx::ZERO;
            for (c, profile) in stored.profiles.iter().enumerate() {
                let w = 0.5 - 0.5 * (TAU * c as f64 / n as f64).cos();
                let rot = Cpx::cis(-TAU * f_mod() / stored.chirp_rate() * c as f64);
                acc += profile[range_bin] * rot * w;
            }
            acc
        };
        let bits = |z: Cpx| (z.re.to_bits(), z.im.to_bits());
        let grid = &frame.range_grid;
        let bin = |r: f64| grid.iter().position(|&x| x >= r).unwrap();
        for range_bin in [0, bin(2.5), bin(4.0), grid.len() - 1] {
            let want = bits(stored_read(range_bin));
            let got = bits(slow_time_coefficient(&frame, range_bin, f_mod()));
            assert_eq!(got, want, "bin {range_bin}");
            let twice = bits(slow_time_coefficient(&stored, range_bin, f_mod()));
            assert_eq!(twice, want, "bin {range_bin}, subtracted rows");
        }
    }

    #[test]
    fn empty_input() {
        assert!(locate_tag_2d(&[], SPACING, 1000.0, 10.0).is_none());
    }
}
