//! Radar scene: point scatterers and modulated tag reflectors.
//!
//! The radar sees the superposition of reflections from static clutter,
//! moving targets, and BiScatter tags. A tag is a scatterer whose
//! reflectivity is *time-varying* — the RF switch toggles the Van Atta array
//! between reflective and absorptive states, which is what the radar's
//! slow-time processing later picks out as the tag signature (paper §3.3).

/// How a tag modulates its reflectivity over time.
#[derive(Debug, Clone, PartialEq)]
pub enum TagModulation {
    /// Constant reflectivity (a plain reflector or an idle tag).
    None,
    /// On-off keying with a square subcarrier at `freq_hz` and `duty` cycle —
    /// the tag's localization beacon and uplink carrier.
    Subcarrier {
        /// Switch toggle frequency, Hz.
        freq_hz: f64,
        /// Fraction of each cycle spent reflective.
        duty: f64,
    },
    /// OOK data: the subcarrier is gated on/off per bit. A `true` bit
    /// transmits the subcarrier for `bit_duration_s`; a `false` bit leaves
    /// the tag absorptive.
    OokBits {
        /// Subcarrier frequency, Hz.
        freq_hz: f64,
        /// Duration of each uplink bit, seconds.
        bit_duration_s: f64,
        /// The bit sequence (repeats if the frame outlasts it).
        bits: Vec<bool>,
    },
    /// FSK data: bit selects between two subcarrier frequencies.
    FskBits {
        /// Subcarrier for a `false` bit, Hz.
        freq0_hz: f64,
        /// Subcarrier for a `true` bit, Hz.
        freq1_hz: f64,
        /// Duration of each uplink bit, seconds.
        bit_duration_s: f64,
        /// The bit sequence (repeats if the frame outlasts it).
        bits: Vec<bool>,
    },
}

impl TagModulation {
    /// Reflectivity multiplier in `[leak, 1]` at absolute time `t`.
    /// `leak` is the residual reflection in the absorptive state
    /// (switch isolation).
    pub fn reflectivity(&self, t: f64, leak: f64) -> f64 {
        if self.switch_state(t).reflective {
            1.0
        } else {
            leak
        }
    }

    /// The switch's state at absolute time `t` — the one place the
    /// switching waveform is defined.
    ///
    /// As `t` grows, `bit` never decreases; while it holds, `cycle` moves
    /// one way only; and while both hold, the phase `x − ⌊x⌋` is a rounded
    /// `x − cycle`, so `reflective` flips at most once. Equal states
    /// therefore cover an interval of time, which is what lets the IF
    /// generator fill a chirp's amplitudes by runs. `bit` is the raw,
    /// unwrapped index for that reason: a wrapped one repeats, and a bit
    /// shorter than a subcarrier half-cycle would then split a run.
    ///
    /// The phase is `x − x.floor()` rather than `x.rem_euclid(1.0)`: for
    /// every finite `x` the two compare identically against the duty
    /// threshold (both are exact for `x ≥ 0` and round the same exact value
    /// otherwise), and this form is a couple of instructions.
    pub(crate) fn switch_state(&self, t: f64) -> SwitchState {
        let subcarrier = |bit: usize, freq: f64, duty: f64| {
            let x = t * freq;
            SwitchState {
                bit,
                cycle: x.floor() as i64,
                reflective: x - x.floor() < duty,
            }
        };
        // The switch held in one position for as long as `bit` lasts.
        let held = |bit: usize, reflective: bool| SwitchState {
            bit,
            cycle: 0,
            reflective,
        };
        let bit_index = |bit_duration_s: f64| (t / bit_duration_s).floor() as usize;
        match self {
            TagModulation::None => held(0, true),
            TagModulation::Subcarrier { freq_hz, duty } => subcarrier(0, *freq_hz, *duty),
            TagModulation::OokBits { bits, .. } | TagModulation::FskBits { bits, .. }
                if bits.is_empty() =>
            {
                held(0, false)
            }
            TagModulation::OokBits {
                freq_hz,
                bit_duration_s,
                bits,
            } => {
                let bit = bit_index(*bit_duration_s);
                if bits[bit % bits.len()] {
                    subcarrier(bit, *freq_hz, 0.5)
                } else {
                    held(bit, false)
                }
            }
            TagModulation::FskBits {
                freq0_hz,
                freq1_hz,
                bit_duration_s,
                bits,
            } => {
                let bit = bit_index(*bit_duration_s);
                let f = if bits[bit % bits.len()] {
                    *freq1_hz
                } else {
                    *freq0_hz
                };
                subcarrier(bit, f, 0.5)
            }
        }
    }
}

/// A tag switch's state at one instant: see [`TagModulation::switch_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SwitchState {
    /// Raw (unwrapped) uplink bit index, `⌊t / bit_duration⌋`; 0 without bits.
    pub bit: usize,
    /// Subcarrier cycle, `⌊t · f⌋`; 0 while the switch is held.
    pub cycle: i64,
    /// Whether the Van Atta array reflects.
    pub reflective: bool,
}

/// A point reflector in the scene.
#[derive(Debug, Clone, PartialEq)]
pub struct Scatterer {
    /// Range from the radar at `t = 0`, metres.
    pub range_m: f64,
    /// Azimuth angle off the radar array's boresight, radians (positive =
    /// toward higher-numbered RX antennas). Only multi-RX processing
    /// observes it.
    pub azimuth_rad: f64,
    /// Radial velocity (positive = receding), m/s.
    pub velocity_mps: f64,
    /// Received IF amplitude contribution (linear, arbitrary units —
    /// normalized against the radar's noise floor by the IF generator).
    pub amplitude: f64,
    /// Time-varying reflectivity (tags modulate; clutter uses `None`).
    pub modulation: TagModulation,
    /// Residual reflectivity in the absorptive state (switch leakage),
    /// linear amplitude fraction.
    pub leak: f64,
}

impl Scatterer {
    /// A static clutter reflector.
    pub fn clutter(range_m: f64, amplitude: f64) -> Self {
        Scatterer {
            range_m,
            azimuth_rad: 0.0,
            velocity_mps: 0.0,
            amplitude,
            modulation: TagModulation::None,
            leak: 1.0,
        }
    }

    /// A moving target (person, drone) with constant radial velocity.
    pub fn mover(range_m: f64, velocity_mps: f64, amplitude: f64) -> Self {
        Scatterer {
            range_m,
            azimuth_rad: 0.0,
            velocity_mps,
            amplitude,
            modulation: TagModulation::None,
            leak: 1.0,
        }
    }

    /// A BiScatter tag with a localization subcarrier.
    pub fn tag(range_m: f64, amplitude: f64, mod_freq_hz: f64) -> Self {
        Scatterer {
            range_m,
            azimuth_rad: 0.0,
            velocity_mps: 0.0,
            amplitude,
            modulation: TagModulation::Subcarrier {
                freq_hz: mod_freq_hz,
                duty: 0.5,
            },
            leak: 0.01,
        }
    }

    /// Places the scatterer at an azimuth angle (radians), builder-style.
    pub fn at_azimuth(mut self, azimuth_rad: f64) -> Self {
        self.azimuth_rad = azimuth_rad;
        self
    }

    /// Range at absolute time `t`.
    pub fn range_at(&self, t: f64) -> f64 {
        self.range_m + self.velocity_mps * t
    }

    /// Effective amplitude at absolute time `t` (reflectivity modulation
    /// applied).
    pub fn amplitude_at(&self, t: f64) -> f64 {
        self.amplitude * self.modulation.reflectivity(t, self.leak)
    }
}

/// The complete scene observed by the radar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scene {
    /// All reflectors, tags included.
    pub scatterers: Vec<Scatterer>,
}

impl Scene {
    /// An empty scene.
    pub fn new() -> Self {
        Scene::default()
    }

    /// Adds a scatterer, builder-style.
    pub fn with(mut self, s: Scatterer) -> Self {
        self.scatterers.push(s);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_modulation_always_on() {
        let m = TagModulation::None;
        for i in 0..10 {
            assert_eq!(m.reflectivity(i as f64 * 0.123, 0.01), 1.0);
        }
    }

    #[test]
    fn subcarrier_duty() {
        let m = TagModulation::Subcarrier {
            freq_hz: 1000.0,
            duty: 0.5,
        };
        assert_eq!(m.reflectivity(0.0, 0.0), 1.0);
        assert_eq!(m.reflectivity(0.00025, 0.0), 1.0);
        assert_eq!(m.reflectivity(0.00075, 0.0), 0.0);
        // Leak floor respected.
        assert_eq!(m.reflectivity(0.00075, 0.05), 0.05);
    }

    #[test]
    fn ook_bits_gate_subcarrier() {
        let m = TagModulation::OokBits {
            freq_hz: 10_000.0,
            bit_duration_s: 1e-3,
            bits: vec![true, false],
        };
        // During bit 0 (true): subcarrier active -> on at phase 0.
        assert_eq!(m.reflectivity(0.0, 0.01), 1.0);
        // During bit 1 (false): always leak.
        assert_eq!(m.reflectivity(1.5e-3, 0.01), 0.01);
        // Sequence repeats.
        assert_eq!(m.reflectivity(2.0e-3, 0.01), 1.0);
    }

    #[test]
    fn fsk_bits_switch_frequency() {
        let m = TagModulation::FskBits {
            freq0_hz: 1000.0,
            freq1_hz: 2000.0,
            bit_duration_s: 0.1,
            bits: vec![false, true],
        };
        // Count toggles in each bit period to verify the frequency changed.
        let count_toggles = |start: f64| {
            let mut toggles = 0;
            let mut last = m.reflectivity(start, 0.0);
            for i in 1..1000 {
                let v = m.reflectivity(start + i as f64 * 1e-4, 0.0);
                if v != last {
                    toggles += 1;
                }
                last = v;
            }
            toggles
        };
        let t0 = count_toggles(0.0);
        let t1 = count_toggles(0.1);
        assert!(t1 > t0 + 50, "bit1 ({t1}) should toggle ~2x bit0 ({t0})");
    }

    /// The switch phase `x − ⌊x⌋` is the value `x.rem_euclid(1.0)` gives
    /// (up to the sign of zero), so every duty comparison comes out the same:
    /// both are exact for `x ≥ 0`, and round the same exact value below.
    #[test]
    fn floor_phase_equals_rem_euclid() {
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        let mut checked = 0;
        while checked < 1_000_000 {
            bits = bits
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let any = f64::from_bits(bits);
            // Every exponent, and values just off integers of either sign.
            let near = (bits >> 40) as f64 * if bits & 1 == 0 { 1.0 } else { -1.0 };
            for x in [any, near, near.next_up(), near.next_down(), any * 1e-300] {
                if x.is_finite() {
                    assert_eq!(x - x.floor(), x.rem_euclid(1.0), "x = {x:e}");
                    checked += 1;
                }
            }
        }
    }

    #[test]
    fn empty_bits_absorb() {
        let m = TagModulation::OokBits {
            freq_hz: 1000.0,
            bit_duration_s: 1e-3,
            bits: vec![],
        };
        assert_eq!(m.reflectivity(0.0, 0.02), 0.02);
    }

    #[test]
    fn scatterer_motion() {
        let s = Scatterer::mover(10.0, -1.5, 1.0);
        assert_eq!(s.range_at(0.0), 10.0);
        assert!((s.range_at(2.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn tag_amplitude_modulates() {
        let s = Scatterer::tag(3.0, 2.0, 1000.0);
        let on = s.amplitude_at(0.0);
        let off = s.amplitude_at(0.00075);
        assert_eq!(on, 2.0);
        assert!((off - 0.02).abs() < 1e-12);
    }

    #[test]
    fn scene_builder() {
        let scene = Scene::new()
            .with(Scatterer::clutter(1.0, 1.0))
            .with(Scatterer::tag(3.0, 0.5, 2000.0));
        assert_eq!(scene.scatterers.len(), 2);
    }
}
