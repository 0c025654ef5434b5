//! Chirp trains: fixed-period slots with inter-chirp delays.
//!
//! BiScatter's packet structure (paper §3.1, Fig. 3) keeps a constant chirp
//! *period* `T_period` so that every downlink bit occupies the same wall-clock
//! slot regardless of its chirp duration. Each slot holds one chirp of
//! duration `T_chirp ≤ 0.8 · T_period` (the commercial-radar minimum
//! inter-chirp delay constraint \[18]) followed by an idle gap
//! `T_interC = T_period − T_chirp`.

use crate::chirp::Chirp;

/// Maximum fraction of the chirp period a sweep may occupy (paper §3.1).
pub const MAX_DUTY: f64 = 0.8;

/// One slot of a chirp train: a chirp plus its trailing inter-chirp delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpSlot {
    /// The chirp transmitted in this slot.
    pub chirp: Chirp,
    /// Idle time after the sweep, seconds.
    pub inter_delay: f64,
}

impl ChirpSlot {
    /// Total slot duration (`T_period`).
    pub fn period(&self) -> f64 {
        self.chirp.duration + self.inter_delay
    }
}

/// A frame: a sequence of equal-period slots, as emitted by the radar for one
/// packet (or one sensing burst).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChirpTrain {
    slots: Vec<ChirpSlot>,
}

impl ChirpTrain {
    /// Creates an empty train.
    pub fn new() -> Self {
        ChirpTrain::default()
    }

    /// Builds a train of chirps on a fixed period. Each chirp's inter-chirp
    /// delay is chosen as `T_period − T_chirp`.
    ///
    /// # Errors
    /// Returns an error naming the offending chirp if any duration exceeds
    /// `MAX_DUTY * period`.
    pub fn with_fixed_period(chirps: &[Chirp], period: f64) -> Result<Self, FrameError> {
        let mut train = ChirpTrain::new();
        for (i, &c) in chirps.iter().enumerate() {
            if c.duration > MAX_DUTY * period + 1e-15 {
                return Err(FrameError::DutyExceeded {
                    index: i,
                    duration: c.duration,
                    period,
                });
            }
            train.slots.push(ChirpSlot {
                chirp: c,
                inter_delay: period - c.duration,
            });
        }
        Ok(train)
    }

    /// Appends a slot.
    pub fn push(&mut self, slot: ChirpSlot) {
        self.slots.push(slot);
    }

    /// The slots in transmission order.
    pub fn slots(&self) -> &[ChirpSlot] {
        &self.slots
    }

    /// Number of chirps in the train.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the train holds no chirps.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total on-air duration of the train.
    pub fn duration(&self) -> f64 {
        self.slots.iter().map(|s| s.period()).sum()
    }

    /// Slot `i`'s shape: the index of the first slot whose chirp is bit-equal
    /// to slot `i`'s (`f0`, `bandwidth` and `duration` bits). Slots of one
    /// shape dechirp a static reflector to the same IF tone and map their
    /// range bins through the same IF correction, so the receive chain
    /// derives both once per shape. A header-padded ISAC frame has a handful
    /// of shapes: the 128-chirp `paper_9ghz` frame has 6, 119 of its slots
    /// sharing the header's.
    pub fn shape(&self, i: usize) -> usize {
        let bits = |c: &Chirp| [c.f0, c.bandwidth, c.duration].map(f64::to_bits);
        let key = bits(&self.slots[i].chirp);
        self.slots[..i]
            .iter()
            .position(|s| bits(&s.chirp) == key)
            .unwrap_or(i)
    }

    /// Start time of slot `i` relative to the train start.
    pub fn slot_start(&self, i: usize) -> f64 {
        self.slots[..i].iter().map(|s| s.period()).sum()
    }

    /// Iterates `(start_time, slot)` pairs.
    pub fn iter_timed(&self) -> impl Iterator<Item = (f64, &ChirpSlot)> {
        let mut t = 0.0;
        self.slots.iter().map(move |s| {
            let start = t;
            t += s.period();
            (start, s)
        })
    }

    /// True if every slot has the same period (within `tol` seconds).
    pub fn is_uniform_period(&self, tol: f64) -> bool {
        match self.slots.first() {
            None => true,
            Some(first) => {
                let p = first.period();
                self.slots.iter().all(|s| (s.period() - p).abs() <= tol)
            }
        }
    }
}

/// Errors constructing a chirp train.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// A chirp's duration exceeded the `MAX_DUTY` fraction of the period.
    DutyExceeded {
        /// Index of the offending chirp.
        index: usize,
        /// Its duration, seconds.
        duration: f64,
        /// The slot period, seconds.
        period: f64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::DutyExceeded {
                index,
                duration,
                period,
            } => write!(
                f,
                "chirp {index} duration {duration:.3e}s exceeds {MAX_DUTY} of period {period:.3e}s"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn chirp(dur_us: f64) -> Chirp {
        Chirp::new(9e9, 1e9, dur_us * 1e-6)
    }

    #[test]
    fn shape_is_the_first_bit_equal_slot() {
        let chirps = [
            chirp(80.0),
            chirp(40.0),
            chirp(80.0),
            chirp(60.0),
            chirp(40.0),
            Chirp::new(9.5e9, 1e9, 80e-6),
            chirp(80.0),
        ];
        let train = ChirpTrain::with_fixed_period(&chirps, 100e-6).unwrap();
        let shapes: Vec<usize> = (0..train.len()).map(|i| train.shape(i)).collect();
        assert_eq!(shapes, [0, 1, 0, 3, 1, 5, 0]);
        // Bits, not `==`: a negative zero carrier is its own shape.
        let signed = [Chirp::new(0.0, 1e9, 80e-6), Chirp::new(-0.0, 1e9, 80e-6)];
        let train = ChirpTrain::with_fixed_period(&signed, 100e-6).unwrap();
        assert_eq!((train.shape(0), train.shape(1)), (0, 1));
    }

    #[test]
    fn fixed_period_fills_delays() {
        let train = ChirpTrain::with_fixed_period(&[chirp(20.0), chirp(50.0), chirp(96.0)], 120e-6)
            .unwrap();
        assert_eq!(train.len(), 3);
        for slot in train.slots() {
            assert!((slot.period() - 120e-6).abs() < 1e-12);
        }
        assert!((train.slots()[0].inter_delay - 100e-6).abs() < 1e-12);
        assert!(train.is_uniform_period(1e-12));
    }

    #[test]
    fn duty_limit_enforced() {
        // 0.8 * 120 us = 96 us; 97 us must fail.
        let err = ChirpTrain::with_fixed_period(&[chirp(97.0)], 120e-6).unwrap_err();
        match err {
            FrameError::DutyExceeded { index, .. } => assert_eq!(index, 0),
        }
        // Exactly at the limit is allowed.
        assert!(ChirpTrain::with_fixed_period(&[chirp(96.0)], 120e-6).is_ok());
    }

    #[test]
    fn duration_and_slot_start() {
        let train = ChirpTrain::with_fixed_period(&[chirp(20.0), chirp(30.0)], 120e-6).unwrap();
        assert!((train.duration() - 240e-6).abs() < 1e-12);
        assert_eq!(train.slot_start(0), 0.0);
        assert!((train.slot_start(1) - 120e-6).abs() < 1e-12);
    }

    #[test]
    fn iter_timed_matches_slot_start() {
        let train = ChirpTrain::with_fixed_period(&[chirp(20.0), chirp(30.0), chirp(40.0)], 120e-6)
            .unwrap();
        for (i, (t, _)) in train.iter_timed().enumerate() {
            assert!((t - train.slot_start(i)).abs() < 1e-15);
        }
    }

    #[test]
    fn empty_train() {
        let train = ChirpTrain::new();
        assert!(train.is_empty());
        assert_eq!(train.duration(), 0.0);
        assert!(train.is_uniform_period(0.0));
    }

    #[test]
    fn non_uniform_detected() {
        let mut train = ChirpTrain::new();
        train.push(ChirpSlot {
            chirp: chirp(20.0),
            inter_delay: 100e-6,
        });
        train.push(ChirpSlot {
            chirp: chirp(20.0),
            inter_delay: 50e-6,
        });
        assert!(!train.is_uniform_period(1e-9));
    }

    #[test]
    fn error_displays() {
        let err = ChirpTrain::with_fixed_period(&[chirp(200.0)], 120e-6).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chirp 0"), "{msg}");
    }
}
