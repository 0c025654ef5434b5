//! Absolute bit pins for the tag downlink decoder.
//!
//! `frame_digest.rs` (runtime crate) pins the decoder only through four
//! frames' parsed payloads. This test pins everything the decoder
//! recovers, over 96 captures: for each it hashes (FNV-1a over `to_bits`)
//! the `estimate_period` and `estimate_slot_timing` outputs, then the
//! `DecodeResult` — period, offset, every decided symbol, and the parsed
//! payload or the parse error — or the `DecodeError`.
//!
//! The captures span the three geometries the decoder meets: `paper_9ghz`
//! frames of 128 chirps, the streaming geometry (`paper_9ghz` with
//! `frame_chirps = 32`), and `paper_24ghz` with its 3-bit alphabet. Within
//! each, SNR sweeps 2–31 dB (low enough that some decodes fail), payloads
//! run 1–12 bytes, and every third capture shifts the ADC clock by 8–96 µs.
//!
//! The constants were computed on x86_64 Linux. Capture synthesis runs
//! through the platform libm (`sin`, `cos`, `exp`), which may round
//! differently on other targets, so the test only runs where the constants
//! came from. A moved digest means decoder output bits moved, or the
//! captures they decode did: find out why before touching a constant. The
//! generator's own pin (`gaussian_stream_pinned` in `biscatter_dsp::signal`)
//! tells a moved noise stream apart from a moved decoder.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::link::packet::{DownlinkPacket, DownlinkSymbol};
use biscatter_core::radar::sequencer::isac_frame;
use biscatter_core::rf::frame::MAX_DUTY;
use biscatter_core::system::BiScatterSystem;
use biscatter_core::tag::acquisition::{estimate_period, estimate_slot_timing};
use biscatter_core::tag::decoder::{DecodeResult, DownlinkDecoder};

/// Captures per geometry.
const DECODES: usize = 32;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn symbol(&mut self, s: DownlinkSymbol) {
        self.u64(match s {
            DownlinkSymbol::Header => 1 << 32,
            DownlinkSymbol::Sync => 2 << 32,
            DownlinkSymbol::Data(v) => v as u64,
        });
    }

    fn result(&mut self, r: &DecodeResult) {
        self.f64(r.period_s);
        self.u64(r.offset_samples as u64);
        self.u64(r.symbols.len() as u64);
        r.symbols.iter().for_each(|&s| self.symbol(s));
        match &r.payload {
            Ok(bytes) => {
                self.u64(bytes.len() as u64);
                self.bytes(bytes);
            }
            Err(e) => self.bytes(format!("{e:?}").as_bytes()),
        }
    }
}

/// `(name, system)` per geometry, in the order of [`DIGESTS`].
fn geometries() -> Vec<(&'static str, BiScatterSystem)> {
    let paper = BiScatterSystem::paper_9ghz();
    let mut streaming = paper.clone();
    streaming.frame_chirps = 32;
    vec![
        ("paper_9ghz, 128 chirps", paper),
        ("paper_9ghz, 32 chirps", streaming),
        ("paper_24ghz, 3-bit", BiScatterSystem::paper_24ghz()),
    ]
}

/// Digest of [`DECODES`] captures decoded on `sys`, and how many of them
/// recovered the payload.
fn digest(sys: &BiScatterSystem, salt: u64) -> (u64, usize) {
    let decoder = DownlinkDecoder::new(sys.nominal_decider());
    let fs = decoder.decider.fs;
    let mut h = Fnv::new();
    let mut recovered = 0;
    let mut bytes = NoiseSource::new(salt ^ 0x5eed);
    for i in 0..DECODES {
        let len = 1 + i % 12;
        let payload: Vec<u8> = (0..len).map(|_| (bytes.uniform() * 256.0) as u8).collect();
        let snr_db = 2.0 + ((i * 7) % 30) as f64;
        let offset_s = if i % 3 == 2 {
            8e-6 * (1 + (i * 5) % 12) as f64
        } else {
            0.0
        };
        let packet = DownlinkPacket::new(payload.clone());
        let (mut train, _, _) =
            isac_frame(&packet, &sys.alphabet, sys.radar.t_period, sys.frame_chirps).unwrap();
        if offset_s > 0.0 {
            // The radar chirps on after the frame, so a late ADC clock still
            // sees a whole frame: model its next header chirp.
            let slot = *train.slots().first().unwrap();
            train.push(slot);
        }
        let mut noise = NoiseSource::new(salt.wrapping_mul(1000) + i as u64);
        let adc = sys
            .front_end
            .capture_train(&train, snr_db, offset_s, &mut noise);

        let coarse_s = estimate_period(&adc, fs, decoder.t_period_min, decoder.t_period_max);
        match coarse_s {
            Some(t) => {
                h.f64(t);
                let coarse = (t * fs).round() as usize;
                let (period, offset) = estimate_slot_timing(&adc, coarse, 1.0 - MAX_DUTY);
                h.f64(period);
                h.u64(offset as u64);
            }
            None => h.u64(u64::MAX),
        }
        match decoder.decode(&adc, Some(len)) {
            Ok(r) => {
                recovered += usize::from(r.payload.as_ref() == Ok(&payload));
                h.result(&r);
            }
            Err(e) => h.bytes(format!("{e:?}").as_bytes()),
        }
    }
    (h.0, recovered)
}

/// One digest per geometry, in [`geometries`] order.
const DIGESTS: [u64; 3] = [0x7c30392bd977dd11, 0x18169f7d32aa9e5a, 0x40f72c4af6168af0];

#[test]
fn decodes_match_recorded_digests() {
    let mut failures = Vec::new();
    for (i, ((name, sys), want)) in geometries().iter().zip(DIGESTS).enumerate() {
        let (got, recovered) = digest(sys, i as u64 + 1);
        // The sweep must keep both outcomes, or it pins only half the
        // decoder's paths.
        assert!(
            recovered > 0 && recovered < DECODES,
            "{name}: {recovered}/{DECODES} payloads recovered"
        );
        if got != want {
            failures.push(format!("{name}: got {got:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "decoder digests moved:\n{}",
        failures.join("\n")
    );
}
