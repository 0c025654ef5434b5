//! Ground-truth checks: every measured frame's outcome against what the
//! workload generator put on air.
//!
//! A ratio with nothing to check reads 1 (no check of that kind failed), so
//! each quality metric exists on every workload; the check counts travel
//! with the result, so a reader can tell a vacuous 1 from a measured one.

use biscatter_core::isac::{ColdStartOutcome, IsacOutcome, IsacScenario};
use biscatter_core::obs::json::Value;
use biscatter_core::radar::receiver::RxConfig;
use std::collections::BTreeMap;

/// A tag counts as located when the reported range is within one range
/// resolution cell (c / 2B = 0.15 m at the 1 GHz sweep) of its true range.
pub const RANGE_TOLERANCE_M: f64 = 0.15;

/// The range error charged to a tag the frame did not locate at all: the
/// receiver's whole range window.
fn unlocated_error_m() -> f64 {
    RxConfig::default().max_range_m
}

/// Passed checks over checks made, per kind, and every tag's range error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    pub downlink_ok: u64,
    pub downlink_n: u64,
    pub located_ok: u64,
    pub located_n: u64,
    pub bits_ok: u64,
    pub bits_n: u64,
    pub acquire_ok: u64,
    pub acquire_n: u64,
    /// |reported − true| range of every tag checked, m (kept by the slice
    /// that made the checks; not carried in the JSON).
    pub range_err_m: Vec<f64>,
}

fn ratio(ok: u64, n: u64) -> f64 {
    if n == 0 {
        1.0
    } else {
        ok as f64 / n as f64
    }
}

impl Quality {
    pub fn downlink_ok_ratio(&self) -> f64 {
        ratio(self.downlink_ok, self.downlink_n)
    }
    pub fn uplink_bits_ok_ratio(&self) -> f64 {
        ratio(self.bits_ok, self.bits_n)
    }
    pub fn acquire_correct_ratio(&self) -> f64 {
        ratio(self.acquire_ok, self.acquire_n)
    }

    /// Compares decoded bits with the sent ones; a missing or extra bit
    /// counts as an error.
    pub fn bits(&mut self, sent: &[bool], decoded: &[bool]) {
        self.bits_n += sent.len().max(decoded.len()) as u64;
        self.bits_ok += sent.iter().zip(decoded).filter(|(a, b)| a == b).count() as u64;
    }

    /// Checks one aligned frame: the downlink payload, every tag's location
    /// (primary first, then `extra_tags`), and — when `with_bits` — every
    /// tag's uplink bits. The fleet passes `with_bits = false` because it
    /// checks uplink bits on the reassembled sessions instead.
    pub fn frame(
        &mut self,
        scenario: &IsacScenario,
        payload: &[u8],
        out: &IsacOutcome,
        with_bits: bool,
    ) {
        self.downlink_n += 1;
        self.downlink_ok += (out.downlink.parsed && out.downlink.received == payload) as u64;

        let truth = std::iter::once((scenario.tag_range_m, &scenario.uplink_bits)).chain(
            scenario
                .extra_tags
                .iter()
                .map(|t| (t.range_m, &t.uplink_bits)),
        );
        for (i, (range_m, sent)) in truth.enumerate() {
            // Single-tag outcomes carry only the primary, in the top-level
            // fields; batched ones carry every tag in `tags`.
            let (location, decoded) = if out.tags.is_empty() {
                let primary = i == 0;
                (
                    out.location.filter(|_| primary),
                    out.uplink_bits.as_deref().filter(|_| primary),
                )
            } else {
                let t = out.tags.get(i);
                (
                    t.and_then(|t| t.location),
                    t.and_then(|t| t.uplink.as_ref()).map(|u| &u.bits[..]),
                )
            };
            let err = location.map_or(unlocated_error_m(), |l| (l.range_m - range_m).abs());
            self.range_err_m.push(err);
            self.located_n += 1;
            self.located_ok += (err <= RANGE_TOLERANCE_M) as u64;
            if with_bits && !sent.is_empty() {
                self.bits(sent, decoded.unwrap_or(&[]));
            }
        }
    }

    /// Checks a cold-start frame: acquisition must accept exactly when the
    /// tag is present, on the slope it sweeps. A present tag's frame is then
    /// checked like any other; one that was wrongly rejected fails every
    /// check the frame would have made.
    pub fn cold_start(&mut self, scenario: &IsacScenario, payload: &[u8], out: &ColdStartOutcome) {
        let Some(spec) = scenario.cold_start else {
            if let Some(frame) = &out.frame {
                self.frame(scenario, payload, frame, true);
            }
            return;
        };
        self.acquire_n += 1;
        let verdict_ok = match out.acquisition {
            Some(a) => spec.tag_present && a.hypothesis == spec.slope_idx,
            None => !spec.tag_present,
        };
        self.acquire_ok += verdict_ok as u64;
        if !spec.tag_present {
            return;
        }
        match &out.frame {
            Some(frame) => self.frame(scenario, payload, frame, true),
            None => {
                let tags = 1 + scenario.extra_tags.len();
                self.downlink_n += 1;
                self.located_n += tags as u64;
                self.range_err_m
                    .extend(std::iter::repeat(unlocated_error_m()).take(tags));
                self.bits(&scenario.uplink_bits, &[]);
            }
        }
    }

    pub fn add(&mut self, o: &Quality) {
        self.downlink_ok += o.downlink_ok;
        self.downlink_n += o.downlink_n;
        self.located_ok += o.located_ok;
        self.located_n += o.located_n;
        self.bits_ok += o.bits_ok;
        self.bits_n += o.bits_n;
        self.acquire_ok += o.acquire_ok;
        self.acquire_n += o.acquire_n;
        self.range_err_m.extend_from_slice(&o.range_err_m);
    }

    pub fn to_json(&self) -> Value {
        let fields = [
            ("downlink_ok", self.downlink_ok),
            ("downlink_n", self.downlink_n),
            ("located_ok", self.located_ok),
            ("located_n", self.located_n),
            ("bits_ok", self.bits_ok),
            ("bits_n", self.bits_n),
            ("acquire_ok", self.acquire_ok),
            ("acquire_n", self.acquire_n),
        ];
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Number(*v as f64)))
                .collect::<BTreeMap<_, _>>(),
        )
    }

    pub fn from_json(v: &Value) -> Quality {
        let g = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        Quality {
            downlink_ok: g("downlink_ok"),
            downlink_n: g("downlink_n"),
            located_ok: g("located_ok"),
            located_n: g("located_n"),
            bits_ok: g("bits_ok"),
            bits_n: g("bits_n"),
            acquire_ok: g("acquire_ok"),
            acquire_n: g("acquire_n"),
            range_err_m: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_core::downlink::FrameOutcome;
    use biscatter_core::isac::{ColdStartSpec, TagDeployment};
    use biscatter_core::radar::receiver::acquire::Acquisition;
    use biscatter_core::radar::receiver::localize::TagLocation;
    use biscatter_core::radar::receiver::multitag::TagDetection;
    use biscatter_core::radar::receiver::uplink::{UplinkDecode, UplinkScheme};

    fn located(range_m: f64) -> Option<TagLocation> {
        Some(TagLocation {
            range_m,
            range_bin: 0,
            peak_power: 1.0,
            snr_db: 20.0,
        })
    }

    fn outcome(payload: &[u8], range_m: f64, bits: Option<Vec<bool>>) -> IsacOutcome {
        IsacOutcome {
            downlink: FrameOutcome {
                sent: payload.to_vec(),
                received: payload.to_vec(),
                parsed: true,
            },
            location: located(range_m),
            uplink_bits: bits,
            detections: Vec::new(),
            tags: Vec::new(),
        }
    }

    #[test]
    fn single_tag_frame_checks_payload_range_and_bits() {
        let mut scenario = IsacScenario::single_tag(3.0, 1302.0);
        scenario.uplink_bits = vec![true, false, true, true];
        let mut q = Quality::default();
        q.frame(
            &scenario,
            b"CMD1",
            &outcome(b"CMD1", 3.1, Some(vec![true, false, false, true])),
            true,
        );
        assert_eq!((q.downlink_ok, q.downlink_n), (1, 1));
        assert_eq!((q.located_ok, q.located_n), (1, 1));
        assert!((q.range_err_m[0] - 0.1).abs() < 1e-12);
        assert_eq!((q.bits_ok, q.bits_n), (3, 4));

        // Wrong payload, tag 0.2 m off, no bits decoded.
        let mut bad = outcome(b"CMDX", 3.2, None);
        bad.downlink.received = b"CMDX".to_vec();
        let mut q = Quality::default();
        q.frame(&scenario, b"CMD1", &bad, true);
        assert_eq!(q.downlink_ok, 0);
        assert_eq!(q.located_ok, 0);
        assert_eq!((q.bits_ok, q.bits_n), (0, 4));
        assert_eq!(q.uplink_bits_ok_ratio(), 0.0);
    }

    #[test]
    fn unparsed_downlink_fails_even_with_matching_bytes() {
        let scenario = IsacScenario::single_tag(3.0, 1302.0);
        let mut out = outcome(b"CMD1", 3.0, None);
        out.downlink.parsed = false;
        let mut q = Quality::default();
        q.frame(&scenario, b"CMD1", &out, true);
        assert_eq!((q.downlink_ok, q.downlink_n), (0, 1));
    }

    #[test]
    fn multi_tag_frame_checks_every_tag_and_skips_bits_when_asked() {
        let scenario = IsacScenario::single_tag(2.0, 300.0).with_extra_tag(TagDeployment {
            range_m: 2.8,
            mod_freq_hz: 400.0,
            uplink_bits: vec![true, true],
            uplink_scheme: UplinkScheme::Ook { freq_hz: 400.0 },
            uplink_bit_duration_s: 1e-3,
        });
        let mut out = outcome(b"X", 2.0, None);
        out.tags = vec![
            TagDetection {
                location: located(2.0),
                uplink: None,
            },
            TagDetection {
                location: located(4.0),
                uplink: Some(UplinkDecode {
                    bits: vec![true, true, false],
                    ..UplinkDecode::default()
                }),
            },
        ];
        let mut q = Quality::default();
        q.frame(&scenario, b"X", &out, true);
        assert_eq!((q.located_ok, q.located_n), (1, 2));
        // Two matches, one extra bit.
        assert_eq!((q.bits_ok, q.bits_n), (2, 3));

        let mut q = Quality::default();
        q.frame(&scenario, b"X", &out, false);
        assert_eq!(q.bits_n, 0);
        assert_eq!(q.uplink_bits_ok_ratio(), 1.0);
    }

    #[test]
    fn cold_start_verdict_needs_presence_and_slope() {
        let mut scenario = IsacScenario::single_tag(3.0, 1302.0);
        let spec = ColdStartSpec {
            timing_offset_s: 1e-5,
            slope_idx: 2,
            tag_present: true,
        };
        scenario.cold_start = Some(spec);
        let acq = |hypothesis| Acquisition {
            hypothesis,
            slope_hz_per_s: 1.0,
            duration_s: 1.0,
            offset_samples: 0,
            offset_s: 0.0,
            pslr_db: 20.0,
        };
        let accepted = |h| ColdStartOutcome {
            acquisition: Some(acq(h)),
            scores: Vec::new(),
            frame: Some(outcome(b"GO", 3.0, None)),
        };
        let rejected = ColdStartOutcome {
            acquisition: None,
            scores: Vec::new(),
            frame: None,
        };

        let mut q = Quality::default();
        q.cold_start(&scenario, b"GO", &accepted(2));
        assert_eq!((q.acquire_ok, q.acquire_n), (1, 1));
        assert_eq!((q.downlink_ok, q.located_ok), (1, 1));

        let mut q = Quality::default();
        q.cold_start(&scenario, b"GO", &accepted(1));
        assert_eq!(q.acquire_ok, 0, "wrong slope hypothesis");

        // A present tag wrongly rejected fails the frame's checks too.
        let mut q = Quality::default();
        q.cold_start(&scenario, b"GO", &rejected);
        assert_eq!((q.acquire_ok, q.downlink_ok, q.downlink_n), (0, 0, 1));
        assert_eq!((q.located_ok, q.located_n), (0, 1));
        assert_eq!(q.range_err_m, vec![unlocated_error_m()]);

        // A noise-only dwell must be rejected, and nothing else is checked.
        scenario.cold_start = Some(ColdStartSpec {
            tag_present: false,
            ..spec
        });
        let mut q = Quality::default();
        q.cold_start(&scenario, b"GO", &rejected);
        assert_eq!((q.acquire_ok, q.acquire_n, q.downlink_n), (1, 1, 0));
        let mut q = Quality::default();
        q.cold_start(&scenario, b"GO", &accepted(2));
        assert_eq!((q.acquire_ok, q.acquire_n), (0, 1));
    }

    #[test]
    fn empty_checks_read_as_one_and_json_round_trips() {
        let q = Quality::default();
        assert_eq!(q.downlink_ok_ratio(), 1.0);
        assert_eq!(q.acquire_correct_ratio(), 1.0);
        let q = Quality {
            downlink_ok: 3,
            downlink_n: 4,
            bits_n: 9,
            ..Quality::default()
        };
        assert_eq!(Quality::from_json(&q.to_json()), q);
        assert_eq!(q.downlink_ok_ratio(), 0.75);
    }
}
