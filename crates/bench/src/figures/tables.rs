//! Table artifacts: the Table-1 capability matrix and the §4.1 power /
//! eq. 14 data-rate tables.

use biscatter_core::baselines;
use biscatter_core::experiment::{Experiment, SweepPoint};
use biscatter_core::radar::cssk::CsskAlphabet;
use biscatter_core::tag::power::{average_power_mw, ComponentPowers, OperatingMode};

/// **Table 1**: the capability matrix, encoded numerically (1 = supported).
pub fn table1_capabilities() -> Experiment {
    let mut e = Experiment::new(
        "table1_capabilities",
        "Capability matrix (1 = supported): row order Millimetro, mmTag, MilBack, BiScatter",
    );
    for (i, s) in baselines::table1().iter().enumerate() {
        e.points.push(SweepPoint::new(
            &[("system", i as f64)],
            &[
                ("uplink", s.caps.uplink as u8 as f64),
                ("downlink", s.caps.downlink as u8 as f64),
                ("localization", s.caps.tag_localization as u8 as f64),
                ("integrated_isac", s.caps.integrated_isac as u8 as f64),
                ("commodity_radar", s.caps.commodity_radar as u8 as f64),
            ],
        ));
    }
    e
}

/// **§4.1 + eq. 14**: tag power by operating mode and downlink data rate vs
/// symbol size, including the paper's 0.1 Mbps example point (10-bit symbols
/// at 100 µs period).
pub fn table_power_datarate() -> Experiment {
    let mut e = Experiment::new(
        "table_power_datarate",
        "Tag power (mW) per mode and downlink data rate (kbps) vs symbol size",
    );
    let proto = ComponentPowers::prototype();
    let ic = ComponentPowers::custom_ic_projection();
    e.points.push(SweepPoint::new(
        &[("row", 0.0)],
        &[
            (
                "continuous_mw",
                average_power_mw(&proto, OperatingMode::Continuous),
            ),
            (
                "sequential_50pct_mw",
                average_power_mw(
                    &proto,
                    OperatingMode::Sequential {
                        downlink_fraction: 0.5,
                    },
                ),
            ),
            (
                "sequential_uplink_only_mw",
                average_power_mw(
                    &proto,
                    OperatingMode::Sequential {
                        downlink_fraction: 0.0,
                    },
                ),
            ),
            (
                "custom_ic_mw",
                average_power_mw(&ic, OperatingMode::Continuous),
            ),
        ],
    ));
    // Data rates: eq. 14 at the evaluation T_period = 120 µs, plus the
    // paper's 10-bit / 100 µs example.
    for bits in [2usize, 3, 5, 7, 10] {
        let t_period = if bits == 10 { 100e-6 } else { 120e-6 };
        let t_min = if bits == 10 { 10e-6 } else { 20e-6 };
        let rate = match CsskAlphabet::new(9e9, 1e9, bits, t_min, t_period) {
            Ok(a) => a.data_rate_bps(t_period),
            Err(_) => f64::NAN,
        };
        e.points.push(SweepPoint::new(
            &[("row", bits as f64)],
            &[
                ("symbol_bits", bits as f64),
                ("t_period_us", t_period * 1e6),
                ("data_rate_kbps", rate / 1e3),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let e = table1_capabilities();
        assert_eq!(e.points.len(), 4);
        // Row 3 = BiScatter: all ones.
        let bi = &e.points[3];
        for m in [
            "uplink",
            "downlink",
            "localization",
            "integrated_isac",
            "commodity_radar",
        ] {
            assert_eq!(bi.metric(m), Some(1.0), "{m}");
        }
        // Row 0 = Millimetro: localization only.
        assert_eq!(e.points[0].metric("uplink"), Some(0.0));
        assert_eq!(e.points[0].metric("localization"), Some(1.0));
    }

    #[test]
    fn power_and_datarate_anchors() {
        let e = table_power_datarate();
        let power_row = &e.points[0];
        let cont = power_row.metric("continuous_mw").unwrap();
        assert!((cont - 48.0).abs() < 0.5, "continuous {cont} mW");
        let ic = power_row.metric("custom_ic_mw").unwrap();
        assert!((ic - 4.0).abs() < 0.5, "IC projection {ic} mW");
        assert!(power_row.metric("sequential_uplink_only_mw").unwrap() < 0.1);
        // The paper's 0.1 Mbps example: 10 bits at 100 µs.
        let r10 = e
            .points
            .iter()
            .find(|p| p.metric("symbol_bits") == Some(10.0))
            .unwrap()
            .metric("data_rate_kbps")
            .unwrap();
        assert!((r10 - 100.0).abs() < 1e-9, "10-bit rate {r10} kbps");
        // 5 bits at 120 µs ≈ 41.7 kbps (the §6 "50-100 kbps" regime).
        let r5 = e
            .points
            .iter()
            .find(|p| p.metric("symbol_bits") == Some(5.0))
            .unwrap()
            .metric("data_rate_kbps")
            .unwrap();
        assert!((r5 - 41.67).abs() < 0.1);
    }
}
