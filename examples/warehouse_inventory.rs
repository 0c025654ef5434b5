//! Warehouse inventory: the paper's motivating scenario (§1, Fig. 1).
//!
//! A radar-equipped drone flies a warehouse aisle. Shelf-mounted BiScatter
//! tags carry asset records. The drone: (1) assigns each tag a unique
//! subcarrier frequency over the downlink broadcast, (2) localizes every tag
//! from a single frame by scanning the assigned subcarriers, and
//! (3) queries each tag's data register over the two-way link — all while
//! its radar keeps mapping the (cluttered) aisle.
//!
//! Run with: `cargo run --release --example warehouse_inventory`

use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::isac::{run_isac_frame, ClutterSpec, IsacScenario};
use biscatter_core::link::coding::{decode_bytes, encode_bytes};
use biscatter_core::link::mac::TagId;
use biscatter_core::radar::receiver::uplink::UplinkScheme;
use biscatter_core::system::BiScatterSystem;

/// One deployed asset tag.
struct Asset {
    id: TagId,
    range_m: f64,
    azimuth_deg: f64,
    label: &'static str,
    record: Vec<u8>,
}

fn main() {
    let mut sys = BiScatterSystem::paper_9ghz();
    // Inventory frames are long (1280 chirps ≈ 154 ms) so a whole
    // Hamming(7,4)-coded uplink record fits in one frame at 4 ms/bit.
    sys.frame_chirps = 1280;
    println!("Warehouse inventory over BiScatter ({})\n", sys.radar.name);

    let assets = [
        Asset {
            id: TagId(1),
            range_m: 2.3,
            azimuth_deg: -20.0,
            label: "pallet A-12",
            record: vec![0xA1, 0x2C],
        },
        Asset {
            id: TagId(2),
            range_m: 4.8,
            azimuth_deg: 12.0,
            label: "crate B-07",
            record: vec![0xB0, 0x73],
        },
        Asset {
            id: TagId(3),
            range_m: 5.8,
            azimuth_deg: 28.0,
            label: "drum C-03",
            record: vec![0xC0, 0x35],
        },
    ];

    // Step 1: the drone assigns non-colliding subcarriers, 64 Doppler bins
    // apart from 1 kHz up. With 1280-chirp frames a bin is 6.5 Hz wide, so
    // the tags sit 417 Hz apart and every subcarrier keeps several cycles
    // per uplink bit.
    let spacing_hz = 64.0 * (1.0 / (sys.frame_chirps as f64 * sys.radar.t_period));
    println!("subcarrier plan (64 Doppler bins apart):");
    let freqs: Vec<f64> = assets
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let f = 1000.0 + i as f64 * spacing_hz;
            println!("  tag {:?} <- {:.0} Hz", a.id, f);
            f
        })
        .collect();

    // The shared aisle clutter (racking, floor bounce, far wall).
    let clutter = vec![
        ClutterSpec {
            range_m: 1.1,
            relative_amp: 10.0,
        },
        ClutterSpec {
            range_m: 3.6,
            relative_amp: 7.0,
        },
        ClutterSpec {
            range_m: 9.2,
            relative_amp: 14.0,
        },
    ];

    // Step 2+3: one polling frame per tag — downlink QueryData, localize,
    // and demodulate the uplink record.
    println!("\ninventory sweep:");
    let mut rng = NoiseSource::new(99);
    let mut found = 0;
    let mut records_read = 0;
    for (asset, &f_mod) in assets.iter().zip(&freqs) {
        let mut scenario = IsacScenario::single_tag(asset.range_m, f_mod);
        scenario.clutter = clutter.clone();
        // The tag answers QueryData with its Hamming(7,4)-coded record,
        // OOK on its subcarrier (single-bit uplink errors self-correct).
        let coded = encode_bytes(&asset.record);
        scenario.uplink_bits =
            biscatter_core::link::packet::UplinkFrame::new(coded.clone()).to_bits();
        scenario.uplink_scheme = UplinkScheme::Ook { freq_hz: f_mod };
        scenario.uplink_bit_duration_s = 32.0 * sys.radar.t_period;

        let seed = 7000 + (rng.uniform() * 1e6) as u64;
        let out = run_isac_frame(&sys, &scenario, b"QRY?", seed);

        // 2D fix from the drone's 2-element RX array (extension module).
        let aoa = {
            use biscatter_compute::ComputePool;
            use biscatter_core::radar::receiver::align_frame;
            use biscatter_core::radar::receiver::aoa::locate_tag_2d;
            use biscatter_core::rf::chirp::Chirp;
            use biscatter_core::rf::frame::ChirpTrain;
            use biscatter_core::rf::if_gen::IfReceiver;
            use biscatter_core::rf::scene::{Scatterer, Scene};
            use biscatter_core::rf::slab::SampleSlab;
            let az = asset.azimuth_deg.to_radians();
            let mut scene2 =
                Scene::new().with(Scatterer::tag(asset.range_m, 0.5, f_mod).at_azimuth(az));
            for c in &clutter {
                scene2 = scene2.with(Scatterer::clutter(c.range_m, c.relative_amp * 0.5));
            }
            let chirps = vec![Chirp::new(sys.radar.f0, sys.radar.bandwidth, 96e-6); 128];
            let train = ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period).unwrap();
            let rx2 = IfReceiver {
                sample_rate_hz: sys.rx.if_sample_rate,
                noise_sigma: 0.02,
            };
            let mut n2 = biscatter_core::dsp::signal::NoiseSource::new(seed ^ 0xA0A);
            let mut capture = vec![SampleSlab::new(); 2];
            let pool = ComputePool::global();
            rx2.dechirp_train_array_into(pool, &train, &scene2, 0.0, 0.5, &mut n2, &mut capture);
            let frames: Vec<_> = capture
                .iter()
                .map(|slab| align_frame(&sys.rx, &train, slab))
                .collect();
            locate_tag_2d(&frames, 0.5, f_mod, 10.0)
        };

        match out.location {
            Some(loc) => {
                found += 1;
                let err_cm = (loc.range_m - asset.range_m).abs() * 100.0;
                let record = out
                    .uplink_bits
                    .as_deref()
                    .and_then(|bits| {
                        biscatter_core::link::packet::UplinkFrame::from_bits(
                            bits,
                            asset.record.len() * 2,
                            1,
                        )
                    })
                    .map(|f| decode_bytes(&f.payload));
                let record_status = match &record {
                    Some((r, fixes)) if *r == asset.record => {
                        records_read += 1;
                        format!("record {:02X?} ✓ ({fixes} FEC fixes)", r)
                    }
                    Some((r, _)) => format!("record {:02X?} (corrupt)", r),
                    None => "record unreadable".to_string(),
                };
                let xy = aoa
                    .map(|p| {
                        let (x, y) = p.cartesian();
                        format!(
                            "({x:5.2}, {y:4.2}) m @ {:+5.1}°",
                            p.azimuth_rad.to_degrees()
                        )
                    })
                    .unwrap_or_else(|| "no 2D fix".to_string());
                println!(
                    "  {:11} @ {:.2} m (err {:4.1} cm, {:4.1} dB)  {}  pos {}",
                    asset.label, loc.range_m, err_cm, loc.snr_db, record_status, xy
                );
            }
            None => println!("  {:11} NOT FOUND", asset.label),
        }
    }
    println!("\n{found}/{} assets inventoried.", assets.len());
    assert_eq!(found, assets.len(), "all assets should be found");
    assert_eq!(
        records_read,
        assets.len(),
        "every asset's record should read back"
    );
}
