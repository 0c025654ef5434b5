//! # biscatter-bench — paper-figure reproduction harness
//!
//! One function per table/figure of the paper's evaluation, each returning a
//! [`biscatter_core::experiment::Experiment`] whose rows mirror what the
//! paper plots. The `repro` binary runs these; the `cargo bench` targets
//! time and record through [`harness`].
//!
//! Fidelity knob: the environment variable `BISCATTER_FRAMES` scales the
//! Monte-Carlo frame count per operating point (default 60; the paper uses
//! 10 000 — set `BISCATTER_FRAMES=10000` for a full run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;

use biscatter_core::dsp::Real;
use biscatter_core::experiment::Experiment;
use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, doppler_stage_into, SynthesizedFrame,
};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::compute::ComputePool;

/// JSON fragment recording the SIMD dispatch configuration of the current
/// process — tier name, lane widths, and the detected CPU feature set.
///
/// Every `results/BENCH_*.json` writer splices this in so a perf number can
/// never be read without knowing which kernels produced it (a scalar-forced
/// CI run and an AVX2 desktop run are different experiments). Honors
/// `BISCATTER_SIMD=scalar|auto` through [`biscatter_core::dsp::dispatch`].
pub fn dispatch_json_fields() -> String {
    let t = biscatter_core::dsp::dispatch::tier();
    format!(
        "\"dispatch_tier\": \"{}\",\n  \"simd_lanes_f64\": {},\n  \"simd_lanes_f32\": {},\n  \"cpu_features\": \"{}\"",
        t.name(),
        t.lanes_f64(),
        t.lanes_f32(),
        biscatter_core::dsp::dispatch::detected_cpu_features(),
    )
}

/// Stages 2–4 of one frame (dechirp → align → doppler) in precision `T`,
/// the hot path the `frame`, `obs` and `fleet` benches time and audit: the
/// IF samples go through `slab`, and the outputs are left in `frame` and
/// `map`.
pub fn hot_stages<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    slab: &mut SampleSlab<T>,
    frame: &mut AlignedFrame<T>,
    map: &mut RangeDopplerMap,
    seed: u64,
) {
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, slab);
    align_stage_into(pool, sys, &synth.train, slab, frame);
    doppler_stage_into(pool, frame, map);
}

/// Monte-Carlo frames per operating point (`BISCATTER_FRAMES`, default 60).
pub fn frames_per_point() -> usize {
    std::env::var("BISCATTER_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Frames per point for the heavier ISAC/localization experiments
/// (`BISCATTER_ISAC_FRAMES`, default 8).
pub fn isac_frames_per_point() -> usize {
    std::env::var("BISCATTER_ISAC_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// A registered reproduction experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable id (matches the bench target name).
    pub name: &'static str,
    /// What paper artifact it regenerates.
    pub paper_artifact: &'static str,
    /// The generator.
    pub run: fn() -> Experiment,
}

/// Every reproduction experiment, in paper order.
pub fn all_specs() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            name: "fig05_beat_frequency",
            paper_artifact: "Figure 5 — beat frequency vs chirp duration",
            run: figures::phy::fig05_beat_frequency,
        },
        ExperimentSpec {
            name: "fig06_fft_windows",
            paper_artifact: "Figure 6 — FFT window size/alignment cases",
            run: figures::phy::fig06_fft_windows,
        },
        ExperimentSpec {
            name: "fig07_if_correction",
            paper_artifact: "Figure 7 — range-profile ambiguity and IF correction",
            run: figures::phy::fig07_if_correction,
        },
        ExperimentSpec {
            name: "fig10_11_delay_line",
            paper_artifact: "Figures 10–11 — PCB delay line S11/insertion loss/delay",
            run: figures::phy::fig10_11_delay_line,
        },
        ExperimentSpec {
            name: "fig12_ber_symbol_size",
            paper_artifact: "Figure 12 — downlink BER vs symbol size × bandwidth",
            run: figures::comm::fig12_ber_symbol_size,
        },
        ExperimentSpec {
            name: "fig13_ber_distance",
            paper_artifact: "Figure 13 — downlink BER vs distance × symbol size",
            run: figures::comm::fig13_ber_distance,
        },
        ExperimentSpec {
            name: "fig14_ber_delay_line",
            paper_artifact: "Figure 14 — downlink BER vs SNR × delay-line ΔL",
            run: figures::comm::fig14_ber_delay_line,
        },
        ExperimentSpec {
            name: "fig15_uplink_snr",
            paper_artifact: "Figure 15 — uplink SNR vs distance (retro vs specular)",
            run: figures::isac::fig15_uplink_snr,
        },
        ExperimentSpec {
            name: "fig16_localization",
            paper_artifact: "Figure 16 — localization error, sensing-only vs during comms",
            run: figures::isac::fig16_localization,
        },
        ExperimentSpec {
            name: "fig17_mmwave",
            paper_artifact: "Figure 17 — BER vs SNR, 9 GHz vs 24 GHz at 250 MHz",
            run: figures::comm::fig17_mmwave,
        },
        ExperimentSpec {
            name: "table1_capabilities",
            paper_artifact: "Table 1 — capability comparison",
            run: figures::tables::table1_capabilities,
        },
        ExperimentSpec {
            name: "ablation_gray_mapping",
            paper_artifact: "Ablation — Gray vs natural bit mapping (DESIGN.md §4.1)",
            run: figures::ablations::ablation_gray_mapping,
        },
        ExperimentSpec {
            name: "ablation_spreading",
            paper_artifact: "Extension — chirp-spread-spectrum coding (paper §6)",
            run: figures::ablations::ablation_spreading,
        },
        ExperimentSpec {
            name: "ablation_background_subtraction",
            paper_artifact: "Ablation — first-chirp background subtraction (paper §3.3)",
            run: figures::ablations::ablation_background_subtraction,
        },
        ExperimentSpec {
            name: "extension_aoa_2d",
            paper_artifact: "Extension — 2D localization via RX-array AoA",
            run: figures::ablations::extension_aoa_2d,
        },
        ExperimentSpec {
            name: "ablation_goertzel_vs_fft",
            paper_artifact: "Ablation — Goertzel bank vs full FFT decode cost (paper §4.1)",
            run: figures::ablations::ablation_goertzel_vs_fft,
        },
        ExperimentSpec {
            name: "table_power_datarate",
            paper_artifact: "§4.1 power budget and §3.2.2/eq.14 data rates",
            run: figures::tables::table_power_datarate,
        },
    ]
}
