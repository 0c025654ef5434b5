//! `cargo bench --bench multitag` — the PR-4 batched multi-tag detection
//! engine, recorded in `results/BENCH_multitag.json`:
//!
//! * per-frame detect cost (localize + uplink decode for all K tags) of the
//!   batched `detect_all` vs the sequential per-tag `locate_tag` +
//!   `demodulate` loop, at K = 1 / 8 / 64 / 256 tags on one 512-chirp ×
//!   4096-range-bin (high-range-resolution) frame;
//! * steady-state heap allocations of one batched pass (must be 0);
//! * a batched-vs-sequential bit-equality check at every K.
//!
//! `--quick` runs one pass per path and writes nothing, but still enforces
//! the bit-equality and zero-allocation assertions — the CI smoke mode
//! fails if the batched engine ever diverges from the per-tag loop.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_core::dsp::complex::Cpx;
use biscatter_core::json::Value;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::doppler::range_doppler;
use biscatter_core::radar::receiver::localize::locate_tag;
use biscatter_core::radar::receiver::multitag::{
    detect_all, MultiTagScratch, TagBank, TagDetection, TagProfile,
};
use biscatter_core::radar::receiver::uplink::{demodulate, UplinkScheme};
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_runtime::compute::ComputePool;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N_CHIRPS: usize = 512;
const N_RANGE: usize = 4096;
const T_PERIOD: f64 = 120e-6;
const MAX_TAGS: usize = 256;
const MIN_SNR_DB: f64 = 10.0;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Doppler bin of tag `t`: 1..=256, one tag per positive-half map row.
fn tag_bin(t: usize) -> usize {
    1 + t
}

fn tag_freq(t: usize) -> f64 {
    tag_bin(t) as f64 / (N_CHIRPS as f64 * T_PERIOD)
}

/// Range bin of tag `t`, spread over the grid with a stride coprime to its
/// length so neighbouring tags land far apart.
fn tag_range_bin(t: usize) -> usize {
    (13 + t * 61) % N_RANGE
}

fn profiles(k: usize) -> Vec<TagProfile> {
    (0..k)
        .map(|t| TagProfile {
            f_mod_hz: tag_freq(t),
            scheme: if t % 3 == 2 {
                UplinkScheme::Fsk {
                    freq0_hz: tag_freq(t),
                    freq1_hz: 2.0 * tag_freq(t),
                }
            } else {
                UplinkScheme::Ook {
                    freq_hz: tag_freq(t),
                }
            },
            bit_duration_s: 32.0 * T_PERIOD,
        })
        .collect()
}

/// Builds one synthetic aligned frame carrying all `MAX_TAGS` subcarrier
/// tags at distinct Doppler and range bins, over a deterministic
/// pseudo-noise background (so noise floors and SNRs are finite).
fn build_frame() -> AlignedFrame {
    let bin_of: Vec<usize> = (0..MAX_TAGS).map(tag_range_bin).collect();
    let mut frame = AlignedFrame::default();
    frame
        .profiles
        .layout_rows(std::iter::repeat(N_RANGE).take(N_CHIRPS));
    for c in 0..N_CHIRPS {
        let row = frame.profiles.row_mut(c);
        for (r, z) in row.iter_mut().enumerate() {
            let h = splitmix64((c * N_RANGE + r) as u64);
            *z = Cpx::new(1e-3 * (h & 0xFFFF) as f64 / 65536.0, 0.0);
        }
        let t_abs = c as f64 * T_PERIOD;
        for (t, &rb) in bin_of.iter().enumerate() {
            // 50%-duty square subcarrier at the tag's modulation
            // frequency: on-phase reflects, off-phase leaks 1%.
            let on = (t_abs * tag_freq(t)).rem_euclid(1.0) < 0.5;
            row[rb].re += if on { 1.0 } else { 0.01 };
        }
    }
    frame.range_grid = (0..N_RANGE)
        .map(|r| r as f64 * 0.0146)
        .collect::<Vec<f64>>()
        .into();
    frame.t_period = T_PERIOD;
    frame
}

/// The sequential per-tag baseline the engine replaces (and must match bit
/// for bit): K independent `locate_tag` + `demodulate` passes.
fn sequential_detect(
    frame: &AlignedFrame,
    map: &biscatter_core::radar::receiver::doppler::RangeDopplerMap,
    profiles: &[TagProfile],
    out: &mut Vec<TagDetection>,
) {
    out.clear();
    for p in profiles {
        let location = locate_tag(map, p.f_mod_hz, MIN_SNR_DB);
        let uplink = location
            .and_then(|loc| demodulate(frame.comms(), loc.range_bin, p.scheme, p.bit_duration_s));
        out.push(TagDetection { location, uplink });
    }
}

fn main() {
    let args = Args::parse();
    let samples = 15;
    let sampler = Sampler::new(&args, samples);

    let frame = build_frame();
    let map = range_doppler(frame.comms());
    let pool = ComputePool::new(1);

    let ks = [1usize, 8, 64, 256];
    let mut rows = Vec::new();
    let mut speedup_at_64 = 0.0;
    let mut steady_allocs_at_64 = 0;

    for k in ks {
        let tags = profiles(k);
        let mut bank = TagBank::new(tags.clone());
        bank.min_snr_db = MIN_SNR_DB;
        let mut scratch = MultiTagScratch::default();
        let mut batched = Vec::new();
        let mut reference = Vec::new();

        // --- Bit-equality: batched must match the per-tag loop exactly. --
        detect_all(
            &pool,
            &mut bank,
            &map,
            frame.comms(),
            &mut scratch,
            &mut batched,
        );
        sequential_detect(&frame, &map, &tags, &mut reference);
        assert_eq!(
            batched, reference,
            "batched K={k} diverged from the sequential per-tag loop"
        );
        let located = batched.iter().filter(|d| d.location.is_some()).count();
        let decoded = batched.iter().filter(|d| d.uplink.is_some()).count();
        assert_eq!(located, k, "K={k}: every synthetic tag must localize");
        assert_eq!(decoded, k, "K={k}: every synthetic tag must decode");

        // --- Steady-state allocations of one batched pass (at K=64). -----
        if k == 64 {
            detect_all(
                &pool,
                &mut bank,
                &map,
                frame.comms(),
                &mut scratch,
                &mut batched,
            );
            steady_allocs_at_64 = counted(|| {
                detect_all(
                    &pool,
                    &mut bank,
                    &map,
                    frame.comms(),
                    &mut scratch,
                    &mut batched,
                );
            })
            .1;
            assert_eq!(
                steady_allocs_at_64, 0,
                "batched multi-tag path allocated in steady state"
            );
            assert_eq!(batched, reference, "steady-state pass changed results");
        }

        // --- Per-frame detect latency, sequential vs batched. ------------
        let times = sampler.interleave(&mut [
            &mut || {
                sequential_detect(&frame, &map, &tags, &mut reference);
                black_box(reference.len());
            },
            &mut || {
                detect_all(
                    &pool,
                    &mut bank,
                    &map,
                    frame.comms(),
                    &mut scratch,
                    &mut batched,
                );
                black_box(batched.len());
            },
        ]);
        let (sequential, batch) = (&times[0], &times[1]);
        let speedup = sequential.median() / batch.median();
        if k == 64 {
            speedup_at_64 = speedup;
        }
        println!(
            "K={k:3}: sequential {sequential}, batched {batch}, speedup {speedup:.2}x \
             ({located}/{k} located, {decoded}/{k} decoded)",
        );
        let mut row = Fields::default();
        row.num("tags", k as f64)
            .row("sequential_frame", "ns", sequential)
            .row("batched_frame", "ns", batch)
            .num("speedup", speedup);
        rows.push(row.into());
    }

    let mut fields = Fields::default();
    fields
        .num("n_chirps", N_CHIRPS as f64)
        .num("n_range_bins", N_RANGE as f64)
        .set("per_k", Value::Array(rows))
        .num("speedup_at_64", speedup_at_64)
        .num("steady_state_allocs", steady_allocs_at_64 as f64)
        .set("bit_identical", Value::Bool(true));
    harness::record(
        &args,
        "multitag",
        "batched multi-tag detection",
        &format!(
            "one-pass localization + uplink decode for K registered tags on one \
             {N_CHIRPS}-chirp x {N_RANGE}-range-bin frame, {samples} interleaved samples after \
             warm-up on a 1-thread pool; sequential = per-tag locate_tag + demodulate loop, \
             batched = multitag::detect_all with a warm TagBank + MultiTagScratch. speedup is \
             the ratio of medians. steady_state_allocs counted by obs::alloc over one batched \
             K=64 pass; acceptance: 0 allocs, bit-identical outputs at every K, and >= 3x at \
             K=64."
        ),
        fields,
    );

    if !args.quick {
        assert!(
            speedup_at_64 >= 3.0,
            "acceptance: batched K=64 must be >= 3x the per-tag loop, got {speedup_at_64:.2}x"
        );
    }
}
