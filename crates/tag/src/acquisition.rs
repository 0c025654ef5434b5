//! Chirp-period estimation and slot alignment (paper §3.2.2, Fig. 6).
//!
//! The tag's ADC free-runs; it does not know the radar's chirp period or
//! where slots begin. The paper's procedure: run a *large* FFT window across
//! several header bits to find the chirp period, then slide a chirp-sized
//! window to align. Here:
//!
//! * [`estimate_period`] — autocorrelation of the envelope power over
//!   plausible period lags. The header's repeating on/off envelope peaks the
//!   autocorrelation exactly at `T_period`.
//! * [`estimate_slot_timing`] — the joint period/offset search that aligns
//!   slot boundaries (Fig. 6(e)).

/// Estimates the chirp period (seconds) from raw ADC samples by normalized
/// autocorrelation of instantaneous power. Searches lags in
/// `[t_min_s, t_max_s]`. Returns `None` when the signal is too short
/// (needs ≥ 2 periods at the maximum lag) or has no periodicity.
pub fn estimate_period(samples: &[f64], fs: f64, t_min_s: f64, t_max_s: f64) -> Option<f64> {
    let lag_min = (t_min_s * fs).round() as usize;
    let lag_max = (t_max_s * fs).round() as usize;
    if lag_min < 2 || lag_max <= lag_min || samples.len() < 2 * lag_max {
        return None;
    }
    // Analyze only the leading portion of the capture: the packet preamble
    // (identical header chirps) lives there, giving a clean periodic gating
    // pattern; payload chirps further in have varying durations that corrupt
    // long-lag statistics.
    let prefix = samples.len().min(4 * lag_max);
    let samples = &samples[..prefix];
    // Power envelope, smoothed over roughly a beat period so the randomly
    // phased beat tone averages out and only the chirp on/off *gating*
    // pattern drives the correlation, then mean-removed.
    let power: Vec<f64> = samples.iter().map(|&x| x * x).collect();
    let smooth_win = (lag_min / 3).max(4);
    let power = biscatter_dsp::filter::moving_average(&power, smooth_win);
    let mean = power.iter().sum::<f64>() / power.len() as f64;
    let p: Vec<f64> = power.iter().map(|&v| v - mean).collect();

    let energy: f64 = p.iter().map(|v| v * v).sum();
    if energy <= 0.0 {
        return None;
    }
    // Sixteen lags per pass, then four, then one: wider passes overlap more
    // accumulation chains, and every lag sums in index order either way.
    let mut corrs = Vec::with_capacity(lag_max - lag_min + 1);
    let mut lag = lag_min;
    while lag + 15 <= lag_max {
        corrs.extend(autocorrelations::<16>(&p, lag));
        lag += 16;
    }
    while lag + 3 <= lag_max {
        corrs.extend(autocorrelations::<4>(&p, lag));
        lag += 4;
    }
    for lag in lag..=lag_max {
        corrs.extend(autocorrelations::<1>(&p, lag));
    }
    let global_max = corrs
        .iter()
        .fold(f64::NEG_INFINITY, |max, &c| if c > max { c } else { max });
    if global_max <= 0.0 {
        return None;
    }
    // The on/off slot structure correlates at every *multiple* of the true
    // period, so the global maximum may sit on a harmonic. Starting from the
    // global peak lag, test its integer subharmonics (smallest first): if the
    // correlation near `lag/k` reaches 80% of the global peak, that is the
    // fundamental.
    let peak_idx = corrs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    let peak_lag = lag_min + peak_idx;
    let mut best = (peak_lag, global_max);
    for k in (2..=4usize).rev() {
        let cand = peak_lag / k;
        if cand < lag_min + 2 {
            continue;
        }
        // Local refinement window of ±3 samples around the subharmonic.
        let lo = cand.saturating_sub(3).max(lag_min);
        let hi = (cand + 3).min(lag_max);
        let (l, c) = (lo..=hi)
            .map(|lag| (lag, corrs[lag - lag_min]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        if c >= 0.8 * global_max {
            best = (l, c);
            break;
        }
    }
    if best.1 <= 0.0 {
        return None;
    }
    // Parabolic refinement over the three lags around the winner.
    let lag = best.0;
    let refined = if lag > lag_min && lag < lag_max {
        let l = corrs[lag - 1 - lag_min];
        let c = best.1;
        let r = corrs[lag + 1 - lag_min];
        let denom = l - 2.0 * c + r;
        if denom.abs() > 1e-300 {
            lag as f64 + (0.5 * (l - r) / denom).clamp(-0.5, 0.5)
        } else {
            lag as f64
        }
    } else {
        lag as f64
    };
    Some(refined / fs)
}

/// Normalized autocorrelations `Σ_i p[i]·p[i+l] / (p.len() - l)` for the
/// `N` lags `l = lag..lag + N`, side by side in one pass so their
/// accumulation chains overlap. Each lag sums its products in index order,
/// exactly as a loop over that lag alone would. Needs
/// `p.len() >= lag + N`.
fn autocorrelations<const N: usize>(p: &[f64], lag: usize) -> [f64; N] {
    // Lane j has p.len() - lag - j products; all lanes share the first
    // `joint`, where sample i meets the N samples from i + lag on.
    let joint = p.len() - lag - (N - 1);
    let mut acc = [0.0f64; N];
    for (&x, lagged) in p[..joint].iter().zip(p[lag..].windows(N)) {
        for j in 0..N {
            acc[j] += x * lagged[j];
        }
    }
    for (j, acc) in acc.iter_mut().enumerate() {
        for i in joint..p.len() - lag - j {
            *acc += p[i] * p[i + lag + j];
        }
    }
    std::array::from_fn(|j| acc[j] / (p.len() - lag - j) as f64)
}

/// Joint fine search for slot timing: scans periods within ±8 samples of the
/// coarse estimate (quarter-sample steps) and all offsets, maximizing the
/// mean power step across slot boundaries. Each boundary is preceded by
/// idle (the last `gap_fraction` of every slot is guaranteed idle for every
/// CSSK symbol by the MAX_DUTY constraint); the step is measured over
/// windows of `0.4 · gap_fraction` of a period (2–16 samples). Slot starts
/// are placed at `round(offset + k·period)`, so a fractional-sample period
/// error cannot drift across a long packet.
///
/// Returns `(period_samples, offset_samples)`.
pub fn estimate_slot_timing(
    samples: &[f64],
    coarse_period: usize,
    gap_fraction: f64,
) -> (f64, usize) {
    if coarse_period < 8 || samples.len() < 2 * coarse_period {
        return (coarse_period as f64, 0);
    }
    let len = samples.len();
    // Prefix sums of the envelope power make per-window power O(1).
    let mut cum = Vec::with_capacity(len + 1);
    cum.push(0.0);
    for &x in samples {
        cum.push(cum.last().unwrap() + x * x);
    }

    // Boundary-contrast metric: the chirp always starts exactly at the slot
    // boundary, preceded by at least `gap_fraction` of idle. The true timing
    // maximizes mean(power just after each boundary) - mean(power just
    // before), and the optimum is sharp (within one sample), unlike the flat
    // gap-energy valley. Every hypothesis reads the same per-boundary
    // contrasts, so they are tabulated once: `contrast[b - w]` for each
    // boundary `b` with a whole window on both sides (`w <= b <= len - w`).
    let w = ((coarse_period as f64 * gap_fraction * 0.4).round() as usize).clamp(2, 16);
    let contrast: Vec<f64> = (w..(len + 1).saturating_sub(w))
        .map(|b| (cum[b + w] - cum[b]) - (cum[b] - cum[b - w]))
        .collect();
    drop(cum);

    // Per offset, for one period: the summed contrasts, and the change in
    // the number of summed boundaries from the previous offset.
    let mut sums = vec![0.0f64; coarse_period];
    let mut count_steps = vec![0isize; coarse_period + 1];
    let mut best = (coarse_period as f64, 0usize, f64::NEG_INFINITY);
    // The coarse autocorrelation can be several samples off when the beat
    // tone is slow (few cycles per chirp, random phase), so search a wide
    // ±8-sample band at quarter-sample resolution.
    for step in -32i32..=32 {
        let period = coarse_period as f64 + step as f64 * 0.25;
        if period < 8.0 {
            continue;
        }
        let n_slots = (len as f64 / period).floor() as usize;
        if n_slots < 2 {
            continue;
        }
        sums.fill(0.0);
        count_steps.fill(0);
        // The period in quarter samples (exact: it is a multiple of 0.25).
        let quarters = (4.0 * period) as usize;
        for k in 0..n_slots {
            // Boundary k of offset o sits at round(o + k·period), which is
            // o + round(k·period) = o + (k·quarters + 2) / 4 exactly, as
            // o + k·period is exact. Offsets whose boundary has both windows
            // in range add its contrast, in slot order.
            let r = (k * quarters + 2) / 4;
            let lo = w.saturating_sub(r);
            let hi = (len + 1).saturating_sub(w + r).min(coarse_period);
            if lo >= hi {
                continue;
            }
            let row = &contrast[lo + r - w..hi + r - w];
            for (sum, &c) in sums[lo..hi].iter_mut().zip(row) {
                *sum += c;
            }
            count_steps[lo] += 1;
            count_steps[hi] -= 1;
        }
        let mut count = 0isize;
        for (offset, (&sum, &dc)) in sums.iter().zip(&count_steps).enumerate() {
            count += dc;
            if count > 0 {
                let mean = sum / count as f64;
                if mean > best.2 {
                    best = (period, offset, mean);
                }
            }
        }
    }
    (best.0, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::inches_to_m;
    use biscatter_rf::tag_frontend::TagFrontEnd;

    fn header_stream(n_headers: usize, snr_db: f64, offset_s: f64, seed: u64) -> (Vec<f64>, f64) {
        let fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); n_headers];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut noise = NoiseSource::new(seed);
        let samples = fe.capture_train(&train, snr_db, offset_s, &mut noise);
        (samples, fe.adc.sample_rate_hz)
    }

    #[test]
    fn period_estimated_from_header() {
        let (samples, fs) = header_stream(16, 25.0, 0.0, 1);
        let t = estimate_period(&samples, fs, 60e-6, 300e-6).expect("period found");
        assert!((t - 120e-6).abs() < 2e-6, "period {t}, expected 120 µs");
    }

    #[test]
    fn period_estimated_at_low_snr() {
        let (samples, fs) = header_stream(32, 8.0, 0.0, 2);
        let t = estimate_period(&samples, fs, 60e-6, 300e-6).expect("period found");
        assert!((t - 120e-6).abs() < 4e-6, "period {t}");
    }

    #[test]
    fn period_none_on_pure_noise() {
        let mut noise = NoiseSource::new(3);
        let samples = noise.awgn(4000, 1.0);
        // Autocorrelation of white noise has no strong positive lag peak;
        // either None or a clearly wrong "period" is possible, but the
        // normalized correlation must be weak. We accept Some only if the
        // value is inside the search band (it trivially is), so instead we
        // check the estimator against a *short* buffer where it must refuse.
        assert!(estimate_period(&samples[..100], 1e6, 60e-6, 300e-6).is_none());
    }
}
