//! Statistics helpers: power dB conversions, moments, percentiles, and the
//! Wilson confidence interval for Monte-Carlo bit-error rates.

/// Converts a linear power ratio to decibels.
pub fn pow_to_db(p: f64) -> f64 {
    10.0 * p.log10()
}

/// Converts decibels to a linear power ratio.
pub fn db_to_pow(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance. Returns 0 for slices shorter than 2.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// The `q`-th percentile (0–100) by linear interpolation of order statistics.
pub fn percentile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut s = x.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = (q / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < s.len() {
        s[i] * (1.0 - frac) + s[i + 1] * frac
    } else {
        s[i]
    }
}

/// Wilson score interval for a proportion: returns `(low, high)` for
/// `errors` out of `trials` at ~95% confidence. Useful for reporting BER
/// confidence from Monte-Carlo runs. With 0 or `trials` errors the closed
/// form's end is exactly 0 or 1, not `center ∓ half`'s rounding residue.
pub fn wilson_interval(errors: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = errors as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    let (low, high) = ((center - half).max(0.0), (center + half).min(1.0));
    (
        if errors == 0 { 0.0 } else { low },
        if errors == trials { 1.0 } else { high },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrips() {
        for &v in &[0.001, 0.5, 1.0, 2.0, 1e6] {
            assert!((db_to_pow(pow_to_db(v)) - v).abs() / v < 1e-12);
        }
        assert!((pow_to_db(100.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&x) - 2.5).abs() < 1e-12);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_moments() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn median_and_percentile() {
        let x = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 100.0), 5.0);
        assert_eq!(percentile(&x, 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
    }

    #[test]
    fn wilson_interval_basics() {
        let (lo, hi) = wilson_interval(0, 0);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 1000);
        assert!(lo == 0.0 && hi < 0.01);
        let (lo, hi) = wilson_interval(500, 1000);
        assert!(lo < 0.5 && hi > 0.5);
        assert!(hi - lo < 0.07);
    }

    #[test]
    fn wilson_interval_endpoints_exact() {
        // `center - half` leaves 5.42e-20 here, and `center + half` rounds
        // to 0.9999999999999999 for a run that erred on every trial.
        assert_eq!(wilson_interval(0, 7200).0, 0.0);
        assert_eq!(wilson_interval(10_000, 10_000).1, 1.0);
        for n in 1..2000 {
            assert_eq!(wilson_interval(0, n).0, 0.0, "0 of {n}");
            assert_eq!(wilson_interval(n, n).1, 1.0, "{n} of {n}");
        }
    }
}
