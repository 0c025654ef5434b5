//! Digital filters: the single-pole RC low-pass used to model the envelope
//! detector's internal filter, and a moving-average smoother.

use crate::TAU;

/// Single-pole RC low-pass: `y[n] = y[n-1] + a (x[n] - y[n-1])`.
///
/// Models the envelope detector's internal smoothing filter. The coefficient
/// is derived from the RC time constant and sample interval:
/// `a = dt / (RC + dt)`.
#[derive(Debug, Clone)]
pub struct SinglePoleLowPass {
    alpha: f64,
    y: f64,
}

impl SinglePoleLowPass {
    /// Creates the filter from a cutoff frequency (Hz) and sample rate (Hz).
    pub fn from_cutoff(cutoff_hz: f64, fs: f64) -> Self {
        assert!(cutoff_hz > 0.0 && fs > 0.0);
        let rc = 1.0 / (TAU * cutoff_hz);
        let dt = 1.0 / fs;
        SinglePoleLowPass {
            alpha: dt / (rc + dt),
            y: 0.0,
        }
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        self.y += self.alpha * (x - self.y);
        self.y
    }
}

/// Moving-average smoother over a fixed window, same-length output (the
/// leading edge averages over the partial window), into a reusable buffer
/// (cleared first).
pub fn moving_average_into(signal: &[f64], window: usize, out: &mut Vec<f64>) {
    out.clear();
    if window <= 1 || signal.is_empty() {
        out.extend_from_slice(signal);
        return;
    }
    let mut acc = 0.0;
    for i in 0..signal.len() {
        acc += signal[i];
        if i >= window {
            acc -= signal[i - window];
        }
        let count = (i + 1).min(window);
        out.push(acc / count as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn single_pole_steps_toward_input() {
        let fresh = || SinglePoleLowPass { alpha: 0.5, y: 0.0 };
        let mut f = fresh();
        assert_eq!(f.process(1.0), 0.5);
        assert_eq!(f.process(1.0), 0.75);
        assert_eq!(fresh().process(2.0), 1.0);
    }

    #[test]
    fn single_pole_from_cutoff_smooths() {
        // 1 kHz cutoff at 100 kHz sampling: a 30 kHz tone should be strongly
        // attenuated, DC passed.
        let fs = 100e3;
        let mut f = SinglePoleLowPass::from_cutoff(1e3, fs);
        let y: Vec<f64> = (0..5000)
            .map(|i| f.process((TAU * 30e3 / fs * i as f64).sin()))
            .collect();
        assert!(rms(&y[1000..]) < 0.05);
        let mut f = SinglePoleLowPass::from_cutoff(1e3, fs);
        let dc: Vec<f64> = (0..5000).map(|_| f.process(1.0)).collect();
        assert!((dc[4999] - 1.0).abs() < 1e-3);
    }

    fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; 2];
        moving_average_into(signal, window, &mut out);
        out
    }

    #[test]
    fn moving_average_constant_is_identity() {
        let x = vec![3.0; 10];
        assert_eq!(moving_average(&x, 4), x);
    }

    #[test]
    fn moving_average_window_one() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(moving_average(&x, 1), x);
    }

    #[test]
    fn moving_average_values() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = moving_average(&x, 2);
        assert_eq!(y, vec![1.0, 1.5, 2.5, 3.5]);
    }
}
