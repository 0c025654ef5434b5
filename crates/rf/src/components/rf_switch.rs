//! SPDT RF switch (ADRF5144 class).
//!
//! The switch sits in the middle of the Van Atta transmission line
//! (paper Fig. 2). In the **reflective** state it completes the line and the
//! tag retro-reflects; in the **absorptive** state it routes antenna 1 into
//! the decoder (50 Ω matched) and internally terminates antenna 2, absorbing
//! the incident wave. Toggling between the states at the modulation rate
//! amplitude-modulates the backscatter for uplink.

/// Switch throw state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchState {
    /// Transmission line completed: tag retro-reflects.
    Reflective,
    /// Signal routed to the decoder; reflection suppressed.
    Absorptive,
}

/// SPDT switch model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfSwitch {
    /// Insertion loss in the through path, dB.
    pub insertion_loss_db: f64,
    /// Isolation of the off path, dB (limits the modulation depth: in the
    /// absorptive state a residual `-isolation` reflection leaks through).
    pub isolation_db: f64,
    /// Maximum toggle rate, Hz (bounds the uplink modulation frequency).
    pub max_switch_rate_hz: f64,
    /// Static power consumption, watts.
    pub power_w: f64,
}

impl RfSwitch {
    /// ADRF5144-like part: low loss, high isolation, fast, micro-watt drive
    /// (paper §4.1: 2.86 µW).
    pub fn adrf5144() -> Self {
        RfSwitch {
            insertion_loss_db: 0.8,
            isolation_db: 40.0,
            max_switch_rate_hz: 50e6,
            power_w: 2.86e-6,
        }
    }

    /// Returns true if the switch supports toggling at `rate_hz`.
    pub fn supports_rate(&self, rate_hz: f64) -> bool {
        rate_hz <= self.max_switch_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_rate_boundary() {
        let sw = RfSwitch::adrf5144();
        assert!(sw.supports_rate(50e6));
        assert!(!sw.supports_rate(50e6 + 1.0));
    }
}
