//! Uplink modulator: drives the RF switch (paper §3.2.3).
//!
//! The tag's uplink is the switch waveform: a subcarrier square wave
//! (localization beacon) optionally gated (OOK) or frequency-shifted (FSK)
//! by data bits. This module owns the tag-side configuration and validates
//! it against the switch's physical limits — the settings the tag MCU's PWM
//! peripheral would run with.

use biscatter_rf::components::rf_switch::RfSwitch;

/// Uplink modulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulatorConfig {
    /// Subcarrier (switch) frequency, Hz.
    pub subcarrier_hz: f64,
    /// Secondary subcarrier for FSK (ignored for OOK/beacon), Hz.
    pub subcarrier_alt_hz: f64,
    /// Uplink bit duration, s.
    pub bit_duration_s: f64,
    /// Scheme selector.
    pub scheme: ModScheme,
}

/// Tag-side uplink schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModScheme {
    /// Continuous subcarrier — localization beacon only, no data.
    Beacon,
    /// OOK: a `true` bit transmits the subcarrier, `false` absorbs.
    Ook,
    /// FSK: bit selects between the two subcarriers.
    Fsk,
}

impl Default for ModulatorConfig {
    fn default() -> Self {
        ModulatorConfig {
            subcarrier_hz: 1000.0,
            subcarrier_alt_hz: 2000.0,
            bit_duration_s: 4e-3,
            scheme: ModScheme::Beacon,
        }
    }
}

/// Validation errors for a modulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ModulatorError {
    /// Subcarrier exceeds the switch's maximum toggle rate.
    SwitchTooSlow {
        /// Requested rate, Hz.
        requested_hz: f64,
        /// Switch limit, Hz.
        limit_hz: f64,
    },
    /// Bit duration shorter than one subcarrier cycle.
    BitTooShort,
    /// Non-positive frequency or duration.
    NonPositive,
}

impl std::fmt::Display for ModulatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModulatorError::SwitchTooSlow {
                requested_hz,
                limit_hz,
            } => write!(
                f,
                "subcarrier {requested_hz} Hz exceeds switch limit {limit_hz} Hz"
            ),
            ModulatorError::BitTooShort => write!(f, "bit shorter than one subcarrier cycle"),
            ModulatorError::NonPositive => write!(f, "frequencies and durations must be positive"),
        }
    }
}

impl std::error::Error for ModulatorError {}

/// The uplink modulator.
#[derive(Debug, Clone)]
pub struct Modulator {
    /// Current configuration.
    pub config: ModulatorConfig,
    /// The physical switch driven by this modulator.
    pub switch: RfSwitch,
}

impl Modulator {
    /// Creates a modulator after validating the configuration against the
    /// switch limits.
    pub fn new(config: ModulatorConfig, switch: RfSwitch) -> Result<Self, ModulatorError> {
        Self::validate(&config, &switch)?;
        Ok(Modulator { config, switch })
    }

    /// Validates a configuration against a switch.
    pub fn validate(config: &ModulatorConfig, switch: &RfSwitch) -> Result<(), ModulatorError> {
        if config.subcarrier_hz <= 0.0 || config.bit_duration_s <= 0.0 {
            return Err(ModulatorError::NonPositive);
        }
        let fastest = match config.scheme {
            ModScheme::Fsk => config.subcarrier_hz.max(config.subcarrier_alt_hz),
            _ => config.subcarrier_hz,
        };
        if !switch.supports_rate(fastest) {
            return Err(ModulatorError::SwitchTooSlow {
                requested_hz: fastest,
                limit_hz: switch.max_switch_rate_hz,
            });
        }
        if config.scheme != ModScheme::Beacon {
            let slowest = match config.scheme {
                ModScheme::Fsk => config.subcarrier_hz.min(config.subcarrier_alt_hz),
                _ => config.subcarrier_hz,
            };
            if config.bit_duration_s * slowest < 1.0 {
                return Err(ModulatorError::BitTooShort);
            }
        }
        Ok(())
    }

    /// Reconfigures (e.g. after a `SetModulationFreq` downlink command).
    pub fn reconfigure(&mut self, config: ModulatorConfig) -> Result<(), ModulatorError> {
        Self::validate(&config, &self.switch)?;
        self.config = config;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch() -> RfSwitch {
        RfSwitch::adrf5144()
    }

    #[test]
    fn default_config_valid() {
        assert!(Modulator::new(ModulatorConfig::default(), switch()).is_ok());
    }

    #[test]
    fn rejects_rate_beyond_switch() {
        let cfg = ModulatorConfig {
            subcarrier_hz: 100e6,
            ..Default::default()
        };
        match Modulator::new(cfg, switch()) {
            Err(ModulatorError::SwitchTooSlow { limit_hz, .. }) => {
                assert_eq!(limit_hz, 50e6);
            }
            other => panic!("expected SwitchTooSlow, got {other:?}"),
        }
    }

    #[test]
    fn rejects_fsk_alt_beyond_switch() {
        let cfg = ModulatorConfig {
            subcarrier_hz: 1000.0,
            subcarrier_alt_hz: 100e6,
            scheme: ModScheme::Fsk,
            ..Default::default()
        };
        assert!(matches!(
            Modulator::new(cfg, switch()),
            Err(ModulatorError::SwitchTooSlow { .. })
        ));
    }

    #[test]
    fn rejects_bit_shorter_than_cycle() {
        let cfg = ModulatorConfig {
            subcarrier_hz: 100.0,
            bit_duration_s: 1e-3, // 0.1 cycles per bit
            scheme: ModScheme::Ook,
            ..Default::default()
        };
        assert_eq!(
            Modulator::new(cfg, switch()).unwrap_err(),
            ModulatorError::BitTooShort
        );
    }

    #[test]
    fn beacon_ignores_bit_duration() {
        let cfg = ModulatorConfig {
            subcarrier_hz: 100.0,
            bit_duration_s: 1e-3,
            scheme: ModScheme::Beacon,
            ..Default::default()
        };
        assert!(Modulator::new(cfg, switch()).is_ok());
    }

    #[test]
    fn rejects_non_positive() {
        let cfg = ModulatorConfig {
            subcarrier_hz: 0.0,
            ..Default::default()
        };
        assert_eq!(
            Modulator::new(cfg, switch()).unwrap_err(),
            ModulatorError::NonPositive
        );
    }

    #[test]
    fn reconfigure_applies_or_rejects() {
        let mut m = Modulator::new(ModulatorConfig::default(), switch()).unwrap();
        let ok = ModulatorConfig {
            subcarrier_hz: 2500.0,
            ..ModulatorConfig::default()
        };
        m.reconfigure(ok.clone()).unwrap();
        assert_eq!(m.config, ok);
        let bad = ModulatorConfig {
            subcarrier_hz: -1.0,
            ..ModulatorConfig::default()
        };
        assert!(m.reconfigure(bad).is_err());
        // Config unchanged after failed reconfigure.
        assert_eq!(m.config, ok);
    }
}
