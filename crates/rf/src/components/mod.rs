//! Analog component models for the BiScatter tag and radar front-ends.
//!
//! Each model corresponds to a physical part in the paper's prototype
//! (§4, Fig. 8): the ADRF5144 SPDT switch, ZC2PD-18263-S+ splitters, the
//! ADL6010 envelope detector, the HFSS-designed microstrip meander delay
//! lines, the 2-element Van Atta array, and the MCU's ADC. Models capture
//! the behaviour the system depends on — insertion loss, delay/dispersion,
//! detector law and noise, switching limits, retro-reflective gain,
//! quantization — not full electromagnetic detail.

pub mod adc;
pub mod delay_line;
pub mod envelope_detector;
pub mod rf_switch;
pub mod splitter;
pub mod van_atta;

pub use adc::Adc;
pub use delay_line::DelayLine;
pub use envelope_detector::EnvelopeDetector;
pub use rf_switch::{RfSwitch, SwitchState};
pub use splitter::Splitter;
pub use van_atta::VanAtta;
