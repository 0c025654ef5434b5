//! The tag state machine: ties decoder, modulator, and command handling
//! together into the node a deployment would flash onto the MCU.
//!
//! Behaviour (paper §1, §3.2.2, §6): the tag continuously decodes downlink
//! packets; packets carrying a command addressed to it (or broadcast) are
//! executed — reconfiguring the uplink modulation, changing data rate,
//! sleeping/waking, or triggering an uplink response. A sleeping tag keeps
//! its PWM beacon running (sequential mode) but ignores all commands except
//! `Wake`.

use crate::decoder::DownlinkDecoder;
use crate::modulator::{ModScheme, Modulator, ModulatorConfig};
use biscatter_link::commands::{AddressedCommand, Command};
use biscatter_link::mac::TagId;
use biscatter_link::packet::UplinkFrame;

/// Tag runtime states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Decoding downlink and modulating uplink.
    Active,
    /// MCU asleep; only `Wake` is honoured.
    Sleeping,
}

/// What a tag did in response to a capture.
#[derive(Debug, Clone, PartialEq)]
pub enum TagAction {
    /// Nothing addressed to this tag (or decode failed).
    None,
    /// A command was executed.
    Executed(Command),
    /// A command was executed and an uplink response queued.
    Respond(Command, UplinkFrame),
}

/// A BiScatter tag node.
#[derive(Debug, Clone)]
pub struct Tag {
    /// This tag's identity.
    pub id: TagId,
    /// Downlink decoder (nominal or calibrated).
    pub decoder: DownlinkDecoder,
    /// Uplink modulator.
    pub modulator: Modulator,
    /// Runtime state.
    pub state: TagState,
    /// The tag's data register (what `QueryData` reports).
    pub data_register: Vec<u8>,
    /// The last uplink frame sent (for `Retransmit`).
    pub last_uplink: Option<UplinkFrame>,
}

impl Tag {
    /// Creates an active tag.
    pub fn new(id: TagId, decoder: DownlinkDecoder, modulator: Modulator) -> Self {
        Tag {
            id,
            decoder,
            modulator,
            state: TagState::Active,
            data_register: Vec::new(),
            last_uplink: None,
        }
    }

    /// Executes a parsed command (exposed separately so protocol tests can
    /// bypass the PHY).
    pub fn handle_command(&mut self, cmd: AddressedCommand) -> TagAction {
        if !cmd.to.matches(self.id) {
            return TagAction::None;
        }
        if self.state == TagState::Sleeping && cmd.command != Command::Wake {
            return TagAction::None;
        }
        match cmd.command {
            Command::Ping => {
                let frame = UplinkFrame::new(vec![self.id.0]);
                self.last_uplink = Some(frame.clone());
                TagAction::Respond(cmd.command, frame)
            }
            Command::SetModulationFreq { freq_centihz } => {
                let cfg = ModulatorConfig {
                    subcarrier_hz: freq_centihz as f64 * 100.0,
                    ..self.modulator.config.clone()
                };
                match self.modulator.reconfigure(cfg) {
                    Ok(()) => TagAction::Executed(cmd.command),
                    Err(_) => TagAction::None,
                }
            }
            Command::SetBitDuration { bit_us } => {
                let cfg = ModulatorConfig {
                    bit_duration_s: bit_us as f64 * 1e-6,
                    ..self.modulator.config.clone()
                };
                match self.modulator.reconfigure(cfg) {
                    Ok(()) => TagAction::Executed(cmd.command),
                    Err(_) => TagAction::None,
                }
            }
            Command::Retransmit => match &self.last_uplink {
                Some(frame) => TagAction::Respond(cmd.command, frame.clone()),
                None => TagAction::Executed(cmd.command),
            },
            Command::Sleep { .. } => {
                self.state = TagState::Sleeping;
                TagAction::Executed(cmd.command)
            }
            Command::Wake => {
                self.state = TagState::Active;
                TagAction::Executed(cmd.command)
            }
            Command::QueryData => {
                let frame = UplinkFrame::new(self.data_register.clone());
                self.last_uplink = Some(frame.clone());
                TagAction::Respond(cmd.command, frame)
            }
        }
    }

    /// Switches the modulator into data mode and returns the frame bits for
    /// an uplink transmission.
    pub fn prepare_uplink(&mut self, frame: &UplinkFrame) -> Vec<bool> {
        if self.modulator.config.scheme == ModScheme::Beacon {
            let cfg = ModulatorConfig {
                scheme: ModScheme::Ook,
                ..self.modulator.config.clone()
            };
            // Beacon -> OOK keeps the same subcarrier; validation cannot fail
            // unless bit duration is inconsistent, in which case stay beacon.
            let _ = self.modulator.reconfigure(cfg);
        }
        self.last_uplink = Some(frame.clone());
        frame.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::DecodeError;
    use crate::demod::SymbolDecider;
    use biscatter_link::commands::COMMAND_WIRE_LEN;
    use biscatter_link::mac::TagAddress;
    use biscatter_radar::cssk::CsskAlphabet;
    use biscatter_rf::components::rf_switch::RfSwitch;
    use biscatter_rf::inches_to_m;
    use biscatter_rf::tag_frontend::TagFrontEnd;

    fn make_tag(id: u8) -> Tag {
        let alphabet = CsskAlphabet::new(9e9, 1e9, 5, 20e-6, 120e-6).unwrap();
        let fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        let decider =
            SymbolDecider::from_alphabet(&alphabet, fe.pair.delta_t(), fe.adc.sample_rate_hz);
        let modulator = Modulator::new(ModulatorConfig::default(), RfSwitch::adrf5144()).unwrap();
        Tag::new(TagId(id), DownlinkDecoder::new(decider), modulator)
    }

    /// Processes one ADC capture end-to-end: decode, parse the command, and
    /// execute it if addressed to the tag.
    fn process_capture(tag: &mut Tag, samples: &[f64]) -> Result<TagAction, DecodeError> {
        let result = tag.decoder.decode(samples, Some(COMMAND_WIRE_LEN))?;
        let Ok(payload) = result.payload else {
            return Ok(TagAction::None);
        };
        let Ok(cmd) = AddressedCommand::decode(&payload) else {
            return Ok(TagAction::None);
        };
        Ok(tag.handle_command(cmd))
    }

    fn addressed(to: TagAddress, command: Command) -> AddressedCommand {
        AddressedCommand { to, command }
    }

    #[test]
    fn ping_gets_response() {
        let mut tag = make_tag(7);
        let action = tag.handle_command(addressed(TagAddress::Unicast(TagId(7)), Command::Ping));
        match action {
            TagAction::Respond(Command::Ping, frame) => assert_eq!(frame.payload, vec![7]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_address_ignored() {
        let mut tag = make_tag(7);
        let action = tag.handle_command(addressed(TagAddress::Unicast(TagId(8)), Command::Ping));
        assert_eq!(action, TagAction::None);
    }

    #[test]
    fn broadcast_accepted() {
        let mut tag = make_tag(7);
        let action = tag.handle_command(addressed(TagAddress::Broadcast, Command::Wake));
        assert_eq!(action, TagAction::Executed(Command::Wake));
    }

    #[test]
    fn set_modulation_freq_reconfigures() {
        let mut tag = make_tag(1);
        let action = tag.handle_command(addressed(
            TagAddress::Unicast(TagId(1)),
            Command::SetModulationFreq { freq_centihz: 25 },
        ));
        assert!(matches!(action, TagAction::Executed(_)));
        assert!((tag.modulator.config.subcarrier_hz - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_reconfigure_rejected() {
        let mut tag = make_tag(1);
        // 65535 centi-hz units = 6.55 MHz — within switch limit; use bit
        // duration to force invalid (0 µs).
        let action = tag.handle_command(addressed(
            TagAddress::Unicast(TagId(1)),
            Command::SetBitDuration { bit_us: 0 },
        ));
        assert_eq!(action, TagAction::None);
    }

    #[test]
    fn sleep_blocks_until_wake() {
        let mut tag = make_tag(2);
        tag.handle_command(addressed(
            TagAddress::Unicast(TagId(2)),
            Command::Sleep { duration_ms: 0 },
        ));
        assert_eq!(tag.state, TagState::Sleeping);
        // Ping while asleep is ignored.
        let action = tag.handle_command(addressed(TagAddress::Unicast(TagId(2)), Command::Ping));
        assert_eq!(action, TagAction::None);
        // Wake restores.
        tag.handle_command(addressed(TagAddress::Broadcast, Command::Wake));
        assert_eq!(tag.state, TagState::Active);
        let action = tag.handle_command(addressed(TagAddress::Unicast(TagId(2)), Command::Ping));
        assert!(matches!(action, TagAction::Respond(..)));
    }

    #[test]
    fn retransmit_repeats_last_frame() {
        let mut tag = make_tag(3);
        tag.data_register = vec![0xCA, 0xFE];
        let first =
            tag.handle_command(addressed(TagAddress::Unicast(TagId(3)), Command::QueryData));
        let TagAction::Respond(_, frame1) = first else {
            panic!("expected response");
        };
        let again = tag.handle_command(addressed(
            TagAddress::Unicast(TagId(3)),
            Command::Retransmit,
        ));
        let TagAction::Respond(_, frame2) = again else {
            panic!("expected retransmission");
        };
        assert_eq!(frame1, frame2);
        assert_eq!(frame2.payload, vec![0xCA, 0xFE]);
    }

    #[test]
    fn retransmit_without_history_is_noop_execute() {
        let mut tag = make_tag(4);
        let action = tag.handle_command(addressed(
            TagAddress::Unicast(TagId(4)),
            Command::Retransmit,
        ));
        assert_eq!(action, TagAction::Executed(Command::Retransmit));
    }

    #[test]
    fn prepare_uplink_switches_to_data_mode() {
        let mut tag = make_tag(5);
        assert_eq!(tag.modulator.config.scheme, ModScheme::Beacon);
        let frame = UplinkFrame::new(vec![0x42]);
        let bits = tag.prepare_uplink(&frame);
        assert_eq!(tag.modulator.config.scheme, ModScheme::Ook);
        assert_eq!(bits.len(), 7 + 8);
        assert_eq!(tag.last_uplink, Some(frame));
    }

    #[test]
    fn full_phy_command_roundtrip() {
        // Radar encodes a command into a packet, tag decodes off the air and
        // executes it.
        use biscatter_dsp::signal::NoiseSource;
        use biscatter_link::packet::DownlinkPacket;
        use biscatter_radar::sequencer::packet_to_train;

        let mut tag = make_tag(9);
        let alphabet = CsskAlphabet::new(9e9, 1e9, 5, 20e-6, 120e-6).unwrap();
        let fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        let cmd = AddressedCommand {
            to: TagAddress::Unicast(TagId(9)),
            command: Command::SetModulationFreq { freq_centihz: 30 },
        };
        let packet = DownlinkPacket::new(cmd.encode().to_vec());
        let (train, _) = packet_to_train(&packet, &alphabet, 120e-6).unwrap();
        let mut noise = NoiseSource::new(11);
        let samples = fe.capture_train(&train, 25.0, 0.0, &mut noise);
        let action = process_capture(&mut tag, &samples).unwrap();
        assert!(matches!(
            action,
            TagAction::Executed(Command::SetModulationFreq { freq_centihz: 30 })
        ));
        assert!((tag.modulator.config.subcarrier_hz - 3000.0).abs() < 1e-9);
    }
}
