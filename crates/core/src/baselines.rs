//! The Table-1 comparison systems.
//!
//! The paper positions BiScatter against three prior radar-backscatter
//! systems. Each is modeled as a *capability configuration* of the same
//! substrate, so experiment E11 can demonstrate programmatically which
//! operations each system supports and that only BiScatter supports all of
//! them:
//!
//! | system | uplink | downlink | localization | integrated ISAC | commodity radar |
//! |---|---|---|---|---|---|
//! | Millimetro \[44] | ✗ | ✗ | ✓ | ✗ | ✓ |
//! | mmTag \[32] | ✓ | ✗ | ✗ | ✗ | ✓ |
//! | MilBack \[29] | ✓ | ✓ | ✓ | ✗ | ✗ |
//! | BiScatter | ✓ | ✓ | ✓ | ✓ | ✓ |

/// The capability set of a radar-backscatter system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Tag → radar data.
    pub uplink: bool,
    /// Radar → tag data.
    pub downlink: bool,
    /// Radar can localize the tag.
    pub tag_localization: bool,
    /// Sensing and two-way communication over one waveform, simultaneously.
    pub integrated_isac: bool,
    /// Works with off-the-shelf FMCW radars.
    pub commodity_radar: bool,
}

/// A named comparison system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemProfile {
    /// System name as in Table 1.
    pub name: &'static str,
    /// Its capabilities.
    pub caps: Capabilities,
}

/// Millimetro: retro-reflective localization tags, no data.
pub fn millimetro() -> SystemProfile {
    SystemProfile {
        name: "Millimetro",
        caps: Capabilities {
            uplink: false,
            downlink: false,
            tag_localization: true,
            integrated_isac: false,
            commodity_radar: true,
        },
    }
}

/// mmTag: uplink-only mmWave backscatter.
pub fn mmtag() -> SystemProfile {
    SystemProfile {
        name: "mmTag",
        caps: Capabilities {
            uplink: true,
            downlink: false,
            tag_localization: false,
            integrated_isac: false,
            commodity_radar: true,
        },
    }
}

/// MilBack: two-way + localization, but custom radar with two independent
/// waveforms (two-tone downlink + FMCW sensing) and a pre-communication
/// handshake.
pub fn milback() -> SystemProfile {
    SystemProfile {
        name: "MilBack",
        caps: Capabilities {
            uplink: true,
            downlink: true,
            tag_localization: true,
            integrated_isac: false,
            commodity_radar: false,
        },
    }
}

/// BiScatter: everything, on commodity radars.
pub fn biscatter() -> SystemProfile {
    SystemProfile {
        name: "BiScatter",
        caps: Capabilities {
            uplink: true,
            downlink: true,
            tag_localization: true,
            integrated_isac: true,
            commodity_radar: true,
        },
    }
}

/// All Table-1 rows in paper order.
pub fn table1() -> Vec<SystemProfile> {
    vec![millimetro(), mmtag(), milback(), biscatter()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_biscatter_has_everything() {
        for s in table1() {
            let all = s.caps.uplink
                && s.caps.downlink
                && s.caps.tag_localization
                && s.caps.integrated_isac
                && s.caps.commodity_radar;
            assert_eq!(all, s.name == "BiScatter", "{}", s.name);
        }
    }

    #[test]
    fn matches_paper_table1() {
        let rows = table1();
        assert_eq!(rows.len(), 4);
        assert!(!rows[0].caps.uplink && rows[0].caps.tag_localization); // Millimetro
        assert!(rows[1].caps.uplink && !rows[1].caps.downlink); // mmTag
        assert!(rows[2].caps.downlink && !rows[2].caps.commodity_radar); // MilBack
    }
}
