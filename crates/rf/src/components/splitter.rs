//! Two-way power splitter/combiner (ZC2PD-18263-S+ class).
//!
//! The tag decoder uses one splitter to divide the incident signal between
//! the two delay lines and a second, reversed, to recombine them
//! (paper Fig. 4). An ideal 2-way split costs 3.01 dB per port; real parts
//! add an excess insertion loss.

/// A 2-way splitter/combiner model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Splitter {
    /// Excess insertion loss beyond the ideal 3.01 dB split, dB.
    pub excess_loss_db: f64,
    /// Amplitude imbalance between the two output ports, dB
    /// (port A is `+imbalance/2`, port B `−imbalance/2` relative to nominal).
    pub imbalance_db: f64,
}

impl Splitter {
    /// Ideal lossless splitter.
    pub fn ideal() -> Self {
        Splitter {
            excess_loss_db: 0.0,
            imbalance_db: 0.0,
        }
    }

    /// Typical Mini-Circuits-class part at X band.
    pub fn zc2pd() -> Self {
        Splitter {
            excess_loss_db: 0.6,
            imbalance_db: 0.15,
        }
    }

    /// Per-port insertion loss in dB when used as a splitter
    /// (ideal 3.01 dB + excess, ± half the imbalance).
    pub fn port_loss_db(&self, port: SplitPort) -> f64 {
        let base = 3.0103 + self.excess_loss_db;
        match port {
            SplitPort::A => base - self.imbalance_db / 2.0,
            SplitPort::B => base + self.imbalance_db / 2.0,
        }
    }

    /// Loss in dB when used as a combiner (same reciprocal loss per input).
    pub fn combine_loss_db(&self) -> f64 {
        3.0103 + self.excess_loss_db
    }
}

/// Output port selector for [`Splitter::port_loss_db`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPort {
    /// First output port.
    A,
    /// Second output port.
    B,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_split_is_3db() {
        let s = Splitter::ideal();
        assert!((s.port_loss_db(SplitPort::A) - 3.0103).abs() < 1e-9);
        assert!((s.port_loss_db(SplitPort::B) - 3.0103).abs() < 1e-9);
    }

    #[test]
    fn ideal_split_conserves_power() {
        let s = Splitter::ideal();
        let pa = 10f64.powf(-s.port_loss_db(SplitPort::A) / 10.0);
        let pb = 10f64.powf(-s.port_loss_db(SplitPort::B) / 10.0);
        assert!((pa + pb - 1.0).abs() < 1e-4);
    }

    #[test]
    fn real_part_lossier_than_ideal() {
        let s = Splitter::zc2pd();
        assert!(s.port_loss_db(SplitPort::A) > 3.0);
        assert!(s.combine_loss_db() > 3.5);
    }

    #[test]
    fn imbalance_splits_asymmetrically() {
        let s = Splitter {
            excess_loss_db: 0.0,
            imbalance_db: 1.0,
        };
        assert!(s.port_loss_db(SplitPort::A) < s.port_loss_db(SplitPort::B));
        assert!((s.port_loss_db(SplitPort::B) - s.port_loss_db(SplitPort::A) - 1.0).abs() < 1e-12);
    }
}
