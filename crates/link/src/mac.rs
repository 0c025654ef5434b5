//! Multi-tag and multi-radar medium access — the paper's §6 extension.
//!
//! Multi-tag: each tag is assigned a unique uplink modulation (subcarrier)
//! frequency so the radar separates tags in the Doppler/modulation domain,
//! plus a tag ID carried in the downlink header for addressing.
//!
//! Multi-radar: slotted-ALOHA time division so nearby radars don't chirp
//! over each other.

/// A tag identifier. `0xFF` is reserved for broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u8);

/// Destination address of a downlink command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagAddress {
    /// One specific tag.
    Unicast(TagId),
    /// Every tag in range.
    Broadcast,
}

impl TagAddress {
    /// Wire representation (broadcast = 0xFF).
    pub fn wire_byte(&self) -> u8 {
        match self {
            TagAddress::Unicast(TagId(id)) => *id,
            TagAddress::Broadcast => 0xFF,
        }
    }

    /// Parses the wire byte.
    pub fn from_wire_byte(b: u8) -> TagAddress {
        if b == 0xFF {
            TagAddress::Broadcast
        } else {
            TagAddress::Unicast(TagId(b))
        }
    }

    /// Whether a tag with `id` should accept a message with this address.
    pub fn matches(&self, id: TagId) -> bool {
        match self {
            TagAddress::Broadcast => true,
            TagAddress::Unicast(t) => *t == id,
        }
    }
}

/// Allocates uplink modulation frequencies to tags.
///
/// Frequencies must differ by at least the radar's slow-time (Doppler)
/// resolution `1 / (N_chirps · T_period)` so the tags' modulation peaks land
/// in separate Doppler bins; a comfortable margin of several bins is used.
///
/// What the plan guarantees: assignments are at least `spacing_hz` (the
/// margin) apart and stay at or below `f_max_hz = 0.9 ×` the slow-time
/// Nyquist. It does **not** keep a tag off another tag's harmonics: a
/// square-wave subcarrier carries strong odd harmonics, and at margin 8 the
/// plan assigns Doppler bins 12, 20, 28, 36, …, where 36 = 3 × 12 and
/// 60 = 5 × 12 = 3 × 20. A harmonic-aware plan is open item 1c in
/// ROADMAP.md.
#[derive(Debug, Clone)]
pub struct ModFreqPlanner {
    /// Lowest assignable subcarrier, Hz. Must be high enough to clear the
    /// static-clutter DC region after background subtraction.
    pub f_min_hz: f64,
    /// Highest assignable subcarrier, Hz (bounded by half the chirp rate —
    /// the slow-time Nyquist).
    pub f_max_hz: f64,
    /// Minimum spacing between assigned frequencies, Hz.
    pub spacing_hz: f64,
    assigned: Vec<(TagId, f64)>,
}

impl ModFreqPlanner {
    /// Creates a planner for a frame of `n_chirps` chirps at period
    /// `t_period_s`, with `margin_bins` Doppler bins of spacing between tags.
    pub fn new(n_chirps: usize, t_period_s: f64, margin_bins: usize) -> Self {
        assert!(n_chirps > 1 && t_period_s > 0.0);
        let doppler_res = 1.0 / (n_chirps as f64 * t_period_s);
        let nyquist = 0.5 / t_period_s;
        let spacing_hz = margin_bins.max(1) as f64 * doppler_res;
        ModFreqPlanner {
            // Eight Doppler bins clear the static-clutter region around DC;
            // the extra half spacing shifts the whole comb but does not stop
            // one assignment from being an odd multiple of another (see the
            // type docs).
            f_min_hz: 8.0 * doppler_res + 0.5 * spacing_hz,
            f_max_hz: 0.9 * nyquist,
            spacing_hz,
            assigned: Vec::new(),
        }
    }

    /// Assigns the next free frequency to `tag`, or `None` if the band is
    /// exhausted. Re-assigning an already-known tag returns its existing
    /// frequency.
    pub fn assign(&mut self, tag: TagId) -> Option<f64> {
        if let Some((_, f)) = self.assigned.iter().find(|(t, _)| *t == tag) {
            return Some(*f);
        }
        let f = self.f_min_hz + self.assigned.len() as f64 * self.spacing_hz;
        if f > self.f_max_hz {
            return None;
        }
        self.assigned.push((tag, f));
        Some(f)
    }

    /// Number of tags that can be accommodated.
    pub fn capacity(&self) -> usize {
        if self.f_max_hz < self.f_min_hz {
            return 0;
        }
        ((self.f_max_hz - self.f_min_hz) / self.spacing_hz).floor() as usize + 1
    }
}

/// Slotted-ALOHA schedule for multiple radars sharing a space.
///
/// Each radar picks a random slot per round; a round succeeds for a radar if
/// no other radar picked the same slot. This is the simple TDM extension the
/// paper suggests for multi-radar deployments.
#[derive(Debug, Clone)]
pub struct SlottedAloha {
    /// Number of slots per round.
    pub n_slots: usize,
}

impl SlottedAloha {
    /// Creates a schedule with `n_slots` slots per round.
    ///
    /// # Panics
    /// Panics if `n_slots == 0`.
    pub fn new(n_slots: usize) -> Self {
        assert!(n_slots > 0, "need at least one slot");
        SlottedAloha { n_slots }
    }

    /// Simulates one round for `n_radars` using the provided slot picks
    /// (values `< n_slots`). Returns which radars transmitted without
    /// collision.
    pub fn round_outcome(&self, picks: &[usize]) -> Vec<bool> {
        let mut counts = vec![0usize; self.n_slots];
        for &p in picks {
            assert!(p < self.n_slots, "slot {p} out of range");
            counts[p] += 1;
        }
        picks.iter().map(|&p| counts[p] == 1).collect()
    }

    /// Theoretical per-radar success probability with `n` contenders:
    /// `(1 - 1/s)^(n-1)`.
    pub fn success_probability(&self, n_radars: usize) -> f64 {
        if n_radars == 0 {
            return 0.0;
        }
        (1.0 - 1.0 / self.n_slots as f64).powi(n_radars as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_wire_roundtrip() {
        for b in 0u8..=255 {
            let a = TagAddress::from_wire_byte(b);
            assert_eq!(a.wire_byte(), b);
        }
    }

    #[test]
    fn broadcast_matches_everyone() {
        assert!(TagAddress::Broadcast.matches(TagId(0)));
        assert!(TagAddress::Broadcast.matches(TagId(200)));
    }

    #[test]
    fn unicast_matches_only_target() {
        let a = TagAddress::Unicast(TagId(7));
        assert!(a.matches(TagId(7)));
        assert!(!a.matches(TagId(8)));
    }

    #[test]
    fn planner_assigns_spaced_frequencies() {
        let mut p = ModFreqPlanner::new(256, 120e-6, 4);
        let f1 = p.assign(TagId(1)).unwrap();
        let f2 = p.assign(TagId(2)).unwrap();
        let f3 = p.assign(TagId(3)).unwrap();
        assert!((f2 - f1 - p.spacing_hz).abs() < 1e-9);
        assert!((f3 - f2 - p.spacing_hz).abs() < 1e-9);
        // All below slow-time Nyquist.
        let nyquist = 0.5 / 120e-6;
        assert!(f3 < nyquist);
    }

    #[test]
    fn planner_idempotent_per_tag() {
        let mut p = ModFreqPlanner::new(128, 120e-6, 2);
        let f1 = p.assign(TagId(9)).unwrap();
        let f1b = p.assign(TagId(9)).unwrap();
        assert_eq!(f1, f1b);
        assert_eq!(p.assigned.len(), 1);
    }

    #[test]
    fn planner_exhausts() {
        let mut p = ModFreqPlanner::new(64, 120e-6, 8);
        let cap = p.capacity();
        assert!(cap > 0);
        let mut assigned = 0;
        for id in 0..=255u8 {
            if p.assign(TagId(id)).is_some() {
                assigned += 1;
            } else {
                break;
            }
        }
        assert!(
            assigned >= 1 && assigned <= cap + 1,
            "assigned {assigned}, cap {cap}"
        );
        // Once exhausted, further assignments fail.
        assert!(p.assign(TagId(250)).is_none());
    }

    #[test]
    fn planner_tiny_frame_has_no_capacity() {
        // 16 chirps at 120 µs: the usable band between the clutter guard and
        // slow-time Nyquist vanishes.
        let mut p = ModFreqPlanner::new(16, 120e-6, 4);
        assert_eq!(p.capacity(), 0);
        assert!(p.assign(TagId(1)).is_none());
    }

    #[test]
    fn aloha_collision_detection() {
        let aloha = SlottedAloha::new(4);
        // Radars 0 and 1 collide in slot 2; radar 2 alone in slot 0.
        let outcome = aloha.round_outcome(&[2, 2, 0]);
        assert_eq!(outcome, vec![false, false, true]);
    }

    #[test]
    fn aloha_success_probability() {
        let aloha = SlottedAloha::new(10);
        assert!((aloha.success_probability(1) - 1.0).abs() < 1e-12);
        let p2 = aloha.success_probability(2);
        assert!((p2 - 0.9).abs() < 1e-12);
        assert!(aloha.success_probability(5) < p2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn aloha_rejects_zero_slots() {
        SlottedAloha::new(0);
    }
}
