//! Cross-cell tag handoff: uplink sessions that survive cell migration.
//!
//! A mobile tag's uplink is one long bit stream chopped into per-frame
//! windows; which radar cell decodes a given window is a deployment detail
//! that must not change the stream. The [`HandoffBus`] is the fleet-wide
//! ledger of those streams: every mobile frame carries a
//! [`SessionHop`](biscatter_runtime::source::SessionHop) naming its tag and
//! session-local sequence number, and whichever cell processes the frame
//! appends the decoded bits at that position. When the appending cell
//! differs from the session's current owner, that *is* the handoff — the
//! session records the ownership change and carries its decoder state
//! (chirps-per-bit framing, accumulated bits) forward untouched.
//!
//! Ordering is enforced by sequence gating, not locks held across frames: a
//! shard asks [`HandoffBus::ready`] before decoding a mobile frame and
//! stashes the frame if an earlier window is still in flight elsewhere.
//! Because a fleet feeder admits frames in tick order, the window a gated
//! frame waits for was always admitted earlier — wait chains run strictly
//! backwards in sequence and therefore cannot cycle. Lossy admission keeps
//! sessions live by [`skipping`](HandoffBus::skip) windows it dropped, so a
//! gate never waits for bits that will never arrive.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

use biscatter_obs::metrics::Counter;

/// One mobile tag's uplink session: identity, decoder framing, and the bit
/// stream accumulated across every cell that hosted the tag.
#[derive(Debug, Clone)]
pub struct UplinkSession {
    /// The roaming tag this session belongs to.
    pub tag: usize,
    /// Decoder framing: chirps per uplink bit window (see
    /// [`biscatter_radar::receiver::uplink::chirps_per_bit`]). Fixed at
    /// session open; every later cell must decode with the same framing.
    pub chirps_per_bit: usize,
    /// Decoded bits in session order, concatenated across cells.
    pub bits: Vec<bool>,
    /// Cell currently owning the session (the last cell that appended).
    pub owner: usize,
    /// Ownership changes recorded so far.
    pub handoffs: u64,
    /// Next sequence number the session will accept.
    pub next_seq: u64,
    /// Windows dropped by lossy admission (never decoded, counted so the
    /// gate can advance past them).
    pub skipped: BTreeSet<u64>,
}

impl UplinkSession {
    fn new(tag: usize, owner: usize, chirps_per_bit: usize) -> Self {
        UplinkSession {
            tag,
            chirps_per_bit,
            bits: Vec::new(),
            owner,
            handoffs: 0,
            next_seq: 0,
            skipped: BTreeSet::new(),
        }
    }

    /// Advances `next_seq` past the run of already-skipped windows.
    fn advance(&mut self) {
        self.next_seq += 1;
        while self.skipped.remove(&self.next_seq) {
            self.next_seq += 1;
        }
    }
}

/// Fleet-wide session ledger. Shared by reference across every shard; all
/// operations take one short lock (session state is tiny — the per-frame
/// decode itself happens outside the bus).
pub struct HandoffBus {
    sessions: Mutex<BTreeMap<usize, UplinkSession>>,
    handoff_count: Counter,
}

impl Default for HandoffBus {
    fn default() -> Self {
        HandoffBus {
            sessions: Mutex::new(BTreeMap::new()),
            handoff_count: biscatter_obs::registry().counter("fleet.handoff.count"),
        }
    }
}

impl HandoffBus {
    /// Locks the session ledger. A shard that panics while holding it must
    /// not stall every mobile tag in the fleet, and need not: a session is
    /// inserted whole, and an append moves the owner before it adds the
    /// window's bits and advances the sequence, so a holder that stops
    /// midway leaves at worst an ownership change whose window the gate
    /// still waits for.
    fn ledger(&self) -> MutexGuard<'_, BTreeMap<usize, UplinkSession>> {
        biscatter_obs::lock(&self.sessions)
    }

    /// True when window `seq` of `tag` is the next the session accepts —
    /// i.e. every earlier window was appended or skipped. A fresh tag
    /// accepts window 0.
    pub fn ready(&self, tag: usize, seq: u64) -> bool {
        let sessions = self.ledger();
        match sessions.get(&tag) {
            Some(s) => seq == s.next_seq,
            None => seq == 0,
        }
    }

    /// Appends window `seq`'s decoded `bits` to `tag`'s session on behalf
    /// of `cell`, opening the session if this is the tag's first window.
    /// Returns `true` when the append changed ownership (a handoff).
    ///
    /// Panics if `seq` is not the session's next accepted window (callers
    /// gate on [`ready`](Self::ready)) or if `chirps_per_bit` disagrees
    /// with the session's framing — both are scheduler bugs, not runtime
    /// conditions.
    pub fn append(
        &self,
        tag: usize,
        seq: u64,
        cell: usize,
        chirps_per_bit: usize,
        bits: &[bool],
    ) -> bool {
        let mut sessions = self.ledger();
        let s = sessions
            .entry(tag)
            .or_insert_with(|| UplinkSession::new(tag, cell, chirps_per_bit));
        assert_eq!(
            seq, s.next_seq,
            "out-of-order append for tag {tag}: got seq {seq}, expected {}",
            s.next_seq
        );
        if s.chirps_per_bit == 0 && s.bits.is_empty() {
            // The session was opened by a skip before any window was
            // decoded; the first real append fixes the framing.
            s.chirps_per_bit = chirps_per_bit;
            s.owner = cell;
        }
        assert_eq!(
            chirps_per_bit, s.chirps_per_bit,
            "tag {tag} framing changed mid-session"
        );
        let handed_off = s.owner != cell;
        if handed_off {
            let _span = biscatter_obs::span!("fleet.handoff");
            s.owner = cell;
            s.handoffs += 1;
            self.handoff_count.inc();
        }
        s.bits.extend_from_slice(bits);
        s.advance();
        handed_off
    }

    /// Records that window `seq` of `tag` was lost to admission (dropped or
    /// rejected) and will never be decoded, so the sequence gate can move
    /// past it. Safe to call for a tag with no session yet — the session
    /// opens with the skip already noted (framing is fixed by the first
    /// *appended* window; a session that only ever skips keeps the
    /// placeholder framing of 0).
    pub fn skip(&self, tag: usize, seq: u64) {
        let mut sessions = self.ledger();
        let s = sessions
            .entry(tag)
            .or_insert_with(|| UplinkSession::new(tag, usize::MAX, 0));
        if seq == s.next_seq {
            s.advance();
        } else if seq > s.next_seq {
            s.skipped.insert(seq);
        }
        // seq < next_seq would mean the window was already handled; ignore.
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.ledger().len()
    }

    /// True when no session was ever opened.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ownership changes across all sessions.
    pub fn handoffs(&self) -> u64 {
        self.ledger().values().map(|s| s.handoffs).sum()
    }

    /// Snapshot of every session, ordered by tag.
    pub fn sessions(&self) -> Vec<UplinkSession> {
        self.ledger().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_accumulate_in_order_and_count_handoffs() {
        let bus = HandoffBus::default();
        assert!(bus.ready(7, 0));
        assert!(!bus.ready(7, 1));
        assert!(!bus.append(7, 0, 0, 4, &[true, false]));
        assert!(bus.ready(7, 1));
        // Same cell: no handoff.
        assert!(!bus.append(7, 1, 0, 4, &[true]));
        // New cell: handoff, bits keep accumulating.
        assert!(bus.append(7, 2, 3, 4, &[false]));
        let s = &bus.sessions()[0];
        assert_eq!(s.bits, vec![true, false, true, false]);
        assert_eq!(s.owner, 3);
        assert_eq!(s.handoffs, 1);
        assert_eq!(bus.handoffs(), 1);
    }

    #[test]
    fn poisoned_ledger_keeps_sessions_working() {
        let bus = HandoffBus::default();
        assert!(!bus.append(7, 0, 0, 4, &[true]));
        // A shard panics while it holds the ledger.
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _ledger = bus.ledger();
                panic!("poisoning the ledger on purpose");
            })
            .join()
        });
        assert!(joined.is_err() && bus.sessions.is_poisoned());
        assert!(bus.ready(7, 1));
        assert!(bus.append(7, 1, 2, 4, &[false]), "a handoff to cell 2");
        bus.skip(7, 2);
        assert!(bus.ready(7, 3));
        assert_eq!((bus.len(), bus.is_empty(), bus.handoffs()), (1, false, 1));
        let s = &bus.sessions()[0];
        assert_eq!((s.bits.as_slice(), s.owner), (&[true, false][..], 2));
    }

    #[test]
    fn skip_unblocks_later_windows() {
        let bus = HandoffBus::default();
        bus.append(1, 0, 0, 4, &[true]);
        // Window 1 is lost before window 2 arrives.
        bus.skip(1, 1);
        assert!(bus.ready(1, 2));
        bus.append(1, 2, 1, 4, &[false]);
        // Out-of-order loss: window 4 lost while 3 still pending.
        bus.skip(1, 4);
        assert!(bus.ready(1, 3));
        bus.append(1, 3, 1, 4, &[true]);
        assert!(bus.ready(1, 5), "gate must jump the skipped window 4");
        let s = &bus.sessions()[0];
        assert_eq!(s.bits, vec![true, false, true]);
        assert_eq!(s.next_seq, 5);
    }

    #[test]
    fn skip_before_first_append_opens_gate_at_later_seq() {
        let bus = HandoffBus::default();
        bus.skip(2, 0);
        bus.skip(2, 1);
        assert!(bus.ready(2, 2));
        // The first real append fixes the framing and owner — no phantom
        // handoff from the skip-opened placeholder.
        assert!(!bus.append(2, 2, 5, 4, &[true]));
        let s = &bus.sessions()[0];
        assert_eq!(s.chirps_per_bit, 4);
        assert_eq!(s.owner, 5);
        assert_eq!(s.handoffs, 0);
    }
}
