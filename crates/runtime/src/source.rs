//! Workload generation: deterministic streams of ISAC frame jobs over
//! multiple simulated radar+tag deployments.
//!
//! Every job carries its own seed, derived from the workload's base seed and
//! the frame id with splitmix64. Frame results therefore depend only on the
//! job, never on worker scheduling — streaming cells and the one-shot path
//! produce identical outcomes for the same spec.

use biscatter_core::isac::{ClutterSpec, ColdStartSpec, IsacScenario, MoverSpec, TagDeployment};
use biscatter_core::system::BiScatterSystem;
use biscatter_radar::receiver::uplink::UplinkScheme;

/// One frame's worth of work for a cell.
#[derive(Debug, Clone)]
pub struct FrameJob {
    /// Monotonically increasing frame id (also the outcomes' sort key).
    pub id: u64,
    /// Which simulated radar emits this frame.
    pub radar_id: usize,
    /// Which of that radar's tags is addressed.
    pub tag_id: usize,
    /// Tag deployment + environment for this frame.
    pub scenario: IsacScenario,
    /// Downlink payload bytes.
    pub payload: Vec<u8>,
    /// Per-frame noise seed (splitmix-derived, scheduling-independent).
    pub seed: u64,
}

/// Parameters of a synthetic multi-radar streaming workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of simulated radars (frames round-robin across them).
    pub n_radars: usize,
    /// Tags deployed per radar.
    pub tags_per_radar: usize,
    /// Total frames to stream.
    pub n_frames: usize,
    /// Base seed; all per-frame seeds derive from it.
    pub base_seed: u64,
}

impl WorkloadSpec {
    /// The ISSUE workload: 4 radars, 8 tags each.
    pub fn four_by_eight(n_frames: usize, base_seed: u64) -> Self {
        WorkloadSpec {
            n_radars: 4,
            tags_per_radar: 8,
            n_frames,
            base_seed,
        }
    }

    /// Expands the spec into the full deterministic job list.
    ///
    /// Frame `f` goes to radar `f % n_radars`, addressing that radar's tags
    /// round-robin. Scenario geometry, payload, and seed are all pure
    /// functions of `(spec, f)`.
    pub fn jobs(&self, sys: &BiScatterSystem) -> Vec<FrameJob> {
        assert!(self.n_radars > 0 && self.tags_per_radar > 0);
        let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
        (0..self.n_frames as u64)
            .map(|id| {
                let radar_id = (id as usize) % self.n_radars;
                let tag_id = (id as usize / self.n_radars) % self.tags_per_radar;
                let seed = splitmix64(self.base_seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));

                // Tags sit 1.5–8 m out on a per-radar grid; subcarriers sit
                // on Doppler bins 12, 14, …, 12 + 2·(tags − 1). A frame of
                // `frame_chirps` chirps resolves bins only below
                // `frame_chirps / 2`: on the 32-chirp streaming frame that is
                // bin 16, so the tags on bins 16 and up cannot be located.
                let range_m = 1.5 + 0.75 * tag_id as f64 + 0.2 * radar_id as f64;
                let dopp_bin = 12 + 2 * tag_id;
                let mod_freq_hz = dopp_bin as f64 / frame_s;
                let mut scenario = IsacScenario::single_tag(range_m, mod_freq_hz);
                // Alternate environments: even radars see office clutter,
                // odd radars watch a walking-speed mover.
                if radar_id % 2 == 0 {
                    scenario.clutter = vec![ClutterSpec {
                        range_m: 3.4 + 0.3 * radar_id as f64,
                        relative_amp: 6.0,
                    }];
                } else {
                    scenario.movers = vec![MoverSpec {
                        range_m: 6.0,
                        velocity_mps: if radar_id % 4 == 1 { -1.5 } else { 2.0 },
                        relative_amp: 8.0,
                    }];
                }

                // 4-byte command payload, unique per frame.
                let payload = seed.to_be_bytes()[..4].to_vec();

                FrameJob {
                    id,
                    radar_id,
                    tag_id,
                    scenario,
                    payload,
                    seed,
                }
            })
            .collect()
    }
}

/// A deterministic multi-tag workload: every frame carries `tags_per_frame`
/// tags (one primary + extras) at distinct modulation bins and ranges, so
/// the pipeline's detect stage exercises the batched multi-tag engine. Odd
/// extras transmit seeded uplink bits, even extras beacon only; geometry,
/// bits, and seeds are pure functions of `(base_seed, frame id)`, like
/// [`WorkloadSpec::jobs`].
pub fn multi_tag_jobs(
    sys: &BiScatterSystem,
    n_frames: usize,
    tags_per_frame: usize,
    base_seed: u64,
) -> Vec<FrameJob> {
    assert!(tags_per_frame >= 1, "at least the primary tag");
    let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
    let bit_s = 8.0 * sys.radar.t_period;
    let n_bits = sys.frame_chirps / 8;
    (0..n_frames as u64)
        .map(|id| {
            let seed = splitmix64(base_seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let bits_for = |slot: usize| -> Vec<bool> {
                let mut s = splitmix64(seed ^ slot as u64);
                (0..n_bits)
                    .map(|_| {
                        s = splitmix64(s);
                        s & 1 == 1
                    })
                    .collect()
            };
            // Tags sit on odd Doppler bins 5, 7, 9, …. Odd harmonics of an
            // odd bin are odd, so they land on other tags' rows instead of
            // staying apart: the primary's 3rd and 5th fall on bins 15 and
            // 25.
            let freq_for = |slot: usize| (5 + 2 * slot) as f64 / frame_s;
            let mut scenario = IsacScenario::single_tag(2.0, freq_for(0));
            scenario.uplink_bits = bits_for(0);
            scenario.uplink_scheme = UplinkScheme::Ook {
                freq_hz: freq_for(0),
            };
            scenario.uplink_bit_duration_s = bit_s;
            for t in 1..tags_per_frame {
                scenario = scenario.with_extra_tag(TagDeployment {
                    range_m: 2.0 + 0.8 * t as f64,
                    mod_freq_hz: freq_for(t),
                    uplink_bits: if t % 2 == 0 { Vec::new() } else { bits_for(t) },
                    uplink_scheme: UplinkScheme::Ook {
                        freq_hz: freq_for(t),
                    },
                    uplink_bit_duration_s: bit_s,
                });
            }
            scenario.clutter = vec![ClutterSpec {
                range_m: 7.5,
                relative_amp: 5.0,
            }];
            let payload = seed.to_be_bytes()[..4].to_vec();
            FrameJob {
                id,
                radar_id: 0,
                tag_id: 0,
                scenario,
                payload,
                seed,
            }
        })
        .collect()
}

/// A deterministic cold-start workload: every frame's tag starts
/// unsynchronized, so the pipeline must run the acquisition stage before
/// any aligned processing. Timing offsets are seed-derived in
/// `[0, 0.9·T_period)`, tags cycle through the first four slope hypotheses,
/// and every seventh frame is a noise-only dwell the acquisition stage must
/// reject — all pure functions of `(base_seed, frame id)`, like
/// [`WorkloadSpec::jobs`].
pub fn cold_start_jobs(sys: &BiScatterSystem, n_frames: usize, base_seed: u64) -> Vec<FrameJob> {
    let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
    (0..n_frames as u64)
        .map(|id| {
            let seed = splitmix64(base_seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let offset_s =
                (splitmix64(seed) % 1_000_000) as f64 / 1_000_000.0 * 0.9 * sys.radar.t_period;
            let tag_id = (id % 4) as usize;
            let mut scenario = IsacScenario::single_tag(
                2.5 + 0.5 * tag_id as f64,
                (16 + 2 * tag_id) as f64 / frame_s,
            );
            scenario.cold_start = Some(ColdStartSpec {
                timing_offset_s: offset_s,
                slope_idx: tag_id,
                tag_present: id % 7 != 6,
            });
            FrameJob {
                id,
                radar_id: 0,
                tag_id,
                scenario,
                payload: seed.to_be_bytes()[..4].to_vec(),
                seed,
            }
        })
        .collect()
}

/// Identity of a mobile tag's uplink-session frame inside a fleet workload.
///
/// A mobile tag emits one uplink frame per tick; `seq` is the tick, i.e.
/// the tag's session-local frame index. Whichever cell processes the frame
/// appends its decoded bits to the tag's session at position `seq` — the
/// `HandoffBus` in `biscatter-fleet` uses this ordering key to keep the
/// accumulated bit sequence identical no matter how cells are sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHop {
    /// Which mobile tag (0-based, stable across the whole workload).
    pub tag: usize,
    /// The tag's session-local frame index (append order).
    pub seq: u64,
}

/// One frame of fleet work: a [`FrameJob`] bound for a specific cell, plus
/// the uplink-session hop when the frame belongs to a mobile tag.
#[derive(Debug, Clone)]
pub struct CellJob {
    /// Destination cell index in `0..n_cells`.
    pub cell: usize,
    /// `Some` when this frame carries a mobile tag's uplink window.
    pub hop: Option<SessionHop>,
    /// The frame itself (id is globally unique across the fleet).
    pub job: FrameJob,
}

/// Parameters of a deterministic multi-cell mobility workload.
///
/// The fleet timeline advances in ticks `0..n_ticks`; every cell receives
/// exactly one frame per tick. `mobile_tags` tags roam the fleet: at tick
/// `t`, tag `m` is camped in cell `(m + t / dwell_ticks) % n_cells`, so
/// after each dwell period every mobile tag hands off to the next cell
/// (identity and uplink session intact). Cells not hosting a mobile tag at
/// a tick process a stationary background frame. Geometry, payloads, uplink
/// bits, and seeds are all pure functions of `(spec, tick, cell)`, like
/// [`WorkloadSpec::jobs`].
#[derive(Debug, Clone, Copy)]
pub struct MobilitySpec {
    /// Number of radar cells in the fleet.
    pub n_cells: usize,
    /// Number of roaming tags (at most `n_cells`: the camping rule parks
    /// distinct tags in distinct cells).
    pub mobile_tags: usize,
    /// Ticks in the workload; every mobile tag emits one uplink frame per
    /// tick, so each session accumulates `n_ticks` windows of bits.
    pub n_ticks: usize,
    /// Ticks a mobile tag camps in one cell before handing off.
    pub dwell_ticks: usize,
    /// Base seed; every per-frame seed derives from it.
    pub base_seed: u64,
}

impl MobilitySpec {
    /// A two-cell smoke configuration (used by the handoff determinism
    /// test): one tag bouncing between two cells every `dwell` ticks.
    pub fn two_cell(n_ticks: usize, dwell: usize, base_seed: u64) -> Self {
        MobilitySpec {
            n_cells: 2,
            mobile_tags: 1,
            n_ticks,
            dwell_ticks: dwell,
            base_seed,
        }
    }

    /// Which cell mobile tag `m` is camped in at tick `t`.
    pub fn cell_of(&self, tag: usize, tick: u64) -> usize {
        (tag + (tick as usize / self.dwell_ticks.max(1))) % self.n_cells
    }

    /// Uplink bits per mobile frame for `sys` (one bit per 8 chirps, the
    /// same framing as [`multi_tag_jobs`]).
    pub fn bits_per_frame(sys: &BiScatterSystem) -> usize {
        sys.frame_chirps / 8
    }

    /// The seeded uplink bits mobile tag `tag` transmits at tick `seq` —
    /// the ground truth the decoded session is checked against.
    pub fn tx_bits(&self, sys: &BiScatterSystem, tag: usize, seq: u64) -> Vec<bool> {
        let n_bits = Self::bits_per_frame(sys);
        let mut s = splitmix64(self.base_seed ^ 0xB17_5EED ^ ((tag as u64) << 32) ^ seq);
        (0..n_bits)
            .map(|_| {
                s = splitmix64(s);
                s & 1 == 1
            })
            .collect()
    }

    /// The frame mobile tag `tag` emits at tick `seq`, independent of which
    /// cell hosts it — handoff must not change the radio link, only the
    /// owner. (Globally unique frame ids come from [`Self::jobs`]; the
    /// oracle path reuses this builder with the same ids.)
    fn mobile_job(&self, sys: &BiScatterSystem, id: u64, tag: usize, seq: u64) -> FrameJob {
        let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
        let seed = splitmix64(
            self.base_seed ^ ((tag as u64) << 48) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Doppler bins 16, 18, … keep each mobile tag's fundamental on its
        // own map row, in the band the OOK subcarrier decoder resolves most
        // reliably for 32-chirp frames.
        let mod_freq_hz = (16 + 2 * tag) as f64 / frame_s;
        let mut scenario = IsacScenario::single_tag(4.0 + 0.6 * tag as f64, mod_freq_hz);
        scenario.uplink_bits = self.tx_bits(sys, tag, seq);
        scenario.uplink_scheme = UplinkScheme::Ook {
            freq_hz: mod_freq_hz,
        };
        scenario.uplink_bit_duration_s = 8.0 * sys.radar.t_period;
        FrameJob {
            id,
            radar_id: 0,
            tag_id: tag,
            scenario,
            payload: seed.to_be_bytes()[..4].to_vec(),
            seed,
        }
    }

    /// The background frame cell `cell` processes when no mobile tag is
    /// camped there: a stationary tag against office clutter. (`id` encodes
    /// the tick, so the seed is still tick-unique.)
    fn background_job(&self, sys: &BiScatterSystem, id: u64, cell: usize) -> FrameJob {
        let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
        let seed = splitmix64(self.base_seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut scenario = IsacScenario::single_tag(3.0 + 0.5 * (cell % 8) as f64, 24.0 / frame_s);
        scenario.clutter = vec![ClutterSpec {
            range_m: 6.5,
            relative_amp: 5.0,
        }];
        FrameJob {
            id,
            radar_id: cell,
            tag_id: 0,
            scenario,
            payload: seed.to_be_bytes()[..4].to_vec(),
            seed,
        }
    }

    /// Expands the spec into the fleet's full job list, tick-major then
    /// cell-major (the admission order a fleet feeder uses). Frame
    /// `tick * n_cells + cell` goes to `cell`; at most one mobile tag camps
    /// per cell per tick.
    pub fn jobs(&self, sys: &BiScatterSystem) -> Vec<CellJob> {
        assert!(self.n_cells > 0, "fleet needs at least one cell");
        assert!(
            self.mobile_tags <= self.n_cells,
            "at most one mobile tag per cell per tick"
        );
        let mut out = Vec::with_capacity(self.n_cells * self.n_ticks);
        for tick in 0..self.n_ticks as u64 {
            // Invert the camping rule once per tick: which tag (if any) is
            // in each cell right now.
            let mut tag_in_cell: Vec<Option<usize>> = vec![None; self.n_cells];
            for tag in 0..self.mobile_tags {
                tag_in_cell[self.cell_of(tag, tick)] = Some(tag);
            }
            for (cell, camped) in tag_in_cell.iter().enumerate() {
                let id = tick * self.n_cells as u64 + cell as u64;
                let (job, hop) = match *camped {
                    Some(tag) => (
                        self.mobile_job(sys, id, tag, tick),
                        Some(SessionHop { tag, seq: tick }),
                    ),
                    None => (self.background_job(sys, id, cell), None),
                };
                out.push(CellJob { cell, hop, job });
            }
        }
        out
    }

    /// The single-cell oracle for mobile tag `tag`: its frames in session
    /// order, exactly as [`Self::jobs`] would route them (same ids, same
    /// seeds). Decoding these serially and concatenating the bits gives the
    /// reference session the sharded fleet must reproduce bit-for-bit.
    pub fn oracle_jobs(&self, sys: &BiScatterSystem, tag: usize) -> Vec<FrameJob> {
        (0..self.n_ticks as u64)
            .map(|tick| {
                let cell = self.cell_of(tag, tick);
                let id = tick * self.n_cells as u64 + cell as u64;
                self.mobile_job(sys, id, tag, tick)
            })
            .collect()
    }
}

/// A reduced-cost `paper_9ghz` system for streaming tests, examples, and
/// benchmarks: 32-chirp frames and 256-point range processing keep a single
/// frame cheap enough that multi-hundred-frame streams run in CI, while every
/// stage still does real work.
pub fn streaming_system() -> BiScatterSystem {
    let mut sys = BiScatterSystem::paper_9ghz();
    sys.frame_chirps = 32;
    sys.rx.n_fft = 256;
    sys.rx.n_range_bins = 256;
    sys
}

/// splitmix64: cheap, high-quality 64-bit mixing (same finalizer the core
/// noise source uses for seeding).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_deterministic() {
        let sys = streaming_system();
        let spec = WorkloadSpec::four_by_eight(64, 7);
        let a = spec.jobs(&sys);
        let b = spec.jobs(&sys);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.payload, y.payload);
            assert_eq!(x.scenario.tag_range_m, y.scenario.tag_range_m);
        }
    }

    #[test]
    fn jobs_cover_all_radars_and_tags() {
        let sys = streaming_system();
        let spec = WorkloadSpec::four_by_eight(32, 1);
        let jobs = spec.jobs(&sys);
        let radars: std::collections::BTreeSet<_> = jobs.iter().map(|j| j.radar_id).collect();
        let tags: std::collections::BTreeSet<_> = jobs.iter().map(|j| j.tag_id).collect();
        assert_eq!(radars.len(), 4);
        assert_eq!(tags.len(), 8);
    }

    #[test]
    fn mobility_jobs_route_one_mobile_tag_per_cell_per_tick() {
        let sys = streaming_system();
        let spec = MobilitySpec {
            n_cells: 4,
            mobile_tags: 3,
            n_ticks: 12,
            dwell_ticks: 2,
            base_seed: 9,
        };
        let jobs = spec.jobs(&sys);
        assert_eq!(jobs.len(), 4 * 12);
        // Ids are globally unique and tick-major.
        for (i, cj) in jobs.iter().enumerate() {
            assert_eq!(cj.job.id, i as u64);
            assert_eq!(cj.cell, i % 4);
        }
        // Every tick carries exactly `mobile_tags` hops, in distinct cells.
        for tick in 0..12u64 {
            let hops: Vec<_> = jobs
                .iter()
                .filter(|cj| cj.job.id / 4 == tick && cj.hop.is_some())
                .collect();
            assert_eq!(hops.len(), 3);
            let cells: std::collections::BTreeSet<_> = hops.iter().map(|cj| cj.cell).collect();
            assert_eq!(cells.len(), 3);
            for cj in hops {
                let hop = cj.hop.unwrap();
                assert_eq!(hop.seq, tick);
                assert_eq!(spec.cell_of(hop.tag, tick), cj.cell);
            }
        }
        // Each tag visits more than one cell over the workload (handoffs
        // actually happen).
        for tag in 0..3 {
            let cells: std::collections::BTreeSet<_> =
                (0..12).map(|t| spec.cell_of(tag, t)).collect();
            assert!(cells.len() > 1, "tag {tag} never handed off");
        }
    }

    #[test]
    fn mobility_oracle_matches_routed_mobile_frames() {
        let sys = streaming_system();
        let spec = MobilitySpec::two_cell(10, 3, 77);
        let jobs = spec.jobs(&sys);
        let oracle = spec.oracle_jobs(&sys, 0);
        assert_eq!(oracle.len(), 10);
        let routed: Vec<_> = jobs
            .iter()
            .filter(|cj| cj.hop.is_some_and(|h| h.tag == 0))
            .collect();
        assert_eq!(routed.len(), 10);
        for (o, r) in oracle.iter().zip(&routed) {
            assert_eq!(o.id, r.job.id);
            assert_eq!(o.seed, r.job.seed);
            assert_eq!(o.scenario.uplink_bits, r.job.scenario.uplink_bits);
        }
    }

    #[test]
    fn different_base_seeds_differ() {
        let sys = streaming_system();
        let a = WorkloadSpec::four_by_eight(8, 1).jobs(&sys);
        let b = WorkloadSpec::four_by_eight(8, 2).jobs(&sys);
        assert!(a.iter().zip(&b).any(|(x, y)| x.seed != y.seed));
    }
}
