//! The three workloads: their parameters and their seeded inputs.
//!
//! The server only ever receives what these generators produce; the seed
//! is the one knob. `ward_paced` and `dashboard_scrape` replay 64 patients
//! from the physical simulator (breathing → rfchannel → epcgen2 reader)
//! on an open-loop schedule; `fleet_flood` streams the 100k-user synthetic
//! fleet trace as fast as TCP backpressure allows.

use bench::fleet::trace_chunk;
use bench::harness::{capture, RATE_CYCLE_BPM};
use breathing::{Posture, Scenario, Subject, TagSite, Waveform};
use epcgen2::report::TagReport;
use rfchannel::geometry::Vec3;
use tagbreathe::PipelineConfig;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open loop, 64 simulated patients, one HTTP client polling one user.
    WardPaced,
    /// Closed loop, 100k synthetic users over two connections, no HTTP.
    FleetFlood,
    /// `WardPaced`'s input and schedule; the HTTP client scrapes every
    /// operator endpoint in turn.
    DashboardScrape,
}

/// Workload names as the command line takes them.
pub const NAMES: [&str; 3] = ["ward_paced", "fleet_flood", "dashboard_scrape"];

/// Bays (one reader each) of the ward, and subjects per bay (paper
/// Table I: 1–4 users per reader, 3 tags each).
const BAYS: usize = 16;
const PER_BAY: usize = 4;
/// Stream-time span of one open-loop Batch frame, seconds.
const PACED_BATCH_SPAN_S: f64 = 0.1;
/// Stream seconds replayed per wall second on the paced workloads.
const PACED_COMPRESSION: f64 = 20.0;

/// The fleet trace: the cliff population of `BENCH_fleet.json`, sharing
/// one reader's aggregate read budget.
const FLOOD_USERS: usize = 100_000;
const FLOOD_AGGREGATE_HZ: f64 = 2_000.0;
/// Reports generated per step and split over the two lanes: about 256
/// per lane's Batch, `tagbreathe-cli feed`'s default batch size. The
/// server's 1024-event queue then holds about 262k reports, well under a
/// round, so TCP backpressure closes the loop for most of it.
const FLOOD_STEP_REPORTS: usize = 512;
/// Reports per wall second the flood is sized for. Sizing only — the
/// measured rate is whatever the server sustains.
const FLOOD_SIZING_RATE: f64 = 360_000.0;
/// Wall seconds one flood round is sized for. A run of `seconds` makes
/// `seconds / FLOOD_ROUND_S` cold start → load → shutdown rounds on the
/// same input and reports their median: on a 2-CPU host one round's
/// throughput swings by ±15% with thread placement.
const FLOOD_ROUND_S: f64 = 2.0;

/// Parameters of one workload at one run length.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// The traffic mix.
    pub kind: Kind,
    /// Its command-line name.
    pub name: &'static str,
    /// Monitored users.
    pub users: usize,
    /// Reader connections (merge lanes).
    pub lanes: usize,
    /// Server analysis window, seconds.
    pub window_s: f64,
    /// Server snapshot cadence, seconds of stream time.
    pub cadence_s: f64,
    /// Fleet shard workers.
    pub shards: usize,
    /// Stream seconds per wall second (open loop), or `None` (closed loop).
    pub compression: Option<f64>,
    /// Stream time the input covers, seconds.
    pub stream_s: f64,
    /// Cold start → load → shutdown cycles per run, all on the same input.
    pub rounds: usize,
}

impl Params {
    /// The workload `name` sized for a run of `seconds`.
    ///
    /// # Errors
    ///
    /// An unknown name, or a run too short to outlast the first window.
    pub fn new(name: &str, seconds: u64) -> Result<Self, String> {
        let secs = seconds as f64;
        let (kind, name) = match name {
            "ward_paced" => (Kind::WardPaced, "ward_paced"),
            "fleet_flood" => (Kind::FleetFlood, "fleet_flood"),
            "dashboard_scrape" => (Kind::DashboardScrape, "dashboard_scrape"),
            other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
        };
        let params = match kind {
            Kind::WardPaced | Kind::DashboardScrape => Params {
                kind,
                name,
                users: BAYS * PER_BAY,
                lanes: 1,
                window_s: 25.0,
                cadence_s: 1.0,
                shards: 2,
                compression: Some(PACED_COMPRESSION),
                stream_s: secs * PACED_COMPRESSION,
                rounds: 1,
            },
            Kind::FleetFlood => {
                let rounds = (secs / FLOOD_ROUND_S).round().max(1.0);
                let per_round = FLOOD_ROUND_S.min(secs) * FLOOD_SIZING_RATE;
                let steps = (per_round / FLOOD_STEP_REPORTS as f64).ceil().max(1.0);
                Params {
                    kind,
                    name,
                    users: FLOOD_USERS,
                    lanes: 2,
                    window_s: 25.0,
                    cadence_s: server::ServerConfig::default().update_every_s,
                    shards: 2,
                    compression: None,
                    stream_s: steps * FLOOD_STEP_REPORTS as f64 / FLOOD_AGGREGATE_HZ,
                    rounds: rounds as usize,
                }
            }
        };
        if params.stream_s <= params.window_s + 10.0 * params.cadence_s {
            return Err(format!(
                "--seconds {seconds} gives {:.0} s of stream for {}: too short to outlast the {} s warm-up window",
                params.stream_s, params.name, params.window_s
            ));
        }
        Ok(params)
    }

    /// Reports the flood sends per round (0 on the paced workloads, whose
    /// count comes from the simulator).
    pub fn flood_reports(&self) -> usize {
        match self.kind {
            Kind::FleetFlood => (self.stream_s * FLOOD_AGGREGATE_HZ).round() as usize,
            Kind::WardPaced | Kind::DashboardScrape => 0,
        }
    }

    /// The server configuration every workload pins: window, shards and
    /// (paced) cadence; everything else stays at its default.
    pub fn server_config(&self) -> server::ServerConfig {
        server::ServerConfig {
            window_s: self.window_s,
            update_every_s: self.cadence_s,
            shards: self.shards,
            ..server::ServerConfig::default()
        }
    }
}

/// One Batch frame's worth of reports on one reader connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Lane index (0-based; the reader id is `lane + 1`).
    pub lane: usize,
    /// Per-lane batch sequence number (the wire's Batch `seq`).
    pub seq: u32,
    /// Reader clock stamped on the frame: the last report's time, as
    /// `tagbreathe-cli feed` stamps it.
    pub clock_s: f64,
    /// Open loop: when the batch is due, seconds after the schedule start.
    pub due_s: f64,
    /// The reports, in time order.
    pub reports: Vec<TagReport>,
}

/// The generated input of one run.
#[derive(Debug, Clone)]
pub enum Input {
    /// The paced workloads keep every batch (≈350k reports at 10 s).
    Paced {
        /// All batches in send order.
        batches: Vec<Batch>,
        /// The metronome rate of every subject, by user id.
        true_rate_bpm: Vec<(u64, f64)>,
    },
    /// The flood regenerates its steps on demand (tens of millions of
    /// reports would not fit in memory).
    Flood {
        /// Seed-derived phase offset, radians.
        phase_offset_rad: f64,
        /// Seed-derived lane split salt.
        lane_salt: u64,
        /// Reports per round.
        reports: usize,
    },
}

/// The reader id lane `lane` connects as (`ReaderClient` Hello).
pub fn reader_id(lane: usize) -> u32 {
    u32::try_from(lane + 1).unwrap_or(u32::MAX)
}

/// SplitMix64 finaliser: seeds, salts and lane hashes.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ z >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ z >> 31
}

impl Input {
    /// Generates the input of `params` from `seed`.
    pub fn generate(params: &Params, seed: u64) -> Input {
        match params.kind {
            Kind::WardPaced | Kind::DashboardScrape => paced_input(params, seed),
            Kind::FleetFlood => {
                let h = mix(seed ^ 0xF100D);
                Input::Flood {
                    phase_offset_rad: (h >> 11) as f64 / (1u64 << 53) as f64
                        * std::f64::consts::TAU,
                    lane_salt: mix(h),
                    reports: params.flood_reports(),
                }
            }
        }
    }

    /// Calls `f` with every batch, in send order. The flood interleaves
    /// its two lanes step by step, so lane skew stays within one step.
    pub fn for_each_batch(&self, mut f: impl FnMut(&Batch)) {
        match self {
            Input::Paced { batches, .. } => batches.iter().for_each(f),
            Input::Flood {
                phase_offset_rad,
                lane_salt,
                reports,
            } => {
                let plan = PipelineConfig::paper_default().plan;
                let mut lanes = [Vec::new(), Vec::new()];
                let mut at = 0;
                let mut seq: u32 = 0;
                while at < *reports {
                    let len = FLOOD_STEP_REPORTS.min(reports - at);
                    for mut r in trace_chunk(FLOOD_USERS, FLOOD_AGGREGATE_HZ, at, len, &plan) {
                        r.phase_rad =
                            (r.phase_rad + phase_offset_rad).rem_euclid(std::f64::consts::TAU);
                        let lane = (mix(r.epc.user_id() ^ lane_salt) & 1) as usize;
                        if let Some(l) = lanes.get_mut(lane) {
                            l.push(r);
                        }
                    }
                    for (lane, reports) in lanes.iter_mut().enumerate() {
                        let batch = Batch {
                            lane,
                            seq,
                            clock_s: reports.last().map_or(0.0, |r| r.time_s),
                            due_s: 0.0,
                            reports: std::mem::take(reports),
                        };
                        if !batch.reports.is_empty() {
                            f(&batch);
                        }
                    }
                    seq = seq.wrapping_add(1);
                    at += len;
                }
            }
        }
    }

    /// Total reports across all batches.
    pub fn report_count(&self) -> usize {
        match self {
            Input::Paced { batches, .. } => batches.iter().map(|b| b.reports.len()).sum(),
            Input::Flood { reports, .. } => *reports,
        }
    }

    /// The metronome rate of `user`, if the workload knows one.
    pub fn true_rate_bpm(&self, user: u64) -> Option<f64> {
        match self {
            Input::Paced { true_rate_bpm, .. } => true_rate_bpm
                .iter()
                .find(|(u, _)| *u == user)
                .map(|&(_, r)| r),
            Input::Flood { .. } => None,
        }
    }
}

/// The ward: 16 bays, each a reader at 1 m height watching four seated
/// subjects side by side (0.6 m apart) at a seed-chosen 2–3.5 m. Every
/// bay is captured by its own reader (seeded per bay); the reader host
/// forwards the time-merged stream of all bays on one connection.
fn paced_input(params: &Params, seed: u64) -> Input {
    let mut streams: Vec<(usize, Vec<TagReport>)> = Vec::with_capacity(BAYS);
    let mut true_rate_bpm = Vec::with_capacity(BAYS * PER_BAY);
    let rate_offset = (mix(seed) % RATE_CYCLE_BPM.len() as u64) as usize;
    for bay in 0..BAYS {
        let bay_seed = mix(seed ^ mix(bay as u64 + 1));
        let distance_m = 2.0 + 1.5 * ((bay_seed >> 11) as f64 / (1u64 << 53) as f64);
        let mut builder = Scenario::builder();
        for k in 0..PER_BAY {
            let idx = bay * PER_BAY + k;
            let user = idx as u64 + 1;
            let rate_bpm = RATE_CYCLE_BPM[(idx + rate_offset) % RATE_CYCLE_BPM.len()];
            let lateral_m = (k as f64 - (PER_BAY as f64 - 1.0) / 2.0) * 0.6;
            builder.subject(Subject::new(
                user,
                Vec3::new(distance_m, lateral_m, 0.0),
                Vec3::new(-1.0, 0.0, 0.0),
                Posture::Sitting,
                Waveform::Sinusoid { rate_bpm },
                TagSite::ALL.to_vec(),
            ));
            true_rate_bpm.push((user, rate_bpm));
        }
        streams.push((bay, capture(&builder.build(), bay_seed, params.stream_s)));
    }
    let mut merged: Vec<(f64, usize, TagReport)> = streams
        .into_iter()
        .flat_map(|(bay, reports)| reports.into_iter().map(move |r| (r.time_s, bay, r)))
        .collect();
    merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let compression = params.compression.unwrap_or(PACED_COMPRESSION);
    let mut batches: Vec<Batch> = Vec::new();
    let mut current: Vec<TagReport> = Vec::new();
    let mut span_end = PACED_BATCH_SPAN_S;
    let mut k = 0u64;
    let flush = |current: &mut Vec<TagReport>, k: u64, batches: &mut Vec<Batch>| {
        if let Some(last) = current.last() {
            batches.push(Batch {
                lane: 0,
                seq: u32::try_from(batches.len()).unwrap_or(u32::MAX),
                clock_s: last.time_s,
                due_s: (k + 1) as f64 * PACED_BATCH_SPAN_S / compression,
                reports: std::mem::take(current),
            });
        }
    };
    for (_, _, r) in merged {
        while r.time_s >= span_end {
            flush(&mut current, k, &mut batches);
            k += 1;
            span_end = (k + 1) as f64 * PACED_BATCH_SPAN_S;
        }
        current.push(r);
    }
    flush(&mut current, k, &mut batches);
    Input::Paced {
        batches,
        true_rate_bpm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::wire::{encode_frame, Message};

    fn bytes(input: &Input) -> Vec<u8> {
        let mut out = Vec::new();
        input.for_each_batch(|b| {
            out.extend(encode_frame(&Message::Batch {
                seq: b.seq,
                reader_clock_s: b.clock_s,
                reports: b.reports.clone(),
            }));
        });
        out
    }

    fn small(kind: &str) -> Params {
        let mut p = Params::new(kind, 10).expect("known workload");
        p.stream_s = 40.0;
        p
    }

    #[test]
    fn paced_generator_is_seed_deterministic() {
        let p = small("ward_paced");
        let a = bytes(&Input::generate(&p, 7));
        assert!(!a.is_empty());
        assert_eq!(a, bytes(&Input::generate(&p, 7)), "same seed, same bytes");
        assert_ne!(a, bytes(&Input::generate(&p, 8)), "new seed, new bytes");
    }

    #[test]
    fn flood_generator_is_seed_deterministic() {
        let p = small("fleet_flood");
        let a = bytes(&Input::generate(&p, 7));
        assert!(a.len() > 40 * 2_000 * 47, "{} bytes", a.len());
        assert_eq!(a, bytes(&Input::generate(&p, 7)), "same seed, same bytes");
        assert_ne!(a, bytes(&Input::generate(&p, 8)), "new seed, new bytes");
    }

    #[test]
    fn paced_schedule_is_ordered_with_distinct_users() {
        let p = small("ward_paced");
        let input = Input::generate(&p, 3);
        let mut last_due = 0.0;
        let mut last_t = 0.0;
        let mut users = std::collections::BTreeSet::new();
        input.for_each_batch(|b| {
            assert!(b.due_s > last_due);
            last_due = b.due_s;
            for r in &b.reports {
                assert!(r.time_s >= last_t);
                last_t = r.time_s;
                users.insert(r.epc.user_id());
            }
            // A batch is due once its stream span has elapsed.
            assert!(b.due_s * PACED_COMPRESSION >= b.clock_s);
        });
        assert_eq!(users.len(), 64);
        assert!(users.iter().all(|u| input.true_rate_bpm(*u).is_some()));
    }

    #[test]
    fn flood_lanes_share_each_step() {
        let p = small("fleet_flood");
        let input = Input::generate(&p, 1);
        let mut seen = 0;
        let mut max_lane_len = 0;
        input.for_each_batch(|b| {
            seen += b.reports.len();
            max_lane_len = max_lane_len.max(b.reports.len());
            assert!(b.lane < 2);
        });
        assert_eq!(seen, input.report_count());
        assert!(max_lane_len <= epcgen2::wire::MAX_BATCH_REPORTS);
    }
}
