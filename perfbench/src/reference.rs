//! The inline reference: the same lanes through `LaneMerger` and a
//! 2-shard `FleetEngine`, computed before the timed phase. The served
//! snapshot log must equal it bit for bit; the watched user and the
//! cadence points HTTP must show are picked from it.

use crate::drive::CheckFailed;
use crate::workload::{reader_id, Input, Params};
use epcgen2::mapping::OpenAdmission;
use server::LaneMerger;
use std::collections::BTreeMap;
use std::time::Duration;
use tagbreathe::{FleetEngine, PipelineConfig, RateSnapshot, TagReport};

/// Feeds every batch of `input` through per-lane merging exactly as the
/// server's engine thread does — push, release, and at the end close
/// every lane — handing each released run of reports to `sink`.
pub fn merged_stream(params: &Params, input: &Input, mut sink: impl FnMut(Vec<TagReport>)) {
    let mut merger = LaneMerger::new();
    for lane in 0..params.lanes {
        merger.open(reader_id(lane));
    }
    input.for_each_batch(|b| {
        merger.push(reader_id(b.lane), b.reports.clone(), b.clock_s);
        let released = merger.release();
        if !released.is_empty() {
            sink(released);
        }
    });
    for lane in 0..params.lanes {
        merger.close(reader_id(lane));
        let released = merger.release();
        if !released.is_empty() {
            sink(released);
        }
    }
    let rest = merger.drain_all();
    if !rest.is_empty() {
        sink(rest);
    }
}

/// The reference snapshot log and what the open loop needs from it.
#[derive(Debug)]
pub struct Reference {
    /// The inline engine's snapshots, in epoch order.
    pub snapshots: Vec<RateSnapshot>,
    window_s: f64,
    /// Per snapshot: due offset of the batch that first carried a report
    /// at or past its cadence point (open loop only).
    due: Vec<Option<Duration>>,
    watched: Option<u64>,
}

/// Float bits of one snapshot, for bit-exact comparison.
type SnapshotBits = (u64, Vec<(u64, u64)>, Vec<(u64, u64)>);

fn bits(s: &RateSnapshot) -> SnapshotBits {
    (
        s.time_s.to_bits(),
        s.rates_bpm.iter().map(|(&u, v)| (u, v.to_bits())).collect(),
        s.effort_rms
            .iter()
            .map(|(&u, v)| (u, v.to_bits()))
            .collect(),
    )
}

/// Whether two snapshot logs agree bit for bit; `Err` names the first
/// difference.
pub fn compare_logs(got: &[RateSnapshot], want: &[RateSnapshot]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} snapshots, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if bits(g) != bits(w) {
            return Err(format!(
                "snapshot {i} (t = {} s) differs from the reference",
                w.time_s
            ));
        }
    }
    Ok(())
}

impl Reference {
    /// Runs the reference over `input`.
    ///
    /// # Errors
    ///
    /// Engine construction failure, or a paced workload without a user
    /// rated after the warm-up window (nothing to watch).
    pub fn compute(params: &Params, input: &Input) -> Result<Reference, String> {
        let mut fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            OpenAdmission,
            params.window_s,
            params.cadence_s,
            params.shards,
        )
        .map_err(|e| format!("reference engine: {e}"))?;
        let mut snapshots = Vec::new();
        merged_stream(params, input, |released| {
            snapshots.extend(fleet.push(released))
        });
        snapshots.extend(fleet.finish());

        // Due time of each cadence point: the first batch whose reports
        // reach it. Closed loops have no schedule, hence no due times.
        let mut due = vec![None; snapshots.len()];
        if params.compression.is_some() {
            let mut next = 0;
            input.for_each_batch(|b| {
                let newest = b.reports.iter().map(|r| r.time_s).fold(f64::MIN, f64::max);
                while let Some(s) = snapshots.get(next) {
                    if s.time_s > newest {
                        break;
                    }
                    if let Some(d) = due.get_mut(next) {
                        *d = Some(Duration::from_secs_f64(b.due_s));
                    }
                    next += 1;
                }
            });
        }

        let mut reference = Reference {
            snapshots,
            window_s: params.window_s,
            due,
            watched: None,
        };
        if params.compression.is_some() {
            // Watch the user rated at the most post-warm-up points (ties:
            // lowest id), so the lag series is as long as it can be.
            let mut coverage: BTreeMap<u64, usize> = BTreeMap::new();
            for s in reference.post_warmup() {
                for &u in s.rates_bpm.keys() {
                    *coverage.entry(u).or_default() += 1;
                }
            }
            let best = coverage.values().copied().max().unwrap_or(0);
            reference.watched = coverage.iter().find(|(_, &c)| c == best).map(|(&u, _)| u);
            if reference.watched.is_none() {
                return Err("no user is rated after the warm-up window".into());
            }
        }
        Ok(reference)
    }

    /// Snapshots after the first full window (the warm-up).
    pub fn post_warmup(&self) -> impl Iterator<Item = &RateSnapshot> {
        let window_s = self.window_s;
        self.snapshots.iter().filter(move |s| s.time_s > window_s)
    }

    /// The user the ward's HTTP client watches.
    pub fn watched_user(&self) -> Option<u64> {
        self.watched
    }

    /// Every user rated at least once, in id order.
    pub fn rated_users(&self) -> Vec<u64> {
        let mut users: Vec<u64> = self
            .snapshots
            .iter()
            .flat_map(|s| s.rates_bpm.keys().copied())
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// `(cadence time, due offset)` of each post-warm-up point at which
    /// the watched user is rated: the points HTTP is expected to show.
    pub fn lag_points(&self) -> Vec<(f64, Duration)> {
        let Some(user) = self.watched else {
            return Vec::new();
        };
        self.snapshots
            .iter()
            .zip(&self.due)
            .filter(|(s, _)| s.time_s > self.window_s && s.rates_bpm.contains_key(&user))
            .filter_map(|(s, d)| d.map(|d| (s.time_s, d)))
            .collect()
    }

    /// Due offset of the first point at which `user` is rated.
    pub fn first_rated_due(&self, user: u64) -> Option<Duration> {
        self.snapshots
            .iter()
            .zip(&self.due)
            .find(|(s, _)| s.rates_bpm.contains_key(&user))
            .and_then(|(_, d)| *d)
    }

    /// The shutdown log must equal the reference bit for bit.
    ///
    /// # Errors
    ///
    /// Names the first difference.
    pub fn check_log(&self, log: &[RateSnapshot]) -> Result<(), CheckFailed> {
        compare_logs(log, &self.snapshots)
            .map_err(|e| CheckFailed(format!("shutdown log vs inline reference: {e}")))
    }

    /// A `/snapshot/{user}` response must carry exactly the reference's
    /// bits for that user at the time it shows.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_served_user(
        &self,
        user: u64,
        shown_s: f64,
        rate_bits: u64,
        effort_bits: u64,
    ) -> Result<(), String> {
        let snap = self
            .snapshots
            .iter()
            .find(|s| s.time_s.to_bits() == shown_s.to_bits())
            .ok_or_else(|| format!("user {user}: served t = {shown_s} s is no reference point"))?;
        let rate = snap.rates_bpm.get(&user).map(|v| v.to_bits());
        let effort = snap.effort_rms.get(&user).copied().unwrap_or(0.0).to_bits();
        if rate != Some(rate_bits) || effort != effort_bits {
            return Err(format!(
                "user {user} at t = {shown_s} s: served bits differ"
            ));
        }
        Ok(())
    }

    /// A `/snapshots` body's `_bits` fields must be a prefix of the
    /// reference's, in document order.
    ///
    /// # Errors
    ///
    /// Names the first field that diverges.
    pub fn check_served_prefix(&self, body: &str) -> Result<(), CheckFailed> {
        let want = |f: fn(&RateSnapshot) -> Vec<u64>| -> Vec<u64> {
            self.snapshots.iter().flat_map(f).collect()
        };
        let checks: [(&str, Vec<u64>); 3] = [
            ("time_s_bits", want(|s| vec![s.time_s.to_bits()])),
            (
                "rate_bpm_bits",
                want(|s| s.rates_bpm.values().map(|v| v.to_bits()).collect()),
            ),
            (
                "effort_rms_bits",
                want(|s| {
                    s.rates_bpm
                        .keys()
                        .map(|u| s.effort_rms.get(u).copied().unwrap_or(0.0).to_bits())
                        .collect()
                }),
            ),
        ];
        for (key, reference) in checks {
            let served = extract_bits(body, key);
            if served.len() > reference.len() || reference.get(..served.len()) != Some(&served[..])
            {
                return Err(CheckFailed(format!(
                    "/snapshots {key} is not a prefix of the reference ({} served)",
                    served.len()
                )));
            }
        }
        Ok(())
    }

    /// Mean Eq. 8 accuracy, percent, over (post-warm-up point, subject)
    /// pairs; a missing rate scores 0. Returns `(accuracy, pairs)`.
    pub fn accuracy_pct(
        &self,
        input: &Input,
        users: impl Iterator<Item = u64> + Clone,
    ) -> (f64, usize) {
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for snap in self.post_warmup() {
            for user in users.clone() {
                let Some(truth) = input.true_rate_bpm(user) else {
                    continue;
                };
                let score = snap
                    .rates_bpm
                    .get(&user)
                    .map_or(0.0, |&est| breathing::accuracy(est, truth).max(0.0));
                sum += score;
                pairs += 1;
            }
        }
        (100.0 * sum / pairs.max(1) as f64, pairs)
    }
}

/// Every `"<key>":"0x…"` hex bit string in a JSON body, in order.
fn extract_bits(body: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":\"0x");
    body.match_indices(&needle)
        .filter_map(|(at, _)| {
            let hex: String = body
                .get(at + needle.len()..)?
                .chars()
                .take_while(char::is_ascii_hexdigit)
                .collect();
            u64::from_str_radix(&hex, 16).ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t: f64, rates: &[(u64, f64)]) -> RateSnapshot {
        RateSnapshot {
            time_s: t,
            rates_bpm: rates.iter().copied().collect(),
            effort_rms: rates.iter().map(|&(u, r)| (u, r / 100.0)).collect(),
        }
    }

    #[test]
    fn logs_compare_bit_for_bit() {
        let a = vec![snap(1.0, &[(1, 12.0)]), snap(2.0, &[(1, 12.5)])];
        assert!(compare_logs(&a, &a.clone()).is_ok());
        let mut b = a.clone();
        b[1].rates_bpm
            .insert(1, f64::from_bits(12.5f64.to_bits() + 1));
        assert!(compare_logs(&b, &a).unwrap_err().contains("snapshot 1"));
        assert!(compare_logs(&a[..1], &a).is_err());
    }

    #[test]
    fn served_prefix_is_checked() {
        let reference = Reference {
            snapshots: vec![snap(1.0, &[(1, 12.0)]), snap(2.0, &[(1, 12.5)])],
            window_s: 0.5,
            due: vec![None, None],
            watched: Some(1),
        };
        let body = format!(
            "{{\"snapshots\":[{{\"time_s_bits\":\"{:#018x}\",\"users\":[{{\"user\":1,\
             \"rate_bpm_bits\":\"{:#018x}\",\"effort_rms_bits\":\"{:#018x}\"}}]}}]}}",
            1.0f64.to_bits(),
            12.0f64.to_bits(),
            0.12f64.to_bits()
        );
        assert!(reference.check_served_prefix(&body).is_ok());
        let bad = body.replace(
            &format!("{:#018x}", 12.0f64.to_bits()),
            "0x0000000000000001",
        );
        assert!(reference.check_served_prefix(&bad).is_err());
        assert!(reference
            .check_served_user(1, 2.0, 12.5f64.to_bits(), 0.125f64.to_bits())
            .is_ok());
        assert!(reference.check_served_user(1, 3.0, 0, 0).is_err());
    }
}
