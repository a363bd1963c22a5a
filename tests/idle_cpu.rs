//! An idle server costs (almost) no CPU: with a reader session open and
//! its users admitted but no reports arriving, the shard workers sleep on
//! their empty rings and both acceptors block in `accept`, so the process
//! stays far below one core. Its own test binary, so no other test's
//! threads share the process whose CPU time it reads. Linux-only: it
//! reads `/proc/self/stat`.
#![cfg(target_os = "linux")]

use server::ServerConfig;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tagbreathe_suite::prelude::*;

/// Linux `USER_HZ`: the unit of the CPU-time fields in `/proc/*/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process has used.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces or parentheses; fields resume after
    // the last ')'. utime and stime are fields 14 and 15, i.e. the 12th
    // and 13th after the name.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse::<f64>().expect("numeric utime/stime"))
        .sum();
    ticks / CLOCK_TICKS_PER_S
}

/// Two users, one tag each, reported every 50 ms for `secs` seconds.
fn reports(secs: f64) -> Vec<TagReport> {
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < secs {
        for user in 1..=2u64 {
            out.push(TagReport {
                time_s: t,
                epc: Epc96::monitor(user, 0),
                antenna_port: 1,
                channel_index: 3,
                phase_rad: 1.0 + (0.4 * t).sin() * 0.08,
                rssi_dbm: -52.0,
                doppler_hz: 0.0,
            });
        }
        t += 0.05;
    }
    out
}

#[test]
fn idle_server_with_an_open_session_uses_under_a_tenth_of_a_core() {
    let config = ServerConfig::default();
    let handle = server::start(config.clone()).expect("server must start");
    let stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
    let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
    // One batch that admits both users and crosses the first cadence
    // point; once its snapshot is published the workers have run.
    let batch = reports(config.update_every_s + 1.0);
    let clock = batch.last().map_or(0.0, |r| r.time_s);
    client.send_batch(&batch, clock).expect("batch");
    assert!(
        handle.wait_published(1, Duration::from_secs(10)) >= 1,
        "the batch must reach the shards"
    );

    // The session stays open and silent.
    let (cpu_before, wall_before) = (process_cpu_s(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let cpu_s = process_cpu_s() - cpu_before;
    let wall_s = wall_before.elapsed().as_secs_f64();

    drop(client);
    let _ = handle.shutdown();
    assert!(wall_s >= 0.3, "measured over {wall_s:.3} s of wall time");
    let cores = cpu_s / wall_s;
    assert!(
        cores < 0.1,
        "idle server used {cpu_s:.3} s of CPU in {wall_s:.3} s ({:.0} % of a core)",
        cores * 100.0
    );
}
