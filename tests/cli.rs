//! Integration tests of the `tagbreathe-cli` binary: the
//! simulate → analyze round trip a downstream user would run.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tagbreathe-cli"))
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("simulate"));
    assert!(text.contains("analyze"));
    assert!(text.contains("live"));
}

#[test]
fn no_arguments_is_an_error_with_usage() {
    let out = cli().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulate"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = cli().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn simulate_then_analyze_round_trip() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("tagbreathe_cli_test_{}.csv", std::process::id()));
    let trace_str = trace.to_str().unwrap();

    let out = cli()
        .args([
            "simulate",
            "--users",
            "2",
            "--distance",
            "3",
            "--rates",
            "10,15",
            "--duration",
            "60",
            "--seed",
            "7",
            "--out",
            trace_str,
        ])
        .output()
        .expect("simulate runs");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = cli()
        .args(["analyze", trace_str])
        .output()
        .expect("analyze runs");
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Both users estimated near their metronome rates.
    assert!(text.contains("2 user(s)"), "{text}");
    let found_10 =
        text.contains("10.0 bpm") || text.contains(" 9.9 bpm") || text.contains("10.1 bpm");
    let found_15 =
        text.contains("15.0 bpm") || text.contains("14.9 bpm") || text.contains("15.1 bpm");
    assert!(found_10, "user at 10 bpm not found:\n{text}");
    assert!(found_15, "user at 15 bpm not found:\n{text}");
    assert!(text.contains("pattern"), "{text}");
    assert!(text.contains("quality"), "{text}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn simulate_validates_inputs() {
    let out = cli()
        .args(["simulate", "--users", "0", "--out", "/tmp/never.csv"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let out = cli()
        .args(["simulate", "--rates", "99", "--out", "/tmp/never.csv"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let out = cli().args(["simulate"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn analyze_rejects_missing_and_empty_traces() {
    let out = cli()
        .args(["analyze", "/nonexistent/trace.csv"])
        .output()
        .expect("runs");
    assert!(!out.status.success());

    let dir = std::env::temp_dir();
    let empty = dir.join(format!("tagbreathe_cli_empty_{}.csv", std::process::id()));
    std::fs::write(
        &empty,
        "time_s,epc,antenna_port,channel_index,phase_rad,rssi_dbm,doppler_hz\n",
    )
    .unwrap();
    let out = cli()
        .args(["analyze", empty.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    std::fs::remove_file(&empty).ok();
}

#[test]
fn metrics_rejects_unknown_format_with_usage() {
    let out = cli()
        .args(["metrics", "--duration", "10", "--format", "xml"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--format must be prom or json"), "{text}");
    // The usage banner accompanies the error so the fix is discoverable.
    assert!(text.contains("metrics [--users N]"), "{text}");
}

#[test]
fn metrics_json_feeds_the_offline_slo_table() {
    let metrics = std::env::temp_dir().join(format!(
        "tagbreathe_cli_metrics_{}.json",
        std::process::id()
    ));
    let out = cli()
        .args(["metrics", "--duration", "30", "--format", "json"])
        .output()
        .expect("metrics runs");
    assert!(
        out.status.success(),
        "metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&metrics, &out.stdout).expect("metrics written");
    let text = std::fs::read_to_string(&metrics).expect("metrics read back");
    tagbreathe_suite::obs::json::validate(&text).expect("metrics dump is valid JSON");

    let out = cli()
        .args(["slo", metrics.to_str().unwrap()])
        .output()
        .expect("slo runs");
    std::fs::remove_file(&metrics).ok();
    assert!(
        out.status.success(),
        "slo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for row in ["snapshot_lag_p99", "bytes_per_resident_user"] {
        assert!(table.contains(row), "no {row} row in:\n{table}");
    }
}

#[test]
fn trace_writes_validated_chrome_trace_and_bundle() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace = dir.join(format!("tagbreathe_cli_trace_{pid}.json"));
    let bundle = dir.join(format!("tagbreathe_cli_bundle_{pid}.json"));
    let out = cli()
        .args([
            "trace",
            "--rate",
            "15",
            "--duration",
            "90",
            "--seed",
            "5",
            "--waveform",
            "apnea",
            "--out",
            trace.to_str().unwrap(),
            "--bundle",
            bundle.to_str().unwrap(),
        ])
        .output()
        .expect("trace runs");
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bundle(s) captured"), "{stderr}");

    let chrome = std::fs::read_to_string(&trace).expect("trace written");
    tagbreathe_suite::obs::json::validate(&chrome).expect("chrome trace is valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    let dump = std::fs::read_to_string(&bundle).expect("bundle written");
    tagbreathe_suite::obs::json::validate(&dump).expect("bundle is valid JSON");
    assert!(dump.contains("\"anomaly\""), "{dump}");

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&bundle).ok();
}

#[test]
fn trace_requires_out_and_validates_waveform() {
    let out = cli().args(["trace"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    let out = cli()
        .args(["trace", "--waveform", "square", "--out", "/tmp/never.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("sine or apnea"));
}

#[test]
fn serve_then_feed_round_trip() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace = dir.join(format!("tagbreathe_cli_feed_{pid}.csv"));
    let trace_str = trace.to_str().unwrap().to_string();

    let out = cli()
        .args([
            "simulate",
            "--users",
            "1",
            "--distance",
            "3",
            "--rates",
            "12",
            "--duration",
            "20",
            "--seed",
            "9",
            "--out",
            &trace_str,
        ])
        .output()
        .expect("simulate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Ephemeral ports so parallel test runs never collide; the server
    // prints the bound addresses on stdout before serving.
    let mut server = cli()
        .args([
            "serve",
            "--ingest",
            "127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
            "--duration",
            "30",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut addrs = String::new();
    {
        use std::io::BufRead;
        let stdout = server.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        for _ in 0..2 {
            addrs.push_str(&lines.next().expect("addr line").expect("addr line"));
            addrs.push('\n');
        }
    }
    let ingest = addrs
        .lines()
        .find_map(|l| l.strip_prefix("ingest "))
        .expect("ingest address printed")
        .to_string();

    let out = cli()
        .args(["feed", &trace_str, "--addr", &ingest, "--reader", "3"])
        .output()
        .expect("feed runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "feed failed: {stderr}");
    assert!(stderr.contains("as reader 3"), "{stderr}");

    server.kill().ok();
    server.wait().ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn feed_validates_inputs() {
    let out = cli().args(["feed"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace file"));
    let out = cli()
        .args(["feed", "/nonexistent/trace.csv"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn live_dashboard_emits_snapshots() {
    let out = cli()
        .args(["live", "--rate", "12", "--duration", "45", "--seed", "3"])
        .output()
        .expect("live runs");
    assert!(
        out.status.success(),
        "live failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Snapshots at t=5..45 plus a final sparkline.
    assert!(text.matches("t=").count() >= 5, "{text}");
    assert!(text.contains("breath:"), "{text}");
}
