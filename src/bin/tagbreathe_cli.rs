//! `tagbreathe-cli` — simulate captures, analyse traces, run a live
//! dashboard.
//!
//! ```text
//! tagbreathe-cli simulate --users 2 --distance 3 --rates 10,14 \
//!                         --duration 60 --seed 1 --items 0 --out trace.csv
//! tagbreathe-cli analyze trace.csv
//! tagbreathe-cli live --rate 12 --duration 60
//! tagbreathe-cli metrics --users 2 --duration 30 --format prom
//! tagbreathe-cli trace --rate 12 --duration 60 --out session.trace.json
//! tagbreathe-cli serve --ingest 127.0.0.1:4610 --http 127.0.0.1:4611
//! tagbreathe-cli feed trace.csv --addr 127.0.0.1:4610 --reader 1
//! tagbreathe-cli slo metrics.json
//! tagbreathe-cli help
//! ```

use std::collections::HashMap;
use std::io::BufReader;
use std::process::ExitCode;

use tagbreathe_suite::epcgen2::report::{read_csv, write_csv};
use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::patterns::analyze_pattern;
use tagbreathe_suite::tagbreathe::quality::{assess, QualityThresholds};
use tagbreathe_suite::tagbreathe::render::{sparkline, vitals_line};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        usage();
        return ExitCode::from(2);
    };
    let result = match command {
        "simulate" => simulate(&args[1..]),
        "analyze" => analyze(&args[1..]),
        "live" => live(&args[1..]),
        "metrics" => metrics(&args[1..]),
        "trace" => trace(&args[1..]),
        "serve" => serve(&args[1..]),
        "feed" => feed(&args[1..]),
        "slo" => slo(&args[1..]),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("tagbreathe-cli — breath monitoring with (simulated) commodity RFID");
    eprintln!();
    eprintln!("  simulate --users N --distance M --rates A,B,.. --duration S");
    eprintln!("           [--items K] [--seed X] --out FILE.csv");
    eprintln!("      capture a simulated session and write the LLRP trace as CSV");
    eprintln!();
    eprintln!("  analyze FILE.csv [--window S]");
    eprintln!("      run the TagBreathe pipeline over a recorded trace");
    eprintln!();
    eprintln!("  live [--rate BPM] [--users N] [--duration S] [--seed X]");
    eprintln!("      simulate and stream a live vitals dashboard");
    eprintln!();
    eprintln!("  metrics [--users N] [--rate BPM] [--duration S] [--seed X]");
    eprintln!("          [--format prom|json]");
    eprintln!("      replay a simulated session with full instrumentation and");
    eprintln!("      print the pipeline + reader metrics");
    eprintln!();
    eprintln!("  trace [--users N] [--rate BPM] [--duration S] [--seed X]");
    eprintln!("        [--waveform sine|apnea] [--ring EVENTS] [--window S]");
    eprintln!("        [--jump BPM] --out TRACE.json [--bundle BUNDLE.json]");
    eprintln!("      stream a simulated session through the flight recorder,");
    eprintln!("      export the Chrome trace, and dump any anomaly bundle");
    eprintln!();
    eprintln!("  serve [--ingest HOST:PORT] [--http HOST:PORT] [--shards N]");
    eprintln!("        [--window S] [--update-every S] [--duration S]");
    eprintln!("      run the TBIP/1 ingest server (see docs/PROTOCOL.md); with");
    eprintln!("      --duration it shuts down after S wall-clock seconds");
    eprintln!();
    eprintln!("  feed FILE.csv --addr HOST:PORT [--reader ID] [--batch N]");
    eprintln!("      replay a recorded trace to a running server as one reader");
    eprintln!();
    eprintln!("  slo FILE.json [--lag-p99-ms N] [--shed-ratio R] [--bytes-per-user B]");
    eprintln!("      evaluate the default SLO table offline against a metrics");
    eprintln!("      dump (a /metrics.json scrape or `metrics --format json` output)");
}

/// Parses `--key value` flags into a map; returns leftover positionals.
fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn get_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        None => Ok(default),
    }
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer {v:?}")),
        None => Ok(default),
    }
}

fn build_scenario(
    users: usize,
    distance: f64,
    rates: &[f64],
    items: usize,
) -> Result<Scenario, String> {
    if users == 0 {
        return Err("--users must be at least 1".into());
    }
    if !(0.5..=10.0).contains(&distance) {
        return Err("--distance must be within 0.5–10 m".into());
    }
    for &r in rates {
        if !(3.0..=40.0).contains(&r) {
            return Err(format!("rate {r} bpm outside the plausible 3–40 range"));
        }
    }
    Ok(Scenario::builder()
        .users_side_by_side(users, distance, rates)
        .contending_items(items)
        .build())
}

fn capture(scenario: &Scenario, seed: u64, duration: f64) -> Vec<TagReport> {
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(seed),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .expect("default reader is valid");
    reader.run(&ScenarioWorld::new(scenario.clone()), duration)
}

fn simulate(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let users = get_usize(&flags, "users", 1)?;
    let distance = get_f64(&flags, "distance", 4.0)?;
    let duration = get_f64(&flags, "duration", 60.0)?;
    let items = get_usize(&flags, "items", 0)?;
    let seed = get_usize(&flags, "seed", 0)? as u64;
    let rates: Vec<f64> = match flags.get("rates") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad rate {s:?}")))
            .collect::<Result<_, _>>()?,
        None => vec![10.0],
    };
    let out = flags.get("out").ok_or("simulate requires --out FILE.csv")?;

    let scenario = build_scenario(users, distance, &rates, items)?;
    let reports = capture(&scenario, seed, duration);
    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_csv(std::io::BufWriter::new(file), &reports).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} reports ({:.1}/s) from {} user(s) to {out}",
        reports.len(),
        reports.len() as f64 / duration,
        users
    );
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    eprintln!("user ids: {ids:?}");
    Ok(())
}

fn analyze(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let path = positional.first().ok_or("analyze requires a trace file")?;
    let _window = get_f64(&flags, "window", 0.0)?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reports = read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    if reports.is_empty() {
        return Err("trace holds no reports".into());
    }
    // Discover user ids from the EPCs (anything that is not the item id).
    let mut ids: Vec<u64> = reports
        .iter()
        .map(|r| r.epc.user_id())
        .filter(|&u| u != u64::MAX)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        return Err("no monitoring tags in the trace".into());
    }
    println!(
        "{} reports, {:.1} s, {} user(s)",
        reports.len(),
        reports.last().unwrap().time_s - reports[0].time_s,
        ids.len()
    );

    let monitor = BreathMonitor::paper_default();
    let analysis = monitor.analyze(&reports, &EmbeddedIdentity::new(ids.clone()));
    for id in ids {
        match &analysis.users[&id] {
            Ok(user) => {
                println!("{}", vitals_line(id, user, 48));
                let pattern = analyze_pattern(&user.breath_signal);
                let quality = assess(user, &QualityThresholds::default_thresholds());
                println!(
                    "         pattern {:?} ({} breaths) | quality {:?} (SNR {:.1})",
                    pattern.class,
                    pattern.breaths.len(),
                    quality.confidence,
                    quality.band_snr
                );
            }
            Err(e) => println!("user {id:>3} | not analysable: {e}"),
        }
    }
    if analysis.unknown_reports > 0 {
        println!(
            "({} reports from unrelated tags ignored)",
            analysis.unknown_reports
        );
    }
    Ok(())
}

fn metrics(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    use tagbreathe_suite::obs::{Registry, SharedRecorder};
    use tagbreathe_suite::tagbreathe::quality::assess_observed;

    let (flags, _) = parse_flags(args)?;
    let users = get_usize(&flags, "users", 1)?;
    let rate = get_f64(&flags, "rate", 12.0)?;
    let duration = get_f64(&flags, "duration", 30.0)?;
    let seed = get_usize(&flags, "seed", 0)? as u64;
    let format = flags.get("format").map(String::as_str).unwrap_or("prom");
    if !matches!(format, "prom" | "json") {
        usage();
        return Err(format!("--format must be prom or json, got {format:?}"));
    }

    let scenario = build_scenario(users, 3.0, &[rate], 0)?;
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let registry = Arc::new(Registry::new());

    // Reader-sim metrics: rounds, slot outcomes, reports.
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(seed),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .expect("default reader is valid");
    let reports = reader.run_observed(
        &ScenarioWorld::new(scenario.clone()),
        duration,
        registry.as_ref(),
    );

    // Streaming pipeline metrics: ingest, stages, link quality.
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.clone()),
        25.0,
        5.0,
    )
    .map_err(|e| e.to_string())?
    .with_recorder(SharedRecorder::new(registry.clone()));
    let _ = sm.push(reports.iter().copied());

    // Batch stage timers + per-estimate quality metrics.
    let analysis = BreathMonitor::paper_default().analyze_observed(
        &reports,
        &EmbeddedIdentity::new(ids),
        registry.as_ref(),
    );
    for (id, user) in analysis.successes() {
        assess_observed(
            id,
            user,
            &QualityThresholds::default_thresholds(),
            registry.as_ref(),
        );
    }

    match format {
        "json" => println!("{}", registry.render_json()),
        _ => print!("{}", registry.render_prometheus()),
    }
    Ok(())
}

fn trace(args: &[String]) -> Result<(), String> {
    use tagbreathe_suite::obs::trace::chrome_trace;
    use tagbreathe_suite::obs::{json, Registry};
    use tagbreathe_suite::tagbreathe::flight::{FlightDiagnostics, TriggerConfig};
    use tagbreathe_suite::tagbreathe::patterns::analyze_pattern_observed;
    use tagbreathe_suite::tagbreathe::quality::{assess_observed, QualityThresholds};
    use tagbreathe_suite::tagbreathe::{detect_apnea, ApneaConfig};

    let (flags, _) = parse_flags(args)?;
    let users = get_usize(&flags, "users", 1)?;
    let rate = get_f64(&flags, "rate", 12.0)?;
    let duration = get_f64(&flags, "duration", 60.0)?;
    let seed = get_usize(&flags, "seed", 0)? as u64;
    let ring = get_usize(&flags, "ring", 65_536)?;
    let window = get_f64(&flags, "window", 30.0)?;
    let jump = get_f64(&flags, "jump", 6.0)?;
    let waveform = flags.get("waveform").map(String::as_str).unwrap_or("sine");
    let out = flags.get("out").ok_or("trace requires --out TRACE.json")?;

    let scenario = match waveform {
        "sine" => build_scenario(users, 3.0, &[rate], 0)?,
        "apnea" => Scenario::builder()
            .subject(Subject::new(
                1,
                Vec3::new(2.5, 0.0, 0.0),
                Vec3::new(-1.0, 0.0, 0.0),
                Posture::Lying,
                Waveform::WithApnea {
                    rate_bpm: rate,
                    breathe_s: 30.0,
                    apnea_s: 15.0,
                },
                TagSite::ALL.to_vec(),
            ))
            .build(),
        other => {
            usage();
            return Err(format!("--waveform must be sine or apnea, got {other:?}"));
        }
    };
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reports = capture(&scenario, seed, duration);

    let mut config = TriggerConfig::default_config();
    config.rate_jump_bpm = jump;
    config.bundle_window_s = window;
    let mut flight = FlightDiagnostics::new(ring, config).map_err(String::from)?;
    let registry = Registry::new();

    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.clone()),
        25.0,
        5.0,
    )
    .map_err(|e| e.to_string())?
    .with_recorder(flight.tracer());
    for snap in sm.push(reports.iter().copied()) {
        flight.scan(&snap, &registry);
    }

    // Batch pass feeds the quality / apnea / pattern triggers.
    let tracer = flight.tracer();
    let analysis =
        BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new(ids.clone()));
    for (id, user) in analysis.successes() {
        let quality = assess_observed(id, user, &QualityThresholds::default_thresholds(), &tracer);
        flight.scan_quality(id, duration, &quality, &registry);
        let episodes = detect_apnea(&user.breath_signal, &ApneaConfig::default_config())?;
        flight.scan_apnea(id, &episodes, &registry);
        analyze_pattern_observed(&user.breath_signal, id, &tracer);
    }

    let events = flight.ring().snapshot();
    let chrome = chrome_trace(&events);
    json::validate(&chrome).map_err(|e| format!("chrome trace failed validation: {e}"))?;
    std::fs::write(out, &chrome).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "wrote {} events ({} dropped) to {out}",
        events.len(),
        flight.ring().dropped()
    );

    let bundles = flight.take_bundles();
    eprintln!("anomalies: {} bundle(s) captured", bundles.len());
    for b in &bundles {
        eprintln!("  - {}", b.anomaly);
    }
    if let Some(path) = flags.get("bundle") {
        let bundle = bundles.last().ok_or("no anomaly fired; nothing to dump")?;
        let text = bundle.to_json();
        json::validate(&text).map_err(|e| format!("bundle failed validation: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote bundle ({} events, {} replayable reads) to {path}",
            bundle.events.len(),
            bundle.reports().len()
        );
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    use tagbreathe_suite::server::{self, ServerConfig};

    let (flags, _) = parse_flags(args)?;
    let duration = get_f64(&flags, "duration", 0.0)?;
    let config = ServerConfig {
        ingest_addr: flags
            .get("ingest")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:4610".into()),
        http_addr: flags
            .get("http")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:4611".into()),
        window_s: get_f64(&flags, "window", 30.0)?,
        update_every_s: get_f64(&flags, "update-every", 5.0)?,
        shards: get_usize(&flags, "shards", 2)?,
        ..ServerConfig::default()
    };
    let handle = server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("ingest {}", handle.ingest_addr());
    println!("http {}", handle.http_addr());
    eprintln!("serving; scrape http://{}/metrics", handle.http_addr());
    if duration > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(duration));
        let snapshots = handle.shutdown();
        eprintln!(
            "shut down after {duration} s; {} snapshot(s) emitted",
            snapshots.len()
        );
        Ok(())
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
}

fn feed(args: &[String]) -> Result<(), String> {
    use std::net::TcpStream;
    use tagbreathe_suite::epcgen2::ReaderClient;

    let (flags, positional) = parse_flags(args)?;
    let path = positional.first().ok_or("feed requires a trace file")?;
    let addr = flags.get("addr").ok_or("feed requires --addr HOST:PORT")?;
    let reader_id = u32::try_from(get_usize(&flags, "reader", 1)?)
        .map_err(|_| "--reader must fit in 32 bits".to_string())?;
    let batch = get_usize(&flags, "batch", 256)?.max(1);

    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reports = read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    if reports.is_empty() {
        return Err("trace holds no reports".into());
    }

    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    // Each batch goes out in one frame; Nagle would hold a short tail
    // frame back until the server's ACK of the previous one.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("TCP_NODELAY: {e}"))?;
    let mut client =
        ReaderClient::connect(stream, reader_id, 0).map_err(|e| format!("handshake: {e}"))?;
    for chunk in reports.chunks(batch) {
        let clock = chunk.last().map_or(0.0, |r| r.time_s);
        client
            .send_batch(chunk, clock)
            .map_err(|e| format!("batch: {e}"))?;
    }
    let sent = client.reports_sent();
    let batches = client.batches_sent();
    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    eprintln!("fed {sent} reports in {batches} batch(es) as reader {reader_id} to {addr}");
    Ok(())
}

/// Metric entries keyed by the unescaped registry key (`name{label="v"}`).
type MetricEntries = Vec<(String, f64)>;

/// Extracts `"key": value` entries from a registry JSON dump
/// (`Registry::render_json` emits one entry per line). Returns numeric
/// entries (counters and gauges) and per-histogram p99 summaries, keyed
/// by the unescaped metric key (`name{label="v"}`).
fn parse_metrics_sidecar(text: &str) -> (MetricEntries, MetricEntries) {
    let mut numbers = Vec::new();
    let mut hist_p99 = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((raw_key, value)) = rest.split_once("\": ") else {
            continue;
        };
        let key = raw_key.replace("\\\"", "\"");
        if let Ok(v) = value.parse::<f64>() {
            numbers.push((key, v));
        } else if value.starts_with('{') {
            if let Some(p99) = value
                .split_once("\"p99\": ")
                .and_then(|(_, tail)| tail.trim_end_matches(['}', ' ']).parse::<f64>().ok())
            {
                hist_p99.push((key, p99));
            }
        }
    }
    (numbers, hist_p99)
}

/// Sums every numeric entry whose metric name (label part stripped)
/// equals `name`; `None` when no entry matches.
fn sum_metric(numbers: &[(String, f64)], name: &str) -> Option<f64> {
    let matching: Vec<f64> = numbers
        .iter()
        .filter(|(k, _)| k.split('{').next() == Some(name))
        .map(|(_, v)| *v)
        .collect();
    (!matching.is_empty()).then(|| matching.iter().sum())
}

fn slo(args: &[String]) -> Result<(), String> {
    use tagbreathe_suite::obs::slo::render_rows_text;
    use tagbreathe_suite::server::slo::{build_table, SloConfig};
    use tagbreathe_suite::tagbreathe::metrics as tmetrics;

    let (flags, positional) = parse_flags(args)?;
    let path = positional
        .first()
        .ok_or("slo requires a metrics dump (JSON) file")?;
    let defaults = SloConfig::default();
    let config = SloConfig {
        snapshot_lag_p99_ns: (get_f64(
            &flags,
            "lag-p99-ms",
            defaults.snapshot_lag_p99_ns as f64 / 1e6,
        )? * 1e6) as u64,
        shed_ratio: get_f64(&flags, "shed-ratio", defaults.shed_ratio)?,
        bytes_per_user: get_f64(&flags, "bytes-per-user", defaults.bytes_per_user)?,
        policy: defaults.policy,
    };

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (numbers, hist_p99) = parse_metrics_sidecar(&text);

    // Prefer the end-to-end stage (a server dump); fall back to the
    // engine's shard-ingest stage (a `metrics` dump).
    let lag_key_total = format!("{}{{stage=\"0\"}}", tmetrics::SNAPSHOT_LAG_NS);
    let lag_key_shard = format!("{}{{stage=\"3\"}}", tmetrics::SNAPSHOT_LAG_NS);
    let lag_p99 = hist_p99
        .iter()
        .find(|(k, _)| *k == lag_key_total)
        .or_else(|| hist_p99.iter().find(|(k, _)| *k == lag_key_shard))
        .map(|(_, v)| *v);

    let shed = sum_metric(&numbers, "tagbreathe_server_reports_shed_total").unwrap_or(0.0);
    let accepted = sum_metric(&numbers, "tagbreathe_server_reports_total");
    let shed_ratio = accepted.map(|a| {
        if a + shed > 0.0 {
            shed / (a + shed)
        } else {
            0.0
        }
    });

    let bytes = sum_metric(&numbers, tmetrics::FLEET_RESIDENT_BYTES);
    let users = sum_metric(&numbers, tmetrics::FLEET_SHARD_USERS);
    let bytes_per_user = match (bytes, users) {
        (Some(b), Some(u)) if u > 0.0 => Some(b / u),
        _ => None,
    };

    let mut table = build_table(&config);
    let _ = table.evaluate(&[lag_p99, shed_ratio, bytes_per_user]);
    print!("{}", render_rows_text(&table.rows()));
    Ok(())
}

fn live(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let users = get_usize(&flags, "users", 1)?;
    let rate = get_f64(&flags, "rate", 12.0)?;
    let duration = get_f64(&flags, "duration", 60.0)?;
    let seed = get_usize(&flags, "seed", 0)? as u64;
    let scenario = build_scenario(users, 3.0, &[rate], 0)?;
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reports = capture(&scenario, seed, duration);

    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.clone()),
        25.0,
        5.0,
    )
    .map_err(|e| e.to_string())?;
    for snap in sm.push(reports) {
        print!("t={:>5.0}s", snap.time_s);
        for id in &ids {
            match snap.rates_bpm.get(id) {
                Some(bpm) => print!("  user{id}: {bpm:>5.1} bpm"),
                None => print!("  user{id}:   --"),
            }
        }
        println!();
    }
    // Final waveform sketch per user.
    let monitor = BreathMonitor::paper_default();
    let last = capture(&scenario, seed, duration);
    let analysis = monitor.analyze(&last, &EmbeddedIdentity::new(ids.clone()));
    for (id, user) in analysis.successes() {
        println!("user{id} breath: {}", sparkline(&user.breath_signal, 60));
    }
    Ok(())
}
