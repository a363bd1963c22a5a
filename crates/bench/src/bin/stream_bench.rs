//! Fleet-engine scaling sweep driver.
//!
//! ```text
//! stream_bench [--smoke] [--out PATH]
//! ```
//!
//! Sweeps the sharded fleet engine over users × shard threads, prints a
//! summary table and writes machine-readable JSON to `BENCH_fleet.json`
//! (or `--out PATH`). `--smoke` runs a single tiny point for CI. The run
//! aborts non-zero if the fleet's snapshot stream is not bit-identical to
//! the single-threaded engine's.

use tagbreathe_bench::fleet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_fleet.json", String::as_str);
    let config = if smoke {
        fleet::FleetBenchConfig::smoke()
    } else {
        fleet::FleetBenchConfig::quick()
    };
    eprintln!(
        "# stream_bench — users {:?}, shards {:?}, {} s @ {} reads/s",
        config.users, config.shards, config.duration_s, config.aggregate_hz
    );
    let host_parallelism = fleet::host_parallelism();
    if !fleet::scaling_valid(&config, host_parallelism) {
        eprintln!(
            "WARNING: sweep asks for up to {} shard threads but this host can \
             only run {host_parallelism} in parallel — oversubscribed points \
             measure scheduler time-slicing, NOT shard scaling; the report is \
             marked \"scaling_valid\": false",
            config.shards.iter().copied().max().unwrap_or(0)
        );
    }
    let check = fleet::equivalence_check(&config);
    if !check.bit_identical {
        eprintln!(
            "error: fleet snapshots diverged from the single-threaded engine \
             ({} users, {} shards)",
            check.users, check.shards
        );
        std::process::exit(1);
    }
    eprintln!(
        "# equivalence: {} snapshots bit-identical at {} users × {} shards",
        check.snapshots, check.users, check.shards
    );
    let points = fleet::run(&config);
    print!("{}", fleet::render(&points));
    let json = fleet::to_json(&config, &points, &check);
    if let Err(e) = obs::json::validate(&json) {
        eprintln!("error: fleet bench output is not valid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {out_path}");
}
