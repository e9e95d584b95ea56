//! The repository benchmark. Runs one workload in rounds for a fixed
//! wall time and prints, as its last line, one JSON object with every
//! metric it measured. `run.py` builds this program, runs it once per
//! workload and selects the metrics `BENCHMARK.json` names.
//!
//! ```sh
//! perfbench --workload smallfile_churn --seed 1 --seconds 10 --trace 0
//! ```

mod measure;
mod round;
mod sim;
mod tcp;
mod trace;

use measure::{median, peak_rss_mb, percentile, reset_peak_rss, tail_percentile, trimmed_mean};
use round::{ratio, Round};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Serialises the tests that record spans into the process-wide buffer.
#[cfg(test)]
pub(crate) static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The workload names.
const WORKLOADS: [&str; 3] = ["smallfile_churn", "shared_fanin", "tcp_nfs"];

enum Workload {
    Churn(sim::SmallfileChurn),
    Fanin(sim::SharedFanin),
    Tcp(tcp::TcpNfs),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "smallfile_churn" => {
                Workload::Churn(sim::SmallfileChurn::new(seed, sim::ChurnConfig::full()))
            }
            "shared_fanin" => {
                Workload::Fanin(sim::SharedFanin::new(seed, sim::FaninConfig::full()))
            }
            "tcp_nfs" => Workload::Tcp(tcp::TcpNfs::new(seed, tcp::TcpConfig::full())),
            _ => return None,
        })
    }

    fn round(&self, traced: bool) -> Round {
        match self {
            Workload::Churn(w) => w.round(traced),
            Workload::Fanin(w) => w.round(traced),
            Workload::Tcp(w) => w.round(traced),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <smallfile_churn|shared_fanin|tcp_nfs> \
--seed <n> --seconds <s> --trace <0|1> [--spans <file.csv>]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, spans: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--spans" => args.spans = Some(value.clone().into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(args)
}

/// The unit of a metric, from its name.
fn unit(name: &str) -> &'static str {
    match name {
        "ops_per_s" => "1/s",
        "peak_rss_mb" => "MB",
        "wan_bytes" => "B",
        "wan_rpcs" => "count",
        n if n.ends_with("_us") || n.ends_with("_us_per_op") || n.ends_with("_us_per_call") => "us",
        n if n.ends_with("_ms") || n.ends_with("_ms_per_rpc") => "ms",
        n if n.ends_with("_ns_per_kib") => "ns/KiB",
        n if n.ends_with("_ratio")
            || n.ends_with("_amp")
            || n.ends_with("_per_read_byte")
            || n.ends_with("_per_op") =>
        {
            "ratio"
        }
        n if n.ends_with("_s") => "s",
        _ => "count",
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = Workload::new(&args.workload, args.seed).expect("checked name");
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    // Round 0 warms caches and the allocator: checked, not timed. Traced
    // runs then alternate untraced and traced rounds of the same inputs.
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let i = rounds.len();
        let traced = args.trace && i > 0 && i.is_multiple_of(2);
        reset_peak_rss();
        let mut round = workload.round(traced);
        round.peak_rss_mb = peak_rss_mb();
        eprintln!(
            "round {i}{}: setup {:.3}s run {:.3}s cpu {:.3}s ops {} failed {}",
            if traced { " (traced)" } else { "" },
            round.setup_s,
            round.run_s,
            round.cpu_s,
            round.ops.attempted,
            round.ops.failed
        );
        rounds.push(round);
        let needed = if args.trace { 3 } else { 4 };
        if rounds.len() >= needed && started.elapsed() >= budget {
            break;
        }
    }
    let (json, failed) = report(&args, &rounds);
    println!("{json}");
    std::process::exit(i32::from(failed));
}

/// Builds the result line; returns it and whether anything failed.
fn report(args: &Args, rounds: &[Round]) -> (String, bool) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures: Vec<String> = Vec::new();
    for r in rounds {
        attempted += r.ops.attempted;
        failed += r.ops.failed;
        failures.extend(r.ops.failures.iter().cloned());
    }
    // Every round of a seed must model the same run; the traced rounds
    // too, or tracing changed the program.
    let first = rounds[0].modelled;
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.modelled != first {
            failed += 1;
            failures.push(format!(
                "round {i}{}: modelled {:?} differs from round 0's {:?}",
                if r.traced { " (traced: tracing changed the program)" } else { "" },
                r.modelled,
                first
            ));
        }
    }

    // End-to-end metrics are per round, then averaged over the timed
    // untraced rounds without the lowest and highest, so one disturbed
    // round cannot move them.
    let untraced: Vec<&Round> = rounds[1..].iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let per_round = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| {
        trimmed_mean(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let rate = |r: &Round| ratio(r.ops.wall_ns.len() as f64, r.run_s);
    let latency = |r: &Round, p: f64| {
        let mut wall = r.ops.wall_ns.clone();
        wall.sort_unstable();
        percentile(&wall, p) as f64 / 1e3
    };
    let mut metrics: Vec<(String, f64)> = vec![
        ("setup_s".into(), per_round(&untraced, &|r| r.setup_s)),
        ("ops_per_s".into(), per_round(&untraced, &rate)),
        ("op_p50_us".into(), per_round(&untraced, &|r| latency(r, 50.0))),
        ("op_p90_us".into(), per_round(&untraced, &|r| latency(r, 90.0))),
        ("op_p99_us".into(), per_round(&untraced, &|r| latency(r, 99.0))),
        ("cpu_s".into(), per_round(&untraced, &|r| r.cpu_s)),
        ("peak_rss_mb".into(), per_round(&untraced, &|r| r.peak_rss_mb)),
        ("failed_op_ratio".into(), ratio(failed as f64, attempted as f64)),
    ];
    let mut wall: Vec<u64> = untraced.iter().flat_map(|r| r.ops.wall_ns.iter().copied()).collect();
    wall.sort_unstable();
    if let Some(m) = first {
        let mut virt = rounds[0].ops.virtual_ns.clone();
        virt.sort_unstable();
        metrics.extend([
            // From the untraced rounds: tracing adds waits of its own.
            (
                "netsim.handoff_idle_s".into(),
                per_round(&untraced, &|r| (r.run_s - r.cpu_s).max(0.0)),
            ),
            ("virtual_s".into(), m.virtual_ns as f64 / 1e9),
            ("virtual_op_p50_ms".into(), percentile(&virt, 50.0) as f64 / 1e6),
            ("virtual_op_p99_ms".into(), percentile(&virt, 99.0) as f64 / 1e6),
            ("wan_rpcs".into(), m.wan_rpcs as f64),
            ("wan_bytes".into(), m.wan_bytes as f64),
        ]);
    }
    if !traced.is_empty() {
        let names: Vec<&str> = traced[0].layers.iter().map(|&(n, _)| n).collect();
        for name in names {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v))
                .collect();
            metrics.push((name.to_string(), median(&values)));
        }
        metrics.push((
            "trace.overhead_ratio".into(),
            ratio(per_round(&untraced, &rate), per_round(&traced, &rate)),
        ));
        if let Some(path) = &args.spans {
            let last = traced.last().expect("a traced round");
            if let Err(e) = trace::write_csv(path, &last.spans) {
                failures.push(format!("writing spans to {}: {e}", path.display()));
            }
        }
    }

    let mut json = String::new();
    let tail = tail_percentile(wall.len());
    let _ = write!(
        json,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rounds\": {}, \
         \"timed_rounds\": {}, \"samples\": {}, \"tail_percentile\": {}, \"op_tail_us\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"failures\": [",
        args.workload,
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        untraced.len(),
        wall.len(),
        tail.map_or("null".into(), |p| p.to_string()),
        tail.map_or("null".into(), |p| (percentile(&wall, p) as f64 / 1e3).to_string()),
    );
    for (i, f) in failures.iter().take(8).enumerate() {
        let f = f.replace('\\', "\\\\").replace('"', "'");
        let _ = write!(json, "{}\"{f}\"", if i > 0 { ", " } else { "" });
    }
    json.push_str("], \"metrics\": {");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            unit(name)
        );
    }
    json.push_str("}}");
    (json, failed > 0)
}

#[cfg(test)]
mod tests {
    use super::unit;

    #[test]
    fn units_follow_metric_names() {
        assert_eq!(unit("op_p99_us"), "us");
        assert_eq!(unit("setup_s"), "s");
        assert_eq!(unit("proxy_client.self_cpu_us_per_call"), "us");
        assert_eq!(unit("client.rpcs_per_op"), "ratio");
        assert_eq!(unit("netsim.unattributed_cpu_s"), "s");
        assert_eq!(unit("xdr.decode_ns_per_kib"), "ns/KiB");
        assert_eq!(unit("virtual_op_p50_ms"), "ms");
        assert_eq!(unit("store.syncs"), "count");
        assert_eq!(unit("trace.overhead_ratio"), "ratio");
    }
}
