//! `ipcbench` — the repository benchmark.
//!
//! ```text
//! ipcbench --workload <assemble|churn|stack> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload single-threaded from the seed: rounds of networks
//! built from sub-seeds, repeated until `--seconds` of host time have
//! passed and at least two rounds ran. It checks every network's outputs
//! and that every repeat agrees exactly, and prints one JSON result as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `README.md` for what each
//! workload and metric means.

mod json;
mod layers;
mod rep;
mod replay;
mod trace;
mod workload;

use json::{esc, metrics_object, num};
use rep::Metric;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Instance, Kind, NETWORKS};

/// Rounds every run makes at least (set-up and run times are their
/// medians).
const MIN_ROUNDS: usize = 2;
/// Where result and trace files go, relative to the working directory.
const OUT_DIR: &str = "reports/ipcbench";
/// The end-to-end metrics a `--trace 0` run reports, in order.
const END_TO_END: [&str; 4] = ["setup_s", "run_s", "peak_rss_mb", "mgmt_pdus_per_member"];

const USAGE: &str =
    "usage: ipcbench --workload <assemble|churn|stack> --seed <n> --seconds <s> --trace <0|1>";

/// Output checks: how many ran and which failed.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree of its own.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The machine and build a result was measured on, as a JSON object.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"seed\": {}, \"threads\": 1, \"os\": \"{}\", \"arch\": \"{}\"}}",
        esc(env!("IPCBENCH_RUSTC")),
        esc(&git_commit()),
        args.seed,
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// Report every exact metric that differs between two repetitions.
fn compare(ck: &mut Checks, what: &str, a: &[Metric], b: &[Metric]) {
    ck.check(a.len() == b.len(), || format!("determinism: {what}: metric sets differ"));
    for ((ka, va, _), (kb, vb, _)) in a.iter().zip(b) {
        ck.check(ka == kb && va.to_bits() == vb.to_bits(), || {
            format!("determinism: {what}: {ka} = {va} vs {kb} = {vb}")
        });
    }
}

fn find(m: &[Metric], k: &str) -> f64 {
    m.iter().find(|(n, _, _)| n == k).map_or(f64::NAN, |&(_, v, _)| v)
}

/// The sub-seed of network `k` of a round.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k)
}

/// What a run's rounds measured.
struct Rounds {
    /// Set-up host seconds of each round (summed over its networks).
    setup: Vec<f64>,
    /// Measured-phase host seconds of each round.
    run: Vec<f64>,
    /// Host seconds each round's measured phases spent on tracing.
    trace: Vec<f64>,
    /// Host seconds of every measured window.
    windows: Vec<f64>,
    /// The exact metrics of each network (from the first round).
    exact: Vec<Vec<Metric>>,
}

/// Run rounds until the time budget is spent (at least `min`), checking
/// that every repeat of a network reproduces its exact metrics; keeps the
/// network of the last repetition only.
fn rounds(
    args: &Args,
    min: usize,
    budget: Duration,
    tr: &mut Tracer,
    ck: &mut Checks,
) -> (Rounds, Instance) {
    let t0 = Instant::now();
    let mut r =
        Rounds { setup: vec![], run: vec![], trace: vec![], windows: vec![], exact: vec![] };
    let mut last: Option<Instance> = None;
    while r.setup.len() < min || t0.elapsed() < budget {
        let round = r.setup.len();
        let (mut setup, mut run, mut trace) = (0.0, 0.0, 0.0);
        for k in 0..NETWORKS {
            // Free the previous network before building the next.
            drop(last.take());
            tr.open("rep");
            let (rep, inst) = rep::run(args.kind, sub_seed(args.seed, k), tr, ck);
            tr.close();
            last = Some(inst);
            setup += rep.setup_s;
            run += rep.run_s;
            trace += rep.trace_s;
            r.windows.extend(&rep.window_s);
            match r.exact.get(k as usize) {
                Some(first) => {
                    compare(ck, &format!("network {k}, round {round} vs 0"), first, &rep.exact)
                }
                None => r.exact.push(rep.exact),
            }
        }
        r.setup.push(setup);
        r.run.push(run);
        r.trace.push(trace);
    }
    (r, last.expect("at least one round"))
}

/// The mean of each metric over the networks of a round.
fn mean_over(nets: &[Vec<Metric>]) -> Vec<Metric> {
    let n = nets.len() as f64;
    nets[0]
        .iter()
        .enumerate()
        .map(|(i, (k, _, u))| (k.clone(), nets.iter().map(|m| m[i].1).sum::<f64>() / n, *u))
        .collect()
}

fn write_file(name: &str, body: &str) {
    let dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), body))
    {
        eprintln!("ipcbench: could not write {OUT_DIR}/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ipcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.kind.name();
    let budget = Duration::from_secs(args.seconds);
    let mut ck = Checks::default();
    let fp = fingerprint(&args);
    println!("ipcbench {wl} seed={} trace={} fingerprint={fp}", args.seed, args.trace as u8);

    let mut tr = Tracer::new(args.trace);
    tr.open(wl);
    // The traced run first makes one untraced repetition of network 0: the
    // reference for the determinism check.
    let reference = args
        .trace
        .then(|| rep::run(args.kind, sub_seed(args.seed, 0), &mut Tracer::new(false), &mut ck).0);
    let (rounds, inst) = rounds(&args, MIN_ROUNDS, budget, &mut tr, &mut ck);
    if let Some(r) = &reference {
        compare(&mut ck, "traced vs untraced", &r.exact, &rounds.exact[0]);
    }
    let (setup, run) = (&rounds.setup, &rounds.run);
    let exact = &mean_over(&rounds.exact);

    let mut host: Vec<Metric> = vec![
        ("setup_s".into(), median(setup), "s"),
        ("run_s".into(), median(run), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    let metrics: Vec<Metric> = if args.trace {
        let replays = replay::run(&inst, &mut tr, &mut ck);
        tr.close();
        let names = tr.names();
        for layer in ["sim.", "wire.", "efcp.", "rib.", "routing.", "ipcp.", "rmt.", "apps."] {
            ck.check(
                names.iter().any(|n| n.starts_with(layer) || n.contains(&format!(".{layer}"))),
                || format!("trace: no span for layer {layer}"),
            );
        }
        let windows = &rounds.windows;
        let frames = find(exact, "sim.link_frames") * NETWORKS as f64;
        host.extend([
            ("sim.ns_per_frame".into(), median(run) * 1e9 / frames.max(1.0), "ns"),
            ("sim.window_s_p50".into(), median(windows), "s"),
            ("sim.window_s_max".into(), windows.iter().copied().fold(0.0, f64::max), "s"),
        ]);
        host.extend(replays.iter().map(|(&k, &v)| (k.to_string(), v, "ns")));
        // Traced minus untraced run_s is the time the measured phase spends
        // on tracing; it is timed directly, because the difference of two
        // separate runs is below the host's noise.
        host.push(("trace.overhead_s".into(), median(&rounds.trace), "s"));
        host.push(("trace.spans".into(), tr.span_count() as f64, "count"));
        // Per-layer names carry their layer as a dotted prefix; end-to-end
        // names have none.
        let mut m: Vec<Metric> =
            exact.iter().filter(|(k, _, _)| k.contains('.')).cloned().collect();
        m.extend(host.iter().filter(|(k, _, _)| k.contains('.')).cloned());
        m
    } else {
        END_TO_END
            .iter()
            .map(|&k| {
                host.iter()
                    .chain(exact.iter())
                    .find(|(n, _, _)| n == k)
                    .cloned()
                    .expect("every end-to-end metric is derived")
            })
            .collect()
    };

    // Human-readable summary, then the result files.
    println!(
        "rounds: {} of {} networks (host times: median over rounds of the sum over networks; \
         other metrics: mean over networks)",
        setup.len(),
        NETWORKS
    );
    let all: Vec<&Metric> = host.iter().chain(exact.iter()).collect();
    for (k, v, u) in &all {
        println!("  {k:<28} {v:>16} {u}");
    }
    println!(
        "  (efcp.* cover only the {} flows open at the end; apps.fail_ratio is over {} {})",
        find(exact, "efcp.flows_open"),
        find(exact, "apps.fail_base"),
        if args.kind == Kind::Assemble { "members" } else { "allocation attempts" }
    );
    println!("checks: {} attempted, {} failed", ck.attempted, ck.failures.len());
    for f in ck.failures.iter().take(20) {
        println!("  FAIL {f}");
    }
    let result_body = format!(
        "{{\"fingerprint\": {fp}, \"workload\": \"{wl}\", \"trace\": {}, \"setup_s\": [{}], \"run_s\": [{}], \"metrics\": {}, \"failures\": [{}]}}\n",
        args.trace,
        setup.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", "),
        run.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", "),
        metrics_object(&all.into_iter().cloned().collect::<Vec<_>>()),
        ck.failures.iter().map(|f| format!("\"{}\"", esc(f))).collect::<Vec<_>>().join(", "),
    );
    write_file(&format!("{wl}-seed{}-trace{}.json", args.seed, args.trace as u8), &result_body);
    if args.trace {
        write_file(&format!("trace-{wl}-seed{}.json", args.seed), &tr.to_json(&result_body));
    }

    let correct = ck.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ck.attempted,
        ck.failures.len(),
        metrics_object(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
