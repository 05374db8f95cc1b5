//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload join-uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one named workload, one simulation at a time, for
//! `--seconds` of host time, checks every output, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (and the layer account) with `--trace 1`. `benchmark/README.md`
//! explains the workloads and every metric.

mod probes;
mod reference;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probes::UnitCosts;
use sys::{Delta, Usage};
use trace::{Tracer, VirtualSpan};
use workloads::{Exact, Verdict, Work, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning; performance claims are re-checked on it.
const HELD_OUT_SEED: u64 = 7919;
/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Traced and untraced repetitions each in a `--trace 1` run.
const MIN_TRACED_REPS: usize = 2;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: rsj-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut opts = Opts {
        workload: Workload::JoinUniform,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Where the run executed: recorded with every result.
struct Host {
    nproc: usize,
    allowed: Vec<usize>,
    pinned: Option<usize>,
}

impl Host {
    /// Pin the process to the first CPU it may use, before any thread
    /// starts. The simulation runs one task at a time, so one CPU costs it
    /// no parallelism, while cross-CPU wake-ups made `join-uniform` about
    /// 4.5x slower on a 2-CPU host (README.md, "Seeds, host record and
    /// pinning").
    fn place() -> Host {
        let allowed = sys::allowed_cpus();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned = allowed.first().copied().filter(|&cpu| sys::pin_to(cpu));
        Host {
            nproc,
            allowed,
            pinned,
        }
    }

    fn describe(&self) -> String {
        let allowed: Vec<String> = self.allowed.iter().map(|c| c.to_string()).collect();
        format!(
            "nproc {}, affinity [{}], pinned {}",
            self.nproc,
            allowed.join(","),
            self.pinned
                .map_or("no".to_string(), |c| format!("to cpu {c}"))
        )
    }
}

/// One repetition: set-up, the run, the checks.
struct Rep {
    setup_s: f64,
    generate_s: f64,
    /// Host seconds from job start to verified result.
    e2e_s: f64,
    verify_s: f64,
    /// Counters over job start to verified result.
    cpu: Delta,
    /// Counters over the program call (traced repetitions only).
    run_usage: Option<Delta>,
    tuples: u64,
    queries: u64,
    verdict: Verdict,
    tracer: Tracer,
    virt: Vec<VirtualSpan>,
    /// Host time of the whole repetition, set-up included (and, in a
    /// timed run, the reference pass after it).
    span: Duration,
}

fn run_rep(w: Workload, seed: u64, traced: bool) -> Rep {
    let start = Instant::now();
    let mut tr = Tracer::new(traced);
    let prepared = w.prepare(seed, &mut tr);
    let (tuples, queries) = (prepared.tuples(), prepared.queries());
    let u0 = Usage::now();
    let run = tr.open("run", None);
    let executed = prepared.execute();
    tr.close(run);
    let check = tr.open("verify", None);
    let (verdict, virt) = executed.verify(traced);
    tr.close(check);
    let u1 = Usage::now();
    Rep {
        setup_s: tr.secs("setup"),
        generate_s: tr.secs("generate"),
        e2e_s: (u1.at - u0.at).as_secs_f64(),
        verify_s: tr.secs("verify"),
        cpu: u1.since(&u0),
        run_usage: tr.delta("run"),
        tuples,
        queries,
        verdict,
        tracer: tr,
        virt,
        span: start.elapsed(),
    }
}

fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Outcome totals over every repetition of a run.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Fold the verdicts: a repetition whose simulated results differ from
/// the first repetition's counts as failed.
fn tally(reps: &[&Rep]) -> Tally {
    let first: &Exact = &reps[0].verdict.exact;
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        correct: true,
    };
    for (i, r) in reps.iter().enumerate() {
        let v = &r.verdict;
        t.attempted += v.attempted;
        if let Some(p) = &v.problem {
            eprintln!("rep {i}: {p}");
            t.correct = false;
        }
        if v.exact != *first {
            eprintln!("rep {i}: simulated results differ from rep 0 (same seed)");
            t.correct = false;
            t.failed += v.attempted;
        } else {
            t.failed += v.failed;
        }
    }
    t
}

/// A metric on the output line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(t: &Tally, metrics: &[Metric]) {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.correct, t.attempted, t.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            value,
            metric.unit
        );
    }
    out.push_str("}}");
    println!("{out}");
}

/// Whether one more repetition, as long as the last one, ends before
/// `deadline` — so a run measures for `--seconds` and stops there.
fn fits(reps: &[Rep], deadline: Instant) -> bool {
    let last = reps.last().map_or(Duration::ZERO, |r| r.span);
    Instant::now() + last <= deadline
}

/// The timed run: end-to-end metrics, tracing off.
///
/// A host-speed reference pass runs before the first repetition and after
/// every one. Each repetition's host seconds are scaled by
/// [`reference::NOMINAL_S`] over the mean of the two passes around it, so
/// the host metrics read as seconds on a host of the nominal speed
/// (README.md, "Host-speed normalization").
fn timed(opts: &Opts) -> ExitCode {
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut reps = Vec::new();
    let mut refs = vec![reference::measure()];
    let mut peak_rss_mb = 0.0;
    while reps.len() < MIN_REPS || fits(&reps, deadline) {
        let mut rep = run_rep(opts.workload, opts.seed, false);
        if reps.is_empty() {
            // The first repetition of a fresh process: later ones only
            // add allocator growth to the high-water mark.
            peak_rss_mb = Usage::now().max_rss_mb;
        }
        let pass = Instant::now();
        refs.push(reference::measure());
        rep.span += pass.elapsed();
        reps.push(rep);
    }
    // Nominal seconds per host second, one per repetition.
    let scale: Vec<f64> = refs
        .windows(2)
        .map(|w| reference::NOMINAL_S * 2.0 / (w[0] + w[1]))
        .collect();
    let norm = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().zip(&scale).map(|(r, k)| f(r) * k));
    let all: Vec<&Rep> = reps.iter().collect();
    let t = tally(&all);
    let x = &reps[0].verdict.exact;
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.e2e_s)).collect();
    let nominal: Vec<String> = reps
        .iter()
        .zip(&scale)
        .map(|(r, k)| format!("{:.3}", r.e2e_s * k))
        .collect();
    eprintln!(
        "{}: {} repetitions, {} attempted, {} failed; host seconds per repetition [{}]; \
         at nominal host speed [{}]",
        opts.workload.name(),
        reps.len(),
        t.attempted,
        t.failed,
        walls.join(", "),
        nominal.join(", ")
    );
    let e2e_s = norm(&|r| r.e2e_s);
    print_result(
        &t,
        &[
            m("tuples_per_s", reps[0].tuples as f64 / e2e_s, "1/s"),
            m("queries_per_s", reps[0].queries as f64 / e2e_s, "1/s"),
            m("cpu_s", norm(&|r| r.cpu.cpu_s()), "s"),
            m("setup_s", norm(&|r| r.setup_s), "s"),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
            m("virtual_s", x.virtual_s, "sim_s"),
            m("latency_p50_virtual_ms", x.latency_p50_ms, "sim_ms"),
            m("latency_p95_virtual_ms", x.latency_p95_ms, "sim_ms"),
        ],
    );
    ExitCode::SUCCESS
}

/// Host seconds of one repetition's program call explained by each layer.
#[derive(Debug)]
struct Account {
    sim_s: f64,
    joins_s: f64,
    rdma_s: f64,
    residual_s: f64,
}

fn account(u: &UnitCosts, work: &Work, run: &Delta) -> Account {
    let sim_s = run.voluntary as f64 * u.handoff_us * 1e-6;
    let joins_s = (work.partitioned * u.partition_ns + work.built_probed * u.build_probe_ns) * 1e-9;
    let rdma_s = work.sends * u.send_self_us * 1e-6;
    Account {
        sim_s,
        joins_s,
        rdma_s,
        residual_s: run.wall_s - sim_s - joins_s - rdma_s,
    }
}

/// The traced run: per-layer metrics, the account and the tracing
/// overhead, from traced repetitions alternated with untraced ones.
fn traced(opts: &Opts, host: &Host) -> ExitCode {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(opts.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < MIN_TRACED_REPS || fits(&traced, deadline) {
        plain.push(run_rep(opts.workload, opts.seed, false));
        traced.push(run_rep(opts.workload, opts.seed, true));
    }
    let units = probes::measure();
    let all: Vec<&Rep> = plain.iter().chain(traced.iter()).collect();
    let t = tally(&all);

    let runs: Vec<(Delta, Account)> = traced
        .iter()
        .map(|r| {
            let d = r.run_usage.expect("traced repetitions record counters");
            (d, account(&units, &r.verdict.work, &d))
        })
        .collect();
    let med = |f: &dyn Fn(&(Delta, Account)) -> f64| median(runs.iter().map(f));
    let run_s = med(&|(d, _)| d.wall_s);
    let acc = Account {
        sim_s: med(&|(_, a)| a.sim_s),
        joins_s: med(&|(_, a)| a.joins_s),
        rdma_s: med(&|(_, a)| a.rdma_s),
        residual_s: med(&|(_, a)| a.residual_s),
    };
    let overhead =
        median(traced.iter().map(|r| r.e2e_s)) / median(plain.iter().map(|r| r.e2e_s)) - 1.0;
    let x = &traced[0].verdict.exact;
    eprintln!(
        "{}: {} traced + {} untraced repetitions; run {:.3} s = sim {:.3} + joins {:.3} + rdma {:.3} + residual {:.3}",
        opts.workload.name(),
        traced.len(),
        plain.len(),
        run_s,
        acc.sim_s,
        acc.joins_s,
        acc.rdma_s,
        acc.residual_s
    );
    eprintln!("unit costs: {units:?}");
    write_trace(opts, host, &traced, &units, &acc, origin);

    print_result(
        &t,
        &[
            m("sim.handoff_us", units.handoff_us, "us"),
            m("sim.advance_ns", units.advance_ns, "ns"),
            m(
                "sim.voluntary_switches",
                med(&|(d, _)| d.voluntary as f64),
                "count",
            ),
            m(
                "sim.involuntary_switches",
                med(&|(d, _)| d.involuntary as f64),
                "count",
            ),
            m("sim.sys_cpu_s", med(&|(d, _)| d.sys_s), "s"),
            m("sim.share", acc.sim_s / run_s, "ratio"),
            m("rdma.send_us", units.send_us, "us"),
            m("rdma.read_us", units.read_us, "us"),
            m("rdma.tx_bytes", x.tx_bytes as f64, "B"),
            m("rdma.send_stall_virtual_s", x.send_stall_s, "sim_s"),
            m(
                "rdma.fly_registrations",
                x.fly_registrations as f64,
                "count",
            ),
            m("rdma.fabric_utilization", x.fabric_utilization, "ratio"),
            m(
                "cluster.queue_wait_p50_virtual_ms",
                x.queue_wait_ms[0],
                "sim_ms",
            ),
            m(
                "cluster.queue_wait_p95_virtual_ms",
                x.queue_wait_ms[1],
                "sim_ms",
            ),
            m("cluster.cpu_busy_virtual_s", x.cpu_busy_s, "sim_s"),
            m("cluster.retries", x.retries as f64, "count"),
            m("cluster.healed", x.healed as f64, "count"),
            m("cluster.rejected", x.rejected as f64, "count"),
            m(
                "cluster.detection_latency_virtual_ms",
                x.detection_ms,
                "sim_ms",
            ),
            m(
                "cluster.recovery_max_virtual_ms",
                x.recovery_max_ms,
                "sim_ms",
            ),
            m("core.histogram_virtual_s", x.phases[0], "sim_s"),
            m("core.network_partition_virtual_s", x.phases[1], "sim_s"),
            m("core.local_partition_virtual_s", x.phases[2], "sim_s"),
            m("core.build_probe_virtual_s", x.phases[3], "sim_s"),
            m("core.imbalance", x.imbalance, "ratio"),
            m("joins.partition_ns_per_tuple", units.partition_ns, "ns"),
            m("joins.build_probe_ns_per_tuple", units.build_probe_ns, "ns"),
            m("joins.decode_ns_per_bucket", units.decode_ns, "ns"),
            m("joins.share", acc.joins_s / run_s, "ratio"),
            m(
                "workload.generate_s",
                median(traced.iter().map(|r| r.generate_s)),
                "s",
            ),
            m(
                "workload.verify_s",
                median(traced.iter().map(|r| r.verify_s)),
                "s",
            ),
            m("model.error", x.model_error, "ratio"),
            m("model.paper_error", x.paper_error, "ratio"),
            m("account.residual_s", acc.residual_s, "s"),
            m("trace.overhead", overhead, "ratio"),
        ],
    );
    ExitCode::SUCCESS
}

/// Write the traced repetitions' spans, the unit costs, the account and
/// the host record to `.bench_trace/<workload>-seed<N>.json`.
fn write_trace(
    opts: &Opts,
    host: &Host,
    reps: &[Rep],
    units: &UnitCosts,
    acc: &Account,
    origin: Instant,
) {
    let mut doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"default_seed\":{DEFAULT_SEED},\
         \"held_out_seed\":{HELD_OUT_SEED},\"host\":\"{}\",\n\"units\":\"{units:?}\",\n\
         \"account\":\"{acc:?}\",\n\"spans\":[\n",
        opts.workload.name(),
        opts.seed,
        host.describe(),
    );
    // Simulated-time spans repeat exactly across repetitions (the
    // determinism check enforces it), so only the first carries them.
    for (i, r) in reps.iter().enumerate() {
        let virt = if i == 0 { &r.virt[..] } else { &[] };
        trace::write_rep(&mut doc, i, &r.tracer, virt, origin);
    }
    if doc.ends_with(",\n") {
        doc.truncate(doc.len() - 2);
    }
    doc.push_str("\n]}\n");
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let host = Host::place();
    eprintln!(
        "{} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}); {}",
        opts.workload.name(),
        opts.seed,
        host.describe()
    );
    if opts.trace {
        traced(&opts, &host)
    } else {
        timed(&opts)
    }
}
