//! Wall-clock perf harness: measures the simulator and data-plane hot
//! paths and appends the results to the committed `BENCH_PERF.json`
//! trajectory, so every PR's optimisation (or regression) is on record.
//!
//! Unlike `experiments`, which reports *virtual* (paper-equivalent)
//! times, this binary times how long the reproduction takes to run on
//! the host — the quantity the self-continuation kernel and the SWWC
//! partitioning kernels optimise. Virtual results must never change
//! (`experiments_all.txt` is byte-identical across perf PRs); wall-clock
//! must only go down.
//!
//! ```text
//! cargo run --release -p rsj-bench --bin perf -- [flags]
//!
//! --short               reduced iteration counts, no full sweep (CI mode)
//! --sweep-only          only the `experiments all` sweep timing
//! --check               validate BENCH_PERF.json and exit (writes nothing)
//! --label STR           entry label (default "run")
//! --out PATH            trajectory file (default BENCH_PERF.json)
//! --experiments-bin P   experiments binary for the sweep (default: sibling
//!                       of this binary; lets the harness time a baseline
//!                       build for before/after entries)
//! --sweep-out PATH      tee the sweep's stdout to PATH instead of
//!                       discarding it, so a timed run doubles as the
//!                       byte-identity check against experiments_all.txt
//! --sweep-jobs N        forward `--jobs N` to the experiments sweep and
//!                       record N as the sweep entry's `cpus`
//! ```
//!
//! Each entry records `{bench, wall_ms, virtual_s, tuples_per_s, cpus}`
//! rows plus host metadata. `virtual_s` is the run's paper-equivalent
//! virtual time where one exists (joins and kernel benches) and `null`
//! for pure CPU kernels; `tuples_per_s` is wall-clock throughput where
//! tuples are the natural unit and `null` otherwise; `cpus` is the
//! bench's own worker parallelism (1 everywhere except multi-job
//! sweeps; `--check` compares only same-`cpus` entries).

use std::sync::Arc;

use rsj_bench::service_stress::stress_batch;
use rsj_bench::{run_scaled_join, Scale};
use rsj_cluster::{ClusterSpec, HealingConfig, QueryService, ServiceConfig};
use rsj_core::{DistJoinConfig, Transport};
use rsj_joins::{BucketTable, Partitioner};
use rsj_rdma::{FaultPlan, ValidateMode};
use rsj_sim::{SimChannel, SimDuration, Simulation};
use rsj_workload::{Skew, Tuple, Tuple16};
use serde::{Serialize, Value};

/// The validator-overhead satellite's acceptance bound: `Record`-mode
/// verbs checking must cost less than this fraction of `Off`-mode wall
/// time on the mid-size join (DESIGN.md §6), enforced by
/// [`OverheadCheck::enforce`].
const VALIDATOR_OVERHEAD_BOUND: f64 = 0.10;

/// The fault-plane satellite's acceptance bound (DESIGN.md §8): arming
/// the fault plane with a plan that injects nothing — which turns on
/// every error-path branch, the runtime watchdog and the crash timers —
/// must cost less than this fraction of the plan-free mid-size join.
/// The plan-free leg is the shape every ordinary run takes (the fault
/// checks compile to a handful of plain branches), and its wall time is
/// tracked in the trajectory alongside `join/mid-cluster`.
const FAULT_PLANE_OVERHEAD_BOUND: f64 = 0.02;

/// How one on/off wall-clock pair is reported (`{label} … -> {pct}%
/// {noun} (bound …)`) and held to `bound`, the largest allowed
/// `on / off - 1` (breach: `{subject} costs {pct}% of {workload}, …`).
struct OverheadCheck {
    label: &'static str,
    noun: &'static str,
    subject: &'static str,
    workload: &'static str,
    bound: f64,
}

impl OverheadCheck {
    /// Print the pair's overhead and enforce the bound: a breach panics
    /// in full runs and only warns in `--short` mode, where two min-of-N
    /// wall-clock samples on a loaded CI container are noisy enough to
    /// cross the bound spuriously.
    fn enforce(&self, on: &BenchRecord, off: &BenchRecord, short: bool) {
        let overhead = on.wall_ms / off.wall_ms - 1.0;
        println!(
            "{} {:.0} ms vs off {:.0} ms -> {:+.1}% {} (bound {:.0}%)",
            self.label,
            on.wall_ms,
            off.wall_ms,
            overhead * 100.0,
            self.noun,
            self.bound * 100.0
        );
        if overhead >= self.bound {
            let msg = format!(
                "{} costs {:.1}% of {}, over the {:.0}% budget",
                self.subject,
                overhead * 100.0,
                self.workload,
                self.bound * 100.0
            );
            if short {
                eprintln!("warning: {msg} (not enforced in --short mode)");
            } else {
                panic!("{msg}");
            }
        }
    }
}

/// Trajectory schema tag; `--check` rejects anything else.
const SCHEMA: &str = "rsj-bench-perf/v1";

fn main() {
    let opts = Opts::parse(std::env::args().skip(1).collect());
    if opts.check {
        match check_file(&opts.out) {
            Ok(n) => {
                println!(
                    "{}: {} entr{} ok",
                    opts.out,
                    n,
                    if n == 1 { "y" } else { "ies" }
                );
                return;
            }
            Err(e) => {
                eprintln!("error: {}: {e}", opts.out);
                std::process::exit(2);
            }
        }
    }

    let mut benches: Vec<BenchRecord> = Vec::new();
    if !opts.sweep_only {
        let it = if opts.short {
            Iters::short()
        } else {
            Iters::full()
        };
        benches.push(bench_self_continuation(it.advances));
        benches.push(bench_settle_batched(it.advances));
        benches.push(bench_handoff(it.handoffs));
        benches.push(bench_swwc_partition(it.partition_tuples, it.partition_reps));
        benches.push(bench_bucket_table(it.hash_tuples));
        benches.push(bench_mid_join(it.join_scale));
        let (rec, off) = bench_validator_overhead(it.join_scale, it.validator_reps);
        OverheadCheck {
            label: "validator: record",
            noun: "overhead",
            subject: "verbs-contract validator",
            workload: "the mid-size join",
            bound: VALIDATOR_OVERHEAD_BOUND,
        }
        .enforce(&rec, &off, opts.short);
        benches.push(rec);
        benches.push(off);
        let (bare, armed) = bench_faultplane_overhead(it.join_scale, it.validator_reps);
        OverheadCheck {
            label: "fault plane: armed",
            noun: "overhead",
            subject: "armed fault plane",
            workload: "the mid-size join",
            bound: FAULT_PLANE_OVERHEAD_BOUND,
        }
        .enforce(&armed, &bare, opts.short);
        benches.push(bare);
        benches.push(armed);
        let (serial, contended) = bench_service_pair(it.service_queries, 10, 2);
        // Virtual makespan is deterministic, so this is safe to gate on
        // even in --short mode: multiplexing eight queries over the rack
        // must beat draining the same batch one at a time.
        assert!(
            contended.virtual_s < serial.virtual_s,
            "contended service makespan {:?}s is not below serial {:?}s",
            contended.virtual_s,
            serial.virtual_s
        );
        benches.push(serial);
        benches.push(contended);
        let (hoff, harmed) = bench_healing_pair(it.service_queries, 10, 2, it.validator_reps);
        OverheadCheck {
            label: "healing: armed",
            noun: "idle overhead",
            subject: "armed-idle healing",
            workload: "the stress batch",
            bound: FAULT_PLANE_OVERHEAD_BOUND,
        }
        .enforce(&harmed, &hoff, opts.short);
        benches.push(hoff);
        benches.push(harmed);
        let (two, one) = bench_transport_pair(it.join_scale);
        benches.push(two);
        benches.push(one);
    }
    if !opts.short {
        benches.push(bench_sweep(
            opts.experiments_bin.as_deref(),
            opts.sweep_out.as_deref(),
            opts.sweep_jobs,
        ));
    }

    let entry = Entry {
        label: opts.label,
        git: git_rev(),
        mode: if opts.sweep_only {
            "sweep-only"
        } else if opts.short {
            "short"
        } else {
            "full"
        }
        .to_string(),
        host: Host::detect(),
        benches,
    };
    for b in &entry.benches {
        println!("{b}");
    }
    append_entry(&opts.out, &entry);
    println!("recorded entry '{}' in {}", entry.label, opts.out);
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Opts {
    short: bool,
    sweep_only: bool,
    check: bool,
    label: String,
    out: String,
    experiments_bin: Option<String>,
    sweep_out: Option<String>,
    sweep_jobs: u64,
}

impl Opts {
    fn parse(args: Vec<String>) -> Opts {
        let mut o = Opts {
            short: false,
            sweep_only: false,
            check: false,
            label: "run".to_string(),
            out: "BENCH_PERF.json".to_string(),
            experiments_bin: None,
            sweep_out: None,
            sweep_jobs: 1,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--short" => o.short = true,
                "--sweep-only" => o.sweep_only = true,
                "--check" => o.check = true,
                "--label" => {
                    i += 1;
                    o.label = args
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--label needs a value"));
                }
                "--out" => {
                    i += 1;
                    o.out = args
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a value"));
                }
                "--experiments-bin" => {
                    i += 1;
                    o.experiments_bin = Some(
                        args.get(i)
                            .cloned()
                            .unwrap_or_else(|| die("--experiments-bin needs a path")),
                    );
                }
                "--sweep-out" => {
                    i += 1;
                    o.sweep_out = Some(
                        args.get(i)
                            .cloned()
                            .unwrap_or_else(|| die("--sweep-out needs a path")),
                    );
                }
                "--sweep-jobs" => {
                    i += 1;
                    o.sweep_jobs = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&j| j >= 1)
                        .unwrap_or_else(|| die("--sweep-jobs needs a positive integer"));
                }
                other => die(&format!("unknown flag {other}")),
            }
            i += 1;
        }
        if o.short && o.sweep_only {
            die("--short and --sweep-only are mutually exclusive");
        }
        o
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf [--short | --sweep-only] [--check] [--label STR] [--out PATH] \
         [--experiments-bin PATH] [--sweep-out PATH] [--sweep-jobs N]"
    );
    std::process::exit(2)
}

/// Per-bench iteration counts: `full` sizes every bench to hundreds of
/// milliseconds so run-to-run noise stays in the low percent; `short`
/// keeps the whole harness a few seconds for the CI gate.
struct Iters {
    advances: u64,
    handoffs: u64,
    partition_tuples: usize,
    partition_reps: usize,
    hash_tuples: usize,
    join_scale: u64,
    validator_reps: usize,
    service_queries: usize,
}

impl Iters {
    fn full() -> Iters {
        Iters {
            advances: 4_000_000,
            handoffs: 400_000,
            partition_tuples: 8 << 20,
            partition_reps: 3,
            hash_tuples: 4 << 20,
            join_scale: 2048,
            validator_reps: 3,
            service_queries: 64,
        }
    }

    fn short() -> Iters {
        Iters {
            advances: 500_000,
            handoffs: 50_000,
            partition_tuples: 2 << 20,
            partition_reps: 2,
            hash_tuples: 1 << 20,
            join_scale: 8192,
            // More reps than `full`: the short joins are small enough that
            // min-of-N needs extra samples to shake off scheduler noise.
            validator_reps: 5,
            service_queries: 16,
        }
    }
}

// ---------------------------------------------------------------------
// Wall timing (deliberately the only clock reads in the workspace)
// ---------------------------------------------------------------------

/// Run `f` and return `(result, elapsed wall milliseconds)`. This harness
/// exists to read the host clock; everything else in the workspace is
/// banned from doing so by the `wall-clock` lint.
fn wall_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // lint: allow-wall-clock(the perf harness measures real elapsed time by design)
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------
// Benches
// ---------------------------------------------------------------------

/// A single uncontended task charging fine-grained `advance()`s — the
/// self-continuation fast path and charge coalescing, with no peer ever
/// runnable. The dominant shape inside phase workers.
fn bench_self_continuation(advances: u64) -> BenchRecord {
    let ((), ms) = wall_ms(|| {
        let sim = Simulation::new();
        sim.spawn("hot", move |ctx| {
            for i in 0..advances {
                ctx.advance(SimDuration::from_nanos(1 + i % 7));
            }
        });
        std::hint::black_box(sim.run());
    });
    BenchRecord::new("kernel/self-continuation", ms)
}

/// The same uncontended charge stream through the batched self-advance
/// path: chunks accrue as pure cell arithmetic and a `settle_point`
/// commits every 64 of them — the shape lazy settlement gives a phase
/// worker between two interactions. The gap to `kernel/self-continuation`
/// prices what the sweep saves per eliminated dispatch.
fn bench_settle_batched(advances: u64) -> BenchRecord {
    let ((), ms) = wall_ms(|| {
        let sim = Simulation::new();
        sim.spawn("hot", move |ctx| {
            for i in 0..advances {
                ctx.advance_batched(SimDuration::from_nanos(1 + i % 7));
                if i % 64 == 63 {
                    ctx.settle_point();
                }
            }
        });
        std::hint::black_box(sim.run());
    });
    BenchRecord::new("kernel/settle-batched", ms)
}

/// Two tasks ping-ponging a token through channels: every hop is a
/// park/unpark pair, i.e. the slow path the fast path cannot skip. Prices
/// the handoff (a coroutine stack switch) itself.
fn bench_handoff(rounds: u64) -> BenchRecord {
    let ((), ms) = wall_ms(|| {
        let sim = Simulation::new();
        let ping = SimChannel::new();
        let pong = SimChannel::new();
        {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            sim.spawn("ping", move |ctx| {
                for i in 0..rounds {
                    ping.send(ctx, i);
                    // lint: allow-error-swallow(SimChannel payload, not a fabric Result)
                    pong.recv(ctx);
                }
                ping.close(ctx);
            });
        }
        {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            sim.spawn("pong", move |ctx| {
                while let Some(v) = ping.recv(ctx) {
                    pong.send(ctx, v);
                }
                pong.close(ctx);
            });
        }
        std::hint::black_box(sim.run());
    });
    BenchRecord::new("kernel/handoff", ms)
}

/// The §3.1 software-write-combining scatter over a realistic radix
/// width, staging buffers hot in cache, measured in tuples per second.
fn bench_swwc_partition(n: usize, reps: usize) -> BenchRecord {
    let input: Vec<Tuple16> = (0..n as u64)
        .map(|i| Tuple16::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
        .collect();
    let mut pt = Partitioner::new();
    let ((), ms) = wall_ms(|| {
        for _ in 0..reps {
            std::hint::black_box(pt.partition(&input, 0, 10));
        }
    });
    BenchRecord::new("partition/swwc", ms).tuples_per_s((n * reps) as f64 / (ms / 1e3))
}

/// Contiguous bucket-array hash table: counting-sort build plus a full
/// probe pass, the phase-4 inner loop.
fn bench_bucket_table(n: usize) -> BenchRecord {
    let r: Vec<Tuple16> = (0..n as u64).map(|i| Tuple16::new(i + 1, i)).collect();
    let s: Vec<Tuple16> = (0..n as u64)
        .map(|i| Tuple16::new(i.wrapping_mul(0x0005_DEEC_E66D) % n as u64 + 1, i))
        .collect();
    let mut table = BucketTable::default();
    let (matches, ms) = wall_ms(|| {
        table.rebuild(&r);
        table.probe_all(&s).matches
    });
    assert!(matches > 0, "probe bench produced no matches");
    BenchRecord::new("hash/bucket-build-probe", ms).tuples_per_s(2.0 * n as f64 / (ms / 1e3))
}

/// The fixed mid-size cluster join: the paper's 2048M ⋈ 2048M on four QDR
/// machines, scaled down. End-to-end through all four phases, fabric and
/// meter included — the closest microcosm of the full sweep.
fn bench_mid_join(scale: u64) -> BenchRecord {
    let scale = Scale::new(scale);
    let (out, ms) = wall_ms(|| {
        run_scaled_join(
            scale,
            ClusterSpec::qdr_cluster(4),
            2048,
            2048,
            Skew::None,
            |_| {},
        )
    });
    let tuples = 2 * scale.tuples(2048);
    BenchRecord::new("join/mid-cluster", ms)
        .virtual_s(scale.paper_seconds(out.phases.total()))
        .tuples_per_s(tuples as f64 / (ms / 1e3))
}

/// The same mid-size join with the verbs-contract validator in `Record`
/// mode (the release default) and in `Off` mode, min-of-N each. The gap
/// is the validator's release-mode overhead.
fn bench_validator_overhead(scale: u64, reps: usize) -> (BenchRecord, BenchRecord) {
    let scale = Scale::new(scale);
    let run = |mode: ValidateMode, name: &'static str| {
        let mut best = f64::INFINITY;
        let mut virt = 0.0;
        for _ in 0..reps {
            let (out, ms) = wall_ms(|| {
                run_scaled_join(
                    scale,
                    ClusterSpec::qdr_cluster(4),
                    2048,
                    2048,
                    Skew::None,
                    |cfg: &mut DistJoinConfig| cfg.validate_mode = Some(mode),
                )
            });
            best = best.min(ms);
            virt = scale.paper_seconds(out.phases.total());
        }
        BenchRecord::new(name, best).virtual_s(virt)
    };
    let rec = run(ValidateMode::Record, "validator/record");
    let off = run(ValidateMode::Off, "validator/off");
    (rec, off)
}

/// The chaos-off pair (DESIGN.md §8): the mid-size join with no fault
/// plan — the shape every ordinary run takes — against the same join
/// with [`FaultPlan::fault_free`] installed, which arms the watchdog,
/// the crash timers and every per-message fault branch without injecting
/// anything. Min-of-N each; the gap prices the armed-but-idle fault
/// plane against the `FAULT_PLANE_OVERHEAD_BOUND` budget.
fn bench_faultplane_overhead(scale: u64, reps: usize) -> (BenchRecord, BenchRecord) {
    let scale = Scale::new(scale);
    let run = |plan: Option<FaultPlan>, name: &'static str| {
        let mut best = f64::INFINITY;
        let mut virt = 0.0;
        for _ in 0..reps {
            let plan = plan.clone();
            let (out, ms) = wall_ms(|| {
                run_scaled_join(
                    scale,
                    ClusterSpec::qdr_cluster(4),
                    2048,
                    2048,
                    Skew::None,
                    |cfg: &mut DistJoinConfig| cfg.fault_plan = plan,
                )
            });
            best = best.min(ms);
            virt = scale.paper_seconds(out.phases.total());
        }
        BenchRecord::new(name, best).virtual_s(virt)
    };
    let bare = run(None, "faultplane/off");
    let armed = run(Some(FaultPlan::fault_free()), "faultplane/armed");
    (bare, armed)
}

/// The query-service contention pair (DESIGN.md §9): the identical mixed
/// stress batch drained serially (`max_concurrent = 1`) and with eight
/// queries multiplexed over the shared fabric. Virtual makespan and tail
/// latency quantify what contention costs; wall time tracks the service
/// scheduler's own overhead.
fn bench_service_pair(queries: usize, hosts: usize, cores: usize) -> (BenchRecord, BenchRecord) {
    let run = |concurrent: usize, name: &'static str| {
        let mut cfg = ServiceConfig::qdr_rack(hosts, cores);
        cfg.max_concurrent = concurrent;
        let mut batch = stress_batch(queries, 1, hosts, cores);
        let requests = std::mem::take(&mut batch.requests);
        let (report, ms) = wall_ms(|| QueryService::run(&cfg, requests));
        assert_eq!(report.aborted, 0, "{name}: fault-free batch aborted");
        assert_eq!(batch.verify_all(), queries);
        println!(
            "{name}: {} queries x{concurrent} -> makespan {:.3} ms, p99 latency {:.3} ms (virtual)",
            queries,
            report.makespan.as_secs_f64() * 1e3,
            report.latency_p99.as_secs_f64() * 1e3
        );
        BenchRecord::new(name, ms)
            .virtual_s(report.makespan.as_secs_f64())
            .tuples_per_s(queries as f64 / (ms / 1e3))
    };
    let serial = run(1, "service/serial");
    let contended = run(8, "service/contention");
    (serial, contended)
}

/// The healing-idle pair (DESIGN.md §13): the identical fault-free stress
/// batch with the self-healing layer disarmed and armed. Armed mode runs
/// the failure detector (lease table, heartbeat ticks) and the live-host
/// placement recomputation on every admission, with nothing ever failing —
/// the overhead every ordinary batch pays for crash insurance. Min-of-N
/// each; the gap is priced against the same `FAULT_PLANE_OVERHEAD_BOUND`
/// budget as the armed fault plane.
fn bench_healing_pair(
    queries: usize,
    hosts: usize,
    cores: usize,
    reps: usize,
) -> (BenchRecord, BenchRecord) {
    let run = |armed: bool, name: &'static str| {
        let mut best = f64::INFINITY;
        let mut virt = 0.0;
        for _ in 0..reps {
            let mut cfg = ServiceConfig::qdr_rack(hosts, cores);
            cfg.max_concurrent = 4;
            if armed {
                cfg.healing = HealingConfig::armed();
            }
            let mut batch = stress_batch(queries, 1, hosts, cores);
            let requests = std::mem::take(&mut batch.requests);
            let (report, ms) = wall_ms(|| QueryService::run(&cfg, requests));
            assert_eq!(report.aborted, 0, "{name}: fault-free batch aborted");
            assert_eq!(report.retries, 0, "{name}: fault-free batch retried");
            assert_eq!(batch.verify_all(), queries);
            best = best.min(ms);
            virt = report.makespan.as_secs_f64();
        }
        BenchRecord::new(name, best).virtual_s(virt)
    };
    let off = run(false, "service/healing-off");
    let armed = run(true, "service/healing-armed");
    (off, armed)
}

/// The probe-dataplane pair (DESIGN.md §11): the mid-size join once over
/// the two-sided partition-and-ship plane and once over the one-sided
/// RDMA-READ plane, identical inputs and (asserted) identical results.
/// Virtual time records the simulated cost of each plane at this uniform
/// workload point — the two-sided anchor of the shootout's crossover —
/// while wall time tracks the simulator cost of the READ-heavy path
/// (doorbell batching, bucket decode, seqlock retries).
fn bench_transport_pair(scale: u64) -> (BenchRecord, BenchRecord) {
    let scale = Scale::new(scale);
    let run = |transport: Transport, name: &'static str| {
        let (out, ms) = wall_ms(|| {
            run_scaled_join(
                scale,
                ClusterSpec::qdr_cluster(4),
                2048,
                2048,
                Skew::None,
                |cfg: &mut DistJoinConfig| cfg.probe_transport = transport,
            )
        });
        let tuples = 2 * scale.tuples(2048);
        (
            out.result,
            BenchRecord::new(name, ms)
                .virtual_s(scale.paper_seconds(out.phases.total()))
                .tuples_per_s(tuples as f64 / (ms / 1e3)),
        )
    };
    let (two_result, two) = run(Transport::TwoSided, "transport/two_sided");
    let (one_result, one) = run(Transport::OneSided, "transport/one_sided");
    assert_eq!(
        two_result, one_result,
        "probe dataplanes disagree on the mid-size join"
    );
    (two, one)
}

/// Time the full `experiments all` regeneration sweep as a subprocess —
/// the number the ≥1.5× acceptance bar is judged on. `bin` overrides the
/// binary so a baseline build can be timed with the same harness; `jobs`
/// is forwarded to the sweep engine and recorded as the entry's `cpus`
/// so single-worker and multi-worker timings are never cross-compared.
fn bench_sweep(bin: Option<&str>, sweep_out: Option<&str>, jobs: u64) -> BenchRecord {
    let path = match bin {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let mut exe = std::env::current_exe().expect("cannot locate the running perf binary");
            exe.set_file_name("experiments");
            exe
        }
    };
    let stdout = match sweep_out {
        Some(p) => std::process::Stdio::from(
            std::fs::File::create(p).unwrap_or_else(|e| panic!("cannot create {p}: {e}")),
        ),
        None => std::process::Stdio::null(),
    };
    let (status, ms) = wall_ms(|| {
        std::process::Command::new(&path)
            .args(["all", "--jobs", &jobs.to_string()])
            .stdout(stdout)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()))
    });
    assert!(status.success(), "{} all failed: {status}", path.display());
    BenchRecord::new("sweep/experiments-all", ms).cpus(jobs)
}

// ---------------------------------------------------------------------
// Records and the JSON trajectory
// ---------------------------------------------------------------------

/// One timed bench inside an entry.
struct BenchRecord {
    bench: String,
    wall_ms: f64,
    virtual_s: Option<f64>,
    tuples_per_s: Option<f64>,
    /// Worker parallelism the bench itself used. Almost every bench
    /// drives a single simulation (one runnable task at a time), so the
    /// default is 1; the sweep records its `--jobs` so entries taken at
    /// different parallelism are never compared against each other
    /// (`--check` only diffs same-`cpus` entries). Entries recorded
    /// before the field existed are read back as 1.
    cpus: u64,
}

impl BenchRecord {
    fn new(bench: &str, wall_ms: f64) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            // Round to microseconds so the committed JSON stays readable.
            wall_ms: (wall_ms * 1e3).round() / 1e3,
            virtual_s: None,
            tuples_per_s: None,
            cpus: 1,
        }
    }

    fn cpus(mut self, n: u64) -> BenchRecord {
        self.cpus = n;
        self
    }

    fn virtual_s(mut self, v: f64) -> BenchRecord {
        self.virtual_s = Some(v);
        self
    }

    fn tuples_per_s(mut self, v: f64) -> BenchRecord {
        self.tuples_per_s = Some(v.round());
        self
    }
}

impl std::fmt::Display for BenchRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<26} {:>10.1} ms", self.bench, self.wall_ms)?;
        if let Some(v) = self.virtual_s {
            write!(f, "  virtual {v:.2} s")?;
        }
        if let Some(t) = self.tuples_per_s {
            write!(f, "  {:.1} M tuples/s", t / 1e6)?;
        }
        if self.cpus != 1 {
            write!(f, "  ({} cpus)", self.cpus)?;
        }
        Ok(())
    }
}

impl Serialize for BenchRecord {
    fn to_value(&self) -> Value {
        serde::obj([
            ("bench", Value::Str(self.bench.clone())),
            ("wall_ms", Value::Num(self.wall_ms)),
            ("virtual_s", self.virtual_s.to_value()),
            ("tuples_per_s", self.tuples_per_s.to_value()),
            ("cpus", Value::Num(self.cpus as f64)),
        ])
    }
}

/// Host metadata: enough to tell entries from different machines apart.
struct Host {
    os: String,
    arch: String,
    cpus: u64,
}

impl Host {
    fn detect() -> Host {
        Host {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        }
    }
}

impl Serialize for Host {
    fn to_value(&self) -> Value {
        serde::obj([
            ("os", Value::Str(self.os.clone())),
            ("arch", Value::Str(self.arch.clone())),
            ("cpus", Value::Num(self.cpus as f64)),
        ])
    }
}

/// One harness invocation: a labelled batch of bench records.
struct Entry {
    label: String,
    git: String,
    mode: String,
    host: Host,
    benches: Vec<BenchRecord>,
}

impl Serialize for Entry {
    fn to_value(&self) -> Value {
        serde::obj([
            ("label", Value::Str(self.label.clone())),
            ("git", Value::Str(self.git.clone())),
            ("mode", Value::Str(self.mode.clone())),
            ("host", self.host.to_value()),
            ("benches", self.benches.to_value()),
        ])
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a repo.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Append `entry` to the trajectory file, creating it if missing. The
/// file is rewritten with one entry per line so diffs stay reviewable.
fn append_entry(path: &str, entry: &Entry) {
    let mut entries: Vec<Value> = match std::fs::read_to_string(path) {
        Ok(text) => match parse_trajectory(&text) {
            Ok(es) => es,
            Err(e) => die(&format!(
                "{path} exists but is malformed ({e}); refusing to append"
            )),
        },
        Err(_) => Vec::new(),
    };
    entries.push(entry.to_value());
    let mut out = String::from("{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\n\"entries\":[\n");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&serde_json::to_string(e).expect("bench entry contains a non-finite number"));
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

/// Parse and structurally validate a trajectory file; returns its entries.
fn parse_trajectory(text: &str) -> Result<Vec<Value>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let schema = v
        .field("schema")
        .and_then(|s| s.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if schema != SCHEMA {
        return Err(format!("unknown schema `{schema}`, expected `{SCHEMA}`"));
    }
    let entries = v
        .field("entries")
        .and_then(Value::as_arr)
        .map_err(|e| e.to_string())?;
    for (i, e) in entries.iter().enumerate() {
        let ctx = |what: &str| format!("entry {i}: {what}");
        e.field("label")
            .and_then(Value::as_str)
            .map_err(|err| ctx(&err.to_string()))?;
        let host = e.field("host").map_err(|err| ctx(&err.to_string()))?;
        host.field("cpus")
            .and_then(Value::as_f64)
            .map_err(|err| ctx(&err.to_string()))?;
        let benches = e
            .field("benches")
            .and_then(Value::as_arr)
            .map_err(|err| ctx(&err.to_string()))?;
        for b in benches {
            b.field("bench")
                .and_then(Value::as_str)
                .map_err(|err| ctx(&err.to_string()))?;
            let wall = b
                .field("wall_ms")
                .and_then(Value::as_f64)
                .map_err(|err| ctx(&err.to_string()))?;
            if !(wall.is_finite() && wall >= 0.0) {
                return Err(ctx(&format!("non-physical wall_ms {wall}")));
            }
            for opt in ["virtual_s", "tuples_per_s"] {
                let f = b.field(opt).map_err(|err| ctx(&err.to_string()))?;
                if !matches!(f, Value::Null | Value::Num(_)) {
                    return Err(ctx(&format!("{opt} must be a number or null")));
                }
            }
            // `cpus` arrived with the parallel sweep engine; absent in
            // earlier entries (read back as 1 by `bench_cpus`).
            if let Ok(f) = b.field("cpus") {
                let c = f.as_f64().map_err(|err| ctx(&err.to_string()))?;
                if !(c.is_finite() && c >= 1.0) {
                    return Err(ctx(&format!("non-physical cpus {c}")));
                }
            }
        }
    }
    Ok(entries.to_vec())
}

/// The parallelism a serialized bench ran at; entries recorded before
/// the `cpus` field existed were all single-worker.
fn bench_cpus(b: &Value) -> u64 {
    b.field("cpus")
        .and_then(Value::as_f64)
        .map(|c| c as u64)
        .unwrap_or(1)
}

/// `--check`: validate the committed trajectory and print the wall-clock
/// trend for every bench in the newest entry. Trends compare only
/// same-`cpus` entries — a `--jobs 8` sweep time against a serial sweep
/// time is a parallelism delta, not a perf delta. Errors on a missing
/// file — a perf PR must ship its before/after entries.
fn check_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let entries = parse_trajectory(&text)?;
    if entries.is_empty() {
        return Err("trajectory has no entries".to_string());
    }
    let last = entries.last().expect("emptiness was rejected above");
    let benches = last
        .field("benches")
        .and_then(Value::as_arr)
        .expect("validated above");
    for b in benches {
        let name = b
            .field("bench")
            .and_then(Value::as_str)
            .expect("validated above");
        let wall = b
            .field("wall_ms")
            .and_then(Value::as_f64)
            .expect("validated above");
        let cpus = bench_cpus(b);
        // Most recent earlier sample of the same bench at the same
        // parallelism.
        let prev = entries[..entries.len() - 1]
            .iter()
            .rev()
            .flat_map(|e| {
                e.field("benches")
                    .and_then(Value::as_arr)
                    .expect("validated above")
            })
            .find(|p| {
                p.field("bench")
                    .and_then(Value::as_str)
                    .expect("validated above")
                    == name
                    && bench_cpus(p) == cpus
            });
        match prev {
            Some(p) => {
                let before = p
                    .field("wall_ms")
                    .and_then(Value::as_f64)
                    .expect("validated above");
                println!(
                    "{name:<26} {wall:>10.1} ms  ({:+.1}% vs last same-cpus entry, cpus {cpus})",
                    (wall / before - 1.0) * 100.0
                );
            }
            None => println!("{name:<26} {wall:>10.1} ms  (no prior entry at cpus {cpus})"),
        }
    }
    Ok(entries.len())
}
