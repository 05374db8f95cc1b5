//! The four workloads: input generation from the seed, the one call into
//! the program, and the checks of every output.
//!
//! A workload's *shape* — cluster, sizes, operator mix, skew, crash
//! schedule — is fixed; the seed draws only the data. So every seed runs
//! the same experiment on different tuples, and the simulated-time
//! results move only as much as the data moves them.

use std::sync::Arc;

use rsj_bench::Scale;
use rsj_cluster::{
    ClusterSpec, HealingConfig, JoinRequest, PhaseTimes, QueryJob, QueryService, ServiceConfig,
    ServiceReport,
};
use rsj_core::{
    try_run_distributed_join, DistJoinConfig, DistJoinJob, DistJoinOutcome, JoinError,
    MachineReport, Transport,
};
use rsj_model::{predict, ModelInput};
use rsj_operators::{
    AggregationConfig, AggregationJob, CycloJoinConfig, CycloJoinJob, SortMergeConfig, SortMergeJob,
};
use rsj_rdma::{FaultPlan, HostCrash, HostId};
use rsj_sim::SimTime;
use rsj_workload::{
    generate_inner, generate_outer, ExpectedResult, JoinResult, Relation, Skew, Tuple, Tuple16,
};

use crate::trace::{Tracer, VirtualSpan};

/// Scale divisor of the join workloads: 2048 M tuples become 250 000.
pub const JOIN_SCALE: u64 = 8192;
/// Paper tuple count of each join relation, in millions.
const JOIN_PAPER_MILLIONS: u64 = 2048;
/// Machines of the join workloads (`qdr_cluster(4)`).
const JOIN_MACHINES: usize = 4;
/// The paper's 2048 M ⋈ 2048 M time on four QDR machines (Fig. 5a).
const PAPER_QDR4_S: f64 = 7.19;
/// Queries per service batch.
const SERVICE_QUERIES: usize = 200;
/// Fixed seed of the service-mix query mix (operators, sizes, skews).
const MIX_SHAPE_SEED: u64 = 1;

/// The named workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 2048 M ⋈ 2048 M, uniform keys, two-sided probe dataplane.
    JoinUniform,
    /// The same join with Zipf 1.2 foreign keys over the one-sided plane.
    JoinSkewRead,
    /// The mixed four-operator batch, healing off.
    ServiceMix,
    /// Small radix joins with healing armed and two host crashes.
    ServiceHeal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::JoinUniform,
        Workload::JoinSkewRead,
        Workload::ServiceMix,
        Workload::ServiceHeal,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinUniform => "join-uniform",
            Workload::JoinSkewRead => "join-skew-read",
            Workload::ServiceMix => "service-mix",
            Workload::ServiceHeal => "service-heal",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate inputs and build configs and jobs (the set-up span).
    pub fn prepare(self, seed: u64, tr: &mut Tracer) -> Prepared {
        let setup = tr.open("setup", None);
        let prepared = match self {
            Workload::JoinUniform => prepare_join(seed, Skew::None, Transport::TwoSided, tr, setup),
            Workload::JoinSkewRead => {
                prepare_join(seed, Skew::Zipf(1.2), Transport::OneSided, tr, setup)
            }
            Workload::ServiceMix => prepare_mix(seed, tr, setup),
            Workload::ServiceHeal => prepare_heal(seed, tr, setup),
        };
        tr.close(setup);
        prepared
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of input stream `stream` of query `id`.
fn data_seed(seed: u64, id: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed ^ id.wrapping_mul(0xA5A5_5A5A_5A5A_A5A5)) ^ stream)
}

/// A workload ready to run: the inputs and jobs, plus what the checks
/// need afterwards.
pub enum Prepared {
    /// One distributed join.
    Join {
        /// The scaled join configuration.
        cfg: DistJoinConfig,
        /// Inner relation.
        r: Relation<Tuple16>,
        /// Outer relation.
        s: Relation<Tuple16>,
        /// Generator oracle.
        oracle: ExpectedResult,
        /// Whether the workload has the paper's 7.19 s reference.
        paper_point: bool,
    },
    /// One service batch.
    Service {
        /// Service configuration.
        cfg: ServiceConfig,
        /// Requests in submission order.
        requests: Vec<JoinRequest>,
        /// One checker per request, same order.
        checks: Vec<Check>,
        /// Whether typed rejections are an allowed outcome.
        healing: bool,
    },
}

impl Prepared {
    /// Input tuples over all queries.
    pub fn tuples(&self) -> u64 {
        match self {
            Prepared::Join { r, s, .. } => r.total_tuples() + s.total_tuples(),
            Prepared::Service { checks, .. } => checks.iter().map(|c| c.tuples).sum(),
        }
    }

    /// Queries in the workload.
    pub fn queries(&self) -> u64 {
        match self {
            Prepared::Join { .. } => 1,
            Prepared::Service { checks, .. } => checks.len() as u64,
        }
    }

    /// Make the call into the program (the run span).
    pub fn execute(self) -> Executed {
        match self {
            Prepared::Join {
                cfg,
                r,
                s,
                oracle,
                paper_point,
            } => {
                let tuples = (r.total_tuples(), s.total_tuples());
                let transport = cfg.probe_transport;
                let buf = cfg.rdma_buf_size;
                let out = try_run_distributed_join(cfg, r, s);
                Executed::Join {
                    out,
                    oracle,
                    paper_point,
                    tuples,
                    transport,
                    buf,
                }
            }
            Prepared::Service {
                cfg,
                requests,
                checks,
                healing,
            } => {
                let report = QueryService::run(&cfg, requests);
                Executed::Service {
                    report,
                    checks,
                    healing,
                }
            }
        }
    }
}

/// A finished run, before its checks.
pub enum Executed {
    /// One join's outcome.
    Join {
        /// What the program returned.
        out: Result<DistJoinOutcome, JoinError>,
        /// Generator oracle.
        oracle: ExpectedResult,
        /// Whether `model.paper_error` applies.
        paper_point: bool,
        /// `(|R|, |S|)`.
        tuples: (u64, u64),
        /// Probe dataplane.
        transport: Transport,
        /// Scaled RDMA buffer size.
        buf: usize,
    },
    /// One service batch's report.
    Service {
        /// What the program returned.
        report: ServiceReport,
        /// Per-query checkers.
        checks: Vec<Check>,
        /// Whether typed rejections are an allowed outcome.
        healing: bool,
    },
}

/// The checked result of one repetition.
pub struct Verdict {
    /// Operations attempted (queries).
    pub attempted: u64,
    /// Operations that failed, aborted or were rejected.
    pub failed: u64,
    /// First problem found, for the log.
    pub problem: Option<String>,
    /// Deterministic results of the run.
    pub exact: Exact,
    /// Work counts the per-layer account multiplies by unit costs.
    pub work: Work,
}

/// Simulated-time results and deterministic counts of one repetition:
/// identical on every repetition with the same seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exact {
    /// Join: paper-equivalent seconds; service: batch makespan seconds.
    pub virtual_s: f64,
    /// Median submission-to-completion latency, simulated milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, simulated milliseconds.
    pub latency_p95_ms: f64,
    /// Histogram, network partition, local partition, build-probe
    /// seconds (paper-equivalent for joins, summed over queries for a
    /// service batch).
    pub phases: [f64; 4],
    /// Payload bytes sent over the fabric.
    pub tx_bytes: u64,
    /// Largest per-machine send stall, seconds (scaled like `phases`).
    pub send_stall_s: f64,
    /// On-the-fly buffer registrations.
    pub fly_registrations: u64,
    /// Egress capacity kept busy over the run.
    pub fabric_utilization: f64,
    /// Queue-wait percentiles, simulated milliseconds.
    pub queue_wait_ms: [f64; 2],
    /// CPU busy seconds over all machines (scaled like `phases`).
    pub cpu_busy_s: f64,
    /// Max/mean of per-machine CPU busy time.
    pub imbalance: f64,
    /// Re-admissions.
    pub retries: u64,
    /// Queries completed after losing an attempt to a crash.
    pub healed: u64,
    /// Typed rejections.
    pub rejected: u64,
    /// Longest crash-detection latency, simulated milliseconds.
    pub detection_ms: f64,
    /// Longest time-to-recovery, simulated milliseconds.
    pub recovery_max_ms: f64,
    /// |virtual − model| / model (joins only).
    pub model_error: f64,
    /// |virtual − 7.19| / 7.19 (join-uniform only).
    pub paper_error: f64,
    /// Digest of every query's outcome, completion instant and attempts.
    pub digest: u64,
}

/// Work counts of a join workload for the per-layer account, derived
/// from input sizes and public report fields (see `benchmark/README.md`).
/// Service batches leave them at zero: their small in-cache kernels are
/// not the shape the unit-cost probes price.
#[derive(Copy, Clone, Debug, Default)]
pub struct Work {
    /// Tuples scattered by the 2^10-way network partitioning pass.
    pub partitioned: f64,
    /// Tuples inserted into or probed against bucket tables.
    pub built_probed: f64,
    /// SEND messages (payload bytes over the buffer size).
    pub sends: f64,
}

/// One query's expected outcome.
pub struct Check {
    kind: CheckKind,
    tuples: u64,
}

enum CheckKind {
    Join(Arc<DistJoinJob<Tuple16>>, ExpectedResult),
    SortMerge(Arc<SortMergeJob<Tuple16>>, ExpectedResult),
    Aggregation(Arc<AggregationJob<Tuple16>>, Fold),
    Cyclo(Arc<CycloJoinJob<Tuple16>>, ExpectedResult),
}

/// What an aggregation over a relation must report, folded from the
/// generated input itself.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Fold {
    groups: u64,
    key_weighted_count: u64,
    rid_sum: u64,
}

impl Fold {
    fn of(s: &Relation<Tuple16>) -> Fold {
        let mut keys: Vec<u64> = s.iter_all().map(|t| t.key()).collect();
        let key_weighted_count = keys.iter().fold(0u64, |a, &k| a.wrapping_add(k));
        let rid_sum = s.iter_all().fold(0u64, |a, t| a.wrapping_add(t.rid()));
        keys.sort_unstable();
        keys.dedup();
        Fold {
            groups: keys.len() as u64,
            key_weighted_count,
            rid_sum,
        }
    }
}

fn matches(got: &JoinResult, want: &ExpectedResult) -> bool {
    got.matches == want.matches && got.s_key_sum == want.s_key_sum
}

impl Check {
    /// Check a completed query's recorded outcome; `Err` names the problem.
    /// Radix joins also hand back their per-machine report.
    fn verify(&self) -> Result<Option<Vec<MachineReport>>, String> {
        let missing = |what: &str| format!("completed {what} query recorded no outcome");
        match &self.kind {
            CheckKind::Join(job, want) => {
                let out = job.take_outcome().ok_or_else(|| missing("radix"))?;
                if !matches(&out.result, want) {
                    return Err(format!("radix join {:?}, expected {want:?}", out.result));
                }
                Ok(Some(out.machines))
            }
            CheckKind::SortMerge(job, want) => {
                let out = job.take_outcome().ok_or_else(|| missing("sort-merge"))?;
                if !matches(&out.result, want) {
                    return Err(format!("sort-merge {:?}, expected {want:?}", out.result));
                }
                Ok(None)
            }
            CheckKind::Aggregation(job, want) => {
                let out = job.take_outcome().ok_or_else(|| missing("aggregation"))?;
                let got = Fold {
                    groups: out.result.groups,
                    key_weighted_count: out.result.key_weighted_count,
                    rid_sum: out.result.rid_sum,
                };
                if got != *want {
                    return Err(format!("aggregation {got:?}, expected {want:?}"));
                }
                Ok(None)
            }
            CheckKind::Cyclo(job, want) => {
                let out = job.take_outcome().ok_or_else(|| missing("cyclo"))?;
                if !matches(&out.result, want) {
                    return Err(format!("cyclo-join {:?}, expected {want:?}", out.result));
                }
                Ok(None)
            }
        }
    }
}

fn prepare_join(
    seed: u64,
    skew: Skew,
    transport: Transport,
    tr: &mut Tracer,
    parent: usize,
) -> Prepared {
    let scale = Scale::new(JOIN_SCALE);
    let n = scale.tuples(JOIN_PAPER_MILLIONS);
    let g = tr.open("generate", Some(parent));
    let r = generate_inner::<Tuple16>(n, JOIN_MACHINES, data_seed(seed, 0, 0));
    let (s, oracle) = generate_outer::<Tuple16>(n, n, JOIN_MACHINES, skew, data_seed(seed, 0, 1));
    tr.close(g);
    let b = tr.open("build", Some(parent));
    let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(JOIN_MACHINES));
    cfg.probe_transport = transport;
    let cfg = scale.scale_config(cfg, 2 * JOIN_PAPER_MILLIONS);
    tr.close(b);
    Prepared::Join {
        cfg,
        r,
        s,
        oracle,
        paper_point: skew == Skew::None,
    }
}

fn spec(machines: usize, cores: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::qdr_cluster(machines);
    spec.cores_per_machine = cores;
    spec
}

/// Inputs of one service-mix query, before its job is built.
struct MixInputs {
    kind: usize,
    machines: usize,
    r: Option<Relation<Tuple16>>,
    s: Relation<Tuple16>,
    oracle: Option<ExpectedResult>,
}

/// The `service_stress` batch shape (`rsj_bench::service_stress`): the
/// operator rotates through all four kinds while machines, sizes and skew
/// come from the query's fixed shape stream; the tuples come from `seed`.
/// It is rebuilt here because the checks need every job handle, which
/// `StressBatch` keeps private, and because its seed also picks the mix.
fn mix_inputs(id: u64, seed: u64, hosts: usize) -> MixInputs {
    let rng = splitmix64(MIX_SHAPE_SEED ^ id.wrapping_mul(0xA5A5_5A5A_5A5A_A5A5));
    let machines = 2 + (rng % (hosts.min(5) as u64 - 1)) as usize;
    let inner = 1_000 + (splitmix64(rng) % 4) * 1_000;
    let outer = inner * (2 + splitmix64(rng ^ 1) % 3);
    let skew = match splitmix64(rng ^ 2) % 3 {
        0 => Skew::None,
        1 => Skew::Zipf(1.05),
        _ => Skew::Zipf(1.2),
    };
    let (rs, ss) = (data_seed(seed, id, 0), data_seed(seed, id, 1));
    let kind = id as usize % 4;
    let (r, s, oracle) = match kind {
        2 => (None, generate_outer(outer, 500, machines, skew, ss).0, None),
        _ => {
            let skew = if kind == 3 { Skew::None } else { skew };
            let r = generate_inner(inner, machines, rs);
            let (s, o) = generate_outer(outer, inner, machines, skew, ss);
            (Some(r), s, Some(o))
        }
    };
    MixInputs {
        kind,
        machines,
        r,
        s,
        oracle,
    }
}

fn prepare_mix(seed: u64, tr: &mut Tracer, parent: usize) -> Prepared {
    let (hosts, cores) = (10, 2);
    let g = tr.open("generate", Some(parent));
    let inputs: Vec<MixInputs> = (1..=SERVICE_QUERIES as u64)
        .map(|id| mix_inputs(id, seed, hosts))
        .collect();
    tr.close(g);
    let b = tr.open("build", Some(parent));
    let mut requests = Vec::with_capacity(inputs.len());
    let mut checks = Vec::with_capacity(inputs.len());
    for (i, q) in inputs.into_iter().enumerate() {
        let id = i as u32 + 1;
        let sp = spec(q.machines, cores);
        let tuples = q.s.total_tuples() + q.r.as_ref().map_or(0, |r| r.total_tuples());
        let (label, job, kind): (&str, Arc<dyn QueryJob>, CheckKind) = match (q.kind, q.r, q.oracle)
        {
            (0, Some(r), Some(o)) => {
                let mut cfg = DistJoinConfig::new(sp);
                cfg.radix_bits = (4, 2);
                cfg.rdma_buf_size = 1024;
                let job = DistJoinJob::new(cfg, r, q.s);
                ("radix", job.clone(), CheckKind::Join(job, o))
            }
            (1, Some(r), Some(o)) => {
                let mut cfg = SortMergeConfig::new(sp);
                cfg.radix_bits = 4;
                cfg.rdma_buf_size = 1024;
                let job = SortMergeJob::new(cfg, r, q.s);
                ("sortmerge", job.clone(), CheckKind::SortMerge(job, o))
            }
            (2, None, None) => {
                let fold = Fold::of(&q.s);
                let mut cfg = AggregationConfig::new(sp);
                cfg.radix_bits = 4;
                cfg.rdma_buf_size = 1024;
                let job = AggregationJob::new(cfg, q.s);
                (
                    "aggregation",
                    job.clone(),
                    CheckKind::Aggregation(job, fold),
                )
            }
            (3, Some(r), Some(o)) => {
                let job = CycloJoinJob::new(CycloJoinConfig::new(sp), r, q.s);
                ("cyclo", job.clone(), CheckKind::Cyclo(job, o))
            }
            _ => unreachable!("mix_inputs builds inputs per operator kind"),
        };
        requests.push(JoinRequest {
            label: format!("{label}-{id}"),
            id: Some(id),
            placement: None,
            job,
        });
        checks.push(Check { kind, tuples });
    }
    let mut cfg = ServiceConfig::qdr_rack(hosts, cores);
    cfg.max_concurrent = 4;
    tr.close(b);
    Prepared::Service {
        cfg,
        requests,
        checks,
        healing: false,
    }
}

/// The `chaos --soak` shape: small radix joins rotated over six hosts,
/// healing armed, hosts 0 and 5 fail-stopped at 0.2 ms and 1 ms.
fn prepare_heal(seed: u64, tr: &mut Tracer, parent: usize) -> Prepared {
    let hosts = 6;
    let g = tr.open("generate", Some(parent));
    let inputs: Vec<_> = (0..SERVICE_QUERIES as u64)
        .map(|q| {
            let m = 2 + (q as usize % 2);
            let r = generate_inner::<Tuple16>(2_000, m, data_seed(seed, q, 0));
            let (s, o) = generate_outer(6_000, 2_000, m, Skew::None, data_seed(seed, q, 1));
            (m, r, s, o)
        })
        .collect();
    tr.close(g);
    let b = tr.open("build", Some(parent));
    let mut requests = Vec::with_capacity(inputs.len());
    let mut checks = Vec::with_capacity(inputs.len());
    for (q, (m, r, s, o)) in inputs.into_iter().enumerate() {
        let tuples = r.total_tuples() + s.total_tuples();
        let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(m));
        cfg.cluster.cores_per_machine = 2;
        cfg.radix_bits = (4, 2);
        cfg.rdma_buf_size = 1024;
        let job = DistJoinJob::new(cfg, r, s);
        requests.push(JoinRequest {
            label: format!("soak-{q}"),
            id: None,
            placement: None,
            job: job.clone(),
        });
        checks.push(Check {
            kind: CheckKind::Join(job, o),
            tuples,
        });
    }
    let mut plan = FaultPlan::fault_free();
    plan.seed = 42;
    plan.crashes = vec![
        HostCrash {
            host: HostId(0),
            at: SimTime::from_nanos(200_000),
        },
        HostCrash {
            host: HostId(5),
            at: SimTime::from_nanos(1_000_000),
        },
    ];
    let mut cfg = ServiceConfig::qdr_rack(hosts, 2);
    cfg.max_concurrent = 4;
    cfg.fault_plan = Some(plan);
    cfg.healing = HealingConfig::armed();
    tr.close(b);
    Prepared::Service {
        cfg,
        requests,
        checks,
        healing: true,
    }
}

/// The four phases as back-to-back spans of query `query` from `start_ns`.
fn push_phases(virt: &mut Vec<VirtualSpan>, query: u32, start_ns: u64, p: &PhaseTimes) {
    let mut at = start_ns;
    for (name, d) in p.rows() {
        let end_ns = at + d.as_nanos();
        virt.push(VirtualSpan {
            query,
            name,
            start_ns: at,
            end_ns,
        });
        at = end_ns;
    }
}

fn phase_secs(p: &PhaseTimes) -> [f64; 4] {
    let rows = p.rows();
    [0, 1, 2, 3].map(|i| rows[i].1.as_secs_f64())
}

/// Per-machine rollups: (Σ tx bytes, max stall s, Σ fly registrations,
/// Σ busy s, max/mean busy).
fn machine_rollup(ms: &[MachineReport]) -> (u64, f64, u64, f64, f64) {
    let busy: f64 = ms.iter().map(|m| m.cpu_busy_seconds).sum();
    let max_busy = ms.iter().map(|m| m.cpu_busy_seconds).fold(0.0, f64::max);
    let mean = busy / ms.len().max(1) as f64;
    (
        ms.iter().map(|m| m.tx_bytes).sum(),
        ms.iter().map(|m| m.send_stall_seconds).fold(0.0, f64::max),
        ms.iter().map(|m| m.fly_registrations).sum(),
        busy,
        if mean > 0.0 { max_busy / mean } else { 0.0 },
    )
}

fn mix(digest: u64, x: u64) -> u64 {
    splitmix64(digest ^ x)
}

impl Executed {
    /// Check every output and fold the run into its deterministic record;
    /// with `spans`, also return the run's simulated-time spans.
    pub fn verify(self, spans: bool) -> (Verdict, Vec<VirtualSpan>) {
        let mut virt = Vec::new();
        let verdict = match self {
            Executed::Join {
                out,
                oracle,
                paper_point,
                tuples,
                transport,
                buf,
            } => {
                if let (true, Ok(out)) = (spans, &out) {
                    push_phases(&mut virt, 0, 0, &out.phases);
                }
                verify_join(out, oracle, paper_point, tuples, transport, buf)
            }
            Executed::Service {
                report,
                checks,
                healing,
            } => {
                if spans {
                    for q in &report.queries {
                        let admitted = q.admitted.as_nanos();
                        let id = q.id.0;
                        virt.push(VirtualSpan {
                            query: id,
                            name: "queue",
                            start_ns: 0,
                            end_ns: admitted,
                        });
                        virt.push(VirtualSpan {
                            query: id,
                            name: "execute",
                            start_ns: admitted,
                            end_ns: q.completed.as_nanos(),
                        });
                        push_phases(&mut virt, id, admitted, &q.phases);
                    }
                }
                verify_service(report, checks, healing)
            }
        };
        (verdict, virt)
    }
}

fn verify_join(
    out: Result<DistJoinOutcome, JoinError>,
    oracle: ExpectedResult,
    paper_point: bool,
    (nr, ns): (u64, u64),
    transport: Transport,
    buf: usize,
) -> Verdict {
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            return Verdict {
                attempted: 1,
                failed: 1,
                problem: Some(format!("join aborted: {e}")),
                exact: Exact::default(),
                work: Work::default(),
            }
        }
    };
    let ok = matches(&out.result, &oracle);
    let scale = JOIN_SCALE as f64;
    let total = out.phases.total().as_secs_f64();
    let virtual_s = total * scale;
    let spec = ClusterSpec::qdr_cluster(JOIN_MACHINES);
    let bytes = (JOIN_PAPER_MILLIONS * 1_000_000 * Tuple16::SIZE as u64) as f64;
    let model = predict(&ModelInput::from_cluster(&spec, bytes, bytes))
        .total()
        .as_secs_f64();
    let (tx, stall, fly, busy, imbalance) = machine_rollup(&out.machines);
    let fabric = spec
        .interconnect
        .fabric_config()
        .expect("the QDR cluster is networked");
    let capacity = JOIN_MACHINES as f64 * fabric.effective_bandwidth(JOIN_MACHINES) * total;
    let exact = Exact {
        virtual_s,
        latency_p50_ms: total * 1e3,
        latency_p95_ms: total * 1e3,
        phases: phase_secs(&out.phases).map(|s| s * scale),
        tx_bytes: tx,
        send_stall_s: stall * scale,
        fly_registrations: fly,
        fabric_utilization: tx as f64 / capacity,
        queue_wait_ms: [0.0, 0.0],
        cpu_busy_s: busy * scale,
        imbalance,
        model_error: (virtual_s - model).abs() / model,
        paper_error: if paper_point {
            (virtual_s - PAPER_QDR4_S).abs() / PAPER_QDR4_S
        } else {
            0.0
        },
        digest: mix(
            mix(out.result.matches, out.result.s_key_sum),
            out.materialized_bytes,
        ),
        ..Exact::default()
    };
    let (nr, ns) = (nr as f64, ns as f64);
    // Both planes scatter R and S 2^10 ways once (the one-sided plane
    // groups S by partition instead of shipping it) and build or probe
    // every tuple once. Only the two-sided plane sends S; the one-sided
    // plane's READ responses are also counted in tx bytes.
    let remote = (JOIN_MACHINES as f64 - 1.0) / JOIN_MACHINES as f64;
    let sent_bytes = match transport {
        Transport::TwoSided => tx as f64,
        Transport::OneSided => nr * remote * Tuple16::SIZE as f64,
    };
    let work = Work {
        partitioned: nr + ns,
        built_probed: nr + ns,
        sends: sent_bytes / buf as f64,
    };
    Verdict {
        attempted: 1,
        failed: u64::from(!ok),
        problem: (!ok).then(|| format!("join produced {:?}, expected {oracle:?}", out.result)),
        exact,
        work,
    }
}

fn verify_service(report: ServiceReport, checks: Vec<Check>, healing: bool) -> Verdict {
    let ms = |d: rsj_sim::SimDuration| d.as_secs_f64() * 1e3;
    let mut problem = None;
    let mut failed = 0u64;
    let mut digest = 0u64;
    let mut phases = [0.0; 4];
    let mut machines: Vec<MachineReport> = Vec::new();
    let mut imbalances = Vec::new();
    if report.queries.len() != checks.len() {
        problem = Some(format!(
            "{} of {} queries reported",
            report.queries.len(),
            checks.len()
        ));
    }
    for q in &report.queries {
        digest = mix(digest, q.id.0 as u64);
        digest = mix(digest, q.completed.as_nanos());
        digest = mix(digest, q.attempts as u64);
        for (acc, s) in phases.iter_mut().zip(phase_secs(&q.phases)) {
            *acc += s;
        }
        let Some(check) = (q.id.0 as usize).checked_sub(1).and_then(|i| checks.get(i)) else {
            problem.get_or_insert(format!("query id {} has no request", q.id.0));
            failed += 1;
            continue;
        };
        match &q.result {
            Ok(()) => match check.verify() {
                Ok(reports) => {
                    digest = mix(digest, 1);
                    if let Some(r) = reports {
                        imbalances.push(machine_rollup(&r).4);
                        machines.extend(r);
                    }
                }
                Err(e) => {
                    failed += 1;
                    problem.get_or_insert(format!("query {}: {e}", q.id.0));
                }
            },
            Err(e) => {
                failed += 1;
                digest = mix(digest, 2);
                if !(healing && q.rejected.is_some()) {
                    problem.get_or_insert(format!("query {} aborted: {e}", q.id.0));
                }
            }
        }
    }
    if healing && report.healed == 0 {
        problem.get_or_insert("the crash schedule healed no query".to_string());
    }
    let (tx, stall, fly, busy, _) = machine_rollup(&machines);
    let recovery_max = report
        .queries
        .iter()
        .filter_map(|q| q.recovery)
        .map(ms)
        .fold(0.0, f64::max);
    let detection = report
        .hosts
        .iter()
        .filter_map(|h| h.detection_latency)
        .map(ms)
        .fold(0.0, f64::max);
    let exact = Exact {
        virtual_s: report.makespan.as_secs_f64(),
        latency_p50_ms: ms(report.latency_p50),
        latency_p95_ms: ms(report.latency_p95),
        phases,
        tx_bytes: tx,
        send_stall_s: stall,
        fly_registrations: fly,
        fabric_utilization: report.fabric_utilization,
        queue_wait_ms: [ms(report.queue_wait_p50), ms(report.queue_wait_p95)],
        cpu_busy_s: busy,
        imbalance: imbalances.iter().sum::<f64>() / imbalances.len().max(1) as f64,
        retries: report.retries as u64,
        healed: report.healed as u64,
        rejected: report.rejected as u64,
        detection_ms: detection,
        recovery_max_ms: recovery_max,
        model_error: 0.0,
        paper_error: 0.0,
        digest,
    };
    Verdict {
        attempted: checks.len() as u64,
        failed,
        problem,
        exact,
        work: Work::default(),
    }
}
