//! The hang watchdog, on both run surfaces: a direct run
//! ([`rsj_cluster::run_direct`]) and a query admitted into a
//! [`QueryService`]. One machine's worker parks forever before a named
//! barrier; with a fault plan armed, the run must end in
//! [`JoinError::BarrierTimeout`] naming that machine and phase instead of
//! hanging the simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rsj_cluster::{
    phase, run_direct, ClusterRun, JoinError, JoinRequest, QueryJob, QueryService, Runtime,
    ServiceConfig,
};
use rsj_rdma::{FabricConfig, FaultPlan, HostId, NicCosts, QueryId};
use rsj_sim::{SimCtx, SimSemaphore};

/// A one-core-per-machine job whose workers meet at the histogram
/// barrier. The `stuck` machine first waits on a semaphore that is never
/// released, so it stops making progress; the runtime's abort poisons
/// the semaphore, which is the only way that worker ever wakes.
struct StallJob {
    machines: usize,
    stuck: Option<usize>,
    gate: Mutex<Option<Arc<SimSemaphore>>>,
    finished: AtomicU64,
}

impl StallJob {
    fn new(machines: usize, stuck: Option<usize>) -> Arc<StallJob> {
        Arc::new(StallJob {
            machines,
            stuck,
            gate: Mutex::new(None),
            finished: AtomicU64::new(0),
        })
    }
}

impl QueryJob for StallJob {
    fn machines(&self) -> usize {
        self.machines
    }

    fn cores(&self) -> usize {
        1
    }

    fn attach(&self, rt: &Arc<Runtime>) {
        let gate = SimSemaphore::new(0);
        rt.register_semaphore(Arc::clone(&gate));
        *self.gate.lock() = Some(gate);
    }

    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        mach: usize,
        _core: usize,
    ) -> Result<(), JoinError> {
        if self.stuck == Some(mach) {
            let gate = Arc::clone(self.gate.lock().as_ref().expect("job attached"));
            gate.acquire_checked(ctx)
                .map_err(|_| JoinError::aborted(phase::HISTOGRAM))?;
        }
        rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;
        Ok(())
    }

    fn finish(&self, _rt: &Runtime, _run: &ClusterRun) {
        self.finished.fetch_add(1, Ordering::Relaxed);
    }
}

fn assert_times_out(err: &JoinError, query: QueryId, straggler: usize) {
    match err {
        JoinError::BarrierTimeout {
            query: q,
            phase: p,
            stragglers,
        } => {
            assert_eq!(*q, query);
            assert_eq!(*p, phase::HISTOGRAM);
            assert_eq!(stragglers, &vec![straggler]);
        }
        other => panic!("expected a barrier timeout, got {other:?}"),
    }
}

#[test]
fn direct_run_times_out_naming_the_straggler() {
    let job = StallJob::new(3, Some(1));
    let Err(err) = run_direct(
        &job,
        FabricConfig::qdr(),
        NicCosts::default(),
        Some(FaultPlan::fault_free()),
        None,
    ) else {
        panic!("a stuck machine cannot complete");
    };
    assert_times_out(&err, QueryId::DIRECT, 1);
    assert_eq!(job.finished.load(Ordering::Relaxed), 0);

    // The same job without the stuck machine completes on the same path.
    let healthy = StallJob::new(3, None);
    let run = run_direct(
        &healthy,
        FabricConfig::qdr(),
        NicCosts::default(),
        Some(FaultPlan::fault_free()),
        None,
    )
    .expect("no machine is stuck");
    assert_eq!(run.marks.len(), 2);
    assert_eq!(healthy.finished.load(Ordering::Relaxed), 1);
}

#[test]
fn service_query_times_out_alone() {
    let mut cfg = ServiceConfig::qdr_rack(4, 1);
    cfg.max_concurrent = 2;
    cfg.fault_plan = Some(FaultPlan::fault_free());
    let stuck = StallJob::new(2, Some(0));
    let neighbour = StallJob::new(2, None);
    let requests = vec![
        JoinRequest {
            label: "stuck".into(),
            id: Some(1),
            placement: Some(vec![HostId(0), HostId(1)]),
            job: Arc::clone(&stuck) as Arc<dyn QueryJob>,
        },
        JoinRequest {
            label: "neighbour".into(),
            id: Some(2),
            placement: Some(vec![HostId(2), HostId(3)]),
            job: Arc::clone(&neighbour) as Arc<dyn QueryJob>,
        },
    ];
    let report = QueryService::run(&cfg, requests);
    assert_eq!(report.aborted, 1);
    let err = report.queries[0]
        .result
        .as_ref()
        .expect_err("the stuck query cannot complete");
    assert_times_out(err, QueryId(1), 0);
    assert_eq!(stuck.finished.load(Ordering::Relaxed), 0);
    // The neighbouring query ran concurrently and completed.
    assert!(report.queries[1].result.is_ok());
    assert_eq!(report.queries[1].admitted, report.queries[0].admitted);
    assert_eq!(neighbour.finished.load(Ordering::Relaxed), 1);
}
