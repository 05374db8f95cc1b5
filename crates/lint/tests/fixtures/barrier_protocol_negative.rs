// Fixture: barrier-protocol negative — the canonical four-phase worker.
// Every barrier is unconditional, in declaration order, and the only
// early exit is an Err return (which aborts the query and poisons its
// barriers, so skipping the rest is the designed behavior). Linted as
// crates/core/src/phases/bp_neg.rs.

pub fn worker(rt: &Runtime, ctx: &SimCtx, m: usize, bad: bool) -> Result<(), JoinError> {
    rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;
    rt.try_sync_named(ctx, phase::NETWORK_PARTITION, m)?;
    rt.try_sync_named(ctx, phase::LOCAL_PARTITION, m)?;
    if bad {
        return Err(JoinError::aborted(m));
    }
    rt.try_sync_named(ctx, phase::BUILD_PROBE, m)?;
    Ok(())
}
