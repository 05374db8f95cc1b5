//! Canonical phase names for distributed operator runs.
//!
//! Phase names are barrier keys: under a query service every named
//! barrier is namespaced by `(QueryId, phase)` — structurally, because
//! each query owns a private [`crate::Runtime`] whose barriers no other
//! query can reach, and in the bookkeeping, because every recorded
//! [`crate::PhaseEvent`] carries its query id. Operators outside
//! `crates/cluster` must use these constants (or their own module-level
//! constants) instead of raw string literals at `try_sync_named` call sites,
//! so two operators can never collide on an ad-hoc barrier name across
//! concurrent queries; the workspace lint `barrier-name` enforces this.

/// Histogram computation (paper phase 1).
pub const HISTOGRAM: &str = "histogram";
/// Network partitioning — the all-to-all exchange (paper phase 2).
pub const NETWORK_PARTITION: &str = "network_partition";
/// Machine-local partitioning passes (paper phase 3).
pub const LOCAL_PARTITION: &str = "local_partition";
/// Build and probe of the hash tables (paper phase 4).
pub const BUILD_PROBE: &str = "build_probe";
/// One-sided probe: RDMA READs of published remote bucket tables — the
/// alternative to [`BUILD_PROBE`] when the join runs with
/// `Transport::OneSided` (DESIGN.md §11). Folded into the `build_probe`
/// slot of the phase breakdown so reports stay four-phase.
pub const ONE_SIDED_PROBE: &str = "one_sided_probe";
/// Not a barrier: the phase label stamped onto errors synthesized by the
/// query service *before* a query's workers exist — a typed `Rejected`
/// outcome under the degraded-admission policy (DESIGN.md §13). Listed
/// last so it never participates in the canonical barrier order.
pub const ADMISSION: &str = "admission";
