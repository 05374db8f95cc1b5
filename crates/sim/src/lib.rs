//! # rsj-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the rack-scale join reproduction: a virtual clock and a
//! cooperative scheduler that runs *real Rust code* on *simulated time*.
//!
//! Each simulated thread is a stackful coroutine with a stack of its own,
//! and all of one simulation's threads run on the OS thread that calls
//! [`Simulation::run`], so exactly one runs at any instant; threads hand
//! control to one another at *yield points* ([`SimCtx::advance`],
//! [`SimCtx::park`]) with a user-space stack switch. Virtual time jumps
//! from event to event, so a run is deterministic regardless of host
//! speed or core count — which is what lets a 1-core container reproduce the
//! timing behaviour of a 10-node InfiniBand cluster (see `DESIGN.md` §1).
//! Supported hosts: x86_64 Linux (the stack switch is x86_64 System V
//! assembly).
//!
//! ## Example
//!
//! ```
//! use rsj_sim::{Simulation, SimDuration, SimBarrier};
//! use std::sync::Arc;
//!
//! let sim = Simulation::new();
//! let barrier = SimBarrier::new(2);
//! for (name, work_ms) in [("fast", 1u64), ("slow", 9)] {
//!     let barrier = Arc::clone(&barrier);
//!     sim.spawn(name, move |ctx| {
//!         ctx.advance(SimDuration::from_millis(work_ms));
//!         barrier.wait(ctx);
//!         // Both threads leave the barrier at t = 9 ms.
//!         assert_eq!(ctx.now().as_nanos(), 9_000_000);
//!     });
//! }
//! assert_eq!(sim.run().as_nanos(), 9_000_000);
//! ```

#[allow(unsafe_code)]
mod coroutine;
mod kernel;
mod sync;
mod time;

pub use kernel::{Dispatch, SimCtx, Simulation, TaskId};
pub use sync::{Poisoned, SimBarrier, SimChannel, SimEvent, SimSemaphore};
pub use time::{SimDuration, SimTime};
