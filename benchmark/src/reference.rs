//! The host-speed reference: a fixed piece of work that uses no code of
//! the repository, timed between repetitions so host metrics can be read
//! at one fixed host speed.
//!
//! The shared virtual machines the benchmark runs on change speed by up
//! to a third over minutes, in user and system time alike, which no
//! median over one run removes. The reference does the two kinds of work
//! that dominate a repetition, with the standard library only: a ring of
//! threads handing a token on with `park`/`unpark` (the mechanism of the
//! sim kernel's handoff) and a 2^10-way scatter of a few MiB (the memory
//! pattern of the partitioning kernels). A change to the program cannot
//! make it faster or slower; a slower host does.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::Thread;
use std::time::Instant;

/// Threads of the handoff ring.
const RING_THREADS: usize = 8;
/// Token handoffs around the ring.
const RING_HANDOFFS: usize = 20_000;
/// Values of the scatter.
const SCATTER_VALUES: usize = 1 << 20;
/// Fan-out of the scatter.
const SCATTER_WAYS: usize = 1 << 10;

/// Reference seconds on the 2-CPU machine the benchmark was tuned on.
/// Normalized host seconds read as seconds on a host of that speed.
pub const NOMINAL_S: f64 = 0.075;

/// Host seconds of one reference pass.
pub fn measure() -> f64 {
    let start = Instant::now();
    ring();
    scatter();
    start.elapsed().as_secs_f64()
}

/// One ring member: its wake-up flag and its thread.
#[derive(Default)]
struct Slot {
    ready: AtomicBool,
    thread: OnceLock<Thread>,
}

fn ring() {
    let slots: Arc<Vec<Slot>> = Arc::new((0..RING_THREADS).map(|_| Slot::default()).collect());
    let started = Arc::new(Barrier::new(RING_THREADS + 1));
    let members: Vec<_> = (0..RING_THREADS)
        .map(|i| {
            let (slots, started) = (Arc::clone(&slots), Arc::clone(&started));
            std::thread::spawn(move || {
                let _ = slots[i].thread.set(std::thread::current());
                started.wait();
                let next = &slots[(i + 1) % RING_THREADS];
                let next_thread = next.thread.get().expect("set before the barrier");
                for _ in 0..RING_HANDOFFS / RING_THREADS {
                    while !slots[i].ready.swap(false, Ordering::Acquire) {
                        std::thread::park();
                    }
                    next.ready.store(true, Ordering::Release);
                    next_thread.unpark();
                }
            })
        })
        .collect();
    started.wait();
    slots[0].ready.store(true, Ordering::Release);
    members[0].thread().unpark();
    for m in members {
        m.join().expect("ring member panicked");
    }
}

fn scatter() {
    let values: Vec<u64> = (0..SCATTER_VALUES as u64)
        .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let part = |x: u64| (x >> 54) as usize % SCATTER_WAYS;
    let mut next = vec![0usize; SCATTER_WAYS];
    for &x in &values {
        next[part(x)] += 1;
    }
    let mut sum = 0;
    for n in next.iter_mut() {
        (*n, sum) = (sum, sum + *n);
    }
    let mut out = vec![0u64; SCATTER_VALUES];
    for &x in &values {
        let p = part(x);
        out[next[p]] = x;
        next[p] += 1;
    }
    black_box(&out);
}
