//! Stackful coroutines: the task stacks and the context switch the kernel
//! runs its simulated threads on.
//!
//! Every task of a simulation runs on its own [`Stack`] but on the one OS
//! thread that called `Simulation::run`. Handing the run token to another
//! task is [`switch`]: save the callee-saved registers on the current
//! stack, load the target's stack pointer, pop its registers, return into
//! it. No futex, no OS scheduler, no system call.
//!
//! This is the only module of the crate that contains `unsafe` code, and
//! its safe interface cannot cause undefined behaviour:
//! - a suspended context exists only as a [`Coroutine`], which is neither
//!   `Clone` nor `Copy` and is consumed by [`switch`], so it is resumed at
//!   most once;
//! - a [`Coroutine`] owns the stack its frames live on, and dropping it
//!   leaks that stack rather than unmapping it; a stack comes back as a
//!   [`Stack`] (free to reuse or unmap) only through [`Left::Finished`],
//!   after its coroutine has switched away for the last time;
//! - a [`Coroutine`] that has run is resumed only on the OS thread it ran
//!   on (checked), and one that has not is `Send` because its closure is.

use std::cell::Cell;
use std::ffi::c_void;
use std::mem::ManuallyDrop;
use std::ptr::{self, NonNull};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "rsj-sim switches task stacks with an x86_64 System V routine and maps them with Linux \
     mmap flags; only x86_64 Linux is supported"
);

/// Usable bytes per task stack (the OS-thread stack size the kernel used
/// before tasks became coroutines).
const STACK_BYTES: usize = 512 * 1024;
/// One `PROT_NONE` page below the stack: an overflow faults instead of
/// writing into the neighbouring mapping.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

// The libc std already links against.
unsafe extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

thread_local! {
    /// The stack of the context running on this thread, as a [`Word`]
    /// (0: the thread's own stack). Its address identifies the thread.
    static RUNNING: Cell<Word> = const { Cell::new(0) };
}

/// An owned stack, or none for an OS thread's own stack, in one machine
/// word: the mapping's base address (page-aligned, so bit 0 is free) with
/// bit 0 set when the context on it has finished. This is how a switch
/// hands the switching context's stack over to the resumed side.
type Word = usize;
const FINISHED: Word = 1;

/// A task stack: an anonymous mapping of [`STACK_BYTES`] above a guard
/// page. Pages are committed on first touch, so a reused stack costs no
/// system call and a fresh one only the pages its task uses. A `Stack`
/// value never has a live context on it.
pub(crate) struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a `Stack` is exclusively owned memory with no context running
// on it and no thread affinity; its only field is the mapping's address.
unsafe impl Send for Stack {}

impl Stack {
    const MAPPED: usize = GUARD_BYTES + STACK_BYTES;

    /// Map a fresh stack.
    pub(crate) fn new() -> Stack {
        // SAFETY: a private anonymous mapping without an address hint
        // creates new memory and touches no existing mapping.
        let p = unsafe {
            mmap(
                ptr::null_mut(),
                Self::MAPPED,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            p != MAP_FAILED,
            "mapping a task stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `p` is the page-aligned start of the mapping just made,
        // and the guard page lies inside it.
        let rc = unsafe { mprotect(p, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "protecting a task stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack {
            base: NonNull::new(p.cast()).expect("mmap returned a null mapping"),
        }
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().wrapping_add(Self::MAPPED)
    }

    /// Give up ownership as a [`Word`] (without unmapping).
    fn into_word(self) -> Word {
        ManuallyDrop::new(self).base.as_ptr() as Word
    }

    /// Take back ownership of the stack a [`Word`] names, if any.
    fn from_word(word: Word) -> Option<Stack> {
        NonNull::new((word & !FINISHED) as *mut u8).map(|base| Stack { base })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of `MAPPED` bytes made
        // by `Stack::new`, and no context lives on a `Stack` value.
        let rc = unsafe { munmap(self.base.as_ptr().cast(), Self::MAPPED) };
        debug_assert_eq!(rc, 0, "munmap of a task stack failed");
    }
}

/// A suspended execution context: the stack pointer [`switch`] saved (or
/// [`start`] prepared), with the six callee-saved registers and the resume
/// address stored just above it, and the stack that memory lies on.
pub(crate) struct Coroutine {
    sp: NonNull<u8>,
    /// The coroutine's stack, or none for an OS thread's own stack.
    /// Never unmapped from here: dropping a suspended coroutine leaks it.
    stack: ManuallyDrop<Option<Stack>>,
    /// The `RUNNING` address of the thread it ran on; 0 if it never ran.
    thread: usize,
}

// SAFETY: `sp` and `stack` are owned, and `switch` refuses to resume a
// coroutine that has run on any thread but its own; a coroutine that has
// not run holds only its `Send` closure.
unsafe impl Send for Coroutine {}

/// What the context that switched to the caller left behind.
pub(crate) enum Left {
    /// It suspended, and resumes from here.
    Suspended(Coroutine),
    /// It finished; its stack is free.
    Finished(Stack),
}

impl Left {
    fn new(sp: *mut u8, word: Word) -> Left {
        let stack = Stack::from_word(word);
        if word & FINISHED != 0 {
            return Left::Finished(stack.expect("only a coroutine with a stack finishes"));
        }
        Left::Suspended(Coroutine {
            sp: NonNull::new(sp).expect("a saved stack pointer is not null"),
            stack: ManuallyDrop::new(stack),
            thread: RUNNING.with(|r| ptr::from_ref(r) as usize),
        })
    }
}

/// Prepare a coroutine on `stack` that, when first switched to, calls `f`
/// with what the switching context left. `f` returns the coroutine to
/// switch to when it is done; that switch happens after `f` and everything
/// it owned were dropped, and hands `stack` over as [`Left::Finished`].
pub(crate) fn start<F>(stack: Stack, f: F) -> Coroutine
where
    F: FnOnce(Left) -> Coroutine + Send + 'static,
{
    let arg = Box::into_raw(Box::new(f));
    let entry: extern "C" fn(*mut F, *mut u8, Word) -> ! = coroutine_main::<F>;
    let resume: unsafe extern "C" fn() -> ! = trampoline;
    // The initial frame, from the saved stack pointer up, in `switch`'s
    // pop order. After the pops and the `ret` into `trampoline`, rsp is
    // `top - 16`: 16-aligned, as the System V ABI requires at a `call`.
    // The two words above it stay zero, so a return-address walk that
    // ignores the trampoline's CFI still stops at a null address.
    let frame: [usize; 9] = [
        0,               // r15
        0,               // r14
        entry as usize,  // r13: the entry `trampoline` calls
        arg as usize,    // r12: its closure
        0,               // rbx
        0,               // rbp: a null frame pointer ends frame walks
        resume as usize, // return address of the first `switch`
        0,               // end-of-stack marker
        0,               // padding to the top
    ];
    let sp = stack
        .top()
        .wrapping_sub(size_of_val(&frame))
        .cast::<usize>();
    // SAFETY: the nine words lie at the top of the stack's writable
    // range, `sp` is 8-aligned, and no context lives on a `Stack` value.
    unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len()) };
    Coroutine {
        sp: NonNull::new(sp.cast()).expect("stack top is not null"),
        stack: ManuallyDrop::new(Some(stack)),
        thread: 0,
    }
}

/// Suspend the current context and resume `to`. Returns when another
/// context switches back to this one, with what that context left.
pub(crate) fn switch(to: Coroutine) -> Left {
    transfer(to, false)
}

/// Resume `to`, handing it this context either as a suspended
/// [`Coroutine`] or, when `finished`, as its free stack.
fn transfer(to: Coroutine, finished: bool) -> Left {
    let Coroutine { sp, stack, thread } = to;
    let target = ManuallyDrop::into_inner(stack).map_or(0, Stack::into_word);
    let mine = RUNNING.with(|r| {
        assert!(
            thread == 0 || thread == ptr::from_ref(r) as usize,
            "a coroutine was resumed on a thread other than the one it ran on"
        );
        r.replace(target)
    });
    // SAFETY: `sp` is a context `switch` saved or `start` prepared, owned
    // by `to` and so resumed once; its stack is mapped (a coroutine never
    // unmaps its stack, which `RUNNING` now owns) or is this thread's own
    // (the thread check above); `switch_stacks` preserves every
    // callee-saved register of this context until it is resumed.
    let back = unsafe { switch_stacks(sp.as_ptr(), mine | Word::from(finished)) };
    Left::new(back.sp, back.word)
}

/// The first function on a coroutine's stack, called by `trampoline`.
/// `extern "C"`: a panic cannot unwind out of it (it aborts the process),
/// so no unwind ever crosses the trampoline.
extern "C" fn coroutine_main<F>(arg: *mut F, from_sp: *mut u8, from_word: Word) -> !
where
    F: FnOnce(Left) -> Coroutine,
{
    // SAFETY: `arg` is the `Box::into_raw` pointer `start` stored for this
    // coroutine, whose frame runs once.
    let f = unsafe { Box::from_raw(arg) };
    let next = f(Left::new(from_sp, from_word));
    transfer(next, true);
    unreachable!("a finished coroutine was resumed")
}

/// What `switch_stacks` returns in rax:rdx: the switching context's saved
/// stack pointer and its [`Word`].
#[repr(C)]
struct Back {
    sp: *mut u8,
    word: Word,
}

/// Entry of a fresh context, reached by `switch_stacks`' `ret`: passes the
/// closure (r12) and the switching context (rax, rdx) to the monomorphized
/// `coroutine_main` (r13). Its CFI marks the return address undefined, so
/// unwinders and backtraces end here.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "mov rsi, rax",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// x86_64 System V context switch: push the callee-saved registers, load
/// `to` (rdi), pop its registers and return into it with this context's
/// stack pointer in rax and `word` (rsi) in rdx.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(to: *mut u8, word: Word) -> Back {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov rax, rsp",
        "mov rsp, rdi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdx, rsi",
        "ret",
    )
}
