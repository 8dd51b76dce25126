//! Moving the benchmark's one thread to the next CPU it may use before
//! every pass.
//!
//! On a shared virtual machine one vCPU can run much slower than
//! another for minutes at a time, while a neighbour keeps its host core
//! busy, and the kernel leaves a busy thread where it is. A run that
//! starts on the slow vCPU would then see only slow samples. Rotating
//! the thread over the allowed CPUs gives every item samples on each of
//! them, so its best time (see `run::item_best`) does not depend on
//! where the run happened to start.

/// The CPUs the process may run on, in order, and the next one to use.
pub struct CpuRotation {
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// The rotation over the calling thread's current affinity mask.
    /// Empty (every [`CpuRotation::advance`] a no-op) where the mask
    /// cannot be read.
    pub fn new() -> CpuRotation {
        CpuRotation {
            cpus: sys::allowed(),
            next: 0,
        }
    }

    /// Pins the calling thread to the next CPU in the rotation. A failed
    /// pin leaves the thread where it was.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        sys::pin(self.cpus[self.next]);
        self.next = (self.next + 1) % self.cpus.len();
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        CpuRotation::new()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` words: 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread. A nonzero return changes nothing.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}
