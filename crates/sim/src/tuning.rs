//! Process-level allocator tuning for bulk simulation workloads.
//!
//! Large-`n` engine runs allocate and free multi-gigabyte waves of queue
//! memory each step. Under glibc's default malloc tunables, those waves
//! are serviced by `mmap`/`munmap` and aggressive heap trimming, so the
//! process spends most of its time in kernel page-fault handling rather
//! than simulating (measured: >50% sys time at `n ≥ 4096`). Raising the
//! mmap and trim thresholds keeps the burst memory on the heap across
//! steps, trading peak RSS for a several-fold throughput gain.
//!
//! Allocator behaviour is invisible to the determinism contract: runs
//! compute bit-identical outcomes with or without tuning.

/// glibc `mallopt` parameter: heap trim threshold (`M_TRIM_THRESHOLD`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_TRIM_THRESHOLD: i32 = -1;
/// glibc `mallopt` parameter: mmap threshold (`M_MMAP_THRESHOLD`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

/// Tunes the process allocator for bursty, multi-gigabyte simulation
/// workloads: raises the glibc mmap and trim thresholds to 1 GiB so
/// per-step queue memory is recycled on the heap instead of being
/// returned to (and re-faulted from) the kernel every step.
///
/// Call once at process start, before the first large run — benchmark
/// binaries do this by default. Returns `true` if the tuning was applied;
/// on non-glibc targets this is a no-op returning `false`. Never affects
/// simulation results, only how fast they are produced.
#[allow(unsafe_code, reason = "D5: the crate's one FFI call, SAFETY below")]
pub fn tune_allocator_for_bulk() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // Bind the two glibc tunables directly; this avoids a `libc`
        // crate dependency for two constants and one call.
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const ONE_GIB: i32 = 1 << 30;
        // SAFETY: `mallopt` is async-signal-unsafe but thread-safe; it
        // only adjusts allocator tunables and is called with documented
        // glibc parameter constants.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, ONE_GIB) == 1 && mallopt(M_TRIM_THRESHOLD, ONE_GIB) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_is_idempotent_and_reports_support() {
        let first = tune_allocator_for_bulk();
        let second = tune_allocator_for_bulk();
        // Whatever the platform answers, it must answer consistently.
        assert_eq!(first, second);
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        assert!(first);
    }
}
