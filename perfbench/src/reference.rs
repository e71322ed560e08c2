//! The reference kernel: a fixed piece of simulator-like work whose CPU
//! time says how fast the host runs such code at the moment.
//!
//! On a shared host the CPU time a pass takes moves with other guests'
//! load: the per-event CPU cost of one `claims-quick` seed rose by half
//! within minutes while nothing in the benchmark changed. The benchmark
//! therefore times this kernel next to every pass and set-up, and scales
//! their CPU times by [`NOMINAL_S`] over the kernel's time. The kernel is
//! the benchmark's own code, so no change to the program moves it.
//!
//! It replays a fixed address trace through an 8-way LRU tag array of
//! 4 MiB, on two threads at once (one per CPU of the 2-CPU host, like the
//! workloads' two compute threads). Of the kernels tried (cache-resident
//! arithmetic, dependent random reads over 8 MiB, a 256 KiB tag array,
//! independent reads over 1 MiB, and this one), it followed the
//! workloads' CPU cost most closely as the host sped up and slowed down.

use std::sync::OnceLock;

use crate::thread_cpu_s;

/// The kernel's CPU time that scaled seconds are expressed at: on a host
/// where [`sample`] reads this, a scaled second is a CPU second.
pub const NOMINAL_S: f64 = 0.1;

/// Addresses in the trace.
const TRACE_LEN: usize = 1 << 21;

/// Tag array entries per thread (4 MiB of `u32`).
const TAGS: usize = 1 << 20;

const WAYS: usize = 8;

/// The trace: runs of sequential 4- to 64-byte steps, with a jump to a
/// random address in 64 MiB on one step in sixteen.
fn trace() -> &'static [u32] {
    static TRACE: OnceLock<Vec<u32>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut x = 12345u64;
        let mut pc = 0u32;
        (0..TRACE_LEN)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 60 == 0 {
                    pc = (x >> 20) as u32 & 0x3FF_FFFF;
                } else {
                    pc = pc.wrapping_add(4 + ((x >> 40) as u32 & 0x3C));
                }
                pc
            })
            .collect()
    })
}

/// Replays `trace` through a cold tag array; returns the misses.
fn replay(trace: &[u32]) -> u64 {
    let mut tags = vec![u32::MAX; TAGS];
    let sets = TAGS / WAYS;
    let mut misses = 0;
    for &addr in trace {
        let line = addr >> 6;
        let set = (line as usize).wrapping_mul(0x9E37) % sets;
        let row = &mut tags[set * WAYS..(set + 1) * WAYS];
        match row.iter().position(|&t| t == line) {
            Some(0) => {}
            Some(w) => row[..=w].rotate_right(1),
            None => {
                misses += 1;
                row.rotate_right(1);
                row[0] = line;
            }
        }
    }
    misses
}

/// Runs the kernel on two threads at once and returns the CPU seconds
/// the two took together.
pub fn sample() -> f64 {
    let trace = trace();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let t = thread_cpu_s();
                    std::hint::black_box(replay(std::hint::black_box(trace)));
                    thread_cpu_s() - t
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("reference kernel thread"))
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work() {
        // The miss count pins the work: a change to the trace or the tag
        // array would change what a scaled second means.
        assert_eq!(replay(trace()), 705_876);
        assert!(sample() > 0.0);
    }
}
