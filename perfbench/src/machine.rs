//! The machine a result was measured on, and its measured ceilings.
//!
//! The two probes give absolute rates to read kernel throughput against:
//! fused multiply-add throughput on every thread, and streaming copy
//! bandwidth through a buffer larger than the last-level cache.

use crate::stats::median;
use crate::BenchError;
use std::hint::black_box;
use std::time::Instant;

/// Host facts recorded with every result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Available parallelism.
    pub nproc: usize,
    /// Whether AVX2 is detected (selects the kernels' AVX2 arm).
    pub avx2: bool,
    /// Whether FMA is detected.
    pub fma: bool,
}

impl Machine {
    /// Detects the host.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        Machine { nproc, avx2, fma }
    }

    /// The arm the GEMM and LUT-gather kernels dispatch to.
    pub fn kernel_arm(&self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "portable"
        }
    }
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
///
/// # Errors
///
/// Fails when the status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError("no VmHWM line in /proc/self/status".to_string()))
}

const LANES: usize = 64;

fn fma_block_portable(acc: &mut [f32; LANES], rounds: usize) {
    for _ in 0..rounds {
        for value in acc.iter_mut() {
            *value = *value * 0.999_9 + 0.000_1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_block_avx2(acc: &mut [f32; LANES], rounds: usize) {
    for _ in 0..rounds {
        for value in acc.iter_mut() {
            *value = value.mul_add(0.999_9, 0.000_1);
        }
    }
}

fn fma_block(machine: &Machine, acc: &mut [f32; LANES], rounds: usize) {
    #[cfg(target_arch = "x86_64")]
    if machine.avx2 && machine.fma {
        // SAFETY: the AVX2 and FMA features were detected at run time.
        unsafe { fma_block_avx2(acc, rounds) };
        return;
    }
    let _ = machine;
    fma_block_portable(acc, rounds);
}

/// Multiply-add throughput of all threads together, in GFLOP/s (two
/// floating-point operations per multiply-add); the median of five trials.
pub fn fma_gflops(machine: &Machine, rounds: usize) -> f64 {
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..machine.nproc {
                    scope.spawn(|| {
                        let mut acc = [1.0f32; LANES];
                        fma_block(machine, &mut acc, rounds);
                        black_box(acc);
                    });
                }
            });
            let flops = 2.0 * (LANES * rounds * machine.nproc) as f64;
            flops / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&trials)
}

/// Streaming copy bandwidth of all threads together, in GB/s (bytes read
/// plus bytes written); the median of five trials over `bytes`-sized
/// buffers.
pub fn copy_gbps(machine: &Machine, bytes: usize) -> f64 {
    let words = bytes / 8;
    let source: Vec<u64> = (0..words as u64).collect();
    let mut target = vec![0u64; words];
    let chunk = words.div_ceil(machine.nproc);
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for (from, to) in source.chunks(chunk).zip(target.chunks_mut(chunk)) {
                    scope.spawn(move || to.copy_from_slice(black_box(from)));
                }
            });
            black_box(&target);
            2.0 * (words * 8) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&trials)
}
