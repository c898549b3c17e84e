//! A minimal, dependency-free stand-in for the parts of the `criterion`
//! benchmarking crate this workspace uses.
//!
//! Supports [`Criterion`] with `sample_size` / `measurement_time` /
//! `warm_up_time` configuration, [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Instead of criterion's statistical analysis
//! it prints the mean and best wall-clock time per iteration — enough to
//! attribute time to a kernel while keeping the workspace free of network
//! dependencies.
//!
//! # Example
//!
//! ```
//! use criterion::Criterion;
//!
//! let mut c = Criterion::default().sample_size(10);
//! c.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
//! ```

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Entry point configuring and running benchmarks, mirroring
/// `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Set how many timed samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Set the time budget for the measurement phase.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Set the time budget for the warm-up phase.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Run one benchmark under `id`.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(self, &id.to_string(), f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A group of benchmarks sharing a name prefix, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_bench(self.criterion, &full, f);
        self
    }

    /// Finish the group (kept for API parity; reporting is per-benchmark).
    pub fn finish(self) {}
}

/// Batch-size hint for [`Bencher::iter_batched`]; the shim treats all
/// variants identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup call per iteration.
    PerIteration,
}

/// Times the closure under measurement, mirroring `criterion::Bencher`.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over the configured number of iterations.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` on fresh inputs from `setup`, excluding setup cost.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_bench<F>(config: &Criterion, id: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Warm-up: run single iterations until the warm-up budget is spent.
    let warm_start = Instant::now();
    while warm_start.elapsed() < config.warm_up_time {
        let mut b = Bencher {
            iterations: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
    }

    // Measurement: take `sample_size` samples of one iteration each, or
    // stop early once the measurement budget is exhausted.
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut samples = 0u64;
    let measure_start = Instant::now();
    for _ in 0..config.sample_size {
        let mut b = Bencher {
            iterations: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        best = best.min(b.elapsed);
        total += b.elapsed;
        samples += 1;
        if measure_start.elapsed() > config.measurement_time {
            break;
        }
    }
    let mean = total / samples.max(1) as u32;
    println!("bench {id:<50} mean {mean:>12?}  best {best:>12?}  ({samples} samples)");
}

/// Re-export of `std::hint::black_box`, mirroring `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Define a benchmark group function from a config expression and target
/// functions, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        /// Run every benchmark in this group.
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define `main` running the given benchmark groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_times() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut ran = 0u64;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn groups_prefix_ids() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        let mut g = c.benchmark_group("grp");
        g.bench_function("inner", |b| {
            b.iter_batched(|| vec![1u8, 2, 3], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }
}
