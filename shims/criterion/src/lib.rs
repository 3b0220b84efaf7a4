//! Offline shim for the `criterion` crate.
//!
//! A minimal timing harness exposing the API the workspace's benches use:
//! `criterion_group!`/`criterion_main!`, [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`] with throughput/sample-size settings,
//! [`BenchmarkId`], and [`Bencher::iter`].
//!
//! Instead of criterion's statistical analysis, each benchmark is warmed
//! up briefly, then timed over enough iterations to fill a fixed
//! measurement window; the mean per-iteration time (and derived
//! throughput, when declared) is printed in criterion-like one-line form.
//! `CRITERION_QUICK=1` shrinks the windows for smoke runs.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value passthrough.
pub fn black_box<T>(value: T) -> T {
    std_black_box(value)
}

/// Declared throughput of one benchmark iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A two-part benchmark name (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id printed as `function/parameter`.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{function}/{parameter}") }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to the closure under test; drives timed iterations.
pub struct Bencher {
    /// Total time spent in the measured closure.
    elapsed: Duration,
    /// Number of measured iterations.
    iterations: u64,
    /// Measurement window to fill.
    measurement_time: Duration,
    /// Warm-up window.
    warm_up_time: Duration,
}

impl Bencher {
    /// Times `routine` repeatedly until the measurement window is filled.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_up_until = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_up_until {
            std_black_box(routine());
        }
        let start = Instant::now();
        let mut iterations = 0u64;
        loop {
            std_black_box(routine());
            iterations += 1;
            let elapsed = start.elapsed();
            if elapsed >= self.measurement_time {
                self.elapsed = elapsed;
                self.iterations = iterations;
                return;
            }
        }
    }
}

fn format_time(per_iter: Duration) -> String {
    let nanos = per_iter.as_secs_f64() * 1e9;
    if nanos < 1_000.0 {
        format!("{nanos:.2} ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.2} µs", nanos / 1e3)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.2} ms", nanos / 1e6)
    } else {
        format!("{:.3} s", nanos / 1e9)
    }
}

/// The benchmark manager handed to each `criterion_group!` function.
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1");
        Criterion {
            measurement_time: if quick {
                Duration::from_millis(100)
            } else {
                Duration::from_millis(1500)
            },
            warm_up_time: if quick {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(300)
            },
            throughput: None,
        }
    }
}

impl Criterion {
    /// Runs and reports one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iterations: 0,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
        };
        f(&mut bencher);
        self.report(&name.to_string(), &bencher);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }

    fn report(&self, name: &str, bencher: &Bencher) {
        if bencher.iterations == 0 {
            println!("{name:<40} no iterations measured");
            return;
        }
        let per_iter = bencher.elapsed / u32::try_from(bencher.iterations).unwrap_or(u32::MAX);
        let mut line = format!(
            "{name:<40} time: [{}]  ({} iterations)",
            format_time(per_iter),
            bencher.iterations
        );
        if let Some(throughput) = self.throughput {
            let per_second = match throughput {
                Throughput::Elements(n) | Throughput::Bytes(n) => {
                    n as f64 * bencher.iterations as f64 / bencher.elapsed.as_secs_f64()
                }
            };
            let unit = match throughput {
                Throughput::Elements(_) => "elem/s",
                Throughput::Bytes(_) => "B/s",
            };
            line.push_str(&format!("  thrpt: {per_second:.0} {unit}"));
        }
        println!("{line}");
    }
}

/// A group of benchmarks sharing throughput and sample settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Declares the work per iteration for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.criterion.throughput = Some(throughput);
        self
    }

    /// Accepted for API parity; the shim's fixed measurement window does
    /// not use a sample count.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Shrinks or grows the measurement window.
    pub fn measurement_time(&mut self, window: Duration) -> &mut Self {
        self.criterion.measurement_time = window;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.bench_function(full, f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group, clearing its settings.
    pub fn finish(self) {
        self.criterion.throughput = None;
    }
}

/// Bundles benchmark functions into a runner the shim's
/// `criterion_main!` invokes.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($function:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($function(&mut criterion);)+
        }
    };
}

/// Entry point running every group.
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
    fn bencher_measures_iterations() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut criterion = Criterion {
            measurement_time: Duration::from_millis(5),
            warm_up_time: Duration::from_millis(1),
            ..Criterion::default()
        };
        let mut ran = 0u64;
        criterion.bench_function("noop", |b| {
            b.iter(|| {
                ran += 1;
            });
        });
        assert!(ran > 0);
    }

    #[test]
    fn group_applies_throughput_and_finishes() {
        let mut criterion = Criterion {
            measurement_time: Duration::from_millis(5),
            warm_up_time: Duration::from_millis(1),
            ..Criterion::default()
        };
        let mut group = criterion.benchmark_group("g");
        group.throughput(Throughput::Elements(100));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("f", "p"), &3u32, |b, &x| {
            b.iter(|| x * 2);
        });
        group.finish();
        assert!(criterion.throughput.is_none());
    }

    #[test]
    fn benchmark_id_formats_as_function_slash_parameter() {
        assert_eq!(BenchmarkId::new("cubefit", "uniform").to_string(), "cubefit/uniform");
    }
}
