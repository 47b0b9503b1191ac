//! The four workloads and the closed loop that measures them.

pub mod compile;
pub mod exec;
pub mod serve;

use crate::seq::{ClassSpec, Op};
use std::collections::BTreeMap;
use std::time::Instant;

/// A workload's class table: name, weight per cycle, and the variants the
/// class rotates through.
pub type ClassTable<T> = Vec<(&'static str, usize, Vec<T>)>;

/// Split a class table into the class specs and the per-class variants.
#[must_use]
pub fn split_table<T>(table: ClassTable<T>) -> (Vec<ClassSpec>, Vec<Vec<T>>) {
    table
        .into_iter()
        .map(|(name, weight, v)| {
            let spec = ClassSpec {
                name,
                weight,
                variants: v.len(),
            };
            (spec, v)
        })
        .unzip()
}

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = ["compile_mix", "exec_large", "exec_small", "serve_mix"];

/// What one pass over an operation sequence measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-operation latency in milliseconds and class index, in
    /// completion order.
    pub samples: Vec<(f64, usize)>,
    /// Operations whose output did not match its expectation.
    pub failed: usize,
    /// The first failing operation, described.
    pub first_failure: Option<String>,
    /// Seconds the operations took: their summed latencies for the
    /// single-threaded loops, the wall clock for concurrent clients.
    pub elapsed_s: f64,
    /// Counts the benchmark derives from the results the public API
    /// returns (not from trace events).
    pub counts: BTreeMap<String, u64>,
    /// The process's peak RSS when the measured operations ended, before
    /// any check that runs after them allocates.
    pub peak_rss_mb: Option<f64>,
}

impl Measured {
    /// Record a check outcome for operation `index`.
    pub fn check(&mut self, index: usize, label: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!("op #{index} ({label}): {e}"));
            }
        }
    }

    /// Add `delta` to the benchmark-side count `name`.
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Keep the maximum of `value` under `name`.
    pub fn count_max(&mut self, name: &str, value: u64) {
        let slot = self.counts.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }
}

/// One workload: a fixed class mix, a program-side set-up, and a closed
/// loop over a seeded operation sequence.
pub trait Workload {
    /// The operation classes and their weights per cycle.
    fn classes(&self) -> &[ClassSpec];
    /// Operations per second this host sustains, used to size a run of
    /// `--seconds` to a fixed operation count.
    fn nominal_ops_per_s(&self) -> f64;
    /// Operations in flight at once (closed-loop clients).
    fn concurrency(&self) -> usize {
        1
    }
    /// Whether the program keeps state that grows over a pass, so later
    /// blocks of the sequence do different work from earlier ones and
    /// only the whole run measures the workload.
    fn state_grows(&self) -> bool {
        false
    }
    /// Compute the references outputs are checked against (oracle
    /// outputs, committed digests); never timed.
    ///
    /// # Errors
    /// The oracle failed.
    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Program-side set-up before the steady loop (the caller times it).
    ///
    /// # Errors
    /// A set-up step failed; the run is not measurable.
    fn setup(&mut self) -> Result<(), String>;
    /// Check the outputs of the set-up's cold pass (untimed; needs
    /// [`Workload::prepare_checks`]).
    ///
    /// # Errors
    /// A cold-pass output did not match its expectation.
    fn check_setup(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Bring the program back to the state right after [`Workload::setup`]
    /// so two passes over one sequence do identical work (a fresh server
    /// for `serve_mix`; nothing for the in-process workloads, whose caches
    /// are warm after set-up).
    ///
    /// # Errors
    /// As [`Workload::setup`].
    fn reset_pass(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Run `ops` closed-loop, timing each operation and checking each
    /// output outside the timed region.  `before_block` runs before every
    /// `block` operations, while no operation is in flight.
    fn run(&mut self, ops: &[Op], block: usize, before_block: &mut dyn FnMut()) -> Measured;
    /// Stop everything the workload started.
    fn teardown(&mut self) {}
}

/// Build workload `name` with inputs generated from `seed`.
///
/// # Errors
/// Unknown workload name, or an input that does not compile.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "compile_mix" => Ok(Box::new(compile::CompileMix::new(seed)?)),
        "exec_large" => Ok(Box::new(exec::ExecWorkload::large(seed)?)),
        "exec_small" => Ok(Box::new(exec::ExecWorkload::small(seed)?)),
        "serve_mix" => Ok(Box::new(serve::ServeMix::new()?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// The single-threaded closed loop: `exec` runs one operation inside a
/// `bench.op` span and the timer; `check` inspects its output afterwards;
/// `before_block` runs before every `block` operations.
pub fn closed_loop<T>(
    ops: &[Op],
    classes: &[ClassSpec],
    block: usize,
    before_block: &mut dyn FnMut(),
    mut exec: impl FnMut(&Op) -> T,
    mut check: impl FnMut(&Op, T, &mut Measured) -> Result<(), String>,
) -> Measured {
    let mut m = Measured::default();
    for (i, op) in ops.iter().enumerate() {
        if i % block.max(1) == 0 {
            before_block();
        }
        let t0 = Instant::now();
        let out = {
            let _span = tce_trace::span("bench.op");
            std::hint::black_box(exec(op))
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        m.samples.push((ms, op.class));
        let outcome = check(op, out, &mut m);
        m.check(i, classes[op.class].name, outcome);
    }
    // Closed loop on one thread: throughput is operations over the time
    // spent inside them; the checks between operations are not counted.
    m.elapsed_s = m.samples.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3;
    m.peak_rss_mb = crate::stats::peak_rss_mb().ok();
    m
}
