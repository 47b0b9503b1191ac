//! Per-layer attribution from a traced pass.
//!
//! The benchmark wraps its own calls into each layer's public entry
//! points in `bench.*` spans (`bench.op` around every operation,
//! `bench.lang` / `bench.synthesize` around the compile halves).  Every
//! other number is read through `tce_trace`'s public API from spans and
//! counters the program already records, or from the results and `stats`
//! replies the public API returns; each [`METRICS`] entry's [`Source`]
//! says which, and is what the value is computed from.

use crate::workloads::Measured;
use tce_trace::Trace;

/// What one traced pass left behind, for computing metrics from.
pub struct Pass<'a> {
    /// The pass's trace.
    pub trace: &'a Trace,
    /// The benchmark's results of the pass.
    pub measured: &'a Measured,
    /// Operations in the pass.
    pub ops: usize,
    /// Seconds the same sequence took untraced.
    pub untraced_s: f64,
    /// Whether the workload is `serve_mix` (`bench.op` is a round trip).
    pub serve: bool,
    /// Exact counts that differed between the two traced passes.
    pub mismatches: u64,
}

impl Pass<'_> {
    /// Milliseconds per operation of `ns` nanoseconds over the pass.
    fn per_op_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.per_op_ms(self.trace.span_total_ns(name))
    }

    fn counter(&self, name: &str) -> u64 {
        self.trace.counter_total(name)
    }

    fn bench(&self, name: &str) -> u64 {
        self.measured.counts.get(name).copied().unwrap_or(0)
    }
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy)]
pub enum Source {
    /// Milliseconds per operation inside a span (program or `bench.*`).
    Span(&'static str),
    /// Milliseconds per operation of a nanosecond program counter.
    CounterMs(&'static str),
    /// Total of a program counter over the pass.
    Counter(&'static str),
    /// Number of spans of this name in the pass.
    SpanCount(&'static str),
    /// A count the benchmark derives from the public API's results or
    /// from the server's `stats` replies.
    Bench(&'static str),
    /// A formula over the pass, described in words.
    Derived(&'static str, fn(&Pass) -> f64),
}

impl Source {
    /// The value of this source over `pass`.
    #[must_use]
    pub fn value(&self, pass: &Pass) -> f64 {
        match *self {
            Self::Span(s) => pass.span_ms(s),
            Self::CounterMs(c) => pass.per_op_ms(pass.counter(c)),
            Self::Derived(_, f) => f(pass),
            _ => self.count(pass.trace, pass.measured).unwrap_or(0) as f64,
        }
    }

    /// The exact count of this source, for the sources that are counts.
    #[must_use]
    pub fn count(&self, trace: &Trace, m: &Measured) -> Option<u64> {
        match *self {
            Self::Counter(c) => Some(trace.counter_total(c)),
            Self::SpanCount(s) => Some(trace.span_count(s) as u64),
            Self::Bench(b) => Some(m.counts.get(b).copied().unwrap_or(0)),
            _ => None,
        }
    }

    /// The source in words.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            Self::Span(s) if s.starts_with("bench.") => format!("bench span {s}"),
            Self::Span(s) => format!("program span {s}"),
            Self::CounterMs(c) | Self::Counter(c) => format!("program counter {c}"),
            Self::SpanCount(s) => format!("program span count {s}"),
            Self::Bench(b) => format!("benchmark count {b}"),
            Self::Derived(how, _) => format!("benchmark: {how}"),
        }
    }
}

/// One per-layer metric.
#[derive(Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Where the number comes from.
    pub source: Source,
    /// What the source records, where its name does not say.
    pub note: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    source: Source,
    note: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        source,
        note,
        moves,
    }
}

use Source::{Bench, Counter, CounterMs, Derived, Span, SpanCount};

/// The compile stages' own spans.
const STAGES: [&str; 5] = [
    "stage.opmin",
    "stage.fusion",
    "stage.spacetime",
    "stage.locality",
    "stage.distribution",
];

fn stage_ms(p: &Pass) -> f64 {
    STAGES.iter().map(|s| p.span_ms(s)).sum()
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn compile_unattributed(p: &Pass) -> f64 {
    let compile_ms = p.span_ms("bench.synthesize");
    if compile_ms > 0.0 {
        compile_ms - stage_ms(p)
    } else {
        0.0
    }
}

fn gett_gflops(p: &Pass) -> f64 {
    match p.counter("gett.kernel_ns") {
        0 => 0.0,
        ns => p.counter("gett.flops") as f64 / ns as f64,
    }
}

fn exec_unattributed(p: &Pass) -> f64 {
    if p.bench("exec.flops") > 0 {
        p.span_ms("bench.op")
            - p.per_op_ms(p.counter("gett.pack_ns"))
            - p.per_op_ms(p.counter("gett.kernel_ns"))
    } else {
        0.0
    }
}

fn dist_exec(p: &Pass) -> f64 {
    p.span_ms("dist.exec") + p.span_ms("dist.exec_graph")
}

fn plan_cache_hit_ratio(p: &Pass) -> f64 {
    ratio(p.counter("plan_cache.hits"), p.counter("plan_cache.misses"))
}

fn bufpool_hit_ratio(p: &Pass) -> f64 {
    ratio(p.counter("bufpool.hits"), p.counter("bufpool.misses"))
}

fn bufpool_retained(_: &Pass) -> f64 {
    tce_core::tensor::bufpool_retained_elements() as f64 * 8.0 / (1 << 20) as f64
}

fn serve_rtt(p: &Pass) -> f64 {
    if p.serve {
        p.span_ms("bench.op")
    } else {
        0.0
    }
}

fn serve_protocol(p: &Pass) -> f64 {
    serve_rtt(p) - p.span_ms("serve.run")
}

fn resp_hit_ratio(p: &Pass) -> f64 {
    ratio(p.bench("serve.resp_hits"), p.bench("serve.resp_misses"))
}

fn synth_hit_ratio(p: &Pass) -> f64 {
    ratio(p.bench("serve.synth_hits"), p.bench("serve.synth_misses"))
}

fn trace_overhead(p: &Pass) -> f64 {
    if p.untraced_s > 0.0 {
        (p.measured.elapsed_s / p.untraced_s - 1.0) * 100.0
    } else {
        0.0
    }
}

fn trace_coverage(p: &Pass) -> f64 {
    let children = if p.serve {
        p.span_ms("serve.request")
    } else {
        [
            "bench.lang",
            "stage.exec",
            "stage.exec.graph",
            "stage.exec.fused",
            "stage.exec.distributed",
        ]
        .iter()
        .map(|s| p.span_ms(s))
        .sum::<f64>()
            + stage_ms(p)
    };
    match p.span_ms("bench.op") {
        op if op > 0.0 => children / op * 100.0,
        _ => 0.0,
    }
}

fn mismatches(p: &Pass) -> f64 {
    p.mismatches as f64
}

/// Every per-layer metric the traced run reports.  Times are per
/// operation of the traced pass; counts are totals over the pass.
#[rustfmt::skip]
pub const METRICS: &[LayerMetric] = &[
    lm("lang.ms", "ms/op", Span("bench.lang"), "around tce_lang::compile", "compile_mix op_ms_p50"),
    lm("opmin.ms", "ms/op", Span("stage.opmin"), "", "compile_mix op_ms_p50"),
    lm("opmin.nodes_expanded", "count", Counter("opmin.nodes_expanded"), "", "compile_mix op_ms_p50"),
    lm("opmin.pareto_points", "count", Counter("opmin.pareto_points"), "", "compile_mix op_ms_p50"),
    lm("opmin.feedback_rank_gt0", "count", Bench("opmin.feedback_rank_gt0"), "plans with TermPlan::tree_rank > 0", "compile_mix op_ms_p90"),
    lm("fusion.ms", "ms/op", Span("stage.fusion"), "", "compile_mix op_ms_p50"),
    lm("fusion.memmin_states", "count", Counter("fusion.memmin_states"), "", "compile_mix op_ms_p50"),
    lm("spacetime.ms", "ms/op", Span("stage.spacetime"), "", "compile_mix op_ms_p50 (tight-limit configs)"),
    lm("spacetime.engaged", "count", Bench("spacetime.engaged"), "plans with TermPlan::spacetime set", "compile_mix op_ms_p50"),
    lm("spacetime.frontier_points", "count", Counter("spacetime.frontier_points"), "", "compile_mix op_ms_p50"),
    lm("locality.ms", "ms/op", Span("stage.locality"), "", "compile_mix op_ms_p50"),
    lm("locality.tile_candidates", "count", Counter("locality.tile_candidates"), "", "compile_mix op_ms_p50"),
    lm("dist.plan_ms", "ms/op", Span("stage.distribution"), "", "compile_mix op_ms_p90 (grid configs)"),
    lm("compile.unattributed_ms", "ms/op", Derived("bench.synthesize minus the five stage spans", compile_unattributed), "", "compile_mix op_ms_p50"),
    lm("exec.tree_ms", "ms/op", Span("exec.tree"), "", "exec_large op_ms_p50, ops_per_s"),
    lm("gett.calls", "count", SpanCount("gett.execute"), "", "exec_large op_ms_p50"),
    lm("gett.pack_ms", "ms/op", CounterMs("gett.pack_ns"), "", "exec_large op_ms_p50, ops_per_s"),
    lm("gett.kernel_ms", "ms/op", CounterMs("gett.kernel_ns"), "", "exec_large op_ms_p50, ops_per_s"),
    lm("gett.gflops", "GF/s", Derived("program counters gett.flops / gett.kernel_ns", gett_gflops), "", "exec_large ops_per_s"),
    lm("exec.flops", "count", Bench("exec.flops"), "sum of TermPlan::tree_ops over executed operations", "exec_large ops_per_s"),
    lm("exec.unattributed_ms", "ms/op", Derived("bench.op of execute operations minus gett.pack_ns and gett.kernel_ns", exec_unattributed), "permute, accumulate, alloc, dispatch", "exec_large op_ms_p50"),
    lm("exec.tree_graph_ms", "ms/op", Span("exec.tree_graph"), "", "exec_small ops_per_s"),
    lm("sched.tasks", "count", Counter("sched.tasks"), "", "exec_small ops_per_s"),
    lm("exec.fused_ms", "ms/op", Span("exec.fused"), "", "exec_small op_ms_p90"),
    lm("fused.sliced_contractions", "count", Counter("fused.sliced_contractions"), "", "exec_small op_ms_p90, ops_per_s"),
    lm("fused.func_evals", "count", Bench("fused.func_evals"), "FusedExecSummary::func_evals", "exec_small op_ms_p90, ops_per_s"),
    lm("fused.peak_live_elements", "count", Bench("fused.peak_live_elements"), "max FusedExecSummary::peak_live_elements (== memmin model, checked)", "exec_small peak_rss_mb"),
    lm("dist.exec_ms", "ms/op", Derived("program spans dist.exec + dist.exec_graph", dist_exec), "", "exec_small ops_per_s"),
    lm("dist.scatter_ms", "ms/op", Span("dist.scatter"), "", "exec_small ops_per_s"),
    lm("dist.redistribute_ms", "ms/op", Span("dist.redistribute"), "", "exec_small ops_per_s"),
    lm("dist.contract_ms", "ms/op", Span("dist.contract"), "", "exec_small ops_per_s"),
    lm("dist.reduce_ms", "ms/op", Span("dist.reduce"), "", "exec_small ops_per_s"),
    lm("dist.gather_ms", "ms/op", Span("dist.gather"), "", "exec_small ops_per_s"),
    lm("dist.moved_elements", "count", Counter("dist.move_elements"), "== predicted, checked", "exec_small ops_per_s"),
    lm("plan_cache.hit_ratio", "ratio", Derived("program counters plan_cache.hits / (hits + misses)", plan_cache_hit_ratio), "", "exec_small op_ms_p50"),
    lm("plan_cache.misses", "count", Counter("plan_cache.misses"), "", "exec_large setup_s"),
    lm("bufpool.hit_ratio", "ratio", Derived("program counters bufpool.hits / (hits + misses)", bufpool_hit_ratio), "", "exec_small op_ms_p50"),
    lm("bufpool.retained_mb", "MiB", Derived("tce_tensor::bufpool_retained_elements after the pass", bufpool_retained), "", "exec_large peak_rss_mb"),
    lm("serve.rtt_ms", "ms/op", Derived("bench span bench.op around Client::round_trip", serve_rtt), "", "serve_mix op_ms_p50"),
    lm("serve.run_ms", "ms/op", Span("serve.run"), "", "serve_mix op_ms_p50"),
    lm("serve.protocol_ms", "ms/op", Derived("serve.rtt_ms minus serve.run_ms", serve_protocol), "", "serve_mix op_ms_p50"),
    lm("serve.resp_hit_ratio", "ratio", Derived("stats verb resp_hits / (resp_hits + resp_misses), pass delta", resp_hit_ratio), "", "serve_mix op_ms_p50"),
    lm("serve.synth_hit_ratio", "ratio", Derived("stats verb synth_hits / (synth_hits + synth_misses), pass delta", synth_hit_ratio), "", "serve_mix op_ms_p90"),
    lm("serve.synth_evictions", "count", Bench("serve.synth_evictions"), "stats verb, pass delta", "serve_mix op_ms_p90"),
    lm("serve.errors_expected", "count", Bench("serve.errors_expected"), "requests whose expected reply is err", "serve_mix ok_ratio"),
    lm("serve.shed", "count", Bench("serve.shed"), "stats verb, pass delta", "serve_mix ok_ratio"),
    lm("serve.timeouts", "count", Bench("serve.timeouts"), "stats verb, pass delta", "serve_mix ok_ratio"),
    lm("trace.overhead_pct", "%", Derived("traced pass time over untraced pass time, minus 1", trace_overhead), "", "all workloads"),
    lm("trace.coverage_pct", "%", Derived("top-level program spans (stages, stage.exec*, serve.request) over bench.op", trace_coverage), "", "all workloads (reported, not gated)"),
    lm("selfcheck.mismatches", "count", Derived("exact counts that differ between two traced passes", mismatches), "", "all workloads (must be 0)"),
];

/// Counts that must repeat exactly between two traced passes over the
/// same sequence, and where each comes from.
#[rustfmt::skip]
pub const EXACT: &[(&str, Source)] = &[
    ("plan_cache.misses", Counter("plan_cache.misses")),
    ("fused.sliced_contractions", Counter("fused.sliced_contractions")),
    ("fused.func_evals", Bench("fused.func_evals")),
    ("dist.moved_elements", Counter("dist.move_elements")),
    ("opmin.nodes_expanded", Counter("opmin.nodes_expanded")),
    ("opmin.pareto_points", Counter("opmin.pareto_points")),
    ("gett.calls", SpanCount("gett.execute")),
    ("sched.tasks", Counter("sched.tasks")),
    ("fusion.memmin_states", Counter("fusion.memmin_states")),
    ("spacetime.engaged", Bench("spacetime.engaged")),
    ("exec.flops", Bench("exec.flops")),
    ("serve.resp_hits", Bench("serve.resp_hits")),
    ("serve.resp_misses", Bench("serve.resp_misses")),
    ("serve.synth_hits", Bench("serve.synth_hits")),
    ("serve.synth_misses", Bench("serve.synth_misses")),
];

/// The exact counts of one pass (program counters from `trace`,
/// benchmark counts from `m`).
#[must_use]
pub fn exact_counts(trace: &Trace, m: &Measured) -> Vec<(&'static str, u64)> {
    EXACT
        .iter()
        .map(|(name, source)| (*name, source.count(trace, m).unwrap_or(0)))
        .collect()
}

/// Compute every metric of [`METRICS`] over `pass`.
#[must_use]
pub fn compute(pass: &Pass) -> Vec<(&'static str, f64)> {
    METRICS
        .iter()
        .map(|metric| (metric.name, metric.source.value(pass)))
        .collect()
}

/// The per-layer table: value, unit, source and the end-to-end metric
/// each number should move.
#[must_use]
pub fn table(values: &[(&'static str, f64)]) -> String {
    let mut out = format!(
        "{:<28} {:>14} {:<7} {:<44} source\n",
        "metric", "value", "unit", "moves"
    );
    for (metric, (_, v)) in METRICS.iter().zip(values) {
        let mut source = metric.source.describe();
        if !metric.note.is_empty() {
            source = format!("{source} ({})", metric.note);
        }
        out.push_str(&format!(
            "{:<28} {:>14.6} {:<7} {:<44} {source}\n",
            metric.name, v, metric.unit, metric.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_exact_count_is_a_count() {
        let (t, m) = (Trace::default(), Measured::default());
        for (name, source) in EXACT {
            assert!(source.count(&t, &m).is_some(), "{name} is not a count");
        }
    }

    #[test]
    fn metrics_are_the_per_layer_list_of_the_benchmark_description() {
        let listed: Vec<String> = crate::spec::metrics("per_layer")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(listed, ours);
    }
}
