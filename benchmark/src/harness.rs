//! The measuring loop shared by every workload: three rounds of set-up,
//! warm-up and fourteen timed segments each, and the metrics derived from them.
//!
//! A workload is a function `fn(&mut Harness)` that builds its testbed, hands
//! the harness a closure running `n` units of work, and tears down. The
//! harness calls it once per round and decides how many units the closure
//! runs and whether they are traced.
//!
//! Why rounds: two processes running the same code differ by up to 10 % in
//! speed for their whole lifetime (where the kernel put their buffers), which
//! no statistic over one testbed's segments can remove. Every round builds a
//! fresh testbed with fresh buffers, so a run samples three placements, and
//! its three set-ups give `setup_s` a median.

use std::path::PathBuf;
use std::time::Instant;

use sim_core::SimDuration;

use crate::alloc;
use crate::host::{self, SegmentRates};
use crate::metrics::MetricSet;
use crate::trace::{self, SpanName, Tracer};

/// Rounds (set-up, warm-up, timed segments) of an untraced run. A traced run
/// has one.
pub const ROUNDS: u64 = 3;

/// Equal-count timed segments per round and pass.
pub const SEGMENTS_PER_ROUND: u64 = 14;

/// Share of a round's unit count run as warm-up before its timing starts.
const WARMUP_SHARE: f64 = 0.05;

/// Spans the traced pass has room for (32 B each, touched only when used).
const SPAN_CAPACITY: usize = 2_000_000;

/// What one invocation of the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// 1.0 runs the operation counts sized for `RUN_SECONDS`.
    pub scale: f64,
    pub traced: bool,
}

impl Plan {
    /// Rounds of set-up, warm-up and timed segments.
    fn rounds(&self) -> u64 {
        if self.traced {
            1
        } else {
            ROUNDS
        }
    }

    /// Timed passes per round: a traced run repeats the untraced pass traced.
    fn passes(&self) -> u64 {
        if self.traced {
            2
        } else {
            1
        }
    }
}

/// Samples and counts a workload reports while it runs.
#[derive(Debug)]
pub struct Recorder {
    pub tracer: Tracer,
    lat_ns: Vec<u64>,
    busy_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            tracer: Tracer::off(),
            lat_ns: Vec::new(),
            busy_ns: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// One operation finished: its virtual latency and whether its output
    /// was correct.
    #[inline]
    pub fn record(&mut self, latency: SimDuration, ok: bool) {
        self.lat_ns.push(latency.as_nanos());
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Client virtual time the workload spent on the operations recorded.
    #[inline]
    pub fn busy(&mut self, elapsed: SimDuration) {
        self.busy_ns += elapsed.as_nanos();
    }

    /// `n` operations that could not even be attempted to completion.
    pub fn fail(&mut self, n: u64, why: &dyn std::fmt::Display) {
        eprintln!("simbench: {n} operation(s) failed: {why}");
        self.attempted += n;
        self.failed += n;
    }

    /// An end-state check; a false `holds` counts as one failed operation.
    pub fn check(&mut self, holds: bool, what: &dyn std::fmt::Display) {
        self.attempted += 1;
        if !holds {
            eprintln!("simbench: check failed: {what}");
            self.failed += 1;
        }
    }
}

/// Host-side result of one kind of timed pass, summed over the rounds.
#[derive(Debug, Default)]
struct Pass {
    segments: SegmentRates,
    ops: u64,
    cpu_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    threads: u64,
}

/// The closure a workload hands over: run `n` units, reporting into the
/// recorder.
pub type RunUnits<'a> = dyn FnMut(u64, &mut Recorder) + 'a;

#[derive(Debug)]
pub struct Harness {
    plan: Plan,
    /// Units one round runs per timed pass.
    round_units: u64,
    ops_per_unit: u64,
    round: u64,
    /// Operations the current round's timed passes ran.
    round_ops: u64,
    setup_started: Instant,
    setup_secs: Vec<f64>,
    /// `VmHWM` when the first round's untraced pass ended (see
    /// [`Harness::finish`]); a traced pass's span buffer comes after it.
    first_round_rss_mib: f64,
    rec: Recorder,
    untraced: Pass,
    traced: Option<Pass>,
    /// Per-layer values only the workload can read (public stats of the
    /// sessions, pools and planes it built). A later round overwrites an
    /// earlier one's: they are the same numbers.
    pub layer: MetricSet,
}

impl Harness {
    /// `base_units` is the workload's unit count at scale 1, `ops_per_unit`
    /// how many operations (latency samples) one unit records.
    pub fn new(plan: Plan, base_units: u64, ops_per_unit: u64) -> Harness {
        // A traced run works through a quarter of the operations.
        let share = if plan.traced { 0.25 } else { 1.0 };
        let segments = (plan.rounds() * SEGMENTS_PER_ROUND) as f64;
        let per_segment = (base_units as f64 * plan.scale * share / segments).round() as u64;
        Harness {
            plan,
            round_units: per_segment.max(1) * SEGMENTS_PER_ROUND,
            ops_per_unit,
            round: 0,
            round_ops: 0,
            setup_started: Instant::now(),
            setup_secs: Vec::new(),
            first_round_rss_mib: 0.0,
            rec: Recorder::new(),
            untraced: Pass::default(),
            traced: None,
            layer: MetricSet::default(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// Units of warm-up at the start of every round.
    pub fn warmup_units(&self) -> u64 {
        ((self.round_units as f64 * WARMUP_SHARE).ceil() as u64).max(1)
    }

    fn units_per_round(&self) -> u64 {
        self.warmup_units() + self.round_units * self.plan.passes()
    }

    /// Units of generated input the whole run consumes.
    pub fn total_units(&self) -> u64 {
        self.units_per_round() * self.plan.rounds()
    }

    /// Units earlier rounds consumed: where this round continues in the
    /// generated inputs, so rounds replay nothing.
    pub fn units_before_round(&self) -> u64 {
        self.units_per_round() * self.round
    }

    /// Call the workload once per round.
    pub fn drive(&mut self, workload: fn(&mut Harness)) {
        for round in 0..self.plan.rounds() {
            self.round = round;
            self.round_ops = 0;
            self.setup_started = Instant::now();
            workload(self);
        }
    }

    /// Run the round's warm-up units and drop their samples. Set-up ends
    /// here: everything from the start of the workload function to this
    /// point is one sample of `setup_s`.
    pub fn warm_up(&mut self, run: &mut RunUnits) {
        let (samples, busy_ns) = (self.rec.lat_ns.len(), self.rec.busy_ns);
        // Room for every sample of the round, so no timed segment pays for
        // growing the vector.
        self.rec
            .lat_ns
            .reserve((self.units_per_round() * self.ops_per_unit) as usize);
        run(self.warmup_units(), &mut self.rec);
        self.rec.lat_ns.truncate(samples);
        self.rec.busy_ns = busy_ns;
        self.setup_secs
            .push(self.setup_started.elapsed().as_secs_f64());
    }

    /// Run the round's timed segments: one untraced pass, and in a traced
    /// run a second pass with spans and the counting allocator on, whose
    /// samples replace the first pass's.
    pub fn measure(&mut self, run: &mut RunUnits) {
        let before = self.rec.attempted;
        let segment_units = self.round_units / SEGMENTS_PER_ROUND;
        Self::pass(&mut self.rec, segment_units, &mut self.untraced, run);
        if self.round == 0 {
            self.first_round_rss_mib = host::peak_rss_mib();
        }
        if self.plan.traced {
            self.rec.lat_ns.clear();
            self.rec.busy_ns = 0;
            self.rec.tracer = Tracer::recording(SPAN_CAPACITY);
            alloc::set_counting(true);
            let mut traced = Pass::default();
            Self::pass(&mut self.rec, segment_units, &mut traced, run);
            alloc::set_counting(false);
            self.traced = Some(traced);
        }
        self.round_ops = self.rec.attempted - before;
    }

    /// Time one round's segments of `segment_units` units each into `pass`.
    fn pass(rec: &mut Recorder, segment_units: u64, pass: &mut Pass, run: &mut RunUnits) {
        let allocs_before = alloc::counts();
        let cpu_before = host::cpu_seconds();
        let ops_before = rec.attempted;
        for _ in 0..SEGMENTS_PER_ROUND {
            let before = rec.attempted;
            let start = Instant::now();
            run(segment_units, rec);
            let elapsed = start.elapsed();
            pass.segments.record(rec.attempted - before, elapsed);
        }
        pass.threads = pass.threads.max(host::threads_now());
        let allocs_after = alloc::counts();
        pass.ops += rec.attempted - ops_before;
        pass.cpu_s += host::cpu_seconds() - cpu_before;
        pass.allocs += allocs_after.0 - allocs_before.0;
        pass.alloc_bytes += allocs_after.1 - allocs_before.1;
    }

    /// Operations this round's timed passes ran: the base for per-operation
    /// counts a workload reads around `measure`.
    pub fn round_ops(&self) -> u64 {
        self.round_ops
    }

    /// Median virtual latency of the samples recorded so far.
    pub fn sim_lat_p50(&self) -> Option<SimDuration> {
        let mut ns = self.rec.lat_ns.clone();
        let mid = ns.len().checked_sub(1)? / 2;
        Some(SimDuration::from_nanos(*ns.select_nth_unstable(mid).1))
    }

    /// End-state check, counted like an operation (see [`Recorder::check`]).
    pub fn check(&mut self, holds: bool, what: &dyn std::fmt::Display) {
        self.rec.check(holds, what);
    }

    /// `(attempted, failed)` over the whole run, warm-ups and checks included.
    pub fn totals(&self) -> (u64, u64) {
        (self.rec.attempted, self.rec.failed)
    }

    /// Derive every metric this run can report.
    pub fn finish(self) -> MetricSet {
        let mut m = MetricSet::default();
        let last = self.traced.as_ref().unwrap_or(&self.untraced);

        m.set("setup_s", host::median(&self.setup_secs));
        let mut lat_us: Vec<f64> = self.rec.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        lat_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        if !lat_us.is_empty() {
            m.set("sim_lat_p50_us", host::percentile_sorted(&lat_us, 50.0));
            m.set("sim_lat_p99_us", host::percentile_sorted(&lat_us, 99.0));
        }
        m.set(
            "sim_ops_per_s",
            last.ops as f64 / (self.rec.busy_ns as f64 / 1e9),
        );
        m.set("host_ops_per_s", self.untraced.segments.ops_per_s());
        // Peak RSS of the first round only: each later round adds whatever
        // holes the round before left in the heap.
        m.set("host_peak_rss_mib", self.first_round_rss_mib);
        let (attempted, failed) = self.totals();
        m.set("failed_share", failed as f64 / attempted.max(1) as f64);

        m.set("host.noise", self.untraced.segments.noise());
        m.set("host.threads", last.threads as f64);
        m.set(
            "host.cpu_s_per_mop",
            last.cpu_s / last.ops.max(1) as f64 * 1e6,
        );
        eprintln!(
            "simbench: {} latency samples, {} ops in the last pass, {} set-up(s)",
            lat_us.len(),
            last.ops,
            self.setup_secs.len()
        );

        if let Some(traced) = &self.traced {
            let ops = traced.ops.max(1) as f64;
            m.set("host.allocs_per_op", traced.allocs as f64 / ops);
            m.set("host.alloc_bytes_per_op", traced.alloc_bytes as f64 / ops);
            m.set(
                "host.trace_overhead_pct",
                (1.0 - traced.segments.ops_per_s() / self.untraced.segments.ops_per_s()) * 100.0,
            );
            self.report_spans(&mut m);
        }
        m.extend(&self.layer);
        m
    }

    /// Span medians into `m`, self times to stderr, the trace file to `out/`.
    fn report_spans(&self, m: &mut MetricSet) {
        let tracer = &self.rec.tracer;
        let stats = trace::aggregate(tracer.spans());
        let covered: u64 = stats.iter().map(|s| s.self_ns).sum();
        eprintln!(
            "simbench: {} spans ({} dropped); self time by layer call:",
            tracer.spans().len(),
            tracer.dropped()
        );
        for s in &stats {
            eprintln!(
                "  {:<18} n={:<8} median {:>10.0} ns  self {:>8.3} s ({:>5.1} %)",
                s.name.label(),
                s.count,
                s.median_ns,
                s.self_ns as f64 / 1e9,
                s.self_ns as f64 / covered.max(1) as f64 * 100.0
            );
            if s.name != SpanName::Op {
                m.set(&format!("{}_ns", s.name.label()), s.median_ns);
            }
        }
        let path = trace_path(&self.plan.workload);
        match trace::write_chrome_trace(&path, tracer.spans()) {
            Ok(()) => eprintln!("simbench: trace written to {}", path.display()),
            Err(e) => eprintln!("simbench: could not write {}: {e}", path.display()),
        }
    }
}

/// `benchmark/out/<workload>.trace.json`, beside the sources when run from a
/// checkout, else under the current directory.
fn trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_dir()
        .map(|d| d.join("benchmark"))
        .ok()
        .filter(|d| d.is_dir())
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join("out").join(format!("{workload}.trace.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(traced: bool, scale: f64) -> Plan {
        Plan {
            workload: "unit-test".into(),
            seed: 1,
            scale,
            traced,
        }
    }

    #[test]
    fn unit_counts_scale_and_stay_whole_segments() {
        // 2,000,000 / 42 segments rounds to 47,619 units per segment.
        let full = Harness::new(plan(false, 1.0), 2_000_000, 1);
        assert_eq!(full.round_units, 47_619 * 14);
        assert_eq!(full.warmup_units(), 33_334);
        assert_eq!(full.total_units(), 3 * (33_334 + 47_619 * 14));

        // A traced run: one round of a quarter of the units, run twice.
        let traced = Harness::new(plan(true, 1.0), 2_000_000, 1);
        assert_eq!(traced.round_units, 35_714 * 14);
        assert_eq!(
            traced.total_units(),
            traced.warmup_units() + 2 * 35_714 * 14
        );

        let smoke = Harness::new(plan(false, 0.01), 8_000, 1);
        assert_eq!(smoke.round_units, 2 * 14);
        let tiny = Harness::new(plan(true, 0.01), 8_000, 1);
        assert_eq!((tiny.round_units, tiny.warmup_units()), (14, 1));
    }

    fn toy_workload(h: &mut Harness) {
        let offset = h.units_before_round();
        let mut run = |units: u64, rec: &mut Recorder| {
            for i in 0..units {
                let op = rec.tracer.enter(SpanName::Op);
                rec.tracer
                    .span(SpanName::Submit, || std::hint::black_box(i));
                rec.tracer.exit(op);
                rec.record(SimDuration::from_nanos(4_000), true);
                rec.busy(SimDuration::from_nanos(4_000));
            }
        };
        h.warm_up(&mut run);
        h.measure(&mut run);
        let ops = h.round_ops();
        h.check(
            ops > 0 && offset.is_multiple_of(ops + 7),
            &"ran a whole round",
        );
    }

    #[test]
    fn untraced_run_measures_three_rounds_of_fresh_set_ups() {
        let mut h = Harness::new(plan(false, 1.0), 420, 1);
        h.drive(toy_workload);
        // 3 × (7 warm-up + 140 measured + 1 check).
        assert_eq!(h.totals(), (3 * (7 + 140 + 1), 0));
        assert_eq!(h.round_ops(), 140);
        assert_eq!(h.setup_secs.len(), 3);
        let m = h.finish();
        assert_eq!(m.get("sim_lat_p50_us"), Some(4.0));
        assert_eq!(m.get("sim_ops_per_s"), Some(250_000.0));
        assert_eq!(m.get("failed_share"), Some(0.0));
        assert!(m.get("setup_s").unwrap() > 0.0);
        assert!(m.get("host_ops_per_s").unwrap() > 0.0);
        assert!(m.get("host_peak_rss_mib").unwrap() > 0.0);
        assert!(m.get("host.allocs_per_op").is_none());
    }

    #[test]
    fn traced_run_adds_span_and_allocation_metrics() {
        let _flag = alloc::FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut h = Harness::new(plan(true, 1.0), 1680, 1);
        h.drive(toy_workload);
        // One round: warm-up, an untraced and a traced pass of 420, a check.
        assert_eq!(h.totals(), (21 + 420 + 420 + 1, 0));
        assert_eq!(h.round_ops(), 840);
        let m = h.finish();
        assert!(m.get("rfaas.submit_ns").is_some());
        assert!(m.get("bench.op_ns").is_none());
        assert!(m.get("host.allocs_per_op").is_some());
        assert!(m.get("host.trace_overhead_pct").is_some());
        assert_eq!(m.get("sim_ops_per_s"), Some(250_000.0));
    }
}
