//! Round runner shared by the batch workloads: each round runs the op
//! list once at 1 thread and once at `nproc` threads, alternating which
//! goes first, until the time is up.

use crate::probe::{CpuPhase, CpuUse};
use crate::stats::{self, Samples};
use crate::validate::{Ledger, PassFingerprints};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the untimed digest of one op result reports.
pub struct Digest {
    /// Must match the first pass bit for bit.
    pub fingerprint: u64,
    /// Exact work counts of this op (summed per parallel pass).
    pub counts: Vec<(&'static str, u64)>,
}

/// Aggregates of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Per-op latency at `nproc` threads.
    pub op_ms: Samples,
    /// Per-kind latency, keyed by whether the pass ran at nproc threads.
    kind_ms: BTreeMap<(&'static str, bool), Samples>,
    /// Latency of each op of the list, `[1 thread, nproc threads]`.
    per_op: Vec<[Samples; 2]>,
    pub rounds: usize,
    pub par_passes: usize,
    /// Seconds of each set-up run between rounds.
    pub setup_s: Vec<f64>,
    pub cpu_par: CpuUse,
    /// Counts summed over the parallel passes.
    counts: BTreeMap<&'static str, u64>,
    /// Seconds per kind, summed over the parallel passes.
    kind_par_s: BTreeMap<&'static str, f64>,
}

impl Phase {
    /// Seconds of one pass when every op takes its median time, at 1
    /// thread (`parallel == false`) or nproc threads. Per-op medians keep
    /// a burst of interference on the shared host to the ops it hit.
    fn typical_pass_s(&self, parallel: bool) -> f64 {
        let slot = usize::from(parallel);
        self.per_op
            .iter()
            .map(|s| s[slot].quantile(0.5).unwrap_or(0.0) / 1e3)
            .sum()
    }

    /// Ops of the list per second of a typical nproc-thread pass.
    pub fn ops_per_s(&self) -> f64 {
        self.per_op.len() as f64 / self.typical_pass_s(true)
    }

    /// Typical 1-thread pass time over typical nproc-thread pass time.
    pub fn speedup(&self) -> f64 {
        stats::speedup(self.typical_pass_s(false), self.typical_pass_s(true))
    }

    pub fn kind_p50(&self, kind: &str, parallel: bool) -> Option<f64> {
        self.kind_ms
            .iter()
            .find(|((k, p), _)| *k == kind && *p == parallel)
            .and_then(|(_, s)| s.quantile(0.5))
    }

    /// A count per parallel pass (every pass runs the same ops, so this
    /// is exact).
    pub fn count_per_pass(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64 / self.par_passes.max(1) as f64
    }

    /// A count per second of the named kind's parallel time.
    pub fn count_rate(&self, name: &str, kind: &str) -> f64 {
        let s = self.kind_par_s.get(kind).copied().unwrap_or(0.0);
        self.counts.get(name).copied().unwrap_or(0) as f64 / s
    }
}

/// The op list, how to run one op, and how to digest its result.
pub struct Batch<'a, O, R> {
    pub ops: &'a [O],
    pub kind: fn(&O) -> &'static str,
    pub run: &'a dyn Fn(&O) -> R,
    pub digest: &'a dyn Fn(&O, &R) -> Digest,
}

impl<O, R> Batch<'_, O, R> {
    fn pass(
        &self,
        threads: usize,
        parallel: bool,
        traced: bool,
        fps: &mut PassFingerprints,
        ledger: &mut Ledger,
        phase: &mut Phase,
    ) {
        let pool = crate::thread_pool(threads);
        let pass_name = if parallel {
            "bench.pass.nproc"
        } else {
            "bench.pass.1t"
        };
        let _pass = traced.then(|| snap_obs::span(pass_name));
        let cpu = CpuPhase::start();
        phase.per_op.resize_with(self.ops.len(), Default::default);
        for (i, op) in self.ops.iter().enumerate() {
            let kind = (self.kind)(op);
            let t = Instant::now();
            let result = {
                let _span = traced.then(|| snap_obs::span(&format!("bench.{kind}")));
                pool.install(|| (self.run)(op))
            };
            let s = t.elapsed().as_secs_f64();
            phase.per_op[i][usize::from(parallel)].push(s * 1e3);
            phase
                .kind_ms
                .entry((kind, parallel))
                .or_default()
                .push(s * 1e3);
            let digest = (self.digest)(op, &result);
            if parallel {
                phase.op_ms.push(s * 1e3);
                *phase.kind_par_s.entry(kind).or_default() += s;
                for (name, c) in digest.counts {
                    *phase.counts.entry(name).or_default() += c;
                }
            }
            ledger.ok();
            ledger.check(fps.check(i, kind, digest.fingerprint));
        }
        if parallel {
            phase.par_passes += 1;
            phase.cpu_par.add(cpu.stop());
        }
    }

    /// One round: the op list at 1 thread and at nproc threads, the
    /// order alternating from round to round.
    fn round(
        &self,
        nproc: usize,
        traced: bool,
        fps: &mut PassFingerprints,
        ledger: &mut Ledger,
        phase: &mut Phase,
    ) {
        let serial_first = phase.rounds % 2 == 0;
        for parallel in [!serial_first, serial_first] {
            let threads = if parallel { nproc } else { 1 };
            self.pass(threads, parallel, traced, fps, ledger, phase);
        }
        phase.rounds += 1;
    }

    /// Run untraced rounds for `seconds`, and on until the parallel
    /// passes hold [`MIN_SAMPLES`] op latencies. After each round `setup`
    /// runs once, timed: set-ups spread over the run meet the same mix of
    /// host states as the ops, where a block of set-ups met one.
    pub fn measure(
        &self,
        nproc: usize,
        seconds: f64,
        setup: &mut dyn FnMut(),
        fps: &mut PassFingerprints,
        ledger: &mut Ledger,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while phase.rounds == 0
            || start.elapsed().as_secs_f64() < seconds
            || phase.op_ms.len() < MIN_SAMPLES
        {
            self.round(nproc, false, fps, ledger, &mut phase);
            let t = Instant::now();
            setup();
            phase.setup_s.push(t.elapsed().as_secs_f64());
        }
        phase
    }

    /// Run rounds for `seconds`, alternating untraced and traced ones, so
    /// that a drift in the host's speed hits both alike and their ratio
    /// is the tracing overhead. Returns the untraced phase, the traced
    /// phase and each traced round's report.
    pub fn measure_traced(
        &self,
        nproc: usize,
        seconds: f64,
        fps: &mut PassFingerprints,
        ledger: &mut Ledger,
    ) -> (Phase, Phase, Vec<(String, snap_obs::RunReport)>) {
        let (mut plain, mut traced) = (Phase::default(), Phase::default());
        let mut reports = Vec::new();
        let start = Instant::now();
        while traced.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
            self.round(nproc, false, fps, ledger, &mut plain);
            crate::start_tracing();
            self.round(nproc, true, fps, ledger, &mut traced);
            let name = format!("round.{}", traced.rounds);
            reports.push((name, crate::finish_tracing()));
        }
        (plain, traced, reports)
    }

    /// An untimed pass at nproc threads: every op is checked against
    /// `check` and must match the fingerprints of earlier passes. The
    /// warm-up is this pass with a check that always passes (its
    /// fingerprints are the ones every later pass must reproduce); the
    /// validation pass runs after timing, so its references do not count
    /// toward the peak memory of the run.
    pub fn validate(
        &self,
        nproc: usize,
        check: &dyn Fn(usize, &O, &R) -> Result<(), String>,
        fps: &mut PassFingerprints,
        ledger: &mut Ledger,
    ) {
        let pool = crate::thread_pool(nproc);
        for (i, op) in self.ops.iter().enumerate() {
            let result = pool.install(|| (self.run)(op));
            ledger.ok();
            ledger.check(check(i, op, &result));
            ledger.check(fps.check(i, (self.kind)(op), (self.digest)(op, &result).fingerprint));
        }
    }
}

/// Op latencies the untraced run collects at least, so that its p90
/// is reportable (with a margin).
const MIN_SAMPLES: usize = 110;

/// End-to-end figures of a batch phase.
/// `first_setup_s` is the set-up that made the measured input.
pub fn e2e_figures(phase: &mut Phase, first_setup_s: f64, out: &mut crate::Figures) {
    crate::setup_figures(first_setup_s, &phase.setup_s, out);
    out.put("ops_per_s", phase.ops_per_s(), "1/s");
    out.put_opt("op_ms.p50", phase.op_ms.pct(0.5), "ms");
    out.put_opt("op_ms.p90", phase.op_ms.pct(0.9), "ms");
    stats::tail_figures(&mut phase.op_ms, out);
    out.put("speedup", phase.speedup(), "x");
}

/// Per-kind p50 at both thread counts and their ratio.
pub fn kind_figures(phase: &Phase, prefix: &str, kind: &str, out: &mut crate::Figures) {
    if let (Some(p), Some(s)) = (phase.kind_p50(kind, true), phase.kind_p50(kind, false)) {
        out.put(format!("{prefix}.{kind}_ms.p50"), p, "ms");
        out.put(format!("{prefix}.{kind}_ms.p50_1t"), s, "ms");
        out.put(
            format!("{prefix}.{kind}_speedup"),
            stats::speedup(s, p),
            "x",
        );
    }
}

/// CPU use of the parallel passes.
pub fn cpu_figures(phase: &Phase, nproc: usize, out: &mut crate::Figures) {
    out.put("process.cpu_util", phase.cpu_par.util(nproc), "ratio");
    out.put("process.sys_frac", phase.cpu_par.sys_frac(), "ratio");
}
