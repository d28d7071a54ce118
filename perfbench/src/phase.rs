//! What one measured phase of a workload produced, the correctness gate,
//! and the end-to-end metrics derived from a phase.

use crate::report::{latency_metrics, Metric};
use crate::sys::{process_cpu_s, steal_ticks, thread_cpu_s};
use crate::trace::Span;
use std::time::{Duration, Instant};
use voronet_stats::summary::percentile;

/// The report lists the loop's throughput over slices this long, which
/// shows how steady the machine was during the run.
const SLICE: Duration = Duration::from_secs(1);

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum BenchError {
    /// The system gave an answer the gate knows to be wrong.
    WrongAnswer(String),
    /// The run could not produce a metric the contract requires.
    Incomplete(String),
    /// The system failed in a way the benchmark cannot measure around.
    System(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::WrongAnswer(m) => write!(f, "wrong answer: {m}"),
            BenchError::Incomplete(m) => write!(f, "incomplete run: {m}"),
            BenchError::System(m) => write!(f, "system failure: {m}"),
        }
    }
}

/// The correctness gate.  Every answer is checked outside the timed
/// interval; `tamper` swaps in a deliberately wrong expected answer so
/// the self-test can show the gate rejects it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gate {
    /// Corrupt the expected answer of every route check.
    pub tamper: bool,
}

impl Gate {
    /// Fails with `what` unless `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> Result<(), BenchError> {
        if ok {
            Ok(())
        } else {
            Err(BenchError::WrongAnswer(what()))
        }
    }

    /// The destination a route must reach: `to` itself, or a wrong one
    /// when tampering.
    pub fn route_expectation(&self, to: u64) -> u64 {
        if self.tamper {
            to ^ 1
        } else {
            to
        }
    }
}

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Until the system's calls have taken this much wall time.
    Time(Duration),
    /// Exactly this many client calls.
    Calls(usize),
}

impl Limit {
    /// True once the phase should stop; `timed` is the wall time of the
    /// calls so far.
    pub fn done(&self, timed: Duration, calls: usize) -> bool {
        match *self {
            Limit::Time(t) => timed >= t,
            Limit::Calls(n) => calls >= n,
        }
    }

    /// Calls still allowed after `calls`.
    pub fn remaining(&self, calls: usize) -> usize {
        match *self {
            Limit::Time(_) => usize::MAX,
            Limit::Calls(n) => n.saturating_sub(calls),
        }
    }
}

/// What a traced run produces.
pub struct Traced {
    /// End-to-end measurements of the traced calls.
    pub phase: Phase,
    /// Per-layer metrics the workload measures.
    pub layers: Vec<Metric>,
    /// Breakdowns for the report: by op kind and by frame kind.
    pub breakdown: Vec<Metric>,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// The clock of one measured loop.  It runs only between [`Meter::resume`]
/// and [`Meter::pause`], which the loops put around the system's calls:
/// drawing the ops and checking the answers stay outside the wall and CPU
/// totals.  Process CPU covers every thread (the host, the engine's
/// workers) while the calls run.
pub struct Meter {
    timed: Duration,
    cpu_s: f64,
    main_cpu_s: f64,
    open: Option<(Instant, f64, f64)>,
    slice_timed: Duration,
    slice_ops0: u64,
    ticks0: (u64, u64),
}

impl Meter {
    /// A stopped clock.
    pub fn start() -> Meter {
        Meter {
            timed: Duration::ZERO,
            cpu_s: 0.0,
            main_cpu_s: 0.0,
            open: None,
            slice_timed: Duration::ZERO,
            slice_ops0: 0,
            ticks0: steal_ticks(),
        }
    }

    /// Wall time the clock has run.
    pub fn timed(&self) -> Duration {
        self.timed
    }

    /// Starts the clock before the system's calls.
    pub fn resume(&mut self) {
        let main = thread_cpu_s();
        let cpu = process_cpu_s();
        self.open = Some((Instant::now(), cpu, main));
    }

    /// Stops the clock after the calls.
    pub fn pause(&mut self) {
        let (t0, cpu0, main0) = self.open.take().expect("pause follows resume");
        let wall = t0.elapsed();
        self.cpu_s += process_cpu_s() - cpu0;
        self.main_cpu_s += thread_cpu_s() - main0;
        self.timed += wall;
        self.slice_timed += wall;
    }

    /// Closes the current slice once it has timed [`SLICE`]; call once
    /// the answers of the last calls are counted.
    pub fn tick(&mut self, phase: &mut Phase) {
        if self.slice_timed < SLICE {
            return;
        }
        let ops = phase.completed() - self.slice_ops0;
        phase
            .slice_ops_per_s
            .push(ops as f64 / self.slice_timed.as_secs_f64());
        self.slice_timed = Duration::ZERO;
        self.slice_ops0 = phase.completed();
    }

    /// Stores the loop totals.  A trailing partial slice is dropped.
    pub fn finish(self, phase: &mut Phase) {
        phase.wall_s = self.timed.as_secs_f64();
        phase.cpu_s = self.cpu_s;
        phase.main_cpu_s = self.main_cpu_s;
        let (total, steal) = steal_ticks();
        phase.steal_share = steal.saturating_sub(self.ticks0.1) as f64
            / (total.saturating_sub(self.ticks0.0)).max(1) as f64;
    }
}

/// The measurements of one phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused or errored).
    pub failed: u64,
    /// Wall time of the system's calls in the measured loop, s.
    pub wall_s: f64,
    /// Process CPU while those calls ran, s.
    pub cpu_s: f64,
    /// The client thread's share of `cpu_s`, s.
    pub main_cpu_s: f64,
    /// Latency of every blocking client call by operation kind, µs.
    pub kinds: Vec<(&'static str, Vec<f64>)>,
    /// Client calls made.
    pub calls: usize,
    /// Throughput of each whole slice of the loop, ops/s.
    pub slice_ops_per_s: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// whole loop.
    pub steal_share: f64,
    /// `VmHWM` once set-up and warm-up were done, MiB: the system's
    /// footprint, before the loop's own latency samples accumulate.
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Records one client call of `kind` taking `us`.
    pub fn record(&mut self, kind: &'static str, us: f64) {
        self.calls += 1;
        match self.kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, v)) => v.push(us),
            None => self.kinds.push((kind, vec![us])),
        }
    }

    /// Completed (successful) operations.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The end-to-end metrics of this phase, named as in the report.
    pub fn e2e(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        if let Some(setup) = percentile(&self.setup_s, 0.5) {
            out.push(Metric {
                samples: Some(self.setup_s.len()),
                ..Metric::new("setup_s", "s", setup)
            });
        }
        out.push(Metric::new("peak_rss_mb", "MB", self.peak_rss_mb));
        let completed = self.completed();
        out.push(Metric {
            samples: Some(completed as usize),
            ..Metric::new("ops_per_s", "ops/s", completed as f64 / self.wall_s)
        });
        out.push(Metric {
            samples: Some(self.attempted as usize),
            ..Metric::new(
                "error_rate",
                "ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
        });
        out.push(Metric::new(
            "cpu_us_per_op",
            "us",
            self.cpu_s * 1e6 / completed.max(1) as f64,
        ));
        let calls: Vec<f64> = self.kinds.iter().flat_map(|(_, v)| v).copied().collect();
        out.extend(latency_metrics("call", &calls));
        if self.kinds.len() > 1 {
            for (kind, samples) in &self.kinds {
                out.extend(latency_metrics(kind, samples));
            }
        }
        out
    }
}
