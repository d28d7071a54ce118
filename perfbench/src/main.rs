//! The repository benchmark: end-to-end metrics of the VoroNet engine and
//! cluster from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine_mixed|cluster_serve|cluster_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with two JSON lines: a full report (environment
//! block, every end-to-end metric with its sample count, and with
//! `--trace 1` the per-layer metrics, the breakdowns, the span file and
//! the tracing overhead), then the contract line
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are the
//! end-to-end set of `BENCHMARK.json` (untraced) or its per-layer set
//! (traced).  A wrong answer stops the run with a non-zero exit and no
//! result.  Only the system's calls run on the clock: ops are drawn
//! before it resumes and answers are checked after it pauses.
//!
//! # Workloads
//!
//! All three are closed loops with one client: `Driver` is a blocking,
//! single-caller API, and `voronet-node drive` issues ops back to back
//! the same way.  The cluster is the driver thread plus one host thread
//! over the ideal in-process vnet — two threads, no real link.
//! `perfbench/design.json` gives each workload's reason and the layers it
//! loads or bypasses, and ties each per-layer metric to the end-to-end
//! metric and workload it should move.
//!
//! # What is left out, and why
//!
//! * **Open-loop arrival.**  Offered at a fixed rate, route p99s on a
//!   2-vCPU VM came out at 1.1, 6.6 and 111 ms in three runs: a lone
//!   spinning thread there sees about 60 pauses over 0.5 ms every 10 s,
//!   so an open-loop p99 does not repeat within a tenth.
//! * **Loopback UDP and more than one host.**  Idle vnet hosts spin on
//!   `yield_now` and idle UDP hosts sleep in 200 µs polls; with more
//!   threads than CPUs, or over UDP, the numbers would measure the
//!   scheduler and the poll interval rather than the system.  Both wait
//!   for blocking receives with deadlines in the transport.

mod cluster;
mod engine;
mod phase;
mod replay;
mod report;
mod sys;
mod trace;

use phase::{BenchError, Gate, Phase, Traced};
use report::{contract_line, find, metrics_json, Json, Metric};
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics of `BENCHMARK.json`: every workload emits
/// each of them, never zero.
pub const CONTRACT_E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`.  Every traced run emits
/// each of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("geom.insert_us", "us"),
    ("overlay.insert_us", "us"),
    ("overlay.remove_us", "us"),
    ("overlay.live_walk_ns", "ns"),
    ("snapshot.walk_ns", "ns"),
    ("snapshot.walk_ns_per_hop", "ns"),
    ("snapshot.hops_per_route", "count"),
    ("snapshot.refresh_us", "us"),
    ("snapshot.patched_rows_per_refresh", "count"),
    ("snapshot.full_rebuilds", "count"),
    ("queries.flood_us", "us"),
    ("queries.visited_per_query", "count"),
    ("queries.match_ratio", "ratio"),
    ("engine.apply_batch_ns_per_op", "ns"),
    ("engine.overhead_ns_per_op", "ns"),
    ("engine.read_runs_per_batch", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.frames_per_op", "count"),
    ("wire.bytes_per_op", "B"),
    ("transport.send_ns", "ns"),
    ("transport.queue_us", "us"),
    ("transport.recv_hit_ratio", "ratio"),
    ("host.handler_us", "us"),
    ("host.frames_per_op", "count"),
    ("host.busy_share", "ratio"),
    ("driver.wait_us_per_op", "us"),
    ("driver.compute_us_per_op", "us"),
    ("driver.views_shipped_per_churn", "count"),
    ("driver.view_ship_ratio", "ratio"),
    ("driver.ack_wait_us_per_churn", "us"),
    ("driver.retries", "count"),
    ("driver.fast_resends", "count"),
    ("driver.fail_fast", "count"),
    ("proc.cpu_us_per_op.main", "us"),
    ("proc.cpu_us_per_op.other", "us"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `SyncEngine::apply_batch`, read-heavy batches.
    EngineMixed,
    /// Cluster reads: routes, KV and range queries, no churn.
    ClusterServe,
    /// Cluster writes: joins and leaves, checked by reads.
    ClusterChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "engine_mixed" => Some(Workload::EngineMixed),
            "cluster_serve" => Some(Workload::ClusterServe),
            "cluster_churn" => Some(Workload::ClusterChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EngineMixed => "engine_mixed",
            Workload::ClusterServe => "cluster_serve",
            Workload::ClusterChurn => "cluster_churn",
        }
    }

    fn shape(self) -> &'static sys::Shape {
        match self {
            Workload::EngineMixed => &engine::SHAPE,
            _ => &cluster::SHAPE,
        }
    }
}

/// Sizes for every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    engine: engine::Size,
    cluster: cluster::Size,
}

/// The benchmark's sizes.
pub const FULL: Sizes = Sizes {
    engine: engine::FULL,
    cluster: cluster::FULL,
};

/// The self-test's sizes.
#[cfg(test)]
pub const SMOKE: Sizes = Sizes {
    engine: engine::SMOKE,
    cluster: cluster::SMOKE,
};

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    gate: Gate,
}

/// What a run prints.
pub struct Output {
    /// The full report line.
    pub report: Json,
    /// The contract line.
    pub contract: Json,
    /// The contract metrics, for the self-test.
    pub metrics: Vec<Metric>,
}

fn usage() -> String {
    "usage: voronet-perfbench --workload <engine_mixed|cluster_serve|cluster_churn> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_owned()
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: bad value {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        sizes: FULL,
        gate: Gate::default(),
    })
}

fn mix(w: Workload) -> cluster::Mix {
    match w {
        Workload::ClusterChurn => cluster::Mix::Churn,
        _ => cluster::Mix::Serve,
    }
}

/// The untraced phase of a run.
fn untraced(run: &Run) -> Result<Phase, BenchError> {
    match run.workload {
        Workload::EngineMixed => engine::run(run.seed, run.seconds, run.sizes.engine, run.gate),
        w => cluster::run(run.seed, run.seconds, run.sizes.cluster, mix(w), run.gate),
    }
}

/// The traced phase, replaying the first `calls` calls of the stream.
fn traced(run: &Run, calls: usize) -> Result<Traced, BenchError> {
    match run.workload {
        Workload::EngineMixed => engine::run_traced(run.seed, run.sizes.engine, run.gate),
        w => cluster::run_traced(run.seed, calls, run.sizes.cluster, mix(w), run.gate),
    }
}

/// Picks `wanted` out of `have`, failing when one is missing.
fn select(have: &[Metric], wanted: &[(&str, &str)]) -> Result<Vec<Metric>, BenchError> {
    wanted
        .iter()
        .map(|&(name, unit)| {
            let m = find(have, name)
                .ok_or_else(|| BenchError::Incomplete(format!("{name} was not measured")))?;
            assert_eq!(m.unit, unit, "{name} is declared in {unit}");
            Ok(m.clone())
        })
        .collect()
}

/// Completes a workload's per-layer metrics with 0 for every layer it
/// bypasses, in `PER_LAYER` order.
fn complete_layers(measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        assert!(
            PER_LAYER.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "{} ({}) is not a declared per-layer metric",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            find(measured, name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0))
        })
        .collect()
}

/// Where the traced run writes its spans.
fn span_path(run: &Run) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.tsv",
            run.workload.name(),
            run.seed
        ))
}

/// Runs one workload and assembles both output lines.
pub fn execute(run: &Run) -> Result<Output, BenchError> {
    let phase = untraced(run)?;
    let e2e = phase.e2e();
    let shape = run.workload.shape();
    let mut report = vec![
        ("workload", Json::str(run.workload.name())),
        ("env", sys::env_block(run.seed, shape, phase.steal_share)),
        ("end_to_end", metrics_json(&e2e, true)),
        (
            "ops_per_s_by_slice",
            Json::Arr(
                phase
                    .slice_ops_per_s
                    .iter()
                    .map(|&x| Json::Num(x))
                    .collect(),
            ),
        ),
    ];
    let (metrics, attempted, failed) = if run.trace {
        let Traced {
            phase: t_phase,
            layers: mut measured,
            breakdown,
            spans,
        } = traced(run, phase.calls)?;
        let t_e2e = t_phase.e2e();
        let per_op = 1e6 / t_phase.completed().max(1) as f64;
        measured.extend([
            Metric::new("proc.cpu_us_per_op.main", "us", t_phase.main_cpu_s * per_op),
            Metric::new(
                "proc.cpu_us_per_op.other",
                "us",
                (t_phase.cpu_s - t_phase.main_cpu_s).max(0.0) * per_op,
            ),
        ]);
        let layers = complete_layers(&measured);
        let path = span_path(run);
        trace::write_span_file(&path, &spans)
            .map_err(|e| BenchError::System(format!("writing {}: {e}", path.display())))?;
        // VmHWM cannot be reset between the phases, so the traced peak
        // includes the untraced one and has no meaningful difference.
        let overhead: Vec<Metric> = t_e2e
            .iter()
            .filter(|t| t.name != "peak_rss_mb")
            .filter_map(|t| {
                find(&e2e, &t.name).map(|u| Metric::new(t.name.clone(), t.unit, t.value - u.value))
            })
            .collect();
        report.extend([
            ("traced_end_to_end", metrics_json(&t_e2e, true)),
            ("tracing_overhead", metrics_json(&overhead, false)),
            ("per_layer", metrics_json(&layers, false)),
            ("breakdown", metrics_json(&breakdown, true)),
            ("span_file", Json::str(path.display().to_string())),
            ("spans", Json::Int(spans.len() as u64)),
        ]);
        (
            layers,
            phase.attempted + t_phase.attempted,
            phase.failed + t_phase.failed,
        )
    } else {
        let contract_e2e = select(&e2e, &CONTRACT_E2E).inspect_err(|_| {
            eprintln!("measured: {}", metrics_json(&e2e, true));
        })?;
        (contract_e2e, phase.attempted, phase.failed)
    };
    Ok(Output {
        report: Json::obj(report),
        contract: contract_line(true, attempted, failed, &metrics),
        metrics,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match execute(&run) {
        Ok(out) => {
            println!("{}", out.report);
            println!("{}", out.contract);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", run.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::EngineMixed,
        Workload::ClusterServe,
        Workload::ClusterChurn,
    ];

    fn smoke(workload: Workload, trace: bool, gate: Gate) -> Run {
        Run {
            workload,
            seed: 7,
            seconds: 0.5,
            trace,
            sizes: SMOKE,
            gate,
        }
    }

    fn read(file: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn every_named_metric_is_emitted_once_with_its_unit() {
        for workload in ALL {
            for trace in [false, true] {
                let out = execute(&smoke(workload, trace, Gate::default()))
                    .unwrap_or_else(|e| panic!("{workload:?} trace={trace}: {e}"));
                let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &CONTRACT_E2E };
                let got: Vec<(&str, &str)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit))
                    .collect();
                assert_eq!(got, want, "{workload:?} trace={trace}");
                assert!(out.metrics.iter().all(|m| m.value.is_finite()));
                if !trace {
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{workload:?}");
                }
                let line = out.contract.to_string();
                for (name, unit) in want {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert_eq!(line.matches(&entry).count(), 1, "{name} in {line}");
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
            }
        }
    }

    #[test]
    fn the_report_carries_the_end_to_end_metrics_of_each_workload() {
        let common = [
            "setup_s",
            "peak_rss_mb",
            "ops_per_s",
            "error_rate",
            "cpu_us_per_op",
        ];
        let own: [(Workload, &[&str]); 3] = [
            (Workload::EngineMixed, &[]),
            (
                Workload::ClusterServe,
                &[
                    "route_p50_us",
                    "route_p99_us",
                    "kv_get_p50_us",
                    "kv_get_p99_us",
                    "kv_put_p50_us",
                    "range_p50_us",
                ],
            ),
            (Workload::ClusterChurn, &["join_p50_us", "leave_p50_us"]),
        ];
        for (workload, names) in own {
            let out = execute(&smoke(workload, false, Gate::default())).expect("smoke run");
            let report = out.report.to_string();
            for name in common.iter().chain(names) {
                assert!(
                    report.contains(&format!("\"{name}\": ")),
                    "{workload:?} {name}"
                );
            }
            assert!(report.contains("\"oversubscribed\": false"));
        }
    }

    /// `driver.compute_us + driver.wait_us` is the call time by
    /// construction, so the split is checked against an account taken on
    /// the other side: for at least 85 % of the time the driver counts as
    /// waiting, the op's frames must be queued between the wrappers or in
    /// a host handler.  Driver work misfiled as waiting would show as a
    /// shortfall.
    #[test]
    fn the_driver_wait_of_each_cluster_op_kind_is_host_side_time() {
        for mix in [cluster::Mix::Serve, cluster::Mix::Churn] {
            let t = cluster::run_traced(7, 400, cluster::SMOKE, mix, Gate::default())
                .expect("traced smoke run");
            for (kind, _) in &t.phase.kinds {
                let value = |what: &str| {
                    let name = format!("driver.{what}.{kind}");
                    find(&t.breakdown, &name).map(|m| m.value).expect(&name)
                };
                assert!(value("compute_us") >= 0.0 && value("wait_us") > 0.0);
                let covered = value("wait_covered_share");
                assert!(
                    (0.85..=1.0 + 1e-9).contains(&covered),
                    "{mix:?} {kind}: {covered:.3} of the driver's wait is host-side time"
                );
            }
            assert!(find(&t.breakdown, "driver.call_us.setup_join").is_some());
        }
    }

    #[test]
    fn the_gate_rejects_a_wrong_expected_answer() {
        for workload in ALL {
            let tampered = Gate { tamper: true };
            match execute(&smoke(workload, false, tampered)) {
                Err(BenchError::WrongAnswer(_)) => {}
                Err(e) => panic!("{workload:?}: expected a wrong answer, got {e}"),
                Ok(_) => panic!("{workload:?}: a wrong expected answer passed the gate"),
            }
        }
    }

    #[test]
    fn benchmark_json_and_design_name_the_same_metrics() {
        let bench = read("../BENCHMARK.json");
        let design = read("design.json");
        for (name, unit) in CONTRACT_E2E.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(
                bench.matches(&entry).count(),
                1,
                "BENCHMARK.json lists {name}"
            );
        }
        for (name, _) in PER_LAYER {
            assert!(
                design.contains(&format!("\"{name}\"")),
                "design.json maps {name}"
            );
        }
        for workload in ALL {
            assert!(design.contains(&format!("\"{}\"", workload.name())));
        }
        let listed = bench.matches("\"why\": ").count();
        let known = ALL
            .iter()
            .filter(|w| bench.contains(&format!("\"name\": \"{}\"", w.name())))
            .count();
        assert!(
            listed >= 2 && listed == known,
            "BENCHMARK.json lists known workloads"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let run = parse_args(&args(
            "--workload cluster_churn --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(run.workload, Workload::ClusterChurn);
        assert!(run.trace && run.seed == 3 && run.seconds == 10.0);
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload engine_mixed --seed 3 --seconds 10",
            "--workload engine_mixed --seed 3 --seconds 0 --trace 0",
            "--workload engine_mixed --seed 3 --seconds 10 --trace 2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
