//! `engine_mixed`: the in-process `SyncEngine::apply_batch` read path
//! under a mostly-read mixed batch stream.

use crate::phase::{BenchError, Gate, Limit, Meter, Phase, Traced};
use crate::replay::{geom_insert_us, replay, ReadPath, ReplayOp, ReplayResult};
use crate::report::Metric;
use crate::sys::Shape;
use crate::trace::{new_log, next_span_id, now_ns, record, Span, SpanLog};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;
use voronet_api::{Op, OpResult, Overlay, SyncEngine};
use voronet_core::{ObjectId, VoroNet, VoroNetConfig};
use voronet_geom::{Point2, Rect};
use voronet_workloads::{Distribution, PointGenerator, QueryGenerator};

/// Worker threads of the engine's parallel read path.
const WORKERS: usize = 2;
/// Every this-many-th area query is checked against a brute-force scan.
const QUERY_CHECK_EVERY: u64 = 8;

/// How the machine is loaded.
pub const SHAPE: Shape = Shape {
    loop_type: "closed, 1 client",
    transport: "none (in-process engine)",
    hosts: 0,
    threads: WORKERS,
};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Objects placed at set-up.
    pub objects: usize,
    /// Operations per batch.
    pub batch: usize,
    /// Batches run before measuring (the first freeze happens here).
    pub warmup_batches: usize,
    /// Most batches the traced run replays.
    pub traced_batches: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    objects: 20_000,
    batch: 1024,
    warmup_batches: 20,
    traced_batches: 100,
    setups: 5,
};

/// The self-test's size.
#[cfg(test)]
pub const SMOKE: Size = Size {
    objects: 2_000,
    batch: 64,
    warmup_batches: 4,
    traced_batches: 12,
    setups: 1,
};

/// The seeded op stream plus the bench's own record of the live set.
struct Stream {
    rng: StdRng,
    points: PointGenerator,
    queries: QueryGenerator,
    live: Vec<ObjectId>,
    coords: HashMap<ObjectId, Point2>,
    queries_seen: u64,
}

impl Stream {
    /// 97 % routes between uniformly drawn live objects, 1 % small
    /// range/radius queries, 1 % inserts, 1 % removes.  A removed object
    /// leaves the draw pool at once, so no later op of the batch names
    /// it; inserted objects join the pool when the batch has answered.
    fn next_batch(&mut self, len: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let u: f64 = self.rng.random();
            let n = self.live.len();
            let pick = |rng: &mut StdRng| rng.random_range(0..n);
            let op = if u < 0.97 {
                let a = pick(&mut self.rng);
                let mut b = self.rng.random_range(0..n - 1);
                if b >= a {
                    b += 1;
                }
                Op::RouteBetween {
                    from: self.live[a],
                    to: self.live[b],
                }
            } else if u < 0.98 {
                let from = self.live[pick(&mut self.rng)];
                if self.rng.random::<bool>() {
                    Op::Range {
                        from,
                        query: self.queries.range_query(0.02),
                    }
                } else {
                    Op::Radius {
                        from,
                        query: self.queries.radius_query(0.01),
                    }
                }
            } else if u < 0.99 {
                Op::Insert {
                    position: self.points.next_point(),
                }
            } else {
                let i = pick(&mut self.rng);
                Op::Remove {
                    id: self.live.swap_remove(i),
                }
            };
            ops.push(op);
        }
        ops
    }

    /// Checks a batch's answers and brings the live set up to date.
    /// Returns the number of failed operations.
    fn settle(
        &mut self,
        ops: &[Op],
        results: &[OpResult],
        live_before: &[ObjectId],
        gate: Gate,
    ) -> Result<u64, BenchError> {
        gate.check(results.len() == ops.len(), || {
            format!("{} results for {} ops", results.len(), ops.len())
        })?;
        let mut failed = 0;
        let mut removed: Vec<ObjectId> = Vec::new();
        let mut inserted: Vec<ObjectId> = Vec::new();
        for (op, result) in ops.iter().zip(results) {
            if let OpResult::Failed(_) = result {
                failed += 1;
                if let Op::Remove { id } = op {
                    self.live.push(*id);
                }
                continue;
            }
            match (op, result) {
                (Op::RouteBetween { to, .. }, OpResult::Routed(r)) => {
                    let expected = ObjectId(gate.route_expectation(to.0));
                    gate.check(r.owner == expected, || {
                        format!("route to {to:?} ended at {:?}", r.owner)
                    })?;
                }
                (Op::Range { .. } | Op::Radius { .. }, OpResult::Queried(q)) => {
                    self.queries_seen += 1;
                    if self.queries_seen.is_multiple_of(QUERY_CHECK_EVERY) {
                        let inside = |p: Point2| match op {
                            Op::Range { query, .. } => query.rect.contains(p),
                            Op::Radius { query, .. } => {
                                p.distance2(query.center) <= query.radius * query.radius
                            }
                            _ => false,
                        };
                        let mut brute: Vec<ObjectId> = live_before
                            .iter()
                            .chain(&inserted)
                            .filter(|id| !removed.contains(id))
                            .copied()
                            .filter(|id| inside(self.coords[id]))
                            .collect();
                        brute.sort_unstable();
                        gate.check(brute == q.matches, || {
                            format!("query {op:?} matched {:?}, scan finds {brute:?}", q.matches)
                        })?;
                    }
                }
                (Op::Insert { position }, OpResult::Inserted(ins)) => {
                    self.coords.insert(ins.id, *position);
                    self.live.push(ins.id);
                    inserted.push(ins.id);
                }
                (Op::Remove { id }, OpResult::Removed(rem)) => {
                    gate.check(rem.id == *id, || format!("removed {:?} for {id:?}", rem.id))?;
                    removed.push(*id);
                }
                _ => {
                    return Err(BenchError::WrongAnswer(format!(
                        "{op:?} answered with {result:?}"
                    )))
                }
            }
        }
        for id in &removed {
            self.coords.remove(id);
        }
        Ok(failed)
    }
}

fn config(seed: u64, size: Size) -> VoroNetConfig {
    VoroNetConfig::new(size.objects).with_seed(seed)
}

/// One set-up: the skewed placement (PowerLaw α = 2, the paper's skewed
/// case) inserted into a fresh overlay, wrapped in the engine.  Returns
/// the engine, its stream, the set-up points and the set-up time.
fn set_up(seed: u64, size: Size) -> (SyncEngine, Stream, Vec<Point2>, f64) {
    let mut points = PointGenerator::new(Distribution::PowerLaw { alpha: 2.0 }, seed);
    let placement = points.take_points(size.objects);
    let start = Instant::now();
    let mut net = VoroNet::new(config(seed, size));
    let mut live = Vec::with_capacity(placement.len());
    let mut coords = HashMap::with_capacity(placement.len());
    for &p in &placement {
        if let Ok(report) = net.insert(p) {
            live.push(report.id);
            coords.insert(report.id, p);
        }
    }
    let engine = SyncEngine::from_net(net).with_threads(WORKERS);
    let setup_s = start.elapsed().as_secs_f64();
    let stream = Stream {
        rng: StdRng::seed_from_u64(seed ^ 0x5EED_0E16),
        points,
        queries: QueryGenerator::new(seed ^ 0x0E1E_5EED),
        live,
        coords,
        queries_seen: 0,
    };
    (engine, stream, placement, setup_s)
}

/// Runs batches of the stream until `limit`, checking every answer.
/// Only `apply_batch` runs on the meter's clock.  With `trace`, records an
/// `apply_batch` span per batch and keeps the ops and results for the
/// replay.
fn measure(
    engine: &mut SyncEngine,
    stream: &mut Stream,
    size: Size,
    limit: Limit,
    gate: Gate,
    trace: Option<(&SpanLog, &mut Vec<(Op, OpResult)>)>,
) -> Result<Phase, BenchError> {
    let mut phase = Phase::default();
    let mut trace = trace;
    let mut meter = Meter::start();
    while !limit.done(meter.timed(), phase.calls) {
        let live_before = stream.live.clone();
        let ops = stream.next_batch(size.batch);
        let first_op = phase.attempted;
        meter.resume();
        let start_ns = now_ns();
        let t0 = Instant::now();
        let results = engine.apply_batch(&ops);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let end_ns = now_ns();
        meter.pause();
        phase.record("batch", us);
        phase.attempted += ops.len() as u64;
        phase.failed += stream.settle(&ops, &results, &live_before, gate)?;
        if let Some((log, kept)) = trace.as_mut() {
            record(
                log,
                Span {
                    id: next_span_id(),
                    parent: 0,
                    op: first_op,
                    thread: 0,
                    layer: "api.sync_engine",
                    name: "engine.apply_batch",
                    start: start_ns,
                    end: end_ns,
                },
            );
            kept.extend(ops.into_iter().zip(results));
        }
        meter.tick(&mut phase);
    }
    meter.finish(&mut phase);
    Ok(phase)
}

/// The untraced measurement: `setups` set-ups, a warm-up, then batches
/// for `seconds`.
pub fn run(seed: u64, seconds: f64, size: Size, gate: Gate) -> Result<Phase, BenchError> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..size.setups {
        drop(last.take()); // free the previous overlay before building the next
        let (engine, stream, _, s) = set_up(seed, size);
        setup_s.push(s);
        last = Some((engine, stream));
    }
    let (mut engine, mut stream) = last.expect("at least one set-up");
    measure(
        &mut engine,
        &mut stream,
        size,
        Limit::Calls(size.warmup_batches),
        gate,
        None,
    )?;
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let limit = Limit::Time(std::time::Duration::from_secs_f64(seconds));
    let mut phase = measure(&mut engine, &mut stream, size, limit, gate, None)?;
    phase.setup_s = setup_s;
    phase.peak_rss_mb = peak_rss_mb;
    Ok(phase)
}

/// Number of maximal read-only runs in a batch.
fn read_runs<'a>(ops: impl IntoIterator<Item = &'a Op>) -> usize {
    let mut runs = 0;
    let mut in_run = false;
    for op in ops {
        if op.is_read_only() && !in_run {
            runs += 1;
        }
        in_run = op.is_read_only();
    }
    runs
}

fn same_answer(system: &OpResult, mirror: &ReplayResult) -> bool {
    match (system, mirror) {
        (OpResult::Routed(r), ReplayResult::Routed { owner, hops }) => {
            r.owner == *owner && r.hops == *hops
        }
        (
            OpResult::Queried(q),
            ReplayResult::Queried {
                matches,
                hops,
                visited,
            },
        ) => q.matches == *matches && q.routing_hops == *hops && q.visited == *visited,
        (OpResult::Inserted(i), ReplayResult::Inserted(id)) => i.id == *id,
        (OpResult::Removed(_), ReplayResult::Removed) => true,
        (OpResult::Failed(_), ReplayResult::Failed(_)) => true,
        _ => false,
    }
}

/// The traced run: a fresh set-up and warm-up, then the first
/// `traced_batches` batches of the same stream with an `apply_batch` span
/// each, then the same ops replayed through the core layers on a mirror
/// of the overlay, checked element by element against `apply_batch`.
pub fn run_traced(seed: u64, size: Size, gate: Gate) -> Result<Traced, BenchError> {
    let log = new_log();
    let (mut engine, mut stream, placement, setup) = set_up(seed, size);
    let warm = Limit::Calls(size.warmup_batches);
    measure(&mut engine, &mut stream, size, warm, gate, None)?;
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let mut mirror = engine.net().clone();
    let before = engine.snapshot_stats();
    let mut kept = Vec::new();
    let limit = Limit::Calls(size.traced_batches);
    let mut phase = measure(
        &mut engine,
        &mut stream,
        size,
        limit,
        gate,
        Some((&log, &mut kept)),
    )?;
    phase.setup_s = vec![setup];
    phase.peak_rss_mb = peak_rss_mb;
    let after = engine.snapshot_stats();

    let replay_ops: Vec<(u64, ReplayOp)> = kept
        .iter()
        .enumerate()
        .map(|(i, (op, _))| (i as u64, replay_op(op)))
        .collect();
    let (answers, core) = replay(&mut mirror, &replay_ops, ReadPath::Frozen, &log);
    for (i, ((op, system), mirror)) in kept.iter().zip(&answers).enumerate() {
        gate.check(same_answer(system, mirror), || {
            format!("op {i} {op:?}: apply_batch gave {system:?}, the replay {mirror:?}")
        })?;
    }

    let mut positions = placement;
    positions.extend(kept.iter().filter_map(|(op, _)| match op {
        Op::Insert { position } => Some(*position),
        _ => None,
    }));
    let geom = geom_insert_us(Rect::UNIT, &positions, &log);

    let ops = kept.len().max(1) as f64;
    let batch_ns: u64 = log
        .lock()
        .expect("span log poisoned")
        .spans
        .iter()
        .filter(|s| s.name == "engine.apply_batch")
        .map(Span::dur)
        .sum();
    let batches: Vec<&[(Op, OpResult)]> = kept.chunks(size.batch).collect();
    let runs: usize = batches
        .iter()
        .map(|b| read_runs(b.iter().map(|(op, _)| op)))
        .sum();
    let patches = after.delta_patches - before.delta_patches;
    let mut layers = vec![geom];
    layers.extend(core.metrics());
    layers.extend([
        Metric::new(
            "snapshot.patched_rows_per_refresh",
            "count",
            (after.patched_nodes - before.patched_nodes) as f64 / patches.max(1) as f64,
        ),
        Metric::new(
            "snapshot.full_rebuilds",
            "count",
            (after.full_rebuilds - before.full_rebuilds) as f64,
        ),
        Metric::new("engine.apply_batch_ns_per_op", "ns", batch_ns as f64 / ops),
        // CPU rather than wall: the walks of a read run are spread over
        // the workers, while the replay's self-times are serial.
        Metric::new(
            "engine.overhead_ns_per_op",
            "ns",
            (phase.cpu_s * 1e9 - core.system_ns as f64) / ops,
        ),
        Metric::new(
            "engine.read_runs_per_batch",
            "count",
            runs as f64 / batches.len().max(1) as f64,
        ),
    ]);
    let spans = std::mem::take(&mut log.lock().expect("span log poisoned").spans);
    Ok(Traced {
        phase,
        layers,
        breakdown: Vec::new(),
        spans,
    })
}

fn replay_op(op: &Op) -> ReplayOp {
    match *op {
        Op::Insert { position } => ReplayOp::Insert(position),
        Op::Remove { id } => ReplayOp::Remove(id),
        Op::RouteBetween { from, to } => ReplayOp::Route { from, to },
        Op::Route { from, target } => ReplayOp::RoutePoint { from, target },
        Op::Range { from, query } => ReplayOp::Range { from, query },
        Op::Radius { from, query } => ReplayOp::Radius { from, query },
        Op::Snapshot { .. } | Op::Service(_) => {
            unreachable!("the engine_mixed stream issues no snapshots or service ops")
        }
    }
}
