//! `cluster_serve` and `cluster_churn`: the driver plus one host over
//! the ideal in-process vnet, driven by one closed-loop client through
//! the public `Driver` methods.

use crate::phase::{BenchError, Gate, Limit, Meter, Phase, Traced};
use crate::replay::{geom_insert_us, replay, ReadPath, ReplayOp, ReplayResult};
use crate::report::Metric;
use crate::sys::{peak_rss_mb, Shape};
use crate::trace::{
    covered_ns, new_log, next_span_id, now_ns, record, self_times, FrameRec, Side, Span, SpanLog,
    ThreadTrace, TraceShared, TracedTransport,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use voronet_core::{ObjectId, VoroNet, VoroNetConfig};
use voronet_geom::{Point2, Rect};
use voronet_net::{
    ClusterError, Driver, HostNode, OpOutcome, Transport, VnetHub, VnetTransport, WireMsg,
    DRIVER_PEER,
};
use voronet_services::key_point;
use voronet_sim::NetworkModel;
use voronet_workloads::{Distribution, PointGenerator, QueryGenerator, RangeQuery, ZipfSampler};

/// The host peer of the one-host cluster.
const HOST: u64 = 1;
/// Every this-many-th KV answer has its owner checked by a scan.
const OWNER_CHECK_EVERY: u64 = 8;
/// Every this-many-th range answer is checked by a scan.
const RANGE_CHECK_EVERY: u64 = 4;
/// `cluster_serve` calls drawn, issued and checked together.
const SERVE_CHUNK: usize = 256;

/// How the machine is loaded.
pub const SHAPE: Shape = Shape {
    loop_type: "closed, 1 client",
    transport: "in-process vnet, no real link",
    hosts: 1,
    threads: 2,
};

/// Which op mix runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 70 % routes (Zipf(1.1) destination rank), 20 % `kv_get`, 5 %
    /// `kv_put` overwrites, 5 % range queries; no membership change.
    Serve,
    /// 40 % inserts, 40 % removes, 10 % routes, 10 % `kv_get`.
    Churn,
}

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Objects inserted at set-up.
    pub objects: usize,
    /// KV keys put at set-up.
    pub keys: usize,
    /// Client calls before measuring, per mix.
    pub warmup: [usize; 2],
    /// Most client calls the traced run replays, per mix.
    pub traced_cap: [usize; 2],
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    objects: 2_000,
    keys: 1_000,
    warmup: [2_000, 20],
    traced_cap: [30_000, 100_000],
    setups: 5,
};

/// The self-test's size.
#[cfg(test)]
pub const SMOKE: Size = Size {
    objects: 150,
    keys: 60,
    warmup: [50, 5],
    traced_cap: [2_000, 300],
    setups: 1,
};

impl Mix {
    fn slot(self) -> usize {
        match self {
            Mix::Serve => 0,
            Mix::Churn => 1,
        }
    }
}

/// One client operation, by live-object index as `Driver` takes it.
#[derive(Debug, Clone, Copy)]
enum ClientOp {
    Route { from: usize, to: usize },
    KvGet { from: usize, key: u64 },
    KvPut { from: usize, key: u64, value: u64 },
    Range { from: usize, query: RangeQuery },
    Join(Point2),
    Leave(usize),
}

impl ClientOp {
    fn kind(&self) -> &'static str {
        match self {
            ClientOp::Route { .. } => "route",
            ClientOp::KvGet { .. } => "kv_get",
            ClientOp::KvPut { .. } => "kv_put",
            ClientOp::Range { .. } => "range",
            ClientOp::Join(_) => "join",
            ClientOp::Leave(_) => "leave",
        }
    }

    fn is_churn(&self) -> bool {
        matches!(self, ClientOp::Join(_) | ClientOp::Leave(_))
    }
}

/// The seeded op stream.
struct Stream {
    mix: Mix,
    rng: StdRng,
    points: PointGenerator,
    queries: QueryGenerator,
    zipf: ZipfSampler,
    keys: Vec<u64>,
}

impl Stream {
    fn next(&mut self, population: usize) -> ClientOp {
        let u: f64 = self.rng.random();
        let any = |rng: &mut StdRng| rng.random_range(0..population);
        let key = |s: &mut Self| s.keys[s.rng.random_range(0..s.keys.len())];
        match self.mix {
            Mix::Serve if u < 0.70 => {
                let from = any(&mut self.rng);
                let to = self.zipf.rank_of(self.rng.random()) % population;
                ClientOp::Route { from, to }
            }
            Mix::Serve if u < 0.90 => ClientOp::KvGet {
                from: any(&mut self.rng),
                key: key(self),
            },
            Mix::Serve if u < 0.95 => ClientOp::KvPut {
                from: any(&mut self.rng),
                key: key(self),
                value: self.rng.random(),
            },
            Mix::Serve => ClientOp::Range {
                from: any(&mut self.rng),
                query: self.queries.range_query(0.05),
            },
            Mix::Churn if u < 0.40 => ClientOp::Join(self.points.next_point()),
            Mix::Churn if u < 0.80 => ClientOp::Leave(any(&mut self.rng)),
            Mix::Churn if u < 0.90 => ClientOp::Route {
                from: any(&mut self.rng),
                to: any(&mut self.rng),
            },
            Mix::Churn => ClientOp::KvGet {
                from: any(&mut self.rng),
                key: key(self),
            },
        }
    }
}

/// A running cluster: the driver on this thread, one host thread.
struct Cluster<T: Transport + Send + 'static> {
    driver: Driver<T>,
    host: JoinHandle<Result<(), ClusterError>>,
}

impl<T: Transport + Send + 'static> Cluster<T> {
    fn start(config: VoroNetConfig, wrap: impl Fn(VnetTransport, Side) -> T) -> Self {
        let hub = VnetHub::new(NetworkModel::ideal());
        let driver = Driver::new(wrap(hub.endpoint(DRIVER_PEER), Side::Driver), 1, config);
        let endpoint = wrap(hub.endpoint(HOST), Side::Host);
        let host = std::thread::spawn(move || HostNode::new(endpoint, HOST, 1).run());
        Cluster { driver, host }
    }

    fn shutdown(mut self) -> Result<(), BenchError> {
        self.driver.shutdown_hosts().map_err(system)?;
        self.host
            .join()
            .map_err(|_| BenchError::System("host thread panicked".to_owned()))?
            .map_err(system)
    }
}

fn system(e: ClusterError) -> BenchError {
    BenchError::System(e.to_string())
}

fn config(seed: u64, size: Size) -> VoroNetConfig {
    VoroNetConfig::new(2 * size.objects).with_seed(seed)
}

/// Inputs of the set-up, drawn from the seed before any timing.
struct SetupPlan {
    points: Vec<Point2>,
    puts: Vec<(usize, u64, u64)>,
}

fn plan(seed: u64, size: Size) -> SetupPlan {
    let points = PointGenerator::new(Distribution::Uniform, seed).take_points(size.objects);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6B65_7973);
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < size.keys {
        keys.insert(rng.random::<u64>());
    }
    let puts = keys
        .into_iter()
        .map(|k| (rng.random_range(0..size.objects), k, rng.random::<u64>()))
        .collect();
    SetupPlan { points, puts }
}

fn stream(seed: u64, size: Size, mix: Mix, plan: &SetupPlan) -> Stream {
    Stream {
        mix,
        rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00),
        points: PointGenerator::new(Distribution::Uniform, seed ^ 0x0001_0000),
        queries: QueryGenerator::new(seed ^ 0x0002_0000),
        zipf: ZipfSampler::new(size.objects, 1.1),
        keys: plan.puts.iter().map(|&(_, k, _)| k).collect(),
    }
}

/// The last acked value of every KV key.
type Model = HashMap<u64, u64>;

/// Op ids of traced set-up joins start here, above any measured op.
const SETUP_OP: u64 = 1 << 40;

/// Starts a cluster and loads it: every set-up point through
/// `Driver::insert`, then every KV key through `Driver::kv_put`.  With
/// `trace`, the inserts run with tracing on, each as an op of its own.
/// Returns the cluster, the model of acked puts and the set-up time.
fn set_up<T: Transport + Send + 'static>(
    config: VoroNetConfig,
    plan: &SetupPlan,
    wrap: impl Fn(VnetTransport, Side) -> T,
    trace: Option<(&SpanLog, &TraceShared)>,
) -> Result<(Cluster<T>, Model, f64), BenchError> {
    let start = Instant::now();
    let mut cluster = Cluster::start(config, wrap);
    if let Some((_, shared)) = trace {
        shared.set_enabled(true);
    }
    for (i, &p) in plan.points.iter().enumerate() {
        let span = trace.map(|(_, shared)| {
            let id = next_span_id();
            shared.begin_op(SETUP_OP + i as u64, id);
            (id, now_ns())
        });
        cluster.driver.insert(p).map_err(system)?;
        if let (Some((log, _)), Some((id, start))) = (trace, span) {
            record(
                log,
                Span {
                    id,
                    parent: 0,
                    op: SETUP_OP + i as u64,
                    thread: 0,
                    layer: "net.cluster.driver",
                    name: "driver.insert",
                    start,
                    end: now_ns(),
                },
            );
        }
    }
    if let Some((_, shared)) = trace {
        shared.set_enabled(false);
    }
    let mut model = HashMap::new();
    for &(from, key, value) in &plan.puts {
        cluster.driver.kv_put(from, key, value).map_err(system)?;
        model.insert(key, value);
    }
    Ok((cluster, model, start.elapsed().as_secs_f64()))
}

/// What the cluster answered, kept by the traced run for the replay.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Route { owner: u64, hops: u32 },
    Owner(u64),
    Matches { matches: Vec<u64>, hops: u32 },
    Joined(u64),
    Left,
    Failed,
}

/// One traced client op.
struct Issued {
    kind: &'static str,
    churn: bool,
    population: usize,
    replay: ReplayOp,
    answer: Answer,
}

/// The nearest live object to `p` (the owner of `p`'s cell), by scan.
fn nearest(net: &VoroNet, p: Point2) -> Option<u64> {
    net.ids()
        .filter_map(|id| net.coords(id).map(|c| (c.distance2(p), id)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, id)| id.0)
}

/// The client loop's state.
struct Client<'a> {
    stream: Stream,
    model: Model,
    gate: Gate,
    checks: u64,
    trace: Option<(&'a SpanLog, &'a TraceShared, Vec<Issued>)>,
}

impl Client<'_> {
    /// Issues calls until `limit`, timing each and checking its answer.
    /// The ops of a chunk are drawn and resolved to object ids before the
    /// meter's clock runs, and answered after it stops.
    fn measure<T: Transport>(
        &mut self,
        driver: &mut Driver<T>,
        limit: Limit,
    ) -> Result<Phase, BenchError> {
        // A chunk's answers are checked against the overlay after its
        // last call, which is only right when no call changes membership.
        let chunk = match self.stream.mix {
            Mix::Serve => SERVE_CHUNK,
            Mix::Churn => 1,
        };
        let mut phase = Phase::default();
        let mut meter = Meter::start();
        let mut planned = Vec::with_capacity(chunk);
        let mut answered = Vec::with_capacity(chunk);
        while !limit.done(meter.timed(), phase.calls) {
            let population = driver.population();
            let net = driver.net();
            let id_at = |i: usize| net.id_at(i % population).expect("index below population");
            planned.clear();
            for _ in 0..chunk.min(limit.remaining(phase.calls)) {
                let op = self.stream.next(population);
                let replay = match op {
                    ClientOp::Route { from, to } => ReplayOp::Route {
                        from: id_at(from),
                        to: id_at(to),
                    },
                    ClientOp::KvGet { from, key } | ClientOp::KvPut { from, key, .. } => {
                        ReplayOp::RoutePoint {
                            from: id_at(from),
                            target: key_point(key, Rect::UNIT),
                        }
                    }
                    ClientOp::Range { from, query } => ReplayOp::Range {
                        from: id_at(from),
                        query,
                    },
                    ClientOp::Join(p) => ReplayOp::Insert(p),
                    ClientOp::Leave(i) => ReplayOp::Remove(id_at(i)),
                };
                planned.push((op, replay));
            }
            meter.resume();
            for (n, &(op, _)) in planned.iter().enumerate() {
                let op_id = (phase.calls + n) as u64;
                let span = self.trace.as_ref().map(|(_, shared, _)| {
                    let id = next_span_id();
                    shared.begin_op(op_id, id);
                    (id, now_ns())
                });
                let t0 = Instant::now();
                let outcome = match op {
                    ClientOp::Route { from, to } => driver.route_indices(from, to),
                    ClientOp::KvGet { from, key } => driver.kv_get(from, key),
                    ClientOp::KvPut { from, key, value } => driver.kv_put(from, key, value),
                    ClientOp::Range { from, query } => driver.range_query(from, query),
                    ClientOp::Join(p) => driver.insert(p).map(OpOutcome::Inserted),
                    ClientOp::Leave(i) => driver.remove_index(i).map(OpOutcome::Removed),
                };
                let us = t0.elapsed().as_secs_f64() * 1e6;
                if let (Some((log, _, _)), Some((id, start))) = (self.trace.as_ref(), span) {
                    record(
                        log,
                        Span {
                            id,
                            parent: 0,
                            op: op_id,
                            thread: 0,
                            layer: "net.cluster.driver",
                            name: op_span_name(op.kind()),
                            start,
                            end: now_ns(),
                        },
                    );
                }
                answered.push((us, outcome));
            }
            meter.pause();
            for (&(op, replay), (us, outcome)) in planned.iter().zip(answered.drain(..)) {
                phase.record(op.kind(), us);
                phase.attempted += 1;
                let answer = self.check(driver.net(), op, replay, outcome)?;
                if answer == Answer::Failed {
                    phase.failed += 1;
                }
                if let Some((_, _, issued)) = self.trace.as_mut() {
                    issued.push(Issued {
                        kind: op.kind(),
                        churn: op.is_churn(),
                        population,
                        replay,
                        answer,
                    });
                }
            }
            meter.tick(&mut phase);
        }
        meter.finish(&mut phase);
        Ok(phase)
    }

    /// The correctness gate for one answer; `net` is the driver's
    /// authoritative overlay after the call.
    fn check(
        &mut self,
        net: &VoroNet,
        op: ClientOp,
        replay: ReplayOp,
        outcome: Result<OpOutcome, ClusterError>,
    ) -> Result<Answer, BenchError> {
        let Ok(outcome) = outcome else {
            return Ok(Answer::Failed);
        };
        self.checks += 1;
        let gate = self.gate;
        let sample = |every: u64| self.checks.is_multiple_of(every);
        match (op, replay, outcome) {
            (_, ReplayOp::Route { to, .. }, OpOutcome::Route { owner, hops }) => {
                gate.check(owner == gate.route_expectation(to.0), || {
                    format!("route to {to:?} ended at {owner}")
                })?;
                Ok(Answer::Route { owner, hops })
            }
            (ClientOp::KvGet { key, .. }, ReplayOp::RoutePoint { target, .. }, out) => {
                let OpOutcome::KvFetched { value, owner, .. } = out else {
                    return Err(BenchError::WrongAnswer(format!("kv_get answered {out:?}")));
                };
                let acked = self.model.get(&key).copied();
                gate.check(value == acked, || {
                    format!("kv_get {key} returned {value:?}, last acked put {acked:?}")
                })?;
                if sample(OWNER_CHECK_EVERY) {
                    let want = nearest(net, target);
                    gate.check(Some(owner) == want, || {
                        format!("kv_get {key} read owner {owner}, nearest is {want:?}")
                    })?;
                }
                Ok(Answer::Owner(owner))
            }
            (ClientOp::KvPut { key, value, .. }, ReplayOp::RoutePoint { target, .. }, out) => {
                let OpOutcome::KvStored { owner, .. } = out else {
                    return Err(BenchError::WrongAnswer(format!("kv_put answered {out:?}")));
                };
                self.model.insert(key, value);
                if sample(OWNER_CHECK_EVERY) {
                    let want = nearest(net, target);
                    gate.check(Some(owner) == want, || {
                        format!("kv_put {key} stored at {owner}, nearest is {want:?}")
                    })?;
                }
                Ok(Answer::Owner(owner))
            }
            (ClientOp::Range { query, .. }, _, OpOutcome::Matches { matches, hops, .. }) => {
                if sample(RANGE_CHECK_EVERY) {
                    let mut scan: Vec<u64> = net
                        .ids()
                        .filter(|&id| net.coords(id).is_some_and(|c| query.rect.contains(c)))
                        .map(|id| id.0)
                        .collect();
                    scan.sort_unstable();
                    gate.check(scan == matches, || {
                        format!("range {query:?} matched {matches:?}, scan finds {scan:?}")
                    })?;
                }
                Ok(Answer::Matches { matches, hops })
            }
            (ClientOp::Join(_), _, OpOutcome::Inserted(Some(id))) => {
                gate.check(net.contains(ObjectId(id)), || {
                    format!("joined object {id} is not live")
                })?;
                Ok(Answer::Joined(id))
            }
            (ClientOp::Leave(_), ReplayOp::Remove(want), OpOutcome::Removed(Some(id))) => {
                gate.check(id == want.0 && !net.contains(want), || {
                    format!("leave of {want:?} removed {id}")
                })?;
                Ok(Answer::Left)
            }
            (_, _, OpOutcome::Inserted(None) | OpOutcome::Removed(None)) => Ok(Answer::Failed),
            (op, _, out) => Err(BenchError::WrongAnswer(format!("{op:?} answered {out:?}"))),
        }
    }
}

fn op_span_name(kind: &str) -> &'static str {
    match kind {
        "route" => "driver.route_indices",
        "kv_get" => "driver.kv_get",
        "kv_put" => "driver.kv_put",
        "range" => "driver.range_query",
        "join" => "driver.insert",
        _ => "driver.remove_index",
    }
}

/// The untraced measurement: `setups` set-ups over the bare vnet
/// transport, a warm-up, then calls for `seconds`.
pub fn run(seed: u64, seconds: f64, size: Size, mix: Mix, gate: Gate) -> Result<Phase, BenchError> {
    let plan = plan(seed, size);
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..size.setups {
        if let Some((cluster, _)) = last.take() {
            Cluster::shutdown(cluster)?;
        }
        let (cluster, model, s) = set_up(config(seed, size), &plan, |t, _| t, None)?;
        setup_s.push(s);
        last = Some((cluster, model));
    }
    let (mut cluster, model) = last.expect("at least one set-up");
    let mut client = Client {
        stream: stream(seed, size, mix, &plan),
        model,
        gate,
        checks: 0,
        trace: None,
    };
    client.measure(&mut cluster.driver, Limit::Calls(size.warmup[mix.slot()]))?;
    let peak_rss_mb = peak_rss_mb();
    let limit = Limit::Time(Duration::from_secs_f64(seconds));
    let mut phase = client.measure(&mut cluster.driver, limit)?;
    cluster.shutdown()?;
    phase.setup_s = setup_s;
    phase.peak_rss_mb = peak_rss_mb;
    Ok(phase)
}

/// The traced run: a fresh set-up over [`TracedTransport`] with its joins
/// traced, the same warm-up, then the first `calls` calls of the same
/// stream with tracing on; afterwards the same ops are replayed through
/// the core layers on a mirror of the driver's overlay and checked
/// against the cluster's answers.
pub fn run_traced(
    seed: u64,
    calls: usize,
    size: Size,
    mix: Mix,
    gate: Gate,
) -> Result<Traced, BenchError> {
    let plan = plan(seed, size);
    let shared = Arc::new(TraceShared::default());
    let (driver_log, host_log, replay_log) = (new_log(), new_log(), new_log());
    let wrap = |t: VnetTransport, side: Side| {
        let log = match side {
            Side::Driver => driver_log.clone(),
            Side::Host => host_log.clone(),
        };
        TracedTransport::new(t, side, shared.clone(), log)
    };
    let traced_setup = Some((&driver_log, &*shared));
    let (mut cluster, model, setup) = set_up(config(seed, size), &plan, wrap, traced_setup)?;
    // The set-up joins' records are kept apart from the measured calls'.
    let setup_driver = std::mem::take(&mut *driver_log.lock().expect("span log poisoned"));
    let setup_host = std::mem::take(&mut *host_log.lock().expect("span log poisoned"));
    let setup_joins: Vec<(u64, usize)> = (0..plan.points.len())
        .map(|i| (SETUP_OP + i as u64, i))
        .collect();
    let mut client = Client {
        stream: stream(seed, size, mix, &plan),
        model,
        gate,
        checks: 0,
        trace: None,
    };
    client.measure(&mut cluster.driver, Limit::Calls(size.warmup[mix.slot()]))?;
    let peak_rss_mb = peak_rss_mb();
    let mut mirror = cluster.driver.net().clone();
    let stats_before = cluster.driver.cluster_stats();
    client.trace = Some((&driver_log, &shared, Vec::new()));
    shared.set_enabled(true);
    let calls = calls.min(size.traced_cap[mix.slot()]).max(1);
    let mut phase = client.measure(&mut cluster.driver, Limit::Calls(calls))?;
    shared.set_enabled(false);
    phase.setup_s = vec![setup];
    phase.peak_rss_mb = peak_rss_mb;
    let stats_after = cluster.driver.cluster_stats();
    let issued = client.trace.take().map(|(_, _, v)| v).unwrap_or_default();
    cluster.shutdown()?;

    // The core layers on the mirror, checked against the cluster.
    let replay_ops: Vec<(u64, ReplayOp)> = issued
        .iter()
        .enumerate()
        .filter(|(_, i)| i.answer != Answer::Failed)
        .map(|(n, i)| (n as u64, i.replay))
        .collect();
    let (answers, core) = replay(&mut mirror, &replay_ops, ReadPath::Live, &replay_log);
    let answered = issued.iter().filter(|i| i.answer != Answer::Failed);
    for ((&(n, _), i), mirror) in replay_ops.iter().zip(answered).zip(&answers) {
        gate.check(same_answer(&i.answer, mirror), || {
            format!(
                "op {n} {:?}: cluster {:?}, replay {mirror:?}",
                i.replay, i.answer
            )
        })?;
    }
    let mut positions = plan.points.clone();
    positions.extend(issued.iter().filter_map(|i| match i.replay {
        ReplayOp::Insert(p) => Some(p),
        _ => None,
    }));
    let geom = geom_insert_us(Rect::UNIT, &positions, &replay_log);

    let driver = std::mem::take(&mut *driver_log.lock().expect("span log poisoned"));
    let host = std::mem::take(&mut *host_log.lock().expect("span log poisoned"));
    let (net, breakdown) = net_layers(
        &setup_driver,
        &driver,
        &host,
        &issued,
        &setup_joins,
        phase.wall_s,
    )?;
    let mut layers = vec![geom];
    layers.extend(core.metrics());
    layers.extend(net);
    layers.extend([
        Metric::new(
            "driver.retries",
            "count",
            (stats_after.retries - stats_before.retries) as f64,
        ),
        Metric::new(
            "driver.fast_resends",
            "count",
            (stats_after.fast_resends - stats_before.fast_resends) as f64,
        ),
        Metric::new(
            "driver.fail_fast",
            "count",
            (stats_after.fail_fast - stats_before.fail_fast) as f64,
        ),
    ]);

    let mut spans = setup_driver.spans;
    spans.extend(setup_host.spans);
    spans.extend(driver.spans);
    spans.extend(host.spans);
    spans.extend(std::mem::take(
        &mut replay_log.lock().expect("span log poisoned").spans,
    ));
    Ok(Traced {
        phase,
        layers,
        breakdown,
        spans,
    })
}

fn same_answer(cluster: &Answer, mirror: &ReplayResult) -> bool {
    match (cluster, mirror) {
        (Answer::Route { owner, hops }, ReplayResult::Routed { owner: o, hops: h }) => {
            *owner == o.0 && hops == h
        }
        (Answer::Owner(owner), ReplayResult::Routed { owner: o, .. }) => *owner == o.0,
        (
            Answer::Matches { matches, hops },
            ReplayResult::Queried {
                matches: m,
                hops: h,
                ..
            },
        ) => hops == h && matches.iter().copied().eq(m.iter().map(|id| id.0)),
        (Answer::Joined(id), ReplayResult::Inserted(i)) => *id == i.0,
        (Answer::Left, ReplayResult::Removed) => true,
        _ => false,
    }
}

/// The message name of every frame kind among `copies`.
fn frame_names<'a>(
    copies: impl IntoIterator<Item = &'a Vec<u8>>,
) -> Result<BTreeMap<u8, String>, BenchError> {
    let mut names = BTreeMap::new();
    for copy in copies {
        if copy.get(3).is_some_and(|k| names.contains_key(k)) {
            continue;
        }
        let (header, msg) = WireMsg::decode(copy)
            .map_err(|e| BenchError::WrongAnswer(format!("a sent frame does not decode: {e}")))?;
        let name = format!("{msg:?}")
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        names.insert(header.kind, name);
    }
    Ok(names)
}

/// Codec cost per frame: decode and re-encode copies of the frames the
/// wrappers saw, repeated until the timing covers enough work.  Each
/// re-encoding must reproduce the original bytes.
fn codec_ns(copies: &[&Vec<u8>]) -> Result<(f64, f64), BenchError> {
    let mut decoded = Vec::with_capacity(copies.len());
    let mut buf = Vec::new();
    for copy in copies {
        let (header, msg) = WireMsg::decode(copy)
            .map_err(|e| BenchError::WrongAnswer(format!("a sent frame does not decode: {e}")))?;
        msg.encode(header.from, header.to, &mut buf)
            .map_err(|e| BenchError::WrongAnswer(format!("re-encode failed: {e:?}")))?;
        if buf != **copy {
            return Err(BenchError::WrongAnswer(
                "a frame did not survive decode and re-encode".to_owned(),
            ));
        }
        decoded.push((header, msg));
    }
    let frames = copies.len().max(1) as f64;
    let (mut dec_ns, mut enc_ns, mut reps) = (0u128, 0u128, 0u32);
    let budget = Instant::now();
    while reps < 3 || budget.elapsed() < Duration::from_millis(100) {
        let t = Instant::now();
        for copy in copies {
            std::hint::black_box(WireMsg::decode(std::hint::black_box(copy)).is_ok());
        }
        dec_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for (header, msg) in &decoded {
            std::hint::black_box(msg.encode(header.from, header.to, &mut buf).is_ok());
        }
        enc_ns += t.elapsed().as_nanos();
        reps += 1;
    }
    let per = frames * f64::from(reps);
    Ok((enc_ns as f64 / per, dec_ns as f64 / per))
}

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// One op's driver time: the call, the driver's idle wait inside it, and
/// its compute — the call's self time plus its driver-side transport
/// calls, measured apart from the wait.
#[derive(Debug, Default, Clone, Copy)]
struct OpTime {
    call: u64,
    wait: u64,
    compute: u64,
}

fn op_times(driver: &ThreadTrace, into: &mut HashMap<u64, OpTime>) {
    let self_ns = self_times(&driver.spans);
    for s in &driver.spans {
        let t = into.entry(s.op).or_default();
        match s.name {
            "driver.wait" => t.wait += s.dur(),
            "transport.send" | "transport.recv" => t.compute += s.dur(),
            _ => {
                t.call += s.dur();
                t.compute += self_ns[&s.id];
            }
        }
    }
}

/// Per op, the part of the driver's waits during which the op's frames
/// were in flight or in a host handler, as seen by the host's wrapper
/// and the frames' queueing times: the host-side account of the wait.
fn wait_covered(driver: &ThreadTrace, host: &ThreadTrace) -> HashMap<u64, u64> {
    let mut elsewhere: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for f in driver.frames.iter().chain(&host.frames) {
        if let Some(q) = f.queue_ns {
            elsewhere.entry(f.op).or_default().push((f.at - q, f.at));
        }
    }
    for s in host.spans.iter().filter(|s| s.name == "host.handler") {
        elsewhere.entry(s.op).or_default().push((s.start, s.end));
    }
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in driver.spans.iter().filter(|s| s.name == "driver.wait") {
        let c = elsewhere
            .get_mut(&s.op)
            .map_or(0, |iv| covered_ns(iv, s.start, s.end));
        *covered.entry(s.op).or_default() += c;
    }
    covered
}

/// The `net.*` layer metrics aggregated from the wrappers' records, and
/// the report's breakdowns by op kind and frame kind.  `setup` holds the
/// driver's records of the traced set-up joins, listed in `setup_joins`
/// as (op id, population before the join); the churn metrics cover them
/// and every measured join and leave.
fn net_layers(
    setup: &ThreadTrace,
    driver: &ThreadTrace,
    host: &ThreadTrace,
    issued: &[Issued],
    setup_joins: &[(u64, usize)],
    wall_s: f64,
) -> Result<(Vec<Metric>, Vec<Metric>), BenchError> {
    let n = issued.len();
    let copies: Vec<&Vec<u8>> = driver.copies.iter().chain(&host.copies).collect();
    let (encode_ns, decode_ns) = codec_ns(&copies)?;
    let names = frame_names(setup.copies.iter().chain(copies.iter().copied()))?;
    let name_of = |kind: u8| names.get(&kind).cloned().unwrap_or(format!("kind{kind}"));
    let all_spans = || driver.spans.iter().chain(&host.spans);
    let named = |name: &'static str| all_spans().filter(move |s| s.name == name);
    let mean_dur = |name: &'static str| {
        let (total, count) = named(name).fold((0u64, 0usize), |(t, c), s| (t + s.dur(), c + 1));
        per(total as f64, count)
    };
    let sent: Vec<&FrameRec> = driver
        .frames
        .iter()
        .chain(&host.frames)
        .filter(|f| f.sent)
        .collect();
    let queued: Vec<u64> = driver
        .frames
        .iter()
        .chain(&host.frames)
        .filter_map(|f| f.queue_ns)
        .collect();

    let mut times = HashMap::new();
    op_times(setup, &mut times);
    op_times(driver, &mut times);
    let time = |op: u64| times.get(&op).copied().unwrap_or_default();
    let covered = wait_covered(driver, host);
    let total_wait: u64 = (0..n as u64).map(|op| time(op).wait).sum();
    let total_compute: u64 = (0..n as u64).map(|op| time(op).compute).sum();

    // Joins and leaves: the set-up's, then the measured ones.
    let churn: Vec<(u64, usize)> = setup_joins
        .iter()
        .copied()
        .chain(
            (0..n)
                .filter(|&i| issued[i].churn)
                .map(|i| (i as u64, issued[i].population)),
        )
        .collect();
    let is_churn: std::collections::HashSet<u64> = churn.iter().map(|&(op, _)| op).collect();
    let kind_is = |f: &FrameRec, kinds: &[&str]| kinds.contains(&name_of(f.kind).as_str());
    let mut views_in_op: HashMap<u64, usize> = HashMap::new();
    let mut kv_pushes = 0usize;
    for f in setup.frames.iter().chain(&driver.frames) {
        if !f.sent || !is_churn.contains(&f.op) {
            continue;
        }
        if kind_is(f, &["ViewUpdate"]) {
            *views_in_op.entry(f.op).or_default() += 1;
        }
        if kind_is(f, &["SvcKvStore", "SvcKvDrop", "SvcKvReplicate"]) {
            kv_pushes += 1;
        }
    }
    let views_of = |op: u64| views_in_op.get(&op).copied().unwrap_or(0);
    let views: usize = churn.iter().map(|&(op, _)| views_of(op)).sum();
    let ship_ratio: f64 = churn
        .iter()
        .map(|&(op, population)| views_of(op) as f64 / population.max(1) as f64)
        .sum();
    let churn_wait: u64 = churn.iter().map(|&(op, _)| time(op).wait).sum();
    let handler_ns: u64 = named("host.handler").map(Span::dur).sum();
    let host_frames = host.frames.iter().filter(|f| !f.sent).count();
    let recv_calls = driver.recv_calls + host.recv_calls;
    let recv_frames = driver.recv_frames + host.recv_frames;

    let metrics = vec![
        Metric::new("wire.encode_ns", "ns", encode_ns),
        Metric::new("wire.decode_ns", "ns", decode_ns),
        Metric::new("wire.frames_per_op", "count", per(sent.len() as f64, n)),
        Metric::new(
            "wire.bytes_per_op",
            "B",
            per(sent.iter().map(|f| f64::from(f.len)).sum(), n),
        ),
        Metric::new("transport.send_ns", "ns", mean_dur("transport.send")),
        Metric::new(
            "transport.queue_us",
            "us",
            per(queued.iter().sum::<u64>() as f64, queued.len()) / 1e3,
        ),
        Metric::new(
            "transport.recv_hit_ratio",
            "ratio",
            per(recv_frames as f64, recv_calls as usize),
        ),
        Metric::new("host.handler_us", "us", mean_dur("host.handler") / 1e3),
        Metric::new("host.frames_per_op", "count", per(host_frames as f64, n)),
        Metric::new("host.busy_share", "ratio", handler_ns as f64 / 1e9 / wall_s),
        Metric::new(
            "driver.wait_us_per_op",
            "us",
            per(total_wait as f64, n) / 1e3,
        ),
        Metric::new(
            "driver.compute_us_per_op",
            "us",
            per(total_compute as f64, n) / 1e3,
        ),
        Metric::new(
            "driver.views_shipped_per_churn",
            "count",
            per(views as f64, churn.len()),
        ),
        Metric::new(
            "driver.view_ship_ratio",
            "ratio",
            per(ship_ratio, churn.len()),
        ),
        Metric::new(
            "driver.ack_wait_us_per_churn",
            "us",
            per(churn_wait as f64, churn.len()) / 1e3,
        ),
    ];

    // By op kind; the set-up joins are kind `setup_join`.
    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (i, op) in issued.iter().enumerate() {
        by_kind.entry(op.kind).or_default().push(i as u64);
    }
    if !setup_joins.is_empty() {
        by_kind.insert(
            "setup_join",
            setup_joins.iter().map(|&(op, _)| op).collect(),
        );
    }
    let mut breakdown = vec![Metric {
        samples: Some(churn.len()),
        ..Metric::new(
            "driver.kv_pushes_per_churn",
            "count",
            per(kv_pushes as f64, churn.len()),
        )
    }];
    for (kind, ops) in by_kind {
        let count = ops.len();
        let sum = |f: fn(&OpTime) -> u64| ops.iter().map(|&op| f(&time(op)) as f64).sum::<f64>();
        let (c, w, k) = (sum(|t| t.call), sum(|t| t.wait), sum(|t| t.compute));
        let mut add = |what: &str, value: f64, unit: &'static str| {
            breakdown.push(Metric {
                samples: Some(count),
                ..Metric::new(format!("driver.{what}.{kind}"), unit, value)
            });
        };
        add("call_us", per(c, count) / 1e3, "us");
        add("wait_us", per(w, count) / 1e3, "us");
        add("compute_us", per(k, count) / 1e3, "us");
        if kind != "setup_join" {
            let cov: u64 = ops.iter().filter_map(|op| covered.get(op)).sum();
            add(
                "wait_covered_share",
                if w > 0.0 { cov as f64 / w } else { 1.0 },
                "ratio",
            );
        }
    }
    let mut by_frame: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for f in &sent {
        let e = by_frame.entry(name_of(f.kind)).or_default();
        e.0 += 1;
        e.1 += u64::from(f.len);
    }
    for (name, (frames, bytes)) in by_frame {
        breakdown.push(Metric::new(
            format!("wire.frames_per_op.{name}"),
            "count",
            per(frames as f64, n),
        ));
        breakdown.push(Metric::new(
            format!("wire.bytes_per_op.{name}"),
            "B",
            per(bytes as f64, n),
        ));
    }
    Ok((metrics, breakdown))
}
