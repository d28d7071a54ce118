//! A deployable overlay cluster over any [`Transport`]: a controller
//! ("driver") plus K object-hosting peers exchanging wire frames.
//!
//! ## Roles
//!
//! * The **driver** (peer 0) owns the authoritative [`VoroNet`]
//!   tessellation — the control plane.  Membership changes execute there;
//!   after each one the driver diffs every live object's materialised
//!   view against what was last shipped and pushes [`WireMsg::ViewUpdate`]
//!   frames (routing table, Voronoi neighbours, cell polygon) to the
//!   hosts, waiting for acks.  This is the same refresh-boundary model as
//!   `core::runtime`: hosts route **purely from shipped snapshots**.
//! * Each **host** (peers `1..=K`) holds the objects with
//!   `host_of(id) = 1 + id mod K` — the data plane.  Greedy routing
//!   ([`WireMsg::RouteStep`]) and area-query flooding
//!   ([`WireMsg::FloodProbe`]/[`WireMsg::FloodReply`]) run peer-to-peer
//!   between hosts; only the final answer returns to the driver.
//!
//! ## Conformance
//!
//! Because hosts receive the exact routing tables, Voronoi neighbour
//! sets and cell polygons of the authoritative tessellation (as f64 bit
//! patterns over the wire), the distributed greedy walk and the
//! distributed flood reproduce the single-process results bit-for-bit on
//! a synchronised cluster: same owners, same hop counts, same match
//! sets — asserted by the in-process tests below and by the
//! multi-process loopback-UDP test in `crates/node`.
//!
//! ## Services
//!
//! The cluster also hosts the geo-scoped service plane of
//! `voronet-services`: region subscriptions live on the subscriber's
//! host ([`WireMsg::SvcSubscribe`]), publications resolve through the
//! distributed area flood and are delivered host-by-host
//! ([`WireMsg::SvcDeliver`], deduplicated by a per-topic ledger), and
//! coordinate-keyed KV entries are physically stored at the host of the
//! owning cell's object ([`WireMsg::SvcKvStore`]) and *migrate over the
//! wire* when churn moves the owning cell — a [`WireMsg::SvcKvFetch`]
//! always reads from whatever host currently owns the key's coordinates.
//! Driver-side control state mirrors the single-process
//! `ServiceEngine` semantics, so the simulated and deployed paths agree.
//!
//! ## Loss and fault tolerance
//!
//! Every request the driver issues carries a fresh correlation token per
//! attempt and is retried per a configurable [`RetryPolicy`] (exponential
//! backoff, seeded jitter, per-op attempt and time budgets); view pushes
//! and service pushes are resent until acked; flood coordinators
//! retransmit unanswered probes.  Handlers are idempotent, so duplication
//! from retries is harmless.
//!
//! Beyond loss, the driver runs a failure detector ([`Liveness`]):
//! piggybacked acks and periodic [`WireMsg::Ping`]s feed a missed-window
//! counter per host, moving it `Alive → Suspected → Dead`
//! ([`HostState`], surfaced in [`ClusterStats`]).  Push barriers drop
//! pushes to dead hosts instead of stalling, ops that must be served by
//! a dead host fail fast with [`ClusterError::Unavailable`], KV reads
//! whose owner is unreachable degrade to the Voronoi-neighbour replica
//! set (validated by a per-entry sequence so a stale copy is never
//! returned), and a host heard from again after being declared dead is
//! regenerated from driver control state before the next operation.

use crate::transport::{PeerId, Transport, TransportError};
use crate::wire::{EntryList, IdList, PointList, WireMsg, WirePurpose, WireQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::{Duration, Instant};
use voronet_core::{disk_predicates, next_hop, rect_predicates, JoinError, VoroNet, VoroNetConfig};
use voronet_geom::{voronoi_cell, Point2, Polygon, Rect};
use voronet_services::{key_point, topic_key};
use voronet_sim::TransportStats;
use voronet_workloads::{RadiusQuery, RangeQuery, WorkloadOp};

/// The driver's peer id.
pub const DRIVER_PEER: PeerId = 0;

/// The host peer responsible for an object.
pub fn host_of(object: u64, hosts: u64) -> PeerId {
    1 + object % hosts.max(1)
}

/// The KV owner rule: the object at the lowest `distance2` from the key's
/// point, ties going to the lower id — the rule of the single-process
/// `ServiceEngine`.  `None` for an empty overlay.
fn kv_owner(live: impl Iterator<Item = (u64, Point2)>, key_point: Point2) -> Option<u64> {
    live.map(|(id, c)| (c.distance2(key_point), id))
        .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
        .map(|(_, id)| id)
}

const ACK_RESEND: Duration = Duration::from_millis(200);
const SYNC_DEADLINE: Duration = Duration::from_secs(60);
const PROBE_RESEND: Duration = Duration::from_millis(150);
const PROBE_MAX_ATTEMPTS: u32 = 40;

/// Why a cluster operation failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The underlying transport failed.
    Transport(TransportError),
    /// A request exhausted its retries without an answer.
    Timeout(&'static str),
    /// The host that must serve the operation is dead per the failure
    /// detector; the operation failed fast instead of burning its
    /// retry budget.
    Unavailable(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Transport(e) => write!(f, "cluster transport error: {e}"),
            ClusterError::Timeout(what) => write!(f, "cluster timeout waiting for {what}"),
            ClusterError::Unavailable(what) => {
                write!(f, "cluster host unavailable (suspected or dead) for {what}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        ClusterError::Transport(e)
    }
}

impl ClusterError {
    /// Maps onto the overlay API's unified taxonomy.
    pub fn kind(&self) -> voronet_core::ErrorKind {
        match self {
            ClusterError::Transport(_) | ClusterError::Timeout(_) => {
                voronet_core::ErrorKind::OperationLost
            }
            ClusterError::Unavailable(_) => voronet_core::ErrorKind::Unavailable,
        }
    }
}

/// Retry discipline of driver-issued requests: exponential backoff with
/// deterministic seeded jitter, bounded per attempt and per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt.
    pub base: Duration,
    /// Multiplier applied to each further attempt's timeout.
    pub factor: f64,
    /// Ceiling of any single attempt's timeout.
    pub max_timeout: Duration,
    /// Maximum number of attempts per operation.
    pub attempts: u32,
    /// Wall-clock budget of the whole operation across attempts: once
    /// exceeded the operation fails even if attempts remain.
    pub budget: Duration,
    /// Jitter amplitude: each attempt's timeout is scaled by a factor
    /// drawn uniformly from `1 ± jitter/2` (`0.0` disables jitter).
    pub jitter: f64,
    /// Seed of the jitter stream, so retry timing replays exactly.
    pub seed: u64,
    /// Fast-retransmit interval *within* an attempt: while waiting for
    /// an answer the driver re-sends the pending request frame on this
    /// cadence instead of eating the whole attempt timeout when a single
    /// frame is lost.  Every request the driver issues is idempotent
    /// (token-matched answers, stateless route restarts, seq-filtered
    /// pushes), so a duplicate delivery is harmless.
    pub resend: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_secs(2),
            factor: 2.0,
            max_timeout: Duration::from_secs(8),
            attempts: 5,
            budget: Duration::from_secs(30),
            jitter: 0.0,
            seed: 0x5EED,
            resend: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// A tight policy for chaos runs and tests: small timeouts, small
    /// budget, jittered — fails fast instead of stalling a scenario.
    /// The retransmit cadence is sub-millisecond, matched to in-process
    /// transports where a healthy round trip is microseconds.
    pub fn tight() -> Self {
        RetryPolicy {
            base: Duration::from_millis(120),
            factor: 2.0,
            max_timeout: Duration::from_millis(500),
            attempts: 4,
            budget: Duration::from_secs(3),
            jitter: 0.25,
            seed: 0x5EED,
            resend: Duration::from_micros(250),
        }
    }

    /// The fast-retransmit interval floored so a zeroed knob can never
    /// spin the transport at full speed.
    fn resend_every(&self) -> Duration {
        self.resend.max(Duration::from_micros(50))
    }
}

/// Driver-side liveness verdict about one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Answering within its ping windows.
    Alive,
    /// Missed enough windows to be suspected: KV reads owned by it are
    /// served from replicas, but it is still retried.
    Suspected,
    /// Missed enough windows to be excluded: pushes to it are skipped
    /// and ops it must serve fail fast with
    /// [`ClusterError::Unavailable`].  Still pinged, so a restart is
    /// detected and the host regenerated.
    Dead,
}

/// Knobs of the driver's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Liveness {
    /// Consecutive unanswered ping windows before a host turns
    /// [`HostState::Suspected`].
    pub suspect_after: u32,
    /// Consecutive unanswered ping windows before a host turns
    /// [`HostState::Dead`].
    pub dead_after: u32,
    /// Gap between liveness pings to one host; any frame received from
    /// the host counts as an answer (piggybacked acks).
    pub ping_interval: Duration,
}

impl Default for Liveness {
    fn default() -> Self {
        Liveness {
            suspect_after: 3,
            dead_after: 6,
            ping_interval: Duration::from_millis(500),
        }
    }
}

impl Liveness {
    /// A fast-converging detector for chaos runs and tests.
    pub fn tight() -> Self {
        Liveness {
            suspect_after: 2,
            dead_after: 4,
            ping_interval: Duration::from_millis(60),
        }
    }
}

/// Liveness states and fault counters of a cluster driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Every host's current [`HostState`], ascending by peer.
    pub hosts: Vec<(PeerId, HostState)>,
    /// Retried request attempts (beyond each op's first).
    pub retries: u64,
    /// Operations refused fast because their host was dead.
    pub fail_fast: u64,
    /// KV reads served through the replica fallback.
    pub degraded_reads: u64,
    /// `Alive → Suspected` transitions observed.
    pub suspicions: u64,
    /// `→ Dead` transitions observed.
    pub deaths: u64,
    /// `Dead → Alive` transitions observed (host regenerated).
    pub revivals: u64,
    /// View/service pushes dropped because their target was dead.
    pub skipped_pushes: u64,
    /// Request frames re-sent by the fast-retransmit timer *within* an
    /// attempt window (not counted as retries — the attempt ladder never
    /// advanced).
    pub fast_resends: u64,
}

/// Driver-side health record of one host.
#[derive(Debug)]
struct HostHealth {
    missed: u32,
    state: HostState,
    last_ping: Instant,
    last_heard: Instant,
}

/// Spin-then-sleep waiter for the driver's receive loops: the first
/// iterations only yield (sub-millisecond answers stay fast), then it
/// sleeps with exponential growth so a lossy wait doesn't burn a core.
#[derive(Debug)]
struct Backoff {
    idle: u32,
    sleep: Duration,
    ceiling: Duration,
}

const BACKOFF_SPINS: u32 = 64;
const BACKOFF_SLEEP_FLOOR: Duration = Duration::from_micros(50);
const BACKOFF_SLEEP_CEIL: Duration = Duration::from_millis(1);

impl Backoff {
    fn new() -> Self {
        Self::with_ceiling(BACKOFF_SLEEP_CEIL)
    }

    /// A waiter whose sleeps never exceed `ceiling` — the receive loops
    /// that run a retransmit timer cap their sleeps below the timer so
    /// a due resend is never slept past.
    fn with_ceiling(ceiling: Duration) -> Self {
        let ceiling = ceiling.max(Duration::from_micros(10));
        Backoff {
            idle: 0,
            sleep: BACKOFF_SLEEP_FLOOR.min(ceiling),
            ceiling,
        }
    }

    fn reset(&mut self) {
        self.idle = 0;
        self.sleep = BACKOFF_SLEEP_FLOOR.min(self.ceiling);
    }

    fn wait(&mut self) {
        if self.idle < BACKOFF_SPINS {
            self.idle += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(self.sleep);
            self.sleep = (self.sleep * 2).min(self.ceiling);
        }
    }
}

/// Which ack family clears a pending push in [`Driver::await_acks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AckKind {
    View,
    Svc,
}

/// Outcome of one applied [`WorkloadOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// Insert: the new object's id, `None` when the overlay rejected it.
    Inserted(Option<u64>),
    /// Remove: the departed object's id, `None` when skipped.
    Removed(Option<u64>),
    /// Point route: owner of the target's region and greedy hop count.
    Route {
        /// Owner object.
        owner: u64,
        /// Greedy hops.
        hops: u32,
    },
    /// Area/radius query: sorted match set, routing hops, flood footprint.
    Matches {
        /// Matching objects, ascending.
        matches: Vec<u64>,
        /// Hops of the initial greedy route.
        hops: u32,
        /// Objects visited by the flood.
        visited: u32,
    },
    /// Subscribe: the subscriber's id and whether a previous
    /// subscription was replaced.
    Subscribed {
        /// Subscribing object.
        id: u64,
        /// True when the object was already subscribed.
        replaced: bool,
    },
    /// Unsubscribe: the object's id and whether a subscription existed.
    Unsubscribed {
        /// Unsubscribing object.
        id: u64,
        /// True when a subscription was dropped.
        existed: bool,
    },
    /// Publish: the per-topic sequence number and the resolved
    /// subscriber split.
    Published {
        /// Sequence number of this publication on its topic.
        topic_seq: u64,
        /// Subscribers delivered to (ascending by id).
        delivered: Vec<u64>,
        /// Subscribers whose region intersects the publication but whose
        /// own coordinates fall outside it (ascending by id).
        missed: Vec<u64>,
        /// Hops of the initial greedy route of the resolution flood.
        hops: u32,
        /// Objects visited by the resolution flood.
        visited: u32,
    },
    /// KV put: where the entry now lives.
    KvStored {
        /// The entry's key.
        key: u64,
        /// The owning cell's object.
        owner: u64,
        /// True when an existing entry was overwritten.
        replaced: bool,
        /// Voronoi-neighbour replicas the entry was mirrored to.
        replicas: u32,
    },
    /// KV get: the value fetched from the owning cell's host.
    KvFetched {
        /// The queried key.
        key: u64,
        /// The owning cell's object.
        owner: u64,
        /// The stored value, `None` when the key is absent.
        value: Option<u64>,
        /// True when the owner's host was unreachable and the value was
        /// served by a Voronoi-neighbour replica instead.
        degraded: bool,
    },
    /// KV delete: whether an entry was dropped.
    KvDropped {
        /// The deleted key.
        key: u64,
        /// The owning cell's object.
        owner: u64,
        /// True when an entry existed.
        existed: bool,
    },
    /// The operation does not apply to a cluster (e.g. `Snapshot`).
    Skipped,
}

/// Stats snapshot returned by a host at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostReport {
    /// The reporting peer.
    pub peer: PeerId,
    /// Its transport counters.
    pub stats: TransportStats,
    /// Protocol operations it served.
    pub ops_served: u64,
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// What was last shipped to a host for one object; views are re-pushed
/// only when this differs from the freshly materialised state.
#[derive(Debug, Clone, PartialEq)]
struct ShippedView {
    coords: Point2,
    routing: Vec<(u64, Point2)>,
    vn: Vec<u64>,
    cell: Vec<Point2>,
}

/// A pending push awaiting its ack, pre-encoded for cheap resends.
#[derive(Debug)]
struct PendingPush {
    peer: PeerId,
    frame: Vec<u8>,
}

/// Driver-side control record of one coordinate-keyed entry: its value,
/// the object whose Voronoi cell currently stores it, that object's
/// replica set (its Voronoi neighbours), and the entry's write sequence
/// used to validate replica freshness on degraded reads.
#[derive(Debug, Clone, PartialEq)]
struct KvPlacement {
    value: u64,
    owner: u64,
    entry_seq: u64,
    replicas: Vec<u64>,
}

/// The cluster controller: authoritative tessellation + view
/// distribution + request/answer correlation.  Generic over the
/// transport, so the same driver runs on vnet, UDP and TCP.
pub struct Driver<T: Transport> {
    t: T,
    hosts: u64,
    net: VoroNet,
    shipped: HashMap<u64, ShippedView>,
    seqs: HashMap<u64, u64>,
    next_token: u64,
    buf: Vec<u8>,
    subs: HashMap<u64, Rect>,
    topic_seqs: HashMap<[u64; 4], u64>,
    kv: HashMap<u64, KvPlacement>,
    svc_seqs: HashMap<u64, u64>,
    kv_seq: u64,
    policy: RetryPolicy,
    liveness: Liveness,
    jitter_rng: StdRng,
    health: HashMap<PeerId, HostHealth>,
    revived: Vec<PeerId>,
    in_revival: bool,
    retries: u64,
    fail_fast: u64,
    degraded_reads: u64,
    suspicions: u64,
    deaths: u64,
    revivals: u64,
    skipped_pushes: u64,
    fast_resends: u64,
}

impl<T: Transport> Driver<T> {
    /// Creates a driver over an already-bound transport (peers must be
    /// registered by the caller) controlling `hosts` host peers.
    pub fn new(transport: T, hosts: u64, config: VoroNetConfig) -> Self {
        let policy = RetryPolicy::default();
        Driver {
            t: transport,
            hosts,
            net: VoroNet::new(config),
            shipped: HashMap::new(),
            seqs: HashMap::new(),
            next_token: 1,
            buf: Vec::new(),
            subs: HashMap::new(),
            topic_seqs: HashMap::new(),
            kv: HashMap::new(),
            svc_seqs: HashMap::new(),
            kv_seq: 0,
            jitter_rng: StdRng::seed_from_u64(policy.seed),
            policy,
            liveness: Liveness::default(),
            health: HashMap::new(),
            revived: Vec::new(),
            in_revival: false,
            retries: 0,
            fail_fast: 0,
            degraded_reads: 0,
            suspicions: 0,
            deaths: 0,
            revivals: 0,
            skipped_pushes: 0,
            fast_resends: 0,
        }
    }

    /// Replaces the retry policy, reseeding the jitter stream.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.jitter_rng = StdRng::seed_from_u64(policy.seed);
        self.policy = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Replaces the failure-detector knobs.
    pub fn set_liveness(&mut self, liveness: Liveness) {
        self.liveness = liveness;
    }

    /// The driver's current liveness verdict about one host.
    pub fn host_state(&self, peer: PeerId) -> HostState {
        self.health
            .get(&peer)
            .map(|h| h.state)
            .unwrap_or(HostState::Alive)
    }

    /// Liveness states and fault counters.
    pub fn cluster_stats(&self) -> ClusterStats {
        ClusterStats {
            hosts: (1..=self.hosts)
                .map(|peer| (peer, self.host_state(peer)))
                .collect(),
            retries: self.retries,
            fail_fast: self.fail_fast,
            degraded_reads: self.degraded_reads,
            suspicions: self.suspicions,
            deaths: self.deaths,
            revivals: self.revivals,
            skipped_pushes: self.skipped_pushes,
            fast_resends: self.fast_resends,
        }
    }

    /// One failure-detector round without an overlay operation: pings
    /// due hosts and drains pending frames, updating host states.  A
    /// chaos harness calls this in a loop to converge detection of a
    /// crash or of a restart.
    pub fn heartbeat(&mut self) -> Result<(), ClusterError> {
        self.maybe_ping()?;
        self.t.poll()?;
        let mut buf = std::mem::take(&mut self.buf);
        while self.recv_noted(&mut buf)?.is_some() {}
        self.buf = buf;
        Ok(())
    }

    fn host_dead(&self, peer: PeerId) -> bool {
        matches!(self.host_state(peer), HostState::Dead)
    }

    fn health_entry(&mut self, peer: PeerId) -> &mut HostHealth {
        self.health.entry(peer).or_insert_with(|| HostHealth {
            missed: 0,
            state: HostState::Alive,
            last_ping: Instant::now(),
            last_heard: Instant::now(),
        })
    }

    /// Any frame from a host is a liveness proof: resets its missed
    /// counter and, when it was declared dead, queues it for
    /// regeneration before the next operation.
    fn note_heard(&mut self, peer: PeerId) {
        if peer < 1 || peer > self.hosts {
            return;
        }
        let h = self.health_entry(peer);
        h.last_heard = Instant::now();
        h.missed = 0;
        match h.state {
            HostState::Alive => {}
            HostState::Suspected => h.state = HostState::Alive,
            HostState::Dead => {
                h.state = HostState::Alive;
                self.revivals += 1;
                self.revived.push(peer);
            }
        }
    }

    /// One missed window: advances the host along
    /// `Alive → Suspected → Dead`.
    fn note_timeout(&mut self, peer: PeerId) {
        let Liveness {
            suspect_after,
            dead_after,
            ..
        } = self.liveness;
        let h = self.health_entry(peer);
        h.missed = h.missed.saturating_add(1);
        if h.missed >= dead_after && h.state != HostState::Dead {
            h.state = HostState::Dead;
            self.deaths += 1;
        } else if h.missed >= suspect_after && h.state == HostState::Alive {
            h.state = HostState::Suspected;
            self.suspicions += 1;
        }
    }

    /// `recv_into` with the piggybacked-liveness hook: every received
    /// frame marks its sender heard.
    fn recv_noted(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, ClusterError> {
        let from = self.t.recv_into(buf)?;
        if let Some(peer) = from {
            self.note_heard(peer);
        }
        Ok(from)
    }

    /// Sends a liveness ping to every host whose ping window elapsed;
    /// a window that passed without hearing from the host counts
    /// against it.  Dead hosts keep being pinged so a restart is
    /// detected.
    fn maybe_ping(&mut self) -> Result<(), ClusterError> {
        let interval = self.liveness.ping_interval;
        let mut due: Vec<(PeerId, bool)> = Vec::new();
        for peer in 1..=self.hosts {
            let h = self.health_entry(peer);
            if h.last_ping.elapsed() >= interval {
                let unanswered = h.last_heard < h.last_ping;
                h.last_ping = Instant::now();
                due.push((peer, unanswered));
            }
        }
        for (peer, unanswered) in due {
            if unanswered {
                self.note_timeout(peer);
            }
            let mut frame = std::mem::take(&mut self.buf);
            WireMsg::Ping { reply: false }
                .encode(DRIVER_PEER, peer, &mut frame)
                .expect("ping is tiny");
            self.t.send(peer, &frame)?;
            self.buf = frame;
        }
        Ok(())
    }

    /// The per-attempt timeout of the retry policy: exponential in the
    /// attempt number, capped, jittered from the seeded stream.
    fn attempt_timeout(&mut self, attempt: u32) -> Duration {
        let exp = self.policy.base.as_secs_f64() * self.policy.factor.powi(attempt.min(20) as i32);
        let capped = exp.min(self.policy.max_timeout.as_secs_f64());
        let scaled = if self.policy.jitter > 0.0 {
            capped * (1.0 + self.policy.jitter * (self.jitter_rng.random::<f64>() - 0.5))
        } else {
            capped
        };
        Duration::from_secs_f64(scaled.max(1e-4))
    }

    /// Read access to the authoritative overlay.
    pub fn net(&self) -> &VoroNet {
        &self.net
    }

    /// Live population.
    pub fn population(&self) -> usize {
        self.net.len()
    }

    /// The driver endpoint's transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.t.stats()
    }

    fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Materialises the current shippable state of one live object.
    fn current_view(&self, id: u64) -> ShippedView {
        let oid = voronet_core::ObjectId(id);
        let vr = self.net.view_ref(oid).expect("live object");
        // Scan order, as the live walk sees it: hosts break distance ties
        // by it (see `voronet_core::next_hop`).
        let routing = vr
            .routing_neighbours()
            .filter_map(|nb| Some((nb.0, self.net.coords(nb)?)))
            .collect();
        let vertex = self.net.vertex_of(oid).expect("live object");
        let cell = voronoi_cell(self.net.triangulation(), vertex)
            .polygon
            .vertices;
        ShippedView {
            coords: vr.coords(),
            routing,
            vn: vr.voronoi_neighbours().map(|n| n.0).collect(),
            cell,
        }
    }

    /// Pushes view diffs (and the given evictions) to the hosts and
    /// blocks until every push is acked, resending on a timer.
    fn sync_views(&mut self, evicted: &[u64]) -> Result<(), ClusterError> {
        let mut pending: HashMap<(u64, u64), PendingPush> = HashMap::new();
        for &object in evicted {
            self.shipped.remove(&object);
            let seq = self.seqs.entry(object).or_insert(0);
            *seq += 1;
            let seq = *seq;
            let peer = host_of(object, self.hosts);
            let mut frame = Vec::new();
            WireMsg::Evict { object, seq }
                .encode(DRIVER_PEER, peer, &mut frame)
                .expect("evict is tiny");
            pending.insert((object, seq), PendingPush { peer, frame });
        }
        let live: Vec<u64> = self.net.ids().map(|id| id.0).collect();
        for object in live {
            let current = self.current_view(object);
            if self.shipped.get(&object) == Some(&current) {
                continue;
            }
            let seq = self.seqs.entry(object).or_insert(0);
            *seq += 1;
            let seq = *seq;
            let peer = host_of(object, self.hosts);
            let mut frame = Vec::new();
            let mut routing_scratch = Vec::new();
            let mut vn_scratch = Vec::new();
            let mut cell_scratch = Vec::new();
            WireMsg::ViewUpdate {
                object,
                seq,
                coords: current.coords,
                routing: EntryList::build(&mut routing_scratch, &current.routing),
                vn: IdList::build(&mut vn_scratch, &current.vn),
                cell: PointList::build(&mut cell_scratch, &current.cell),
            }
            .encode(DRIVER_PEER, peer, &mut frame)
            .expect("views of a bounded-degree node fit one frame");
            pending.insert((object, seq), PendingPush { peer, frame });
            self.shipped.insert(object, current);
        }

        self.await_acks(pending, AckKind::View, "view acks")
    }

    /// Removes pending pushes whose target host is dead (the barrier
    /// must not stall on a host that cannot ack); the driver re-ships
    /// dropped state if the host ever comes back.
    fn drop_dead_pushes(&mut self, pending: &mut HashMap<(u64, u64), PendingPush>) {
        let before = pending.len();
        pending.retain(|_, push| !matches!(self.host_state(push.peer), HostState::Dead));
        self.skipped_pushes += (before - pending.len()) as u64;
    }

    /// Sends every queued push and blocks until each one is acked or
    /// dropped (its target died), resending on a timer and running the
    /// failure detector while waiting.
    fn await_acks(
        &mut self,
        mut pending: HashMap<(u64, u64), PendingPush>,
        kind: AckKind,
        what: &'static str,
    ) -> Result<(), ClusterError> {
        self.drop_dead_pushes(&mut pending);
        for push in pending.values() {
            self.t.send(push.peer, &push.frame)?;
        }
        let overall = Instant::now();
        let mut last_resend = Instant::now();
        let mut buf = Vec::new();
        let mut backoff = Backoff::new();
        while !pending.is_empty() {
            if overall.elapsed() > SYNC_DEADLINE {
                return Err(ClusterError::Timeout(what));
            }
            match self.recv_noted(&mut buf)? {
                Some(_) => {
                    backoff.reset();
                    // Anything else here is a stale answer from an
                    // abandoned attempt; ignore it.
                    if let Ok((_, msg)) = WireMsg::decode(&buf) {
                        match (kind, msg) {
                            (
                                AckKind::View,
                                WireMsg::ViewAck { object, seq }
                                | WireMsg::EvictAck { object, seq },
                            )
                            | (AckKind::Svc, WireMsg::SvcAck { object, seq }) => {
                                pending.remove(&(object, seq));
                            }
                            _ => {}
                        }
                    }
                }
                None => {
                    self.maybe_ping()?;
                    self.drop_dead_pushes(&mut pending);
                    // Resend on the policy's fast-retransmit cadence (but
                    // never slower than the legacy ACK_RESEND timer) so a
                    // single dropped push doesn't stall the barrier for a
                    // whole resend window.
                    let resend = self
                        .policy
                        .resend
                        .max(Duration::from_millis(2))
                        .min(ACK_RESEND);
                    if last_resend.elapsed() > resend {
                        for push in pending.values() {
                            self.t.send(push.peer, &push.frame)?;
                            self.fast_resends += 1;
                        }
                        last_resend = Instant::now();
                    }
                    self.t.poll()?;
                    backoff.wait();
                }
            }
        }
        Ok(())
    }

    /// Waits up to `timeout` for a frame `accept`s, running the failure
    /// detector and backoff while idle.  Returns `Ok(None)` when the
    /// window closes, `peer` is declared dead, or `deadline` (the op's
    /// budget) passes — the caller decides whether to retry.
    ///
    /// While waiting, the pending `request` frame is retransmitted on the
    /// policy's fast-resend cadence.  Every request handler on the hosts
    /// is idempotent (answers are token-matched, route restarts are
    /// stateless, flood coordinators ignore stale tokens), so a duplicate
    /// costs one frame — while a dropped frame without retransmit used to
    /// cost the entire attempt timeout (~100ms under the tight policy).
    fn await_reply<R>(
        &mut self,
        peer: PeerId,
        request: &[u8],
        timeout: Duration,
        deadline: Instant,
        accept: &mut dyn FnMut(PeerId, &[u8]) -> Option<R>,
    ) -> Result<Option<R>, ClusterError> {
        let start = Instant::now();
        let mut buf = Vec::new();
        let resend = self.policy.resend_every();
        // Cap the idle sleep below the resend cadence so the backoff
        // never sleeps through a retransmit slot.
        let mut backoff = Backoff::with_ceiling(resend / 2);
        let mut last_send = Instant::now();
        while start.elapsed() < timeout {
            match self.recv_noted(&mut buf)? {
                Some(from) => {
                    backoff.reset();
                    if let Some(r) = accept(from, &buf) {
                        return Ok(Some(r));
                    }
                }
                None => {
                    self.maybe_ping()?;
                    if self.host_dead(peer) {
                        return Ok(None);
                    }
                    if !request.is_empty() && last_send.elapsed() >= resend {
                        self.t.send(peer, request)?;
                        self.fast_resends += 1;
                        last_send = Instant::now();
                    }
                    self.t.poll()?;
                    backoff.wait();
                }
            }
            if Instant::now() > deadline {
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// Regenerates hosts that came back from the dead before the next
    /// operation touches them: re-ships their view snapshots (and evicts
    /// stale ones), then replays their service state — subscriptions,
    /// owned KV entries and replica copies — from driver control state.
    /// Monotonic push sequences make the replay idempotent for a host
    /// that kept its state and restorative for one that lost it.
    fn service_revivals(&mut self) -> Result<(), ClusterError> {
        if self.revived.is_empty() || self.in_revival {
            return Ok(());
        }
        self.in_revival = true;
        let result = self.regenerate_revived();
        self.in_revival = false;
        result
    }

    fn regenerate_revived(&mut self) -> Result<(), ClusterError> {
        while let Some(peer) = self.revived.pop() {
            let hosts = self.hosts;
            // Forget what was shipped to the revived host so sync_views
            // re-pushes every view it must hold, and re-evict departed
            // objects whose eviction it may have missed.
            self.shipped
                .retain(|&object, _| host_of(object, hosts) != peer);
            let stale: Vec<u64> = self
                .seqs
                .keys()
                .copied()
                .filter(|&object| {
                    host_of(object, hosts) == peer
                        && self.net.coords(voronet_core::ObjectId(object)).is_none()
                })
                .collect();
            self.sync_views(&stale)?;

            let subs: Vec<(u64, Rect)> = self
                .subs
                .iter()
                .filter(|&(&id, _)| host_of(id, hosts) == peer)
                .map(|(&id, &region)| (id, region))
                .collect();
            let entries: Vec<(u64, KvPlacement)> =
                self.kv.iter().map(|(&k, p)| (k, p.clone())).collect();
            let mut pending = HashMap::new();
            for (id, region) in subs {
                self.queue_service_push(&mut pending, id, |seq| WireMsg::SvcSubscribe {
                    object: id,
                    seq,
                    region,
                });
            }
            for (key, p) in entries {
                if host_of(p.owner, hosts) == peer {
                    let (object, value) = (p.owner, p.value);
                    self.queue_service_push(&mut pending, object, |seq| WireMsg::SvcKvStore {
                        object,
                        seq,
                        key,
                        value,
                    });
                }
                for &replica in &p.replicas {
                    if replica != p.owner && host_of(replica, hosts) == peer {
                        let (value, entry_seq) = (p.value, p.entry_seq);
                        self.queue_service_push(&mut pending, replica, |seq| {
                            WireMsg::SvcKvReplicate {
                                object: replica,
                                seq,
                                key,
                                value,
                                entry_seq,
                            }
                        });
                    }
                }
            }
            self.flush_service_pushes(pending)?;
        }
        Ok(())
    }

    /// Inserts an object at `position` into the overlay and synchronises
    /// every affected view.  `Ok(None)` when the overlay rejects the
    /// position (duplicate).
    pub fn insert(&mut self, position: Point2) -> Result<Option<u64>, ClusterError> {
        self.service_revivals()?;
        match self.net.insert(position) {
            Ok(report) => {
                let id = report.id.0;
                self.sync_views(&[])?;
                self.rebalance_kv()?;
                Ok(Some(id))
            }
            Err(JoinError::DuplicatePosition(_)) => Ok(None),
            Err(_) => Ok(None),
        }
    }

    /// Removes the `index`-th live object (modulo the population) and
    /// synchronises the survivors' views.  `Ok(None)` when the overlay
    /// refuses the departure (population floor).
    pub fn remove_index(&mut self, index: usize) -> Result<Option<u64>, ClusterError> {
        if self.net.is_empty() {
            return Ok(None);
        }
        self.service_revivals()?;
        let id = self
            .net
            .id_at(index % self.net.len())
            .expect("index below len");
        match self.net.remove(id) {
            Ok(_) => {
                self.sync_views(&[id.0])?;
                // The evicted host dropped the departed object's service
                // state with it; the driver's control state follows.
                self.subs.remove(&id.0);
                self.rebalance_kv()?;
                Ok(Some(id.0))
            }
            Err(_) => Ok(None),
        }
    }

    /// Sends one request frame and waits for the answer matching
    /// `token`, retrying the whole request (with the same pre-encoded
    /// frame) per the retry policy.  Fails fast with
    /// [`ClusterError::Unavailable`] when the serving host is dead —
    /// before sending, or as soon as the failure detector declares it
    /// mid-wait.
    fn request(
        &mut self,
        peer: PeerId,
        request: &[u8],
        token: u64,
        what: &'static str,
    ) -> Result<(u32, OpOutcome), ClusterError> {
        if self.host_dead(peer) {
            self.fail_fast += 1;
            return Err(ClusterError::Unavailable(what));
        }
        let deadline = Instant::now() + self.policy.budget;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                self.retries += 1;
            }
            self.t.send(peer, request)?;
            let timeout = self.attempt_timeout(attempt);
            let got = self.await_reply(peer, request, timeout, deadline, &mut |_, frame| {
                match WireMsg::decode(frame) {
                    Ok((
                        _,
                        WireMsg::AnswerOwner {
                            token: t,
                            owner,
                            hops,
                        },
                    )) if t == token => Some((hops, OpOutcome::Route { owner, hops })),
                    Ok((
                        _,
                        WireMsg::AnswerMatches {
                            token: t,
                            hops,
                            visited,
                            matches,
                        },
                    )) if t == token => Some((
                        hops,
                        OpOutcome::Matches {
                            matches: matches.to_vec(),
                            hops,
                            visited,
                        },
                    )),
                    _ => None, // stale token or late ack
                }
            })?;
            if let Some(answer) = got {
                return Ok(answer);
            }
            if self.host_dead(peer) || Instant::now() > deadline {
                break;
            }
        }
        if self.host_dead(peer) {
            self.fail_fast += 1;
            Err(ClusterError::Unavailable(what))
        } else {
            Err(ClusterError::Timeout(what))
        }
    }

    /// Routes from the `from`-th live object towards the `to`-th one's
    /// coordinates through the distributed overlay.
    pub fn route_indices(&mut self, from: usize, to: usize) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let n = self.net.len();
        let from_id = self.net.id_at(from % n).expect("index below len").0;
        let to_id = self.net.id_at(to % n).expect("index below len");
        let target = self.net.coords(to_id).expect("live object");
        let token = self.fresh_token();
        let mut frame = Vec::new();
        WireMsg::RouteReq {
            token,
            from_object: from_id,
            target,
        }
        .encode(DRIVER_PEER, host_of(from_id, self.hosts), &mut frame)
        .expect("route request is tiny");
        let (_, outcome) = self.request(host_of(from_id, self.hosts), &frame, token, "route")?;
        Ok(outcome)
    }

    /// Routes a batch of `(from, to)` index pairs with up to `window`
    /// operations in flight at once, sharing one receive pump.
    ///
    /// Unlike issuing [`Self::route_indices`] in a loop — where one
    /// operation waiting out its attempt timeout head-of-line-blocks
    /// every operation behind it — each in-flight route here keeps its
    /// own attempt ladder, fast-resend timer and budget, so a single
    /// route stalled on a lossy or crashed hop cannot stall the rest of
    /// the batch.  Results come back in input order; an entry whose
    /// route never answered within its budget (or whose origin host was
    /// dead) carries `owner_hops: None` plus the time spent on it.
    pub fn route_indices_pipelined(
        &mut self,
        pairs: &[(usize, usize)],
        window: usize,
    ) -> Result<Vec<PipelinedRoute>, ClusterError> {
        let mut results: Vec<PipelinedRoute> = pairs
            .iter()
            .map(|_| PipelinedRoute {
                owner_hops: None,
                latency: Duration::ZERO,
            })
            .collect();
        if self.net.is_empty() || pairs.is_empty() {
            return Ok(results);
        }
        self.service_revivals()?;
        let window = window.max(1);
        let resend = self.policy.resend_every();
        let mut backoff = Backoff::with_ceiling(resend / 2);
        let mut inflight: Vec<InFlightRoute> = Vec::new();
        let mut next = 0usize;
        let mut buf = Vec::new();
        while next < pairs.len() || !inflight.is_empty() {
            while inflight.len() < window && next < pairs.len() {
                let slot = next;
                next += 1;
                let (from, to) = pairs[slot];
                let n = self.net.len();
                let from_id = self.net.id_at(from % n).expect("index below len").0;
                let to_id = self.net.id_at(to % n).expect("index below len");
                let target = self.net.coords(to_id).expect("live object");
                let peer = host_of(from_id, self.hosts);
                let issued = Instant::now();
                if self.host_dead(peer) {
                    self.fail_fast += 1;
                    results[slot].latency = issued.elapsed();
                    continue;
                }
                let token = self.fresh_token();
                let mut frame = Vec::new();
                WireMsg::RouteReq {
                    token,
                    from_object: from_id,
                    target,
                }
                .encode(DRIVER_PEER, peer, &mut frame)
                .expect("route request is tiny");
                self.t.send(peer, &frame)?;
                let timeout = self.attempt_timeout(0);
                inflight.push(InFlightRoute {
                    slot,
                    peer,
                    frame,
                    token,
                    attempt: 0,
                    issued,
                    attempt_started: issued,
                    timeout,
                    deadline: issued + self.policy.budget,
                    last_send: issued,
                });
            }
            if inflight.is_empty() {
                continue;
            }
            match self.recv_noted(&mut buf)? {
                Some(_) => {
                    backoff.reset();
                    if let Ok((_, WireMsg::AnswerOwner { token, owner, hops })) =
                        WireMsg::decode(&buf)
                    {
                        if let Some(pos) = inflight.iter().position(|op| op.token == token) {
                            let op = inflight.swap_remove(pos);
                            results[op.slot] = PipelinedRoute {
                                owner_hops: Some((owner, hops)),
                                latency: op.issued.elapsed(),
                            };
                        }
                    }
                }
                None => {
                    self.maybe_ping()?;
                    let now = Instant::now();
                    let max_attempts = self.policy.attempts.max(1);
                    let mut i = 0;
                    while i < inflight.len() {
                        if self.host_dead(inflight[i].peer) || now > inflight[i].deadline {
                            if self.host_dead(inflight[i].peer) {
                                self.fail_fast += 1;
                            }
                            let op = inflight.swap_remove(i);
                            results[op.slot].latency = op.issued.elapsed();
                            continue;
                        }
                        if now.duration_since(inflight[i].attempt_started) >= inflight[i].timeout {
                            if inflight[i].attempt + 1 >= max_attempts {
                                let op = inflight.swap_remove(i);
                                results[op.slot].latency = op.issued.elapsed();
                                continue;
                            }
                            self.retries += 1;
                            let timeout = self.attempt_timeout(inflight[i].attempt + 1);
                            let op = &mut inflight[i];
                            op.attempt += 1;
                            op.timeout = timeout;
                            op.attempt_started = now;
                            let (peer, frame) = (op.peer, std::mem::take(&mut op.frame));
                            self.t.send(peer, &frame)?;
                            inflight[i].frame = frame;
                            inflight[i].last_send = now;
                        } else if now.duration_since(inflight[i].last_send) >= resend {
                            let (peer, frame) =
                                (inflight[i].peer, std::mem::take(&mut inflight[i].frame));
                            self.t.send(peer, &frame)?;
                            self.fast_resends += 1;
                            inflight[i].frame = frame;
                            inflight[i].last_send = now;
                        }
                        i += 1;
                    }
                    self.t.poll()?;
                    backoff.wait();
                }
            }
        }
        Ok(results)
    }

    /// Executes a distributed rectangular range query issued by the
    /// `from`-th live object.
    pub fn range_query(
        &mut self,
        from: usize,
        query: RangeQuery,
    ) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let from_id = self.net.id_at(from % self.net.len()).expect("live").0;
        let token = self.fresh_token();
        let mut frame = Vec::new();
        WireMsg::AreaReq {
            token,
            from_object: from_id,
            rect: query.rect,
        }
        .encode(DRIVER_PEER, host_of(from_id, self.hosts), &mut frame)
        .expect("area request is tiny");
        let (_, outcome) =
            self.request(host_of(from_id, self.hosts), &frame, token, "range query")?;
        Ok(outcome)
    }

    /// Executes a distributed radius query issued by the `from`-th live
    /// object.
    pub fn radius_query(
        &mut self,
        from: usize,
        query: RadiusQuery,
    ) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let from_id = self.net.id_at(from % self.net.len()).expect("live").0;
        let token = self.fresh_token();
        let mut frame = Vec::new();
        WireMsg::RadiusReq {
            token,
            from_object: from_id,
            center: query.center,
            radius: query.radius,
        }
        .encode(DRIVER_PEER, host_of(from_id, self.hosts), &mut frame)
        .expect("radius request is tiny");
        let (_, outcome) =
            self.request(host_of(from_id, self.hosts), &frame, token, "radius query")?;
        Ok(outcome)
    }

    // -- service plane ------------------------------------------------

    /// Bumps and returns the service push sequence number of one object.
    fn svc_seq(&mut self, object: u64) -> u64 {
        let seq = self.svc_seqs.entry(object).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Queues one pre-encoded service push for [`Self::flush_service_pushes`].
    fn queue_service_push(
        &mut self,
        pending: &mut HashMap<(u64, u64), PendingPush>,
        object: u64,
        build: impl FnOnce(u64) -> WireMsg<'static>,
    ) {
        let seq = self.svc_seq(object);
        let peer = host_of(object, self.hosts);
        let mut frame = Vec::new();
        build(seq)
            .encode(DRIVER_PEER, peer, &mut frame)
            .expect("service pushes are tiny");
        pending.insert((object, seq), PendingPush { peer, frame });
    }

    /// Sends queued service pushes and blocks until every one is acked
    /// or dropped (its target died), resending on a timer (the
    /// `sync_views` discipline).
    fn flush_service_pushes(
        &mut self,
        pending: HashMap<(u64, u64), PendingPush>,
    ) -> Result<(), ClusterError> {
        self.await_acks(pending, AckKind::Svc, "service push acks")
    }

    /// Routes from a live object towards an arbitrary point through the
    /// distributed overlay, returning the owning object and hop count.
    fn route_point_from(
        &mut self,
        from_id: u64,
        target: Point2,
    ) -> Result<(u64, u32), ClusterError> {
        let token = self.fresh_token();
        let mut frame = Vec::new();
        WireMsg::RouteReq {
            token,
            from_object: from_id,
            target,
        }
        .encode(DRIVER_PEER, host_of(from_id, self.hosts), &mut frame)
        .expect("route request is tiny");
        match self.request(host_of(from_id, self.hosts), &frame, token, "kv route")? {
            (_, OpOutcome::Route { owner, hops }) => Ok((owner, hops)),
            _ => Err(ClusterError::Timeout("kv route")),
        }
    }

    /// Subscribes the `index`-th live object (modulo the population) to a
    /// region, installing the subscription on the object's host.
    pub fn subscribe(&mut self, index: usize, region: Rect) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let id = self.net.id_at(index % self.net.len()).expect("live").0;
        let replaced = self.subs.insert(id, region).is_some();
        let mut pending = HashMap::new();
        self.queue_service_push(&mut pending, id, |seq| WireMsg::SvcSubscribe {
            object: id,
            seq,
            region,
        });
        self.flush_service_pushes(pending)?;
        Ok(OpOutcome::Subscribed { id, replaced })
    }

    /// Drops the `index`-th live object's subscription.
    pub fn unsubscribe(&mut self, index: usize) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let id = self.net.id_at(index % self.net.len()).expect("live").0;
        let existed = self.subs.remove(&id).is_some();
        let mut pending = HashMap::new();
        self.queue_service_push(&mut pending, id, |seq| WireMsg::SvcUnsubscribe {
            object: id,
            seq,
        });
        self.flush_service_pushes(pending)?;
        Ok(OpOutcome::Unsubscribed { id, existed })
    }

    /// Publishes a payload to every subscriber inside `region`: resolves
    /// the recipients through the distributed area flood, then delivers
    /// host-by-host.  Subscribers whose subscribed region intersects the
    /// publication but who sit outside it are reported as missed.
    pub fn publish(
        &mut self,
        from: usize,
        region: Rect,
        payload: u64,
    ) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        let OpOutcome::Matches {
            matches,
            hops,
            visited,
        } = self.range_query(from, RangeQuery { rect: region })?
        else {
            return Ok(OpOutcome::Skipped);
        };
        let topic = topic_key(&region);
        let seq = self.topic_seqs.entry(topic).or_insert(0);
        *seq += 1;
        let topic_seq = *seq;
        let mut subscribers: Vec<(u64, Rect)> = self.subs.iter().map(|(&id, &r)| (id, r)).collect();
        subscribers.sort_unstable_by_key(|&(id, _)| id);
        let mut delivered = Vec::new();
        let mut missed = Vec::new();
        for (id, sub_region) in subscribers {
            if !sub_region.intersects(&region) {
                continue;
            }
            if matches.binary_search(&id).is_ok() {
                delivered.push(id);
            } else {
                missed.push(id);
            }
        }
        let mut pending = HashMap::new();
        for &id in &delivered {
            self.queue_service_push(&mut pending, id, |seq| WireMsg::SvcDeliver {
                object: id,
                seq,
                topic,
                topic_seq,
                payload,
            });
        }
        self.flush_service_pushes(pending)?;
        Ok(OpOutcome::Published {
            topic_seq,
            delivered,
            missed,
            hops,
            visited,
        })
    }

    /// The replica set of one owner object — its Voronoi neighbours,
    /// the exact rule of the single-process `ServiceEngine`.
    fn replicas_of(&self, owner: u64) -> Vec<u64> {
        let Ok(view) = self.net.view(voronet_core::ObjectId(owner)) else {
            return Vec::new();
        };
        let mut replicas: Vec<u64> = view.voronoi_neighbours.iter().map(|n| n.0).collect();
        replicas.sort_unstable();
        replicas
    }

    /// The owning object of a point per the authoritative tessellation
    /// (see [`kv_owner`]).
    fn local_owner_of(&self, target: Point2) -> Option<u64> {
        kv_owner(
            self.net
                .ids()
                .map(|id| (id.0, self.net.coords(id).expect("live"))),
            target,
        )
    }

    /// True when every host is currently `Alive` per the failure
    /// detector — the precondition for a distributed route to complete
    /// without burning its retry budget on a dead hop.
    fn all_hosts_alive(&self) -> bool {
        (1..=self.hosts).all(|peer| matches!(self.host_state(peer), HostState::Alive))
    }

    /// Locates the owner of a point: the distributed greedy route
    /// decides on the healthy path; when any host is suspected or dead,
    /// the authoritative tessellation decides directly (the same owner
    /// the healthy route converges to) instead of letting the route burn
    /// its full retry ladder on a hop through the dead host first.
    fn owner_of_point(&mut self, from_id: u64, target: Point2) -> Result<u64, ClusterError> {
        if !self.all_hosts_alive() {
            return self
                .local_owner_of(target)
                .ok_or(ClusterError::Unavailable("kv owner"));
        }
        match self.route_point_from(from_id, target) {
            Ok((owner, _)) => Ok(owner),
            Err(ClusterError::Timeout(_) | ClusterError::Unavailable(_)) => self
                .local_owner_of(target)
                .ok_or(ClusterError::Unavailable("kv owner")),
            Err(e) => Err(e),
        }
    }

    /// Queues the final replication layout of one entry: the owner
    /// stores, each replica mirrors, and every previously involved live
    /// object no longer in the layout drops.  At most one push per
    /// `(object, key)`, so the host-side sequence filter can never let a
    /// reordered resend leave a stale role behind.
    fn queue_kv_layout(
        &mut self,
        pending: &mut HashMap<(u64, u64), PendingPush>,
        key: u64,
        placement: &KvPlacement,
        previous: &[u64],
    ) {
        let mut dropped: BTreeSet<u64> = previous.iter().copied().collect();
        dropped.remove(&placement.owner);
        for replica in &placement.replicas {
            dropped.remove(replica);
        }
        let (owner, value, entry_seq) = (placement.owner, placement.value, placement.entry_seq);
        self.queue_service_push(pending, owner, |seq| WireMsg::SvcKvStore {
            object: owner,
            seq,
            key,
            value,
        });
        for &replica in &placement.replicas {
            if replica == owner {
                continue;
            }
            self.queue_service_push(pending, replica, |seq| WireMsg::SvcKvReplicate {
                object: replica,
                seq,
                key,
                value,
                entry_seq,
            });
        }
        for object in dropped {
            // A departed object's host already dropped the entry when
            // the object was evicted; only live former roles need it.
            if self.net.coords(voronet_core::ObjectId(object)).is_none() {
                continue;
            }
            self.queue_service_push(pending, object, |seq| WireMsg::SvcKvDrop {
                object,
                seq,
                key,
            });
        }
    }

    /// Stores `key → value` at the host of the object whose Voronoi cell
    /// contains the key's coordinates (located by a distributed route
    /// from the `from`-th live object) and mirrors it to the owner's
    /// Voronoi-neighbour replica set, so an acked write survives any
    /// single-host crash.
    pub fn kv_put(&mut self, from: usize, key: u64, value: u64) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let from_id = self.net.id_at(from % self.net.len()).expect("live").0;
        let target = key_point(key, self.net.config().domain);
        let owner = self.owner_of_point(from_id, target)?;
        self.kv_seq += 1;
        let placement = KvPlacement {
            value,
            owner,
            entry_seq: self.kv_seq,
            replicas: self.replicas_of(owner),
        };
        let replicas = placement.replicas.len() as u32;
        let old = self.kv.insert(key, placement.clone());
        let mut previous = Vec::new();
        if let Some(old) = &old {
            previous.push(old.owner);
            previous.extend(old.replicas.iter().copied());
        }
        let mut pending = HashMap::new();
        self.queue_kv_layout(&mut pending, key, &placement, &previous);
        self.flush_service_pushes(pending)?;
        Ok(OpOutcome::KvStored {
            key,
            owner,
            replaced: old.is_some(),
            replicas,
        })
    }

    /// Reads `key` from the host of the owning cell's object — the route
    /// decides the owner, so a get issued after churn reads from
    /// wherever the entry migrated to.  When the owner's host is
    /// suspected or dead (or stops answering mid-read), the read
    /// degrades to the replica set instead of failing.
    pub fn kv_get(&mut self, from: usize, key: u64) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let from_id = self.net.id_at(from % self.net.len()).expect("live").0;
        let target = key_point(key, self.net.config().domain);
        let owner = self.owner_of_point(from_id, target)?;
        if matches!(
            self.host_state(host_of(owner, self.hosts)),
            HostState::Alive
        ) {
            match self.fetch_value(owner, key) {
                Ok(value) => {
                    return Ok(OpOutcome::KvFetched {
                        key,
                        owner,
                        value,
                        degraded: false,
                    })
                }
                Err(ClusterError::Timeout(_) | ClusterError::Unavailable(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.degraded_kv_get(key, owner)
    }

    /// Serves a read whose owner host is unreachable from the replica
    /// set, accepting only a replica whose entry sequence matches the
    /// driver's record — a stale copy is never returned.
    fn degraded_kv_get(&mut self, key: u64, owner: u64) -> Result<OpOutcome, ClusterError> {
        self.degraded_reads += 1;
        let Some(placement) = self.kv.get(&key).cloned() else {
            // No acked write for this key: absence is an exact answer
            // even while the owning host is down.
            return Ok(OpOutcome::KvFetched {
                key,
                owner,
                value: None,
                degraded: true,
            });
        };
        for &replica in &placement.replicas {
            if self.host_dead(host_of(replica, self.hosts)) {
                continue;
            }
            if let Ok(Some((value, entry_seq))) = self.fetch_replica(replica, key) {
                if entry_seq == placement.entry_seq {
                    return Ok(OpOutcome::KvFetched {
                        key,
                        owner: placement.owner,
                        value: Some(value),
                        degraded: true,
                    });
                }
            }
        }
        self.fail_fast += 1;
        Err(ClusterError::Unavailable("kv degraded read"))
    }

    /// Deletes `key` from the host of the owning cell's object and from
    /// every replica.
    pub fn kv_delete(&mut self, from: usize, key: u64) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        let from_id = self.net.id_at(from % self.net.len()).expect("live").0;
        let target = key_point(key, self.net.config().domain);
        let owner = self.owner_of_point(from_id, target)?;
        let old = self.kv.remove(&key);
        let mut parties: BTreeSet<u64> = BTreeSet::new();
        parties.insert(owner);
        if let Some(old) = &old {
            parties.insert(old.owner);
            parties.extend(old.replicas.iter().copied());
        }
        let mut pending = HashMap::new();
        for object in parties {
            if self.net.coords(voronet_core::ObjectId(object)).is_none() {
                continue;
            }
            self.queue_service_push(&mut pending, object, |seq| WireMsg::SvcKvDrop {
                object,
                seq,
                key,
            });
        }
        self.flush_service_pushes(pending)?;
        Ok(OpOutcome::KvDropped {
            key,
            owner,
            existed: old.is_some(),
        })
    }

    /// Issues one `SvcKvFetch` and waits for its token-matched
    /// `SvcKvValue`, retrying with a fresh token per the policy.
    fn fetch_value(&mut self, owner: u64, key: u64) -> Result<Option<u64>, ClusterError> {
        let peer = host_of(owner, self.hosts);
        if self.host_dead(peer) {
            self.fail_fast += 1;
            return Err(ClusterError::Unavailable("kv fetch"));
        }
        let deadline = Instant::now() + self.policy.budget;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                self.retries += 1;
            }
            let token = self.fresh_token();
            let mut frame = Vec::new();
            WireMsg::SvcKvFetch {
                token,
                object: owner,
                key,
            }
            .encode(DRIVER_PEER, peer, &mut frame)
            .expect("kv fetch is tiny");
            self.t.send(peer, &frame)?;
            let timeout = self.attempt_timeout(attempt);
            let got = self.await_reply(peer, &frame, timeout, deadline, &mut |_, frame| {
                match WireMsg::decode(frame) {
                    Ok((_, WireMsg::SvcKvValue { token: t, value })) if t == token => Some(value),
                    _ => None,
                }
            })?;
            if let Some(value) = got {
                return Ok(value);
            }
            if self.host_dead(peer) || Instant::now() > deadline {
                break;
            }
        }
        if self.host_dead(peer) {
            self.fail_fast += 1;
            Err(ClusterError::Unavailable("kv fetch"))
        } else {
            Err(ClusterError::Timeout("kv fetch"))
        }
    }

    /// Issues one `SvcKvFetchReplica` and waits for its token-matched
    /// `SvcKvReplicaValue`: `Ok(Some((value, entry_seq)))` when the
    /// replica holds a copy.  Capped at two attempts — a degraded read
    /// tries the next replica instead of burning the full budget here.
    fn fetch_replica(&mut self, object: u64, key: u64) -> Result<Option<(u64, u64)>, ClusterError> {
        let peer = host_of(object, self.hosts);
        if self.host_dead(peer) {
            return Err(ClusterError::Unavailable("kv replica fetch"));
        }
        let deadline = Instant::now() + self.policy.budget;
        for attempt in 0..self.policy.attempts.clamp(1, 2) {
            if attempt > 0 {
                self.retries += 1;
            }
            let token = self.fresh_token();
            let mut frame = Vec::new();
            WireMsg::SvcKvFetchReplica { token, object, key }
                .encode(DRIVER_PEER, peer, &mut frame)
                .expect("replica fetch is tiny");
            self.t.send(peer, &frame)?;
            let timeout = self.attempt_timeout(attempt);
            let got = self.await_reply(peer, &frame, timeout, deadline, &mut |_, frame| {
                match WireMsg::decode(frame) {
                    Ok((
                        _,
                        WireMsg::SvcKvReplicaValue {
                            token: t,
                            entry_seq,
                            value,
                        },
                    )) if t == token => Some(value.map(|v| (v, entry_seq))),
                    _ => None,
                }
            })?;
            if let Some(answer) = got {
                return Ok(answer);
            }
            if self.host_dead(peer) || Instant::now() > deadline {
                break;
            }
        }
        Err(ClusterError::Timeout("kv replica fetch"))
    }

    /// Recomputes every KV entry's owning cell and replica set against
    /// the authoritative tessellation after churn and migrates entries
    /// whose layout changed: the value is re-stored at the new owner's
    /// host, mirrored to the new replicas, and dropped from former
    /// roles (handoff).  Owner ties break towards the lower id, the
    /// exact rule of the single-process `ServiceEngine`.
    fn rebalance_kv(&mut self) -> Result<(), ClusterError> {
        if self.kv.is_empty() && self.subs.is_empty() {
            return Ok(());
        }
        if self.net.is_empty() {
            // Mirror the service-engine rule: an emptied overlay drops
            // all membership-derived state (topic sequences persist).
            self.kv.clear();
            self.subs.clear();
            return Ok(());
        }
        let domain = self.net.config().domain;
        let live: Vec<(u64, Point2)> = self
            .net
            .ids()
            .map(|id| (id.0, self.net.coords(id).expect("live")))
            .collect();
        let mut moves: Vec<(u64, KvPlacement, Vec<u64>)> = Vec::new(); // (key, new placement, previous roles)
        for (&key, placement) in &self.kv {
            let kp = key_point(key, domain);
            let new_owner = kv_owner(live.iter().copied(), kp).expect("non-empty overlay");
            let new_replicas = self.replicas_of(new_owner);
            if new_owner != placement.owner || new_replicas != placement.replicas {
                let mut previous = vec![placement.owner];
                previous.extend(placement.replicas.iter().copied());
                moves.push((
                    key,
                    KvPlacement {
                        value: placement.value,
                        owner: new_owner,
                        entry_seq: placement.entry_seq,
                        replicas: new_replicas,
                    },
                    previous,
                ));
            }
        }
        if moves.is_empty() {
            return Ok(());
        }
        let mut pending = HashMap::new();
        for (key, placement, previous) in moves {
            self.queue_kv_layout(&mut pending, key, &placement, &previous);
            self.kv.insert(key, placement);
        }
        self.flush_service_pushes(pending)
    }

    /// Applies one scripted [`WorkloadOp`] to the cluster.
    pub fn apply(&mut self, op: &WorkloadOp) -> Result<OpOutcome, ClusterError> {
        match *op {
            WorkloadOp::Insert { position } => Ok(OpOutcome::Inserted(self.insert(position)?)),
            WorkloadOp::Remove { index } => Ok(OpOutcome::Removed(self.remove_index(index)?)),
            WorkloadOp::Route { from, to } => self.route_indices(from, to),
            WorkloadOp::Range { from, query } => self.range_query(from, query),
            WorkloadOp::Radius { from, query } => self.radius_query(from, query),
            WorkloadOp::Snapshot { .. } => Ok(OpOutcome::Skipped),
            WorkloadOp::Subscribe { index, region } => self.subscribe(index, region),
            WorkloadOp::Unsubscribe { index } => self.unsubscribe(index),
            WorkloadOp::Publish {
                from,
                region,
                payload,
            } => self.publish(from, region, payload),
            WorkloadOp::KvPut { from, key, value } => self.kv_put(from, key, value),
            WorkloadOp::KvGet { from, key } => self.kv_get(from, key),
            WorkloadOp::KvDelete { from, key } => self.kv_delete(from, key),
        }
    }

    /// Collects every host's stats snapshot.  Fails fast with
    /// [`ClusterError::Unavailable`] when a host is dead — heal and
    /// heartbeat first to audit a post-chaos cluster.
    pub fn collect_stats(&mut self) -> Result<Vec<HostReport>, ClusterError> {
        let mut reports = Vec::new();
        for peer in 1..=self.hosts {
            if self.host_dead(peer) {
                self.fail_fast += 1;
                return Err(ClusterError::Unavailable("host stats"));
            }
            let mut frame = Vec::new();
            WireMsg::StatsReq
                .encode(DRIVER_PEER, peer, &mut frame)
                .expect("stats request is tiny");
            let deadline = Instant::now() + self.policy.budget;
            let mut got = None;
            for attempt in 0..self.policy.attempts.max(1) {
                if attempt > 0 {
                    self.retries += 1;
                }
                self.t.send(peer, &frame)?;
                let timeout = self.attempt_timeout(attempt);
                got = self.await_reply(peer, &frame, timeout, deadline, &mut |from, frame| {
                    if from != peer {
                        return None;
                    }
                    match WireMsg::decode(frame) {
                        Ok((_, WireMsg::StatsReply { stats, ops_served })) => Some(HostReport {
                            peer,
                            stats,
                            ops_served,
                        }),
                        _ => None,
                    }
                })?;
                if got.is_some() || self.host_dead(peer) || Instant::now() > deadline {
                    break;
                }
            }
            reports.push(got.ok_or(ClusterError::Timeout("host stats"))?);
        }
        Ok(reports)
    }

    /// Tells every host to exit its serve loop (best-effort; sent a few
    /// times to survive datagram loss).
    pub fn shutdown_hosts(&mut self) -> Result<(), ClusterError> {
        for _ in 0..3 {
            for peer in 1..=self.hosts {
                let mut frame = std::mem::take(&mut self.buf);
                WireMsg::Shutdown
                    .encode(DRIVER_PEER, peer, &mut frame)
                    .expect("shutdown is tiny");
                self.t.send(peer, &frame)?;
                self.buf = frame;
            }
        }
        Ok(())
    }
}

/// One completed route of a [`Driver::route_indices_pipelined`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedRoute {
    /// `Some((owner, hops))` when the route answered within its budget;
    /// `None` when it timed out or its origin host was dead.
    pub owner_hops: Option<(u64, u32)>,
    /// Wall-clock time from issuing the operation to its completion (or
    /// abandonment).
    pub latency: Duration,
}

/// Driver-side state of one in-flight pipelined route.
struct InFlightRoute {
    slot: usize,
    peer: PeerId,
    frame: Vec<u8>,
    token: u64,
    attempt: u32,
    issued: Instant,
    attempt_started: Instant,
    timeout: Duration,
    deadline: Instant,
    last_send: Instant,
}

// ---------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------

/// One hosted object's shipped snapshot: everything a host needs to
/// route through it and evaluate flood predicates at it.
#[derive(Debug, Clone)]
struct Hosted {
    seq: u64,
    coords: Point2,
    routing: Vec<(u64, Point2)>,
    vn: Vec<u64>,
    cell: Polygon,
}

impl Hosted {
    /// The flood predicates `(eligible, is_match)` at this object,
    /// computed from the shipped geometry by the same functions as the
    /// single-process flood.
    fn evaluate(&self, query: &WireQuery) -> (bool, bool) {
        match *query {
            WireQuery::Rect(rect) => rect_predicates(self.coords, || &self.cell, rect),
            WireQuery::Disk { center, radius } => {
                disk_predicates(self.coords, || &self.cell, center, radius)
            }
        }
    }
}

/// An outstanding flood probe awaiting its reply.
#[derive(Debug)]
struct ProbeState {
    sent_at: Instant,
    attempts: u32,
}

/// Coordinator state of one in-progress distributed flood (lives on the
/// host of the area's owner object).
#[derive(Debug)]
struct Flood {
    origin: PeerId,
    hops: u32,
    query: WireQuery,
    visited: BTreeSet<u64>,
    matches: Vec<u64>,
    frontier: Vec<u64>,
    outstanding: HashMap<u64, ProbeState>,
}

/// One object-hosting peer: applies view pushes, forwards greedy route
/// steps, evaluates and coordinates floods, answers the driver.
pub struct HostNode<T: Transport> {
    t: T,
    peer: PeerId,
    hosts: u64,
    objects: HashMap<u64, Hosted>,
    floods: HashMap<u64, Flood>,
    subs: HashMap<u64, Rect>,
    seen: HashMap<(u64, [u64; 4]), u64>,
    kv: HashMap<(u64, u64), u64>,
    kv_replicas: HashMap<(u64, u64), (u64, u64)>,
    svc_applied: HashMap<u64, u64>,
    kv_applied: HashMap<(u64, u64), u64>,
    deliveries: u64,
    duplicates: u64,
    ops_served: u64,
    shutdown: bool,
}

impl<T: Transport> HostNode<T> {
    /// Creates a host over an already-bound transport (peers registered
    /// by the caller).
    pub fn new(transport: T, peer: PeerId, hosts: u64) -> Self {
        HostNode {
            t: transport,
            peer,
            hosts,
            objects: HashMap::new(),
            floods: HashMap::new(),
            subs: HashMap::new(),
            seen: HashMap::new(),
            kv: HashMap::new(),
            kv_replicas: HashMap::new(),
            svc_applied: HashMap::new(),
            kv_applied: HashMap::new(),
            deliveries: 0,
            duplicates: 0,
            ops_served: 0,
            shutdown: false,
        }
    }

    /// Number of objects currently hosted here.
    pub fn hosted(&self) -> usize {
        self.objects.len()
    }

    /// Publications delivered first-time to objects hosted here.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Duplicate deliveries filtered by the per-topic ledger.
    pub fn duplicate_deliveries(&self) -> u64 {
        self.duplicates
    }

    /// KV entries currently stored here on behalf of hosted owners.
    pub fn kv_entries(&self) -> usize {
        self.kv.len()
    }

    /// Replica copies currently mirrored here on behalf of hosted
    /// Voronoi neighbours of entry owners.
    pub fn kv_replica_entries(&self) -> usize {
        self.kv_replicas.len()
    }

    /// Protocol operations served so far.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// This host's transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.t.stats()
    }

    /// True once a [`WireMsg::Shutdown`] has been handled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Serves until shutdown: the loop of the `voronet-node` binary and
    /// of in-process cluster threads.
    pub fn run(&mut self) -> Result<(), ClusterError> {
        let mut buf = Vec::new();
        while !self.shutdown {
            if !self.step(&mut buf)? {
                self.t.poll()?;
            }
        }
        Ok(())
    }

    /// Handles at most one pending frame plus flood retransmissions;
    /// returns whether a frame was processed.
    pub fn step(&mut self, buf: &mut Vec<u8>) -> Result<bool, ClusterError> {
        self.tick()?;
        match self.t.recv_into(buf)? {
            Some(_) => {
                self.handle_frame(buf)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Retransmits unanswered flood probes and finishes floods whose
    /// probes exhausted their attempts.
    fn tick(&mut self) -> Result<(), ClusterError> {
        let tokens: Vec<u64> = self.floods.keys().copied().collect();
        for token in tokens {
            let mut resend: Vec<u64> = Vec::new();
            let mut abandon: Vec<u64> = Vec::new();
            if let Some(flood) = self.floods.get_mut(&token) {
                for (&object, probe) in flood.outstanding.iter_mut() {
                    if probe.sent_at.elapsed() > PROBE_RESEND {
                        probe.attempts += 1;
                        probe.sent_at = Instant::now();
                        if probe.attempts > PROBE_MAX_ATTEMPTS {
                            abandon.push(object);
                        } else {
                            resend.push(object);
                        }
                    }
                }
            }
            for object in resend {
                let query = self.floods[&token].query;
                self.send_probe(token, object, query)?;
            }
            if !abandon.is_empty() {
                // Give up on unreachable objects so the flood terminates;
                // the driver's fresh-token retry is the outer safety net.
                if let Some(flood) = self.floods.get_mut(&token) {
                    for object in abandon {
                        flood.outstanding.remove(&object);
                    }
                }
                self.pump_flood(token)?;
            }
        }
        Ok(())
    }

    fn send_probe(
        &mut self,
        token: u64,
        object: u64,
        query: WireQuery,
    ) -> Result<(), ClusterError> {
        let peer = host_of(object, self.hosts);
        let mut frame = Vec::new();
        WireMsg::FloodProbe {
            token,
            object,
            query,
        }
        .encode(self.peer, object, &mut frame)
        .expect("probe is tiny");
        self.t.send(peer, &frame)?;
        Ok(())
    }

    fn handle_frame(&mut self, frame: &[u8]) -> Result<(), ClusterError> {
        let Ok((header, msg)) = WireMsg::decode(frame) else {
            return Ok(()); // malformed payload: drop (headers were checked by the transport)
        };
        match msg {
            WireMsg::Hello => {}
            WireMsg::ViewUpdate {
                object,
                seq,
                coords,
                routing,
                vn,
                cell,
            } => {
                let stale = self
                    .objects
                    .get(&object)
                    .map(|h| h.seq >= seq)
                    .unwrap_or(false);
                if !stale {
                    self.objects.insert(
                        object,
                        Hosted {
                            seq,
                            coords,
                            routing: routing.to_vec(),
                            vn: vn.to_vec(),
                            cell: Polygon::new(cell.to_vec()),
                        },
                    );
                }
                self.reply(header.from, WireMsg::ViewAck { object, seq })?;
            }
            WireMsg::Evict { object, seq } => {
                if self
                    .objects
                    .get(&object)
                    .map(|h| h.seq < seq)
                    .unwrap_or(false)
                {
                    self.objects.remove(&object);
                }
                // The departed object's service state leaves with it:
                // subscription, delivery ledger, and the KV entries its
                // cell stored (ids are never reused, so clearing on a
                // duplicate evict is harmless).
                self.subs.remove(&object);
                self.seen.retain(|&(o, _), _| o != object);
                self.kv.retain(|&(o, _), _| o != object);
                self.kv_replicas.retain(|&(o, _), _| o != object);
                self.kv_applied.retain(|&(o, _), _| o != object);
                self.reply(header.from, WireMsg::EvictAck { object, seq })?;
            }
            WireMsg::RouteReq {
                token,
                from_object,
                target,
            } => {
                if self.objects.contains_key(&from_object) {
                    self.ops_served += 1;
                    self.route_step(
                        from_object,
                        target,
                        header.from,
                        0,
                        WirePurpose::Query { token },
                    )?;
                }
            }
            WireMsg::AreaReq {
                token,
                from_object,
                rect,
            } => {
                if self.objects.contains_key(&from_object) {
                    self.ops_served += 1;
                    self.route_step(
                        from_object,
                        rect.center(),
                        header.from,
                        0,
                        WirePurpose::Area { rect, token },
                    )?;
                }
            }
            WireMsg::RadiusReq {
                token,
                from_object,
                center,
                radius,
            } => {
                if self.objects.contains_key(&from_object) {
                    self.ops_served += 1;
                    self.route_step(
                        from_object,
                        center,
                        header.from,
                        0,
                        WirePurpose::Radius {
                            center,
                            radius,
                            token,
                        },
                    )?;
                }
            }
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            } => {
                // The destination object travels in the frame header,
                // exactly as in the simulated runtime's envelopes.
                if self.objects.contains_key(&header.to) {
                    self.ops_served += 1;
                    self.route_step(header.to, target, origin, hops, purpose)?;
                }
            }
            WireMsg::FloodProbe {
                token,
                object,
                query,
            } => {
                self.ops_served += 1;
                let (eligible, is_match, neighbours) = match self.objects.get(&object) {
                    Some(h) => {
                        let (eligible, is_match) = h.evaluate(&query);
                        (eligible, is_match, h.vn.clone())
                    }
                    None => (false, false, Vec::new()),
                };
                let mut scratch = Vec::new();
                let mut frame = Vec::new();
                WireMsg::FloodReply {
                    token,
                    object,
                    eligible,
                    is_match,
                    neighbours: IdList::build(&mut scratch, &neighbours),
                }
                .encode(self.peer, header.from, &mut frame)
                .expect("bounded-degree neighbour list fits a frame");
                self.t.send(header.from, &frame)?;
            }
            WireMsg::FloodReply {
                token,
                object,
                eligible,
                is_match,
                neighbours,
            } => {
                // A reply for an unknown token belongs to an abandoned
                // flood; one whose probe is no longer outstanding is a
                // duplicate from a retransmission.  Both are ignored.
                let incorporated = self.floods.get_mut(&token).is_some_and(|flood| {
                    let fresh = flood.outstanding.remove(&object).is_some();
                    if fresh {
                        incorporate(flood, object, eligible, is_match, &neighbours.to_vec());
                    }
                    fresh
                });
                if incorporated {
                    self.pump_flood(token)?;
                }
            }
            WireMsg::SvcSubscribe {
                object,
                seq,
                region,
            } => {
                if self.fresh_service_push(object, seq) {
                    self.ops_served += 1;
                    self.subs.insert(object, region);
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcUnsubscribe { object, seq } => {
                if self.fresh_service_push(object, seq) {
                    self.ops_served += 1;
                    self.subs.remove(&object);
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcDeliver {
                object,
                seq,
                topic,
                topic_seq,
                payload: _,
            } => {
                if self.fresh_service_push(object, seq) {
                    self.ops_served += 1;
                    let entry = self.seen.entry((object, topic)).or_insert(0);
                    if topic_seq > *entry {
                        *entry = topic_seq;
                        self.deliveries += 1;
                    } else {
                        self.duplicates += 1;
                    }
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvStore {
                object,
                seq,
                key,
                value,
            } => {
                if self.fresh_kv_push(object, key, seq) {
                    self.ops_served += 1;
                    self.kv.insert((object, key), value);
                    // An object holds one role per key: owning an entry
                    // supersedes mirroring it.
                    self.kv_replicas.remove(&(object, key));
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvReplicate {
                object,
                seq,
                key,
                value,
                entry_seq,
            } => {
                if self.fresh_kv_push(object, key, seq) {
                    self.ops_served += 1;
                    self.kv_replicas.insert((object, key), (entry_seq, value));
                    self.kv.remove(&(object, key));
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvDrop { object, seq, key } => {
                if self.fresh_kv_push(object, key, seq) {
                    self.ops_served += 1;
                    self.kv.remove(&(object, key));
                    self.kv_replicas.remove(&(object, key));
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvFetch { token, object, key } => {
                self.ops_served += 1;
                let value = self.kv.get(&(object, key)).copied();
                self.reply(header.from, WireMsg::SvcKvValue { token, value })?;
            }
            WireMsg::SvcKvFetchReplica { token, object, key } => {
                self.ops_served += 1;
                let (entry_seq, value) = match self.kv_replicas.get(&(object, key)) {
                    Some(&(entry_seq, value)) => (entry_seq, Some(value)),
                    None => (0, None),
                };
                self.reply(
                    header.from,
                    WireMsg::SvcKvReplicaValue {
                        token,
                        entry_seq,
                        value,
                    },
                )?;
            }
            WireMsg::Ping { reply } => {
                // The driver's liveness probe: echo it so silence means
                // the host (or its link) is down, not that it was busy.
                if !reply {
                    self.reply(header.from, WireMsg::Ping { reply: true })?;
                }
            }
            WireMsg::StatsReq => {
                self.reply(
                    header.from,
                    WireMsg::StatsReply {
                        stats: self.t.stats(),
                        ops_served: self.ops_served,
                    },
                )?;
            }
            WireMsg::Shutdown => self.shutdown = true,
            // Driver-bound or simulated-runtime-only messages: not ours.
            WireMsg::ViewAck { .. }
            | WireMsg::EvictAck { .. }
            | WireMsg::AnswerOwner { .. }
            | WireMsg::AnswerMatches { .. }
            | WireMsg::StatsReply { .. }
            | WireMsg::SvcKvValue { .. }
            | WireMsg::SvcKvReplicaValue { .. }
            | WireMsg::SvcAck { .. }
            | WireMsg::Join { .. }
            | WireMsg::NeighborUpdate
            | WireMsg::Leave
            | WireMsg::Answer { .. } => {}
        }
        Ok(())
    }

    /// The per-object push-sequence filter: true exactly once per push,
    /// false for duplicates from ack-timeout resends.
    fn fresh_service_push(&mut self, object: u64, seq: u64) -> bool {
        let applied = self.svc_applied.entry(object).or_insert(0);
        if seq > *applied {
            *applied = seq;
            true
        } else {
            false
        }
    }

    /// Freshness for the KV plane is per `(object, key)`, not per
    /// object: one rebalance flush may push several *different* keys to
    /// the same object, and under delay faults those frames can arrive
    /// reordered.  A per-object high-water mark would reject the
    /// lower-seq key's push as stale (while still acking it), silently
    /// losing an acked write; per-entry marks only ever reject true
    /// duplicates and superseded pushes for that same key.
    fn fresh_kv_push(&mut self, object: u64, key: u64, seq: u64) -> bool {
        let applied = self.kv_applied.entry((object, key)).or_insert(0);
        if seq > *applied {
            *applied = seq;
            true
        } else {
            false
        }
    }

    fn reply(&mut self, to: PeerId, msg: WireMsg<'_>) -> Result<(), ClusterError> {
        let mut frame = Vec::new();
        msg.encode(self.peer, to, &mut frame)
            .expect("replies fit a frame");
        self.t.send(to, &frame)?;
        Ok(())
    }

    /// The greedy walk over shipped routing tables: hops within this
    /// host advance locally; a hop to an object hosted elsewhere becomes
    /// a [`WireMsg::RouteStep`] frame.  The rows arrive in the live walk's
    /// scan order and the decision is [`next_hop`]'s, so every route
    /// takes the same hops as `VoroNet::route_to_point`, ties included.
    fn route_step(
        &mut self,
        at: u64,
        target: Point2,
        origin: PeerId,
        hops: u32,
        purpose: WirePurpose,
    ) -> Result<(), ClusterError> {
        let mut cur = at;
        let mut hops = hops;
        loop {
            let Some(state) = self.objects.get(&cur) else {
                return Ok(()); // stale routing entry: the driver will retry
            };
            let cur_d = state.coords.distance2(target);
            let (best, _) = next_hop(cur, (cur, cur_d), target, state.routing.iter().copied());
            if best == cur {
                return self.arrive(cur, origin, hops, purpose);
            }
            hops += 1;
            if host_of(best, self.hosts) == self.peer {
                cur = best;
                continue;
            }
            let mut frame = Vec::new();
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            }
            .encode(cur, best, &mut frame)
            .expect("route step is tiny");
            self.t.send(host_of(best, self.hosts), &frame)?;
            return Ok(());
        }
    }

    /// The greedy walk arrived: answer a point route, or become the
    /// flood coordinator of an area/radius query.
    fn arrive(
        &mut self,
        owner: u64,
        origin: PeerId,
        hops: u32,
        purpose: WirePurpose,
    ) -> Result<(), ClusterError> {
        match purpose {
            WirePurpose::Query { token } => {
                self.reply(origin, WireMsg::AnswerOwner { token, owner, hops })
            }
            WirePurpose::Area { rect, token } => {
                self.start_flood(token, origin, hops, owner, WireQuery::Rect(rect))
            }
            WirePurpose::Radius {
                center,
                radius,
                token,
            } => self.start_flood(
                token,
                origin,
                hops,
                owner,
                WireQuery::Disk { center, radius },
            ),
            // Distributed joins are driver-side in this cluster.
            WirePurpose::Join { .. } => Ok(()),
        }
    }

    fn start_flood(
        &mut self,
        token: u64,
        origin: PeerId,
        hops: u32,
        owner: u64,
        query: WireQuery,
    ) -> Result<(), ClusterError> {
        let mut visited = BTreeSet::new();
        visited.insert(owner);
        self.floods.insert(
            token,
            Flood {
                origin,
                hops,
                query,
                visited,
                matches: Vec::new(),
                frontier: vec![owner],
                outstanding: HashMap::new(),
            },
        );
        self.pump_flood(token)
    }

    /// Drains the flood frontier: locally hosted objects are evaluated
    /// in place, remote ones get a probe.  When frontier and outstanding
    /// probes are both empty the flood is done and the answer goes back
    /// to the driver.
    fn pump_flood(&mut self, token: u64) -> Result<(), ClusterError> {
        loop {
            let Some(flood) = self.floods.get_mut(&token) else {
                return Ok(());
            };
            let Some(object) = flood.frontier.pop() else {
                break;
            };
            match self.objects.get(&object) {
                Some(h) => {
                    let (eligible, is_match) = h.evaluate(&flood.query);
                    let neighbours = h.vn.clone();
                    incorporate(flood, object, eligible, is_match, &neighbours);
                }
                None => {
                    let query = flood.query;
                    flood.outstanding.insert(
                        object,
                        ProbeState {
                            sent_at: Instant::now(),
                            attempts: 0,
                        },
                    );
                    self.send_probe(token, object, query)?;
                }
            }
        }
        let done = self
            .floods
            .get(&token)
            .map(|f| f.outstanding.is_empty())
            .unwrap_or(false);
        if done {
            let mut flood = self.floods.remove(&token).expect("checked above");
            flood.matches.sort_unstable();
            let mut scratch = Vec::new();
            let mut frame = Vec::new();
            WireMsg::AnswerMatches {
                token,
                hops: flood.hops,
                visited: flood.visited.len() as u32,
                matches: IdList::build(&mut scratch, &flood.matches),
            }
            .encode(self.peer, flood.origin, &mut frame)
            .expect("match sets of local floods fit a frame");
            self.t.send(flood.origin, &frame)?;
        }
        Ok(())
    }
}

/// Records one evaluated flood object, expanding through it when its
/// cell touches the queried area — the exact visit rule of
/// `core::queries::area_query_in`.
fn incorporate(flood: &mut Flood, object: u64, eligible: bool, is_match: bool, neighbours: &[u64]) {
    if is_match {
        flood.matches.push(object);
    }
    if !eligible {
        return;
    }
    for &n in neighbours {
        if flood.visited.insert(n) {
            flood.frontier.push(n);
        }
    }
}

// ---------------------------------------------------------------------
// In-process cluster over vnet
// ---------------------------------------------------------------------

/// A whole cluster in one process: the driver on the calling thread and
/// every host on its own thread, all over one [`crate::vnet::VnetHub`].
/// The in-process twin of the multi-process `voronet-node` deployment —
/// used by its `demo` subcommand and the conformance tests.
pub struct LocalCluster {
    driver: Driver<crate::vnet::VnetTransport>,
    handles: Vec<std::thread::JoinHandle<HostReport>>,
}

impl LocalCluster {
    /// Starts `hosts` host threads on a hub with the given network model
    /// (use [`voronet_sim::NetworkModel::ideal`] for a lossless cluster;
    /// the ack/retry machinery tolerates lossy models at the cost of
    /// wall-clock time).
    pub fn start(hosts: u64, config: VoroNetConfig, network: voronet_sim::NetworkModel) -> Self {
        let hub = crate::vnet::VnetHub::new(network);
        let driver = Driver::new(hub.endpoint(DRIVER_PEER), hosts, config);
        let mut handles = Vec::new();
        for peer in 1..=hosts {
            let endpoint = hub.endpoint(peer);
            handles.push(std::thread::spawn(move || {
                let mut node = HostNode::new(endpoint, peer, hosts);
                node.run().expect("vnet transport cannot fail");
                HostReport {
                    peer,
                    stats: node.transport_stats(),
                    ops_served: node.ops_served(),
                }
            }));
        }
        LocalCluster { driver, handles }
    }

    /// The cluster's driver.
    pub fn driver(&mut self) -> &mut Driver<crate::vnet::VnetTransport> {
        &mut self.driver
    }

    /// Shuts the hosts down and returns their final reports.
    pub fn shutdown(mut self) -> Result<Vec<HostReport>, ClusterError> {
        self.driver.shutdown_hosts()?;
        let mut reports = Vec::new();
        for handle in self.handles {
            reports.push(handle.join().expect("host thread panicked"));
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use voronet_core::queries;
    use voronet_geom::Rect;
    use voronet_sim::NetworkModel;
    use voronet_workloads::{Distribution, PointGenerator};

    fn oracle_with_inserts(seed: u64, points: &[Point2]) -> VoroNet {
        let mut net = VoroNet::new(VoroNetConfig::new(512).with_seed(seed));
        for &p in points {
            let _ = net.insert(p);
        }
        net
    }

    #[test]
    fn distributed_routes_match_the_single_process_oracle() {
        let points = PointGenerator::new(Distribution::Uniform, 11).take_points(60);
        let mut cluster = LocalCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(4),
            NetworkModel::ideal(),
        );
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let mut oracle = oracle_with_inserts(4, &points);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = oracle.len();
            let from = rng.random_range(0..n);
            let to = rng.random_range(0..n);
            let outcome = cluster.driver().route_indices(from, to).unwrap();
            let a = oracle.id_at(from).unwrap();
            let b = oracle.id_at(to).unwrap();
            let expected = oracle.route_between(a, b).unwrap();
            assert_eq!(
                outcome,
                OpOutcome::Route {
                    owner: expected.owner.0,
                    hops: expected.hops
                },
                "route {from}->{to}"
            );
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn distributed_queries_match_the_single_process_oracle() {
        let points = PointGenerator::new(Distribution::Uniform, 13).take_points(80);
        let mut cluster = LocalCluster::start(
            4,
            VoroNetConfig::new(512).with_seed(6),
            NetworkModel::ideal(),
        );
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let mut oracle = oracle_with_inserts(6, &points);
        let rects = [
            Rect::new(Point2::new(0.2, 0.3), Point2::new(0.5, 0.6)),
            Rect::new(Point2::new(0.0, 0.0), Point2::new(0.15, 0.15)),
            Rect::new(Point2::new(0.4, 0.4), Point2::new(0.42, 0.42)),
        ];
        for (i, &rect) in rects.iter().enumerate() {
            let outcome = cluster
                .driver()
                .range_query(i * 7, RangeQuery { rect })
                .unwrap();
            let from = oracle.id_at(i * 7 % oracle.len()).unwrap();
            let expected = queries::range_query(&mut oracle, from, RangeQuery { rect }).unwrap();
            assert_eq!(
                outcome,
                OpOutcome::Matches {
                    matches: expected.matches.iter().map(|m| m.0).collect(),
                    hops: expected.routing_hops,
                    visited: expected.visited as u32,
                },
                "rect {rect:?}"
            );
        }
        for i in 0..3 {
            let query = RadiusQuery {
                center: Point2::new(0.3 + 0.2 * i as f64, 0.5),
                radius: 0.12,
            };
            let outcome = cluster.driver().radius_query(i * 5, query).unwrap();
            let from = oracle.id_at(i * 5 % oracle.len()).unwrap();
            let expected = queries::radius_query(&mut oracle, from, query).unwrap();
            assert_eq!(
                outcome,
                OpOutcome::Matches {
                    matches: expected.matches.iter().map(|m| m.0).collect(),
                    hops: expected.routing_hops,
                    visited: expected.visited as u32,
                },
                "disk {query:?}"
            );
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn churn_keeps_the_cluster_in_lockstep_with_the_oracle() {
        let mut cluster = LocalCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(8),
            NetworkModel::ideal(),
        );
        let mut oracle = VoroNet::new(VoroNetConfig::new(512).with_seed(8));
        let mut pg = PointGenerator::new(Distribution::Uniform, 17);
        for _ in 0..30 {
            let p = pg.next_point();
            cluster.driver().insert(p).unwrap();
            let _ = oracle.insert(p);
        }
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..25 {
            match rng.random_range(0..3u32) {
                0 => {
                    let p = pg.next_point();
                    let got = cluster.driver().insert(p).unwrap();
                    let expected = oracle.insert(p).ok().map(|r| r.id.0);
                    assert_eq!(got, expected, "round {round} insert");
                }
                1 if oracle.len() > 8 => {
                    let idx = rng.random_range(0..oracle.len());
                    let got = cluster.driver().remove_index(idx).unwrap();
                    let id = oracle.id_at(idx).unwrap();
                    let expected = oracle.remove(id).ok().map(|_| id.0);
                    assert_eq!(got, expected, "round {round} remove");
                }
                _ => {
                    let n = oracle.len();
                    let from = rng.random_range(0..n);
                    let to = rng.random_range(0..n);
                    let outcome = cluster.driver().route_indices(from, to).unwrap();
                    let a = oracle.id_at(from).unwrap();
                    let b = oracle.id_at(to).unwrap();
                    let expected = oracle.route_between(a, b).unwrap();
                    assert_eq!(
                        outcome,
                        OpOutcome::Route {
                            owner: expected.owner.0,
                            hops: expected.hops
                        },
                        "round {round} route"
                    );
                }
            }
        }
        let reports = cluster.shutdown().unwrap();
        assert!(reports.iter().any(|r| r.ops_served > 0));
    }

    #[test]
    fn service_plane_pubsub_and_kv_handoff() {
        let mut cluster = LocalCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(5),
            NetworkModel::ideal(),
        );
        let points = PointGenerator::new(Distribution::Uniform, 23).take_points(40);
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let driver = cluster.driver();
        let n = driver.population();

        // Everyone subscribes to the full domain, so a publication's
        // delivered set must equal the distributed flood's match set and
        // everyone else is missed.
        let domain = Rect::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        for i in 0..n {
            let outcome = driver.subscribe(i, domain).unwrap();
            assert!(matches!(
                outcome,
                OpOutcome::Subscribed {
                    replaced: false,
                    ..
                }
            ));
        }
        let region = Rect::new(Point2::new(0.2, 0.2), Point2::new(0.7, 0.7));
        let OpOutcome::Published {
            topic_seq,
            delivered,
            missed,
            ..
        } = driver.publish(0, region, 99).unwrap()
        else {
            panic!("publish on a populated overlay must resolve")
        };
        assert_eq!(topic_seq, 1);
        let mut oracle = oracle_with_inserts(5, &points);
        let from = oracle.id_at(0).unwrap();
        let expected =
            queries::range_query(&mut oracle, from, RangeQuery { rect: region }).unwrap();
        let expected_ids: Vec<u64> = expected.matches.iter().map(|m| m.0).collect();
        assert_eq!(delivered, expected_ids);
        let missed_expected: Vec<u64> = oracle
            .ids()
            .map(|id| id.0)
            .filter(|id| !expected_ids.contains(id))
            .collect();
        let mut missed_sorted = missed;
        missed_sorted.sort_unstable();
        let mut missed_expected = missed_expected;
        missed_expected.sort_unstable();
        assert_eq!(missed_sorted, missed_expected);
        // Same topic again: the per-topic sequence climbs.
        let OpOutcome::Published { topic_seq, .. } = driver.publish(1, region, 100).unwrap() else {
            panic!("publish must resolve")
        };
        assert_eq!(topic_seq, 2);

        // KV round-trip through the hosts.
        let key = 0xC0FFEEu64;
        let OpOutcome::KvStored {
            owner,
            replaced: false,
            ..
        } = driver.kv_put(3, key, 41).unwrap()
        else {
            panic!("kv_put must store")
        };
        let OpOutcome::KvFetched {
            value,
            owner: fetched_owner,
            ..
        } = driver.kv_get(7, key).unwrap()
        else {
            panic!("kv_get must resolve")
        };
        assert_eq!(value, Some(41));
        assert_eq!(fetched_owner, owner);
        let OpOutcome::KvStored { replaced: true, .. } = driver.kv_put(4, key, 42).unwrap() else {
            panic!("second put must replace")
        };

        // Churn-driven handoff: a new node lands exactly on the key's
        // coordinates, takes over the owning cell, and the stored entry
        // must follow it to the new owner's host.
        let kp = key_point(key, driver.net().config().domain);
        let new_id = driver.insert(kp).unwrap().expect("fresh position");
        let OpOutcome::KvFetched { value, owner, .. } = driver.kv_get(9, key).unwrap() else {
            panic!("kv_get must resolve")
        };
        assert_eq!(owner, new_id, "the on-key node must own the entry");
        assert_eq!(value, Some(42), "the value must survive the handoff");

        // Removing the new owner hands the entry back to a survivor.
        let n = driver.population();
        let idx = (0..n)
            .position(|i| driver.net().id_at(i) == Some(voronet_core::ObjectId(new_id)))
            .expect("new node is live");
        assert_eq!(driver.remove_index(idx).unwrap(), Some(new_id));
        let OpOutcome::KvFetched { value, owner, .. } = driver.kv_get(2, key).unwrap() else {
            panic!("kv_get must resolve")
        };
        assert_ne!(owner, new_id);
        assert_eq!(value, Some(42), "the value must survive the second handoff");

        // Delete, then the key is gone.
        let OpOutcome::KvDropped { existed: true, .. } = driver.kv_delete(5, key).unwrap() else {
            panic!("delete must drop the entry")
        };
        let OpOutcome::KvFetched { value: None, .. } = driver.kv_get(6, key).unwrap() else {
            panic!("deleted key must read back as absent")
        };

        // Unsubscribe round-trips too.
        let OpOutcome::Unsubscribed { existed: true, .. } = driver.unsubscribe(0).unwrap() else {
            panic!("subscribed object must unsubscribe")
        };
        let reports = cluster.shutdown().unwrap();
        assert!(reports.iter().any(|r| r.ops_served > 0));
    }

    #[test]
    fn host_mapping_covers_every_host() {
        let peers: BTreeSet<PeerId> = (0..100).map(|id| host_of(id, 7)).collect();
        assert_eq!(peers, (1..=7).collect());
        assert_eq!(host_of(5, 0), 1); // degenerate guard: max(1)
    }

    #[test]
    fn crashed_owner_degrades_reads_and_failfasts_ops() {
        use crate::fault::{FaultyCluster, LinkFaults};

        let mut cluster = FaultyCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(12),
            LinkFaults::default(),
            77,
        );
        cluster.driver().set_retry_policy(RetryPolicy::tight());
        cluster.driver().set_liveness(Liveness::tight());
        let points = PointGenerator::new(Distribution::Uniform, 29).take_points(36);
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }

        let key = 0xFEEDu64;
        let OpOutcome::KvStored {
            owner, replicas, ..
        } = cluster.driver().kv_put(1, key, 91).unwrap()
        else {
            panic!("kv_put must store")
        };
        assert!(
            replicas >= 2,
            "a dense overlay must mirror to >= 2 replicas, got {replicas}"
        );
        let OpOutcome::KvFetched {
            value, degraded, ..
        } = cluster.driver().kv_get(2, key).unwrap()
        else {
            panic!("healthy get must resolve")
        };
        assert_eq!(value, Some(91));
        assert!(!degraded);

        let owner_host = host_of(owner, 3);
        cluster.ctl().crash(owner_host);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.driver().host_state(owner_host) != HostState::Dead {
            assert!(
                Instant::now() < deadline,
                "failure detector never declared the crashed host dead"
            );
            cluster.driver().heartbeat().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }

        // A query origin whose object lives on a surviving host.
        let from = (0..cluster.driver().population())
            .find(|&i| {
                let id = cluster.driver().net().id_at(i).unwrap().0;
                host_of(id, 3) != owner_host
            })
            .expect("a surviving object exists");
        let OpOutcome::KvFetched {
            value,
            owner: got_owner,
            degraded,
            ..
        } = cluster.driver().kv_get(from, key).unwrap()
        else {
            panic!("degraded get must resolve")
        };
        assert!(
            degraded,
            "a read served while the owner is dead must be flagged degraded"
        );
        assert_eq!(value, Some(91), "the acked write must survive the crash");
        assert_eq!(got_owner, owner);

        // An op that must be served by the dead host fails fast instead of
        // burning the whole retry budget.
        let dead_idx = (0..cluster.driver().population())
            .find(|&i| {
                let id = cluster.driver().net().id_at(i).unwrap().0;
                host_of(id, 3) == owner_host
            })
            .expect("the dead host serves at least one object");
        let t0 = Instant::now();
        let err = cluster.driver().route_indices(dead_idx, from).unwrap_err();
        assert!(matches!(err, ClusterError::Unavailable(_)), "got {err}");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "fail-fast took {:?}",
            t0.elapsed()
        );

        let stats = cluster.driver().cluster_stats();
        assert!(stats.degraded_reads >= 1);
        assert!(stats.deaths >= 1);
        assert!(stats.fail_fast >= 1);
        assert!(stats
            .hosts
            .iter()
            .any(|&(p, s)| p == owner_host && s == HostState::Dead));

        // Restart: the detector notices the revival, the driver regenerates
        // the host's state, and the healthy read path resumes.
        cluster.ctl().restart(owner_host);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.driver().host_state(owner_host) != HostState::Alive {
            assert!(
                Instant::now() < deadline,
                "the revived host never came back alive"
            );
            cluster.driver().heartbeat().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let OpOutcome::KvFetched {
            value, degraded, ..
        } = cluster.driver().kv_get(3, key).unwrap()
        else {
            panic!("post-revival get must resolve")
        };
        assert_eq!(value, Some(91));
        assert!(!degraded, "the healthy path must resume after revival");
        assert!(cluster.driver().cluster_stats().revivals >= 1);
        cluster.shutdown().unwrap();
    }

    /// Regression: under 10% frame loss the driver used to send each
    /// request once and then passively wait out the full jittered
    /// attempt timeout (~105ms under the tight policy), so the kv_get
    /// p50 jumped from ~16µs healthy to ~107ms lossy.  Fast retransmit
    /// inside the wait keeps lossy medians in the low-millisecond range.
    #[test]
    fn lossy_kv_gets_stay_fast_thanks_to_fast_retransmit() {
        use crate::fault::{FaultyCluster, LinkFaults};

        let mut cluster = FaultyCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(31),
            LinkFaults::lossy(0.10),
            4242,
        );
        cluster.driver().set_retry_policy(RetryPolicy::tight());
        cluster.driver().set_liveness(Liveness::tight());
        let points = PointGenerator::new(Distribution::Uniform, 37).take_points(36);
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        for key in 0..8u64 {
            cluster.driver().kv_put(key as usize, key, key * 7).unwrap();
        }

        let mut lat = Vec::new();
        for i in 0..30usize {
            let key = (i % 8) as u64;
            let t0 = Instant::now();
            let got = cluster.driver().kv_get(i, key).unwrap();
            lat.push(t0.elapsed());
            assert!(
                matches!(got, OpOutcome::KvFetched { value: Some(v), .. } if v == key * 7),
                "lossy kv_get {i} returned {got:?}"
            );
        }
        lat.sort();
        let p50 = lat[lat.len() / 2];
        assert!(
            p50 < Duration::from_millis(20),
            "lossy kv_get p50 {p50:?} — fast retransmit regressed \
             (pre-fix medians sat at ~107ms)"
        );
        assert!(
            cluster.driver().cluster_stats().fast_resends > 0,
            "the lossy run must have exercised the fast-retransmit path"
        );
        cluster.shutdown().unwrap();
    }

    /// Regression: one stalled operation must not head-of-line-block the
    /// rest of a batch.  A route whose origin host just crashed (failure
    /// detector not yet converged) burns its retry ladder; pipelined
    /// routes issued behind it must still complete at healthy latency.
    #[test]
    fn pipelined_routes_survive_one_stalled_operation() {
        use crate::fault::{FaultyCluster, LinkFaults};
        use voronet_core::RouteScratch;

        let mut cluster = FaultyCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(19),
            LinkFaults::default(),
            55,
        );
        cluster.driver().set_retry_policy(RetryPolicy::tight());
        cluster.driver().set_liveness(Liveness::tight());
        let points = PointGenerator::new(Distribution::Uniform, 41).take_points(48);
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }

        let crashed: PeerId = 2;
        // An origin object hosted on the to-be-crashed host: its route
        // request will go unanswered until the detector converges.
        let stalled_from = (0..cluster.driver().population())
            .find(|&i| {
                let id = cluster.driver().net().id_at(i).unwrap().0;
                host_of(id, 3) == crashed
            })
            .expect("host 2 serves at least one object");
        // Healthy pairs whose entire greedy path (origin, every hop,
        // owner) avoids the crashed host, so only the stalled op waits.
        let mut scratch = RouteScratch::default();
        let mut healthy: Vec<(usize, usize)> = Vec::new();
        'outer: for from in 0..cluster.driver().population() {
            for to in 0..cluster.driver().population() {
                if from == to || healthy.len() >= 6 {
                    if healthy.len() >= 6 {
                        break 'outer;
                    }
                    continue;
                }
                let net = cluster.driver().net();
                let a = net.id_at(from).unwrap();
                let b = net.id_at(to).unwrap();
                if net.route_between_in(a, b, &mut scratch).is_err() {
                    continue;
                }
                let avoids = scratch.path.iter().all(|id| host_of(id.0, 3) != crashed)
                    && host_of(a.0, 3) != crashed
                    && host_of(b.0, 3) != crashed;
                if avoids {
                    healthy.push((from, to));
                }
            }
        }
        assert!(
            healthy.len() >= 4,
            "need a few crash-avoiding routes, got {}",
            healthy.len()
        );

        cluster.ctl().crash(crashed);
        // No heartbeat loop here: the driver still believes the host is
        // alive, so the stalled op burns real retry time in the batch.
        let mut pairs = vec![(stalled_from, healthy[0].1)];
        pairs.extend(healthy.iter().copied());
        let t0 = Instant::now();
        let results = cluster
            .driver()
            .route_indices_pipelined(&pairs, pairs.len())
            .unwrap();
        let batch_elapsed = t0.elapsed();

        assert!(
            results[0].owner_hops.is_none(),
            "the route from the crashed host must not answer"
        );
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!(
                r.owner_hops.is_some(),
                "healthy pipelined route {i} failed: {r:?}"
            );
            assert!(
                r.latency < Duration::from_millis(150),
                "healthy route {i} took {:?} — head-of-line blocked by the \
                 stalled op (serial issue would park it behind ~seconds of \
                 retry ladder)",
                r.latency
            );
        }
        // The whole batch is bounded by the one stalled op, not by
        // stalled-time × batch-size as the serial loop would be.
        assert!(
            batch_elapsed < RetryPolicy::tight().budget + Duration::from_secs(2),
            "batch took {batch_elapsed:?}"
        );
        cluster.shutdown().unwrap();
    }
}
