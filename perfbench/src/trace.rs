//! Span recording for the traced run, from the benchmark's own files.
//!
//! A [`Span`] is one call into a layer: its name, the layer it belongs
//! to, start and end on one process-wide clock, the span that caused it
//! and the id of the client operation it served.  Spans stay in memory
//! in per-thread [`SpanLog`]s and are written out when the run ends.
//!
//! [`TracedTransport`] is the bench-owned wrapper handed to
//! `Driver::new` and `HostNode::new`.  It records, per thread:
//! * `transport.send` — the time inside the inner `send`;
//! * `transport.recv` — a `recv_into` call that returned a frame;
//! * `driver.wait` (driver side) — the idle spin from the first empty
//!   `recv_into` to the `recv_into` that returns the next frame;
//! * `host.handler` (host side) — from a `recv_into` that returned a
//!   frame to that host's next `recv_into`;
//! * each frame's kind, size and queueing time (its `send` on one side to
//!   the `recv_into` that returns it on the other), plus a capped set of
//!   frame copies for timing the codec afterwards.
//!
//! The host thread learns which client operation it serves from a shared
//! atomic the client sets: with one closed-loop client every frame a host
//! handles belongs to the operation in flight.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use voronet_net::{PeerId, Transport, TransportError};
use voronet_sim::TransportStats;

/// Frame copies kept per thread for the codec timing.
const FRAME_COPY_CAP: usize = 40_000;

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the process-wide trace origin.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id (0 means "no span").
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// One recorded layer call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    /// The client operation this call served.
    pub op: u64,
    /// Recording thread: 0 client, 1 host, 2 bench-side replay.
    pub thread: u8,
    /// Layer, named after the repository's modules.
    pub layer: &'static str,
    /// Span name, e.g. `transport.send`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One frame as the transport wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct FrameRec {
    /// Operation in flight when the frame moved.
    pub op: u64,
    /// Wire kind byte (header offset 3).
    pub kind: u8,
    /// Frame length in bytes.
    pub len: u32,
    /// True for a frame this side sent, false for one it received.
    pub sent: bool,
    /// When it moved: the end of its `send`, or of the `recv_into` that
    /// returned it, ns since the trace origin.
    pub at: u64,
    /// For a received frame: ns from the sender's `send` to this
    /// `recv_into`, when the send was seen.
    pub queue_ns: Option<u64>,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Frames sent and received.
    pub frames: Vec<FrameRec>,
    /// Copies of sent frames (the first of every kind, then up to a cap).
    pub copies: Vec<Vec<u8>>,
    /// `recv_into` calls made while tracing.
    pub recv_calls: u64,
    /// `recv_into` calls that returned a frame.
    pub recv_frames: u64,
}

/// A per-thread trace, shared with the bench so it survives the
/// transport that filled it.
pub type SpanLog = Arc<Mutex<ThreadTrace>>;

/// A fresh, empty log.
pub fn new_log() -> SpanLog {
    Arc::new(Mutex::new(ThreadTrace::default()))
}

/// Appends one span to a log.
pub fn record(log: &SpanLog, span: Span) {
    log.lock().expect("span log poisoned").spans.push(span);
}

/// State the client and every wrapper share.
#[derive(Debug, Default)]
pub struct TraceShared {
    enabled: AtomicBool,
    op: AtomicU64,
    op_span: AtomicU64,
    in_flight: Mutex<HashMap<(PeerId, PeerId, u64), VecDeque<u64>>>,
}

impl TraceShared {
    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Announces the client operation now in flight and its root span.
    pub fn begin_op(&self, op: u64, span: u64) {
        self.op.store(op, Ordering::SeqCst);
        self.op_span.store(span, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

fn frame_hash(frame: &[u8]) -> u64 {
    // FNV-1a: identifies a frame between its send and its receive.
    frame.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Which end of the cluster a wrapper sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The driver (client) thread.
    Driver,
    /// A host thread.
    Host,
}

/// The bench-owned [`Transport`] wrapper; see the module docs.
pub struct TracedTransport<T: Transport> {
    inner: T,
    side: Side,
    shared: Arc<TraceShared>,
    log: SpanLog,
    kinds_copied: [bool; 256],
    /// Driver: start of the current idle spin.
    idle_since: Option<u64>,
    /// Host: the open handler span `(id, op, parent, start)`.
    handler: Option<(u64, u64, u64, u64)>,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: T, side: Side, shared: Arc<TraceShared>, log: SpanLog) -> Self {
        TracedTransport {
            inner,
            side,
            shared,
            log,
            kinds_copied: [false; 256],
            idle_since: None,
            handler: None,
        }
    }

    fn thread(&self) -> u8 {
        match self.side {
            Side::Driver => 0,
            Side::Host => 1,
        }
    }
}

/// Closes an open host handler span at `at`.
fn close_handler(handler: &mut Option<(u64, u64, u64, u64)>, at: u64, log: &mut ThreadTrace) {
    if let Some((id, op, parent, start)) = handler.take() {
        log.spans.push(Span {
            id,
            parent,
            op,
            thread: 1,
            layer: "net.cluster.host",
            name: "host.handler",
            start,
            end: at,
        });
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn local_peer(&self) -> PeerId {
        self.inner.local_peer()
    }

    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError> {
        self.inner.register(peer, addr)
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        if !self.shared.enabled() {
            return self.inner.send(to, frame);
        }
        let start = now_ns();
        let result = self.inner.send(to, frame);
        let end = now_ns();
        let from = self.inner.local_peer();
        self.shared
            .in_flight
            .lock()
            .expect("in-flight map poisoned")
            .entry((from, to, frame_hash(frame)))
            .or_default()
            .push_back(end);
        let op = self.shared.op.load(Ordering::SeqCst);
        let parent = match (self.side, self.handler) {
            (Side::Host, Some((id, ..))) => id,
            _ => self.shared.op_span.load(Ordering::SeqCst),
        };
        let kind = frame.get(3).copied().unwrap_or(u8::MAX);
        let thread = self.thread();
        let mut log = self.log.lock().expect("span log poisoned");
        // A send ends the driver's idle spin: it is working again.
        if let (Side::Driver, Some(idle)) = (self.side, self.idle_since.take()) {
            log.spans.push(Span {
                id: next_span_id(),
                parent,
                op,
                thread,
                layer: "net.cluster.driver",
                name: "driver.wait",
                start: idle,
                end: start,
            });
        }
        log.spans.push(Span {
            id: next_span_id(),
            parent,
            op,
            thread,
            layer: "net.vnet",
            name: "transport.send",
            start,
            end,
        });
        log.frames.push(FrameRec {
            op,
            kind,
            len: frame.len() as u32,
            sent: true,
            at: end,
            queue_ns: None,
        });
        if !self.kinds_copied[kind as usize] || log.copies.len() < FRAME_COPY_CAP {
            self.kinds_copied[kind as usize] = true;
            log.copies.push(frame.to_vec());
        }
        result
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        self.inner.poll()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        if !self.shared.enabled() {
            self.idle_since = None;
            self.handler = None;
            return self.inner.recv_into(buf);
        }
        let start = now_ns();
        let got = self.inner.recv_into(buf);
        let end = now_ns();
        let mut log = self.log.lock().expect("span log poisoned");
        log.recv_calls += 1;
        if self.side == Side::Host {
            close_handler(&mut self.handler, start, &mut log);
        }
        let from = match &got {
            Ok(Some(from)) => *from,
            _ => {
                if self.side == Side::Driver && self.idle_since.is_none() {
                    self.idle_since = Some(start);
                }
                return got;
            }
        };
        log.recv_frames += 1;
        let op = self.shared.op.load(Ordering::SeqCst);
        let op_span = self.shared.op_span.load(Ordering::SeqCst);
        let thread = self.thread();
        if let (Side::Driver, Some(idle)) = (self.side, self.idle_since.take()) {
            log.spans.push(Span {
                id: next_span_id(),
                parent: op_span,
                op,
                thread,
                layer: "net.cluster.driver",
                name: "driver.wait",
                start: idle,
                end: start,
            });
        }
        log.spans.push(Span {
            id: next_span_id(),
            parent: op_span,
            op,
            thread,
            layer: "net.vnet",
            name: "transport.recv",
            start,
            end,
        });
        let key = (from, self.inner.local_peer(), frame_hash(buf));
        let queue_ns = {
            let mut in_flight = self
                .shared
                .in_flight
                .lock()
                .expect("in-flight map poisoned");
            let sent = in_flight.get_mut(&key).and_then(VecDeque::pop_front);
            if in_flight.get(&key).is_some_and(VecDeque::is_empty) {
                in_flight.remove(&key);
            }
            sent.map(|s| end.saturating_sub(s))
        };
        log.frames.push(FrameRec {
            op,
            kind: buf.get(3).copied().unwrap_or(u8::MAX),
            len: buf.len() as u32,
            sent: false,
            at: end,
            queue_ns,
        });
        if self.side == Side::Host {
            self.handler = Some((next_span_id(), op, op_span, end));
        }
        got
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Self time of every span in `spans`: its duration minus the part of
/// its interval covered by its children on the same thread.  Children on
/// another thread run concurrently and take nothing off.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let thread_of: HashMap<u64, u8> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for s in spans {
        if s.parent != 0 && thread_of.get(&s.parent) == Some(&s.thread) {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start, s.end));
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Writes every span as one tab-separated line under a header.
pub fn write_span_file(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "span\tparent\top\tthread\tlayer\tname\tstart_ns\tend_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.thread, s.layer, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u8, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            thread,
            layer: "t",
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_once() {
        let spans = [
            span(1, 0, 0, 0, 100),
            span(2, 1, 0, 10, 30),
            span(3, 1, 0, 20, 40), // overlaps span 2
            span(4, 1, 1, 0, 100), // other thread: concurrent
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&4], 100);
    }
}
