//! The FanStore daemon: one service loop per node (paper §V-A, §V-D).
//!
//! The daemon owns the node's receiving endpoint on the service channel
//! and answers these request kinds:
//!
//! * **GET_MANY** — the one read request: up to [`MAX_BATCH`] entries,
//!   each a [`GetManySpec`] (path, optional byte range, fidelity bound),
//!   answered in one reply. Entries carry the *compressed* bytes plus
//!   codec and stat — decompression happens on the requesting node, so
//!   the interconnect carries compressed data (§IV-C2) — each framed
//!   with its own status byte and CRC32 so a missing or corrupted entry
//!   fails alone. A ranged or tiered entry for a chunked object carries
//!   the FCHK sub-container of the rows it needs, in the one at-rest
//!   chunk format of [`crate::pack`], which alone decodes it. A
//!   single-file read is a 1-entry batch (see DESIGN.md, "Batched read
//!   protocol").
//! * **GET_META** — metadata lookup: the stat fallback for paths not yet
//!   in the requester's local view.
//! * **PUT_META** — write-metadata insertion: a peer closed an output file
//!   and forwards its metadata to this rank (§V-D).
//! * **PUT** / **UNLINK** — push an object onto, or remove an output file
//!   from, this node's write store (checkpoint replication and GC).
//! * **SHUTDOWN** — terminate the loop.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use fanstore_compress::crc32::crc32;
use mpi_sim::{Channel, Message};

use crate::meta::encode_single;
use crate::metrics::now_us;
use crate::node::{LocalObject, NodeState};
use crate::qos::QosPolicy;
use crate::stat::{FileStat, STAT_SIZE};
use crate::trace::{Op, SpanEvent, TraceRecorder};
use crate::FsError;

/// Service-channel tags.
pub mod tags {
    /// Terminate the daemon loop.
    pub const SHUTDOWN: u64 = 0;
    /// Insert forwarded write metadata.
    pub const PUT_META: u64 = 2;
    /// Fetch a file's metadata (stat fallback for paths not yet in the
    /// local view).
    pub const GET_META: u64 = 3;
    /// Push a whole object onto this node's write store (checkpoint
    /// replication).
    pub const PUT: u64 = 4;
    /// Remove an output file from this node (checkpoint GC).
    pub const UNLINK: u64 = 5;
    /// Fetch several files' compressed bytes in one round trip (the
    /// batched read path): per-entry status and CRC, so one bad entry
    /// fails alone.
    pub const GET_MANY: u64 = 6;
}

/// Most paths a single GET_MANY request may carry; the client chunks
/// larger per-rank groups into several RPCs under the same batch request
/// id.
pub const MAX_BATCH: usize = 128;

/// Reply status bytes.
pub mod status {
    /// Request served.
    pub const OK: u8 = 0;
    /// Path unknown on this node.
    pub const NOT_FOUND: u8 = 1;
    /// Request malformed (or, for a write, refused: input files are
    /// immutable). Terminal — retrying cannot help.
    pub const BAD_REQUEST: u8 = 2;
    /// Request shed by the daemon's QoS scheduler: its deadline had
    /// expired (or could not cover the estimated service time), or the
    /// tenant's queue was full. The client treats this as retryable and
    /// falls over to the next replica / read-through.
    pub const SHED: u8 = 3;
    /// This node failed to serve the request (e.g. its local copy's chunk
    /// table or payload is corrupt, or a write's WAL commit failed).
    /// Unlike [`BAD_REQUEST`] this says nothing about the request itself,
    /// so the client treats it as retryable — a read walks the replica
    /// ring, where an intact copy may survive.
    pub const ERROR: u8 = 5;
}

/// Byte offset of the body (codec + stat + compressed) in a GET_MANY
/// entry frame: after the status byte and the CRC32 field.
const GET_BODY: usize = 1 + 4;

/// Encode a PUT request: `[u16 path len][path][u32 owner rank][data]`.
/// The owner rank is recorded in the receiver's metadata so replicated
/// objects keep pointing at their primary.
pub fn encode_put(path: &str, owner: u32, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + path.len() + 4 + data.len());
    out.extend_from_slice(&(path.len() as u16).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(&owner.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Decode a PUT request into `(path, owner, data)`.
fn decode_put(buf: &[u8]) -> Option<(&str, u32, &[u8])> {
    let plen = u16::from_le_bytes(buf.get(..2)?.try_into().ok()?) as usize;
    let path = std::str::from_utf8(buf.get(2..2 + plen)?).ok()?;
    let owner = u32::from_le_bytes(buf.get(2 + plen..2 + plen + 4)?.try_into().ok()?);
    Some((path, owner, &buf[2 + plen + 4..]))
}

/// Append an entry frame for `obj` to `out`: `[status OK][crc32 u32]
/// [codec u16][stat 144B][payload]`. The payload is the stored
/// (compressed) object, except that a ranged or tiered `spec` of a
/// chunked object gets only the FCHK sub-container of the rows it needs
/// ([`crate::pack::write_rows`]). Entries are assembled straight into the
/// outgoing reply buffer; the CRC placeholder is patched once the body is
/// in place. The CRC covers everything after the CRC field, so a
/// requester can reject in-flight corruption before decoding. Returns
/// the payload length; a malformed range is [`FsError::BadRange`], a
/// damaged local chunk table [`FsError::Corrupt`].
fn encode_entry_into(
    out: &mut Vec<u8>,
    obj: &LocalObject,
    spec: &GetManySpec<'_>,
) -> Result<usize, FsError> {
    let subset = obj.codec == crate::pack::CHUNKED
        && (spec.range.is_some() || spec.min_tier != crate::pack::TIER_FULL);
    out.reserve(GET_BODY + 2 + STAT_SIZE + if subset { 0 } else { obj.data.len() });
    let frame = out.len();
    out.push(status::OK);
    out.extend_from_slice(&[0u8; 4]); // CRC placeholder
    out.extend_from_slice(&obj.codec.0.to_le_bytes());
    obj.stat.encode(out);
    let payload = out.len();
    if subset {
        let table = crate::pack::parse_chunk_table(&obj.data)?;
        let rows = match (table.kind, spec.range) {
            (crate::pack::ChunkKind::Progressive, _) => table.tiers_up_to(spec.min_tier),
            (_, Some((start, end))) if start < end && end <= table.raw_len => {
                table.covering(start, end)
            }
            (_, Some((start, end))) => {
                return Err(FsError::BadRange(format!("[{start}, {end}) of {}", table.raw_len)))
            }
            (_, None) => (0..table.chunks.len()).collect(),
        };
        crate::pack::write_rows(out, &obj.data, &table, &rows);
    } else {
        out.extend_from_slice(&obj.data);
    }
    let crc = crc32(&out[frame + GET_BODY..]);
    out[frame + 1..frame + GET_BODY].copy_from_slice(&crc.to_le_bytes());
    Ok(out.len() - payload)
}

/// Decode an entry frame into `(codec, stat, payload)`,
/// verifying the CRC32. A mismatch decodes to [`FsError::Corrupt`], which
/// the client's failover path treats as retryable on the next replica.
fn decode_get_reply(buf: &[u8]) -> Result<GetManyItem, FsError> {
    match buf.first() {
        Some(&s) if s == status::OK => {}
        Some(&s) if s == status::NOT_FOUND => {
            return Err(FsError::NotFound("remote: not found".into()))
        }
        Some(&s) if s == status::SHED => return Err(FsError::Shed("remote: shed".into())),
        _ => return Err(FsError::Comm("malformed GET_MANY entry".into())),
    }
    if buf.len() < GET_BODY + 2 + STAT_SIZE {
        return Err(FsError::Comm("short GET_MANY entry".into()));
    }
    let expect = u32::from_le_bytes(buf[1..GET_BODY].try_into().expect("4 bytes"));
    let actual = crc32(&buf[GET_BODY..]);
    if expect != actual {
        return Err(FsError::Corrupt(format!(
            "GET_MANY entry CRC mismatch: stored {expect:08x}, computed {actual:08x}"
        )));
    }
    let codec = fanstore_compress::CodecId(u16::from_le_bytes(
        buf[GET_BODY..GET_BODY + 2].try_into().expect("2 bytes"),
    ));
    let stat = FileStat::decode(&buf[GET_BODY + 2..GET_BODY + 2 + STAT_SIZE])?;
    Ok((codec, stat, buf[GET_BODY + 2 + STAT_SIZE..].to_vec()))
}

/// Count-field flag of a GET_MANY request: per-entry range and fidelity
/// fields follow each path. An unflagged request (the retired v1 form,
/// paths only) is answered `BAD_REQUEST`.
const GET_MANY_V2: u32 = 0x8000_0000;

/// One entry of a GET_MANY request: the path, an optional byte range
/// `[start, end)` and a fidelity bound (`min_tier`;
/// [`crate::pack::TIER_FULL`] means every tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetManySpec<'a> {
    /// File path.
    pub path: &'a str,
    /// Byte range `[start, end)` to serve, or `None` for the whole file.
    pub range: Option<(u64, u64)>,
    /// Highest fidelity tier the requester wants shipped.
    pub min_tier: u8,
}

impl<'a> GetManySpec<'a> {
    /// A whole-file, full-fidelity entry.
    pub fn whole(path: &'a str) -> Self {
        GetManySpec { path, range: None, min_tier: crate::pack::TIER_FULL }
    }

    /// A byte-range entry.
    pub fn range(path: &'a str, start: u64, end: u64) -> Self {
        GetManySpec { path, range: Some((start, end)), min_tier: crate::pack::TIER_FULL }
    }

    /// A fidelity-bounded whole-file entry.
    pub fn tiered(path: &'a str, min_tier: u8) -> Self {
        GetManySpec { path, range: None, min_tier }
    }
}

/// Encode a v2 GET_MANY request: `[u32 count | GET_MANY_V2]` then, per
/// entry, `[u16 len][path][u8 flags]` followed by `[u64 start][u64 end]`
/// when flag bit 0 is set and `[u8 min_tier]` when flag bit 1 is set.
pub fn encode_get_many_request_v2(specs: &[GetManySpec]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + specs.len() * 24);
    out.extend_from_slice(&((specs.len() as u32) | GET_MANY_V2).to_le_bytes());
    for s in specs {
        out.extend_from_slice(&(s.path.len() as u16).to_le_bytes());
        out.extend_from_slice(s.path.as_bytes());
        let mut flags = 0u8;
        if s.range.is_some() {
            flags |= 1;
        }
        if s.min_tier != crate::pack::TIER_FULL {
            flags |= 2;
        }
        out.push(flags);
        if let Some((start, end)) = s.range {
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
        }
        if s.min_tier != crate::pack::TIER_FULL {
            out.push(s.min_tier);
        }
    }
    out
}

/// Decode a GET_MANY request into its entry list. `None` on any framing
/// problem (short buffer, unflagged count, non-UTF-8 path, oversized
/// count).
fn decode_get_many_request(buf: &[u8]) -> Option<Vec<GetManySpec<'_>>> {
    let raw = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?);
    let count = (raw & !GET_MANY_V2) as usize;
    if raw & GET_MANY_V2 == 0 || count > MAX_BATCH {
        return None;
    }
    let mut specs = Vec::with_capacity(count);
    let mut off = 4usize;
    for _ in 0..count {
        let plen = u16::from_le_bytes(buf.get(off..off + 2)?.try_into().ok()?) as usize;
        off += 2;
        let path = std::str::from_utf8(buf.get(off..off + plen)?).ok()?;
        off += plen;
        let mut spec = GetManySpec::whole(path);
        let flags = *buf.get(off)?;
        off += 1;
        if flags & !3 != 0 {
            return None;
        }
        if flags & 1 != 0 {
            let start = u64::from_le_bytes(buf.get(off..off + 8)?.try_into().ok()?);
            let end = u64::from_le_bytes(buf.get(off + 8..off + 16)?.try_into().ok()?);
            off += 16;
            spec.range = Some((start, end));
        }
        if flags & 2 != 0 {
            spec.min_tier = *buf.get(off)?;
            off += 1;
        }
        specs.push(spec);
    }
    if off == buf.len() {
        Some(specs)
    } else {
        None // trailing garbage: reject rather than silently ignore
    }
}

/// One decoded GET_MANY entry: codec, stat and payload — the stored
/// object, or for a ranged or tiered read of a chunked object the FCHK
/// sub-container of the rows it needs.
pub type GetManyItem = (fanstore_compress::CodecId, FileStat, Vec<u8>);

/// Decode a GET_MANY reply. The outer frame is `[status][u32 count]`
/// followed by `count` length-prefixed entries (`[u32 len][entry]`), in
/// request order. Entries carry their *own* status byte and CRC32 — a
/// byte flipped in flight fails only the entry it landed in, so the
/// caller can fail over per entry instead of refetching the whole batch;
/// outer-frame damage (or a count mismatch) fails the batch as a whole.
/// A [`status::BAD_REQUEST`] entry byte maps to [`FsError::BadRange`] — the
/// daemon judged the requested range malformed for that file, so
/// retrying a replica would not help. A [`status::ERROR`] entry byte maps
/// to [`FsError::Corrupt`]: the serving node's own copy was damaged, so
/// the client fails over to the next replica.
pub fn decode_get_many_reply_v2(
    buf: &[u8],
    expected: usize,
) -> Result<Vec<Result<GetManyItem, FsError>>, FsError> {
    match buf.first() {
        Some(&s) if s == status::OK => {}
        Some(&s) if s == status::SHED => return Err(FsError::Shed("remote: batch shed".into())),
        _ => return Err(FsError::Comm("malformed GET_MANY reply".into())),
    }
    let count = u32::from_le_bytes(
        buf.get(1..5)
            .ok_or_else(|| FsError::Comm("short GET_MANY reply".into()))?
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    if count != expected {
        return Err(FsError::Comm(format!(
            "GET_MANY entry count mismatch: asked {expected}, got {count}"
        )));
    }
    let mut out = Vec::with_capacity(count);
    let mut off = 5usize;
    for _ in 0..count {
        let len = u32::from_le_bytes(
            buf.get(off..off + 4)
                .ok_or_else(|| FsError::Comm("truncated GET_MANY frame".into()))?
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        off += 4;
        let entry = buf
            .get(off..off + len)
            .ok_or_else(|| FsError::Comm("truncated GET_MANY entry".into()))?;
        off += len;
        out.push(match entry.first() {
            Some(&s) if s == status::BAD_REQUEST => {
                Err(FsError::BadRange("rejected by serving daemon".into()))
            }
            Some(&s) if s == status::ERROR => {
                Err(FsError::Corrupt("serving daemon's local copy damaged".into()))
            }
            _ => decode_get_reply(entry),
        });
    }
    Ok(out)
}

fn handle_get_many(state: &NodeState, msg: &Message, get_bytes: &crate::metrics::Counter) -> bool {
    let reply = match decode_get_many_request(&msg.payload) {
        Some(specs) => {
            let mut out = vec![status::OK];
            out.extend_from_slice(&(specs.len() as u32).to_le_bytes());
            for spec in &specs {
                // Length placeholder, then the entry assembled in place —
                // one buffer for the whole batch reply, no per-entry Vec.
                let len_pos = out.len();
                out.extend_from_slice(&[0u8; 4]);
                match state.get_compressed(spec.path) {
                    Some(mut obj) => {
                        obj.stat.served_by = state.rank as u32;
                        let body = out.len();
                        match encode_entry_into(&mut out, &obj, spec) {
                            Ok(sent) => get_bytes.add(sent as u64),
                            // Only a malformed range is the client's
                            // fault; a corrupt local chunk table must
                            // come back retryable so the client walks
                            // the replica ring instead of giving up.
                            Err(e) => {
                                out.truncate(body);
                                out.push(match e {
                                    FsError::BadRange(_) => status::BAD_REQUEST,
                                    _ => status::ERROR,
                                });
                            }
                        }
                    }
                    None => out.push(status::NOT_FOUND),
                }
                let n = (out.len() - len_pos - 4) as u32;
                out[len_pos..len_pos + 4].copy_from_slice(&n.to_le_bytes());
            }
            out
        }
        None => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

/// One tenant's service lane in the daemon scheduler: its bounded queue,
/// DRR bookkeeping, and per-tenant instrument handles (resolved once per
/// tenant, recorded through `Arc`s on the hot path).
struct Lane {
    /// `(arrival µs, message)`; the arrival stamp (0 when untimed) turns
    /// into the `daemon.queue` wait span at dispatch.
    queue: VecDeque<(u64, Message)>,
    weight: u64,
    deficit: u64,
    served: Arc<crate::metrics::Counter>,
    shed: Arc<crate::metrics::Counter>,
    depth: Arc<crate::metrics::Gauge>,
}

/// Per-tenant bounded queues drained by deficit round-robin. Without a
/// policy every message lands in tenant 0's unbounded lane and the drain
/// order is exactly arrival order — the pre-QoS FIFO, bit for bit.
struct Scheduler<'a> {
    state: &'a NodeState,
    policy: Option<&'a QosPolicy>,
    lanes: BTreeMap<u32, Lane>,
    /// Active tenants in visit order; the front lane holds the current
    /// deficit.
    rr: VecDeque<u32>,
    queued: usize,
    /// Whether to stamp arrivals for queue-wait attribution.
    timed: bool,
}

impl<'a> Scheduler<'a> {
    fn new(state: &'a NodeState, policy: Option<&'a QosPolicy>, timed: bool) -> Self {
        Scheduler { state, policy, lanes: BTreeMap::new(), rr: VecDeque::new(), queued: 0, timed }
    }

    fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Queue one arriving message on its tenant's lane; a full lane sheds
    /// it immediately (SHUTDOWN is never shed).
    fn enqueue(&mut self, msg: Message) {
        let tenant = msg.tenant;
        let lane = self.lanes.entry(tenant).or_insert_with(|| {
            let m = &self.state.metrics;
            Lane {
                queue: VecDeque::new(),
                weight: self.policy.map_or(1, |p| p.weight(tenant)),
                deficit: 0,
                served: m.counter(&format!("qos.tenant.{tenant}.served")),
                shed: m.counter(&format!("qos.tenant.{tenant}.shed")),
                depth: m.gauge(&format!("qos.tenant.{tenant}.queue_depth")),
            }
        });
        let depth = self.policy.map_or(0, |p| p.queue_depth);
        if depth > 0 && lane.queue.len() >= depth && msg.tag != tags::SHUTDOWN {
            // Count before replying: the requester may act on the SHED
            // reply immediately, and must find the counters consistent.
            lane.shed.inc();
            self.state.stats.daemon_shed.inc();
            msg.reply(vec![status::SHED]);
            return;
        }
        if lane.queue.is_empty() {
            self.rr.push_back(tenant);
        }
        let arrival = if self.timed { now_us() } else { 0 };
        lane.queue.push_back((arrival, msg));
        lane.depth.set(lane.queue.len() as u64);
        self.queued += 1;
    }

    /// Pop the next message under DRR: the front tenant receives its
    /// weight as quantum on arrival at the head and serves one request
    /// per unit of deficit; spending it (or draining the lane) rotates
    /// the tenant to the back of the round.
    fn next(&mut self) -> Option<(u32, u64, Message)> {
        while let Some(&tenant) = self.rr.front() {
            let lane = self.lanes.get_mut(&tenant).expect("active lane exists");
            if lane.queue.is_empty() {
                lane.deficit = 0;
                self.rr.pop_front();
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = lane.weight.max(1);
            }
            let (arrival, msg) = lane.queue.pop_front().expect("lane non-empty");
            lane.deficit -= 1;
            lane.depth.set(lane.queue.len() as u64);
            self.queued -= 1;
            let drained = lane.queue.is_empty();
            if lane.deficit == 0 || drained {
                lane.deficit = 0;
                self.rr.pop_front();
                if !drained {
                    self.rr.push_back(tenant);
                }
            }
            return Some((tenant, arrival, msg));
        }
        None
    }

    /// Count a dispatched request against its tenant.
    fn count_served(&self, tenant: u32) {
        if let Some(lane) = self.lanes.get(&tenant) {
            lane.served.inc();
        }
    }

    /// Count a shed request against its tenant (and the node total).
    fn count_shed(&self, tenant: u32) {
        if let Some(lane) = self.lanes.get(&tenant) {
            lane.shed.inc();
        }
        self.state.stats.daemon_shed.inc();
    }
}

/// How many dispatches between refreshes of the cached service-time
/// estimate (the `daemon.serve.latency_us` median).
const EST_REFRESH: u64 = 64;

/// Run the daemon loop until a SHUTDOWN message arrives or every peer
/// endpoint is gone. Returns the number of requests served.
///
/// Under a [`QosPolicy`], arriving requests queue per tenant (bounded;
/// overflow is shed), the queues drain by deficit round-robin instead of
/// strict FIFO, and any request whose deadline has expired — or whose
/// remaining budget cannot cover the estimated service time (the
/// serve-latency median) — is answered with [`status::SHED`] instead of
/// being served. With `policy` `None` the loop is strict FIFO.
///
/// With a trace recorder, requests leave `daemon.queue` / `daemon.serve`
/// spans under the requester's id, and undeliverable replies (the
/// requester gave up — timed out or died), always counted in
/// `stats.reply_failures`, are also recorded as [`Op::Degraded`] events.
pub fn serve(
    state: Arc<NodeState>,
    mut service: Channel,
    trace: Option<Arc<TraceRecorder>>,
    policy: Option<Arc<QosPolicy>>,
) -> u64 {
    // Resolve instrument handles once; the loop records through Arcs.
    let serve_latency = state.metrics.histogram("daemon.serve.latency_us");
    let queue_wait = state.metrics.histogram("daemon.queue.wait_us");
    let get_bytes = state.metrics.counter("daemon.get.bytes");
    let timed = state.metrics.is_enabled() || trace.is_some();
    let mut sched = Scheduler::new(&state, policy.as_deref(), timed);
    let mut served = 0u64;
    // Cached estimate of one request's service time, used by the shed
    // decision; refreshed from the latency histogram every EST_REFRESH
    // dispatches (0 until the histogram has data).
    let mut est_serve_us = 0u64;
    'daemon: loop {
        // Admission: block only when nothing is queued, then drain every
        // message already waiting so the scheduler sees all tenants
        // before picking.
        if sched.is_empty() {
            match service.recv() {
                Ok(m) => sched.enqueue(m),
                Err(_) => break, // all peers disconnected
            }
        }
        while let Some(m) = service.try_recv() {
            sched.enqueue(m);
        }
        let Some((tenant, arrival_us, msg)) = sched.next() else { continue };
        // Queue wait: arrival → dispatch, charged to the request whether
        // it is served or shed below (the requester waited either way).
        if timed && arrival_us != 0 && msg.tag != tags::SHUTDOWN {
            let wait = now_us().saturating_sub(arrival_us);
            queue_wait.record_with_exemplar(wait, msg.request_id);
            if let Some(t) = &trace {
                t.record_span(SpanEvent {
                    request: msg.request_id,
                    rank: state.rank as u32,
                    stage: "daemon.queue".to_string(),
                    start_us: arrival_us,
                    dur_us: wait,
                });
            }
        }
        // Deadline shed: the requester stamped an absolute deadline on
        // the shared monotonic clock. If it already passed — or the
        // remaining budget can't cover the estimated service time — the
        // requester would discard the reply anyway; answer SHED instead
        // of burning the decode.
        if msg.deadline_us != 0 && msg.tag != tags::SHUTDOWN {
            let now = now_us();
            if now >= msg.deadline_us || msg.deadline_us - now < est_serve_us {
                sched.count_shed(tenant); // count first: see `enqueue`
                msg.reply(vec![status::SHED]);
                continue;
            }
        }
        served += 1;
        sched.count_served(tenant);
        let start = if timed { now_us() } else { 0 };
        let shutdown = msg.tag == tags::SHUTDOWN;
        let delivered = match msg.tag {
            tags::SHUTDOWN => msg.reply(vec![status::OK]),
            tags::GET_MANY => handle_get_many(&state, &msg, &get_bytes),
            tags::GET_META => handle_get_meta(&state, &msg),
            tags::PUT_META => {
                let ok = state.merge_meta(&msg.payload).is_ok();
                msg.reply(vec![if ok { status::OK } else { status::BAD_REQUEST }])
            }
            tags::PUT => handle_put(&state, &msg),
            tags::UNLINK => handle_unlink(&state, &msg),
            _ => msg.reply(vec![status::BAD_REQUEST]),
        };
        if timed && !shutdown {
            serve_latency.record_with_exemplar(now_us().saturating_sub(start), msg.request_id);
            if served.is_multiple_of(EST_REFRESH) {
                est_serve_us = serve_latency.quantile(0.5);
            }
            // The requester minted the id; stamping it here lets a span
            // tree reassemble the server leg of the request.
            if let Some(t) = &trace {
                t.record_span(SpanEvent {
                    request: msg.request_id,
                    rank: state.rank as u32,
                    stage: "daemon.serve".to_string(),
                    start_us: start,
                    dur_us: now_us().saturating_sub(start),
                });
                // Writes get their own stage so `fanstore attrib` can
                // attribute write latency separately from read serving.
                if msg.tag == tags::PUT {
                    t.record_span(SpanEvent {
                        request: msg.request_id,
                        rank: state.rank as u32,
                        stage: "daemon.write_serve".to_string(),
                        start_us: start,
                        dur_us: now_us().saturating_sub(start),
                    });
                }
            }
        }
        if !delivered {
            state.stats.reply_failures.inc();
            if let Some(t) = &trace {
                t.record(Op::Degraded, "daemon:reply-drop", 0);
            }
        }
        if shutdown {
            break 'daemon;
        }
    }
    served
}

fn handle_put(state: &NodeState, msg: &Message) -> bool {
    let reply = match decode_put(&msg.payload) {
        // OK only once the write is durable: put_replica lands it in
        // the WAL (when one is attached) before returning, so a commit
        // failure — a node fault, not a bad request — must surface as
        // ERROR, never an ACK.
        Some((path, owner, data)) => match state.put_replica(path, owner, data.to_vec()) {
            Ok(()) => vec![status::OK],
            Err(_) => vec![status::ERROR],
        },
        None => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

fn handle_unlink(state: &NodeState, msg: &Message) -> bool {
    let reply = match std::str::from_utf8(&msg.payload) {
        Ok(path) => match state.remove_write(path) {
            Ok(true) => vec![status::OK],
            Ok(false) => vec![status::NOT_FOUND],
            Err(FsError::ReadOnly(_)) => vec![status::BAD_REQUEST], // input files are immutable
            Err(_) => vec![status::ERROR],                          // WAL tombstone commit failed
        },
        Err(_) => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

fn handle_get_meta(state: &NodeState, msg: &Message) -> bool {
    let reply = match std::str::from_utf8(&msg.payload) {
        Ok(path) => match state.meta.read().get(path) {
            Some(entry) => {
                let mut out = vec![status::OK];
                out.extend_from_slice(&encode_single(path, entry));
                out
            }
            None => vec![status::NOT_FOUND],
        },
        Err(_) => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::node::decompress_object;
    use crate::prep::{prepare, PrepConfig};

    /// A whole-file entry frame for `obj`, as the daemon embeds it.
    fn get_reply(obj: &LocalObject) -> Vec<u8> {
        let mut out = Vec::new();
        encode_entry_into(&mut out, obj, &GetManySpec::whole("")).unwrap();
        out
    }

    /// Read `path` from rank 0 as a 1-entry GET_MANY and return the entry
    /// frame (the batch framing stripped).
    fn get_one(service: &Channel, path: &str) -> Vec<u8> {
        let req = encode_get_many_request_v2(&[GetManySpec::whole(path)]);
        let reply = service.rpc(0, tags::GET_MANY, req).unwrap();
        reply[1 + 4 + 4..].to_vec()
    }

    /// A GET_MANY request in the retired unflagged (v1) form: `[u32
    /// count]` then per path `[u16 len][path]`.
    fn unflagged_request(paths: &[&str]) -> Vec<u8> {
        let mut out = (paths.len() as u32).to_le_bytes().to_vec();
        for p in paths {
            out.extend_from_slice(&(p.len() as u16).to_le_bytes());
            out.extend_from_slice(p.as_bytes());
        }
        out
    }

    #[test]
    fn get_reply_roundtrip() {
        let packed = prepare(
            vec![("f.bin".to_string(), b"hello hello hello hello".repeat(10))],
            &PrepConfig::default(),
        );
        let state = NodeState::new(0, 1, CacheConfig::default());
        state.load_partition(&packed.partitions[0]).unwrap();
        let obj = state.get_compressed("f.bin").unwrap();
        let buf = get_reply(&obj);
        let (codec, stat, data) = decode_get_reply(&buf).unwrap();
        assert_eq!(codec, obj.codec);
        assert_eq!(stat.size, obj.stat.size);
        let plain = decompress_object(codec, &data, stat.size as usize, "f.bin").unwrap();
        assert_eq!(plain, b"hello hello hello hello".repeat(10));
    }

    #[test]
    fn not_found_reply_decodes_to_error() {
        assert!(matches!(decode_get_reply(&[status::NOT_FOUND]), Err(FsError::NotFound(_))));
        assert!(decode_get_reply(&[]).is_err());
        assert!(decode_get_reply(&[status::OK, 1]).is_err());
    }

    #[test]
    fn get_many_roundtrip_with_per_entry_status() {
        let packed = prepare(
            vec![
                ("g/a.bin".to_string(), b"aaaa".repeat(64)),
                ("g/b.bin".to_string(), b"bbbb".repeat(64)),
            ],
            &PrepConfig::default(),
        );
        let parts = packed.partitions;
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                state.load_partition(&parts[0]).unwrap();
                serve(state, service, None, None)
            } else {
                let specs = ["g/a.bin", "missing", "g/b.bin"].map(GetManySpec::whole);
                let req = encode_get_many_request_v2(&specs);
                let reply = service.rpc(0, tags::GET_MANY, req).unwrap();
                let entries = decode_get_many_reply_v2(&reply, 3).unwrap();
                assert_eq!(entries.len(), 3);
                let Ok((codec, stat, data)) = entries[0].clone() else {
                    panic!("expected a whole-file entry, got {:?}", entries[0]);
                };
                assert_eq!(stat.served_by, 0);
                let plain = decompress_object(codec, &data, stat.size as usize, "g/a.bin").unwrap();
                assert_eq!(plain, b"aaaa".repeat(64));
                assert!(
                    matches!(entries[1], Err(FsError::NotFound(_))),
                    "missing entry fails alone"
                );
                assert!(entries[2].is_ok(), "entry after the miss still served");
                // A count mismatch is a batch-level framing error.
                assert!(decode_get_many_reply_v2(&reply, 2).is_err());
                // A malformed request gets BAD_REQUEST, not a crash.
                let r = service.rpc(0, tags::GET_MANY, vec![1, 0, 0]).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                3
            }
        });
        assert_eq!(results[0], 3);
    }

    #[test]
    fn get_many_corruption_fails_only_the_hit_entry() {
        // Build a 3-entry reply by hand, flip one byte inside the middle
        // entry's payload: decode must keep entries 0 and 2 intact and
        // report entry 1 as Corrupt — the per-entry-CRC guarantee the
        // batched failover path relies on.
        let packed = prepare(
            vec![
                ("m/a.bin".to_string(), b"entry-a ".repeat(40)),
                ("m/b.bin".to_string(), b"entry-b ".repeat(40)),
                ("m/c.bin".to_string(), b"entry-c ".repeat(40)),
            ],
            &PrepConfig::default(),
        );
        let state = NodeState::new(0, 1, CacheConfig::default());
        state.load_partition(&packed.partitions[0]).unwrap();
        let mut reply = vec![status::OK];
        reply.extend_from_slice(&3u32.to_le_bytes());
        let mut entry_starts = Vec::new();
        for p in ["m/a.bin", "m/b.bin", "m/c.bin"] {
            let entry = get_reply(&state.get_compressed(p).unwrap());
            reply.extend_from_slice(&(entry.len() as u32).to_le_bytes());
            entry_starts.push(reply.len());
            reply.extend_from_slice(&entry);
        }
        let mid = entry_starts[1] + GET_BODY + 20; // inside entry 1's body
        reply[mid] ^= 0x10;
        let entries = decode_get_many_reply_v2(&reply, 3).unwrap();
        assert!(entries[0].is_ok(), "entry before the flip survives");
        assert!(matches!(entries[1], Err(FsError::Corrupt(_))), "hit entry rejected by its CRC");
        assert!(entries[2].is_ok(), "entry after the flip survives");
        let Ok((codec, stat, data)) = entries[2].clone() else {
            panic!("expected a whole-file entry, got {:?}", entries[2]);
        };
        let plain = decompress_object(codec, &data, stat.size as usize, "m/c.bin").unwrap();
        assert_eq!(plain, b"entry-c ".repeat(40));
    }

    #[test]
    fn get_many_request_roundtrip_and_limits() {
        let paths = vec!["a", "some/deep/path.bin", ""];
        let buf = encode_get_many_request_v2(
            &paths.iter().map(|p| GetManySpec::whole(p)).collect::<Vec<_>>(),
        );
        let specs = decode_get_many_request(&buf).unwrap();
        assert_eq!(specs.iter().map(|s| s.path).collect::<Vec<_>>(), paths);
        assert!(specs.iter().all(|s| s.range.is_none() && s.min_tier == crate::pack::TIER_FULL));
        // Trailing garbage rejected.
        let mut noisy = buf.clone();
        noisy.push(0);
        assert!(decode_get_many_request(&noisy).is_none());
        // Oversized counts rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&((MAX_BATCH as u32 + 1) | GET_MANY_V2).to_le_bytes());
        assert!(decode_get_many_request(&huge).is_none());
    }

    #[test]
    fn get_many_v2_request_roundtrip() {
        let specs = vec![
            GetManySpec::whole("plain.bin"),
            GetManySpec::range("big.bin", 4096, 8192),
            GetManySpec::tiered("model.f32", 2),
        ];
        let buf = encode_get_many_request_v2(&specs);
        let got = decode_get_many_request(&buf).unwrap();
        assert_eq!(got, specs);
        // Unknown flag bits are rejected, not silently skipped: find the
        // flags byte of the first entry and set a reserved bit.
        let mut bad = buf.clone();
        let flags_at = 4 + 2 + "plain.bin".len();
        bad[flags_at] |= 0x80;
        assert!(decode_get_many_request(&bad).is_none());
        // Truncated range payload rejected.
        let short = buf[..buf.len() - 1].to_vec();
        assert!(decode_get_many_request(&short).is_none());
    }

    #[test]
    fn get_many_v2_serves_range_chunks() {
        let body: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let packed = prepare(
            vec![("r/big.bin".to_string(), body.clone())],
            &PrepConfig { chunk_size: 4096, ..PrepConfig::default() },
        );
        let parts = packed.partitions;
        let results = mpi_sim::launch(2, 1, move |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                state.load_partition(&parts[0]).unwrap();
                serve(state, service, None, None)
            } else {
                // A 1000-byte window crossing a chunk boundary: only the
                // two covering chunks come back, not the whole file.
                let specs = vec![GetManySpec::range("r/big.bin", 3800, 4800)];
                let req = encode_get_many_request_v2(&specs);
                let reply = service.rpc(0, tags::GET_MANY, req).unwrap();
                let items = decode_get_many_reply_v2(&reply, 1).unwrap();
                let (codec, stat, data) = items[0].clone().unwrap();
                assert_eq!(codec, crate::pack::CHUNKED, "expected an FCHK sub-container");
                let p = crate::pack::parse_chunk_table(&data).unwrap();
                assert_eq!(stat.served_by, 0);
                assert_eq!(p.raw_len, body.len() as u64);
                assert_eq!(p.chunk_size, 4096);
                assert_eq!(p.chunks.len(), 2, "only the covering chunks travel");
                let pieces = crate::pack::decode_covering(&data, &p, 3800, 4800).unwrap();
                let mut window = Vec::new();
                for (_, c) in &pieces.chunks {
                    window.extend_from_slice(c);
                }
                let lo = p.chunks[0].offset as usize;
                assert_eq!(&window[3800 - lo..4800 - lo], &body[3800..4800]);

                // An out-of-bounds range is BAD_REQUEST for that entry.
                let bad = vec![GetManySpec::range("r/big.bin", 100, body.len() as u64 + 1)];
                let reply =
                    service.rpc(0, tags::GET_MANY, encode_get_many_request_v2(&bad)).unwrap();
                let items = decode_get_many_reply_v2(&reply, 1).unwrap();
                assert!(matches!(items[0], Err(FsError::BadRange(_))));

                // An unflagged (v1) request is answered BAD_REQUEST.
                let req = unflagged_request(&["r/big.bin"]);
                let reply = service.rpc(0, tags::GET_MANY, req).unwrap();
                assert_eq!(reply, vec![status::BAD_REQUEST]);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                4
            }
        });
        assert_eq!(results[0], 4);
    }

    #[test]
    fn get_many_v2_serves_progressive_tiers() {
        let floats: Vec<u8> = (0..2048).flat_map(|i| ((i as f32) * 0.25).to_le_bytes()).collect();
        let packed = prepare(
            vec![("p/model.f32".to_string(), floats.clone())],
            &PrepConfig { progressive_tiers: 4, ..PrepConfig::default() },
        );
        let parts = packed.partitions;
        let results = mpi_sim::launch(2, 1, move |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                state.load_partition(&parts[0]).unwrap();
                serve(state, service, None, None)
            } else {
                let specs = vec![GetManySpec::tiered("p/model.f32", 1)];
                let req = encode_get_many_request_v2(&specs);
                let reply = service.rpc(0, tags::GET_MANY, req).unwrap();
                let items = decode_get_many_reply_v2(&reply, 1).unwrap();
                let (_, _, data) = items[0].clone().unwrap();
                let p = crate::pack::parse_chunk_table(&data).unwrap();
                assert_eq!(p.chunks.len(), 2, "tiers 0..=1 travel, 2..=3 stay home");
                assert_eq!(p.chunks.iter().map(|c| c.tier).collect::<Vec<_>>(), vec![0, 1]);
                // The served tier prefix decodes to a usable approximation.
                let approx = crate::pack::decode_progressive_prefix(&data, 1).unwrap();
                assert_eq!(approx.len(), floats.len());
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                2
            }
        });
        assert_eq!(results[0], 2);
    }

    #[test]
    fn partial_entry_rejects_trailing_bytes_and_corrupt_table() {
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 239) as u8).collect();
        let packed = prepare(
            vec![("t/file.bin".to_string(), body)],
            &PrepConfig { chunk_size: 2048, ..PrepConfig::default() },
        );
        let state = NodeState::new(0, 1, CacheConfig::default());
        state.load_partition(&packed.partitions[0]).unwrap();
        let obj = state.get_compressed("t/file.bin").unwrap();
        let spec = GetManySpec::range("t/file.bin", 0, 5000);
        // The entry's payload is an FCHK sub-container, decoded by the
        // pack parser alone.
        let decode = |entry: &[u8]| crate::pack::parse_chunk_table(&decode_get_reply(entry)?.2);
        let mut entry = Vec::new();
        encode_entry_into(&mut entry, &obj, &spec).unwrap();
        assert!(decode(&entry).is_ok());
        // Trailing bytes with a fixed-up outer CRC are rejected by the
        // exact-length check, never silently ignored.
        let mut padded = entry.clone();
        padded.push(0xAA);
        let crc = crc32(&padded[GET_BODY..]);
        padded[1..GET_BODY].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&padded), Err(FsError::Corrupt(_))));
        // A damaged chunk table fails encode as Corrupt — the daemon's
        // copy is bad, not the request — so handle_get_many can answer
        // the retryable status::ERROR instead of BAD_REQUEST.
        let mut raw = (*obj.data).clone();
        raw[crate::pack::CHUNK_HEADER] ^= 0xFF;
        let bad = LocalObject { codec: obj.codec, stat: obj.stat, data: Arc::new(raw) };
        let mut out = Vec::new();
        assert!(matches!(encode_entry_into(&mut out, &bad, &spec), Err(FsError::Corrupt(_))));
    }

    #[test]
    fn partial_entry_with_huge_chunk_count_is_a_typed_error() {
        // Regression: the row count is peer-supplied. An entry whose
        // FCHK sub-container claims u32::MAX rows (outer CRC valid, no
        // row bytes) must fail as a typed error, not reserve u32::MAX
        // row slots.
        let mut entry = vec![status::OK, 0, 0, 0, 0];
        entry.extend_from_slice(&crate::pack::CHUNKED.0.to_le_bytes());
        FileStat::regular(0, 0).encode(&mut entry);
        entry.extend_from_slice(b"FCHK\x01\x00"); // magic, version 1, range kind
        entry.extend_from_slice(&0u16.to_le_bytes()); // inner codec
        entry.extend_from_slice(&4096u32.to_le_bytes()); // chunk size
        entry.extend_from_slice(&0u64.to_le_bytes()); // raw length
        entry.extend_from_slice(&u32::MAX.to_le_bytes()); // row count
        let crc = crc32(&entry[GET_BODY..]);
        entry[1..GET_BODY].copy_from_slice(&crc.to_le_bytes());
        let mut reply = vec![status::OK];
        reply.extend_from_slice(&1u32.to_le_bytes());
        reply.extend_from_slice(&(entry.len() as u32).to_le_bytes());
        reply.extend_from_slice(&entry);
        assert!(reply.len() < 200, "a small frame: {} bytes", reply.len());
        let items = decode_get_many_reply_v2(&reply, 1).unwrap();
        let table = crate::pack::parse_chunk_table(&items[0].as_ref().unwrap().2);
        assert!(matches!(table, Err(FsError::Corrupt(_))), "got {table:?}");
    }

    #[test]
    fn failed_wal_commit_replies_error_and_refused_write_bad_request() {
        // Regression: a write the node cannot commit (its WAL medium lost
        // power, so `sync` fails) is a node fault — ERROR, which the
        // client surfaces as retryable `Comm` — while a refused request
        // (unlinking an input file) stays BAD_REQUEST, terminal
        // `ReadOnly`.
        use crate::client::FsClient;
        use crate::metrics::MetricsRegistry;
        use crate::wal::{CrashMedia, RamMedia, WalConfig, WalStore};
        use std::time::Duration;
        let packed =
            prepare(vec![("in/file.bin".to_string(), b"input".repeat(8))], &PrepConfig::default());
        let parts = packed.partitions;
        // Size the power cut: one byte past what opening the WAL and
        // committing two writes consume.
        let open_wal = |cut: u64| {
            let media = CrashMedia::new(RamMedia::new(Duration::ZERO), cut);
            let (wal, _) =
                WalStore::open(media.clone(), WalConfig::default(), &MetricsRegistry::disabled())
                    .unwrap();
            (media, wal)
        };
        let (probe, wal) = open_wal(u64::MAX);
        for key in ["ckpt/a", "ckpt/d"] {
            wal.put(key, vec![1; 64]).unwrap();
        }
        let cut = u64::MAX - probe.remaining() + 1;
        let results = mpi_sim::launch(2, 1, move |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let mut state = NodeState::new(0, 2, CacheConfig::default());
                state.attach_wal(Arc::new(open_wal(cut).1));
                state.load_partition(&parts[0]).unwrap();
                for key in ["ckpt/a", "ckpt/d"] {
                    state.put_replica(key, 1, vec![1; 64]).unwrap();
                }
                serve(Arc::new(state), service, None, None)
            } else {
                let state = Arc::new(NodeState::new(1, 2, CacheConfig::default()));
                let fs = FsClient::new(state, service.remote());
                // The medium is now past its cut: no write commits.
                let r = service.rpc(0, tags::PUT, encode_put("ckpt/b", 1, &[2; 64])).unwrap();
                assert_eq!(r, vec![status::ERROR]);
                assert!(matches!(fs.put_remote(0, "ckpt/c", &[3; 64]), Err(FsError::Comm(_))));
                let r = service.rpc(0, tags::UNLINK, b"ckpt/a".to_vec()).unwrap();
                assert_eq!(r, vec![status::ERROR]);
                assert!(matches!(fs.unlink_remote(0, "ckpt/d"), Err(FsError::Comm(_))));
                // Input files are immutable: refused, terminally.
                let r = service.rpc(0, tags::UNLINK, b"in/file.bin".to_vec()).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                let refused = fs.unlink_remote(0, "in/file.bin");
                assert!(matches!(refused, Err(FsError::ReadOnly(_))), "{refused:?}");
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                7
            }
        });
        assert_eq!(results[0], 7, "daemon stayed up through every failed write");
    }

    #[test]
    fn corrupt_local_chunk_table_replies_retryable_error_not_bad_request() {
        // Regression: one node's damaged copy must come back as a
        // retryable error so the client walks the replica ring — a
        // BAD_REQUEST reply would decode to BadRange and abort both the
        // failover and the whole-file fallback.
        let body: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let packed = prepare(
            vec![("c/big.bin".to_string(), body)],
            &PrepConfig { chunk_size: 4096, ..PrepConfig::default() },
        );
        let mut part = packed.partitions[0].clone();
        // Flip a byte inside the FCHK chunk table: the daemon's own copy
        // is damaged; the request itself is fine.
        let at = part.windows(4).position(|w| w == b"FCHK").expect("chunked container")
            + crate::pack::CHUNK_HEADER;
        part[at] ^= 0xFF;
        let results = mpi_sim::launch(2, 1, move |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                state.load_partition(&part).unwrap();
                serve(state, service, None, None)
            } else {
                let specs = vec![GetManySpec::range("c/big.bin", 0, 1000)];
                let reply =
                    service.rpc(0, tags::GET_MANY, encode_get_many_request_v2(&specs)).unwrap();
                let items = decode_get_many_reply_v2(&reply, 1).unwrap();
                assert!(
                    matches!(items[0], Err(FsError::Corrupt(_))),
                    "expected retryable Corrupt, got {:?}",
                    items[0]
                );
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                2
            }
        });
        assert_eq!(results[0], 2);
    }

    #[test]
    fn daemon_serves_get_and_shutdown_over_channels() {
        let packed = prepare(
            vec![("d/file.bin".to_string(), b"payload payload payload".repeat(8))],
            &PrepConfig::default(),
        );
        let parts = packed.partitions;
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                state.load_partition(&parts[0]).unwrap();
                serve(state, service, None, None)
            } else {
                let reply = get_one(&service, "d/file.bin");
                let (codec, stat, data) = decode_get_reply(&reply).unwrap();
                assert_eq!(stat.served_by, 0, "daemon stamps the serving rank");
                let plain =
                    decompress_object(codec, &data, stat.size as usize, "d/file.bin").unwrap();
                assert_eq!(plain, b"payload payload payload".repeat(8));
                // Unknown path.
                let nf = get_one(&service, "missing");
                assert_eq!(nf[0], status::NOT_FOUND);
                // Shut the daemon down.
                let ok = service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                assert_eq!(ok[0], status::OK);
                3
            }
        });
        assert_eq!(results[0], 3, "daemon served 3 requests");
    }

    #[test]
    fn corrupted_reply_rejected_by_crc() {
        let packed =
            prepare(vec![("f.bin".to_string(), b"abcdefgh".repeat(64))], &PrepConfig::default());
        let state = NodeState::new(0, 1, CacheConfig::default());
        state.load_partition(&packed.partitions[0]).unwrap();
        let obj = state.get_compressed("f.bin").unwrap();
        let good = get_reply(&obj);
        // Flip one payload byte: decode must reject via CRC, not panic or
        // hand back corrupt bytes.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(decode_get_reply(&bad), Err(FsError::Corrupt(_))));
        // Flip a stat byte too — also covered by the CRC.
        let mut bad_stat = good.clone();
        bad_stat[GET_BODY + 10] ^= 0x01;
        assert!(matches!(decode_get_reply(&bad_stat), Err(FsError::Corrupt(_))));
        assert!(decode_get_reply(&good).is_ok());
    }

    #[test]
    fn bad_request_paths_reply_bad_request() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                serve(state, service, None, None)
            } else {
                // GET_MANY with a non-UTF-8 path.
                let mut req = (1 | GET_MANY_V2).to_le_bytes().to_vec();
                req.extend_from_slice(&[3, 0, 0xFF, 0xFE, 0x00, 0]);
                let r = service.rpc(0, tags::GET_MANY, req).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                // GET_META with a non-UTF-8 path.
                let r = service.rpc(0, tags::GET_META, vec![0x80]).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                // GET_META for an unknown path.
                let r = service.rpc(0, tags::GET_META, b"nope".to_vec()).unwrap();
                assert_eq!(r, vec![status::NOT_FOUND]);
                // PUT_META with garbage metadata.
                let r = service.rpc(0, tags::PUT_META, vec![9; 3]).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                // Unknown tag.
                let r = service.rpc(0, 777, Vec::new()).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                6
            }
        });
        assert_eq!(results[0], 6, "daemon stayed up through every bad request");
    }

    #[test]
    fn undeliverable_reply_counted() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let trace = Arc::new(crate::trace::TraceRecorder::new(8));
                let st = Arc::clone(&state);
                let served = serve(st, service, Some(Arc::clone(&trace)), None);
                (served, state.stats.reply_failures.get(), trace.count(Op::Degraded))
            } else {
                // A bare send carries no reply conduit: the daemon's
                // answer is undeliverable and must be counted, not lost
                // silently.
                let req = encode_get_many_request_v2(&[GetManySpec::whole("whatever")]);
                service.send(0, tags::GET_MANY, req).unwrap();
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                (0, 0, 0)
            }
        });
        assert_eq!(results[0], (2, 1, 1));
    }

    #[test]
    fn put_then_unlink_roundtrip() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let st = Arc::clone(&state);
                let served = serve(st, service, None, None);
                let still_there = state.writes.read().contains_key("ckpt/seg0");
                (served, still_there)
            } else {
                let buf = encode_put("ckpt/seg0", 1, &[0xAB; 128]);
                let ok = service.rpc(0, tags::PUT, buf).unwrap();
                assert_eq!(ok[0], status::OK);
                // The replica now serves GETs for the pushed object.
                let reply = get_one(&service, "ckpt/seg0");
                let (codec, stat, data) = decode_get_reply(&reply).unwrap();
                assert_eq!(stat.owner_rank, 1, "owner stays the pusher");
                let plain =
                    decompress_object(codec, &data, stat.size as usize, "ckpt/seg0").unwrap();
                assert_eq!(plain, vec![0xABu8; 128]);
                // Unlink removes it; a second unlink reports NOT_FOUND.
                let r = service.rpc(0, tags::UNLINK, b"ckpt/seg0".to_vec()).unwrap();
                assert_eq!(r[0], status::OK);
                let r = service.rpc(0, tags::UNLINK, b"ckpt/seg0".to_vec()).unwrap();
                assert_eq!(r[0], status::NOT_FOUND);
                // Truncated PUT payloads are rejected, not panicked on.
                let r = service.rpc(0, tags::PUT, vec![0xFF, 0xFF, 0x01]).unwrap();
                assert_eq!(r[0], status::BAD_REQUEST);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                (0, false)
            }
        });
        assert_eq!(results[0], (6, false), "object gone after unlink");
    }

    #[test]
    fn put_meta_insertion() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let st = Arc::clone(&state);
                let served = serve(st, service, None, None);
                let size = state.meta.read().stat("out/model_epoch3.h5").map(|s| s.size);
                (served, size)
            } else {
                let entry = crate::meta::MetaEntry {
                    stat: {
                        let mut s = FileStat::regular(0, 4242);
                        s.owner_rank = 1;
                        s
                    },
                    codec: fanstore_compress::CodecId(0),
                };
                let buf = encode_single("out/model_epoch3.h5", &entry);
                let ok = service.rpc(0, tags::PUT_META, buf).unwrap();
                assert_eq!(ok[0], status::OK);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                (0, None)
            }
        });
        assert_eq!(results[0], (2, Some(4242)));
    }
}
