//! Replay inside the network simulator: a querier host that emulates
//! every original source, reuses per-source TCP/TLS connections, and
//! logs per-query latency — the client side of the §5.2 experiments
//! (memory, CPU, and the latency-vs-RTT Figures 15a/15b).

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_wire::framing::{frame_into, FrameBuffer};
use dns_wire::{peek_id, EncodeScratch, Transport};
use ldp_guard::{
    Admission, AdmissionController, Checkpoint, CheckpointParseError, InflightStatus,
    RetransmitConfig,
};
use ldp_telemetry::Kind;
use ldp_trace::TraceEntry;
use netsim::{ConnId, Ctx, Host, HostId, PacketBytes, SimDriver, SimDuration, SimTime, TcpEvent};

use crate::core::ReplayCore;
use crate::pending::{PendingKey, PendingTable};
use crate::timing::TimingTracker;

/// One completed query/response pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRecord {
    /// Index of the query in the replayed trace.
    pub seq: u64,
    /// Send time (seconds, sim clock).
    pub sent_s: f64,
    /// Response arrival time (seconds, sim clock).
    pub replied_s: f64,
    /// Transport the query used.
    pub transport: Transport,
    /// The original source address.
    pub source: IpAddr,
    /// Response size in bytes.
    pub response_bytes: usize,
}

impl LatencyRecord {
    /// Query latency in seconds.
    pub fn latency(&self) -> f64 {
        self.replied_s - self.sent_s
    }

    /// The record as one line of text: a checkpoint `rec` line, and a
    /// line of the recovery studies' transcripts. `{:?}` prints the
    /// shortest f64 representation that round-trips exactly, so a
    /// resumed log is byte-identical to the uninterrupted one.
    pub fn to_line(&self) -> String {
        #[cfg(test)]
        tests::LINES_SERIALISED.with(|n| n.set(n.get() + 1));
        format!(
            "{} {:?} {:?} {:?} {} {}",
            self.seq, self.sent_s, self.replied_s, self.transport, self.source, self.response_bytes
        )
    }
}

/// Shared output log.
pub type LatencyLog = Arc<Mutex<Vec<LatencyRecord>>>;

/// Metadata of one committed checkpoint, pushed into
/// [`SimReplayClient::checkpoint_stamps`] at commit time. The document
/// itself replaces its predecessor in `checkpoint_out`; the stamps
/// keep the whole commit history, which is what the crash-storm study
/// gates on ("cuts keep committing through the storm, with live
/// state").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStamp {
    /// Checkpoint ordinal.
    pub epoch: u32,
    /// Virtual commit time (ns).
    pub taken_ns: u64,
    /// Outstanding queries carried.
    pub inflight: usize,
}

/// Timer-token namespace for reconnect retries. Trace replay uses the
/// low token space `[0, trace.len())`; retry tokens set the top bit so
/// the two can never collide.
const RETRY_TOKEN_BIT: u64 = 1 << 63;

/// Timer-token namespace for admission re-offers (a `Busy` verdict
/// parks the query and re-offers it after a short poll gap).
const ADMIT_TOKEN_BIT: u64 = 1 << 62;

/// Timer-token namespace for UDP retransmits (low bits carry the seq).
const RETX_TOKEN_BIT: u64 = 1 << 61;

/// Timer token for the checkpoint cadence tick (no seq payload: the
/// chain is a single self-re-arming timer).
const CP_TOKEN_BIT: u64 = 1 << 60;

/// Poll gap between admission re-offers of a parked query (µs, virtual).
const ADMIT_POLL_US: u64 = 1_000;

/// Reconnect-with-backoff for queries orphaned when their connection
/// dies (server crash, fault-injected kill, refusal): the delay before
/// the first resend (ms, virtual), doubling per attempt, and the resend
/// budget per query across connection deaths. A fixed doubling, not a
/// jittered [`RetransmitConfig`] chain: `fig_recovery`'s kill rows are
/// drawn from it.
const RECONNECT_BACKOFF_MS: u64 = 100;
const MAX_RECONNECTS: u16 = 3;

/// The seq a checkpoint `rec` line leads with.
fn record_seq(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Parse a checkpoint `rec` line written by [`LatencyRecord::to_line`].
fn record_from_line(line: &str) -> Option<LatencyRecord> {
    let seq = record_seq(line)?;
    let mut it = line.split_ascii_whitespace().skip(1);
    let sent_s = it.next()?.parse().ok()?;
    let replied_s = it.next()?.parse().ok()?;
    let transport = match it.next()? {
        "Udp" => Transport::Udp,
        "Tcp" => Transport::Tcp,
        "Tls" => Transport::Tls,
        _ => return None,
    };
    let source = it.next()?.parse().ok()?;
    let response_bytes = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(LatencyRecord {
        seq,
        sent_s,
        replied_s,
        transport,
        source,
        response_bytes,
    })
}

/// The `pending_udp` key of a trace entry. A function of the entry
/// alone, so a resend lands on the slot of the first send, the
/// retransmit timer finds it without a search, and the table need not
/// keep a copy of it.
fn udp_key(entry: &TraceEntry) -> PendingKey {
    (entry.src.ip(), entry.message.id)
}

/// The `pending_udp` key of each seq of `trace`.
fn udp_key_of(trace: &[TraceEntry]) -> impl Fn(u64) -> PendingKey + '_ {
    |seq| udp_key(&trace[seq as usize])
}

/// The schedule of `trace`: offsets from its first entry, which is due
/// at the replay origin.
fn tracker_of(trace: &[TraceEntry]) -> TimingTracker {
    TimingTracker::start(trace.first().map_or(0, |e| e.time_us), 0)
}

/// The absolute virtual deadline of `entry` in a replay whose first
/// entry is due at `origin`.
fn deadline(tracker: &TimingTracker, origin: SimTime, entry: &TraceEntry) -> SimTime {
    origin + SimDuration::from_micros(tracker.deadline_us(entry.time_us))
}

/// The simulated replay client: owns all original source addresses and
/// replays the trace with same-source socket/connection reuse.
///
/// This is the netsim driver of [`ReplayCore`]: the core holds every
/// query's state, the done-set and the checkpoint writer; the client
/// holds the wire — `Host` callbacks, timer tokens, connections, frame
/// buffers and the two pending tables that map what a reply carries
/// back to a trace seq.
///
/// A response is matched to its query on the 12-byte header alone
/// ([`dns_wire::peek_id`]) plus the address or connection it arrived on,
/// as the paper's querier does (§2.6): a reply whose id matches
/// completes the query even when its body would not decode, and
/// anything shorter than a header is ignored.
///
/// Sending, matching, retransmitting and completing a query never
/// iterate a pending table (only a checkpoint commit walks the live
/// queries). A query has at most one pending entry and its key is
/// known: UDP resends re-insert under the same `(source, id)`, and a
/// TCP query is only re-sent after the `Closed` sweep took its entry
/// out, so completion removes exactly the entry the reply was matched
/// to.
pub struct SimReplayClient {
    trace: Vec<TraceEntry>,
    server: SocketAddr,
    /// Force every query onto this transport (otherwise per-entry).
    pub transport_override: Option<Transport>,
    /// Reuse per-source connections (the paper's same-source emulation).
    /// When false, every query opens a fresh connection and closes it
    /// after the response — the ablation baseline that models predict
    /// costs a full extra RTT per query.
    pub reuse_connections: bool,
    /// Per-source open TCP/TLS connection (reused until closed).
    conns: BTreeMap<IpAddr, ConnId>,
    conn_sources: BTreeMap<ConnId, IpAddr>,
    frame_bufs: BTreeMap<ConnId, FrameBuffer>,
    /// The trace seq in flight under each (source, DNS id): keyed
    /// access only, so a hash table.
    pending_udp: PendingTable,
    /// The trace seq in flight under each (connection, DNS id).
    pending_tcp: BTreeMap<(ConnId, u16), u64>,
    /// Where every completed query/response pair is pushed, in
    /// completion order; shared with whoever built the client.
    log: LatencyLog,
    /// Queries sent.
    pub sent: u64,
    /// Fresh connections opened (reuse misses).
    pub connects: u64,
    /// Queries resent after their connection died.
    pub retries: u64,
    /// Schedule, per-query state, done-set and checkpoint writer.
    core: ReplayCore,
    /// Dispatch-side admission window (`None` = unguarded dispatch).
    pub admission: Option<AdmissionController>,
    /// Commit a checkpoint every this much virtual time, on an
    /// absolute grid anchored at [`SimReplayClient::origin`] (ticks at
    /// `origin + k·cadence`), whatever is in flight. `None` disables
    /// checkpointing.
    pub checkpoint_cadence: Option<netsim::SimDuration>,
    /// UDP retransmission policy (`None` = no retransmits: a lost UDP
    /// query is lost, the historical behavior). Each query's `n`-th
    /// retransmit delay is [`RetransmitConfig::delay_us`] of a seed
    /// derived from (`retx_seed`, seq) and `n`: the core keeps a count.
    pub udp_retransmit: Option<RetransmitConfig>,
    /// Run-level seed of the per-query retransmit chains: a query's
    /// `n`-th retransmit delay is drawn from this, its seq and `n`.
    pub retx_seed: u64,
    /// Whether the cadence tick chain is currently armed (re-armed
    /// lazily after construction and after a querier crash).
    cadence_armed: bool,
    /// Latest committed checkpoint (a resume only ever wants the
    /// newest one). A commit takes the document out of the slot,
    /// brings it up to date — its `records` extended by what completed
    /// since, everything else replaced — and puts it back; an empty
    /// slot gets the whole log once.
    pub checkpoint_out: Option<Arc<Mutex<Option<Checkpoint>>>>,
    /// Every commit made, in commit order, for studies that gate on
    /// cuts committing through a storm.
    pub checkpoint_stamps: Option<Arc<Mutex<Vec<CheckpointStamp>>>>,
    /// Virtual-time origin of the schedule — set this to the `start`
    /// passed to [`SimReplayClient::schedule`]. Admission deadlines and
    /// post-crash re-arms are computed from it.
    pub origin: SimTime,
    /// Times this host was power-cycled by the simulator.
    pub restarts: u32,
    /// Reusable encode buffer + compression table for dispatch.
    scratch: EncodeScratch,
    /// The query being sent as it goes on the wire: the encoded
    /// message, length-prefixed for a stream.
    wire: Vec<u8>,
    /// The (seq, reply bytes) of the queries one stream read answered.
    tcp_done: Vec<(u64, usize)>,
}

impl SimReplayClient {
    /// New client replaying `trace` against `server`, logging latencies
    /// into `log`.
    pub fn new(trace: Vec<TraceEntry>, server: SocketAddr, log: LatencyLog) -> Self {
        let core = ReplayCore::new(tracker_of(&trace));
        SimReplayClient {
            trace,
            server,
            transport_override: None,
            reuse_connections: true,
            conns: BTreeMap::new(),
            conn_sources: BTreeMap::new(),
            frame_bufs: BTreeMap::new(),
            pending_udp: PendingTable::new(),
            pending_tcp: BTreeMap::new(),
            log,
            sent: 0,
            connects: 0,
            retries: 0,
            core,
            admission: None,
            checkpoint_cadence: None,
            udp_retransmit: None,
            retx_seed: 0,
            cadence_armed: false,
            checkpoint_out: None,
            checkpoint_stamps: None,
            origin: SimTime::ZERO,
            restarts: 0,
            scratch: EncodeScratch::new(),
            wire: Vec::new(),
            tcp_done: Vec::new(),
        }
    }

    /// Rebuild a client from `cp`, continuing a killed run: the log is
    /// seeded with the checkpointed records (in their original push
    /// order), completed seqs will not be re-sent, and the counters
    /// continue their lineage. Pair with
    /// [`SimReplayClient::schedule_resume`], which re-arms only the
    /// uncompleted remainder at the original virtual-time deadlines —
    /// the resumed transcript is byte-identical to an uninterrupted
    /// same-seed run.
    ///
    /// The checkpoint's counters are *committed* values and its
    /// outstanding queries are re-executed from their original
    /// deadlines (carried on `inflight` lines), so their sends/retries
    /// are re-counted by the resumed run itself — no special handling
    /// needed here beyond seeding the same `retx_seed`/`udp_retransmit`
    /// policy the original run used.
    ///
    /// A checkpoint is text from outside the program, so what it says
    /// of the trace is checked against the trace: a cursor, record or
    /// in-flight seq outside it, a seq recorded twice, in flight twice
    /// or both recorded and in flight, and a counter its field cannot
    /// hold are errors naming the line (as [`Checkpoint::to_text`]
    /// numbers them).
    pub fn resume(
        trace: Vec<TraceEntry>,
        server: SocketAddr,
        log: LatencyLog,
        cp: &Checkpoint,
    ) -> Result<Self, String> {
        let err = |line: usize, msg: String| CheckpointParseError { line, msg }.to_string();
        let queries = trace.len() as u64;
        if cp.cursor > queries {
            let msg = format!("cursor {} is past the trace's {queries} queries", cp.cursor);
            return Err(err(4, msg));
        }
        // Header, epoch, taken_ns and cursor take four lines; then the
        // counters, the records and the in-flight entries.
        let first_rec = 5 + cp.counters.len();
        let mut seeded = Vec::with_capacity(cp.records.len());
        let mut done = BTreeSet::new();
        for (i, text) in cp.records.iter().enumerate() {
            let r = record_from_line(text)
                .ok_or_else(|| err(first_rec + i, format!("unparseable record {text:?}")))?;
            if r.seq >= queries {
                let msg = format!("record of seq {}, outside the {queries}-query trace", r.seq);
                return Err(err(first_rec + i, msg));
            }
            if !done.insert(r.seq) {
                return Err(err(
                    first_rec + i,
                    format!("seq {} is recorded twice", r.seq),
                ));
            }
            seeded.push(r);
        }
        let first_inflight = first_rec + cp.records.len();
        let mut carried = BTreeSet::new();
        for (i, e) in cp.inflight.iter().enumerate() {
            if e.seq >= queries {
                let msg = format!("seq {} in flight, outside the {queries}-query trace", e.seq);
                return Err(err(first_inflight + i, msg));
            }
            if done.contains(&e.seq) {
                let msg = format!("seq {} is both recorded and in flight", e.seq);
                return Err(err(first_inflight + i, msg));
            }
            if !carried.insert(e.seq) {
                let msg = format!("seq {} is in flight twice", e.seq);
                return Err(err(first_inflight + i, msg));
            }
        }
        let restarts = match cp.counters.iter().position(|(name, _)| name == "restarts") {
            None => 0,
            Some(at) => u32::try_from(cp.counters[at].1)
                .map_err(|_| err(5 + at, "restarts exceeds u32".to_string()))?,
        };
        let mut client = SimReplayClient::new(trace, server, log);
        // The cursor restarts at 0: a cut's cursor passed over carried
        // queries, which this run has yet to answer.
        client.core = ReplayCore::resume(*client.core.tracker(), cp.epoch, done);
        client.log.lock().unwrap().extend(seeded);
        client.sent = cp.counter("sent").unwrap_or(0);
        client.connects = cp.counter("connects").unwrap_or(0);
        client.retries = cp.counter("retries").unwrap_or(0);
        client.restarts = restarts;
        Ok(client)
    }

    /// The distinct source addresses in the trace (register these with
    /// the simulator for this host).
    pub fn source_addrs(&self) -> Vec<IpAddr> {
        let set: std::collections::BTreeSet<IpAddr> =
            self.trace.iter().map(|e| e.src.ip()).collect();
        set.into_iter().collect()
    }

    /// Schedule one timer per trace entry, offset so the first query
    /// fires at `start`.
    pub fn schedule(sim: &mut impl SimDriver, host: HostId, trace: &[TraceEntry], start: SimTime) {
        let tracker = tracker_of(trace);
        sim.reserve_events(trace.len());
        for (i, e) in trace.iter().enumerate() {
            sim.schedule_timer(host, deadline(&tracker, start, e), i as u64);
        }
    }

    /// Re-arm the uncompleted remainder of `trace` after
    /// [`SimReplayClient::resume`]. Timers keep their original absolute
    /// virtual-time deadlines (the fresh simulator starts at t = 0, so
    /// every one of them is in its future), which is what makes the
    /// resumed transcript byte-identical to an uninterrupted run.
    ///
    /// The checkpoint's `inflight` lines are authoritative: each
    /// carried query is re-armed at the deadline the checkpoint
    /// recorded for it (its *original* send instant — re-execution,
    /// not continuation: the fresh simulator re-runs the query's full
    /// lifecycle, and because every packet fate and jitter draw is a
    /// pure function of seed and virtual time, the re-run is
    /// bit-identical to the original). `start` must be the same origin
    /// the killed run used, and `cp` a checkpoint
    /// [`SimReplayClient::resume`] accepted.
    pub fn schedule_resume(
        sim: &mut impl SimDriver,
        host: HostId,
        trace: &[TraceEntry],
        start: SimTime,
        cp: &Checkpoint,
    ) {
        let done: BTreeSet<u64> = cp.records.iter().filter_map(|l| record_seq(l)).collect();
        let carried: BTreeMap<u64, u64> =
            cp.inflight.iter().map(|e| (e.seq, e.deadline_ns)).collect();
        let tracker = tracker_of(trace);
        for (i, e) in trace.iter().enumerate() {
            if done.contains(&(i as u64)) {
                continue;
            }
            let at = match carried.get(&(i as u64)) {
                Some(&deadline_ns) => SimTime::from_nanos(deadline_ns.max(start.as_nanos())),
                None => deadline(&tracker, start, e),
            };
            sim.schedule_timer(host, at, i as u64);
        }
    }

    /// Offer entry `idx` to the admission window and act on the
    /// verdict: dispatch, park for a later re-offer, or shed.
    fn try_admit(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let seq = idx as u64;
        if self.core.is_done(seq) {
            return; // answered before a crash/resume boundary
        }
        let Some(adm) = &mut self.admission else {
            self.dispatch(ctx, idx, false);
            return;
        };
        let entry = &self.trace[idx];
        let deadline_us = deadline(self.core.tracker(), self.origin, entry).as_nanos() / 1_000;
        let now_us = ctx.now().as_nanos() / 1_000;
        match adm.offer(seq, deadline_us, now_us) {
            Admission::Admit => self.dispatch(ctx, idx, false),
            Admission::Busy => {
                self.core.park(seq);
                ctx.set_timer(
                    netsim::SimDuration::from_micros(ADMIT_POLL_US),
                    ADMIT_TOKEN_BIT | seq,
                );
            }
            Admission::Shed => {
                self.core.shed(seq);
                ctx.mark(Kind::ReplayShed, seq, now_us.saturating_sub(deadline_us));
            }
        }
    }

    /// A later query with the same wire key took `earlier`'s pending
    /// slot over: no reply can be matched to it any more.
    fn displaced(&mut self, earlier: Option<u64>, seq: u64) {
        if let Some(earlier) = earlier.filter(|&e| e != seq) {
            self.core.abandon(earlier);
        }
    }

    /// Send trace entry `idx`. `resend` marks a retry or retransmit:
    /// the logged latency still spans from the *original* send — a
    /// recovered query pays for the outage it lived through.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, idx: usize, resend: bool) {
        let seq = idx as u64;
        let entry = &self.trace[idx];
        let transport = self.transport_override.unwrap_or(entry.transport);
        let src = entry.src;
        let id = entry.message.id;
        // Encoded into the reusable scratch and put in the client's own
        // wire buffer (framed, for a stream); the simulator copies that
        // into a pooled packet.
        let message = entry.message.encode_into(&mut self.scratch);
        let bytes = message.len();
        match transport {
            Transport::Udp => {
                self.wire.clear();
                self.wire.extend_from_slice(message);
            }
            Transport::Tcp | Transport::Tls => frame_into(message, &mut self.wire),
        }
        let now_ns = ctx.now().as_nanos();
        self.sent += 1;
        self.core.note_send(seq, now_ns, resend);
        let kind = if resend { Kind::QRetx } else { Kind::QSend };
        ctx.mark(kind, seq, bytes as u64);
        match transport {
            Transport::Udp => {
                let earlier = self.pending_udp.insert(seq, udp_key_of(&self.trace));
                self.displaced(earlier, seq);
                ctx.send_udp(src, self.server, self.wire.as_slice());
                // Arm the next retransmit from this query's own
                // deterministic chain; exhaustion is terminal (the
                // query stays pending, carried by any cut).
                if let Some(cfg) = self.udp_retransmit {
                    if let Some(d) = self.core.next_retx_delay_us(seq, &cfg, self.retx_seed) {
                        ctx.set_timer(netsim::SimDuration::from_micros(d), RETX_TOKEN_BIT | seq);
                    }
                }
            }
            Transport::Tcp | Transport::Tls => {
                let reusable = if self.reuse_connections {
                    self.conns.get(&src.ip()).copied()
                } else {
                    None
                };
                let conn = match reusable {
                    Some(c) => c,
                    None => {
                        // Fresh connection: pays the handshake RTTs.
                        let c = ctx.tcp_connect(src, self.server, transport == Transport::Tls);
                        self.connects += 1;
                        if self.reuse_connections {
                            self.conns.insert(src.ip(), c);
                            self.conn_sources.insert(c, src.ip());
                        }
                        self.frame_bufs.insert(c, FrameBuffer::new());
                        c
                    }
                };
                let earlier = self.pending_tcp.insert((conn, id), seq);
                self.displaced(earlier, seq);
                ctx.tcp_send(conn, self.wire.as_slice());
            }
        }
    }

    /// A `bytes`-long reply matched to `seq` arrived now; the caller
    /// took the query's only pending entry out of its table.
    fn complete(&mut self, ctx: &mut Ctx<'_>, seq: u64, bytes: usize) {
        // A pending entry without a live query cannot exist.
        let Some(first_sent_ns) = self.core.complete(seq) else {
            return;
        };
        let now_s = ctx.now().as_secs_f64();
        ctx.mark(Kind::QResponse, seq, bytes as u64);
        // Matched at the latency log's time, which went through
        // seconds: a nanosecond under `now` for some instants.
        let matched_ns = (now_s * 1e9) as u64;
        ctx.recorder()
            .mark(matched_ns, Kind::QMatch, seq, bytes as u64);
        let entry = &self.trace[seq as usize];
        self.log.lock().unwrap().push(LatencyRecord {
            seq,
            sent_s: SimTime::from_nanos(first_sent_ns).as_secs_f64(),
            replied_s: now_s,
            transport: self.transport_override.unwrap_or(entry.transport),
            source: entry.src.ip(),
            response_bytes: bytes,
        });
        if let Some(adm) = &mut self.admission {
            adm.complete();
        }
    }

    /// Commit the checkpoint of virtual instant `taken_ns` into
    /// `checkpoint_out`, whatever is in flight. The cost is what
    /// changed since the previous commit: only the records completed
    /// since are serialised. `connects` is carried as-is: connection
    /// reuse makes per-query attribution ill-defined, so TCP-heavy runs
    /// should compare transcripts, not the connects counter, across a
    /// resume.
    fn commit(&mut self, taken_ns: u64) {
        let Some(out) = &self.checkpoint_out else {
            return;
        };
        let shed = self.admission.as_ref().map_or(0, |a| a.shed_count());
        let counters = [
            ("sent", self.sent),
            ("connects", self.connects),
            ("retries", self.retries),
            ("shed", shed),
            ("restarts", self.restarts as u64),
        ];
        let (tracker, origin, trace) = (*self.core.tracker(), self.origin, &self.trace);
        let cut = self.core.cut(taken_ns, &counters, |seq| {
            trace
                .get(seq as usize)
                .map_or(0, |e| deadline(&tracker, origin, e).as_nanos())
        });
        if let Some(stamps) = &self.checkpoint_stamps {
            stamps.lock().unwrap().push(CheckpointStamp {
                epoch: cut.epoch,
                taken_ns,
                inflight: cut.inflight.len(),
            });
        }
        let mut slot = out.lock().unwrap();
        let log = self.log.lock().unwrap();
        // The slot's document holds the log's first `records.len()`
        // lines (this lineage's previous commit, or the checkpoint the
        // run resumed from); a taken or foreign slot starts over.
        let mut records = slot.take().map_or_else(Vec::new, |cp| cp.records);
        if records.len() > log.len() {
            records.clear();
        }
        records.extend(log[records.len()..].iter().map(LatencyRecord::to_line));
        #[cfg(test)]
        let from_scratch = reference::commit(&log, &cut);
        let cp = Checkpoint { records, ..cut };
        #[cfg(test)]
        assert_eq!(
            cp.to_text(),
            from_scratch.to_text(),
            "an incremental commit is the from-scratch one, byte for byte"
        );
        *slot = Some(cp);
    }

    /// Keys of the queries pending on `conn`: one contiguous key range.
    fn pending_on(&self, conn: ConnId) -> impl Iterator<Item = (ConnId, u16)> + '_ {
        self.pending_tcp
            .range((conn, 0)..=(conn, u16::MAX))
            .map(|(key, _)| *key)
    }

    /// Arm the cadence tick at the core's next grid instant after now.
    fn arm_cadence(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cadence) = self.checkpoint_cadence else {
            return;
        };
        self.cadence_armed = true;
        let now_ns = ctx.now().as_nanos();
        let at_ns = ReplayCore::next_tick_ns(self.origin.as_nanos(), cadence.as_nanos(), now_ns);
        ctx.set_timer(
            netsim::SimDuration::from_nanos(at_ns - now_ns),
            CP_TOKEN_BIT,
        );
    }
}

impl Host for SimReplayClient {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        let Some(id) = peek_id(&data) else {
            return;
        };
        let seq = self
            .pending_udp
            .remove(&(to.ip(), id), udp_key_of(&self.trace));
        if let Some(seq) = seq {
            self.complete(ctx, seq, data.len());
        }
    }

    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Data { conn, data } => {
                let Some(fb) = self.frame_bufs.get_mut(&conn) else {
                    return;
                };
                fb.extend(&data);
                // Replies are matched where they lie in the frame buffer
                // and completed after, from a reused list.
                let mut done = std::mem::take(&mut self.tcp_done);
                while let Some(body) = fb.next_frame() {
                    let pending = peek_id(body).and_then(|id| self.pending_tcp.remove(&(conn, id)));
                    if let Some(seq) = pending {
                        done.push((seq, body.len()));
                    }
                }
                let any_done = !done.is_empty();
                for (seq, bytes) in done.drain(..) {
                    self.complete(ctx, seq, bytes);
                }
                self.tcp_done = done;
                // No-reuse ablation: close as soon as the (single)
                // outstanding query on this throwaway connection is
                // answered. The `Closed` the close brings back drops
                // the frame buffer.
                if !self.reuse_connections && any_done && self.pending_on(conn).next().is_none() {
                    ctx.tcp_close(conn);
                }
            }
            TcpEvent::Closed { conn } => {
                // Idle close, server crash, or refused dial: the next
                // query from this source opens a fresh connection (and
                // pays the handshake).
                if let Some(src) = self.conn_sources.remove(&conn) {
                    self.conns.remove(&src);
                }
                self.frame_bufs.remove(&conn);
                // Queries that died with the connection are resent with
                // exponential backoff rather than silently lost.
                let orphans: Vec<(ConnId, u16)> = self.pending_on(conn).collect();
                for key in orphans {
                    let Some(seq) = self.pending_tcp.remove(&key) else {
                        continue;
                    };
                    if let Some(n) = self.core.orphan(seq, MAX_RECONNECTS) {
                        let delay = SimDuration::from_millis(RECONNECT_BACKOFF_MS << (n - 1));
                        ctx.set_timer(delay, RETRY_TOKEN_BIT | seq);
                    }
                }
            }
            TcpEvent::Connected { .. } | TcpEvent::Incoming { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // The cadence chain is armed off the first timer to fire after
        // construction (or after a crash): every run starts with a
        // trace timer, so the chain is in place before any query
        // completes.
        if !self.cadence_armed {
            self.arm_cadence(ctx);
        }
        if token & RETRY_TOKEN_BIT != 0 {
            let seq = token & !RETRY_TOKEN_BIT;
            // The chain may have been cancelled by a late answer on an
            // earlier attempt — only resend while it is still live.
            if self.core.status(seq) == Some(InflightStatus::Retrying) {
                self.retries += 1;
                self.dispatch(ctx, seq as usize, true);
            }
            return;
        }
        if token & RETX_TOKEN_BIT != 0 {
            // A UDP retransmit came due. Only resend while the query
            // is still on the wire: an answer took its pending entry
            // out, and a later query with the same source and id may
            // have taken the slot over.
            let seq = token & !RETX_TOKEN_BIT;
            let idx = seq as usize;
            let Some(entry) = self.trace.get(idx) else {
                return;
            };
            if self
                .pending_udp
                .get(&udp_key(entry), udp_key_of(&self.trace))
                == Some(seq)
            {
                self.retries += 1;
                self.dispatch(ctx, idx, true);
            }
            return;
        }
        if token == CP_TOKEN_BIT {
            // Cadence tick: commit whatever is in flight and re-arm the
            // next grid instant.
            self.commit(ctx.now().as_nanos());
            self.arm_cadence(ctx);
            return;
        }
        if token & ADMIT_TOKEN_BIT != 0 {
            // Re-offer a parked query. The park may have been lifted by
            // a crash (cleared state) in the meantime.
            let seq = token & !ADMIT_TOKEN_BIT;
            if self.core.status(seq) == Some(InflightStatus::Parked) {
                self.try_admit(ctx, seq as usize);
            }
            return;
        }
        let idx = token as usize;
        if idx < self.trace.len() {
            ctx.mark(Kind::QEnqueue, idx as u64, 0);
            self.try_admit(ctx, idx);
        }
    }

    fn on_crash(&mut self) {
        // Power-off: sockets, connections, frame buffers, in-flight
        // queries, retry chains, parked offers and the cadence tick all
        // die with the process. The trace, the done-set, the send
        // accounting (those packets really left) and the shared log are
        // the durable state a restart rebuilds from.
        self.conns.clear();
        self.conn_sources.clear();
        self.frame_bufs.clear();
        self.pending_udp.clear();
        self.pending_tcp.clear();
        self.core.crash();
        self.cadence_armed = false;
        if let Some(adm) = &mut self.admission {
            adm.reset_in_flight();
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // The crash dropped every pending timer (netsim bumps the
        // timer epoch), so the unanswered remainder of the trace must
        // be re-armed: future deadlines get fresh timers at their
        // original absolute times, already-due ones are re-dispatched
        // now — the dead querier's unacknowledged span.
        self.restarts += 1;
        self.arm_cadence(ctx);
        let now_ns = ctx.now().as_nanos();
        let mut due = Vec::new();
        let mut future = Vec::new();
        for i in 0..self.trace.len() {
            if self.core.is_done(i as u64) {
                continue;
            }
            let at_ns = deadline(self.core.tracker(), self.origin, &self.trace[i]).as_nanos();
            if at_ns <= now_ns {
                due.push(i);
            } else {
                future.push((i, at_ns));
            }
        }
        ctx.mark(Kind::ReplayRestarted, due.len() as u64, future.len() as u64);
        for i in due {
            self.try_admit(ctx, i);
        }
        for (i, at_ns) in future {
            ctx.set_timer(netsim::SimDuration::from_nanos(at_ns - now_ns), i as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use dns_server::{ServerEngine, SimDnsServer};
    use dns_wire::framing::frame;
    use dns_wire::{Name, RData, Record, RecordType, Soa};
    use dns_zone::{Catalog, Zone};
    use ldp_trace::{Mutation, Mutator};
    use netsim::{HostFault, PathConfig, SimConfig, Simulator, Topology};

    thread_local! {
        /// Lines [`LatencyRecord::to_line`] has serialised on this thread.
        pub(super) static LINES_SERIALISED: Cell<u64> = const { Cell::new(0) };
    }

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn engine() -> Arc<ServerEngine> {
        let mut z = Zone::new(n("example"));
        z.insert(Record::new(
            n("example"),
            60,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("a.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 60,
            }),
        ))
        .unwrap();
        z.insert(Record::new(
            n("*.example"),
            60,
            RData::A("9.9.9.9".parse().unwrap()),
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.insert(z);
        Arc::new(ServerEngine::with_catalog(cat))
    }

    fn mk_trace(num: u64, gap_us: u64, sources: u64) -> Vec<TraceEntry> {
        (0..num)
            .map(|i| {
                TraceEntry::query(
                    i * gap_us,
                    format!("10.1.0.{}:5000", 1 + i % sources).parse().unwrap(),
                    "10.9.0.1:53".parse().unwrap(),
                    (i % 65536) as u16,
                    format!("u{i}.example").parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect()
    }

    fn run(
        trace: Vec<TraceEntry>,
        transport: Option<Transport>,
        rtt_ms: u64,
        idle_secs: u64,
        horizon_s: f64,
    ) -> (Vec<LatencyRecord>, netsim::HostStats) {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(rtt_ms),
                bandwidth_bps: None,
                loss: 0.0,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        let server_id = sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(idle_secs)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.transport_override = transport;
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(horizon_s));
        let stats = sim.stats(server_id);
        let out = log.lock().unwrap().clone();
        (out, stats)
    }

    #[test]
    fn udp_latency_is_one_rtt() {
        let trace = mk_trace(20, 10_000, 5);
        let (log, stats) = run(trace, None, 40, 20, 10.0);
        assert_eq!(log.len(), 20);
        for r in &log {
            assert!(
                (r.latency() - 0.040).abs() < 0.002,
                "latency {}",
                r.latency()
            );
        }
        assert_eq!(stats.udp_rx, 20);
    }

    #[test]
    fn tcp_first_query_two_rtt_then_one() {
        let trace = mk_trace(3, 50_000, 1); // one source, 50 ms apart
        let (mut log, stats) = run(trace, Some(Transport::Tcp), 20, 20, 10.0);
        log.sort_by_key(|r| r.seq);
        assert_eq!(log.len(), 3);
        assert!(
            (log[0].latency() - 0.040).abs() < 0.002,
            "fresh conn: 2 RTT, got {}",
            log[0].latency()
        );
        assert!(
            (log[1].latency() - 0.020).abs() < 0.002,
            "reused conn: 1 RTT, got {}",
            log[1].latency()
        );
        assert!((log[2].latency() - 0.020).abs() < 0.002);
        assert_eq!(stats.tcp_accepts, 1, "single reused connection");
    }

    #[test]
    fn tls_first_query_four_rtt() {
        // 200 ms apart so the second query lands after the 3-RTT
        // connection setup (60 ms) has fully completed.
        let trace = mk_trace(2, 200_000, 1);
        let (mut log, stats) = run(trace, Some(Transport::Tls), 20, 20, 10.0);
        log.sort_by_key(|r| r.seq);
        assert!(
            (log[0].latency() - 0.080).abs() < 0.002,
            "TLS fresh: 4 RTT, got {}",
            log[0].latency()
        );
        assert!(
            (log[1].latency() - 0.020).abs() < 0.002,
            "TLS reused: 1 RTT"
        );
        assert_eq!(stats.tls_accepts, 1);
    }

    #[test]
    fn idle_close_forces_reconnect() {
        // Two queries 10 s apart with a 5 s server idle timeout: the
        // second query pays the handshake again.
        let trace = mk_trace(2, 10_000_000, 1);
        let (mut log, stats) = run(trace, Some(Transport::Tcp), 20, 5, 60.0);
        log.sort_by_key(|r| r.seq);
        assert_eq!(log.len(), 2);
        assert!((log[0].latency() - 0.040).abs() < 0.002);
        assert!(
            (log[1].latency() - 0.040).abs() < 0.002,
            "reconnect pays 2 RTT again, got {}",
            log[1].latency()
        );
        assert_eq!(stats.tcp_accepts, 2, "two connections over the run");
    }

    #[test]
    fn transport_mutation_pipeline_works_end_to_end() {
        // Mutate a UDP trace to all-TLS via the trace mutator, then
        // replay — the §5.2 what-if pipeline in miniature.
        let mut trace = mk_trace(10, 20_000, 3);
        Mutator::new(vec![Mutation::SetTransport(Transport::Tls)]).apply(&mut trace);
        let (log, stats) = run(trace, None, 10, 20, 10.0);
        assert_eq!(log.len(), 10);
        assert_eq!(stats.tls_rx, 10);
        assert_eq!(stats.udp_rx, 0);
        assert!(log.iter().all(|r| r.transport == Transport::Tls));
    }

    #[test]
    fn per_source_connections_are_separate() {
        let trace = mk_trace(8, 10_000, 4);
        let (log, stats) = run(trace, Some(Transport::Tcp), 5, 20, 10.0);
        assert_eq!(log.len(), 8);
        assert_eq!(stats.tcp_accepts, 4, "one connection per source");
    }

    /// Crash the server while a query is in flight on an established
    /// connection and restart it at `restart_at_s`: the orphaned query
    /// is redialed with backoff, [`MAX_RECONNECTS`] times at most.
    fn run_crash(restart_at_s: f64) -> Vec<LatencyRecord> {
        // One source, TCP: q0 at t=0 establishes the connection; q1 at
        // t=0.5 s is in flight when the server dies at t=0.52 s.
        let trace = mk_trace(2, 500_000, 1);
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(40),
                bandwidth_bps: None,
                loss: 0.0,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(30)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.transport_override = Some(Transport::Tcp);
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        let (at, ip) = (SimTime::from_secs_f64, server_addr.ip());
        sim.schedule_host_fault(at(0.52), ip, HostFault::Crash);
        sim.schedule_host_fault(at(restart_at_s), ip, HostFault::Restart);
        sim.run_until(at(10.0));
        let mut out = log.lock().unwrap().clone();
        out.sort_by_key(|r| r.seq);
        out
    }

    #[test]
    fn reconnect_with_backoff_recovers_query_lost_to_a_crash() {
        let log = run_crash(0.70);
        assert_eq!(
            log.len(),
            2,
            "both queries answered despite the crash: {log:?}"
        );
        assert!((log[0].latency() - 0.080).abs() < 0.002, "q0 unaffected");
        // q1 was sent at 0.5 s, orphaned by the crash, redialed through
        // the outage and answered after the restart — its latency
        // includes the backoff and the second handshake.
        assert!(
            log[1].latency() > 0.25,
            "recovered latency spans the outage, got {}",
            log[1].latency()
        );
        assert!(
            log[1].latency() < 2.0,
            "recovery is prompt, got {}",
            log[1].latency()
        );
    }

    /// No redial gets through: the three of them, 100, 200 and 400 ms
    /// after each refusal, are over before 1.5 s, and a server still
    /// down then has cost the orphan its whole budget — coming back
    /// later does not revive it.
    #[test]
    fn without_reconnect_the_orphaned_query_is_lost() {
        let log = run_crash(5.0);
        assert_eq!(log.len(), 1, "only the pre-crash query completes: {log:?}");
        assert_eq!(log[0].seq, 0);
    }

    /// The client behind a shared handle, so a test can look at its
    /// tables after the simulator has taken ownership of the host.
    struct Shared(Arc<Mutex<SimReplayClient>>);

    impl Host for Shared {
        fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, d: PacketBytes) {
            self.0.lock().unwrap().on_udp(ctx, from, to, d);
        }
        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            self.0.lock().unwrap().on_tcp_event(ctx, event);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.0.lock().unwrap().on_timer(ctx, token);
        }
        fn on_crash(&mut self) {
            self.0.lock().unwrap().on_crash();
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
            self.0.lock().unwrap().on_restart(ctx);
        }
    }

    /// A server that answers a query with whatever bytes the test makes
    /// of its id — datagrams over UDP, frame bodies over TCP — after
    /// ignoring its first `ignore` datagrams.
    struct Scripted {
        ignore: u32,
        replies: fn(u16) -> Vec<Vec<u8>>,
        frames: BTreeMap<ConnId, FrameBuffer>,
    }

    impl Scripted {
        fn new(ignore: u32, replies: fn(u16) -> Vec<Vec<u8>>) -> Self {
            Scripted {
                ignore,
                replies,
                frames: BTreeMap::new(),
            }
        }
    }

    impl Host for Scripted {
        fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, d: PacketBytes) {
            if self.ignore > 0 {
                self.ignore -= 1;
                return;
            }
            for reply in (self.replies)(peek_id(&d).unwrap()) {
                ctx.send_udp(to, from, reply);
            }
        }
        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            if let TcpEvent::Data { conn, data } = event {
                let fb = self.frames.entry(conn).or_default();
                fb.extend(&data);
                while let Some(query) = fb.next_frame() {
                    for reply in (self.replies)(peek_id(query).unwrap()) {
                        ctx.tcp_send(conn, frame(&reply));
                    }
                }
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    }

    /// Replay `trace` against `server` over a 40 ms RTT for 10 s and
    /// hand back the client with its log.
    fn run_against(
        server: Box<dyn Host>,
        trace: Vec<TraceEntry>,
        configure: impl FnOnce(&mut SimReplayClient),
        drive: impl FnOnce(&mut Simulator),
    ) -> (Arc<Mutex<SimReplayClient>>, Vec<LatencyRecord>) {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(40),
                bandwidth_bps: None,
                loss: 0.0,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        sim.add_host(&[server_addr.ip()], server);
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        configure(&mut client);
        let srcs = client.source_addrs();
        let client = Arc::new(Mutex::new(client));
        let client_id = sim.add_host(&srcs, Box::new(Shared(client.clone())));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        drive(&mut sim);
        sim.run_until(SimTime::from_secs_f64(10.0));
        let out = log.lock().unwrap().clone();
        (client, out)
    }

    /// No query of an `n`-query trace is parked, on the wire or in a
    /// retry chain.
    fn nothing_live(client: &SimReplayClient, n: u64) -> bool {
        (0..n).all(|seq| client.core.status(seq).is_none())
    }

    /// A header that promises 65 535 questions over a two-byte body:
    /// the id reads, the message does not decode.
    fn undecodable_reply(id: u16) -> Vec<u8> {
        let [hi, lo] = id.to_be_bytes();
        let bytes = vec![hi, lo, 0x80, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0xde, 0xad];
        assert!(dns_wire::Message::decode(&bytes).is_err());
        bytes
    }

    /// UDP replies are matched on the header alone: a datagram shorter
    /// than a header is ignored even though it starts with the id, and
    /// a reply whose body does not decode completes the query.
    #[test]
    fn udp_reply_is_matched_on_its_header_alone() {
        let server = Scripted::new(0, |id| {
            let runt = undecodable_reply(id)[..11].to_vec();
            vec![runt, undecodable_reply(id)]
        });
        let (client, log) = run_against(Box::new(server), mk_trace(3, 50_000, 1), |_| {}, |_| {});
        assert_eq!(log.len(), 3, "{log:?}");
        assert!(log.iter().all(|r| r.response_bytes == 14), "{log:?}");
        assert!(nothing_live(&client.lock().unwrap(), 3));
    }

    /// The same over TCP: a frame whose body does not decode completes
    /// the query its id names on that connection.
    #[test]
    fn tcp_frame_is_matched_on_its_header_alone() {
        let server = Scripted::new(0, |id| vec![undecodable_reply(id)]);
        let (client, log) = run_against(
            Box::new(server),
            mk_trace(3, 50_000, 1),
            |c| c.transport_override = Some(Transport::Tcp),
            |_| {},
        );
        assert_eq!(log.len(), 3, "{log:?}");
        assert!(log.iter().all(|r| r.response_bytes == 14), "{log:?}");
        assert!(nothing_live(&client.lock().unwrap(), 3));
    }

    /// The pending tables hold at most one entry per query, under a key
    /// the query itself names. UDP: the first send is lost, the
    /// retransmit is answered twice — one completion, the duplicate
    /// finds nothing, both tables end empty.
    #[test]
    fn retransmitted_udp_query_completes_once_and_leaves_no_pending() {
        let server = Scripted::new(1, |id| vec![undecodable_reply(id), undecodable_reply(id)]);
        let (client, log) = run_against(
            Box::new(server),
            mk_trace(1, 0, 1),
            |c| {
                c.udp_retransmit = Some(RetransmitConfig {
                    max_retx: 3,
                    base_us: 100_000,
                    cap_us: 400_000,
                });
            },
            |_| {},
        );
        assert_eq!(log.len(), 1, "answered once: {log:?}");
        assert!(log[0].latency() > 0.1, "spans the lost first send");
        let client = client.lock().unwrap();
        assert_eq!((client.sent, client.retries), (2, 1));
        assert!(client.pending_udp.is_empty() && client.pending_tcp.is_empty());
        assert!(nothing_live(&client, 1));
    }

    /// TCP: a query whose connection died is re-sent on a fresh one and
    /// completes exactly once; nothing of either attempt stays behind.
    #[test]
    fn tcp_query_resent_after_its_connection_died_completes_once() {
        let server_ip: IpAddr = "10.9.0.1".parse().unwrap();
        let server = SimDnsServer::new(
            engine(),
            SocketAddr::new(server_ip, 53),
            Some(SimDuration::from_secs(30)),
        );
        // As in `run_crash`: q1 (sent at 0.5 s) is in flight when the
        // server dies at 0.52 s; it is back at 0.70 s.
        let (client, mut log) = run_against(
            Box::new(server),
            mk_trace(2, 500_000, 1),
            |c| c.transport_override = Some(Transport::Tcp),
            |sim| {
                let at = SimTime::from_secs_f64;
                sim.schedule_host_fault(at(0.52), server_ip, HostFault::Crash);
                sim.schedule_host_fault(at(0.70), server_ip, HostFault::Restart);
            },
        );
        log.sort_by_key(|r| r.seq);
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1], "each query answered exactly once");
        let client = client.lock().unwrap();
        assert!(client.retries >= 1, "q1 was re-sent");
        assert!(client.pending_udp.is_empty() && client.pending_tcp.is_empty());
        assert!(nothing_live(&client, 2), "no retry chain left");
    }

    /// The client's stream state is bounded by the connections it has
    /// open: over TCP and TLS, with reuse on and off, with and without
    /// a server crash mid-run, once every connection has closed (the
    /// server's 30 s idle timeout, or the client's own close after the
    /// answer) the per-source connection map, its reverse map, the
    /// frame buffers and the pending table are empty, and every query
    /// was answered exactly once.
    #[test]
    fn stream_state_is_empty_once_every_connection_closed() {
        let trace = mk_trace(24, 50_000, 4);
        for transport in [Transport::Tcp, Transport::Tls] {
            for reuse in [true, false] {
                for crash in [false, true] {
                    let (mut sim, server_addr) = sim_with_server(SimDuration::from_millis(40), 0.0);
                    let server_ip = server_addr.ip();
                    let log: LatencyLog = Arc::new(Mutex::new(vec![]));
                    let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
                    client.transport_override = Some(transport);
                    client.reuse_connections = reuse;
                    let srcs = client.source_addrs();
                    let client = Arc::new(Mutex::new(client));
                    let client_id = sim.add_host(&srcs, Box::new(Shared(client.clone())));
                    SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
                    if crash {
                        let at = SimTime::from_secs_f64;
                        sim.schedule_host_fault(at(0.52), server_ip, HostFault::Crash);
                        sim.schedule_host_fault(at(0.70), server_ip, HostFault::Restart);
                    }
                    sim.run_until(SimTime::from_secs_f64(40.0));
                    let case = format!("{transport:?} reuse={reuse} crash={crash}");
                    assert_eq!(sim.stats(client_id).established, 0, "{case}: all closed");
                    let mut seqs: Vec<u64> = log.lock().unwrap().iter().map(|r| r.seq).collect();
                    seqs.sort_unstable();
                    assert_eq!(seqs, (0..24).collect::<Vec<u64>>(), "{case}: once each");
                    let client = client.lock().unwrap();
                    assert_eq!(
                        client.retries > 0,
                        crash,
                        "{case}: the crash orphaned queries"
                    );
                    assert!(client.conns.is_empty(), "{case}: {:?}", client.conns);
                    assert!(client.conn_sources.is_empty(), "{case}");
                    assert!(client.frame_bufs.is_empty(), "{case}");
                    assert!(client.pending_tcp.is_empty(), "{case}");
                    assert!(nothing_live(&client, 24), "{case}");
                }
            }
        }
    }

    /// A half-closed connection: without reuse the client closes its
    /// half as soon as the one query on it is answered, and the
    /// server's second copy of that answer arrives after the close.
    /// The copy completes nothing, the `Closed` that the close brings
    /// back drops the connection's frame buffer, and nothing is left.
    #[test]
    fn a_reply_after_the_clients_close_leaves_nothing_behind() {
        let server = Scripted::new(0, |id| vec![undecodable_reply(id), undecodable_reply(id)]);
        let (client, log) = run_against(
            Box::new(server),
            mk_trace(6, 50_000, 2),
            |c| {
                c.transport_override = Some(Transport::Tcp);
                c.reuse_connections = false;
            },
            |_| {},
        );
        let mut seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..6).collect::<Vec<u64>>(), "once each");
        let client = client.lock().unwrap();
        assert_eq!(client.connects, 6, "one connection per query");
        assert!(client.frame_bufs.is_empty(), "{:?}", client.frame_bufs);
        assert!(client.conns.is_empty() && client.pending_tcp.is_empty());
        assert!(nothing_live(&client, 6));
    }

    /// One full checkpointed run: returns (transcript lines, last
    /// committed checkpoint). When `kill_at_s` is set the simulator is
    /// abandoned at that virtual time — the moral equivalent of
    /// `kill -9` on the replay process.
    fn checkpointed_run(kill_at_s: Option<f64>) -> (Vec<String>, Option<Checkpoint>) {
        let trace = mk_trace(40, 50_000, 4);
        let (mut sim, server_addr) = sim_with_server(SimDuration::from_millis(40), 0.0);
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let cp_out = Arc::new(Mutex::new(None));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.checkpoint_cadence = Some(SimDuration::from_millis(250));
        client.checkpoint_out = Some(cp_out.clone());
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(kill_at_s.unwrap_or(30.0)));
        let lines = log
            .lock()
            .unwrap()
            .iter()
            .map(LatencyRecord::to_line)
            .collect();
        let cp = cp_out.lock().unwrap().clone();
        (lines, cp)
    }

    /// The tentpole guarantee: kill a checkpointed run mid-replay,
    /// resume from the last committed checkpoint in a fresh simulator,
    /// and the full transcript (checkpointed prefix + resumed
    /// remainder) is byte-identical to an uninterrupted same-seed run.
    #[test]
    fn kill_and_resume_replays_a_byte_identical_transcript() {
        let (uninterrupted, _) = checkpointed_run(None);
        assert_eq!(uninterrupted.len(), 40);

        // Kill at 0.62 s: 12 queries are done, the checkpoint of the
        // 0.5 s tick holds the first 10, and everything after the cut
        // is lost with the process.
        let (_, cp) = checkpointed_run(Some(0.62));
        let cp = cp.expect("a checkpoint committed before the kill");
        assert!(
            cp.cursor >= 5 && cp.cursor < 40,
            "mid-run cut, got {}",
            cp.cursor
        );
        // The checkpoint survives serialization.
        let cp = Checkpoint::from_text(&cp.to_text().unwrap()).unwrap();

        let trace = mk_trace(40, 50_000, 4);
        let (mut sim, server_addr) = sim_with_server(SimDuration::from_millis(40), 0.0);
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let client = SimReplayClient::resume(trace.clone(), server_addr, log.clone(), &cp).unwrap();
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule_resume(&mut sim, client_id, &trace, SimTime::ZERO, &cp);
        sim.run_until(SimTime::from_secs_f64(30.0));

        let resumed: Vec<String> = log
            .lock()
            .unwrap()
            .iter()
            .map(LatencyRecord::to_line)
            .collect();
        assert_eq!(resumed, uninterrupted, "resumed transcript diverged");
    }

    /// A one-slot admission window under a burst: the first query is
    /// admitted, the rest park, and once they overstay the lateness
    /// allowance they are shed — recorded, not silently dropped, and
    /// the replay clock never stalls waiting for them.
    #[test]
    fn overloaded_window_sheds_late_queries_instead_of_stalling() {
        // The shed seqs are read off the `replay.shed` marks.
        let trace = mk_trace(10, 0, 2); // burst: all due at t = 0
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(40),
                bandwidth_bps: None,
                loss: 0.0,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(30)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.admission = Some(AdmissionController::new(ldp_guard::AdmissionConfig {
            max_in_flight: 1,
            max_lateness_us: 5_000,
        }));
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        sim.set_recording(true);
        sim.run_until(SimTime::from_secs_f64(5.0));

        let answered = log.lock().unwrap().len();
        let mut shed: Vec<u64> = sim
            .drain_recording()
            .events
            .iter()
            .filter(|e| e.kind == Kind::ReplayShed)
            .map(|e| e.a)
            .collect();
        shed.sort_unstable();
        assert_eq!(answered, 1, "only the admitted query is answered");
        assert_eq!(
            shed,
            (1..10).collect::<Vec<u64>>(),
            "the other nine are shed on record"
        );
    }

    /// Power-cycle the *querier* mid-replay: the crash loses in-flight
    /// state and pending timers, and `on_restart` re-dispatches the
    /// overdue span and re-arms the future one — every query in the
    /// trace is still answered.
    #[test]
    fn querier_crash_and_restart_answers_the_whole_trace() {
        let trace = mk_trace(20, 50_000, 1);
        let src_ip: IpAddr = "10.1.0.1".parse().unwrap();
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(40),
                bandwidth_bps: None,
                loss: 0.0,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(30)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        // q4 (sent at 0.20 s) is in flight when the querier dies at
        // 0.23 s; timers for q5..q7 are dropped by the crash.
        let at = SimTime::from_secs_f64;
        sim.schedule_host_fault(at(0.23), src_ip, HostFault::Crash);
        sim.schedule_host_fault(at(0.40), src_ip, HostFault::Restart);
        sim.run_until(at(30.0));

        let mut seqs: Vec<u64> = log.lock().unwrap().iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs,
            (0..20).collect::<Vec<u64>>(),
            "every query answered despite the crash"
        );
    }

    /// Sustained random loss with UDP retransmission enabled: every
    /// query is eventually answered (the per-query budgets outlast the
    /// loss), and the answered-late queries show retransmit latency.
    #[test]
    fn udp_retransmission_recovers_lost_queries() {
        let trace = mk_trace(30, 50_000, 4);
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(40),
                bandwidth_bps: None,
                loss: 0.3,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(30)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.udp_retransmit = Some(RetransmitConfig {
            max_retx: 10,
            base_us: 100_000,
            cap_us: 400_000,
        });
        client.retx_seed = 7;
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(30.0));
        let out = log.lock().unwrap().clone();
        assert_eq!(out.len(), 30, "all queries answered through 30% loss");
        assert!(
            out.iter().any(|r| r.latency() > 0.09),
            "some query needed at least one retransmit"
        );
        // Latency spans from the *original* send even for retransmitted
        // answers.
        assert!(out.iter().all(|r| r.latency() >= 0.039));
    }

    /// Cadence cuts commit on the absolute grid with queries in flight,
    /// counters committed down to completed work, and the document
    /// round-trips through its text form.
    #[test]
    fn fuzzy_cadence_commits_with_inflight_state() {
        // Gap 50 ms, RTT 40 ms, cadence 25 ms: every odd grid tick
        // lands while a query is on the wire.
        let trace = mk_trace(40, 50_000, 4);
        let (mut sim, server_addr) = sim_with_server(SimDuration::from_millis(40), 0.0);
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let cp_out = Arc::new(Mutex::new(None));
        let stamps = Arc::new(Mutex::new(Vec::new()));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.checkpoint_cadence = Some(SimDuration::from_micros(25_000));
        client.checkpoint_out = Some(cp_out.clone());
        client.checkpoint_stamps = Some(stamps.clone());
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        // Kill right after the 0.525 s tick: seq 10 (sent at 0.500,
        // answered at 0.540) is mid-flight at that cut.
        sim.run_until(SimTime::from_secs_f64(0.53));

        let stamps = stamps.lock().unwrap().clone();
        assert!(!stamps.is_empty(), "cadence commits happened");
        // Grid anchoring: every commit instant is a multiple of 25 ms.
        assert!(
            stamps.iter().all(|s| s.taken_ns % 25_000_000 == 0),
            "{stamps:?}"
        );
        assert!(
            stamps.iter().any(|s| s.inflight > 0),
            "some cut caught a query mid-flight"
        );

        let cp = cp_out.lock().unwrap().clone().expect("a committed cut");
        assert_eq!(cp.taken_ns, 525_000_000);
        assert_eq!(cp.inflight.len(), 1, "{:?}", cp.inflight);
        let e = cp.inflight[0];
        assert_eq!(e.seq, 10);
        assert_eq!(
            e.deadline_ns, 500_000_000,
            "original send deadline, not the cut"
        );
        assert_eq!((e.sends, e.retx), (1, 0));
        assert_eq!(e.status, InflightStatus::InFlight);
        // Committed counters cover completed work only: 10 completed
        // queries, each sent exactly once; seq 10's send is carried on
        // its inflight line instead.
        assert_eq!(cp.counter("sent"), Some(10));
        assert_eq!(cp.records.len(), 10);
        // Exact text round-trip of a document with in-flight state.
        let text = cp.to_text().expect("serializes");
        assert_eq!(Checkpoint::from_text(&text).expect("parses"), cp);
    }

    /// A fresh simulator with the wildcard server behind a uniform
    /// `rtt` path.
    fn sim_with_server(rtt: SimDuration, loss: f64) -> (Simulator, SocketAddr) {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt,
                bandwidth_bps: None,
                loss,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        let server = SimDnsServer::new(engine(), server_addr, Some(SimDuration::from_secs(30)));
        sim.add_host(&[server_addr.ip()], Box::new(server));
        (sim, server_addr)
    }

    /// A checkpoint is text from outside the program: `resume` refuses
    /// one that disagrees with the trace, naming the line.
    #[test]
    fn resume_rejects_a_checkpoint_that_disagrees_with_the_trace() {
        let trace = mk_trace(4, 50_000, 1);
        let rec = |seq: u64| format!("{seq} 0.0 0.04 Udp 10.1.0.1 45");
        // Lines: header, epoch, taken_ns, cursor (4), the two counters
        // (5, 6), the two records (7, 8), the in-flight entry (9).
        let good = Checkpoint {
            epoch: 1,
            taken_ns: 100_000_000,
            cursor: 3,
            counters: vec![("sent".into(), 2), ("restarts".into(), 0)],
            records: vec![rec(0), rec(1)],
            inflight: vec![ldp_guard::InflightEntry {
                seq: 2,
                deadline_ns: 100_000_000,
                sends: 1,
                retx: 0,
                status: InflightStatus::InFlight,
            }],
        };
        let resume = |cp: &Checkpoint| {
            let server = "10.9.0.1:53".parse().unwrap();
            SimReplayClient::resume(trace.clone(), server, LatencyLog::default(), cp).err()
        };
        assert_eq!(resume(&good), None);
        type Damage = fn(&mut Checkpoint);
        let cases: [(Damage, usize, &str); 7] = [
            (|cp| cp.cursor = 5, 4, "past the trace"),
            (|cp| cp.counters[1].1 = 1 << 32, 6, "restarts exceeds u32"),
            (
                |cp| cp.records[0] = "0 0.0 0.04 Udp".into(),
                7,
                "unparseable",
            ),
            (
                |cp| cp.records[1] = cp.records[1].replacen('1', "4", 1),
                8,
                "outside",
            ),
            (
                |cp| cp.records[1] = cp.records[0].clone(),
                8,
                "recorded twice",
            ),
            (|cp| cp.inflight[0].seq = 4, 9, "outside"),
            (
                |cp| cp.inflight[0].seq = 1,
                9,
                "both recorded and in flight",
            ),
        ];
        for (damage, line, what) in cases {
            let mut cp = good.clone();
            damage(&mut cp);
            let e = resume(&cp).unwrap_or_else(|| panic!("accepted: {what}"));
            assert!(
                e.starts_with(&format!("checkpoint line {line}: ")) && e.contains(what),
                "{what}: {e}"
            );
            // The line it names is that line of the document.
            let text = cp.to_text().unwrap();
            let named = text.lines().nth(line - 1).unwrap();
            assert_ne!(Some(named), good.to_text().unwrap().lines().nth(line - 1));
        }
    }

    /// Two `inflight` lines for one seq would re-arm the query at
    /// whichever deadline came last: `resume` refuses the second line,
    /// by number, as it does a seq recorded twice.
    #[test]
    fn resume_rejects_a_seq_in_flight_twice() {
        let trace = mk_trace(4, 50_000, 1);
        let carried = |seq: u64, deadline_ns: u64| ldp_guard::InflightEntry {
            seq,
            deadline_ns,
            sends: 1,
            retx: 0,
            status: InflightStatus::InFlight,
        };
        // Lines: header, epoch, taken_ns, cursor (4), the counter (5),
        // the record (6), the in-flight entries (7, 8, 9).
        let cp = Checkpoint {
            epoch: 1,
            taken_ns: 100_000_000,
            cursor: 3,
            counters: vec![("sent".into(), 1)],
            records: vec!["0 0.0 0.04 Udp 10.1.0.1 45".into()],
            inflight: vec![
                carried(1, 50_000_000),
                carried(2, 100_000_000),
                carried(1, 150_000_000),
            ],
        };
        // The document parses; it is `resume`, which checks it against
        // the trace, that refuses it.
        let text = cp.to_text().unwrap();
        assert_eq!(Checkpoint::from_text(&text).unwrap(), cp);
        assert!(text.lines().nth(8).unwrap().contains("150000000"));
        let server = "10.9.0.1:53".parse().unwrap();
        let e = SimReplayClient::resume(trace, server, LatencyLog::default(), &cp)
            .err()
            .expect("a seq carried twice is refused");
        assert_eq!(e, "checkpoint line 9: seq 1 is in flight twice");
    }

    /// Commit cost is what changed: over a guarded run of 2,400
    /// completions and ten cadence ticks, commit *k* serialises exactly
    /// the records completed since commit *k − 1* — flat in the run's
    /// length, where re-serialising the log grew with it.
    #[test]
    fn a_commit_serialises_only_what_completed_since_the_last_one() {
        // Replies land 40.5 ms after whole milliseconds: never on the
        // 250 ms grid, so which side of a tick a completion falls on
        // is not a matter of event order.
        let (mut sim, server_addr) = sim_with_server(SimDuration::from_micros(40_500), 0.0);
        let trace = mk_trace(2_400, 1_000, 16);
        let log = LatencyLog::default();
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.admission = Some(AdmissionController::new(Default::default()));
        client.udp_retransmit = Some(RetransmitConfig::default());
        client.checkpoint_cadence = Some(SimDuration::from_millis(250));
        client.checkpoint_out = Some(Arc::new(Mutex::new(None)));
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);

        LINES_SERIALISED.with(|n| n.set(0));
        let mut serialised = Vec::new();
        for tick in 1..=10u64 {
            sim.run_until(SimTime::from_micros(tick * 250_000));
            serialised.push(LINES_SERIALISED.with(|n| n.replace(0)));
        }
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2_400);
        let completed: Vec<u64> = (1..=10u32)
            .map(|tick| {
                let (from, to) = (f64::from(tick - 1) * 0.25, f64::from(tick) * 0.25);
                let since = |r: &&LatencyRecord| from < r.replied_s && r.replied_s <= to;
                log.iter().filter(since).count() as u64
            })
            .collect();
        assert_eq!(serialised, completed);
        assert_eq!(completed.iter().sum::<u64>(), 2_400);
        assert!(completed[1..9].iter().all(|&n| n == 250), "{completed:?}");
    }

    /// What one generated run is made of.
    struct Shape {
        trace: Vec<TraceEntry>,
        cadence: SimDuration,
        /// Per-packet drop probability, in thousandths.
        loss: u64,
        retransmit: Option<RetransmitConfig>,
        admission: Option<ldp_guard::AdmissionConfig>,
        /// The querier's power cycle: down at, up at.
        crash: Option<(SimTime, SimTime)>,
    }

    /// Run `shape` until `until` — from the start, or resumed from a
    /// checkpoint (which then also stands in the slot, as the previous
    /// commit of the lineage) — and return the transcript and the last
    /// commit. Every commit on the way is compared with
    /// `reference::commit` inside `SimReplayClient::commit`.
    fn run_shape(
        shape: &Shape,
        resume_from: Option<&Checkpoint>,
        until: SimTime,
    ) -> (Vec<String>, Option<Checkpoint>) {
        // netsim's path loss is a hash of the packet, not a stream
        // position, so a resumed run re-draws the fates of the queries
        // it re-executes.
        let loss = shape.loss as f64 / 1_000.0;
        let (mut sim, server_addr) = sim_with_server(SimDuration::from_millis(40), loss);
        let log = LatencyLog::default();
        let cp_out = Arc::new(Mutex::new(resume_from.cloned()));
        let mut client = match resume_from {
            None => SimReplayClient::new(shape.trace.clone(), server_addr, log.clone()),
            Some(cp) => {
                SimReplayClient::resume(shape.trace.clone(), server_addr, log.clone(), cp).unwrap()
            }
        };
        client.checkpoint_cadence = Some(shape.cadence);
        client.checkpoint_out = Some(cp_out.clone());
        client.udp_retransmit = shape.retransmit;
        client.retx_seed = 7;
        client.admission = shape.admission.map(AdmissionController::new);
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        match resume_from {
            None => SimReplayClient::schedule(&mut sim, client_id, &shape.trace, SimTime::ZERO),
            Some(cp) => SimReplayClient::schedule_resume(
                &mut sim,
                client_id,
                &shape.trace,
                SimTime::ZERO,
                cp,
            ),
        }
        if let Some((down, up)) = shape.crash {
            sim.schedule_host_fault(down, srcs[0], HostFault::Crash);
            sim.schedule_host_fault(up, srcs[0], HostFault::Restart);
        }
        sim.run_until(until);
        let lines = log
            .lock()
            .unwrap()
            .iter()
            .map(LatencyRecord::to_line)
            .collect();
        let cp = cp_out.lock().unwrap().clone();
        (lines, cp)
    }

    /// The tentpole's oracle: over generated runs — loss, UDP
    /// retransmission, admission parking and shedding, a querier power
    /// cycle, a kill and resume anywhere — every commit's document is
    /// the from-scratch one byte for byte (checked at each tick, inside
    /// `commit`), no seq is ever logged twice, and without admission
    /// (a resumed window starts emptier than the original's was, so
    /// verdicts may differ) the resumed lineage ends with the
    /// uninterrupted run's transcript.
    #[test]
    fn incremental_commits_are_the_full_rebuild_and_resume_to_the_same_transcript() {
        ldp_rng::check::check(256, |g| {
            let gap_us = *g.pick(&[2_000, 10_000, 50_000]);
            let trace = mk_trace(g.range(5..=40), gap_us, 3);
            let span_us = gap_us * trace.len() as u64;
            let shape = Shape {
                cadence: SimDuration::from_millis(*g.pick(&[25, 70, 250])),
                loss: *g.pick(&[0, 0, 200, 400]),
                retransmit: g.bool().then_some(RetransmitConfig {
                    max_retx: 6,
                    base_us: 100_000,
                    cap_us: 400_000,
                }),
                admission: g.option(|g| ldp_guard::AdmissionConfig {
                    max_in_flight: g.size(1..=3),
                    max_lateness_us: *g.pick(&[5_000, 60_000_000]),
                }),
                crash: g.option(|g| {
                    let down = g.range(0..=span_us);
                    let up = down + g.range(1_000..=300_000);
                    (SimTime::from_micros(down), SimTime::from_micros(up))
                }),
                trace,
            };
            let horizon = SimTime::from_micros(span_us + 4_000_000);
            let kill_at = SimTime::from_micros(g.range(0..=span_us + 500_000));

            let (uninterrupted, last) = run_shape(&shape, None, horizon);
            assert!(last.is_some(), "the cadence commits");
            let (_, cp) = run_shape(&shape, None, kill_at);
            let Some(cp) = cp else {
                return; // killed before the first tick
            };
            let cp = Checkpoint::from_text(&cp.to_text().unwrap()).unwrap();
            let (resumed, _) = run_shape(&shape, Some(&cp), horizon);
            let mut seqs: Vec<u64> = resumed.iter().filter_map(|l| record_seq(l)).collect();
            seqs.sort_unstable();
            assert!(seqs.windows(2).all(|w| w[0] != w[1]), "a seq twice");
            if shape.admission.is_none() {
                assert_eq!(resumed, uninterrupted, "resumed transcript diverged");
            }
        });
    }

    /// Satellite: after a querier crash, parked queries re-enter
    /// admission deterministically — re-offered in ascending seq order
    /// by `on_restart`, so with a one-slot window the completion order
    /// is pinned.
    #[test]
    fn crashed_querier_parked_queries_reenter_admission_in_seq_order() {
        let trace = mk_trace(4, 0, 1); // burst: all due at t = 0
        let src_ip: IpAddr = "10.1.0.1".parse().unwrap();
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig {
                rtt: SimDuration::from_millis(40),
                bandwidth_bps: None,
                loss: 0.0,
            }),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(30)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.admission = Some(AdmissionController::new(ldp_guard::AdmissionConfig {
            max_in_flight: 1,
            max_lateness_us: 60_000_000, // park, never shed
        }));
        let srcs = client.source_addrs();
        let client_id = sim.add_host(&srcs, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        // q0 in flight, q1..q3 parked when the querier dies.
        let at = SimTime::from_secs_f64;
        sim.schedule_host_fault(at(0.01), src_ip, HostFault::Crash);
        sim.schedule_host_fault(at(0.02), src_ip, HostFault::Restart);
        sim.run_until(at(30.0));

        let order: Vec<u64> = log.lock().unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "deterministic seq-order re-entry");
    }
}

/// The commit the incremental one replaced, kept as its oracle: every
/// cut re-serialised the whole latency log into a fresh document.
#[cfg(test)]
mod reference {
    use super::{Checkpoint, LatencyRecord};

    fn record_to_line(r: &LatencyRecord) -> String {
        format!(
            "{} {:?} {:?} {:?} {} {}",
            r.seq, r.sent_s, r.replied_s, r.transport, r.source, r.response_bytes
        )
    }

    /// What the old commit put in the slot for the core's `cut`.
    pub fn commit(log: &[LatencyRecord], cut: &Checkpoint) -> Checkpoint {
        Checkpoint {
            records: log.iter().map(record_to_line).collect(),
            ..cut.clone()
        }
    }
}
