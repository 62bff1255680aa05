//! The authoritative server as a [`netsim`] host: UDP and TCP/TLS
//! service over the simulated network, with per-connection framing and
//! idle-timeout control — the server side of the §5.2 resource and
//! latency experiments.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

use dns_wire::framing::{frame_into, FrameBuffer};
use dns_wire::Transport;
use ldp_telemetry::Kind;
use netsim::{ConnId, Ctx, Host, PacketBytes, SimDuration, TcpEvent};

use crate::engine::ServerEngine;
use crate::rrl::{RrlAction, RrlBank, RrlConfig};
use crate::scratch::AnswerScratch;

/// A simulated DNS server host.
pub struct SimDnsServer {
    engine: Arc<ServerEngine>,
    /// The address this server answers from (its listening address).
    addr: SocketAddr,
    /// Idle timeout imposed on incoming connections (`None` = never).
    idle_timeout: Option<SimDuration>,
    /// Per-connection reassembly buffers and peer addresses.
    conns: BTreeMap<ConnId, (FrameBuffer, SocketAddr)>,
    /// Optional response rate limiting (UDP responses only, as
    /// deployed): one limiter per view plus a catch-all, so overload
    /// on one level of the emulated hierarchy never spends another
    /// level's budget.
    rrl: Option<RrlBank>,
    /// Total queries answered (all transports).
    pub queries_handled: u64,
    /// Every answer is built here and sent from here: the host is one
    /// receive path, so one scratch serves UDP and all connections.
    scratch: AnswerScratch,
    /// One stream reply with its length prefix, on its way to `tcp_send`.
    framed: Vec<u8>,
}

impl SimDnsServer {
    /// New simulated server for `engine` listening at `addr`.
    pub fn new(
        engine: Arc<ServerEngine>,
        addr: SocketAddr,
        idle_timeout: Option<SimDuration>,
    ) -> Self {
        SimDnsServer {
            engine,
            addr,
            idle_timeout,
            conns: BTreeMap::new(),
            rrl: None,
            queries_handled: 0,
            scratch: AnswerScratch::new(),
            framed: Vec::new(),
        }
    }

    /// Enable response rate limiting on UDP answers: every view (and
    /// the catch-all for unmatched clients) gets its own limiter built
    /// from `config`.
    pub fn with_rrl(mut self, config: RrlConfig) -> Self {
        let views = self.engine.views().len();
        self.rrl = Some(RrlBank::new(config, views));
        self
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Host for SimDnsServer {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        let scratch = &mut self.scratch;
        let Some(reply) = self
            .engine
            .answer_into(from.ip(), &data, Transport::Udp, scratch)
        else {
            return;
        };
        self.queries_handled += 1;
        ctx.mark(Kind::SrvQueryUdp, self.queries_handled, reply.len() as u64);
        if let Some(rrl) = &mut self.rrl {
            // The view that answered is the one whose budget this
            // response spends (grouping itself — BIND's qname/SOA
            // bucketing — lives in `RrlBank::check_udp_reply`).
            let view = self.engine.views().select_index(from.ip());
            let slot = rrl.slot(view) as u64;
            let verdict = rrl.check_udp_reply(view, from.ip(), reply, ctx.now().as_secs_f64());
            match verdict {
                RrlAction::Send => ctx.send_udp(to, from, reply),
                RrlAction::Drop => ctx.mark(Kind::SrvRrlDrop, self.queries_handled, slot),
                RrlAction::Slip => {
                    ctx.mark(Kind::SrvRrlSlip, self.queries_handled, slot);
                    // Minimal truncated response: the client may retry
                    // over TCP (which RRL does not limit).
                    if let Some(tc) = self.scratch.slip_reply() {
                        ctx.send_udp(to, from, tc);
                    }
                }
            }
        } else {
            ctx.send_udp(to, from, reply);
        }
    }

    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { conn, peer, .. } => {
                ctx.tcp_set_idle_timeout(conn, self.idle_timeout);
                self.conns.insert(conn, (FrameBuffer::new(), peer));
            }
            TcpEvent::Data { conn, data } => {
                let Some((buf, peer)) = self.conns.get_mut(&conn) else {
                    return;
                };
                let (peer, engine) = (*peer, &self.engine);
                buf.extend(&data);
                // Each message is answered where it lies in the frame
                // buffer and sent before the next is looked at.
                while let Some(msg) = buf.next_frame() {
                    let scratch = &mut self.scratch;
                    let Some(reply) = engine.answer_into(peer.ip(), msg, Transport::Tcp, scratch)
                    else {
                        continue;
                    };
                    self.queries_handled += 1;
                    ctx.mark(Kind::SrvQueryTcp, self.queries_handled, reply.len() as u64);
                    frame_into(reply, &mut self.framed);
                    ctx.tcp_send(conn, self.framed.as_slice());
                }
            }
            TcpEvent::Closed { conn } => {
                self.conns.remove(&conn);
            }
            TcpEvent::Connected { .. } => {
                // The server never dials out.
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    fn on_crash(&mut self) {
        // Power-off semantics: every tracked connection (and its
        // half-parsed frame buffer) is gone. The zone data (`engine`)
        // is on-disk state and survives; RRL buckets are in-memory and
        // a real restart would begin with them empty.
        self.conns.clear();
        if let Some(rrl) = &mut self.rrl {
            rrl.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::framing::frame;
    use dns_wire::{Message, Name, RData, Rcode, Record, RecordType, Soa};
    use dns_zone::{Catalog, Zone};
    use ldp_telemetry::RawEvent;
    use netsim::{PathConfig, SimConfig, SimTime, Simulator, Topology};
    use std::sync::Mutex;

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
                rname: n("admin.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 60,
            }),
        ))
        .unwrap();
        z.insert(Record::new(
            n("www.example"),
            60,
            RData::A("1.2.3.4".parse().unwrap()),
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.insert(z);
        Arc::new(ServerEngine::with_catalog(cat))
    }

    type Replies = Arc<Mutex<Vec<Message>>>;

    struct TestClient {
        me: SocketAddr,
        server: SocketAddr,
        replies: Replies,
        tcp: bool,
        tls: bool,
    }

    impl Host for TestClient {
        fn on_udp(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _f: SocketAddr,
            _t: SocketAddr,
            data: PacketBytes,
        ) {
            self.replies
                .lock()
                .unwrap()
                .push(Message::decode(&data).unwrap());
        }
        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Connected { conn } => {
                    let q = Message::query(5, n("www.example"), RecordType::A);
                    ctx.tcp_send(conn, frame(&q.encode()));
                    let q2 = Message::query(6, n("missing.example"), RecordType::A);
                    ctx.tcp_send(conn, frame(&q2.encode()));
                }
                TcpEvent::Data { data, .. } => {
                    let mut fb = FrameBuffer::new();
                    fb.extend(&data);
                    while let Some(msg) = fb.next_frame() {
                        self.replies
                            .lock()
                            .unwrap()
                            .push(Message::decode(msg).unwrap());
                    }
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.tcp {
                ctx.tcp_connect(self.me, self.server, self.tls);
            } else {
                let q = Message::query(5, n("www.example"), RecordType::A);
                ctx.send_udp(self.me, self.server, q.encode());
            }
        }
    }

    fn run(tcp: bool, tls: bool) -> Vec<Message> {
        run_recorded(tcp, tls, false).0
    }

    /// The replies the test client got, and what the simulator recorded
    /// (nothing unless `record`).
    fn run_recorded(tcp: bool, tls: bool, record: bool) -> (Vec<Message>, Vec<RawEvent>) {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10))),
            SimConfig::default(),
        );
        sim.set_recording(record);
        let server_addr: SocketAddr = "10.0.0.1:53".parse().unwrap();
        let replies: Replies = Arc::new(Mutex::new(vec![]));
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(20)),
            )),
        );
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(TestClient {
                me: "10.0.0.2:5000".parse().unwrap(),
                server: server_addr,
                replies: replies.clone(),
                tcp,
                tls,
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(5.0));
        let out = replies.lock().unwrap().clone();
        (out, sim.drain_recording().events)
    }

    /// Recording on, the server's part of the log is one `srv.query.*`
    /// mark per reply it sends, numbered by `queries_handled`, and
    /// nothing else: answering is not timed inside the callback, where
    /// virtual time stands still. (`sim.*` events are the simulator's.)
    #[test]
    fn records_one_query_mark_per_reply_and_nothing_else() {
        for (tcp, kind) in [(false, Kind::SrvQueryUdp), (true, Kind::SrvQueryTcp)] {
            let (replies, events) = run_recorded(tcp, false, true);
            let server: Vec<(Kind, u64)> = events
                .iter()
                .filter(|e| !e.kind.name().starts_with("sim."))
                .map(|e| (e.kind, e.a))
                .collect();
            let want: Vec<(Kind, u64)> = (1..=replies.len() as u64).map(|a| (kind, a)).collect();
            assert_eq!(replies.len(), if tcp { 2 } else { 1 });
            assert_eq!(server, want, "tcp: {tcp}");
        }
    }

    #[test]
    fn udp_query_answered() {
        let replies = run(false, false);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].rcode, Rcode::NoError);
        assert_eq!(replies[0].answers.len(), 1);
        assert!(replies[0].flags.authoritative);
    }

    #[test]
    fn tcp_multiple_framed_queries_one_connection() {
        let replies = run(true, false);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].id, 5);
        assert_eq!(replies[0].answers.len(), 1);
        assert_eq!(replies[1].id, 6);
        assert_eq!(replies[1].rcode, Rcode::NxDomain);
    }

    #[test]
    fn tls_connection_answers_too() {
        let replies = run(true, true);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].answers.len(), 1);
    }

    #[test]
    fn crash_drops_connection_state() {
        let mut s = SimDnsServer::new(engine(), "10.0.0.1:53".parse().unwrap(), None)
            .with_rrl(RrlConfig::default());
        s.conns.insert(
            ConnId(7),
            (FrameBuffer::new(), "10.0.0.2:5000".parse().unwrap()),
        );
        let reply = Message::query(1, n("www.example"), RecordType::A)
            .response_to()
            .encode();
        if let Some(rrl) = &mut s.rrl {
            rrl.check_udp_reply(Some(0), "10.0.0.2".parse().unwrap(), &reply, 0.0);
            assert_eq!(rrl.limiters()[0].bucket_count(), 1);
        }
        netsim::Host::on_crash(&mut s);
        assert_eq!(s.conns.len(), 0, "conns do not survive a power-off");
        let bank = s.rrl.as_ref().unwrap();
        assert!(
            bank.limiters().iter().all(|l| l.bucket_count() == 0),
            "RRL state is in-memory"
        );
    }

    /// The overload response's one configuration, `with_rrl`, builds a
    /// per-view bank: a flood aimed at one view's budget leaves another
    /// view's clients untouched, and a server built without it has RRL
    /// off.
    #[test]
    fn overload_config_builds_per_view_bank() {
        use dns_zone::{ClientMatch, View, ViewSet};

        let mk_cat = || {
            let mut z = Zone::new(n("example"));
            z.insert(Record::new(
                n("example"),
                60,
                RData::Soa(Soa {
                    mname: n("ns1.example"),
                    rname: n("admin.example"),
                    serial: 1,
                    refresh: 1,
                    retry: 1,
                    expire: 1,
                    minimum: 60,
                }),
            ))
            .unwrap();
            z.insert(Record::new(
                n("www.example"),
                60,
                RData::A("1.2.3.4".parse().unwrap()),
            ))
            .unwrap();
            let mut c = Catalog::new();
            c.insert(z);
            c
        };
        let mut views = ViewSet::new();
        views.push(View::new(
            "a",
            vec![ClientMatch::Exact("10.0.0.1".parse().unwrap())],
            mk_cat(),
        ));
        views.push(View::new("rest", vec![ClientMatch::Any], mk_cat()));
        let engine = Arc::new(ServerEngine::with_views(views));

        let off = SimDnsServer::new(engine.clone(), "10.0.0.9:53".parse().unwrap(), None);
        assert!(off.rrl.is_none(), "RRL is off unless asked for");

        let policy = RrlConfig {
            responses_per_second: 1,
            window_secs: 1,
            slip: 0,
            ..RrlConfig::default()
        };
        let mut on = SimDnsServer::new(engine.clone(), "10.0.0.9:53".parse().unwrap(), None)
            .with_rrl(policy);
        let bank = on.rrl.as_mut().unwrap();
        assert_eq!(bank.limiters().len(), 3, "two views + catch-all");

        // Same /24, same answer: view "a" exhausts its bucket while
        // the client routed to view "rest" keeps its own budget.
        let reply = {
            let q = Message::query(1, n("www.example"), RecordType::A);
            let mut r = q.response_to();
            r.answers.push(Record::new(
                n("www.example"),
                60,
                RData::A("1.2.3.4".parse().unwrap()),
            ));
            r.encode()
        };
        let via = |bank: &mut crate::rrl::RrlBank, addr: &str| {
            let a: std::net::IpAddr = addr.parse().unwrap();
            let view = engine.views().select_index(a);
            bank.check_udp_reply(view, a, &reply, 0.0)
        };
        assert_eq!(via(bank, "10.0.0.1"), RrlAction::Send);
        assert_eq!(
            via(bank, "10.0.0.1"),
            RrlAction::Drop,
            "view a's budget spent"
        );
        assert_eq!(
            via(bank, "10.0.0.2"),
            RrlAction::Send,
            "view rest unaffected"
        );
    }

    /// Plain with RD, EDNS with DO, an NXDOMAIN and the apex SOA.
    fn raw_queries() -> Vec<Vec<u8>> {
        let mut q1 = Message::query(1, n("www.example"), RecordType::A);
        q1.flags.recursion_desired = true;
        let mut q2 = Message::query(2, n("www.example"), RecordType::A);
        q2.edns = Some(dns_wire::Edns::with_do());
        let q3 = Message::query(3, n("missing.example"), RecordType::A);
        let q4 = Message::query(4, n("example"), RecordType::SOA);
        [q1, q2, q3, q4].iter().map(Message::encode).collect()
    }

    /// Raw-byte client: keeps replies unparsed so the test below
    /// compares the exact wire output, not a decoded view of it.
    struct RawClient {
        me: SocketAddr,
        server: SocketAddr,
        replies: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Host for RawClient {
        fn on_udp(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _f: SocketAddr,
            _t: SocketAddr,
            data: PacketBytes,
        ) {
            self.replies.lock().unwrap().push(data.to_vec());
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for q in raw_queries() {
                ctx.send_udp(self.me, self.server, q);
            }
        }
    }

    /// The simulated transport adds nothing to and takes nothing from
    /// what the engine answers: every query is answered, with the
    /// engine's bytes.
    #[test]
    fn udp_replies_are_the_engines_bytes() {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10))),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.0.0.1:53".parse().unwrap();
        let me: SocketAddr = "10.0.0.2:5000".parse().unwrap();
        let replies = Arc::new(Mutex::new(vec![]));
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(engine(), server_addr, None)),
        );
        let client = sim.add_host(
            &[me.ip()],
            Box::new(RawClient {
                me,
                server: server_addr,
                replies: replies.clone(),
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(5.0));
        // Replies share one path so arrival order is send order, but the
        // comparison should not depend on that: sort by transaction id
        // (the leading two bytes).
        let mut got = replies.lock().unwrap().clone();
        got.sort();
        let engine = engine();
        let want: Vec<Vec<u8>> = raw_queries()
            .iter()
            .filter_map(|q| engine.handle_udp_bytes(me.ip(), q))
            .collect();
        assert_eq!(want.len(), 4, "all four queries answered");
        assert_eq!(got, want);
    }

    /// Dials at its timer, sends one framed query once connected, and
    /// keeps every reply body it reads off the stream.
    struct StreamClient {
        me: SocketAddr,
        server: SocketAddr,
        query: Vec<u8>,
        frames: FrameBuffer,
        replies: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Host for StreamClient {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Connected { conn } => ctx.tcp_send(conn, frame(&self.query)),
                TcpEvent::Data { data, .. } => {
                    self.frames.extend(&data);
                    while let Some(body) = self.frames.next_frame() {
                        self.replies.lock().unwrap().push(body.to_vec());
                    }
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.tcp_connect(self.me, self.server, false);
        }
    }

    /// A stream reply is framed behind a two-byte length, so one past
    /// 65,535 bytes is truncated with TC, as a datagram past its payload
    /// limit is — not a panic in the framing. 400 TXT records of 200
    /// bytes at one name come to about 85 kB.
    #[test]
    fn a_stream_reply_past_the_frame_limit_is_truncated() {
        let mut z = Zone::new(n("example"));
        z.insert(Record::new(
            n("example"),
            60,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("admin.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 60,
            }),
        ))
        .unwrap();
        for i in 0..400 {
            let mut text = format!("record {i:03} ").into_bytes();
            text.resize(200, b'x');
            z.insert(Record::new(n("big.example"), 60, RData::Txt(vec![text])))
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.insert(z);
        let engine = Arc::new(ServerEngine::with_catalog(cat));
        let full = engine
            .answer(
                "10.0.0.2".parse().unwrap(),
                &Message::query(9, n("big.example"), RecordType::TXT),
            )
            .encode();
        assert!(full.len() > usize::from(u16::MAX), "{} bytes", full.len());

        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10))),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.0.0.1:53".parse().unwrap();
        sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(engine, server_addr, None)),
        );
        let replies = Arc::new(Mutex::new(vec![]));
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(StreamClient {
                me: "10.0.0.2:5000".parse().unwrap(),
                server: server_addr,
                query: Message::query(9, n("big.example"), RecordType::TXT).encode(),
                frames: FrameBuffer::new(),
                replies: replies.clone(),
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(5.0));
        let replies = replies.lock().unwrap();
        assert_eq!(replies.len(), 1, "one reply");
        let reply = Message::decode(&replies[0]).unwrap();
        assert!(reply.flags.truncated);
        assert_eq!(reply.id, 9);
        assert!(!reply.answers.is_empty() && reply.answers.len() < 400);
        assert!(replies[0].len() <= usize::from(u16::MAX));
    }

    #[test]
    fn idle_timeout_reaps_connections() {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(2))),
            SimConfig::default(),
        );
        let server_addr: SocketAddr = "10.0.0.1:53".parse().unwrap();
        let replies: Replies = Arc::new(Mutex::new(vec![]));
        let server = sim.add_host(
            &[server_addr.ip()],
            Box::new(SimDnsServer::new(
                engine(),
                server_addr,
                Some(SimDuration::from_secs(5)),
            )),
        );
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(TestClient {
                me: "10.0.0.2:5000".parse().unwrap(),
                server: server_addr,
                replies: replies.clone(),
                tcp: true,
                tls: false,
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.stats(server).established, 1);
        // After the 5 s idle timeout the server closes and holds
        // TIME_WAIT.
        sim.run_until(SimTime::from_secs_f64(20.0));
        assert_eq!(sim.stats(server).established, 0);
        assert_eq!(sim.stats(server).time_wait, 1);
    }
}
