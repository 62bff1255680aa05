//! Isolated layer replays: a layer's public function timed over exactly
//! the inputs the traced repetition delivered to it. Every figure is the
//! floor of `PASSES` passes, in ns per operation.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{IpAddr, SocketAddr};
use std::time::Instant;

use dns_server::ServerEngine;
use dns_wire::{EncodeScratch, Message, Name, Record, RecordType};
use ldp_cache::{CachedAnswer, FillInfo, ResolverCache};
use ldp_proxy::{rewrite_inbound, rewrite_outbound, FlowTable};
use ldp_trace::TraceEntry;
use netsim::{EventQueue, PacketBytes, QueueKind, SimTime};

use crate::rig::{Probe, Seen};
use crate::stats::Series;

pub const PASSES: usize = 5;
/// Most inputs one replay uses (the first ones captured).
const MAX_INPUTS: usize = 30_000;

/// Floor over `PASSES` timed calls of `pass`, in ns per operation.
/// `prepare` builds each pass's inputs outside the timed region.
fn floor_ns<T>(ops: usize, mut prepare: impl FnMut() -> T, mut pass: impl FnMut(T)) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let mut samples = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let input = prepare();
        let t = Instant::now();
        pass(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    Series::new(&samples).floor() / ops as f64 * 1e9
}

/// A datagram a host received.
#[derive(Clone)]
pub struct Datagram {
    pub from: SocketAddr,
    pub to: SocketAddr,
    pub data: PacketBytes,
}

pub fn datagrams(probe: &Probe) -> Vec<Datagram> {
    let seen = probe.seen.lock().expect("capture buffer");
    seen.iter()
        .filter_map(|s| match s {
            Seen::Udp { from, to, data, .. } => Some(Datagram {
                from: *from,
                to: *to,
                data: data.clone(),
            }),
            _ => None,
        })
        .collect()
}

fn is_response(data: &[u8]) -> bool {
    data.get(2).is_some_and(|flags| flags & 0x80 != 0)
}

#[derive(Debug, Default, Clone, Copy)]
pub struct WireCosts {
    pub decode_query_ns: f64,
    pub decode_response_ns: f64,
    pub encode_query_ns: f64,
    pub encode_response_ns: f64,
    pub query_bytes_mean: f64,
    pub response_bytes_mean: f64,
}

/// `Message::decode` and `Message::encode_into` over every captured
/// datagram, queries and responses apart.
pub fn wire(all: &[Datagram]) -> WireCosts {
    let split = |want_response: bool| -> Vec<PacketBytes> {
        all.iter()
            .filter(|d| is_response(&d.data) == want_response)
            .take(MAX_INPUTS)
            .map(|d| d.data.clone())
            .collect()
    };
    let decode = |set: &[PacketBytes]| {
        floor_ns(
            set.len(),
            || (),
            |()| {
                for d in set {
                    black_box(Message::decode(black_box(d)).is_ok());
                }
            },
        )
    };
    let encode = |set: &[PacketBytes]| {
        let messages: Vec<Message> = set.iter().filter_map(|d| Message::decode(d).ok()).collect();
        let mut scratch = EncodeScratch::new();
        floor_ns(
            messages.len(),
            || (),
            |()| {
                for m in &messages {
                    black_box(black_box(m).encode_into(&mut scratch).len());
                }
            },
        )
    };
    let mean = |set: &[PacketBytes]| {
        if set.is_empty() {
            0.0
        } else {
            set.iter().map(|d| d.len()).sum::<usize>() as f64 / set.len() as f64
        }
    };
    let (queries, responses) = (split(false), split(true));
    WireCosts {
        decode_query_ns: decode(&queries),
        decode_response_ns: decode(&responses),
        encode_query_ns: encode(&queries),
        encode_response_ns: encode(&responses),
        query_bytes_mean: mean(&queries),
        response_bytes_mean: mean(&responses),
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCosts {
    /// `ServerEngine::handle_udp_bytes` (decode → answer → encode).
    pub handle_ns: f64,
    /// `ServerEngine::answer_udp` on pre-decoded messages.
    pub answer_ns: f64,
    /// `Catalog::find` + `dns_zone::lookup` in the pre-selected view.
    pub lookup_ns: f64,
    /// `ViewSet::select` over the (post-proxy) source addresses.
    pub view_select_ns: f64,
    pub views: usize,
}

/// The server's layers over the datagrams the server host received.
pub fn server(engine: &ServerEngine, received: &[Datagram]) -> ServerCosts {
    let received = &received[..received.len().min(MAX_INPUTS)];
    let handle_ns = floor_ns(
        received.len(),
        || (),
        |()| {
            for d in received {
                black_box(engine.handle_udp_bytes(d.from.ip(), black_box(&d.data)));
            }
        },
    );
    let decoded: Vec<(IpAddr, Message)> = received
        .iter()
        .filter_map(|d| Message::decode(&d.data).ok().map(|m| (d.from.ip(), m)))
        .collect();
    let answer_ns = floor_ns(
        decoded.len(),
        || (),
        |()| {
            for (src, m) in &decoded {
                black_box(engine.answer_udp(*src, black_box(m)));
            }
        },
    );
    let views = engine.views();
    let selected: Vec<_> = decoded
        .iter()
        .filter_map(|(src, m)| Some((views.select(*src)?, m.question()?)))
        .collect();
    let lookup_ns = floor_ns(
        selected.len(),
        || (),
        |()| {
            for (view, question) in &selected {
                let zone = view.catalog.find(black_box(&question.name));
                black_box(zone.map(|z| dns_zone::lookup(z, question)));
            }
        },
    );
    let view_select_ns = floor_ns(
        decoded.len(),
        || (),
        |()| {
            for (src, _) in &decoded {
                black_box(views.select(black_box(*src)).is_some());
            }
        },
    );
    ServerCosts {
        handle_ns,
        answer_ns,
        lookup_ns,
        view_select_ns,
        views: views.len(),
    }
}

/// `ResolverCache::put_positive` over the distinct stub keys (first
/// appearance order, each with the answer the stub really received) and
/// `ResolverCache::get` over the whole stub key sequence on the cache
/// those puts filled, with the run's config (`build_emulation` leaves
/// the resolver's cache unbounded) and the trace's clock.
/// Returns (get_ns, put_ns).
pub fn cache(trace: &[TraceEntry], stub_received: &[Datagram]) -> (f64, f64) {
    let mut answers: BTreeMap<Name, Vec<Record>> = BTreeMap::new();
    for d in stub_received {
        if let Ok(m) = Message::decode(&d.data) {
            if let (Some(q), false) = (m.question(), m.answers.is_empty()) {
                answers.entry(q.name.clone()).or_insert(m.answers.clone());
            }
        }
    }
    let t0 = trace.first().map_or(0, |e| e.time_us);
    let keys: Vec<(&Name, f64)> = trace
        .iter()
        .filter_map(|e| Some((e.qname()?, (e.time_us - t0) as f64 / 1e6)))
        .collect();
    let mut first: Vec<(&Name, f64)> = Vec::new();
    let mut known = std::collections::BTreeSet::new();
    for (name, at) in &keys {
        if answers.contains_key(*name) && known.insert(*name) {
            first.push((*name, *at));
        }
    }
    let fills = || -> Vec<(&Name, Vec<Record>, f64)> {
        first
            .iter()
            .map(|(n, at)| (*n, answers[*n].clone(), *at))
            .collect()
    };
    let put_ns = floor_ns(
        first.len(),
        || (ResolverCache::unbounded(), fills()),
        |(mut cache, fills)| {
            for (name, records, at) in fills {
                black_box(cache.put_positive(
                    name,
                    RecordType::A,
                    records,
                    at,
                    FillInfo::default(),
                ));
            }
            black_box(cache.len());
        },
    );
    let mut warm = ResolverCache::unbounded();
    for (name, records, at) in fills() {
        warm.put_positive(name, RecordType::A, records, at, FillInfo::default());
    }
    let get_ns = floor_ns(
        keys.len(),
        || (),
        |()| {
            for (name, at) in &keys {
                let hit = warm.get(black_box(name), RecordType::A, *at);
                black_box(matches!(hit, Some(CachedAnswer::Positive(_))));
            }
        },
    );
    (get_ns, put_ns)
}

/// The proxy's work per packet over the datagrams the proxy host
/// received, as `SimProxy::on_udp` does it: a reply from the meta server
/// removes its flow and is rewritten inbound; a query to port 53 inserts
/// a flow and is rewritten outbound.
pub fn proxy(received: &[Datagram], meta: SocketAddr) -> f64 {
    floor_ns(received.len(), FlowTable::with_defaults, |mut flows| {
        for d in received {
            if d.from == meta {
                black_box(flows.remove(d.to.port()).map(rewrite_inbound));
            } else if d.to.port() == 53 {
                let port = flows.insert(d.from, d.to);
                black_box(rewrite_outbound(d.to, port, meta));
            }
        }
    })
}

/// `EventQueue` push then pop at the depth that scheduling one timer
/// per trace entry creates, in ns per operation.
pub fn queue(times_us: &[u64]) -> f64 {
    floor_ns(
        times_us.len() * 2,
        || EventQueue::<u64>::new(QueueKind::Heap),
        |mut q| {
            for (i, t) in times_us.iter().enumerate() {
                q.push(SimTime::from_micros(*t), u64::MAX, i as u64, i as u64);
            }
            let mut sum = 0u64;
            while let Some((_, item)) = q.pop() {
                sum = sum.wrapping_add(item);
            }
            black_box(sum);
        },
    )
}
