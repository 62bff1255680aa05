//! Allocation budgets for the authoritative answer path, as exact
//! counts: the same on every machine and at every optimisation level,
//! so a regression here is a code change, never noise.
//!
//! The counter is per thread, so the tests of this file can run side by
//! side; each warms the path it measures first (the thread-local encode
//! scratch and the telemetry kind table are built on first use).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::IpAddr;

use dns_server::ServerEngine;
use dns_wire::{Edns, Message, Name, RecordType, WireError, WireReader};
use dns_zone::Catalog;
use ldp_core::synthetic_root_zone;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Const-initialised and without a destructor: reading it allocates
    // nothing and works for the whole life of the thread.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping is one thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` as above; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// The three EDNS shapes of a B-Root trace: none, DO clear, DO set.
fn query_shapes(qname: &str) -> [Vec<u8>; 3] {
    [None, Some(Edns::default()), Some(Edns::with_do())].map(|edns| {
        let mut query = Message::query(0x1d7a, n(qname), RecordType::A);
        query.edns = edns;
        query.encode()
    })
}

/// Worst allocation count of one `handle_udp_bytes` over the three
/// query shapes, each checked to be the expected kind of answer.
fn answer_budget(qname: &str, check: impl Fn(&Message)) -> u64 {
    let mut catalog = Catalog::new();
    catalog.insert(synthetic_root_zone());
    let engine = ServerEngine::with_catalog(catalog);
    let src: IpAddr = "192.0.2.7".parse().unwrap();
    query_shapes(qname)
        .iter()
        .map(|wire| {
            for _ in 0..2 {
                engine.handle_udp_bytes(src, wire).unwrap();
            }
            let (allocs, reply) = allocations(|| engine.handle_udp_bytes(src, wire));
            check(&Message::decode(&reply.unwrap()).unwrap());
            allocs
        })
        .max()
        .unwrap()
}

#[test]
fn a_referral_stays_within_its_budget() {
    let allocs = answer_budget("w7.example.com", |reply| {
        assert!(reply.answers.is_empty());
        assert_eq!(reply.authorities.len(), 2, "{reply}");
        assert_eq!(reply.additionals.len(), 2, "{reply}");
    });
    assert!(allocs <= 8, "a referral made {allocs} allocations");
}

#[test]
fn an_nxdomain_stays_within_its_budget() {
    let allocs = answer_budget("junk7.invalid77", |reply| {
        assert_eq!(reply.rcode, dns_wire::Rcode::NxDomain);
        assert_eq!(reply.authorities.len(), 1, "{reply}");
    });
    assert!(allocs <= 7, "an NXDOMAIN made {allocs} allocations");
}

#[test]
fn clones_and_ancestors_are_views() {
    let name = n("a.b.c.example.com");
    let (allocs, kept) = allocations(|| {
        let copy = name.clone();
        let parent = copy.parent().unwrap();
        let apex = name.ancestor(2).unwrap();
        assert!(parent.is_subdomain_of(&apex));
        (copy, parent, apex)
    });
    assert_eq!(allocs, 0);
    assert_eq!(kept.2, n("example.com"));
}

#[test]
fn decoding_a_query_allocates_per_message_not_per_label() {
    for wire in query_shapes("a.b.c.d.e.f.example.com") {
        let (allocs, query) = allocations(|| Message::decode(&wire));
        assert_eq!(query.unwrap().question().unwrap().name.label_count(), 8);
        assert!(allocs <= 3, "decode made {allocs} allocations");
    }
}

#[test]
fn hostile_names_are_rejected_before_any_allocation() {
    // 65 pointers, each to the one before it, ending on a root octet:
    // one hop more than the decoder follows.
    let mut chain = vec![0u8];
    for i in 0..65u16 {
        let target = if i == 0 { 0 } else { 1 + 2 * (i - 1) };
        chain.extend_from_slice(&(0xc000 | target).to_be_bytes());
    }
    let start = chain.len() - 2;
    // Four 63-octet labels: 257 octets on the wire.
    let mut long = Vec::new();
    for _ in 0..4 {
        long.push(63);
        long.extend_from_slice(&[b'x'; 63]);
    }
    long.push(0);
    for (buf, at, want) in [
        (&chain, start, WireError::BadPointer),
        (&long, 0, WireError::BadName),
    ] {
        let (allocs, got) = allocations(|| {
            let mut r = WireReader::new(buf);
            r.seek(at);
            r.get_name()
        });
        assert_eq!(got, Err(want));
        assert_eq!(allocs, 0);
    }
}
