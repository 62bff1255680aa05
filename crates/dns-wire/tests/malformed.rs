//! Malformed-packet decode tests (rule P1): a hostile or truncated
//! packet must produce `Err`, never a panic — a meta server replaying
//! millions of real-trace queries will see every one of these shapes.

// Test helpers sit outside #[test] fns, where clippy.toml's test
// exemption does not reach; the crate-wide panic denies are for
// production code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dns_wire::{Message, Name, RecordType, WireReader};

/// A valid query to mutate.
fn valid_query() -> Vec<u8> {
    let name: Name = "www.example.com".parse().expect("name");
    Message::query(0x1234, name, RecordType::A).encode()
}

#[test]
fn truncated_header_is_an_error_not_a_panic() {
    // Every prefix of the fixed 12-byte header is too short to decode.
    let full = valid_query();
    for len in 0..12.min(full.len()) {
        let res = Message::decode(&full[..len]);
        assert!(res.is_err(), "decode of {len}-byte header prefix must fail");
    }
}

#[test]
fn every_truncation_of_a_valid_message_fails_cleanly() {
    let full = valid_query();
    for len in 0..full.len() {
        let slice = &full[..len];
        let outcome = std::panic::catch_unwind(|| Message::decode(slice).is_ok());
        match outcome {
            Ok(ok) => assert!(!ok, "truncated decode at {len} bytes returned Ok"),
            Err(_) => panic!("decode panicked on {len}-byte truncation"),
        }
    }
}

#[test]
fn compression_pointer_loop_is_rejected() {
    // Header claiming one question, whose qname is a pointer to itself:
    // offset 12 contains 0xC0 0x0C → points at offset 12.
    let mut pkt = vec![0u8; 12];
    pkt[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT = 1
    pkt.extend_from_slice(&[0xC0, 0x0C]); // qname: pointer to itself
    pkt.extend_from_slice(&1u16.to_be_bytes()); // QTYPE = A
    pkt.extend_from_slice(&1u16.to_be_bytes()); // QCLASS = IN
    let res = std::panic::catch_unwind(|| Message::decode(&pkt));
    let res = res.expect("pointer loop must not panic");
    assert!(res.is_err(), "self-referential pointer must be rejected");
}

#[test]
fn two_pointer_cycle_is_rejected() {
    // qname at 12 points to 14; a second name at 14 points back to 12.
    let mut pkt = vec![0u8; 12];
    pkt[4..6].copy_from_slice(&1u16.to_be_bytes());
    pkt.extend_from_slice(&[0xC0, 0x0E]); // offset 12 → 14
    pkt.extend_from_slice(&[0xC0, 0x0C]); // offset 14 → 12
    pkt.extend_from_slice(&1u16.to_be_bytes());
    pkt.extend_from_slice(&1u16.to_be_bytes());
    let res = std::panic::catch_unwind(|| Message::decode(&pkt));
    assert!(res.expect("cycle must not panic").is_err());
}

#[test]
fn pointer_past_end_of_message_is_rejected() {
    let mut pkt = vec![0u8; 12];
    pkt[4..6].copy_from_slice(&1u16.to_be_bytes());
    pkt.extend_from_slice(&[0xC3, 0xFF]); // pointer to offset 1023: absent
    pkt.extend_from_slice(&1u16.to_be_bytes());
    pkt.extend_from_slice(&1u16.to_be_bytes());
    assert!(Message::decode(&pkt).is_err());
}

#[test]
fn label_length_overrunning_buffer_is_rejected() {
    let mut pkt = vec![0u8; 12];
    pkt[4..6].copy_from_slice(&1u16.to_be_bytes());
    pkt.push(63); // label claims 63 bytes…
    pkt.extend_from_slice(b"abc"); // …but only 3 follow
    assert!(Message::decode(&pkt).is_err());
}

#[test]
fn absurd_section_counts_do_not_allocate_or_panic() {
    // Header claims 65535 answers with no body.
    let mut pkt = vec![0u8; 12];
    pkt[6..8].copy_from_slice(&u16::MAX.to_be_bytes()); // ANCOUNT
    let res = std::panic::catch_unwind(|| Message::decode(&pkt));
    assert!(res.expect("must not panic").is_err());
}

#[test]
fn rdlength_overrunning_buffer_is_rejected() {
    // A response with one A record whose RDLENGTH lies.
    let name: Name = "a.example".parse().expect("name");
    let q = Message::query(7, name, RecordType::A);
    let mut pkt = q.encode();
    pkt[6..8].copy_from_slice(&1u16.to_be_bytes()); // ANCOUNT = 1
    pkt.extend_from_slice(&[0xC0, 0x0C]); // owner: pointer to qname
    pkt.extend_from_slice(&1u16.to_be_bytes()); // TYPE = A
    pkt.extend_from_slice(&1u16.to_be_bytes()); // CLASS = IN
    pkt.extend_from_slice(&60u32.to_be_bytes()); // TTL
    pkt.extend_from_slice(&400u16.to_be_bytes()); // RDLENGTH = 400…
    pkt.extend_from_slice(&[1, 2, 3, 4]); // …but 4 bytes present
    assert!(Message::decode(&pkt).is_err());
}

#[test]
fn low_level_name_reader_survives_pointer_storms() {
    // Chain of max-length hops: 70 pointers each pointing 2 bytes back,
    // ending at a self-loop — must hit the hop guard, not spin forever.
    let mut buf = vec![0xC0u8, 0x00]; // offset 0 → 0 (self-loop)
    for i in 1..=70u16 {
        let target = 2 * (i - 1);
        buf.push(0xC0 | (target >> 8) as u8);
        buf.push((target & 0xFF) as u8);
    }
    let start = buf.len() - 2;
    let mut r = WireReader::new(&buf);
    r.get_bytes(start).unwrap();
    let res = std::panic::catch_unwind(move || r.get_name());
    assert!(res.expect("hop storm must not panic").is_err());
}

#[test]
fn random_byte_mutations_never_panic() {
    // Deterministic single-byte corruptions of a valid message: decode
    // may succeed or fail, but must never panic.
    let full = valid_query();
    for pos in 0..full.len() {
        for bit in 0..8 {
            let mut pkt = full.clone();
            pkt[pos] ^= 1 << bit;
            let res = std::panic::catch_unwind(|| {
                let _ = Message::decode(&pkt);
            });
            assert!(res.is_ok(), "panic at byte {pos} bit {bit}");
        }
    }
}
