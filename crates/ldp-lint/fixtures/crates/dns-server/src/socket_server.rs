// Fixture: a real-clock helper (crates/dns-server/src/socket_server.rs
// may read the wall clock, so no D1 here). Sim-path code that imports
// from this module is the thing being tested (see
// netsim/src/d4_import.rs).

pub fn helper_now() -> u64 {
    std::time::Instant::now().elapsed().as_micros() as u64
}
