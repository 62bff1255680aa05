// Fixture: the tainted twin of replay/src/helper_a.rs — same fn name,
// reads the wall clock (allowed here: socket_server.rs is a real-clock
// module).
// Ambiguity between the two candidates must widen D4's search, never
// suppress it.

pub fn helper_now() -> u64 {
    std::time::Instant::now().elapsed().as_micros() as u64
}
