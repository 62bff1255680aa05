// Fixture: a real-clock helper (crates/replay/src/capture.rs may read
// the wall clock, so no D1 here). Sim-path code that names this module
// as a path segment is the thing being tested (see
// netsim/src/d4_taint.rs).

pub fn stamp_now() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_micros() as u64
}
