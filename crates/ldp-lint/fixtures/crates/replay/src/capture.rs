// Fixture: a real-clock helper (capture.rs may read the wall clock,
// so no D1 here). D4's taint analysis marks `stamp_now` as a
// wall-clock reader; sim-path code that transitively reaches it is the
// thing being tested (see netsim/src/d4_taint.rs).

pub fn stamp_now() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_micros() as u64
}
