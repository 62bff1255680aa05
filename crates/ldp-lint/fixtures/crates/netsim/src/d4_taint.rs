// Fixture: trips D4 — a sim-path entry point that never touches the
// clock itself (so D1 stays silent) but calls into a real-clock helper
// in another crate. The call graph resolves the path-qualified call
// and reports the full taint chain.

pub fn sim_step(now_us: u64) -> u64 {
    crate::capture::stamp_now() + now_us
}
