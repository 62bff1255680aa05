// Fixture: trips D4 — a sim-path entry point that never touches the
// clock itself (so D1 stays silent) but calls a helper by its path into
// a real-clock module in another crate. Naming `capture::` is the
// violation.

pub fn sim_step(now_us: u64) -> u64 {
    crate::capture::stamp_now() + now_us
}
