// Fixture: one of two same-named helpers (see dns-server/src/socket_server.rs). This one is
// clean; D4's conservative call resolution must still follow the
// ambiguous call in d4_ambiguous.rs to BOTH candidates and report the
// tainted one.

pub fn helper_now() -> u64 {
    42
}
