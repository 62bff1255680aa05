// Fixture: trips D4 twice without ever reading the clock itself (so D1
// stays silent): it imports a helper out of a real-clock module, and it
// stores a wall-clock type.

use crate::socket_server::helper_now;

pub struct Host {
    started: std::time::Instant,
}

pub fn sim_choose() -> u64 {
    helper_now()
}
