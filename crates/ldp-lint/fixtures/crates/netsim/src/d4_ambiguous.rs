// Fixture: trips D4 through an AMBIGUOUS bare call. `helper_now` has
// two same-named definitions (replay/src/helper_a.rs is clean,
// dns-server/src/socket_server.rs reads the wall clock). Conservative resolution
// adds edges to both, so the taint still surfaces — ambiguity widens
// the search, it never suppresses a finding.

pub fn sim_choose() -> u64 {
    helper_now()
}
