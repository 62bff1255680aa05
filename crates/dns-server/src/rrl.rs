//! Response Rate Limiting (RRL), the deployed defense root and TLD
//! operators use against reflection/flood abuse — implemented so the
//! attack what-if studies the paper motivates ("how does a server
//! operate under the stress of a DoS attack?", §1) can evaluate a
//! realistic mitigation, not just raw overload.
//!
//! The algorithm follows BIND/NSD RRL: responses are accounted per
//! (client network prefix, response tuple) token bucket; when a bucket
//! exhausts, responses are dropped, except that a configurable fraction
//! "leak" through as truncated (TC=1) replies so legitimate clients can
//! retry over TCP (the slip mechanism).

// Simulator path (`SimDnsServer::with_rrl`): no hash collection, no
// wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::net::IpAddr;

/// RRL configuration (defaults follow common operator practice).
#[derive(Debug, Clone, Copy)]
pub struct RrlConfig {
    /// Sustained responses per second allowed per (prefix, tuple).
    pub responses_per_second: u32,
    /// Bucket depth in seconds (burst allowance).
    pub window_secs: u32,
    /// Every `slip`-th dropped response is sent truncated instead of
    /// dropped (0 = never slip, pure drop).
    pub slip: u32,
    /// IPv4 prefix length used to aggregate clients (commonly /24).
    pub ipv4_prefix_len: u8,
}

/// IPv6 prefix length used to aggregate clients: the common /56, which
/// no study or sweep cell varies.
const IPV6_PREFIX_LEN: u32 = 56;

impl Default for RrlConfig {
    fn default() -> Self {
        RrlConfig {
            responses_per_second: 10,
            window_secs: 15,
            slip: 2,
            ipv4_prefix_len: 24,
        }
    }
}

/// The rate-limiter's verdict for one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrlAction {
    /// Send the response normally.
    Send,
    /// Drop it silently.
    Drop,
    /// Send a minimal truncated (TC=1) response instead — the client
    /// may retry over TCP.
    Slip,
}

/// Counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RrlStats {
    /// Responses allowed through.
    pub sent: u64,
    /// Responses dropped.
    pub dropped: u64,
    /// Responses slipped (TC=1).
    pub slipped: u64,
}

#[derive(Debug)]
struct Bucket {
    /// Remaining tokens (scaled by one second of allowance).
    tokens: f64,
    /// Last refill time.
    last: f64,
    /// Drop counter for slip selection.
    drops: u32,
}

/// A token-bucket response rate limiter keyed by (client prefix,
/// response key). Time is an explicit parameter (seconds on any clock)
/// so the same limiter runs under the simulator and the wall clock.
#[derive(Debug)]
pub struct RateLimiter {
    config: RrlConfig,
    buckets: BTreeMap<(u128, u64), Bucket>,
    /// When idle buckets were last swept out.
    swept: f64,
    /// Live counters.
    pub stats: RrlStats,
}

impl RateLimiter {
    /// New limiter with `config`.
    pub fn new(config: RrlConfig) -> Self {
        RateLimiter {
            config,
            buckets: BTreeMap::new(),
            swept: f64::NEG_INFINITY,
            stats: RrlStats::default(),
        }
    }

    /// Mask `addr` to its accounting prefix.
    pub fn prefix(&self, addr: IpAddr) -> u128 {
        match addr {
            IpAddr::V4(v4) => {
                let bits = u32::from(v4);
                let len = self.config.ipv4_prefix_len.min(32) as u32;
                let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
                (bits & mask) as u128
            }
            IpAddr::V6(v6) => {
                let bits = u128::from(v6);
                let mask = u128::MAX << (128 - IPV6_PREFIX_LEN);
                // Distinguish from v4 space by setting a high marker bit.
                (bits & mask) | (1u128 << 127)
            }
        }
    }

    /// Account one response about to be sent to `client` with response
    /// identity `response_key` (e.g. a hash of qname+rcode — RRL groups
    /// identical answers) at time `now`; returns what to do with it.
    pub fn check(&mut self, client: IpAddr, response_key: u64, now: f64) -> RrlAction {
        let rate = self.config.responses_per_second as f64;
        let window = self.config.window_secs as f64;
        let depth = rate * window;
        // Once per window, forget buckets idle for a window: such a
        // bucket has refilled to full depth, so all that goes with it is
        // its slip parity — and a flood of fresh keys holds at most two
        // windows' worth of buckets instead of one per query.
        if now - self.swept >= window {
            self.buckets.retain(|_, b| now - b.last < window);
            self.swept = now;
        }
        let key = (self.prefix(client), response_key);
        let bucket = self.buckets.entry(key).or_insert(Bucket {
            tokens: depth,
            last: now,
            drops: 0,
        });
        // Refill.
        let elapsed = (now - bucket.last).max(0.0);
        bucket.tokens = (bucket.tokens + elapsed * rate).min(depth);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            self.stats.sent += 1;
            return RrlAction::Send;
        }
        bucket.drops += 1;
        if self.config.slip > 0 && bucket.drops.is_multiple_of(self.config.slip) {
            self.stats.slipped += 1;
            RrlAction::Slip
        } else {
            self.stats.dropped += 1;
            RrlAction::Drop
        }
    }

    /// Forget all buckets (a process restart starts from scratch);
    /// lifetime counters are kept.
    pub fn reset(&mut self) {
        self.buckets.clear();
    }

    /// Number of live buckets: what the tests bound.
    #[cfg(test)]
    pub(crate) fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

/// One [`RateLimiter`] per server view plus a catch-all slot, so a
/// flood aimed at one view (one level of the emulated hierarchy)
/// cannot consume another view's response budget — BIND keeps RRL
/// state per view for the same reason. Index with
/// [`dns_zone::ViewSet::select_index`]; clients matching no view
/// (whose REFUSED responses are prime reflection bait) route to the
/// catch-all slot.
#[derive(Debug)]
pub struct RrlBank {
    limiters: Vec<RateLimiter>,
}

impl RrlBank {
    /// A bank of `views + 1` limiters (the last is the catch-all),
    /// each built from `config`.
    pub fn new(config: RrlConfig, views: usize) -> Self {
        RrlBank {
            limiters: (0..views.saturating_add(1))
                .map(|_| RateLimiter::new(config))
                .collect(),
        }
    }

    /// Map a view-selection result to a limiter slot: in-range view
    /// indices map to themselves, `None` and out-of-range to the
    /// catch-all.
    pub fn slot(&self, view: Option<usize>) -> usize {
        let catch_all = self.limiters.len() - 1;
        match view {
            Some(i) if i < catch_all => i,
            _ => catch_all,
        }
    }

    /// Account one encoded UDP `reply` about to be sent to `client`
    /// from the view at `view` (None = no view matched) at time `now`.
    ///
    /// Grouping follows BIND: positive answers bucket by qname;
    /// negative answers (NXDOMAIN/NODATA/errors) by the *zone* (SOA
    /// owner) so a random-subdomain flood shares one bucket per client
    /// network. Replies that do not decode pass unlimited (fail open:
    /// the engine produced them, so they are not amplification bait).
    pub fn check_udp_reply(
        &mut self,
        view: Option<usize>,
        client: IpAddr,
        reply: &[u8],
        now: f64,
    ) -> RrlAction {
        let slot = self.slot(view);
        let Some(limiter) = self.limiters.get_mut(slot) else {
            return RrlAction::Send;
        };
        match dns_wire::Message::decode(reply) {
            Ok(msg) => {
                let negative = msg.rcode != dns_wire::Rcode::NoError || msg.answers.is_empty();
                let group_name = if negative {
                    msg.authorities
                        .iter()
                        .find(|r| r.rtype() == dns_wire::RecordType::SOA)
                        .map(|r| r.name.clone())
                        .or_else(|| msg.question().map(|q| q.name.clone()))
                } else {
                    msg.question().map(|q| q.name.clone())
                };
                let key = group_name.map(|n| response_key(&n, msg.rcode)).unwrap_or(0);
                limiter.check(client, key, now)
            }
            Err(_) => RrlAction::Send,
        }
    }

    /// Forget every limiter's buckets (process-restart semantics);
    /// lifetime counters are kept.
    pub fn reset(&mut self) {
        for l in &mut self.limiters {
            l.reset();
        }
    }

    /// Counters summed across every view's limiter.
    pub fn stats(&self) -> RrlStats {
        let mut total = RrlStats::default();
        for l in &self.limiters {
            total.sent += l.stats.sent;
            total.dropped += l.stats.dropped;
            total.slipped += l.stats.slipped;
        }
        total
    }

    /// Per-slot limiters in view order (catch-all last), for
    /// inspection.
    pub fn limiters(&self) -> &[RateLimiter] {
        &self.limiters
    }
}

/// A stable response key for RRL grouping: identical (qname, rcode)
/// pairs share a bucket, as BIND does.
fn response_key(qname: &dns_wire::Name, rcode: dns_wire::Rcode) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    qname.hash(&mut h);
    rcode.to_u16().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn limiter(rps: u32, slip: u32) -> RateLimiter {
        RateLimiter::new(RrlConfig {
            responses_per_second: rps,
            window_secs: 2,
            slip,
            ..Default::default()
        })
    }

    #[test]
    fn bursts_within_budget_pass() {
        let mut rrl = limiter(10, 2);
        for i in 0..20 {
            assert_eq!(
                rrl.check(ip("192.0.2.1"), 1, i as f64 * 0.01),
                RrlAction::Send
            );
        }
        assert_eq!(rrl.stats.sent, 20);
        assert_eq!(rrl.stats.dropped, 0);
    }

    #[test]
    fn flood_is_limited_with_slip() {
        let mut rrl = limiter(10, 2);
        let mut actions = Vec::new();
        // 1000 identical responses at t≈0: budget is 20 (2 s window).
        for i in 0..1000 {
            actions.push(rrl.check(ip("192.0.2.1"), 1, i as f64 * 1e-6));
        }
        let sent = actions.iter().filter(|a| **a == RrlAction::Send).count();
        let slipped = actions.iter().filter(|a| **a == RrlAction::Slip).count();
        let dropped = actions.iter().filter(|a| **a == RrlAction::Drop).count();
        assert!(sent <= 21, "sent {sent}");
        assert!(dropped > 400);
        // Slip every 2nd drop.
        assert!(
            (slipped as i64 - dropped as i64).abs() <= 1,
            "{slipped} vs {dropped}"
        );
    }

    #[test]
    fn refill_restores_budget() {
        let mut rrl = limiter(10, 0);
        for i in 0..20 {
            rrl.check(ip("192.0.2.1"), 1, i as f64 * 1e-3);
        }
        assert_eq!(rrl.check(ip("192.0.2.1"), 1, 0.021), RrlAction::Drop);
        // After 1 s, ~10 tokens refilled.
        assert_eq!(rrl.check(ip("192.0.2.1"), 1, 1.1), RrlAction::Send);
    }

    #[test]
    fn different_prefixes_independent() {
        let mut rrl = limiter(1, 0);
        for i in 0..10 {
            // Same /24 → same bucket.
            assert_eq!(
                rrl.check(ip(&format!("192.0.2.{i}")), 1, 0.0),
                if i < 2 {
                    RrlAction::Send
                } else {
                    RrlAction::Drop
                },
                "same /24 shares budget"
            );
        }
        // A different /24 has its own budget.
        assert_eq!(rrl.check(ip("192.0.3.1"), 1, 0.0), RrlAction::Send);
    }

    #[test]
    fn different_responses_independent() {
        let mut rrl = limiter(1, 0);
        assert_eq!(rrl.check(ip("192.0.2.1"), 1, 0.0), RrlAction::Send);
        assert_eq!(rrl.check(ip("192.0.2.1"), 1, 0.0), RrlAction::Send);
        assert_eq!(rrl.check(ip("192.0.2.1"), 1, 0.0), RrlAction::Drop);
        // Different qname/rcode → its own bucket.
        assert_eq!(rrl.check(ip("192.0.2.1"), 2, 0.0), RrlAction::Send);
    }

    #[test]
    fn v6_uses_its_own_space() {
        let mut rrl = limiter(1, 0);
        rrl.check(ip("0.0.2.1"), 1, 0.0);
        // A v6 address whose low bits collide with the v4 prefix must
        // not share the bucket.
        assert_eq!(rrl.check(ip("::2:0"), 1, 0.0), RrlAction::Send);
    }

    #[test]
    fn eviction_reclaims_buckets() {
        // A random-name flood: 100 fresh keys a second for 12 windows
        // of 2 s. Without the sweep in `check` the count is the number
        // of queries sent (2400).
        let (per_sec, window) = (100usize, 2usize);
        let mut rrl = limiter(10, 2);
        let mut never_swept = limiter(10, 2);
        never_swept.swept = f64::INFINITY;
        // Beside the flood, a compliant client: a burst of the full
        // depth (20), then idle for more than a window, so the sweep
        // forgets its bucket between any two bursts.
        let mut verdicts = [Vec::new(), Vec::new()];
        for i in 0..per_sec * window * 12 {
            let now = i as f64 / per_sec as f64;
            let flooder = ip(&format!("10.{}.{}.1", i / 256, i % 256));
            for (rrl, verdicts) in [&mut rrl, &mut never_swept].into_iter().zip(&mut verdicts) {
                rrl.check(flooder, i as u64, now);
                if i % (per_sec * 5) == 0 {
                    verdicts.extend((0..20).map(|_| rrl.check(ip("192.0.2.1"), 1, now)));
                }
            }
            assert!(
                rrl.bucket_count() <= per_sec * window * 2,
                "{} buckets at {now} s",
                rrl.bucket_count()
            );
        }
        assert_eq!(never_swept.bucket_count(), per_sec * window * 12 + 1);
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[0], [RrlAction::Send; 100]);
    }

    fn encoded_reply(qname: &str, rcode: dns_wire::Rcode) -> Vec<u8> {
        let mut q = dns_wire::Message::query(7, qname.parse().unwrap(), dns_wire::RecordType::A);
        let mut resp = q.response_to();
        resp.rcode = rcode;
        if rcode == dns_wire::Rcode::NoError {
            resp.answers.push(dns_wire::Record::new(
                q.questions.remove(0).name,
                60,
                dns_wire::RData::A("1.2.3.4".parse().unwrap()),
            ));
        }
        resp.encode()
    }

    #[test]
    fn bank_keeps_per_view_budgets_independent() {
        let cfg = RrlConfig {
            responses_per_second: 1,
            window_secs: 2,
            slip: 0,
            ..Default::default()
        };
        let mut bank = RrlBank::new(cfg, 2);
        let reply = encoded_reply("www.example", dns_wire::Rcode::NoError);
        // Exhaust view 0's bucket for this (client /24, answer) pair.
        for _ in 0..2 {
            assert_eq!(
                bank.check_udp_reply(Some(0), ip("10.0.0.1"), &reply, 0.0),
                RrlAction::Send
            );
        }
        assert_eq!(
            bank.check_udp_reply(Some(0), ip("10.0.0.1"), &reply, 0.0),
            RrlAction::Drop
        );
        // Same client network + same answer through view 1: its own
        // bucket, so it still sends — the per-view property.
        assert_eq!(
            bank.check_udp_reply(Some(1), ip("10.0.0.2"), &reply, 0.0),
            RrlAction::Send
        );
        assert_eq!(bank.stats().sent, 3);
        assert_eq!(bank.stats().dropped, 1);
    }

    #[test]
    fn bank_routes_unmatched_clients_to_catch_all() {
        let cfg = RrlConfig {
            responses_per_second: 1,
            window_secs: 1,
            slip: 0,
            ..Default::default()
        };
        let mut bank = RrlBank::new(cfg, 1);
        assert_eq!(bank.slot(Some(0)), 0);
        assert_eq!(bank.slot(None), 1, "no view = catch-all");
        assert_eq!(bank.slot(Some(9)), 1, "out of range = catch-all");
        let refused = encoded_reply("evil.invalid", dns_wire::Rcode::Refused);
        assert_eq!(
            bank.check_udp_reply(None, ip("203.0.113.9"), &refused, 0.0),
            RrlAction::Send
        );
        assert_eq!(
            bank.check_udp_reply(None, ip("203.0.113.9"), &refused, 0.0),
            RrlAction::Drop
        );
        // The flood on the catch-all never touched view 0's budget.
        assert_eq!(bank.limiters()[0].stats, RrlStats::default());
    }

    #[test]
    fn bank_reset_clears_buckets_and_undecodable_replies_pass() {
        let cfg = RrlConfig {
            responses_per_second: 1,
            window_secs: 1,
            slip: 0,
            ..Default::default()
        };
        let mut bank = RrlBank::new(cfg, 1);
        let reply = encoded_reply("www.example", dns_wire::Rcode::NoError);
        bank.check_udp_reply(Some(0), ip("10.0.0.1"), &reply, 0.0);
        assert!(bank.limiters()[0].bucket_count() > 0);
        bank.reset();
        assert_eq!(bank.limiters()[0].bucket_count(), 0);
        // Garbage bytes fail open.
        assert_eq!(
            bank.check_udp_reply(Some(0), ip("10.0.0.1"), &[1, 2, 3], 0.0),
            RrlAction::Send
        );
    }

    #[test]
    fn response_key_stable_and_distinguishing() {
        let a: dns_wire::Name = "x.example.com".parse().unwrap();
        let b: dns_wire::Name = "y.example.com".parse().unwrap();
        use dns_wire::Rcode;
        assert_eq!(
            response_key(&a, Rcode::NoError),
            response_key(&a, Rcode::NoError)
        );
        assert_ne!(
            response_key(&a, Rcode::NoError),
            response_key(&b, Rcode::NoError)
        );
        assert_ne!(
            response_key(&a, Rcode::NoError),
            response_key(&a, Rcode::NxDomain)
        );
    }
}
