//! The query mutator (paper §2.5): programmatic, composable rewrites of
//! a trace for what-if experiments — "what if all queries used TCP?",
//! "what if every query set the DO bit?" — plus the replay plumbing
//! mutations (unique-prefix tagging for query/response matching, §4.2).

use dns_wire::Transport;
use ldp_rng::SplitMix64;

use crate::entry::TraceEntry;

/// One rewrite applied to every entry (or a deterministic subset).
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Force every message onto one transport (the §5.2 experiments).
    SetTransport(Transport),
    /// Set the EDNS DO bit on a deterministic fraction of queries
    /// (0.0–1.0); the paper's §5.1 sweeps 72.3 % → 100 %.
    SetDnssecFraction(f64),
    /// Prepend a unique per-query label to each qname (e.g. `q0042.`),
    /// the paper's trick for matching replayed queries to originals.
    UniquePrefix {
        /// Prefix text; the entry index is appended.
        tag: String,
    },
    /// Scale every entry's offset from the first entry by a factor
    /// (2.0 = half the rate); a time that would fall below 0 is 0.
    ScaleTime(f64),
    /// Keep only queries (drop responses).
    QueriesOnly,
}

/// Applies an ordered list of mutations to a trace.
///
/// Mutations are deterministic: fraction-based choices derive from a
/// seeded RNG so the same mutator config always produces the same
/// mutated trace (repeatability, paper §2.1).
#[derive(Debug, Clone)]
pub struct Mutator {
    mutations: Vec<Mutation>,
    seed: u64,
}

impl Mutator {
    /// New mutator with a fixed default seed.
    pub fn new(mutations: Vec<Mutation>) -> Self {
        Mutator {
            mutations,
            seed: 0x1edbeef,
        }
    }

    /// Apply all mutations, in order, to `trace`.
    pub fn apply(&self, trace: &mut Vec<TraceEntry>) {
        for m in &self.mutations {
            self.apply_one(m, trace);
        }
    }

    fn apply_one(&self, m: &Mutation, trace: &mut Vec<TraceEntry>) {
        match m {
            Mutation::SetTransport(t) => {
                for e in trace.iter_mut() {
                    e.transport = *t;
                }
            }
            Mutation::SetDnssecFraction(frac) => {
                let mut rng = SplitMix64::seed_from_u64(self.seed);
                for e in trace.iter_mut() {
                    let on = rng.gen::<f64>() < *frac;
                    e.message.set_dnssec_ok(on);
                }
            }
            Mutation::UniquePrefix { tag } => {
                for (i, e) in trace.iter_mut().enumerate() {
                    if let Some(q) = e.message.questions.first_mut() {
                        let label = format!("{tag}{i}");
                        if let Ok(tagged) = q.name.child(label.as_bytes()) {
                            q.name = tagged;
                        }
                    }
                }
            }
            Mutation::ScaleTime(factor) => {
                if let Some(first) = trace.first().map(|e| e.time_us) {
                    // Signed: the parsers never sort, so an entry may
                    // precede the first.
                    for e in trace.iter_mut() {
                        let delta = e.time_us.wrapping_sub(first) as i64;
                        let scaled = (delta as f64 * factor).round() as i64;
                        e.time_us = first.saturating_add_signed(scaled);
                    }
                }
            }
            Mutation::QueriesOnly => {
                trace.retain(|e| e.is_query());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::RecordType;

    fn trace(n: u64) -> Vec<TraceEntry> {
        (0..n)
            .map(|i| {
                TraceEntry::query(
                    1_000_000 + i * 10_000,
                    format!("10.0.0.{}:1234", i % 250 + 1).parse().unwrap(),
                    "10.9.9.9:53".parse().unwrap(),
                    i as u16,
                    format!("q{i}.example.com").parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect()
    }

    #[test]
    fn set_transport_all_tcp() {
        let mut t = trace(20);
        Mutator::new(vec![Mutation::SetTransport(Transport::Tcp)]).apply(&mut t);
        assert!(t.iter().all(|e| e.transport == Transport::Tcp));
    }

    #[test]
    fn dnssec_fraction_approximate_and_deterministic() {
        let mut t1 = trace(2000);
        let mut t2 = trace(2000);
        let m = Mutator::new(vec![Mutation::SetDnssecFraction(0.723)]);
        m.apply(&mut t1);
        m.apply(&mut t2);
        assert_eq!(t1, t2, "same seed, same outcome");
        let on = t1.iter().filter(|e| e.message.dnssec_ok()).count();
        let frac = on as f64 / t1.len() as f64;
        assert!((frac - 0.723).abs() < 0.05, "DO fraction {frac}");
    }

    #[test]
    fn dnssec_fraction_one_sets_all() {
        let mut t = trace(100);
        Mutator::new(vec![Mutation::SetDnssecFraction(1.0)]).apply(&mut t);
        assert!(t.iter().all(|e| e.message.dnssec_ok()));
    }

    #[test]
    fn unique_prefix_distinguishes_queries() {
        let mut t = trace(5);
        Mutator::new(vec![Mutation::UniquePrefix { tag: "ldp".into() }]).apply(&mut t);
        let names: std::collections::HashSet<String> =
            t.iter().map(|e| e.qname().unwrap().to_string()).collect();
        assert_eq!(names.len(), 5);
        assert!(t[0].qname().unwrap().to_string().starts_with("ldp0."));
        // Original name preserved as suffix.
        assert!(t[3]
            .qname()
            .unwrap()
            .to_string()
            .ends_with("q3.example.com."));
    }

    #[test]
    fn scale_time_doubles_gaps() {
        let mut t = trace(3);
        Mutator::new(vec![Mutation::ScaleTime(2.0)]).apply(&mut t);
        assert_eq!(t[0].time_us, 1_000_000);
        assert_eq!(t[1].time_us, 1_020_000);
        assert_eq!(t[2].time_us, 1_040_000);
    }

    #[test]
    fn scale_time_scales_an_entry_before_the_first_and_clamps_at_zero() {
        let mut t = trace(3);
        t[1].time_us = 900_000;
        Mutator::new(vec![Mutation::ScaleTime(2.0)]).apply(&mut t);
        let times: Vec<u64> = t.iter().map(|e| e.time_us).collect();
        assert_eq!(times, [1_000_000, 800_000, 1_040_000]);
        Mutator::new(vec![Mutation::ScaleTime(10.0)]).apply(&mut t);
        assert_eq!(t[1].time_us, 0, "clamped, not wrapped");
    }

    #[test]
    fn queries_only_drops_responses() {
        let mut t = trace(4);
        t[2].message.flags.response = true;
        Mutator::new(vec![Mutation::QueriesOnly]).apply(&mut t);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|e| e.is_query()));
    }

    #[test]
    fn mutations_compose_in_order() {
        let mut t = trace(10);
        Mutator::new(vec![
            Mutation::SetTransport(Transport::Tls),
            Mutation::SetDnssecFraction(1.0),
            Mutation::UniquePrefix { tag: "x".into() },
        ])
        .apply(&mut t);
        assert!(t.iter().all(|e| e.transport == Transport::Tls));
        assert!(t.iter().all(|e| e.message.dnssec_ok()));
        assert!(t[9].qname().unwrap().to_string().starts_with("x9."));
    }
}
