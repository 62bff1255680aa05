//! Compact binary events and the interned kind registry.

use std::sync::Mutex;

/// Interned id of a registered event kind. 2 bytes in every event;
/// the name is resolved only at drain time via [`kind_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindId(pub u16);

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Op {
    /// Start of a span (paired with [`Op::SpanExit`] of the same kind).
    SpanEnter = 0,
    /// End of a span.
    SpanExit = 1,
    /// A counter increment; the delta rides in `b`.
    Counter = 2,
    /// A point-in-time lifecycle mark.
    Mark = 3,
}

impl Op {
    /// Short fixed-width label for timeline rendering.
    pub fn label(self) -> &'static str {
        match self {
            Op::SpanEnter => "enter",
            Op::SpanExit => "exit ",
            Op::Counter => "count",
            Op::Mark => "mark ",
        }
    }
}

/// One recorded event: 32 bytes, `Copy`, no pointers.
///
/// `a` doubles as the sampling key — lifecycle events use the query
/// sequence number so a whole lifecycle is kept or dropped together.
/// `b` is free payload (byte counts, attempt numbers, signed timing
/// error in two's complement, …) interpreted per kind at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// Timestamp, nanoseconds (virtual or clock time; see [`crate::clock`]).
    pub t_ns: u64,
    /// Primary key (query seq / conn id / event ordinal); sampling key.
    pub a: u64,
    /// Per-kind payload.
    pub b: u64,
    /// Interned kind.
    pub kind: KindId,
    /// Event operation.
    pub op: Op,
}

/// The kind registry. Registration happens at setup time (host /
/// engine construction), never on the hot path, so a mutex is fine.
static KINDS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Intern `name`, returning its [`KindId`]. Registering the same name
/// twice returns the same id. Names must be `'static` so the hot path
/// never copies strings.
pub fn register_kind(name: &'static str) -> KindId {
    let mut table = KINDS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = table.iter().position(|n| *n == name) {
        return KindId(i as u16);
    }
    if table.len() >= u16::MAX as usize {
        // Registry full (unreachable in practice: kinds are static).
        return KindId(u16::MAX - 1);
    }
    table.push(name);
    KindId((table.len() - 1) as u16)
}

/// Resolve a kind's name (drain time only).
pub fn kind_name(kind: KindId) -> &'static str {
    let table = KINDS.lock().unwrap_or_else(|e| e.into_inner());
    table
        .get(kind.0 as usize)
        .copied()
        .unwrap_or("<unregistered>")
}

/// Snapshot of all registered kinds, in id order.
pub fn registered_kinds() -> Vec<&'static str> {
    KINDS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_interns_and_dedups() {
        let a = register_kind("test.event.alpha");
        let b = register_kind("test.event.beta");
        let a2 = register_kind("test.event.alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(kind_name(a), "test.event.alpha");
        assert_eq!(kind_name(b), "test.event.beta");
    }

    #[test]
    fn unknown_kind_resolves_to_placeholder() {
        assert_eq!(kind_name(KindId(u16::MAX)), "<unregistered>");
    }

    #[test]
    fn raw_event_is_compact() {
        assert!(std::mem::size_of::<RawEvent>() <= 32);
    }
}
