//! The session timeline: what the service did, when, and on whose behalf.
//!
//! Per-*operation* observability (the [`OpEvent`](twoface_net::OpEvent)
//! streams of individual runs) answers what happened *inside* one execution;
//! the session timeline sits one level up and answers what the *service*
//! did across executions: registrations, cache hits and preprocessing
//! builds, batched runs, retries, fallbacks, and session resets. Every
//! event is tagged with a [`PhaseClass`] so the existing Figure-10 class
//! vocabulary (and its Recovery class for degraded operation) applies
//! unchanged at the session level.

use serde::Serialize;
use twoface_core::Breakdown;
use twoface_net::PhaseClass;

/// What kind of service action a [`SessionEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SessionPhase {
    /// A sparse matrix was registered (fingerprinted and validated).
    Register,
    /// A cache miss: preprocessing ran and the artifact was inserted.
    Prepare,
    /// A cache hit: preprocessing was skipped entirely.
    CacheHit,
    /// One execution of a (possibly fused) batch on the warm cluster.
    Execute,
    /// A failed attempt was retried under a reseeded fault plan.
    Retry,
    /// The scheduler abandoned the planned algorithm for the dense
    /// allgather baseline.
    Fallback,
    /// The session was reset: cached plans dropped, the cluster reset.
    Reset,
}

impl SessionPhase {
    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            SessionPhase::Register => "register",
            SessionPhase::Prepare => "prepare",
            SessionPhase::CacheHit => "cache_hit",
            SessionPhase::Execute => "execute",
            SessionPhase::Retry => "retry",
            SessionPhase::Fallback => "fallback",
            SessionPhase::Reset => "reset",
        }
    }
}

/// One entry of the service's session timeline.
///
/// Simulated times are on the *session clock*: the cumulative simulated
/// seconds of every execution the service has performed, in order.
/// Bookkeeping events (registration, preprocessing, resets) are simulated
/// instants — preprocessing is real host work, not simulated communication,
/// so its cost appears in [`SessionEvent::wall_nanos`] rather than on the
/// deterministic session clock.
#[derive(Debug, Clone, Serialize)]
pub struct SessionEvent {
    /// Monotonic event index within the session.
    pub seq: u64,
    /// What the service did.
    pub phase: SessionPhase,
    /// The Figure-10 class the action belongs to: [`PhaseClass::Other`] for
    /// bookkeeping, [`PhaseClass::Recovery`] for retries and fallbacks, and
    /// the dominant class of the critical rank for executions.
    pub class: PhaseClass,
    /// The request ids this action served (empty for session-wide actions).
    pub requests: Vec<u64>,
    /// Session-clock start, in simulated seconds.
    pub sim_start_seconds: f64,
    /// Session-clock end, in simulated seconds (equals the start for
    /// instant events).
    pub sim_end_seconds: f64,
    /// Host wall time the action consumed, in nanoseconds (nonzero only
    /// for real host work such as preprocessing builds).
    pub wall_nanos: u64,
    /// Human-readable context (algorithm, batch size, cache key, error).
    pub detail: String,
}

/// The [`PhaseClass`] that dominates a breakdown — used to tag Execute
/// events with what the batch actually spent its critical path on.
pub(crate) fn dominant_class(b: &Breakdown) -> PhaseClass {
    let pairs = [
        (PhaseClass::SyncComm, b.sync_comm),
        (PhaseClass::SyncComp, b.sync_comp),
        (PhaseClass::AsyncComm, b.async_comm),
        (PhaseClass::AsyncComp, b.async_comp),
        (PhaseClass::Other, b.other),
        (PhaseClass::Recovery, b.recovery),
    ];
    // Ties break to the earliest class (sync comm) rather than whatever the
    // iterator happens to yield last.
    let mut best = pairs[0];
    for &(class, seconds) in &pairs[1..] {
        if seconds > best.1 {
            best = (class, seconds);
        }
    }
    best.0
}

/// Renders events as one JSON object per line (the same JSONL convention as
/// [`twoface_net::export::events_jsonl`]), for offline inspection.
pub fn timeline_jsonl(events: &[SessionEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("session events serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_class_picks_the_largest_component() {
        let b = Breakdown { async_comm: 2.0, sync_comp: 1.0, ..Default::default() };
        assert_eq!(dominant_class(&b), PhaseClass::AsyncComm);
        assert_eq!(dominant_class(&Breakdown::default()), PhaseClass::SyncComm);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let events = vec![SessionEvent {
            seq: 0,
            phase: SessionPhase::Execute,
            class: PhaseClass::SyncComm,
            requests: vec![1, 2],
            sim_start_seconds: 0.0,
            sim_end_seconds: 0.5,
            wall_nanos: 0,
            detail: "two_face x2".into(),
        }];
        let body = timeline_jsonl(&events);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"Execute\"") || body.contains("execute"), "{body}");
    }
}
