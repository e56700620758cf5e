//! The rendezvous primitive underlying all collective operations.
//!
//! A *meet* is a named barrier with data exchange: every participant arrives
//! carrying its virtual clock and (optionally) a payload; once the last
//! participant arrives, everyone observes the maximum arrival time and the
//! full payload map. This models MPI collective semantics — a collective
//! cannot complete before its slowest participant arrives — while letting
//! per-rank virtual clocks advance independently between collectives.
//!
//! Tags identify meet instances. Participants of the same collective must
//! pass identical tags and group sizes; like MPI, each rank must issue its
//! collectives in a globally consistent order or the run deadlocks (a
//! 60-second watchdog turns such deadlocks into panics naming the tag).
//!
//! The gap between a rank's arrival and the meet's resolution is what the
//! observability layer records as an
//! [`OpKind::MeetWait`](crate::OpKind::MeetWait) event, and the spread
//! between the earliest and latest arrival feeds the
//! `meet_arrival_spread_ns` histogram — the per-collective view of the
//! straggler imbalance that Figure 10's aggregate bars can only hint at.

use crate::SimTime;
use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Payload deposited at a meet: a shared immutable view into a dense buffer.
///
/// A payload is an `Arc`-backed buffer plus a sub-range, so a collective can
/// ship a stripe of a rank's resident block without materialising a copy:
/// cloning a `Payload` (as every meet participant does when it snapshots the
/// payload map) only bumps the reference count, and [`Payload::subslice`]
/// narrows the view in O(1). Dereferences as `&[f64]`.
#[derive(Debug, Clone)]
pub struct Payload {
    buf: Arc<Vec<f64>>,
    start: usize,
    len: usize,
}

impl Payload {
    /// Wraps an entire shared buffer.
    pub fn new(buf: Arc<Vec<f64>>) -> Payload {
        let len = buf.len();
        Payload { buf, start: 0, len }
    }

    /// A zero-copy view of `range` within this payload (indices relative to
    /// this view, not the underlying buffer).
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds this payload's bounds.
    pub fn subslice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "subslice {range:?} out of bounds for payload of {} elements",
            self.len
        );
        Payload {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// `true` if both payloads view the same underlying allocation — i.e. no
    /// copy separates them, regardless of the ranges they expose.
    pub fn shares_buffer(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for Payload {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl From<Arc<Vec<f64>>> for Payload {
    fn from(buf: Arc<Vec<f64>>) -> Payload {
        Payload::new(buf)
    }
}

impl From<Vec<f64>> for Payload {
    fn from(buf: Vec<f64>) -> Payload {
        Payload::new(Arc::new(buf))
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<f64>> for Payload {
    fn eq(&self, other: &Vec<f64>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<[f64]> for Payload {
    fn eq(&self, other: &[f64]) -> bool {
        **self == *other
    }
}

#[derive(Debug)]
struct MeetState {
    expected: usize,
    arrived: usize,
    departed: usize,
    max_time: SimTime,
    min_time: SimTime,
    latest_rank: usize,
    payloads: HashMap<usize, Payload>,
}

impl Default for MeetState {
    fn default() -> MeetState {
        MeetState {
            expected: 0,
            arrived: 0,
            departed: 0,
            max_time: SimTime::ZERO,
            min_time: SimTime::ZERO,
            latest_rank: usize::MAX,
            payloads: HashMap::new(),
        }
    }
}

/// Why a registry was poisoned: the stall that tripped the first abort.
///
/// Once any participant of any meet declares a stall, every rank that is
/// waiting at (or later arrives at) *any* meet observes this record instead
/// of blocking forever on peers that have already aborted. That is what
/// keeps subgroup stall failures symmetric: the members of the tripped
/// subgroup all see the same spread and abort together, and ranks outside
/// the subgroup are woken out of their own collectives with the same typed
/// information rather than deadlocking against the dead subgroup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MeetPoison {
    /// The straggler of the meet that tripped the stall check.
    pub straggler: usize,
    /// The arrival spread that exceeded the configured timeout.
    pub stalled_seconds: f64,
    /// The configured stall timeout.
    pub timeout_seconds: f64,
}

/// What every participant observes once a meet completes.
#[derive(Debug, Clone)]
pub(crate) struct MeetOutcome {
    /// The maximum arrival time — when the collective completes.
    pub time: SimTime,
    /// The rank that arrived with the latest clock (smallest such rank on
    /// ties), i.e. the collective's straggler.
    pub straggler: usize,
    /// Seconds between the earliest and latest arrival. Identical for every
    /// participant, so straggler-tolerance decisions based on it are
    /// symmetric and cannot desynchronise the group.
    pub spread_seconds: f64,
    /// Snapshot of every deposited payload, keyed by rank.
    pub payloads: HashMap<usize, Payload>,
    /// Present when the registry was poisoned before this meet completed:
    /// the collective was aborted, `payloads` is empty, and the caller must
    /// surface the stall instead of using the outcome.
    pub poisoned: Option<MeetPoison>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    states: HashMap<u64, MeetState>,
    poison: Option<MeetPoison>,
}

/// Registry of in-flight meets, shared by all ranks of a cluster.
#[derive(Debug, Default)]
pub(crate) struct MeetRegistry {
    inner: Mutex<RegistryInner>,
    cond: Condvar,
}

/// How long a rank may wait at a meet before the run is declared deadlocked.
const MEET_TIMEOUT: Duration = Duration::from_secs(60);

impl MeetRegistry {
    pub(crate) fn new() -> MeetRegistry {
        MeetRegistry::default()
    }

    /// Drops every registered meet state and any poison. Only sound between
    /// runs: a rank blocked inside [`MeetRegistry::meet`] would lose its
    /// rendezvous.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().expect("meet registry lock poisoned");
        inner.states.clear();
        inner.poison = None;
    }

    /// Poisons the registry: every meet in flight (and every future arrival)
    /// aborts with `poison` instead of waiting. The first poison wins; later
    /// calls are no-ops so all ranks report the stall that tripped first.
    pub(crate) fn poison(&self, poison: MeetPoison) {
        let mut inner = self.inner.lock().expect("meet registry lock poisoned");
        if inner.poison.is_none() {
            inner.poison = Some(poison);
        }
        self.cond.notify_all();
    }

    /// Arrives at meet `tag` with `expected` total participants.
    ///
    /// Blocks until all participants have arrived, then returns the maximum
    /// arrival [`SimTime`] and a snapshot of every deposited payload keyed by
    /// rank.
    ///
    /// If the registry is poisoned (a stall tripped somewhere in the
    /// cluster), the meet aborts instead of waiting: the returned outcome
    /// carries the poison and an empty payload map. A rank arriving at an
    /// already-poisoned registry aborts without registering, so it cannot
    /// corrupt the state of a meet its peers have abandoned.
    ///
    /// # Panics
    ///
    /// Panics if participants disagree on `expected`, if two participants
    /// claim the same `rank` with a payload, or if the meet does not complete
    /// within the watchdog timeout (a deadlock, i.e. mismatched collective
    /// order across ranks).
    pub(crate) fn meet(
        &self,
        tag: u64,
        expected: usize,
        rank: usize,
        time: SimTime,
        payload: Option<Payload>,
    ) -> MeetOutcome {
        assert!(expected > 0, "meet must have at least one participant");
        let mut inner = self.inner.lock().expect("meet registry lock poisoned");
        if let Some(poison) = inner.poison {
            return MeetOutcome {
                time,
                straggler: poison.straggler,
                spread_seconds: poison.stalled_seconds,
                payloads: HashMap::new(),
                poisoned: Some(poison),
            };
        }
        {
            let state = inner.states.entry(tag).or_default();
            if state.expected == 0 {
                state.expected = expected;
            }
            assert_eq!(
                state.expected, expected,
                "meet {tag:#x}: participants disagree on group size"
            );
            assert!(
                state.arrived < state.expected,
                "meet {tag:#x}: more arrivals than expected (tag reuse before completion?)"
            );
            if time > state.max_time || state.latest_rank == usize::MAX {
                state.latest_rank = rank;
            } else if time == state.max_time && rank < state.latest_rank {
                // Deterministic tie-break: the smallest rank among the latest
                // arrivals, independent of thread scheduling.
                state.latest_rank = rank;
            }
            state.min_time = if state.arrived == 0 { time } else { state.min_time.min(time) };
            state.max_time = state.max_time.max(time);
            if let Some(p) = payload {
                let prev = state.payloads.insert(rank, p);
                assert!(prev.is_none(), "meet {tag:#x}: rank {rank} deposited twice");
            }
            state.arrived += 1;
        }
        if inner.states.get(&tag).expect("just inserted").arrived == expected {
            self.cond.notify_all();
        } else {
            loop {
                let done = inner.states.get(&tag).is_some_and(|s| s.arrived == s.expected);
                if done {
                    break;
                }
                if let Some(poison) = inner.poison {
                    // Abandon the incomplete meet: its remaining participants
                    // will observe the same poison (waiters are woken by
                    // `poison`, later arrivals abort on entry), so nobody is
                    // left waiting for this rank. The leaked state is
                    // harmless — tags are epoch-namespaced per run.
                    return MeetOutcome {
                        time,
                        straggler: poison.straggler,
                        spread_seconds: poison.stalled_seconds,
                        payloads: HashMap::new(),
                        poisoned: Some(poison),
                    };
                }
                let (guard, wait) = self
                    .cond
                    .wait_timeout(inner, MEET_TIMEOUT)
                    .expect("meet registry lock poisoned");
                inner = guard;
                let done = inner.states.get(&tag).is_some_and(|s| s.arrived == s.expected);
                if wait.timed_out() && !done && inner.poison.is_none() {
                    let s = inner.states.get(&tag);
                    panic!(
                        "meet {tag:#x} deadlocked: rank {rank} waited {MEET_TIMEOUT:?} \
                         ({} of {} arrived) — collective order mismatch across ranks?",
                        s.map_or(0, |s| s.arrived),
                        expected
                    );
                }
            }
        }
        let (result, remove) = {
            let state = inner.states.get_mut(&tag).expect("meet state present until all depart");
            let result = MeetOutcome {
                time: state.max_time,
                straggler: state.latest_rank,
                spread_seconds: state.max_time.since(state.min_time),
                payloads: state.payloads.clone(),
                poisoned: None,
            };
            state.departed += 1;
            (result, state.departed == state.expected)
        };
        if remove {
            inner.states.remove(&tag);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_meet(parties: usize, times: Vec<f64>) -> Vec<MeetOutcome> {
        let reg = Arc::new(MeetRegistry::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(rank, &t)| {
                    let reg = Arc::clone(&reg);
                    s.spawn(move || {
                        let payload = Payload::from(vec![rank as f64]);
                        reg.meet(7, parties, rank, SimTime::from_seconds(t), Some(payload))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_observe_max_time_and_all_payloads() {
        let out = spawn_meet(3, vec![1.0, 5.0, 2.0]);
        for o in out {
            assert_eq!(o.time, SimTime::from_seconds(5.0));
            assert_eq!(o.payloads.len(), 3);
            assert_eq!(o.straggler, 1, "rank 1 arrived last");
            assert!((o.spread_seconds - 4.0).abs() < 1e-15);
        }
    }

    #[test]
    fn straggler_ties_break_to_the_smallest_rank() {
        let out = spawn_meet(3, vec![2.0, 2.0, 1.0]);
        for o in out {
            assert_eq!(o.straggler, 0);
            assert!((o.spread_seconds - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn single_participant_completes_immediately() {
        let reg = MeetRegistry::new();
        let o = reg.meet(1, 1, 0, SimTime::from_seconds(2.0), None);
        assert_eq!(o.time, SimTime::from_seconds(2.0));
        assert!(o.payloads.is_empty());
        assert_eq!(o.straggler, 0);
        assert_eq!(o.spread_seconds, 0.0);
    }

    #[test]
    fn tag_is_reusable_after_completion() {
        let reg = MeetRegistry::new();
        for round in 0..3 {
            let o = reg.meet(9, 1, 0, SimTime::from_seconds(round as f64), None);
            assert_eq!(o.time, SimTime::from_seconds(round as f64));
        }
    }

    #[test]
    fn distinct_tags_do_not_interfere() {
        let reg = Arc::new(MeetRegistry::new());
        let out = std::thread::scope(|s| {
            let r1 = Arc::clone(&reg);
            let a = s.spawn(move || r1.meet(100, 1, 0, SimTime::from_seconds(1.0), None).time);
            let r2 = Arc::clone(&reg);
            let b = s.spawn(move || r2.meet(200, 1, 0, SimTime::from_seconds(2.0), None).time);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(out.0, SimTime::from_seconds(1.0));
        assert_eq!(out.1, SimTime::from_seconds(2.0));
    }

    #[test]
    fn payloads_are_shared_not_copied() {
        let reg = MeetRegistry::new();
        let payload = Payload::from(vec![1.0, 2.0]);
        let o = reg.meet(11, 1, 0, SimTime::ZERO, Some(payload.clone()));
        assert!(o.payloads[&0].shares_buffer(&payload));
    }

    #[test]
    fn subslice_views_share_the_buffer() {
        let payload = Payload::from(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let mid = payload.subslice(1..4);
        assert_eq!(mid, vec![1.0, 2.0, 3.0]);
        assert!(mid.shares_buffer(&payload));
        let inner = mid.subslice(1..2);
        assert_eq!(inner, vec![2.0]);
        assert!(inner.shares_buffer(&payload));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subslice_past_view_end_panics() {
        let payload = Payload::from(vec![0.0; 4]);
        let _ = payload.subslice(2..4).subslice(0..3);
    }

    const POISON: MeetPoison =
        MeetPoison { straggler: 3, stalled_seconds: 9.0, timeout_seconds: 1.0 };

    #[test]
    fn poison_wakes_waiters_and_aborts_late_arrivals() {
        let reg = Arc::new(MeetRegistry::new());
        // Two of three participants arrive, then the registry is poisoned:
        // both waiters must wake with the poison instead of deadlocking.
        let outcomes = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|rank| {
                    let reg = Arc::clone(&reg);
                    s.spawn(move || reg.meet(5, 3, rank, SimTime::from_seconds(1.0), None))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(50));
            reg.poison(POISON);
            waiters.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for o in outcomes {
            assert_eq!(o.poisoned, Some(POISON));
            assert!(o.payloads.is_empty());
            assert_eq!(o.straggler, POISON.straggler);
        }
        // The third participant arrives after the fact and aborts on entry.
        let late = reg.meet(5, 3, 2, SimTime::from_seconds(2.0), None);
        assert_eq!(late.poisoned, Some(POISON));
    }

    #[test]
    fn first_poison_wins_and_clear_resets_it() {
        let reg = MeetRegistry::new();
        reg.poison(POISON);
        reg.poison(MeetPoison { straggler: 9, stalled_seconds: 1.0, timeout_seconds: 0.5 });
        let o = reg.meet(1, 2, 0, SimTime::ZERO, None);
        assert_eq!(o.poisoned, Some(POISON), "the first poison is the one reported");
        reg.clear();
        let o = reg.meet(3, 1, 0, SimTime::ZERO, None);
        assert_eq!(o.poisoned, None, "clear() drops poison along with states");
    }

    #[test]
    fn completed_meets_resolve_normally_even_if_poison_lands_later() {
        let reg = MeetRegistry::new();
        let o = reg.meet(4, 1, 0, SimTime::from_seconds(1.0), None);
        assert_eq!(o.poisoned, None);
        reg.poison(POISON);
        // A fresh meet on the poisoned registry aborts.
        assert!(reg.meet(6, 1, 0, SimTime::ZERO, None).poisoned.is_some());
    }
}
