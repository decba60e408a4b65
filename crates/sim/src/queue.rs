//! The discrete-event scheduler: a binary heap keyed by virtual time with
//! seeded, stable tie-breaking, plus a conflict-aware batch pop for
//! deterministic parallel execution.
//!
//! Three keys order events:
//!
//! 1. **time** — earlier fires first;
//! 2. **priority** — a caller-supplied rank separating phases that must not
//!    interleave at equal time (the engine encodes `phase * 2^32 + node`);
//! 3. **seeded tie-break** — among events equal on both, a SplitMix64 hash
//!    of `(seed, insertion index)` fixes the order. The permutation of
//!    simultaneous same-priority events is thus random *across seeds* (no
//!    accidental bias toward insertion order) yet bit-stable across runs and
//!    replayable from the seed alone; insertion index breaks any final ties
//!    so the order is total.
//!
//! [`EventQueue::pop_independent_batch`] pops a maximal *prefix* of that
//! total order whose events share a [`Conflict`] class, touch
//! pairwise-distinct nodes and fire within the queue's [`Ordering`] window
//! of the head. Under [`Ordering::Strict`] (the default) the window is
//! zero: batches are simultaneous, and because the batch is a contiguous
//! prefix, executing its events concurrently and committing their side
//! effects in batch order is observably identical to popping them one at a
//! time — the foundation of the engine's thread-count-invariance
//! guarantee.
//!
//! [`Ordering::Window`] is an experimental throughput mode: a batch may
//! extend up to `max_skew_ns` past the head's fire time. Under fully-random
//! per-node speeds strictly-simultaneous batches degenerate to singletons;
//! a bounded skew window restores wide batches at the cost of a bounded
//! reordering — an event executed inside a window cannot observe side
//! effects (messages, repairs) committed by earlier batch members less than
//! `max_skew_ns` before it. The batch is still a prefix of the total order,
//! so runs stay bit-reproducible for a fixed `(seed, max_skew_ns)`. On a
//! 2-core host Window has measured 1.4–2.3× *slower* than Strict (`ext_scale`
//! at 256 nodes), so it is not a default anywhere.

use crate::clock::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Batching policy of [`EventQueue::pop_independent_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Ordering {
    /// Batches contain only simultaneous events: popping a batch is a pure
    /// re-grouping of the one-at-a-time pop sequence.
    #[default]
    Strict,
    /// Experimental: batches may span fire times up to `max_skew_ns` apart.
    /// Deterministic for a fixed seed and skew, but *not* equivalent to the
    /// strict schedule: an event may execute without seeing effects
    /// committed up to `max_skew_ns` of virtual time before it fires.
    Window {
        /// Maximum spread, in virtual nanoseconds, between the earliest and
        /// latest fire time inside one batch.
        max_skew_ns: u64,
    },
}

impl Ordering {
    /// The batch time-spread bound: zero under [`Ordering::Strict`].
    pub fn max_skew_ns(self) -> u64 {
        match self {
            Ordering::Strict => 0,
            Ordering::Window { max_skew_ns } => max_skew_ns,
        }
    }
}

/// How an event interacts with simulation state, as reported to
/// [`EventQueue::pop_independent_batch`] by the caller's classifier.
///
/// The classification is a *promise* from the interpreter: an
/// [`Conflict::Exclusive`] event may read and write only state owned by its
/// `node` (its model, its mailbox, its RNG) plus append-only effects that the
/// caller defers to an ordered commit phase. Two exclusive events of the same
/// `class` on different nodes are then independent and may execute
/// concurrently. Events that touch global state (crash/recovery replay,
/// cluster-wide evaluation) must be [`Conflict::Solo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Conflict {
    /// Touches only state owned by `node`; batchable with same-`class`
    /// events on other nodes at the same virtual time.
    Exclusive {
        /// Event-kind class; only equal classes batch together (the engine
        /// uses its same-time phase rank, so a batch is always one phase).
        class: u64,
        /// The single node whose state the event may touch.
        node: usize,
    },
    /// Touches shared state; always popped as a batch of one.
    Solo,
}

/// One scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Caller-supplied same-time ordering rank (lower fires first).
    pub priority: u64,
    /// The payload.
    pub event: E,
}

#[derive(Debug)]
struct HeapEntry<E> {
    time: SimTime,
    priority: u64,
    tie: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        (other.time, other.priority, other.tie, other.seq).cmp(&(
            self.time,
            self.priority,
            self.tie,
            self.seq,
        ))
    }
}

/// A deterministic event queue over virtual time.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    seed: u64,
    next_seq: u64,
    ordering: Ordering,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<E> EventQueue<E> {
    /// An empty queue whose same-key tie-breaks are derived from `seed`,
    /// popping [`Ordering::Strict`] batches.
    pub fn new(seed: u64) -> Self {
        Self::with_ordering(seed, Ordering::Strict)
    }

    /// An empty queue like [`EventQueue::new`] that pops batches under
    /// `ordering`.
    pub fn with_ordering(seed: u64, ordering: Ordering) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seed,
            next_seq: 0,
            ordering,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time` with same-time rank `priority`.
    pub fn push(&mut self, time: SimTime, priority: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time,
            priority,
            tie: splitmix64(self.seed ^ seq),
            seq,
            event,
        });
    }

    /// Removes and returns the next event in (time, priority, seeded-tie)
    /// order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| Scheduled {
            time: e.time,
            priority: e.priority,
            event: e.event,
        })
    }

    /// The fire time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the maximal batch of *independent* events: the longest prefix
    /// of the queue's total order whose events classify as
    /// [`Conflict::Exclusive`] with the head's class, touch
    /// pairwise-distinct nodes, and fire within the [`Ordering`] window of
    /// the head (exactly the head's time under [`Ordering::Strict`]). A
    /// [`Conflict::Solo`] head (or an empty queue) yields a batch of at most
    /// one event.
    ///
    /// The batch is returned in exact pop order, so under
    /// [`Ordering::Strict`] an interpreter that executes the batch
    /// concurrently and commits side effects in batch order reproduces the
    /// one-at-a-time schedule bit for bit — including the seeded
    /// tie-breaks, which stay inside the queue untouched. The prefix stops
    /// at the first event that fires outside the window, has a different
    /// class, is `Solo`, or repeats an already-claimed node (a stale
    /// duplicate); that event simply heads the next batch.
    pub fn pop_independent_batch<F>(&mut self, classify: F) -> Vec<Scheduled<E>>
    where
        F: Fn(&E) -> Conflict,
    {
        let Some(first) = self.pop() else {
            return Vec::new();
        };
        let time = first.time;
        let skew = self.ordering.max_skew_ns();
        let Conflict::Exclusive { class, node } = classify(&first.event) else {
            return vec![first];
        };
        let mut claimed = std::collections::HashSet::new();
        claimed.insert(node);
        let mut batch = vec![first];
        while let Some(head) = self.heap.peek() {
            // `head` follows `first` in the total order, so its time is
            // never earlier; the spread below cannot underflow.
            if head.time.0 - time.0 > skew {
                break;
            }
            match classify(&head.event) {
                Conflict::Exclusive { class: c, node } if c == class => {
                    if !claimed.insert(node) {
                        break;
                    }
                }
                _ => break,
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            batch.push(Scheduled {
                time: entry.time,
                priority: entry.priority,
                event: entry.event,
            });
        }
        batch
    }

    /// Discards all pending events (used on early stop).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_priority() {
        let mut q = EventQueue::new(7);
        q.push(SimTime(30), 0, "late");
        q.push(SimTime(10), 5, "early-low-rank");
        q.push(SimTime(10), 1, "early-high-rank");
        q.push(SimTime(20), 0, "middle");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(
            order,
            ["early-high-rank", "early-low-rank", "middle", "late"]
        );
    }

    #[test]
    fn equal_keys_replay_identically_per_seed() {
        let run = |seed: u64| {
            let mut q = EventQueue::new(seed);
            for i in 0..32 {
                q.push(SimTime(1), 0, i);
            }
            std::iter::from_fn(|| q.pop().map(|s| s.event)).collect::<Vec<i32>>()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(9), run(9));
        // Different seeds permute simultaneous events differently.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn seeded_tie_break_is_a_permutation() {
        let mut q = EventQueue::new(3);
        for i in 0..100 {
            q.push(SimTime(5), 0, i);
        }
        let mut popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        popped.sort_unstable();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    /// Encodes the engine's priority convention for batch tests.
    fn prio(class: u64, node: usize) -> u64 {
        (class << 32) | node as u64
    }

    #[test]
    fn batch_pops_simultaneous_same_class_distinct_nodes() {
        let mut q = EventQueue::new(11);
        for node in 0..4 {
            q.push(SimTime(5), prio(1, node), ("train", node));
        }
        q.push(SimTime(5), prio(2, 0), ("mix", 0)); // later class
        q.push(SimTime(9), prio(1, 9), ("train", 9)); // later time
        let batch = q.pop_independent_batch(|&(_, node)| Conflict::Exclusive { class: 1, node });
        assert_eq!(batch.len(), 4, "all four simultaneous trains batch");
        assert_eq!(
            batch.iter().map(|s| s.event.1).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "priority (node id) order is preserved"
        );
        assert_eq!(q.len(), 2, "the later class and later time stay queued");
    }

    #[test]
    fn batch_stops_at_class_boundary_and_solo_events_run_alone() {
        let mut q = EventQueue::new(0);
        q.push(SimTime(1), prio(0, 3), (0u64, 3usize)); // class 0 = solo
        q.push(SimTime(1), prio(1, 0), (1, 0));
        q.push(SimTime(1), prio(1, 1), (1, 1));
        let classify = |&(class, node): &(u64, usize)| {
            if class == 0 {
                Conflict::Solo
            } else {
                Conflict::Exclusive { class, node }
            }
        };
        let solo = q.pop_independent_batch(classify);
        assert_eq!(solo.len(), 1);
        assert_eq!(solo[0].event, (0, 3));
        let pair = q.pop_independent_batch(classify);
        assert_eq!(pair.len(), 2);
        assert!(q.pop_independent_batch(classify).is_empty());
    }

    #[test]
    fn batch_stops_at_duplicate_node() {
        // Two same-time same-class events on one node (a stale epoch
        // duplicate): the second must head its own batch, never share one.
        let mut q = EventQueue::new(3);
        q.push(SimTime(2), prio(1, 0), 'a');
        q.push(SimTime(2), prio(1, 0), 'b');
        let first = q.pop_independent_batch(|_| Conflict::Exclusive { class: 1, node: 0 });
        assert_eq!(first.len(), 1);
        let second = q.pop_independent_batch(|_| Conflict::Exclusive { class: 1, node: 0 });
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].event, second[0].event);
    }

    #[test]
    fn window_batches_span_close_fire_times() {
        // Four same-class events 10ns apart on distinct nodes: strict pops
        // four singleton batches, a 35ns window pops one batch of four.
        let fill = |q: &mut EventQueue<usize>| {
            for node in 0..4 {
                q.push(SimTime(100 + node as u64 * 10), prio(1, node), node);
            }
        };
        let classify = |&node: &usize| Conflict::Exclusive { class: 1, node };

        let mut strict = EventQueue::new(7);
        fill(&mut strict);
        assert_eq!(strict.pop_independent_batch(classify).len(), 1);

        let mut window = EventQueue::with_ordering(7, Ordering::Window { max_skew_ns: 35 });
        fill(&mut window);
        let batch = window.pop_independent_batch(classify);
        assert_eq!(batch.len(), 4, "all four fall inside the window");
        assert_eq!(
            batch.iter().map(|s| s.event).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "window batches preserve the total order"
        );
    }

    #[test]
    fn window_is_bounded_and_measured_from_the_head() {
        let classify = |&node: &usize| Conflict::Exclusive { class: 1, node };
        let mut q = EventQueue::with_ordering(7, Ordering::Window { max_skew_ns: 15 });
        q.push(SimTime(0), prio(1, 0), 0);
        q.push(SimTime(10), prio(1, 1), 1);
        // 20ns after the *head*, though only 10ns after its predecessor:
        // the spread bound is head-anchored, so this starts a new batch.
        q.push(SimTime(20), prio(1, 2), 2);
        let batch = q.pop_independent_batch(classify);
        assert_eq!(
            batch.iter().map(|s| s.event).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(q.pop_independent_batch(classify).len(), 1);
    }

    #[test]
    fn window_still_respects_class_node_and_solo_boundaries() {
        let classify = |&(class, node): &(u64, usize)| {
            if class == 0 {
                Conflict::Solo
            } else {
                Conflict::Exclusive { class, node }
            }
        };
        let window = Ordering::Window { max_skew_ns: 1_000 };
        let mut q = EventQueue::with_ordering(3, window);
        q.push(SimTime(0), prio(1, 0), (1, 0));
        q.push(SimTime(5), prio(1, 0), (1, 0)); // duplicate node
        q.push(SimTime(6), prio(1, 1), (1, 1));
        let batch = q.pop_independent_batch(classify);
        assert_eq!(batch.len(), 1, "duplicate node ends the batch");
        assert_eq!(q.pop_independent_batch(classify).len(), 2);

        let mut q = EventQueue::with_ordering(3, window);
        q.push(SimTime(0), prio(0, 0), (0, 0)); // solo
        q.push(SimTime(1), prio(1, 1), (1, 1));
        assert_eq!(
            q.pop_independent_batch(classify).len(),
            1,
            "solo runs alone"
        );

        let mut q = EventQueue::with_ordering(3, window);
        q.push(SimTime(0), prio(1, 0), (1, 0));
        q.push(SimTime(1), prio(2, 1), (2, 1)); // different class
        assert_eq!(
            q.pop_independent_batch(classify).len(),
            1,
            "class boundary ends the batch even inside the window"
        );
    }

    #[test]
    fn ordering_serde_round_trip_and_default() {
        assert_eq!(Ordering::default(), Ordering::Strict);
        for mode in [Ordering::Strict, Ordering::Window { max_skew_ns: 250 }] {
            let text = serde::json::to_string(&mode);
            let back: Ordering = serde::json::from_str(&text).unwrap();
            assert_eq!(back, mode);
        }
        assert_eq!(Ordering::Strict.max_skew_ns(), 0);
        assert_eq!(Ordering::Window { max_skew_ns: 9 }.max_skew_ns(), 9);
    }

    use proptest::prelude::*;

    proptest! {
        /// Batched popping is a pure re-grouping of the sequential pop
        /// order: flattened batches replay the one-at-a-time sequence
        /// exactly (tie-breaks included), no batch mixes times or classes,
        /// and no batch contains two events on the same node.
        #[test]
        fn batches_partition_the_sequential_order(
            seed in proptest::any::<u64>(),
            events in proptest::collection::vec(
                (0u64..4, 0u64..3, 0usize..6), 1..48),
        ) {
            let classify = |&(_, class, node): &(usize, u64, usize)| {
                if class == 0 {
                    Conflict::Solo
                } else {
                    Conflict::Exclusive { class, node }
                }
            };
            let mut plain = EventQueue::new(seed);
            let mut batched = EventQueue::new(seed);
            for (i, &(t, class, node)) in events.iter().enumerate() {
                let priority = (class << 32) | node as u64;
                plain.push(SimTime(t), priority, (i, class, node));
                batched.push(SimTime(t), priority, (i, class, node));
            }
            let sequential: Vec<_> =
                std::iter::from_fn(|| plain.pop().map(|s| s.event)).collect();
            let mut flattened = Vec::new();
            loop {
                let batch = batched.pop_independent_batch(classify);
                if batch.is_empty() {
                    break;
                }
                let time = batch[0].time;
                let head = classify(&batch[0].event);
                let mut nodes = std::collections::HashSet::new();
                for s in &batch {
                    prop_assert_eq!(s.time, time, "batch mixes fire times");
                    if batch.len() > 1 {
                        let c = classify(&s.event);
                        prop_assert!(
                            matches!((head, c), (
                                Conflict::Exclusive { class: a, .. },
                                Conflict::Exclusive { class: b, .. },
                            ) if a == b),
                            "batch mixes classes: {:?} vs {:?}", head, c
                        );
                        let (_, _, node) = s.event;
                        prop_assert!(
                            nodes.insert(node),
                            "batch contains node {} twice", node
                        );
                    }
                }
                flattened.extend(batch.into_iter().map(|s| s.event));
            }
            prop_assert_eq!(flattened, sequential);
        }

        /// Window batches are still prefixes of the total order: flattening
        /// them replays the sequential pop sequence exactly, every batch is
        /// one class on distinct nodes, and no batch spans more virtual
        /// time than the configured skew.
        #[test]
        fn window_batches_partition_order_within_skew(
            seed in proptest::any::<u64>(),
            skew in 0u64..5,
            events in proptest::collection::vec(
                (0u64..6, 0u64..3, 0usize..6), 1..48),
        ) {
            let classify = |&(_, class, node): &(usize, u64, usize)| {
                if class == 0 {
                    Conflict::Solo
                } else {
                    Conflict::Exclusive { class, node }
                }
            };
            let ordering = Ordering::Window { max_skew_ns: skew };
            let mut plain = EventQueue::with_ordering(seed, ordering);
            let mut batched = EventQueue::with_ordering(seed, ordering);
            for (i, &(t, class, node)) in events.iter().enumerate() {
                let priority = (class << 32) | node as u64;
                plain.push(SimTime(t), priority, (i, class, node));
                batched.push(SimTime(t), priority, (i, class, node));
            }
            let sequential: Vec<_> =
                std::iter::from_fn(|| plain.pop().map(|s| s.event)).collect();
            let mut flattened = Vec::new();
            loop {
                let batch = batched.pop_independent_batch(classify);
                if batch.is_empty() {
                    break;
                }
                let head_time = batch[0].time;
                let head = classify(&batch[0].event);
                let mut nodes = std::collections::HashSet::new();
                for s in &batch {
                    prop_assert!(
                        s.time.0 >= head_time.0
                            && s.time.0 - head_time.0 <= skew,
                        "batch spans {}ns > skew {}ns",
                        s.time.0 - head_time.0, skew
                    );
                    if batch.len() > 1 {
                        let c = classify(&s.event);
                        prop_assert!(
                            matches!((head, c), (
                                Conflict::Exclusive { class: a, .. },
                                Conflict::Exclusive { class: b, .. },
                            ) if a == b),
                            "batch mixes classes: {:?} vs {:?}", head, c
                        );
                        let (_, _, node) = s.event;
                        prop_assert!(
                            nodes.insert(node),
                            "batch contains node {} twice", node
                        );
                    }
                }
                flattened.extend(batch.into_iter().map(|s| s.event));
            }
            prop_assert_eq!(flattened, sequential);
        }
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::new(0);
        assert!(q.is_empty());
        q.push(SimTime(4), 0, ());
        q.push(SimTime(2), 0, ());
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.pop().is_none());
    }
}
