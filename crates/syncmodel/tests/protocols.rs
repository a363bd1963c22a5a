//! The fleet protocol checks CI relies on, as a test suite: the
//! declared protocols hold exhaustively within the configured bounds,
//! and each runtime reproduction of a `--cfg sync_mutant` ordering bug
//! is caught with a minimal failing interleaving trace.
#![cfg(feature = "model")]
// The mutant expectations invert under a sync_mutant build of
// `tagbreathe` (the declared constants ARE the weakened protocol);
// `syncmodel_check` handles both, the suite pins the shipped build.
#![cfg(not(sync_mutant))]

use tagbreathe_syncmodel::explore::{explore, random_walks, Limits, Verdict};
use tagbreathe_syncmodel::machines::{
    BarrierMachine, DrainMachine, LowWaterMachine, RingMachine, RingProtocol, WakeMachine,
};

fn ring(capacity: u64, proto: RingProtocol) -> RingMachine {
    RingMachine {
        capacity,
        messages: 3,
        words: 2,
        proto,
    }
}

#[test]
fn declared_ring_protocol_is_exhaustively_clean() {
    for capacity in [1, 2] {
        let verdict = explore(
            &ring(capacity, RingProtocol::declared()),
            &Limits::default(),
        );
        match verdict {
            Verdict::Pass { complete, states } => {
                assert!(complete, "cap {capacity}: truncated at {states} states");
            }
            Verdict::Fail { message, trace, .. } => {
                panic!("cap {capacity}: {message}\n{trace:#?}")
            }
        }
    }
}

#[test]
fn relaxed_publish_mutant_is_caught_with_minimal_trace() {
    let verdict = explore(
        &ring(1, RingProtocol::relaxed_publish_mutant()),
        &Limits::default(),
    );
    let Verdict::Fail { message, trace, .. } = verdict else {
        panic!("relaxed publish must break FIFO slot delivery: {verdict:?}");
    };
    assert!(message.contains("slot"), "{message}");
    // The minimal counterexample: 3 producer steps to publish one
    // message, the consumer observes the counter, branches into the
    // read, and both stale word reads — 8 interleaving steps.
    assert_eq!(trace.len(), 8, "{trace:#?}");
    assert!(
        trace.iter().any(|s| s.contains("publish head=1 (Relaxed)")),
        "{trace:#?}"
    );
}

#[test]
fn relaxed_observe_mutant_is_caught_with_minimal_trace() {
    let verdict = explore(
        &ring(1, RingProtocol::relaxed_observe_mutant()),
        &Limits::default(),
    );
    let Verdict::Fail { message, trace, .. } = verdict else {
        panic!("relaxed observe must break FIFO slot delivery: {verdict:?}");
    };
    assert!(message.contains("slot"), "{message}");
    assert_eq!(trace.len(), 8, "{trace:#?}");
    assert!(
        trace.iter().any(|s| s.contains("observe head=1 (Relaxed)")),
        "{trace:#?}"
    );
}

#[test]
fn epoch_barrier_declared_passes_and_mutant_fails_at_two_shards() {
    assert!(
        explore(&BarrierMachine::declared(2), &Limits::default()).passed(),
        "declared epoch barrier must hold"
    );
    let verdict = explore(
        &BarrierMachine::relaxed_publish_mutant(2),
        &Limits::default(),
    );
    let Verdict::Fail { message, .. } = verdict else {
        panic!("relaxed epoch publish must leak a stale part: {verdict:?}");
    };
    assert!(message.contains("stale"), "{message}");
}

#[test]
fn finish_drain_declared_is_quiescent_and_relaxed_stop_loses_messages() {
    assert!(
        explore(&DrainMachine::declared(1, 2), &Limits::default()).passed(),
        "declared drain must deliver every message"
    );
    let verdict = explore(&DrainMachine::relaxed_stop_mutant(1, 2), &Limits::default());
    let Verdict::Fail { message, .. } = verdict else {
        panic!("relaxed stop publish must allow an early drain exit: {verdict:?}");
    };
    assert!(message.contains("lost publication"), "{message}");
}

#[test]
fn idle_wake_declared_loses_no_wake_and_early_unpark_does() {
    for (messages, batch) in [(2, 1), (3, 2), (5, 2)] {
        match explore(&WakeMachine::declared(messages, batch), &Limits::default()) {
            Verdict::Pass { complete, states } => {
                assert!(complete, "n={messages}: truncated at {states} states");
            }
            Verdict::Fail { message, trace, .. } => {
                panic!("n={messages} batch={batch}: {message}\n{trace:#?}")
            }
        }
    }
    let verdict = explore(&WakeMachine::early_unpark_mutant(2, 1), &Limits::default());
    let Verdict::Fail { message, trace, .. } = verdict else {
        panic!("an unpark before the head publish must lose a wake: {verdict:?}");
    };
    assert!(message.contains("lost wake"), "{message}");
    // The minimal counterexample: the producer writes, unparks and
    // publishes both one-message batches (6 steps); the consumer reads a
    // stale empty head, returns from park on the pending token and takes
    // message 1 (5 steps), then finds head=1 again — all the last unpark
    // carried — and parks for good (2 steps): 13 steps.
    assert_eq!(trace.len(), 13, "{trace:#?}");
    assert_eq!(
        trace.last().map(String::as_str),
        Some("C: park, token was EMPTY: sleep"),
        "{trace:#?}"
    );
}

#[test]
fn full_ring_wait_declared_loses_no_wake_and_its_mutants_do() {
    for (capacity, messages) in [(2, 3), (2, 4)] {
        let m = LowWaterMachine::declared(capacity, messages);
        match explore(&m, &Limits::default()) {
            Verdict::Pass { complete, states } => {
                assert!(
                    complete,
                    "cap {capacity} n={messages}: truncated at {states} states"
                );
            }
            Verdict::Fail { message, trace, .. } => {
                panic!("cap {capacity} n={messages}: {message}\n{trace:#?}")
            }
        }
    }
    // The minimal counterexamples: the producer fills both slots and
    // finds the ring full (7 steps); the consumer drains it and makes its
    // empty-ring check before the announce (10 steps); the producer
    // announces and parks for good. Relaxed, its re-check still reads
    // the stale tail (3 steps); without a re-check it parks at once (2).
    for (m, steps, before_park) in [
        (
            LowWaterMachine::relaxed_handshake_mutant(2, 3),
            20,
            "P: re-check tail=0",
        ),
        (
            LowWaterMachine::unchecked_park_mutant(2, 3),
            19,
            "P: announce, wait=WAITING (AcqRel)",
        ),
    ] {
        let verdict = explore(&m, &Limits::default());
        let Verdict::Fail { message, trace, .. } = verdict else {
            panic!("{m:?} must lose a wake: {verdict:?}");
        };
        assert!(message.contains("lost wake"), "{message}");
        assert_eq!(trace.len(), steps, "{trace:#?}");
        let last: Vec<&str> = trace.iter().rev().take(2).map(String::as_str).collect();
        assert_eq!(
            last,
            ["P: park, token was EMPTY: sleep", before_park],
            "{trace:#?}"
        );
    }
}

#[test]
fn random_deep_walks_are_deterministic_and_catch_the_mutant() {
    let mutant = RingMachine {
        capacity: 4,
        messages: 8,
        words: 3,
        proto: RingProtocol::relaxed_publish_mutant(),
    };
    let a = random_walks(&mutant, 300, 400, 0xDEED);
    let b = random_walks(&mutant, 300, 400, 0xDEED);
    assert_eq!(
        a.as_ref().map(|(m, t)| (m.clone(), t.len())),
        b.as_ref().map(|(m, t)| (m.clone(), t.len())),
        "same seed must replay the same walk"
    );
    assert!(a.is_some(), "300 deep walks should stumble on the bug");

    let declared = RingMachine {
        proto: RingProtocol::declared(),
        ..mutant
    };
    assert!(
        random_walks(&declared, 100, 400, 0xDEED).is_none(),
        "declared protocol must stay clean under random walks"
    );
}
