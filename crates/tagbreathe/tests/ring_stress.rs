//! Real-thread stress suite for the fleet's SPSC ring: one million
//! six-word messages across a producer and a consumer thread, at both a
//! pathological capacity (2 slots — maximum wrap and full/empty
//! contention) and a deep one (1024 slots), with seeded-random
//! `yield_now` injection on both sides to shake schedules around.
//!
//! The model checker (`crates/syncmodel`) explores the protocol's small
//! interleavings exhaustively; this suite is the complementary evidence
//! at scale on real hardware. Its last case stresses the full ring's
//! park/wake handshake the same way, under a timeout.
#![cfg(not(sync_mutant))]

use prng::{Rng, Xoshiro256};
use std::sync::mpsc;
use std::time::Duration;
use tagbreathe::fleet::ring::{channel, SLOT_WORDS};

/// Encodes message `seq`: distinct per-word values so torn slots and
/// cross-slot mixups are both detectable, not just lost messages.
fn slot_for(seq: u64) -> [u64; SLOT_WORDS] {
    let mut slot = [0u64; SLOT_WORDS];
    for (i, word) in slot.iter_mut().enumerate() {
        *word = seq.wrapping_mul(SLOT_WORDS as u64).wrapping_add(i as u64);
    }
    slot
}

fn stress(capacity: usize, messages: u64, seed: u64) {
    let (mut tx, mut rx) = channel(capacity);
    let producer = std::thread::spawn(move || {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut seq = 0u64;
        while seq < messages {
            if tx.try_push(&slot_for(seq)) {
                seq += 1;
            } else {
                std::thread::yield_now();
            }
            // Randomized scheduling noise: roughly 1 yield per 32 ops.
            if rng.next_u64().is_multiple_of(32) {
                std::thread::yield_now();
            }
        }
    });
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5eed);
    let mut expected = 0u64;
    while expected < messages {
        if let Some(slot) = rx.pop() {
            assert_eq!(
                slot,
                slot_for(expected),
                "message {expected} corrupted in transit (capacity {capacity})"
            );
            expected += 1;
        } else {
            std::thread::yield_now();
        }
        if rng.next_u64().is_multiple_of(32) {
            std::thread::yield_now();
        }
    }
    assert!(rx.pop().is_none(), "ring must be empty after the drain");
    producer.join().expect("producer thread panicked");
}

#[test]
fn one_million_messages_through_two_slots() {
    stress(2, 1_000_000, 0xA11CE);
}

#[test]
fn one_million_messages_through_1024_slots() {
    stress(1024, 1_000_000, 0xB0B);
}

/// Short fills with random pauses: the producer pushes bursts of up to
/// two rings' worth, parking in `wait_for_room` whenever the ring is
/// full, and sometimes pauses after a burst; the consumer pops with
/// random pauses of its own, so the producer parks often and is woken at
/// every point of a drain. Returns how many times the producer parked.
fn park_stress(capacity: usize, messages: u64, seed: u64) -> u64 {
    let (mut tx, mut rx) = channel(capacity);
    let producer = std::thread::spawn(move || {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (mut seq, mut parks) = (0u64, 0u64);
        while seq < messages {
            let burst = 1 + rng.next_u64() % (2 * capacity as u64);
            for _ in 0..burst.min(messages - seq) {
                while !tx.try_push(&slot_for(seq)) {
                    parks += u64::from(tx.wait_for_room());
                }
                seq += 1;
            }
            if rng.next_u64().is_multiple_of(4) {
                std::thread::sleep(Duration::from_micros(rng.next_u64() % 40));
            }
        }
        parks
    });
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5eed);
    let mut expected = 0u64;
    while expected < messages {
        match rx.pop() {
            Some(slot) => {
                assert_eq!(slot, slot_for(expected), "message {expected} corrupted");
                expected += 1;
            }
            None => std::thread::yield_now(),
        }
        if rng.next_u64().is_multiple_of(64) {
            std::thread::sleep(Duration::from_micros(rng.next_u64() % 60));
        }
    }
    producer.join().expect("producer thread panicked")
}

#[test]
fn a_producer_parked_on_a_full_ring_is_always_woken() {
    let mut parks = 0;
    for (capacity, seed) in [(2, 0xF111), (8, 0xF112), (64, 0xF113)] {
        // A lost wake leaves the producer parked and the consumer spinning
        // on an empty ring: the timeout turns that hang into a failure.
        let (done_tx, done) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let _ = done_tx.send(park_stress(capacity, 20_000, seed));
        });
        match done.recv_timeout(Duration::from_secs(60)) {
            Ok(n) => parks += n,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("capacity {capacity}: a parked producer was never woken")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }
        run.join().expect("stress run panicked");
    }
    assert!(
        parks > 100,
        "only {parks} parks: the stress never filled the ring"
    );
}
