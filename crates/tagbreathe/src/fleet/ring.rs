//! Bounded lock-free single-producer/single-consumer ring for shard feeds.
//!
//! Each fleet shard is fed over one of these rings by the router thread: one
//! producer (the router), one consumer (the shard worker). The design is the
//! classic Lamport queue with monotonically increasing head/tail sequence
//! counters, built entirely from `AtomicU64` words with no raw pointer and no
//! `unsafe`, so the ring is `Send` and `Sync` by construction; `fleet/mod.rs`
//! asserts both at compile time.
//!
//! Slots are fixed at [`SLOT_WORDS`] `u64` words: large enough for an encoded
//! [`ShardMsg`](super::msg::ShardMsg), small enough to keep a slot within one
//! or two cache lines. The producer caches the consumer's tail (and vice
//! versa) so the common-case `try_push`/`pop` touch only one shared atomic.
//!
//! # Memory ordering
//!
//! The protocol is pure publish/observe and is machine-checked twice over:
//!
//! * every ordering at an atomic call site is spelled via the named
//!   constants in [`protocol`], whose roles are declared in the
//!   `[atomics]` section of `lint.toml` and enforced statically by
//!   `tagbreathe-lint atomics`;
//! * the same constants drive the bounded model checker in
//!   `crates/syncmodel`, which explores the interleavings of a ported
//!   push/pop state machine under a store-buffer memory model.
//!
//! Slot words are written with `Relaxed` stores and published by a
//! `Release` store of `head`; the consumer `Acquire`-loads `head` before
//! reading the words, which gives the usual release/acquire
//! happens-before edge. The mirror-image protocol frees slots via `tail`.
//! Each side keeps its **own** position in a plain (non-atomic) field —
//! it is the only writer of that counter — so every remaining atomic
//! load really is a cross-thread observe and every store a publication.
//!
//! # Waiting for room
//!
//! A producer that finds the ring full parks in
//! [`RingProducer::wait_for_room`] instead of spinning. It announces
//! itself on the ring's wait word, re-checks `tail`, and parks only if
//! the ring is still full. The consumer checks the word whenever a pop
//! brings the ring down to half full (the low-water mark) and when it
//! first finds the ring empty, and unparks a waiting producer through
//! std's park token. The announce, the check, and the producer's
//! withdrawal when its re-check finds room are each a single
//! read-modify-write with [`protocol::HANDSHAKE`] (`AcqRel`). RMWs on
//! one word are totally ordered, so one of them reads the other: if the
//! check comes second it sees the announcement and wakes the producer;
//! if the announce comes second it acquires the `tail` store the check
//! released, and the re-check finds the freed slot. Either way no wake
//! is lost. A plain flag store and load on each side would need
//! `SeqCst`, which the model checker cannot check (it models `SeqCst` as
//! `AcqRel`); its `LowWaterMachine` checks this handshake instead. The
//! waiting producer's thread handle sits behind a mutex that only a
//! wait and a wake take, never a plain push or pop.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};

/// Number of `u64` words in one ring slot.
pub const SLOT_WORDS: usize = 6;

/// Named memory orderings of the ring protocol.
///
/// Three roles exist: [`PUBLISH`](protocol::PUBLISH) stores a position
/// counter to hand slots to the other side,
/// [`OBSERVE`](protocol::OBSERVE) loads the other side's counter, and
/// [`HANDSHAKE`](protocol::HANDSHAKE) is every read-modify-write on the
/// wait word. [`SLOT`](protocol::SLOT) covers the payload words, which
/// carry no synchronisation of their own (the counter edge orders them).
///
/// Building with `--cfg sync_mutant` deliberately weakens the protocol
/// (publish, observe and handshake all collapse to `Relaxed`): the
/// seeded bug that the `atomics` lint pass and the `syncmodel` bounded
/// model checker must both detect. Never enable it in production builds.
pub mod protocol {
    use std::sync::atomic::Ordering;

    /// Ordering for storing a position counter, publishing the slot
    /// words written before it.
    #[cfg(not(sync_mutant))]
    pub const PUBLISH: Ordering = Ordering::Release;
    /// Seeded ordering bug: publication no longer carries the slot writes.
    #[cfg(sync_mutant)]
    pub const PUBLISH: Ordering = Ordering::Relaxed;

    /// Ordering for loading the other side's position counter, acquiring
    /// the slot words published with it.
    #[cfg(not(sync_mutant))]
    pub const OBSERVE: Ordering = Ordering::Acquire;
    /// Seeded ordering bug: the consumer-side acquire edge is dropped.
    #[cfg(sync_mutant)]
    pub const OBSERVE: Ordering = Ordering::Relaxed;

    /// Ordering for the wait word's read-modify-writes: the producer's
    /// announce acquires the `tail` store a consumer check released, and
    /// the check releases that store.
    #[cfg(not(sync_mutant))]
    pub const HANDSHAKE: Ordering = Ordering::AcqRel;
    /// Seeded ordering bug: an announce that follows a check no longer
    /// sees the slots it freed, so the producer can park on a ring the
    /// consumer has already drained.
    #[cfg(sync_mutant)]
    pub const HANDSHAKE: Ordering = Ordering::Relaxed;

    /// Ordering for slot payload words: relaxed by design, ordered only
    /// by the publish/observe edge on the position counters.
    pub const SLOT: Ordering = Ordering::Relaxed;
}

/// Wait-word value: no producer waits for room.
const NO_WAITER: u64 = 0;
/// Wait-word value: the producer announced that it waits for room.
const WAITING: u64 = 1;

/// A cache-line-padded atomic counter, so the head and tail counters do not
/// false-share one line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PadAtomic {
    value: AtomicU64,
}

/// Shared state of a bounded SPSC ring of [`SLOT_WORDS`]-word slots.
#[derive(Debug)]
pub struct SpscRing {
    /// Slot storage: `capacity * SLOT_WORDS` atomic words.
    words: Vec<AtomicU64>,
    /// Out-of-range fallback cell for [`slot`](Self::slot), never reached
    /// by in-protocol indices.
    spare: AtomicU64,
    /// `capacity - 1`; capacity is always a power of two.
    mask: u64,
    /// Next sequence number the producer will publish (monotonic).
    head: PadAtomic,
    /// Next sequence number the consumer will free (monotonic).
    tail: PadAtomic,
    /// [`WAITING`] while the producer waits for room, else [`NO_WAITER`].
    /// Touched only by [`protocol::HANDSHAKE`] read-modify-writes.
    waiting: PadAtomic,
    /// The thread that last waited for room, for the consumer to unpark.
    waiter: Mutex<Option<Thread>>,
}

impl SpscRing {
    fn with_capacity(capacity_pow2: usize) -> Self {
        let capacity = capacity_pow2.next_power_of_two().max(2);
        let mut words = Vec::new();
        words.resize_with(capacity * SLOT_WORDS, AtomicU64::default);
        SpscRing {
            words,
            spare: AtomicU64::new(0),
            mask: (capacity as u64).saturating_sub(1),
            head: PadAtomic::default(),
            tail: PadAtomic::default(),
            waiting: PadAtomic::default(),
            waiter: Mutex::new(None),
        }
    }

    fn capacity(&self) -> u64 {
        self.mask.wrapping_add(1)
    }

    /// The waiter cell. Nothing panics while holding it, so a poisoned
    /// lock still holds a valid handle.
    fn waiter(&self) -> std::sync::MutexGuard<'_, Option<Thread>> {
        self.waiter.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn slot_base(&self, seq: u64) -> usize {
        // `seq & mask` is below capacity, so the product is in range; the
        // widening cast to usize is lossless on the supported targets.
        (seq & self.mask) as usize * SLOT_WORDS
    }

    /// The payload word at index `at`. In-protocol indices are always in
    /// range ([`slot_base`](Self::slot_base) wraps by `mask`); the spare
    /// cell keeps this total without a panic path.
    fn slot(&self, at: usize) -> &AtomicU64 {
        self.words.get(at).unwrap_or(&self.spare)
    }
}

/// Creates a connected producer/consumer pair over a fresh ring.
///
/// `capacity` is rounded up to the next power of two (minimum 2 slots).
#[must_use]
pub fn channel(capacity: usize) -> (RingProducer, RingConsumer) {
    let ring = Arc::new(SpscRing::with_capacity(capacity));
    (
        RingProducer {
            ring: Arc::clone(&ring),
            next_head: 0,
            cached_tail: 0,
        },
        RingConsumer {
            ring,
            next_tail: 0,
            cached_head: 0,
            drained: true,
        },
    )
}

/// The producer half of an SPSC ring. Not clonable: exactly one producer.
#[derive(Debug)]
pub struct RingProducer {
    ring: Arc<SpscRing>,
    /// The producer's own head position. Mirrors the last `head` value
    /// this side published; reading it never touches the shared atomic.
    next_head: u64,
    /// Last observed consumer tail; refreshed only when the ring looks full.
    cached_tail: u64,
}

impl RingProducer {
    /// Attempts to enqueue one slot. Returns `false` when the ring is full
    /// (after refreshing the cached tail), leaving the slot unconsumed.
    pub fn try_push(&mut self, slot: &[u64; SLOT_WORDS]) -> bool {
        let head = self.next_head;
        if head.wrapping_sub(self.cached_tail) >= self.ring.capacity() {
            self.cached_tail = self.ring.tail.value.load(protocol::OBSERVE);
            if head.wrapping_sub(self.cached_tail) >= self.ring.capacity() {
                return false;
            }
        }
        let base = self.ring.slot_base(head);
        for (i, &word) in slot.iter().enumerate() {
            self.ring.slot(base + i).store(word, protocol::SLOT);
        }
        self.next_head = head.wrapping_add(1);
        self.ring
            .head
            .value
            .store(self.next_head, protocol::PUBLISH);
        true
    }

    /// Waits for the consumer to free a slot, after a failed
    /// [`try_push`](Self::try_push). Announces the calling thread on the
    /// wait word, re-checks `tail`, and parks if the ring is still full;
    /// the consumer's pops unpark it at the low-water mark or on an
    /// empty ring. Returns whether it parked. A park may also end early
    /// (std permits spurious wakes), so callers retry the push in a loop.
    pub fn wait_for_room(&mut self) -> bool {
        *self.ring.waiter() = Some(thread::current());
        self.ring.waiting.value.swap(WAITING, protocol::HANDSHAKE);
        self.cached_tail = self.ring.tail.value.load(protocol::OBSERVE);
        if self.next_head.wrapping_sub(self.cached_tail) >= self.ring.capacity() {
            thread::park();
            return true;
        }
        // Room after all: withdraw. If a check already took the
        // announcement, its unpark is on the way; take it here, so it
        // cannot cut a later wait short.
        if self.ring.waiting.value.swap(NO_WAITER, protocol::HANDSHAKE) == NO_WAITER {
            thread::park();
        }
        false
    }

    /// Occupied slots from the producer's view (an upper bound: the consumer
    /// may have drained since the tail was last observed).
    #[must_use]
    pub fn depth_hint(&self) -> u64 {
        self.next_head
            .wrapping_sub(self.ring.tail.value.load(protocol::OBSERVE))
    }
}

/// The consumer half of an SPSC ring. Not clonable: exactly one consumer.
#[derive(Debug)]
pub struct RingConsumer {
    ring: Arc<SpscRing>,
    /// The consumer's own tail position. Mirrors the last `tail` value
    /// this side published; reading it never touches the shared atomic.
    next_tail: u64,
    /// Last observed producer head; refreshed only when the ring looks empty.
    cached_head: u64,
    /// The last pop found the ring empty, so a producer waiting for room
    /// has already been checked for.
    drained: bool,
}

impl RingConsumer {
    /// Dequeues one slot, or `None` when the ring is empty (after refreshing
    /// the cached head). A pop that leaves the ring half full, or the
    /// first that finds it empty, wakes a producer waiting for room.
    pub fn pop(&mut self) -> Option<[u64; SLOT_WORDS]> {
        let tail = self.next_tail;
        if tail == self.cached_head {
            self.cached_head = self.ring.head.value.load(protocol::OBSERVE);
            if tail == self.cached_head {
                if !self.drained {
                    self.drained = true;
                    self.wake_producer();
                }
                return None;
            }
        }
        self.drained = false;
        let base = self.ring.slot_base(tail);
        let mut out = [0u64; SLOT_WORDS];
        for (i, word) in out.iter_mut().enumerate() {
            *word = self.ring.slot(base + i).load(protocol::SLOT);
        }
        self.next_tail = tail.wrapping_add(1);
        self.ring
            .tail
            .value
            .store(self.next_tail, protocol::PUBLISH);
        if self.cached_head.wrapping_sub(self.next_tail) == self.ring.capacity() / 2 {
            self.wake_producer();
        }
        Some(out)
    }

    /// Takes the producer's announcement, if any, and unparks it. The
    /// read-modify-write releases the `tail` stores before it, so a
    /// producer that announces later finds the freed slots instead.
    fn wake_producer(&self) {
        if self.ring.waiting.value.swap(NO_WAITER, protocol::HANDSHAKE) == WAITING {
            if let Some(producer) = self.ring.waiter().as_ref() {
                producer.unpark();
            }
        }
    }

    /// Occupied slots from the consumer's view (a lower bound: the producer
    /// may have published since the head was last observed).
    #[must_use]
    pub fn depth_hint(&self) -> u64 {
        self.ring
            .head
            .value
            .load(protocol::OBSERVE)
            .wrapping_sub(self.next_tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_round_trip() {
        let (mut tx, mut rx) = channel(4);
        assert!(rx.pop().is_none());
        assert!(tx.try_push(&[1, 2, 3, 4, 5, 6]));
        assert_eq!(rx.pop(), Some([1, 2, 3, 4, 5, 6]));
        assert!(rx.pop().is_none());
    }

    #[test]
    fn fills_at_capacity_and_recovers() {
        let (mut tx, mut rx) = channel(4);
        for i in 0..4 {
            assert!(tx.try_push(&[i; SLOT_WORDS]), "slot {i}");
        }
        assert!(!tx.try_push(&[9; SLOT_WORDS]));
        assert_eq!(tx.depth_hint(), 4);
        assert_eq!(rx.pop(), Some([0; SLOT_WORDS]));
        assert!(tx.try_push(&[9; SLOT_WORDS]));
        assert_eq!(rx.pop(), Some([1; SLOT_WORDS]));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (mut tx, _rx) = channel(3);
        for i in 0..4 {
            assert!(tx.try_push(&[i; SLOT_WORDS]));
        }
        assert!(!tx.try_push(&[4; SLOT_WORDS]));
    }

    #[test]
    fn zero_capacity_still_yields_two_slots() {
        let (mut tx, mut rx) = channel(0);
        assert!(tx.try_push(&[1; SLOT_WORDS]));
        assert!(tx.try_push(&[2; SLOT_WORDS]));
        assert!(
            !tx.try_push(&[3; SLOT_WORDS]),
            "channel(0) rounds to 2 slots"
        );
        assert_eq!(rx.pop(), Some([1; SLOT_WORDS]));
        assert_eq!(rx.pop(), Some([2; SLOT_WORDS]));
        assert!(rx.pop().is_none());
    }

    #[test]
    fn preserves_fifo_order_across_wrap() {
        let (mut tx, mut rx) = channel(2);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..11 {
            while tx.try_push(&[next_in; SLOT_WORDS]) {
                next_in += 1;
            }
            while let Some(slot) = rx.pop() {
                assert_eq!(slot, [next_out; SLOT_WORDS]);
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
        assert!(next_out >= 11);
    }

    // The cross-thread suites assume the correct protocol; under the
    // seeded `sync_mutant` weakening their outcome is architecture
    // dependent (x86's strong model often masks the bug — which is why
    // the model checker exists).
    #[cfg(not(sync_mutant))]
    #[test]
    fn cross_thread_sequences_arrive_intact() -> Result<(), &'static str> {
        let (mut tx, mut rx) = channel(8);
        let n = 10_000u64;
        let worker = std::thread::spawn(move || {
            let mut expected = 0u64;
            while expected < n {
                if let Some(slot) = rx.pop() {
                    if slot != [expected; SLOT_WORDS] {
                        return Err("slot corrupted in transit");
                    }
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            Ok(())
        });
        for i in 0..n {
            while !tx.try_push(&[i; SLOT_WORDS]) {
                std::thread::yield_now();
            }
        }
        worker.join().map_err(|_| "consumer panicked")?
    }
}
