//! The fleet protocols ported onto the model, micro-step by micro-step.
//!
//! Each machine mirrors the real code's control flow — the same cached
//! positions, the same refresh-on-full/refresh-on-empty branches, one
//! atomic operation per step — and spells every ordering through the
//! same `std::sync::atomic::Ordering` values the production code names:
//! [`RingProtocol::declared`] reads `tagbreathe::fleet::protocol`, so
//! the checked protocol is the shipped one by construction, and the
//! `*_mutant` constructors reproduce the `--cfg sync_mutant` weakenings
//! at runtime for CI to prove they are caught without a rebuild;
//! [`WakeMachine::early_unpark_mutant`] and
//! [`LowWaterMachine::unchecked_park_mutant`] seed a misplaced wake and a
//! missing re-check the same way.

use crate::explore::{Machine, Succ};
use crate::mem::{Loc, Mem, ModelAtomicU64};
use std::sync::atomic::Ordering;
use tagbreathe::fleet::protocol;

/// The ring's two ordering roles plus the slot-payload ordering, exactly
/// as `crates/tagbreathe/src/fleet/ring.rs` names them.
#[derive(Clone, Copy, Debug)]
pub struct RingProtocol {
    /// Ordering for storing a position counter (`protocol::PUBLISH`).
    pub publish: Ordering,
    /// Ordering for loading the other side's counter (`protocol::OBSERVE`).
    pub observe: Ordering,
    /// Ordering for slot payload words (`protocol::SLOT`).
    pub slot: Ordering,
}

impl RingProtocol {
    /// The protocol the shipped ring actually uses: the named constants
    /// from `tagbreathe::fleet::protocol`. Under `--cfg sync_mutant`
    /// those constants weaken, and this machine checks the weakened
    /// protocol automatically.
    #[must_use]
    pub fn declared() -> Self {
        RingProtocol {
            publish: protocol::PUBLISH,
            observe: protocol::OBSERVE,
            slot: protocol::SLOT,
        }
    }

    /// The `sync_mutant` publish bug, reproduced at runtime: position
    /// counters are stored `Relaxed`, so publications carry no release
    /// edge.
    #[must_use]
    pub fn relaxed_publish_mutant() -> Self {
        RingProtocol {
            publish: Ordering::Relaxed,
            observe: Ordering::Acquire,
            slot: Ordering::Relaxed,
        }
    }

    /// The `sync_mutant` observe bug, reproduced at runtime: counter
    /// loads drop their acquire edge.
    #[must_use]
    pub fn relaxed_observe_mutant() -> Self {
        RingProtocol {
            publish: Ordering::Release,
            observe: Ordering::Relaxed,
            slot: Ordering::Relaxed,
        }
    }
}

/// Location layout shared by the ring machines.
const HEAD: Loc = 0;
const TAIL: Loc = 1;

/// Producer program counter: the micro-steps of `RingProducer::try_push`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Prod {
    /// Top of `try_push`: capacity check against the cached tail,
    /// refreshing it (one `OBSERVE` load) when the ring looks full.
    CheckSpace {
        /// Messages fully published so far (the producer's `next_head`).
        sent: u64,
        /// Last observed consumer tail (`cached_tail`).
        cached_tail: u64,
    },
    /// Writing slot payload words (`SLOT` stores), one per step.
    WriteWord {
        /// As in [`Prod::CheckSpace`].
        sent: u64,
        /// As in [`Prod::CheckSpace`].
        cached_tail: u64,
        /// Next word index to write.
        word: usize,
    },
    /// The `PUBLISH` store of the advanced head counter.
    Publish {
        /// As in [`Prod::CheckSpace`].
        sent: u64,
        /// As in [`Prod::CheckSpace`].
        cached_tail: u64,
    },
    /// All messages published.
    Done,
}

/// Consumer program counter: the micro-steps of `RingConsumer::pop`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cons {
    /// Top of `pop`: emptiness check against the cached head, refreshing
    /// it (one `OBSERVE` load) when the ring looks empty.
    CheckEmpty {
        /// Messages fully consumed so far (the consumer's `next_tail`).
        got: u64,
        /// Last observed producer head (`cached_head`).
        cached_head: u64,
    },
    /// Reading slot payload words (`SLOT` loads), one per step; `seen`
    /// accumulates them for the torn/stale assertion after the last.
    ReadWord {
        /// As in [`Cons::CheckEmpty`].
        got: u64,
        /// As in [`Cons::CheckEmpty`].
        cached_head: u64,
        /// Next word index to read.
        word: usize,
        /// Words read so far from this slot.
        seen: Vec<u64>,
    },
    /// The `PUBLISH` store of the advanced tail counter, freeing the slot.
    PublishTail {
        /// As in [`Cons::CheckEmpty`].
        got: u64,
        /// As in [`Cons::CheckEmpty`].
        cached_head: u64,
    },
    /// All messages consumed.
    Done,
}

/// A thread of the ring machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RingThread {
    /// The producer (the router thread).
    P(Prod),
    /// The consumer (the shard worker).
    C(Cons),
    /// A violated assertion, with its message.
    Failed(String),
}

/// The ported SPSC ring: one producer pushing `messages` slots of
/// `words` words each through a ring of `capacity` slots, one consumer
/// asserting FIFO delivery and untorn slots.
///
/// Message `k` (1-based) fills every word of its slot with `k`, so the
/// consumer's assertion distinguishes a torn slot (words differ) from a
/// stale or reordered read (words agree on the wrong value).
#[derive(Clone, Copy, Debug)]
pub struct RingMachine {
    /// Ring capacity in slots (the model allows 1; the real ring
    /// rounds up to 2).
    pub capacity: u64,
    /// Messages to push end to end.
    pub messages: u64,
    /// Payload words per slot (the real ring has 6; 2 suffices to
    /// model tearing).
    pub words: usize,
    /// The ordering protocol under test.
    pub proto: RingProtocol,
}

impl RingMachine {
    fn slot_loc(&self, seq: u64, word: usize) -> Loc {
        2 + (seq % self.capacity) as usize * self.words + word
    }

    fn head(&self) -> ModelAtomicU64 {
        ModelAtomicU64::at(HEAD)
    }

    fn tail(&self) -> ModelAtomicU64 {
        ModelAtomicU64::at(TAIL)
    }

    fn step_prod(&self, tid: usize, p: &Prod, mem: &Mem) -> Vec<Succ<RingThread>> {
        let proto = self.proto;
        match *p {
            Prod::CheckSpace { sent, cached_tail } => {
                if sent == self.messages {
                    return vec![Succ {
                        thread: RingThread::P(Prod::Done),
                        mem: mem.clone(),
                        label: "P: done".to_string(),
                    }];
                }
                if sent.wrapping_sub(cached_tail) < self.capacity {
                    return vec![Succ {
                        thread: RingThread::P(Prod::WriteWord {
                            sent,
                            cached_tail,
                            word: 0,
                        }),
                        mem: mem.clone(),
                        label: format!("P: slot {} free", sent % self.capacity),
                    }];
                }
                self.tail()
                    .load(mem, tid, proto.observe)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: RingThread::P(Prod::CheckSpace {
                            sent,
                            cached_tail: v,
                        }),
                        mem: next,
                        label: format!("P: observe tail={v} ({:?})", proto.observe),
                    })
                    .collect()
            }
            Prod::WriteWord {
                sent,
                cached_tail,
                word,
            } => {
                let value = sent + 1;
                let next = mem.store(tid, self.slot_loc(sent, word), value, proto.slot);
                let thread = if word + 1 < self.words {
                    Prod::WriteWord {
                        sent,
                        cached_tail,
                        word: word + 1,
                    }
                } else {
                    Prod::Publish { sent, cached_tail }
                };
                vec![Succ {
                    thread: RingThread::P(thread),
                    mem: next,
                    label: format!(
                        "P: write slot[{}][{word}]={value} ({:?})",
                        sent % self.capacity,
                        proto.slot
                    ),
                }]
            }
            Prod::Publish { sent, cached_tail } => {
                let next = self.head().store(mem, tid, sent + 1, proto.publish);
                vec![Succ {
                    thread: RingThread::P(Prod::CheckSpace {
                        sent: sent + 1,
                        cached_tail,
                    }),
                    mem: next,
                    label: format!("P: publish head={} ({:?})", sent + 1, proto.publish),
                }]
            }
            Prod::Done => Vec::new(),
        }
    }

    fn step_cons(&self, tid: usize, c: &Cons, mem: &Mem) -> Vec<Succ<RingThread>> {
        let proto = self.proto;
        match c {
            Cons::CheckEmpty { got, cached_head } => {
                let (got, cached_head) = (*got, *cached_head);
                if got == self.messages {
                    return vec![Succ {
                        thread: RingThread::C(Cons::Done),
                        mem: mem.clone(),
                        label: "C: done".to_string(),
                    }];
                }
                if got != cached_head {
                    return vec![Succ {
                        thread: RingThread::C(Cons::ReadWord {
                            got,
                            cached_head,
                            word: 0,
                            seen: Vec::new(),
                        }),
                        mem: mem.clone(),
                        label: format!("C: slot {} pending", got % self.capacity),
                    }];
                }
                self.head()
                    .load(mem, tid, proto.observe)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: RingThread::C(Cons::CheckEmpty {
                            got,
                            cached_head: v,
                        }),
                        mem: next,
                        label: format!("C: observe head={v} ({:?})", proto.observe),
                    })
                    .collect()
            }
            Cons::ReadWord {
                got,
                cached_head,
                word,
                seen,
            } => {
                let (got, cached_head, word) = (*got, *cached_head, *word);
                let expected = got + 1;
                mem.loads(tid, self.slot_loc(got, word), proto.slot)
                    .into_iter()
                    .map(|(v, next)| {
                        let mut seen = seen.clone();
                        seen.push(v);
                        let label = format!(
                            "C: read slot[{}][{word}] -> {v} ({:?})",
                            got % self.capacity,
                            proto.slot
                        );
                        let thread = if seen.len() < self.words {
                            RingThread::C(Cons::ReadWord {
                                got,
                                cached_head,
                                word: word + 1,
                                seen,
                            })
                        } else if seen.iter().any(|&w| w != expected) {
                            let kind = if seen.windows(2).any(|w| w.first() != w.last()) {
                                "torn slot"
                            } else {
                                "stale slot"
                            };
                            RingThread::Failed(format!(
                                "{kind}: message {expected} read as {seen:?}"
                            ))
                        } else {
                            RingThread::C(Cons::PublishTail { got, cached_head })
                        };
                        Succ {
                            thread,
                            mem: next,
                            label,
                        }
                    })
                    .collect()
            }
            Cons::PublishTail { got, cached_head } => {
                let (got, cached_head) = (*got, *cached_head);
                let next = self.tail().store(mem, tid, got + 1, proto.publish);
                vec![Succ {
                    thread: RingThread::C(Cons::CheckEmpty {
                        got: got + 1,
                        cached_head,
                    }),
                    mem: next,
                    label: format!("C: publish tail={} ({:?})", got + 1, proto.publish),
                }]
            }
            Cons::Done => Vec::new(),
        }
    }
}

impl Machine for RingMachine {
    type Thread = RingThread;

    fn locs(&self) -> usize {
        2 + self.capacity as usize * self.words
    }

    fn init(&self) -> Vec<RingThread> {
        vec![
            RingThread::P(Prod::CheckSpace {
                sent: 0,
                cached_tail: 0,
            }),
            RingThread::C(Cons::CheckEmpty {
                got: 0,
                cached_head: 0,
            }),
        ]
    }

    fn step(&self, tid: usize, thread: &RingThread, mem: &Mem) -> Vec<Succ<RingThread>> {
        match thread {
            RingThread::P(p) => self.step_prod(tid, p, mem),
            RingThread::C(c) => self.step_cons(tid, c, mem),
            RingThread::Failed(_) => Vec::new(),
        }
    }

    fn failure(&self, threads: &[RingThread]) -> Option<String> {
        threads.iter().find_map(|t| match t {
            RingThread::Failed(msg) => Some(msg.clone()),
            _ => None,
        })
    }

    fn final_check(&self, threads: &[RingThread], _mem: &Mem) -> Result<(), String> {
        let done = threads
            .iter()
            .all(|t| matches!(t, RingThread::P(Prod::Done) | RingThread::C(Cons::Done)));
        if done {
            Ok(())
        } else {
            Err(format!("terminal state with live threads: {threads:?}"))
        }
    }
}

/// The epoch all-parts barrier: each shard writes its snapshot part,
/// then publishes its epoch counter; the coordinator observes every
/// epoch before reading the parts, asserting none is stale.
#[derive(Clone, Copy, Debug)]
pub struct BarrierMachine {
    /// Number of shards (coordinator is one extra thread).
    pub shards: usize,
    /// Ordering of the shards' epoch stores.
    pub publish: Ordering,
    /// Ordering of the coordinator's epoch loads.
    pub observe: Ordering,
}

impl BarrierMachine {
    /// The declared protocol: epoch counters are publish/observe, the
    /// same roles the ring counters play.
    #[must_use]
    pub fn declared(shards: usize) -> Self {
        BarrierMachine {
            shards,
            publish: protocol::PUBLISH,
            observe: protocol::OBSERVE,
        }
    }

    /// The runtime mutant: relaxed epoch publication.
    #[must_use]
    pub fn relaxed_publish_mutant(shards: usize) -> Self {
        BarrierMachine {
            shards,
            publish: Ordering::Relaxed,
            observe: Ordering::Acquire,
        }
    }

    fn data_loc(&self, shard: usize) -> Loc {
        shard
    }

    fn epoch_loc(&self, shard: usize) -> Loc {
        self.shards + shard
    }
}

/// A thread of the barrier machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BarrierThread {
    /// Shard `idx` about to write its part.
    WritePart {
        /// Shard index.
        idx: usize,
    },
    /// Shard `idx` about to publish its epoch.
    PublishEpoch {
        /// Shard index.
        idx: usize,
    },
    /// Coordinator waiting for shard `idx` to reach the epoch.
    AwaitEpoch {
        /// Next shard whose epoch to observe.
        idx: usize,
    },
    /// Coordinator reading part `idx` after the barrier.
    ReadPart {
        /// Next part to read.
        idx: usize,
    },
    /// Thread finished.
    Done,
    /// A violated assertion, with its message.
    Failed(String),
}

impl Machine for BarrierMachine {
    type Thread = BarrierThread;

    fn locs(&self) -> usize {
        2 * self.shards
    }

    fn init(&self) -> Vec<BarrierThread> {
        let mut threads: Vec<BarrierThread> = (0..self.shards)
            .map(|idx| BarrierThread::WritePart { idx })
            .collect();
        threads.push(BarrierThread::AwaitEpoch { idx: 0 });
        threads
    }

    fn step(&self, tid: usize, thread: &BarrierThread, mem: &Mem) -> Vec<Succ<BarrierThread>> {
        match *thread {
            BarrierThread::WritePart { idx } => vec![Succ {
                thread: BarrierThread::PublishEpoch { idx },
                mem: mem.store(tid, self.data_loc(idx), 1, Ordering::Relaxed),
                label: format!("S{idx}: write part (Relaxed)"),
            }],
            BarrierThread::PublishEpoch { idx } => vec![Succ {
                thread: BarrierThread::Done,
                mem: mem.store(tid, self.epoch_loc(idx), 1, self.publish),
                label: format!("S{idx}: publish epoch=1 ({:?})", self.publish),
            }],
            BarrierThread::AwaitEpoch { idx } => mem
                .loads(tid, self.epoch_loc(idx), self.observe)
                .into_iter()
                .map(|(v, next)| {
                    let thread = if v >= 1 {
                        if idx + 1 < self.shards {
                            BarrierThread::AwaitEpoch { idx: idx + 1 }
                        } else {
                            BarrierThread::ReadPart { idx: 0 }
                        }
                    } else {
                        BarrierThread::AwaitEpoch { idx }
                    };
                    Succ {
                        thread,
                        mem: next,
                        label: format!("M: observe epoch[{idx}]={v} ({:?})", self.observe),
                    }
                })
                .collect(),
            BarrierThread::ReadPart { idx } => mem
                .loads(tid, self.data_loc(idx), Ordering::Relaxed)
                .into_iter()
                .map(|(v, next)| {
                    let thread = if v == 1 {
                        if idx + 1 < self.shards {
                            BarrierThread::ReadPart { idx: idx + 1 }
                        } else {
                            BarrierThread::Done
                        }
                    } else {
                        BarrierThread::Failed(format!(
                            "all-parts barrier passed but part {idx} is stale (read {v})"
                        ))
                    };
                    Succ {
                        thread,
                        mem: next,
                        label: format!("M: read part[{idx}] -> {v} (Relaxed)"),
                    }
                })
                .collect(),
            BarrierThread::Done | BarrierThread::Failed(_) => Vec::new(),
        }
    }

    fn failure(&self, threads: &[BarrierThread]) -> Option<String> {
        threads.iter().find_map(|t| match t {
            BarrierThread::Failed(msg) => Some(msg.clone()),
            _ => None,
        })
    }

    fn final_check(&self, _threads: &[BarrierThread], _mem: &Mem) -> Result<(), String> {
        Ok(())
    }
}

/// The engine's finish drain: the producer pushes its last messages and
/// publishes a stop flag; the consumer, once it observes the flag, must
/// drain the ring to empty without losing a publication.
///
/// One-word slots (payload tearing is [`RingMachine`]'s job); the
/// property here is quiescence — `final_check` fails if the consumer
/// exits with messages undelivered.
#[derive(Clone, Copy, Debug)]
pub struct DrainMachine {
    /// Ring capacity in slots.
    pub capacity: u64,
    /// Messages pushed before the stop flag.
    pub messages: u64,
    /// Ring ordering protocol.
    pub ring: RingProtocol,
    /// Ordering of the producer's stop-flag store.
    pub stop_publish: Ordering,
    /// Ordering of the consumer's stop-flag loads.
    pub stop_observe: Ordering,
}

impl DrainMachine {
    /// The declared protocol: ring and stop flag both publish/observe.
    #[must_use]
    pub fn declared(capacity: u64, messages: u64) -> Self {
        DrainMachine {
            capacity,
            messages,
            ring: RingProtocol::declared(),
            stop_publish: protocol::PUBLISH,
            stop_observe: protocol::OBSERVE,
        }
    }

    /// The runtime mutant: the stop flag is published `Relaxed`, so
    /// observing it no longer proves the final head publication is
    /// visible — the drain can exit early and lose messages.
    #[must_use]
    pub fn relaxed_stop_mutant(capacity: u64, messages: u64) -> Self {
        DrainMachine {
            capacity,
            messages,
            ring: RingProtocol::declared(),
            stop_publish: Ordering::Relaxed,
            stop_observe: protocol::OBSERVE,
        }
    }

    fn slot_loc(&self, seq: u64) -> Loc {
        3 + (seq % self.capacity) as usize
    }
}

/// Stop-flag location of the drain machine (after head and tail).
const STOP: Loc = 2;

/// A thread of the drain machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum DrainThread {
    /// Producer pushing message `sent + 1` (micro-steps as in the ring).
    Push {
        /// Messages fully published so far.
        sent: u64,
        /// Last observed consumer tail.
        cached_tail: u64,
        /// 0 = capacity check, 1 = slot write, 2 = head publish.
        pc: u8,
    },
    /// Producer publishing the stop flag.
    PublishStop,
    /// Consumer polling: pop, and check the stop flag when empty.
    Poll {
        /// Messages fully consumed so far.
        got: u64,
        /// Last observed producer head.
        cached_head: u64,
        /// Whether the stop flag has been observed (drain mode).
        stopping: bool,
    },
    /// Consumer reading the pending slot, then publishing tail.
    TakeSlot {
        /// As in [`DrainThread::Poll`].
        got: u64,
        /// As in [`DrainThread::Poll`].
        cached_head: u64,
        /// As in [`DrainThread::Poll`].
        stopping: bool,
        /// Whether the slot value has been read (tail publish pending).
        read: bool,
    },
    /// Consumer exited its drain loop having consumed `got` messages.
    Exited {
        /// Messages consumed when the loop exited.
        got: u64,
    },
    /// Producer finished.
    Done,
    /// A violated assertion, with its message.
    Failed(String),
}

impl Machine for DrainMachine {
    type Thread = DrainThread;

    fn locs(&self) -> usize {
        3 + self.capacity as usize
    }

    fn init(&self) -> Vec<DrainThread> {
        vec![
            DrainThread::Push {
                sent: 0,
                cached_tail: 0,
                pc: 0,
            },
            DrainThread::Poll {
                got: 0,
                cached_head: 0,
                stopping: false,
            },
        ]
    }

    #[allow(clippy::too_many_lines)]
    fn step(&self, tid: usize, thread: &DrainThread, mem: &Mem) -> Vec<Succ<DrainThread>> {
        match *thread {
            DrainThread::Push {
                sent,
                cached_tail,
                pc,
            } => match pc {
                0 => {
                    if sent == self.messages {
                        return vec![Succ {
                            thread: DrainThread::PublishStop,
                            mem: mem.clone(),
                            label: "P: all pushed".to_string(),
                        }];
                    }
                    if sent.wrapping_sub(cached_tail) < self.capacity {
                        return vec![Succ {
                            thread: DrainThread::Push {
                                sent,
                                cached_tail,
                                pc: 1,
                            },
                            mem: mem.clone(),
                            label: "P: slot free".to_string(),
                        }];
                    }
                    mem.loads(tid, TAIL, self.ring.observe)
                        .into_iter()
                        .map(|(v, next)| Succ {
                            thread: DrainThread::Push {
                                sent,
                                cached_tail: v,
                                pc: 0,
                            },
                            mem: next,
                            label: format!("P: observe tail={v}"),
                        })
                        .collect()
                }
                1 => vec![Succ {
                    thread: DrainThread::Push {
                        sent,
                        cached_tail,
                        pc: 2,
                    },
                    mem: mem.store(tid, self.slot_loc(sent), sent + 1, self.ring.slot),
                    label: format!("P: write slot={}", sent + 1),
                }],
                _ => vec![Succ {
                    thread: DrainThread::Push {
                        sent: sent + 1,
                        cached_tail,
                        pc: 0,
                    },
                    mem: mem.store(tid, HEAD, sent + 1, self.ring.publish),
                    label: format!("P: publish head={} ({:?})", sent + 1, self.ring.publish),
                }],
            },
            DrainThread::PublishStop => vec![Succ {
                thread: DrainThread::Done,
                mem: mem.store(tid, STOP, 1, self.stop_publish),
                label: format!("P: publish stop=1 ({:?})", self.stop_publish),
            }],
            DrainThread::Poll {
                got,
                cached_head,
                stopping,
            } => {
                if got != cached_head {
                    return vec![Succ {
                        thread: DrainThread::TakeSlot {
                            got,
                            cached_head,
                            stopping,
                            read: false,
                        },
                        mem: mem.clone(),
                        label: "C: slot pending".to_string(),
                    }];
                }
                // Ring looks empty: refresh the head; on a confirmed
                // empty, a stopping consumer exits, a running one checks
                // the stop flag.
                let mut succs: Vec<Succ<DrainThread>> = mem
                    .loads(tid, HEAD, self.ring.observe)
                    .into_iter()
                    .map(|(v, next)| {
                        let thread = if v == got && stopping {
                            DrainThread::Exited { got }
                        } else {
                            DrainThread::Poll {
                                got,
                                cached_head: v,
                                stopping,
                            }
                        };
                        Succ {
                            thread,
                            mem: next,
                            label: format!("C: observe head={v} ({:?})", self.ring.observe),
                        }
                    })
                    .collect();
                if !stopping {
                    succs.extend(mem.loads(tid, STOP, self.stop_observe).into_iter().map(
                        |(v, next)| Succ {
                            thread: DrainThread::Poll {
                                got,
                                cached_head,
                                stopping: v == 1,
                            },
                            mem: next,
                            label: format!("C: observe stop={v} ({:?})", self.stop_observe),
                        },
                    ));
                }
                succs
            }
            DrainThread::TakeSlot {
                got,
                cached_head,
                stopping,
                read,
            } => {
                if read {
                    return vec![Succ {
                        thread: DrainThread::Poll {
                            got: got + 1,
                            cached_head,
                            stopping,
                        },
                        mem: mem.store(tid, TAIL, got + 1, self.ring.publish),
                        label: format!("C: publish tail={}", got + 1),
                    }];
                }
                let expected = got + 1;
                mem.loads(tid, self.slot_loc(got), self.ring.slot)
                    .into_iter()
                    .map(|(v, next)| {
                        let thread = if v == expected {
                            DrainThread::TakeSlot {
                                got,
                                cached_head,
                                stopping,
                                read: true,
                            }
                        } else {
                            DrainThread::Failed(format!(
                                "stale slot during drain: message {expected} read as {v}"
                            ))
                        };
                        Succ {
                            thread,
                            mem: next,
                            label: format!("C: read slot -> {v}"),
                        }
                    })
                    .collect()
            }
            DrainThread::Exited { .. } | DrainThread::Done | DrainThread::Failed(_) => Vec::new(),
        }
    }

    fn failure(&self, threads: &[DrainThread]) -> Option<String> {
        threads.iter().find_map(|t| match t {
            DrainThread::Failed(msg) => Some(msg.clone()),
            _ => None,
        })
    }

    fn final_check(&self, threads: &[DrainThread], _mem: &Mem) -> Result<(), String> {
        for t in threads {
            if let DrainThread::Exited { got } = t {
                if *got != self.messages {
                    return Err(format!(
                        "lost publication: drain exited with {got} of {} messages",
                        self.messages
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Park-token location of the wake machine (after the head counter).
const TOKEN: Loc = 1;
/// Park-token value with no wake pending, as std's parker names it.
const EMPTY: u64 = 0;
/// Park-token value once `unpark` has run.
const NOTIFIED: u64 = 1;

/// The idle handshake between the router and a shard worker that sleeps
/// on its empty ring (`fleet::Threaded`): the consumer pops until the
/// ring is empty, then parks; the producer publishes its messages in
/// batches and unparks the consumer after each batch.
///
/// std's park token is one location. `unpark` is a read-modify-write to
/// `NOTIFIED` with `Release`; `park` is a read-modify-write to `EMPTY`
/// with `Acquire` that returns at once if it read `NOTIFIED`, and
/// otherwise leaves the thread parked until the token is `NOTIFIED`
/// again. `final_check` fails on a lost wake: a terminal state whose
/// consumer is parked with messages still in the ring.
///
/// The ring holds every message (the producer's wait on a full ring is
/// [`LowWaterMachine`]'s subject; the wake of the worker before that
/// wait is pinned by the fleet's unit tests), so it has no tail counter.
#[derive(Clone, Copy, Debug)]
pub struct WakeMachine {
    /// Messages pushed end to end.
    pub messages: u64,
    /// Messages per batch; the producer unparks after each batch.
    pub batch: u64,
    /// Ring ordering protocol.
    pub ring: RingProtocol,
    /// Unpark before the batch's last head publish instead of after it.
    pub early_unpark: bool,
}

impl WakeMachine {
    /// The shipped handshake: unpark once the batch is published.
    #[must_use]
    pub fn declared(messages: u64, batch: u64) -> Self {
        WakeMachine {
            messages,
            batch,
            ring: RingProtocol::declared(),
            early_unpark: false,
        }
    }

    /// The runtime mutant: the producer unparks before the batch's last
    /// head publish, so the woken consumer can find the ring still empty,
    /// park again, and never see the batch's last message.
    #[must_use]
    pub fn early_unpark_mutant(messages: u64, batch: u64) -> Self {
        WakeMachine {
            early_unpark: true,
            ..WakeMachine::declared(messages, batch)
        }
    }

    fn slot_loc(&self, seq: u64) -> Loc {
        2 + seq as usize
    }

    /// Whether message `seq` (0-based) ends a batch.
    fn ends_batch(&self, seq: u64) -> bool {
        (seq + 1).is_multiple_of(self.batch) || seq + 1 == self.messages
    }

    /// Where the producer goes once message `seq` is published (and the
    /// consumer woken, if its batch ends).
    fn after_message(&self, seq: u64) -> WakeThread {
        if seq + 1 == self.messages {
            WakeThread::Done
        } else {
            WakeThread::Write { seq: seq + 1 }
        }
    }
}

/// A thread of the wake machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum WakeThread {
    /// Producer writing the slot of message `seq` (0-based).
    Write {
        /// Message index.
        seq: u64,
    },
    /// Producer publishing `head = seq + 1`.
    Publish {
        /// Message index.
        seq: u64,
    },
    /// Producer unparking the consumer at the end of the batch holding
    /// message `seq`.
    Unpark {
        /// Message index.
        seq: u64,
        /// Whether the message's head publish has happened.
        published: bool,
    },
    /// Producer finished.
    Done,
    /// Consumer at the top of its loop: take the next slot if the cached
    /// head is ahead, else refresh the head and park on a confirmed empty.
    Poll {
        /// Messages consumed so far.
        got: u64,
        /// Last observed producer head.
        cached_head: u64,
    },
    /// Consumer reading slot `got`.
    Take {
        /// As in [`WakeThread::Poll`].
        got: u64,
        /// As in [`WakeThread::Poll`].
        cached_head: u64,
    },
    /// Consumer found the ring empty and is about to park.
    Park {
        /// As in [`WakeThread::Poll`].
        got: u64,
    },
    /// Consumer parked; steps again only once the token is `NOTIFIED`.
    Parked {
        /// As in [`WakeThread::Poll`].
        got: u64,
    },
    /// A violated assertion, with its message.
    Failed(String),
}

impl Machine for WakeMachine {
    type Thread = WakeThread;

    fn locs(&self) -> usize {
        2 + self.messages as usize
    }

    fn init(&self) -> Vec<WakeThread> {
        vec![
            WakeThread::Write { seq: 0 },
            WakeThread::Poll {
                got: 0,
                cached_head: 0,
            },
        ]
    }

    fn step(&self, tid: usize, thread: &WakeThread, mem: &Mem) -> Vec<Succ<WakeThread>> {
        let unpark = |seq: u64, published: bool| WakeThread::Unpark { seq, published };
        match *thread {
            WakeThread::Write { seq } => vec![Succ {
                thread: if self.early_unpark && self.ends_batch(seq) {
                    unpark(seq, false)
                } else {
                    WakeThread::Publish { seq }
                },
                mem: mem.store(tid, self.slot_loc(seq), seq + 1, self.ring.slot),
                label: format!("P: write slot[{seq}]={}", seq + 1),
            }],
            WakeThread::Publish { seq } => vec![Succ {
                thread: if !self.early_unpark && self.ends_batch(seq) {
                    unpark(seq, true)
                } else {
                    self.after_message(seq)
                },
                mem: mem.store(tid, HEAD, seq + 1, self.ring.publish),
                label: format!("P: publish head={} ({:?})", seq + 1, self.ring.publish),
            }],
            WakeThread::Unpark { seq, published } => {
                let (_, next) = mem.rmw(tid, TOKEN, |_| NOTIFIED, Ordering::Release);
                vec![Succ {
                    thread: if published {
                        self.after_message(seq)
                    } else {
                        WakeThread::Publish { seq }
                    },
                    mem: next,
                    label: "P: unpark, token=NOTIFIED (Release)".to_string(),
                }]
            }
            WakeThread::Poll { got, cached_head } => {
                if got != cached_head {
                    return vec![Succ {
                        thread: WakeThread::Take { got, cached_head },
                        mem: mem.clone(),
                        label: format!("C: slot {got} pending"),
                    }];
                }
                mem.loads(tid, HEAD, self.ring.observe)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: if v == got {
                            WakeThread::Park { got }
                        } else {
                            WakeThread::Poll {
                                got,
                                cached_head: v,
                            }
                        },
                        mem: next,
                        label: format!("C: observe head={v} ({:?})", self.ring.observe),
                    })
                    .collect()
            }
            WakeThread::Take { got, cached_head } => {
                let expected = got + 1;
                mem.loads(tid, self.slot_loc(got), self.ring.slot)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: if v == expected {
                            WakeThread::Poll {
                                got: got + 1,
                                cached_head,
                            }
                        } else {
                            WakeThread::Failed(format!(
                                "stale slot: message {expected} read as {v}"
                            ))
                        },
                        mem: next,
                        label: format!("C: read slot[{got}] -> {v}"),
                    })
                    .collect()
            }
            WakeThread::Park { got } => {
                let (token, next) = mem.rmw(tid, TOKEN, |_| EMPTY, Ordering::Acquire);
                let (thread, label) = if token == NOTIFIED {
                    let thread = WakeThread::Poll {
                        got,
                        cached_head: got,
                    };
                    (thread, "C: park, token was NOTIFIED: return (Acquire)")
                } else {
                    (
                        WakeThread::Parked { got },
                        "C: park, token was EMPTY: sleep",
                    )
                };
                vec![Succ {
                    thread,
                    mem: next,
                    label: label.to_string(),
                }]
            }
            WakeThread::Parked { got } => {
                let (token, next) = mem.rmw(tid, TOKEN, |_| EMPTY, Ordering::Acquire);
                if token != NOTIFIED {
                    return Vec::new();
                }
                vec![Succ {
                    thread: WakeThread::Poll {
                        got,
                        cached_head: got,
                    },
                    mem: next,
                    label: "C: woken, token=EMPTY (Acquire)".to_string(),
                }]
            }
            WakeThread::Done | WakeThread::Failed(_) => Vec::new(),
        }
    }

    fn failure(&self, threads: &[WakeThread]) -> Option<String> {
        threads.iter().find_map(|t| match t {
            WakeThread::Failed(msg) => Some(msg.clone()),
            _ => None,
        })
    }

    fn final_check(&self, threads: &[WakeThread], _mem: &Mem) -> Result<(), String> {
        for t in threads {
            match t {
                WakeThread::Parked { got } if *got < self.messages => {
                    return Err(format!(
                        "lost wake: consumer parked with {} of {} messages still in the ring",
                        self.messages - got,
                        self.messages
                    ));
                }
                WakeThread::Parked { .. } | WakeThread::Done => {}
                other => return Err(format!("terminal state with a live thread: {other:?}")),
            }
        }
        Ok(())
    }
}

/// Wait-word location of the low-water machine (after head and tail).
const WAIT: Loc = 2;
/// The producer's park-token location of the low-water machine.
const PRODUCER_TOKEN: Loc = 3;
/// Wait-word value with no producer waiting for room.
const NO_WAITER: u64 = 0;
/// Wait-word value once the producer has announced that it waits.
const WAITING: u64 = 1;

/// The full-ring handshake between the router and a shard worker
/// (`RingProducer::wait_for_room` and `RingConsumer::pop`): a producer
/// that finds the ring full announces itself on the wait word, re-checks
/// the tail, and parks if the ring is still full; if the re-check finds
/// room it withdraws, and takes the wake a check already claimed. The
/// consumer checks the word when a pop leaves the ring half full and
/// when it first finds the ring empty, and unparks a waiting producer.
/// The announce, the withdraw and the check are read-modify-writes with
/// the `HANDSHAKE` ordering; the producer's park token is modelled as in
/// [`WakeMachine`].
///
/// The consumer's own idle park is [`WakeMachine`]'s subject; here an
/// idle consumer simply blocks until it can see a newer head.
/// `final_check` fails on a lost wake: a terminal state whose producer is
/// parked with messages still to send.
#[derive(Clone, Copy, Debug)]
pub struct LowWaterMachine {
    /// Ring capacity in slots (the low-water mark is half of it).
    pub capacity: u64,
    /// Messages pushed end to end.
    pub messages: u64,
    /// Ring ordering protocol.
    pub ring: RingProtocol,
    /// Ordering of every read-modify-write on the wait word.
    pub handshake: Ordering,
    /// Whether the producer re-checks the tail after its announce.
    pub recheck: bool,
}

impl LowWaterMachine {
    /// The shipped handshake: the named constants of
    /// `tagbreathe::fleet::protocol`, `HANDSHAKE` included, so a
    /// `--cfg sync_mutant` build checks its weakened handshake here.
    #[must_use]
    pub fn declared(capacity: u64, messages: u64) -> Self {
        LowWaterMachine {
            capacity,
            messages,
            ring: RingProtocol::declared(),
            handshake: protocol::HANDSHAKE,
            recheck: true,
        }
    }

    /// The `sync_mutant` handshake bug, reproduced at runtime: the
    /// read-modify-writes are `Relaxed`, so an announce that follows the
    /// consumer's last check can re-check a stale tail and park for good.
    #[must_use]
    pub fn relaxed_handshake_mutant(capacity: u64, messages: u64) -> Self {
        LowWaterMachine {
            handshake: Ordering::Relaxed,
            ..LowWaterMachine::declared(capacity, messages)
        }
    }

    /// A seeded lost wake: the producer parks right after its announce,
    /// without re-checking the tail, so a drain whose checks all came
    /// before the announce leaves it parked.
    #[must_use]
    pub fn unchecked_park_mutant(capacity: u64, messages: u64) -> Self {
        LowWaterMachine {
            recheck: false,
            ..LowWaterMachine::declared(capacity, messages)
        }
    }

    fn slot_loc(&self, seq: u64) -> Loc {
        4 + (seq % self.capacity) as usize
    }

    fn full(&self, seq: u64, cached_tail: u64) -> bool {
        seq.wrapping_sub(cached_tail) >= self.capacity
    }

    /// Where the consumer goes after a check at `got`: the idle wait if
    /// the check was the empty ring's, else back to popping.
    fn after_check(got: u64, cached_head: u64, idle: bool) -> LowWaterThread {
        if idle {
            LowWaterThread::Idle { got }
        } else {
            LowWaterThread::Poll {
                got,
                cached_head,
                drained: false,
            }
        }
    }
}

/// A thread of the low-water machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LowWaterThread {
    /// Producer in `try_push` of message `seq` (0-based).
    Push {
        /// Message index.
        seq: u64,
        /// Last observed consumer tail.
        cached_tail: u64,
        /// 0 = capacity check, 1 = slot write, 2 = head publish.
        pc: u8,
    },
    /// Producer announcing on the wait word.
    Announce {
        /// Message index.
        seq: u64,
        /// As in [`LowWaterThread::Push`].
        cached_tail: u64,
    },
    /// Producer re-checking the tail after its announce.
    Recheck {
        /// Message index.
        seq: u64,
    },
    /// Producer withdrawing its announce: the re-check found room.
    Withdraw {
        /// Message index.
        seq: u64,
        /// As in [`LowWaterThread::Push`].
        cached_tail: u64,
    },
    /// Producer about to park.
    Park {
        /// Message index.
        seq: u64,
        /// As in [`LowWaterThread::Push`].
        cached_tail: u64,
    },
    /// Producer parked; steps again only once its token is `NOTIFIED`.
    Parked {
        /// Message index.
        seq: u64,
        /// As in [`LowWaterThread::Push`].
        cached_tail: u64,
    },
    /// Producer finished.
    Done,
    /// Consumer at the top of `pop`.
    Poll {
        /// Messages consumed so far.
        got: u64,
        /// Last observed producer head.
        cached_head: u64,
        /// The last pop found the ring empty.
        drained: bool,
    },
    /// Consumer reading slot `got`.
    Take {
        /// As in [`LowWaterThread::Poll`].
        got: u64,
        /// As in [`LowWaterThread::Poll`].
        cached_head: u64,
    },
    /// Consumer publishing `tail = got + 1`.
    Free {
        /// As in [`LowWaterThread::Poll`].
        got: u64,
        /// As in [`LowWaterThread::Poll`].
        cached_head: u64,
    },
    /// Consumer taking the producer's announce off the wait word.
    Check {
        /// As in [`LowWaterThread::Poll`].
        got: u64,
        /// As in [`LowWaterThread::Poll`].
        cached_head: u64,
        /// The check is the empty ring's (else the low-water mark's).
        idle: bool,
    },
    /// Consumer unparking the producer whose announce it took.
    Unpark {
        /// As in [`LowWaterThread::Poll`].
        got: u64,
        /// As in [`LowWaterThread::Poll`].
        cached_head: u64,
        /// As in [`LowWaterThread::Check`].
        idle: bool,
    },
    /// Consumer waiting on an empty ring for a newer head.
    Idle {
        /// As in [`LowWaterThread::Poll`].
        got: u64,
    },
    /// Consumer took every message.
    Finished,
    /// A violated assertion, with its message.
    Failed(String),
}

impl Machine for LowWaterMachine {
    type Thread = LowWaterThread;

    fn locs(&self) -> usize {
        4 + self.capacity as usize
    }

    fn init(&self) -> Vec<LowWaterThread> {
        vec![
            LowWaterThread::Push {
                seq: 0,
                cached_tail: 0,
                pc: 0,
            },
            LowWaterThread::Poll {
                got: 0,
                cached_head: 0,
                drained: true,
            },
        ]
    }

    #[allow(clippy::too_many_lines)]
    fn step(&self, tid: usize, thread: &LowWaterThread, mem: &Mem) -> Vec<Succ<LowWaterThread>> {
        let one =
            |thread: LowWaterThread, mem: Mem, label: String| vec![Succ { thread, mem, label }];
        let push = |seq, cached_tail, pc| LowWaterThread::Push {
            seq,
            cached_tail,
            pc,
        };
        match *thread {
            LowWaterThread::Push {
                seq,
                cached_tail,
                pc: 0,
            } => {
                if seq == self.messages {
                    return one(LowWaterThread::Done, mem.clone(), "P: all pushed".into());
                }
                if !self.full(seq, cached_tail) {
                    return one(
                        push(seq, cached_tail, 1),
                        mem.clone(),
                        "P: slot free".into(),
                    );
                }
                mem.loads(tid, TAIL, self.ring.observe)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: if self.full(seq, v) {
                            LowWaterThread::Announce {
                                seq,
                                cached_tail: v,
                            }
                        } else {
                            push(seq, v, 1)
                        },
                        mem: next,
                        label: format!("P: observe tail={v}"),
                    })
                    .collect()
            }
            LowWaterThread::Push {
                seq,
                cached_tail,
                pc: 1,
            } => one(
                push(seq, cached_tail, 2),
                mem.store(tid, self.slot_loc(seq), seq + 1, self.ring.slot),
                format!("P: write slot={}", seq + 1),
            ),
            LowWaterThread::Push {
                seq, cached_tail, ..
            } => one(
                push(seq + 1, cached_tail, 0),
                mem.store(tid, HEAD, seq + 1, self.ring.publish),
                format!("P: publish head={} ({:?})", seq + 1, self.ring.publish),
            ),
            LowWaterThread::Announce { seq, cached_tail } => {
                let (_, next) = mem.rmw(tid, WAIT, |_| WAITING, self.handshake);
                let thread = if self.recheck {
                    LowWaterThread::Recheck { seq }
                } else {
                    LowWaterThread::Park { seq, cached_tail }
                };
                one(
                    thread,
                    next,
                    format!("P: announce, wait=WAITING ({:?})", self.handshake),
                )
            }
            LowWaterThread::Recheck { seq } => mem
                .loads(tid, TAIL, self.ring.observe)
                .into_iter()
                .map(|(v, next)| Succ {
                    thread: if self.full(seq, v) {
                        LowWaterThread::Park {
                            seq,
                            cached_tail: v,
                        }
                    } else {
                        LowWaterThread::Withdraw {
                            seq,
                            cached_tail: v,
                        }
                    },
                    mem: next,
                    label: format!("P: re-check tail={v}"),
                })
                .collect(),
            LowWaterThread::Withdraw { seq, cached_tail } => {
                let (old, next) = mem.rmw(tid, WAIT, |_| NO_WAITER, self.handshake);
                let (thread, label) = if old == NO_WAITER {
                    let thread = LowWaterThread::Park { seq, cached_tail };
                    (
                        thread,
                        "P: withdraw, a check took the announce: take its wake",
                    )
                } else {
                    (push(seq, cached_tail, 0), "P: withdraw the announce")
                };
                one(thread, next, label.to_string())
            }
            LowWaterThread::Park { seq, cached_tail } => {
                let (token, next) = mem.rmw(tid, PRODUCER_TOKEN, |_| EMPTY, Ordering::Acquire);
                let (thread, label) = if token == NOTIFIED {
                    (
                        push(seq, cached_tail, 0),
                        "P: park, token was NOTIFIED: return (Acquire)",
                    )
                } else {
                    (
                        LowWaterThread::Parked { seq, cached_tail },
                        "P: park, token was EMPTY: sleep",
                    )
                };
                one(thread, next, label.to_string())
            }
            LowWaterThread::Parked { seq, cached_tail } => {
                let (token, next) = mem.rmw(tid, PRODUCER_TOKEN, |_| EMPTY, Ordering::Acquire);
                if token != NOTIFIED {
                    return Vec::new();
                }
                one(
                    push(seq, cached_tail, 0),
                    next,
                    "P: woken, token=EMPTY (Acquire)".to_string(),
                )
            }
            LowWaterThread::Poll {
                got,
                cached_head,
                drained,
            } => {
                if got == self.messages {
                    return one(LowWaterThread::Finished, mem.clone(), "C: all taken".into());
                }
                if got != cached_head {
                    return one(
                        LowWaterThread::Take { got, cached_head },
                        mem.clone(),
                        format!("C: slot {got} pending"),
                    );
                }
                mem.loads(tid, HEAD, self.ring.observe)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: match (v == got, drained) {
                            (false, _) => LowWaterThread::Poll {
                                got,
                                cached_head: v,
                                drained,
                            },
                            (true, false) => LowWaterThread::Check {
                                got,
                                cached_head,
                                idle: true,
                            },
                            (true, true) => LowWaterThread::Idle { got },
                        },
                        mem: next,
                        label: format!("C: observe head={v} ({:?})", self.ring.observe),
                    })
                    .collect()
            }
            LowWaterThread::Take { got, cached_head } => {
                let expected = got + 1;
                mem.loads(tid, self.slot_loc(got), self.ring.slot)
                    .into_iter()
                    .map(|(v, next)| Succ {
                        thread: if v == expected {
                            LowWaterThread::Free { got, cached_head }
                        } else {
                            LowWaterThread::Failed(format!(
                                "stale slot: message {expected} read as {v}"
                            ))
                        },
                        mem: next,
                        label: format!("C: read slot -> {v}"),
                    })
                    .collect()
            }
            LowWaterThread::Free { got, cached_head } => {
                let got = got + 1;
                let thread = if cached_head.wrapping_sub(got) == self.capacity / 2 {
                    LowWaterThread::Check {
                        got,
                        cached_head,
                        idle: false,
                    }
                } else {
                    Self::after_check(got, cached_head, false)
                };
                one(
                    thread,
                    mem.store(tid, TAIL, got, self.ring.publish),
                    format!("C: publish tail={got} ({:?})", self.ring.publish),
                )
            }
            LowWaterThread::Check {
                got,
                cached_head,
                idle,
            } => {
                let (old, next) = mem.rmw(tid, WAIT, |_| NO_WAITER, self.handshake);
                let thread = if old == WAITING {
                    LowWaterThread::Unpark {
                        got,
                        cached_head,
                        idle,
                    }
                } else {
                    Self::after_check(got, cached_head, idle)
                };
                let label = format!(
                    "C: check at {} read wait={old} ({:?})",
                    if idle { "empty" } else { "low water" },
                    self.handshake
                );
                one(thread, next, label)
            }
            LowWaterThread::Unpark {
                got,
                cached_head,
                idle,
            } => {
                let (_, next) = mem.rmw(tid, PRODUCER_TOKEN, |_| NOTIFIED, Ordering::Release);
                one(
                    Self::after_check(got, cached_head, idle),
                    next,
                    "C: unpark, token=NOTIFIED (Release)".to_string(),
                )
            }
            LowWaterThread::Idle { got } => mem
                .loads(tid, HEAD, self.ring.observe)
                .into_iter()
                .filter(|&(v, _)| v != got)
                .map(|(v, next)| Succ {
                    thread: LowWaterThread::Poll {
                        got,
                        cached_head: v,
                        drained: true,
                    },
                    mem: next,
                    label: format!("C: idle, observe head={v} ({:?})", self.ring.observe),
                })
                .collect(),
            LowWaterThread::Done | LowWaterThread::Finished | LowWaterThread::Failed(_) => {
                Vec::new()
            }
        }
    }

    fn failure(&self, threads: &[LowWaterThread]) -> Option<String> {
        threads.iter().find_map(|t| match t {
            LowWaterThread::Failed(msg) => Some(msg.clone()),
            _ => None,
        })
    }

    fn final_check(&self, threads: &[LowWaterThread], _mem: &Mem) -> Result<(), String> {
        for t in threads {
            match t {
                LowWaterThread::Parked { seq, .. } => {
                    return Err(format!(
                        "lost wake: producer parked on a full ring with {} of {} messages unsent",
                        self.messages - seq,
                        self.messages
                    ));
                }
                LowWaterThread::Done | LowWaterThread::Finished => {}
                other => return Err(format!("terminal state with a live thread: {other:?}")),
            }
        }
        Ok(())
    }
}
