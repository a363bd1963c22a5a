//! Bounded model checking for the fleet's lock-free protocols.
//!
//! The `atomics` lint pass proves every atomic call site *spells* the
//! ordering its `lint.toml` declaration demands; this crate proves the
//! declared protocol is *sufficient*: it exhaustively explores the
//! interleavings of ported protocol state machines under a weak memory
//! model and reports a minimal failing interleaving when a property
//! breaks.
//!
//! # Memory model
//!
//! [`mem`] implements a store-buffer (view-based) model in the style of
//! promising/view semantics:
//!
//! * every location keeps its full store history; a load may read any
//!   store not older than the thread's view of that location, so stale
//!   reads — the behaviour `Relaxed` permits and `Acquire`/`Release`
//!   forbid across the publication edge — are explicit choices the
//!   explorer enumerates;
//! * a `Release` store carries the writer's whole view as its message
//!   view; an `Acquire` load joins the message view into the reader's,
//!   which is exactly the happens-before edge of the C11 model;
//! * a `Relaxed` store carries only its own timestamp, and a `Relaxed`
//!   load joins nothing — per-location coherence is still enforced
//!   (views are monotone), but cross-location visibility is not.
//!
//! ## Known unsoundness bounds
//!
//! * `SeqCst` is treated as `AcqRel`: the model has no single total
//!   order `S`, so algorithms that need sequential consistency (e.g.
//!   Dekker-style flag protocols) can pass here yet fail on hardware.
//!   The fleet protocols never rely on `SeqCst` — the lint pass flags
//!   it as overkill — so the gap is deliberate.
//! * Exploration is bounded (messages, capacity, depth): absence of a
//!   counterexample is a proof only within the configured bounds.
//! * RMW operations always read the latest store (atomicity), modelling
//!   `fetch_add`/`compare_exchange` faithfully but not the weaker
//!   failure orderings of `compare_exchange_weak` spurious failure.
//!
//! # Machines
//!
//! [`machines`] ports the fleet protocols (ring, epoch barrier, finish
//! drain, idle wake) onto the model, spelled with the **same**
//! `std::sync::atomic::Ordering` values the real code uses —
//! [`machines::RingProtocol::declared`] reads the named constants from
//! `tagbreathe::fleet::protocol`, so a `--cfg sync_mutant` build of
//! `tagbreathe` weakens the checked protocol with no change here, and
//! the runtime mutant constructors let CI prove the seeded bugs are
//! caught without a rebuild. The idle wake also models std's park token,
//! whose `Release` unpark and `Acquire` park are fixed by std.
//!
//! See `DESIGN.md` §15 for the full argument and `syncmodel_check` for
//! the CI entry point.

#[cfg(feature = "model")]
pub mod explore;
#[cfg(feature = "model")]
pub mod machines;
#[cfg(feature = "model")]
pub mod mem;
