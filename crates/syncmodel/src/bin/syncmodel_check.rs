//! CI entry point for the bounded model checker.
//!
//! Exhaustively verifies the declared fleet protocols (ring push/pop,
//! epoch all-parts barrier, finish drain, idle wake, full-ring low-water
//! wake) and proves that the runtime reproductions of the `--cfg
//! sync_mutant` ordering bugs, of an unpark issued before its batch is
//! published, and of a producer that parks without re-checking the ring
//! are each caught with a minimal failing interleaving trace. Exits non-zero if
//! a declared protocol fails, a mutant slips through, or an exhaustive
//! run is truncated by the state budget.
//!
//! `--deep` additionally runs seeded random walks on configurations
//! beyond the exhaustive budget.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use tagbreathe_syncmodel::explore::{explore, random_walks, Limits, Machine, Verdict};
use tagbreathe_syncmodel::machines::{
    BarrierMachine, DrainMachine, LowWaterMachine, RingMachine, RingProtocol, WakeMachine,
};

/// One expectation: a machine that must pass, or must fail.
fn expect<M: Machine>(name: &str, m: &M, must_pass: bool, failures: &mut u32) {
    let verdict = explore(m, &Limits::default());
    match (&verdict, must_pass) {
        (Verdict::Pass { states, complete }, true) => {
            if *complete {
                println!("ok   {name}: no violation in {states} states (exhaustive)");
            } else {
                println!("FAIL {name}: truncated at {states} states — raise the budget");
                *failures += 1;
            }
        }
        (Verdict::Pass { states, .. }, false) => {
            println!("FAIL {name}: expected a violation, none found in {states} states");
            *failures += 1;
        }
        (
            Verdict::Fail {
                message,
                trace,
                states,
            },
            false,
        ) => {
            println!(
                "ok   {name}: caught after {states} states — {message}; minimal trace ({} steps):",
                trace.len()
            );
            for step in trace {
                println!("         {step}");
            }
        }
        (Verdict::Fail { message, trace, .. }, true) => {
            println!("FAIL {name}: declared protocol violated — {message}");
            for step in trace {
                println!("         {step}");
            }
            *failures += 1;
        }
    }
}

/// 300 seeded deep walks of a declared machine, `(max steps, seed)`:
/// clean in a shipped build; in a `sync_mutant` build a catch is
/// reported and a clean run only noted.
fn walk_declared<M: Machine>(
    name: &str,
    m: &M,
    (steps, seed): (usize, u64),
    mutant_active: bool,
    failures: &mut u32,
) {
    match random_walks(m, 300, steps, seed) {
        None if !mutant_active => println!("ok   {name} declared: 300 random deep walks clean"),
        None => println!("note {name} mutant build: walks found nothing this seed"),
        Some((message, trace)) if mutant_active => {
            println!(
                "ok   {name} weakened build: walk caught — {message} ({} steps)",
                trace.len()
            );
        }
        Some((message, _)) => {
            println!("FAIL {name} declared: random walk violation — {message}");
            *failures += 1;
        }
    }
}

fn main() -> ExitCode {
    let deep = std::env::args().any(|a| a == "--deep");
    let mut failures = 0u32;

    let mutant_active = !matches!(
        tagbreathe::fleet::protocol::PUBLISH,
        Ordering::Release | Ordering::SeqCst
    );
    if mutant_active {
        println!("note: built with --cfg sync_mutant; 'declared' is the weakened protocol");
    }

    for &capacity in &[1u64, 2] {
        let declared = RingMachine {
            capacity,
            messages: 3,
            words: 2,
            proto: RingProtocol::declared(),
        };
        expect(
            &format!("ring cap={capacity} n=3 declared"),
            &declared,
            !mutant_active,
            &mut failures,
        );
        let publish = RingMachine {
            proto: RingProtocol::relaxed_publish_mutant(),
            ..declared
        };
        expect(
            &format!("ring cap={capacity} n=3 relaxed-publish mutant"),
            &publish,
            false,
            &mut failures,
        );
        let observe = RingMachine {
            proto: RingProtocol::relaxed_observe_mutant(),
            ..declared
        };
        expect(
            &format!("ring cap={capacity} n=3 relaxed-observe mutant"),
            &observe,
            false,
            &mut failures,
        );
    }

    expect(
        "barrier shards=2 declared",
        &BarrierMachine::declared(2),
        !mutant_active,
        &mut failures,
    );
    expect(
        "barrier shards=2 relaxed-publish mutant",
        &BarrierMachine::relaxed_publish_mutant(2),
        false,
        &mut failures,
    );

    expect(
        "drain cap=1 n=2 declared",
        &DrainMachine::declared(1, 2),
        !mutant_active,
        &mut failures,
    );
    expect(
        "drain cap=1 n=2 relaxed-stop mutant",
        &DrainMachine::relaxed_stop_mutant(1, 2),
        false,
        &mut failures,
    );

    for (messages, batch) in [(2, 1), (3, 2)] {
        expect(
            &format!("wake n={messages} batch={batch} declared"),
            &WakeMachine::declared(messages, batch),
            !mutant_active,
            &mut failures,
        );
        expect(
            &format!("wake n={messages} batch={batch} early-unpark mutant"),
            &WakeMachine::early_unpark_mutant(messages, batch),
            false,
            &mut failures,
        );
    }

    for (capacity, messages) in [(2, 3), (2, 4)] {
        expect(
            &format!("low-water cap={capacity} n={messages} declared"),
            &LowWaterMachine::declared(capacity, messages),
            !mutant_active,
            &mut failures,
        );
    }
    expect(
        "low-water cap=2 n=3 relaxed-handshake mutant",
        &LowWaterMachine::relaxed_handshake_mutant(2, 3),
        false,
        &mut failures,
    );
    expect(
        "low-water cap=2 n=3 unchecked-park mutant",
        &LowWaterMachine::unchecked_park_mutant(2, 3),
        false,
        &mut failures,
    );

    if deep {
        let big = RingMachine {
            capacity: 4,
            messages: 8,
            words: 3,
            proto: RingProtocol::declared(),
        };
        walk_declared(
            "ring cap=4 n=8",
            &big,
            (400, 0x7ab_b7ea),
            mutant_active,
            &mut failures,
        );
        let big_mutant = RingMachine {
            proto: RingProtocol::relaxed_publish_mutant(),
            ..big
        };
        if let Some((message, trace)) = random_walks(&big_mutant, 300, 400, 0x7ab_b7ea) {
            println!(
                "ok   ring cap=4 n=8 relaxed-publish mutant: walk caught — {message} ({} steps)",
                trace.len()
            );
        } else {
            println!("FAIL ring cap=4 n=8 relaxed-publish mutant: 300 walks found nothing");
            failures += 1;
        }
        expect(
            "wake n=8 batch=3 declared",
            &WakeMachine::declared(8, 3),
            !mutant_active,
            &mut failures,
        );
        walk_declared(
            "low-water cap=4 n=8",
            &LowWaterMachine::declared(4, 8),
            (600, 0x10_3a7e),
            mutant_active,
            &mut failures,
        );
    }

    if failures == 0 {
        println!("syncmodel: all protocol checks passed");
        ExitCode::SUCCESS
    } else {
        println!("syncmodel: {failures} expectation(s) failed");
        ExitCode::FAILURE
    }
}
