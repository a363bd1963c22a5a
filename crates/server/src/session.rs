//! Per-connection ingest sessions.
//!
//! Each accepted TCP connection runs `run_session` on its own thread:
//! a buffered frame loop (length-prefix framing tolerates arbitrary TCP
//! segmentation) around the protocol state machine — exactly one Hello,
//! then Batch/Heartbeat until Goodbye or disconnect. The loop only reads
//! and writes, so it runs over any `Read + Write` stream; `run_session`
//! sets the socket options. It decodes every complete frame in place and
//! moves the unread tail to the front of its buffer once per read. Reads
//! take 4 KB until the first Batch arrives, so a handshake costs no more
//! than that, and up to 64 KB after it. Every protocol
//! violation is answered with a Reject frame, counted on
//! [`crate::metrics::SERVER_FRAMES_SHED_TOTAL`] under its error code,
//! and closes the connection; the server never panics on hostile input
//! (the malformed-input suite in `tests/failure_injection.rs` pins this).
//!
//! Backpressure: accepted batches go to the engine over a bounded
//! channel. When it is full the session stalls in 1 ms steps (counted as
//! queue stalls) up to the configured budget, then sheds the batch
//! (counted as shed reports) rather than blocking the socket forever.

use crate::engine::EngineEvent;
use crate::metrics;
use epcgen2::wire::{
    encode_frame, ErrorCode, Message, WireError, FEATURE_CLOCK_OFFSET, SUPPORTED_FEATURES,
};
use obs::recorder::{Label, Recorder, SharedRecorder};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::time::{Duration, Instant};

/// Bytes a session reads per call until its first Batch: the handshake
/// frames fit, and a connection that never sends a Batch keeps a small
/// buffer.
const HANDSHAKE_READ: usize = 4096;
/// Bytes a session reads per call once batches flow: a few hundred
/// reports per system call.
const BATCH_READ: usize = 64 * 1024;

/// Tuning knobs a session needs from the server configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionLimits {
    /// 1 ms stall steps to wait on a full engine queue before shedding.
    pub stall_budget: usize,
}

/// Outcome of one session, for logging/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// The client sent Goodbye.
    Graceful,
    /// The client disconnected at a frame boundary without Goodbye.
    Eof,
    /// The client disconnected mid-frame.
    MidFrame,
    /// The session was terminated for a protocol violation.
    Violation(ErrorCode),
    /// The transport failed or the server is shutting down.
    Transport,
}

struct SessionCtx<'a> {
    tx: &'a SyncSender<EngineEvent>,
    recorder: &'a SharedRecorder,
    limits: SessionLimits,
    stop: &'a AtomicBool,
    session_id: u32,
    /// Populated by the Hello.
    reader: Option<u32>,
    granted: u32,
    clock_offset_s: f64,
    hello_clock_s: f64,
    started: Instant,
    min_skew_s: f64,
}

impl<'a> SessionCtx<'a> {
    fn new(
        tx: &'a SyncSender<EngineEvent>,
        recorder: &'a SharedRecorder,
        limits: SessionLimits,
        stop: &'a AtomicBool,
        session_id: u32,
    ) -> Self {
        SessionCtx {
            tx,
            recorder,
            limits,
            stop,
            session_id,
            reader: None,
            granted: 0,
            clock_offset_s: 0.0,
            hello_clock_s: 0.0,
            started: Instant::now(),
            min_skew_s: f64::INFINITY,
        }
    }

    /// Updates the per-reader wall-vs-stream clock-skew gauge with a new
    /// sample; keeps the monotone minimum (least queueing delay), which is
    /// the classic one-way offset estimator. Diagnostic only — report
    /// timestamps are never rewritten from it.
    fn observe_clock(&mut self, reader_clock_s: f64) {
        let Some(reader) = self.reader else {
            return;
        };
        if !reader_clock_s.is_finite() {
            return;
        }
        let wall = self.started.elapsed().as_secs_f64();
        let skew = wall - (reader_clock_s - self.hello_clock_s);
        if skew < self.min_skew_s {
            self.min_skew_s = skew;
            self.recorder.set_gauge(
                metrics::SERVER_READER_CLOCK_SKEW_S,
                Some(Label::reader(reader)),
                skew,
            );
        }
    }

    fn shed_frame(&self, code: ErrorCode) {
        self.recorder.add(
            metrics::SERVER_FRAMES_SHED_TOTAL,
            Some(Label::code(code.as_u8())),
            1,
        );
    }
}

/// Runs one ingest session to completion. Never panics; all exits are
/// mapped to a [`SessionEnd`].
pub(crate) fn run_session(
    mut stream: TcpStream,
    tx: &SyncSender<EngineEvent>,
    recorder: &SharedRecorder,
    limits: SessionLimits,
    stop: &AtomicBool,
    session_id: u32,
) -> SessionEnd {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut ctx = SessionCtx::new(tx, recorder, limits, stop, session_id);
    let end = frame_loop(&mut stream, &mut ctx);
    if let Some(reader) = ctx.reader {
        // Close the merge lane so buffered reports release. Blocking send:
        // losing a Close would wedge the merge until shutdown.
        let _ = tx.send(EngineEvent::Close { reader });
    }
    end
}

/// Reads frames from `stream` into a buffer and dispatches each complete
/// frame. Returns how the session ended.
fn frame_loop<S: Read + Write>(stream: &mut S, ctx: &mut SessionCtx<'_>) -> SessionEnd {
    // `buf[start..end]` holds the bytes not yet decoded; past `end` is
    // room to read into. The buffer grows only to fit a frame larger
    // than it plus one read.
    let mut buf = vec![0u8; HANDSHAKE_READ];
    let (mut start, mut end) = (0, 0);
    let mut read_len = HANDSHAKE_READ;
    loop {
        // Dispatch every complete frame currently buffered.
        loop {
            let pending = buf.get(start..end).unwrap_or_default();
            match epcgen2::wire::decode_frame(pending) {
                Ok((msg, used)) => {
                    start = (start + used).min(end);
                    if matches!(msg, Message::Batch { .. }) {
                        read_len = BATCH_READ;
                    }
                    match dispatch(stream, ctx, msg) {
                        Ok(true) => {}
                        Ok(false) => return SessionEnd::Graceful,
                        Err(end) => return end,
                    }
                }
                Err(WireError::Truncated) => break, // need more bytes
                Err(err) => {
                    let code = err.protocol_code().unwrap_or(ErrorCode::Malformed);
                    return reject(stream, ctx, code);
                }
            }
        }
        if start > 0 {
            buf.copy_within(start..end, 0);
            end -= start;
            start = 0;
        }
        if buf.len() < end + read_len {
            buf.resize(end + read_len, 0);
        }
        let Some(room) = buf.get_mut(end..end + read_len) else {
            return SessionEnd::Transport;
        };
        match stream.read(room) {
            Ok(0) => {
                if end == 0 {
                    return SessionEnd::Eof;
                }
                // Disconnect mid-frame: shed the partial frame.
                ctx.shed_frame(ErrorCode::Malformed);
                return SessionEnd::MidFrame;
            }
            Ok(n) => end += n.min(read_len),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if ctx.stop.load(Ordering::Acquire) {
                    return SessionEnd::Transport;
                }
            }
            Err(_) => return SessionEnd::Transport,
        }
    }
}

/// Handles one decoded message. `Ok(true)` continues the session,
/// `Ok(false)` is a graceful Goodbye, `Err` terminates it.
fn dispatch<S: Read + Write>(
    stream: &mut S,
    ctx: &mut SessionCtx<'_>,
    msg: Message,
) -> Result<bool, SessionEnd> {
    match msg {
        Message::Hello {
            reader_id,
            features,
            clock_offset_s,
            reader_clock_s,
        } => {
            if ctx.reader.is_some() {
                return Err(reject(stream, ctx, ErrorCode::DuplicateHello));
            }
            ctx.reader = Some(reader_id);
            ctx.granted = features & SUPPORTED_FEATURES;
            ctx.clock_offset_s = if ctx.granted & FEATURE_CLOCK_OFFSET != 0 {
                clock_offset_s
            } else {
                0.0
            };
            ctx.hello_clock_s = reader_clock_s;
            ctx.started = Instant::now();
            ctx.recorder.add(
                metrics::SERVER_FRAMES_TOTAL,
                Some(Label::reader(reader_id)),
                1,
            );
            // Blocking send: an Open must not be shed, or the lane would
            // never exist and its Close would be meaningless.
            if ctx
                .tx
                .send(EngineEvent::Open { reader: reader_id })
                .is_err()
            {
                return Err(reject(stream, ctx, ErrorCode::Unavailable));
            }
            let ack = Message::Ack {
                session: ctx.session_id,
                features: ctx.granted,
            };
            if stream.write_all(&encode_frame(&ack)).is_err() {
                return Err(SessionEnd::Transport);
            }
            Ok(true)
        }
        Message::Batch {
            reader_clock_s,
            mut reports,
            ..
        } => {
            let Some(reader) = ctx.reader else {
                return Err(reject(stream, ctx, ErrorCode::NotHelloed));
            };
            ctx.observe_clock(reader_clock_s);
            ctx.recorder
                .add(metrics::SERVER_FRAMES_TOTAL, Some(Label::reader(reader)), 1);
            let count = reports.len() as u64;
            // Apply the negotiated clock offset. Adding 0.0 is skipped so
            // an offset-free session stays bit-identical to inline runs;
            // compared as bits because this is an exact-zero sentinel, not
            // a numeric tolerance.
            if ctx.clock_offset_s.to_bits() != 0 {
                for r in &mut reports {
                    r.time_s += ctx.clock_offset_s;
                }
            }
            let event = EngineEvent::Batch {
                reader,
                reports,
                reader_clock_s: reader_clock_s + ctx.clock_offset_s,
            };
            if enqueue_with_backpressure(ctx, event) {
                ctx.recorder.add(
                    metrics::SERVER_REPORTS_TOTAL,
                    Some(Label::reader(reader)),
                    count,
                );
            } else {
                ctx.recorder
                    .add(metrics::SERVER_REPORTS_SHED_TOTAL, None, count);
            }
            Ok(true)
        }
        Message::Heartbeat { reader_clock_s } => {
            let Some(reader) = ctx.reader else {
                return Err(reject(stream, ctx, ErrorCode::NotHelloed));
            };
            ctx.observe_clock(reader_clock_s);
            ctx.recorder
                .add(metrics::SERVER_FRAMES_TOTAL, Some(Label::reader(reader)), 1);
            // Heartbeats advance the merge watermark; losing one under
            // overload merely delays release, so best-effort is fine.
            let _ = ctx.tx.try_send(EngineEvent::Heartbeat {
                reader,
                reader_clock_s: reader_clock_s + ctx.clock_offset_s,
            });
            Ok(true)
        }
        Message::Goodbye => {
            if ctx.reader.is_none() {
                return Err(reject(stream, ctx, ErrorCode::NotHelloed));
            }
            Ok(false)
        }
        // Ack and Reject are server→client only.
        Message::Ack { .. } | Message::Reject { .. } => {
            Err(reject(stream, ctx, ErrorCode::Malformed))
        }
    }
}

fn reject<S: Read + Write>(stream: &mut S, ctx: &SessionCtx<'_>, code: ErrorCode) -> SessionEnd {
    ctx.shed_frame(code);
    let _ = stream.write_all(&encode_frame(&Message::Reject { code }));
    SessionEnd::Violation(code)
}

/// Tries to enqueue a sheddable event, stalling in 1 ms steps up to the
/// budget. Returns whether the event was accepted.
fn enqueue_with_backpressure(ctx: &SessionCtx<'_>, event: EngineEvent) -> bool {
    let mut event = event;
    for _ in 0..=ctx.limits.stall_budget {
        match ctx.tx.try_send(event) {
            Ok(()) => return true,
            Err(TrySendError::Full(back)) => {
                event = back;
                ctx.recorder
                    .add(metrics::SERVER_QUEUE_STALLS_TOTAL, None, 1);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::Epc96;
    use std::sync::mpsc::sync_channel;
    use tagbreathe::TagReport;

    /// An in-memory session: reads hand out at most `max_read` bytes of
    /// `input` per call, writes are kept.
    struct Chunked {
        input: Vec<u8>,
        at: usize,
        max_read: usize,
        written: Vec<u8>,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let rest = self.input.get(self.at..).unwrap_or_default();
            let n = rest.len().min(out.len()).min(self.max_read);
            out[..n].copy_from_slice(&rest[..n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for Chunked {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn batch(seq: u32, n: u32) -> Message {
        let reports = (0..n)
            .map(|i| TagReport {
                time_s: f64::from(seq) + f64::from(i) * 1e-4,
                epc: Epc96::monitor(u64::from(i % 97), i % 3),
                antenna_port: 1,
                channel_index: 5,
                phase_rad: 0.1 * f64::from(i),
                rssi_dbm: -55.5,
                doppler_hz: 0.0,
            })
            .collect();
        Message::Batch {
            seq,
            reader_clock_s: f64::from(seq) + 1.0,
            reports,
        }
    }

    /// Runs one session over `input` in reads of at most `max_read`
    /// bytes: how it ended, the engine events (as text, every float in
    /// its shortest exact form) and the bytes written back.
    fn run(input: &[u8], max_read: usize) -> (SessionEnd, Vec<String>, Vec<u8>) {
        let (tx, rx) = sync_channel(64);
        let recorder = SharedRecorder::noop();
        let stop = AtomicBool::new(false);
        let limits = SessionLimits { stall_budget: 0 };
        let mut ctx = SessionCtx::new(&tx, &recorder, limits, &stop, 9);
        let mut stream = Chunked {
            input: input.to_vec(),
            at: 0,
            max_read,
            written: Vec::new(),
        };
        let end = frame_loop(&mut stream, &mut ctx);
        drop(tx);
        let events = rx.try_iter().map(|e| format!("{e:?}")).collect();
        (end, events, stream.written)
    }

    const READ_SIZES: [usize; 5] = [1, 7, 4096, 65_536, usize::MAX];

    #[test]
    fn a_recorded_session_decodes_alike_at_every_read_size() {
        let frames = [
            Message::Hello {
                reader_id: 4,
                features: 0,
                clock_offset_s: 0.0,
                reader_clock_s: 0.0,
            },
            batch(0, 1),
            batch(1, 256),
            batch(2, 4096),
            Message::Heartbeat {
                reader_clock_s: 9.5,
            },
            Message::Goodbye,
        ];
        let input: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let (end, events, written) = run(&input, usize::MAX);
        assert_eq!(end, SessionEnd::Graceful);
        assert_eq!(events.len(), 5, "Open, three Batches, a Heartbeat");
        assert!(events.first().is_some_and(|e| e.starts_with("Open")));
        let ack = encode_frame(&Message::Ack {
            session: 9,
            features: 0,
        });
        assert_eq!(written, ack);
        for max_read in READ_SIZES {
            assert_eq!(
                run(&input, max_read),
                (SessionEnd::Graceful, events.clone(), written.clone()),
                "reads of {max_read} bytes"
            );
        }
    }

    #[test]
    fn a_corrupted_crc_mid_stream_is_rejected_alike_at_every_read_size() {
        let mut bad = encode_frame(&batch(1, 256));
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut input = encode_frame(&Message::Hello {
            reader_id: 4,
            features: 0,
            clock_offset_s: 0.0,
            reader_clock_s: 0.0,
        });
        input.extend(encode_frame(&batch(0, 3)));
        input.extend(&bad);
        input.extend(encode_frame(&Message::Goodbye));

        let (end, events, written) = run(&input, usize::MAX);
        assert_eq!(end, SessionEnd::Violation(ErrorCode::BadChecksum));
        assert_eq!(events.len(), 2, "Open and the first Batch");
        let ack_len = encode_frame(&Message::Ack {
            session: 9,
            features: 0,
        })
        .len();
        let reject = written.get(ack_len..).unwrap_or_default();
        assert_eq!(
            reject,
            encode_frame(&Message::Reject {
                code: ErrorCode::BadChecksum
            })
        );
        for max_read in READ_SIZES {
            assert_eq!(
                run(&input, max_read),
                (end, events.clone(), written.clone()),
                "reads of {max_read} bytes"
            );
        }
    }
}
