//! Reader-side client for the TagBreathe ingest wire protocol.
//!
//! [`ReaderClient`] speaks the [`crate::wire`] framing over any
//! `Read + Write` transport (a `TcpStream` in deployments, an in-memory
//! pipe in tests) and drives the session state machine: Hello/Ack
//! handshake, sequenced Batch frames, Heartbeats, Goodbye. It is what
//! the loopback tests and the end-to-end benchmark use to replay a
//! simulated reader fleet into a `tagbreathe-server`.
//!
//! The client is generic over its transport, so socket options are the
//! caller's: over TCP, set `TCP_NODELAY`, or Nagle's algorithm holds a
//! small frame back until the previous one is acknowledged.
//!
//! # Examples
//!
//! ```no_run
//! use std::net::TcpStream;
//! use tagbreathe_epcgen2::client::ReaderClient;
//!
//! let stream = TcpStream::connect("127.0.0.1:4610")?;
//! stream.set_nodelay(true)?;
//! let mut client = ReaderClient::connect(stream, 1, 0)?;
//! client.send_heartbeat(0.0)?;
//! client.goodbye()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::report::TagReport;
use crate::wire::{encode_frame, read_frame, Message, WireError, MAX_BATCH_REPORTS};
use std::io::{Read, Write};

/// Why a session could not be established or continued.
#[derive(Debug)]
pub enum ClientError {
    /// A frame failed to encode, decode, or cross the transport.
    Wire(WireError),
    /// The server answered the Hello with a Reject.
    Rejected(crate::wire::ErrorCode),
    /// The server answered with something other than Ack or Reject, or
    /// closed the connection during the handshake.
    Handshake(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Rejected(code) => write!(f, "server rejected session: {code}"),
            ClientError::Handshake(what) => write!(f, "handshake failed: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// An established reader session over a bidirectional transport.
#[derive(Debug)]
pub struct ReaderClient<S> {
    stream: S,
    session: u32,
    features: u32,
    next_seq: u32,
    batches_sent: u64,
    reports_sent: u64,
}

impl<S: Read + Write> ReaderClient<S> {
    /// Performs the Hello/Ack handshake with a zero clock offset.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] if the server refuses the session,
    /// [`ClientError::Handshake`] on an unexpected reply or early close,
    /// [`ClientError::Wire`] on transport or framing failures.
    pub fn connect(stream: S, reader_id: u32, features: u32) -> Result<Self, ClientError> {
        Self::connect_with_clock(stream, reader_id, features, 0.0, 0.0)
    }

    /// Performs the Hello/Ack handshake declaring a clock offset and the
    /// reader's current clock (see `docs/PROTOCOL.md` §4).
    ///
    /// # Errors
    ///
    /// As for [`ReaderClient::connect`].
    pub fn connect_with_clock(
        mut stream: S,
        reader_id: u32,
        features: u32,
        clock_offset_s: f64,
        reader_clock_s: f64,
    ) -> Result<Self, ClientError> {
        let hello = Message::Hello {
            reader_id,
            features,
            clock_offset_s,
            reader_clock_s,
        };
        stream
            .write_all(&encode_frame(&hello))
            .map_err(WireError::Io)?;
        stream.flush().map_err(WireError::Io)?;
        match read_frame(&mut stream)? {
            Some(Message::Ack { session, features }) => Ok(ReaderClient {
                stream,
                session,
                features,
                next_seq: 0,
                batches_sent: 0,
                reports_sent: 0,
            }),
            Some(Message::Reject { code }) => Err(ClientError::Rejected(code)),
            Some(_) => Err(ClientError::Handshake("unexpected reply to Hello")),
            None => Err(ClientError::Handshake("connection closed during handshake")),
        }
    }

    /// The server-assigned session number.
    #[must_use]
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The feature bits the server granted.
    #[must_use]
    pub fn granted_features(&self) -> u32 {
        self.features
    }

    /// Batches sent so far on this session.
    #[must_use]
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Reports sent so far on this session.
    #[must_use]
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Sends `reports` as one or more sequenced Batch frames, splitting
    /// at [`MAX_BATCH_REPORTS`]. `reader_clock_s` stamps every frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failures — including the
    /// server closing the connection after a Reject, which surfaces as a
    /// write error on the next send.
    pub fn send_batch(
        &mut self,
        reports: &[TagReport],
        reader_clock_s: f64,
    ) -> Result<(), ClientError> {
        for chunk in reports.chunks(MAX_BATCH_REPORTS.max(1)) {
            let frame = encode_frame(&Message::Batch {
                seq: self.next_seq,
                reader_clock_s,
                reports: chunk.to_vec(),
            });
            self.stream.write_all(&frame).map_err(WireError::Io)?;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.batches_sent += 1;
            self.reports_sent += chunk.len() as u64;
        }
        self.stream.flush().map_err(WireError::Io)?;
        Ok(())
    }

    /// Sends a Heartbeat carrying the reader's current clock so the
    /// server's merge watermark advances across idle spells.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failures.
    pub fn send_heartbeat(&mut self, reader_clock_s: f64) -> Result<(), ClientError> {
        let frame = encode_frame(&Message::Heartbeat { reader_clock_s });
        self.stream.write_all(&frame).map_err(WireError::Io)?;
        self.stream.flush().map_err(WireError::Io)?;
        Ok(())
    }

    /// Ends the session gracefully with a Goodbye frame and returns the
    /// transport.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] if the Goodbye cannot be written.
    pub fn goodbye(mut self) -> Result<S, ClientError> {
        let frame = encode_frame(&Message::Goodbye);
        self.stream.write_all(&frame).map_err(WireError::Io)?;
        self.stream.flush().map_err(WireError::Io)?;
        Ok(self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epc::Epc96;
    use crate::wire::{decode_frame, ErrorCode, FEATURE_DOPPLER};
    use std::collections::VecDeque;

    /// An in-memory transport: writes are captured, reads come from a
    /// pre-scripted queue of server replies.
    #[derive(Debug)]
    struct ScriptedStream {
        sent: Vec<u8>,
        replies: VecDeque<u8>,
    }

    impl ScriptedStream {
        fn replying(msgs: &[Message]) -> Self {
            let mut replies = VecDeque::new();
            for m in msgs {
                replies.extend(encode_frame(m));
            }
            ScriptedStream {
                sent: Vec::new(),
                replies,
            }
        }
    }

    impl Read for ScriptedStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.replies.len());
            for slot in buf.iter_mut().take(n) {
                *slot = self.replies.pop_front().unwrap_or(0);
            }
            Ok(n)
        }
    }

    impl Write for ScriptedStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn report(t: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(5, 1),
            antenna_port: 1,
            channel_index: 0,
            phase_rad: 1.0,
            rssi_dbm: -55.0,
            doppler_hz: 0.0,
        }
    }

    #[test]
    fn handshake_batches_and_goodbye() -> Result<(), ClientError> {
        let stream = ScriptedStream::replying(&[Message::Ack {
            session: 11,
            features: FEATURE_DOPPLER,
        }]);
        let mut client = ReaderClient::connect(stream, 4, FEATURE_DOPPLER)?;
        assert_eq!(client.session(), 11);
        assert_eq!(client.granted_features(), FEATURE_DOPPLER);

        client.send_batch(&[report(0.0), report(0.1)], 0.1)?;
        client.send_batch(&[report(0.2)], 0.2)?;
        assert_eq!(client.batches_sent(), 2);
        assert_eq!(client.reports_sent(), 3);
        let stream = client.goodbye()?;

        // Replay the captured bytes: Hello, Batch(seq 0), Batch(seq 1), Goodbye.
        let mut at = 0;
        let mut seen = Vec::new();
        while at < stream.sent.len() {
            let (msg, used) =
                decode_frame(stream.sent.get(at..).unwrap_or(&[])).map_err(ClientError::Wire)?;
            seen.push(msg);
            at += used;
        }
        assert_eq!(seen.len(), 4);
        assert!(matches!(
            seen.first(),
            Some(Message::Hello { reader_id: 4, .. })
        ));
        assert!(matches!(
            seen.get(1),
            Some(Message::Batch { seq: 0, reports, .. }) if reports.len() == 2
        ));
        assert!(matches!(seen.get(2), Some(Message::Batch { seq: 1, .. })));
        assert!(matches!(seen.last(), Some(Message::Goodbye)));
        Ok(())
    }

    #[test]
    fn reject_surfaces_as_error() {
        let stream = ScriptedStream::replying(&[Message::Reject {
            code: ErrorCode::Unavailable,
        }]);
        let err = ReaderClient::connect(stream, 1, 0).err();
        assert!(matches!(
            err,
            Some(ClientError::Rejected(ErrorCode::Unavailable))
        ));
    }

    #[test]
    fn early_close_surfaces_as_handshake_error() {
        let stream = ScriptedStream::replying(&[]);
        let err = ReaderClient::connect(stream, 1, 0).err();
        assert!(matches!(err, Some(ClientError::Handshake(_))), "{err:?}");
    }
}
