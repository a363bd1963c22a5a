//! TagBreathe ingest wire protocol (TBIP/1): length-prefixed binary
//! frames carrying [`TagReport`] batches from reader hosts to a
//! `tagbreathe-server` instance.
//!
//! Real deployments ship LLRP readers as networked appliances feeding
//! central middleware; this module is the TagBreathe-side equivalent of
//! that reader→middleware hop, flavoured like LLRP (big-endian fields,
//! length-prefixed messages, a version header) but carrying the exact
//! [`TagReport`] record the pipeline consumes, with every float as an
//! IEEE-754 bit pattern (`f64::to_bits`) so a report survives the wire
//! **bit-identically** — the property the loopback soak test pins.
//!
//! The normative specification, including worked hex dumps, lives in
//! `docs/PROTOCOL.md`; the hex dumps printed there are decoded verbatim
//! by this module's unit tests so spec and code cannot drift.
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! u32  length     bytes that follow, including the trailing checksum
//! u8   version    protocol version, currently 0x01
//! u8   type       message type (see the Message enum)
//! u16  flags      reserved, must be zero
//! ...  body       type-dependent payload
//! u32  crc32      CRC-32/ISO-HDLC over version..body
//! ```
//!
//! # Examples
//!
//! ```
//! use tagbreathe_epcgen2::wire::{Message, decode_frame, encode_frame};
//!
//! let hello = Message::Hello {
//!     reader_id: 7,
//!     features: 0,
//!     clock_offset_s: 0.0,
//!     reader_clock_s: 0.0,
//! };
//! let bytes = encode_frame(&hello);
//! let (decoded, used) = decode_frame(&bytes)?;
//! assert_eq!(decoded, hello);
//! assert_eq!(used, bytes.len());
//! # Ok::<(), tagbreathe_epcgen2::wire::WireError>(())
//! ```

use crate::epc::Epc96;
use crate::report::TagReport;
use std::io::Read;

/// Protocol version spoken by this implementation.
pub const WIRE_VERSION: u8 = 0x01;

/// Hard ceiling on the frame length prefix. A prefix above this is a
/// protocol violation ([`WireError::Oversized`]) — the stream cannot be
/// resynchronised and must be closed.
pub const MAX_FRAME_LEN: u32 = 256 * 1024;

/// Maximum reports in one Batch message (fits comfortably under
/// [`MAX_FRAME_LEN`]).
pub const MAX_BATCH_REPORTS: usize = 4096;

/// Feature bit: the reader populates [`TagReport::doppler_hz`] with a
/// real estimate (otherwise the field is carried but meaningless).
pub const FEATURE_DOPPLER: u32 = 1 << 0;

/// Feature bit: the server must add the Hello's `clock_offset_s` to every
/// report timestamp from this session (readers whose clock origin is not
/// the deployment epoch). Without the bit, timestamps pass through
/// untouched.
pub const FEATURE_CLOCK_OFFSET: u32 = 1 << 1;

/// All feature bits this implementation understands; a server masks a
/// Hello's requested features to this set in its Ack.
pub const SUPPORTED_FEATURES: u32 = FEATURE_DOPPLER | FEATURE_CLOCK_OFFSET;

/// Encoded size of one report record inside a Batch body, bytes.
pub const REPORT_WIRE_LEN: usize = 47;

const TYPE_HELLO: u8 = 0x01;
const TYPE_BATCH: u8 = 0x02;
const TYPE_HEARTBEAT: u8 = 0x03;
const TYPE_GOODBYE: u8 = 0x04;
const TYPE_ACK: u8 = 0x05;
const TYPE_REJECT: u8 = 0x06;

/// Protocol error codes carried by [`Message::Reject`] and used as the
/// `code` label on the server's shed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion,
    /// The trailing CRC-32 did not match the frame contents.
    BadChecksum,
    /// The body was truncated, carried trailing garbage, or the type
    /// byte is unknown.
    Malformed,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized,
    /// A second Hello arrived on an already-established session.
    DuplicateHello,
    /// A data message arrived before the session's Hello.
    NotHelloed,
    /// The server is shutting down or refusing new work.
    Unavailable,
}

impl ErrorCode {
    /// The one-byte wire representation.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::UnsupportedVersion => 0x01,
            ErrorCode::BadChecksum => 0x02,
            ErrorCode::Malformed => 0x03,
            ErrorCode::Oversized => 0x04,
            ErrorCode::DuplicateHello => 0x05,
            ErrorCode::NotHelloed => 0x06,
            ErrorCode::Unavailable => 0x07,
        }
    }

    /// Decodes the one-byte wire representation.
    #[must_use]
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        match code {
            0x01 => Some(ErrorCode::UnsupportedVersion),
            0x02 => Some(ErrorCode::BadChecksum),
            0x03 => Some(ErrorCode::Malformed),
            0x04 => Some(ErrorCode::Oversized),
            0x05 => Some(ErrorCode::DuplicateHello),
            0x06 => Some(ErrorCode::NotHelloed),
            0x07 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::BadChecksum => "frame checksum mismatch",
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::Oversized => "oversized length prefix",
            ErrorCode::DuplicateHello => "duplicate Hello",
            ErrorCode::NotHelloed => "data message before Hello",
            ErrorCode::Unavailable => "server unavailable",
        };
        write!(f, "{what}")
    }
}

/// A decoding failure. [`WireError::protocol_code`] maps each variant to
/// the [`ErrorCode`] a server should send back before closing (or `None`
/// for plain I/O trouble).
#[derive(Debug)]
pub enum WireError {
    /// The buffer or stream ended before the declared frame length.
    Truncated,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The trailing CRC-32 did not match.
    BadChecksum {
        /// CRC carried by the frame.
        carried: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Unknown message type, inconsistent body length, or field garbage.
    Malformed(&'static str),
    /// Underlying transport failure.
    Io(std::io::Error),
}

impl WireError {
    /// The [`ErrorCode`] a server should answer with, if any.
    #[must_use]
    pub fn protocol_code(&self) -> Option<ErrorCode> {
        match self {
            WireError::Truncated => Some(ErrorCode::Malformed),
            WireError::Oversized(_) => Some(ErrorCode::Oversized),
            WireError::BadVersion(_) => Some(ErrorCode::UnsupportedVersion),
            WireError::BadChecksum { .. } => Some(ErrorCode::BadChecksum),
            WireError::Malformed(_) => Some(ErrorCode::Malformed),
            WireError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds maximum {MAX_FRAME_LEN}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v:#04x}"),
            WireError::BadChecksum { carried, computed } => write!(
                f,
                "checksum mismatch: frame carries {carried:#010x}, computed {computed:#010x}"
            ),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session opener (client → server); exactly one per connection.
    Hello {
        /// Operator-assigned reader identity (unique per deployment).
        reader_id: u32,
        /// Requested feature bits ([`FEATURE_DOPPLER`], …).
        features: u32,
        /// Offset to add to report timestamps when
        /// [`FEATURE_CLOCK_OFFSET`] is granted, seconds.
        clock_offset_s: f64,
        /// The reader's clock at the moment the Hello was sent, seconds.
        reader_clock_s: f64,
    },
    /// A batch of tag reports, time-ordered within the session's stream.
    Batch {
        /// Per-session batch sequence number, starting at 0.
        seq: u32,
        /// The reader's clock when the batch was sent, seconds.
        reader_clock_s: f64,
        /// The reports (at most [`MAX_BATCH_REPORTS`]).
        reports: Vec<TagReport>,
    },
    /// Keepalive carrying the reader clock, so the server's merge
    /// watermark advances across idle spells.
    Heartbeat {
        /// The reader's clock when the heartbeat was sent, seconds.
        reader_clock_s: f64,
    },
    /// Graceful end of session (client → server).
    Goodbye,
    /// Session accepted (server → client), answering a Hello.
    Ack {
        /// Server-assigned session number.
        session: u32,
        /// Granted feature bits (requested ∩ [`SUPPORTED_FEATURES`]).
        features: u32,
    },
    /// Protocol violation (server → client); the server closes the
    /// connection immediately after sending it.
    Reject {
        /// Why the frame (or session) was refused.
        code: ErrorCode,
    },
}

impl Message {
    /// The message's wire type byte.
    #[must_use]
    pub fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => TYPE_HELLO,
            Message::Batch { .. } => TYPE_BATCH,
            Message::Heartbeat { .. } => TYPE_HEARTBEAT,
            Message::Goodbye => TYPE_GOODBYE,
            Message::Ack { .. } => TYPE_ACK,
            Message::Reject { .. } => TYPE_REJECT,
        }
    }
}

/// The reflected CRC-32/ISO-HDLC polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time table for [`crc32`], built at compile time: entry `i`
/// is the register after shifting byte `i` through the eight bitwise
/// polynomial steps.
static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0u32;
    while byte < 256 {
        let mut crc = byte;
        let mut step = 0;
        while step < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
            step += 1;
        }
        table[byte as usize] = crc;
        byte += 1;
    }
    table
};

/// CRC-32/ISO-HDLC (the zlib `crc32`): reflected polynomial
/// `0xEDB88320`, init and xorout `0xFFFF_FFFF`. Table-driven, one lookup
/// per byte; the frames are identical to the bitwise definition's.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let at = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE.get(at).copied().unwrap_or(0);
    }
    !crc
}

fn push_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_be_bytes());
}

fn encode_report(out: &mut Vec<u8>, r: &TagReport) {
    push_f64(out, r.time_s);
    out.extend_from_slice(&r.epc.to_bytes());
    out.push(r.antenna_port);
    out.extend_from_slice(&r.channel_index.to_be_bytes());
    push_f64(out, r.phase_rad);
    push_f64(out, r.rssi_dbm);
    push_f64(out, r.doppler_hz);
}

/// Encodes `msg` as one complete frame (length prefix through checksum).
#[must_use]
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut payload = vec![WIRE_VERSION, msg.type_byte(), 0, 0];
    match msg {
        Message::Hello {
            reader_id,
            features,
            clock_offset_s,
            reader_clock_s,
        } => {
            payload.extend_from_slice(&reader_id.to_be_bytes());
            payload.extend_from_slice(&features.to_be_bytes());
            push_f64(&mut payload, *clock_offset_s);
            push_f64(&mut payload, *reader_clock_s);
        }
        Message::Batch {
            seq,
            reader_clock_s,
            reports,
        } => {
            payload.extend_from_slice(&seq.to_be_bytes());
            push_f64(&mut payload, *reader_clock_s);
            let count = u16::try_from(reports.len().min(MAX_BATCH_REPORTS)).unwrap_or(u16::MAX);
            payload.extend_from_slice(&count.to_be_bytes());
            for r in reports.iter().take(usize::from(count)) {
                encode_report(&mut payload, r);
            }
        }
        Message::Heartbeat { reader_clock_s } => push_f64(&mut payload, *reader_clock_s),
        Message::Goodbye => {}
        Message::Ack { session, features } => {
            payload.extend_from_slice(&session.to_be_bytes());
            payload.extend_from_slice(&features.to_be_bytes());
        }
        Message::Reject { code } => payload.push(code.as_u8()),
    }
    let crc = crc32(&payload);
    let total = payload.len() + 4;
    let mut out = Vec::with_capacity(total + 4);
    out.extend_from_slice(&u32::try_from(total).unwrap_or(u32::MAX).to_be_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// A bounds-checked big-endian reader over a byte slice — every accessor
/// returns a `Result`, so decoding is panic-free by construction.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        let chunk = self.bytes.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(chunk)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let c = self.take(2)?;
        let mut v: u16 = 0;
        for &b in c {
            v = v << 8 | u16::from(b);
        }
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let c = self.take(4)?;
        let mut v: u32 = 0;
        for &b in c {
            v = v << 8 | u32::from(b);
        }
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let c = self.take(8)?;
        let mut v: u64 = 0;
        for &b in c {
            v = v << 8 | u64::from(b);
        }
        Ok(v)
    }

    fn f64_bits(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn epc(&mut self) -> Result<Epc96, WireError> {
        let c = self.take(12)?;
        let mut raw = [0u8; 12];
        for (slot, &b) in raw.iter_mut().zip(c) {
            *slot = b;
        }
        Ok(Epc96::from_bytes(raw))
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }
}

fn decode_report(c: &mut Cursor<'_>) -> Result<TagReport, WireError> {
    Ok(TagReport {
        time_s: c.f64_bits()?,
        epc: c.epc()?,
        antenna_port: c.u8()?,
        channel_index: c.u16()?,
        phase_rad: c.f64_bits()?,
        rssi_dbm: c.f64_bits()?,
        doppler_hz: c.f64_bits()?,
    })
}

/// Decodes the frame payload (`version` byte through the last body byte,
/// checksum already verified and stripped).
fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg_type = c.u8()?;
    let flags = c.u16()?;
    if flags != 0 {
        return Err(WireError::Malformed("nonzero reserved flags"));
    }
    let msg = match msg_type {
        TYPE_HELLO => Message::Hello {
            reader_id: c.u32()?,
            features: c.u32()?,
            clock_offset_s: c.f64_bits()?,
            reader_clock_s: c.f64_bits()?,
        },
        TYPE_BATCH => {
            let seq = c.u32()?;
            let reader_clock_s = c.f64_bits()?;
            let count = usize::from(c.u16()?);
            if count > MAX_BATCH_REPORTS {
                return Err(WireError::Malformed("batch count over limit"));
            }
            if c.remaining() != count * REPORT_WIRE_LEN {
                return Err(WireError::Malformed("batch body length mismatch"));
            }
            let mut reports = Vec::with_capacity(count);
            for _ in 0..count {
                reports.push(decode_report(&mut c)?);
            }
            Message::Batch {
                seq,
                reader_clock_s,
                reports,
            }
        }
        TYPE_HEARTBEAT => Message::Heartbeat {
            reader_clock_s: c.f64_bits()?,
        },
        TYPE_GOODBYE => Message::Goodbye,
        TYPE_ACK => Message::Ack {
            session: c.u32()?,
            features: c.u32()?,
        },
        TYPE_REJECT => Message::Reject {
            code: ErrorCode::from_u8(c.u8()?).ok_or(WireError::Malformed("unknown error code"))?,
        },
        _ => return Err(WireError::Malformed("unknown message type")),
    };
    if c.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes after body"));
    }
    Ok(msg)
}

/// Decodes one frame from the front of `bytes`.
///
/// Returns the message and the number of bytes consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] when `bytes` ends before the declared
/// length, [`WireError::Oversized`] on a length prefix over
/// [`MAX_FRAME_LEN`], and checksum / version / structure errors as
/// described on [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    let mut c = Cursor::new(bytes);
    let declared = c.u32()?;
    if declared > MAX_FRAME_LEN {
        return Err(WireError::Oversized(declared));
    }
    let declared = declared as usize;
    // Smallest frame: 4-byte header + 4-byte CRC.
    if declared < 8 {
        return Err(WireError::Malformed("frame shorter than header + crc"));
    }
    let frame = c.take(declared)?;
    let split = declared - 4;
    let payload = frame.get(..split).ok_or(WireError::Truncated)?;
    let crc_bytes = frame.get(split..).ok_or(WireError::Truncated)?;
    let mut carried: u32 = 0;
    for &b in crc_bytes {
        carried = carried << 8 | u32::from(b);
    }
    let computed = crc32(payload);
    if carried != computed {
        return Err(WireError::BadChecksum { carried, computed });
    }
    Ok((decode_payload(payload)?, 4 + declared))
}

/// Reads exactly one frame from a blocking stream.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// [`WireError::Io`] on transport failures (including EOF mid-frame,
/// surfaced as [`std::io::ErrorKind::UnexpectedEof`]), otherwise the
/// same protocol errors as [`decode_frame`]. On [`WireError::Oversized`]
/// the stream is left unread past the prefix, so the caller must close
/// it — there is no way to resynchronise.
pub fn read_frame<R: Read>(stream: &mut R) -> Result<Option<Message>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        let Some(slot) = len_buf.get_mut(got..) else {
            break;
        };
        let n = stream.read(slot)?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()));
        }
        got += n;
    }
    let declared = u32::from_be_bytes(len_buf);
    if declared > MAX_FRAME_LEN {
        return Err(WireError::Oversized(declared));
    }
    if declared < 8 {
        return Err(WireError::Malformed("frame shorter than header + crc"));
    }
    let mut frame = vec![0u8; declared as usize];
    stream.read_exact(&mut frame)?;
    let mut whole = Vec::with_capacity(4 + frame.len());
    whole.extend_from_slice(&len_buf);
    whole.extend_from_slice(&frame);
    decode_frame(&whole).map(|(msg, _)| Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TagReport {
        TagReport {
            time_s: 1.5,
            epc: Epc96::monitor(1, 2),
            antenna_port: 1,
            channel_index: 3,
            phase_rad: 2.5,
            rssi_dbm: -52.25,
            doppler_hz: 0.125,
        }
    }

    /// The bitwise definition the table is built from: eight polynomial
    /// steps per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_matches_bitwise_definition_at_every_length() {
        use prng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from_u64(0x00C0_FFEE);
        let bytes: Vec<u8> = (0..300).map(|_| (rng.next_u64() >> 56) as u8).collect();
        for len in 0..=300 {
            let data = bytes.get(..len).unwrap_or(&[]);
            assert_eq!(crc32(data), crc32_bitwise(data), "length {len}");
        }
    }

    #[test]
    fn all_messages_round_trip() -> Result<(), WireError> {
        let msgs = [
            Message::Hello {
                reader_id: 42,
                features: SUPPORTED_FEATURES,
                clock_offset_s: -3.25,
                reader_clock_s: 17.0,
            },
            Message::Batch {
                seq: 9,
                reader_clock_s: 18.5,
                reports: vec![sample_report(), sample_report()],
            },
            Message::Heartbeat {
                reader_clock_s: 0.1 + 0.2, // non-representable sum
            },
            Message::Goodbye,
            Message::Ack {
                session: 3,
                features: FEATURE_DOPPLER,
            },
            Message::Reject {
                code: ErrorCode::DuplicateHello,
            },
        ];
        for msg in msgs {
            let bytes = encode_frame(&msg);
            let (decoded, used) = decode_frame(&bytes)?;
            assert_eq!(decoded, msg);
            assert_eq!(used, bytes.len());
        }
        Ok(())
    }

    #[test]
    fn reports_survive_bit_identically() -> Result<(), WireError> {
        let mut r = sample_report();
        r.phase_rad = 0.1 + 0.2;
        r.time_s = f64::from_bits(0x3FF0_0000_0000_0001); // 1.0 + 1 ulp
        let bytes = encode_frame(&Message::Batch {
            seq: 0,
            reader_clock_s: 0.0,
            reports: vec![r],
        });
        let (decoded, _) = decode_frame(&bytes)?;
        let Message::Batch { reports, .. } = decoded else {
            return Err(WireError::Malformed("decoded to the wrong message type"));
        };
        let Some(got) = reports.first() else {
            return Err(WireError::Malformed("batch lost its report"));
        };
        assert_eq!(got.time_s.to_bits(), r.time_s.to_bits());
        assert_eq!(got.phase_rad.to_bits(), r.phase_rad.to_bits());
        assert_eq!(got.rssi_dbm.to_bits(), r.rssi_dbm.to_bits());
        assert_eq!(got.doppler_hz.to_bits(), r.doppler_hz.to_bits());
        assert_eq!(got.epc, r.epc);
        Ok(())
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let bytes = encode_frame(&Message::Goodbye);
        for cut in 1..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, WireError::Truncated),
                "cut {cut}: {err:?} not Truncated"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = decode_frame(&bytes).expect_err("must fail");
        assert!(matches!(err, WireError::Oversized(n) if n == MAX_FRAME_LEN + 1));
        assert_eq!(err.protocol_code(), Some(ErrorCode::Oversized));
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let mut bytes = encode_frame(&Message::Heartbeat {
            reader_clock_s: 5.0,
        });
        // Flip one body byte (past the 4-byte length prefix and header).
        if let Some(b) = bytes.get_mut(9) {
            *b ^= 0x40;
        }
        let err = decode_frame(&bytes).expect_err("must fail");
        assert!(matches!(err, WireError::BadChecksum { .. }), "{err:?}");
        assert_eq!(err.protocol_code(), Some(ErrorCode::BadChecksum));
    }

    #[test]
    fn wrong_version_and_unknown_type_are_rejected() {
        let mut versioned = encode_frame(&Message::Goodbye);
        // Rewrite version byte and fix the CRC so only the version fails.
        if let Some(b) = versioned.get_mut(4) {
            *b = 0x02;
        }
        let len = versioned.len();
        let crc = crc32(versioned.get(4..len - 4).unwrap_or(&[]));
        versioned.truncate(len - 4);
        versioned.extend_from_slice(&crc.to_be_bytes());
        let err = decode_frame(&versioned).expect_err("must fail");
        assert!(matches!(err, WireError::BadVersion(0x02)), "{err:?}");

        let mut typed = encode_frame(&Message::Goodbye);
        if let Some(b) = typed.get_mut(5) {
            *b = 0x7F;
        }
        let len = typed.len();
        let crc = crc32(typed.get(4..len - 4).unwrap_or(&[]));
        typed.truncate(len - 4);
        typed.extend_from_slice(&crc.to_be_bytes());
        let err = decode_frame(&typed).expect_err("must fail");
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn batch_count_mismatch_is_malformed() {
        // Claim 2 reports but carry 1.
        let one = encode_frame(&Message::Batch {
            seq: 0,
            reader_clock_s: 0.0,
            reports: vec![sample_report()],
        });
        let mut payload = one.get(4..one.len() - 4).unwrap_or(&[]).to_vec();
        // count lives at payload offset 4 (header) + 4 (seq) + 8 (clock).
        if let Some(b) = payload.get_mut(17) {
            *b = 2;
        }
        let crc = crc32(&payload);
        let mut bytes = u32::try_from(payload.len() + 4)
            .unwrap_or(0)
            .to_be_bytes()
            .to_vec();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc.to_be_bytes());
        let err = decode_frame(&bytes).expect_err("must fail");
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn read_frame_handles_eof_and_streams() -> Result<(), WireError> {
        let hello = Message::Hello {
            reader_id: 1,
            features: 0,
            clock_offset_s: 0.0,
            reader_clock_s: 0.0,
        };
        let mut stream = encode_frame(&hello);
        stream.extend_from_slice(&encode_frame(&Message::Goodbye));
        let mut cursor = stream.as_slice();
        assert_eq!(read_frame(&mut cursor)?, Some(hello));
        assert_eq!(read_frame(&mut cursor)?, Some(Message::Goodbye));
        assert_eq!(read_frame(&mut cursor)?, None);

        // EOF mid-frame is an I/O error, not a clean end.
        let partial = encode_frame(&Message::Goodbye);
        let cut = partial.get(..6).unwrap_or(&[]).to_vec();
        let mut cursor: &[u8] = &cut;
        let err = read_frame(&mut cursor).expect_err("must fail");
        assert!(matches!(err, WireError::Io(_)), "{err:?}");
        Ok(())
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::UnsupportedVersion,
            ErrorCode::BadChecksum,
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::DuplicateHello,
            ErrorCode::NotHelloed,
            ErrorCode::Unavailable,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(0xEE), None);
    }

    /// The worked hex-dump examples in `docs/PROTOCOL.md`, byte for
    /// byte. If this test fails, the written spec and the codec have
    /// drifted apart — fix whichever one is wrong and keep them in sync.
    #[test]
    fn documented_hex_dumps_decode_as_specified() -> Result<(), WireError> {
        // §8.1 Hello: reader 7, FEATURE_DOPPLER, no offset, clock 12.5 s.
        let hello: &[u8] = &[
            0x00, 0x00, 0x00, 0x20, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x29, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x72, 0xB0, 0x62, 0x0C,
        ];
        let (msg, used) = decode_frame(hello)?;
        assert_eq!(used, hello.len());
        let expect = Message::Hello {
            reader_id: 7,
            features: FEATURE_DOPPLER,
            clock_offset_s: 0.0,
            reader_clock_s: 12.5,
        };
        assert_eq!(msg, expect);
        assert_eq!(encode_frame(&expect), hello);

        // §8.2 Ack: session 1, FEATURE_DOPPLER granted.
        let ack: &[u8] = &[
            0x00, 0x00, 0x00, 0x10, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
            0x00, 0x01, 0xDB, 0x40, 0x3F, 0x64,
        ];
        let (msg, used) = decode_frame(ack)?;
        assert_eq!(used, ack.len());
        let expect = Message::Ack {
            session: 1,
            features: FEATURE_DOPPLER,
        };
        assert_eq!(msg, expect);
        assert_eq!(encode_frame(&expect), ack);

        // §8.3 Batch: seq 0, clock 2.0 s, one report (t=1.5 s, EPC
        // user 1 / tag 1, port 1, channel 5, φ=1.0 rad, −60 dBm,
        // 0.25 Hz Doppler).
        let batch: &[u8] = &[
            0x00, 0x00, 0x00, 0x45, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x3F, 0xF8, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
            0x01, 0x00, 0x05, 0x3F, 0xF0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x4E, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x3F, 0xD0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF6,
            0x50, 0x88, 0x25,
        ];
        let (msg, used) = decode_frame(batch)?;
        assert_eq!(used, batch.len());
        let expect = Message::Batch {
            seq: 0,
            reader_clock_s: 2.0,
            reports: vec![TagReport {
                time_s: 1.5,
                epc: Epc96::monitor(1, 1),
                antenna_port: 1,
                channel_index: 5,
                phase_rad: 1.0,
                rssi_dbm: -60.0,
                doppler_hz: 0.25,
            }],
        };
        assert_eq!(msg, expect);
        assert_eq!(encode_frame(&expect), batch);

        // §8.4 Heartbeat at clock 30.0 s, Goodbye, and a Reject carrying
        // DuplicateHello (0x05).
        let heartbeat: &[u8] = &[
            0x00, 0x00, 0x00, 0x10, 0x01, 0x03, 0x00, 0x00, 0x40, 0x3E, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0xA8, 0x53, 0xF0, 0xE3,
        ];
        let expect = Message::Heartbeat {
            reader_clock_s: 30.0,
        };
        assert_eq!(decode_frame(heartbeat)?, (expect.clone(), heartbeat.len()));
        assert_eq!(encode_frame(&expect), heartbeat);

        let goodbye: &[u8] = &[
            0x00, 0x00, 0x00, 0x08, 0x01, 0x04, 0x00, 0x00, 0x9E, 0xF1, 0x10, 0xA5,
        ];
        assert_eq!(decode_frame(goodbye)?, (Message::Goodbye, goodbye.len()));
        assert_eq!(encode_frame(&Message::Goodbye), goodbye);

        let reject: &[u8] = &[
            0x00, 0x00, 0x00, 0x09, 0x01, 0x06, 0x00, 0x00, 0x05, 0xAE, 0x43, 0x75, 0xFE,
        ];
        let expect = Message::Reject {
            code: ErrorCode::DuplicateHello,
        };
        assert_eq!(decode_frame(reject)?, (expect.clone(), reject.len()));
        assert_eq!(encode_frame(&expect), reject);
        Ok(())
    }
}
