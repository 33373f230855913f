//! Frame layer: every protocol-v2 message is one length-prefixed frame
//! with a fixed 24-byte checksummed header.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  AF 50 44 42  ("\xAF" "PDB")
//! 4       1     protocol version (2)
//! 5       1     opcode
//! 6       2     flags (u16 LE; bit 0 = TRACED, bit 1 = DEADLINE, rest reserved)
//! 8       8     request id (u64 LE)
//! 16      4     payload length (u32 LE, <= 16 MiB)
//! 20      4     FNV-1a-32 checksum of bytes [0, 20) (u32 LE)
//! 24      …     payload (payload-length bytes)
//! ```
//!
//! The first magic byte `0xAF` is a UTF-8 continuation byte, so it can
//! never start a legal v1 text-protocol line — the server's
//! first-bytes sniff distinguishes the protocols from one byte.
//!
//! ## Flags
//!
//! The flags field was reserved (always 0) until the tracing extension.
//! A request frame with [`FLAG_TRACED`] set prefixes its payload with an
//! 8-byte little-endian trace id; the rest of the payload decodes as
//! before, and the server links every span recorded while serving the
//! request under that id. A request frame with [`FLAG_DEADLINE`] set
//! additionally carries a 4-byte little-endian budget in milliseconds
//! (after the trace id, when both flags are set): the client's
//! remaining deadline, which the server propagates end to end so slow
//! shards fail fast with a typed `DEADLINE` error. Frames with
//! flags = 0 decode exactly as they always did, so pre-extension
//! clients interoperate unchanged. Unknown flag bits are a recoverable
//! [`WireError::Malformed`]: the header validated, so the stream stays
//! in sync.
//!
//! Error taxonomy (see [`WireError::is_recoverable`]): a frame whose
//! *header* validates (magic, checksum, length cap) keeps the stream in
//! sync even when its opcode or payload is garbage — the payload length
//! is trusted, the payload is consumed, and the peer gets a typed error
//! frame. Bad magic, a checksum mismatch, a length over the cap, or an
//! EOF mid-frame are fatal: the byte stream can no longer be trusted
//! and the connection must close.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `0xAF` (never a valid line-protocol first byte) + "PDB".
pub const MAGIC: [u8; 4] = [0xAF, b'P', b'D', b'B'];
/// The protocol version this crate speaks.
pub const PROTOCOL_VERSION: u8 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Payload size cap: 16 MiB. Anything larger is a fatal framing error
/// (a desynced or malicious stream, not a big result).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;
/// Header flag bit 0: the payload starts with an 8-byte LE trace id.
pub const FLAG_TRACED: u16 = 0x0001;
/// Header flag bit 1: the payload carries a 4-byte LE deadline budget
/// in milliseconds (after the trace id when [`FLAG_TRACED`] is also
/// set). The server clamps its own per-request deadline to the
/// client's remaining budget and propagates it down to the shard
/// workers, so a slow shard answers with a typed `DEADLINE` error
/// instead of stalling the pipeline.
pub const FLAG_DEADLINE: u16 = 0x0002;
/// Every flag bit this implementation understands; the rest are
/// reserved and rejected as recoverable `Malformed` errors.
pub const KNOWN_FLAGS: u16 = FLAG_TRACED | FLAG_DEADLINE;

/// FNV-1a 32-bit hash (the header checksum).
pub fn fnv1a_32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Typed wire errors. Decoding never panics: every malformed input maps
/// to one of these.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// EOF in the middle of a frame (fatal: the stream is desynced).
    Truncated {
        /// Bytes actually read.
        got: usize,
        /// Bytes the frame required.
        want: usize,
    },
    /// The four magic bytes did not match (fatal).
    BadMagic([u8; 4]),
    /// The header checksum did not match (fatal).
    BadChecksum {
        /// Checksum recomputed over the received header.
        expected: u32,
        /// Checksum carried by the header.
        found: u32,
    },
    /// Payload length over [`MAX_PAYLOAD`] (fatal).
    Oversized(u32),
    /// Unknown protocol version in a checksum-valid header (recoverable:
    /// the payload length is trusted and the stream stays in sync).
    BadVersion(u8),
    /// Unknown opcode in a checksum-valid header (recoverable).
    UnknownOpcode(u8),
    /// The payload of a known opcode failed to decode (recoverable).
    Malformed(String),
    /// The peer answered with something the protocol does not allow
    /// here (e.g. a request opcode where a response was expected).
    Unexpected(String),
}

impl WireError {
    /// Whether the connection can keep serving after this error.
    ///
    /// Recoverable errors arise from a frame whose checksummed header
    /// validated: its payload length was trusted and consumed, so the
    /// next header starts at a known byte — answer with an error frame
    /// and continue. Everything else means the stream itself is broken.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            WireError::BadVersion(_) | WireError::UnknownOpcode(_) | WireError::Malformed(_)
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} bytes")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "header checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            WireError::Oversized(n) => {
                write!(f, "payload length {n} over the {MAX_PAYLOAD}-byte cap")
            }
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Unexpected(msg) => write!(f, "unexpected frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version byte (not validated here; see
    /// [`WireError::BadVersion`]).
    pub version: u8,
    /// Opcode byte (not validated here; see
    /// [`WireError::UnknownOpcode`]).
    pub opcode: u8,
    /// Flag bits (bit 0 = [`FLAG_TRACED`], others reserved).
    pub flags: u16,
    /// Request id the response will be tagged with.
    pub request_id: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Serialize to the 24-byte wire form (checksum filled in).
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4] = self.version;
        buf[5] = self.opcode;
        buf[6..8].copy_from_slice(&self.flags.to_le_bytes());
        buf[8..16].copy_from_slice(&self.request_id.to_le_bytes());
        buf[16..20].copy_from_slice(&self.payload_len.to_le_bytes());
        let crc = fnv1a_32(&buf[0..20]);
        buf[20..24].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parse and validate a 24-byte header: magic, checksum, and the
    /// payload-length cap. Version and opcode are *not* validated — a
    /// checksum-valid header with a strange version or opcode keeps the
    /// stream in sync, so those are the decoder's (recoverable) problem.
    pub fn decode(buf: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
        if buf[0..4] != MAGIC {
            return Err(WireError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
        }
        let expected = fnv1a_32(&buf[0..20]);
        let found = u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]);
        if expected != found {
            return Err(WireError::BadChecksum { expected, found });
        }
        let payload_len = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Oversized(payload_len));
        }
        Ok(FrameHeader {
            version: buf[4],
            opcode: buf[5],
            flags: u16::from_le_bytes([buf[6], buf[7]]),
            request_id: u64::from_le_bytes([
                buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
            ]),
            payload_len,
        })
    }
}

/// One frame off the wire, header-validated but payload still raw.
/// Version/opcode sanity and payload decoding happen in the codec layer
/// ([`crate::codec::Request::decode`] / [`crate::codec::Response::decode`]),
/// where failures are recoverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Header version byte.
    pub version: u8,
    /// Header opcode byte.
    pub opcode: u8,
    /// Header flag bits (validated by the codec layer).
    pub flags: u16,
    /// Request id.
    pub request_id: u64,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Fill `buf` from `r`, retrying interrupts; returns how many bytes
/// arrived before EOF (== `buf.len()` on success).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Read one frame. Clean EOF before the first header byte is
/// [`WireError::Closed`]; EOF anywhere inside a frame is the fatal
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<RawFrame, WireError> {
    let mut head = [0u8; HEADER_LEN];
    let got = read_full(r, &mut head)?;
    if got == 0 {
        return Err(WireError::Closed);
    }
    if got < HEADER_LEN {
        return Err(WireError::Truncated {
            got,
            want: HEADER_LEN,
        });
    }
    let header = FrameHeader::decode(&head)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(WireError::Truncated {
            got: HEADER_LEN + got,
            want: HEADER_LEN + payload.len(),
        });
    }
    Ok(RawFrame {
        version: header.version,
        opcode: header.opcode,
        flags: header.flags,
        request_id: header.request_id,
        payload,
    })
}

/// Write one frame (header + payload). Fails with
/// [`WireError::Oversized`] before writing anything if the payload is
/// over the cap.
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    write_frame_flags(w, opcode, 0, request_id, payload)
}

/// [`write_frame`] with explicit flag bits (used by traced requests,
/// whose payload carries the trace-id prefix).
pub fn write_frame_flags(
    w: &mut impl Write,
    opcode: u8,
    flags: u16,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(WireError::Oversized(payload.len() as u32));
    }
    let header = FrameHeader {
        version: PROTOCOL_VERSION,
        opcode,
        flags,
        request_id,
        payload_len: payload.len() as u32,
    };
    // One write per frame: on a `TCP_NODELAY` socket a separate header
    // write goes out as its own segment.
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&header.encode());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = FrameHeader {
            version: PROTOCOL_VERSION,
            opcode: 0x42,
            flags: 0,
            request_id: 0xDEAD_BEEF_CAFE_F00D,
            payload_len: 12345,
        };
        assert_eq!(FrameHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn a_frame_goes_out_in_one_write() {
        /// Counts `write` calls and keeps the bytes.
        #[derive(Default)]
        struct Writes(usize, Vec<u8>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes::default();
        write_frame(&mut w, 0x42, 9, b"payload").unwrap();
        assert_eq!(w.0, 1, "header and payload in one write");
        let f = read_frame(&mut w.1.as_slice()).unwrap();
        assert_eq!((f.opcode, f.request_id), (0x42, 9));
        assert_eq!(f.payload, b"payload");
    }

    #[test]
    fn frame_round_trips_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x03, 7, b"hello wire").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.opcode, 0x03);
        assert_eq!(frame.request_id, 7);
        assert_eq!(frame.payload, b"hello wire");
        // Nothing left over.
        let mut rest = &buf[buf.len()..];
        assert!(matches!(read_frame(&mut rest), Err(WireError::Closed)));
    }

    #[test]
    fn corrupt_headers_are_typed_fatal_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x02, 1, b"x").unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadMagic(_))
        ));
        // Flipped bit inside the checksummed region.
        let mut bad = buf.clone();
        bad[9] ^= 0x40;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadChecksum { .. })
        ));
        // Truncated payload.
        let short = &buf[..buf.len() - 1];
        assert!(matches!(
            read_frame(&mut &short[..]),
            Err(WireError::Truncated { .. })
        ));
        // Truncated header.
        let short = &buf[..HEADER_LEN - 3];
        assert!(matches!(
            read_frame(&mut &short[..]),
            Err(WireError::Truncated { got: 21, want: 24 })
        ));
    }

    #[test]
    fn oversized_length_is_fatal_and_never_allocates() {
        let mut head = FrameHeader {
            version: PROTOCOL_VERSION,
            opcode: 0x02,
            flags: 0,
            request_id: 1,
            payload_len: MAX_PAYLOAD + 1,
        }
        .encode();
        // Re-checksum so only the length is at fault.
        let crc = fnv1a_32(&head[0..20]);
        head[20..24].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &head[..]),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn flags_round_trip_and_default_to_zero() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x03, 7, b"plain").unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap().flags, 0);
        let mut buf = Vec::new();
        write_frame_flags(&mut buf, 0x03, FLAG_TRACED, 7, b"traced").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.flags, FLAG_TRACED);
        assert_eq!(frame.payload, b"traced");
        // Flags are inside the checksummed region: corruption is caught.
        let mut bad = buf.clone();
        bad[6] ^= 0x02;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn magic_first_byte_is_not_printable_ascii() {
        // The v1 protocol is line-oriented ASCII; 0xAF can never start a
        // v1 command, which is what makes first-byte sniffing sound.
        assert!(!MAGIC[0].is_ascii());
    }

    #[test]
    fn recoverability_taxonomy() {
        assert!(WireError::BadVersion(9).is_recoverable());
        assert!(WireError::UnknownOpcode(0x7F).is_recoverable());
        assert!(WireError::Malformed("x".into()).is_recoverable());
        assert!(!WireError::Closed.is_recoverable());
        assert!(!WireError::BadMagic([0; 4]).is_recoverable());
        assert!(!WireError::Oversized(u32::MAX).is_recoverable());
        assert!(!WireError::Truncated { got: 0, want: 1 }.is_recoverable());
    }
}
