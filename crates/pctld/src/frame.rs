//! Length-prefixed framing for the daemon's wire protocol.
//!
//! Every frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Framing is the only stateful layer of the protocol,
//! so it is the one that must survive hostile input: the decoder is a pure
//! push-based state machine (`push` bytes in, `next_frame` out) that
//! **never panics, never desyncs on fragmentation, and rejects oversized
//! declarations before buffering them** — a declared length beyond the
//! configured cap is reported as a structured [`FrameError`] with zero
//! bytes of the body read, because a 4 GiB length prefix must not translate
//! into a 4 GiB allocation.
//!
//! An oversized declaration *poisons* the decoder: with a corrupt length
//! there is no way to know where the next frame starts, so resynchronizing
//! would silently misparse the rest of the stream. Callers drop the
//! connection (never the accept loop) and the client reconnects.

use std::fmt;

/// Default cap on a single frame payload (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Size of the length prefix in bytes.
pub const HEADER_LEN: usize = 4;

/// Structured framing failure. Never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The 4-byte prefix declared a payload larger than the cap. The body
    /// was not buffered; the stream position is unrecoverable.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// Configured cap.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes, cap is {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one frame (length prefix + payload) onto `out`.
///
/// # Panics
/// Panics if `payload` exceeds `u32::MAX` bytes — callers cap frames far
/// below that.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Encode `value` as one compact-JSON frame onto `out`, writing the JSON
/// straight behind the length prefix (no intermediate string).
///
/// # Panics
/// Panics if the JSON exceeds `u32::MAX` bytes, as [`encode_frame`] does.
pub fn encode_json_frame<T: serde::Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    serde_json::to_writer(out, value).expect("JSON encoding is infallible");
    let len = u32::try_from(out.len() - at - 4).expect("frame payload exceeds u32");
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Push-based frame decoder. Feed arbitrary byte fragments with
/// [`push`](FrameDecoder::push); pull complete payloads with
/// [`next_frame`](FrameDecoder::next_frame).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
    max_frame: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder enforcing the given payload cap.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
            poisoned: None,
        }
    }

    /// Buffer incoming bytes. Fragmentation is arbitrary: one byte at a
    /// time, several frames at once — framing is reconstructed identically.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return; // position is unrecoverable; don't grow the buffer
        }
        // Compact once the dead prefix dominates, keeping buffering O(1)
        // amortized per byte.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next complete payload, `Ok(None)` if more bytes are
    /// needed. After an `Err` the decoder is poisoned and every later call
    /// returns the same error — drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let declared = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if declared > self.max_frame {
            let err = FrameError::Oversized {
                declared,
                max: self.max_frame,
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if avail.len() < HEADER_LEN + declared {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..HEADER_LEN + declared].to_vec();
        self.start += HEADER_LEN + declared;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_across_fragmentation() {
        let payloads: Vec<Vec<u8>> = vec![b"".to_vec(), b"{\"a\":1}".to_vec(), vec![0xFFu8; 300]];
        let mut wire = Vec::new();
        for p in &payloads {
            encode_frame(p, &mut wire);
        }
        // Byte-at-a-time delivery.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for &b in &wire {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_declaration_poisons_without_buffering_the_body() {
        let mut dec = FrameDecoder::new(64);
        dec.push(&1_000_000u32.to_be_bytes());
        let err = dec.next_frame().unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                declared: 1_000_000,
                max: 64
            }
        );
        // Poisoned: same structured error forever, no growth.
        dec.push(&[0u8; 128]);
        assert_eq!(dec.next_frame().unwrap_err(), err);
        assert!(dec.buffered() <= HEADER_LEN);
    }

    #[test]
    fn truncated_frame_waits_for_more_bytes() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire);
        let mut dec = FrameDecoder::new(64);
        dec.push(&wire[..wire.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.push(&wire[wire.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap(), Some(b"hello".to_vec()));
    }

    #[test]
    fn compaction_keeps_buffer_bounded() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut wire = Vec::new();
        encode_frame(&[7u8; 100], &mut wire);
        for _ in 0..1000 {
            dec.push(&wire);
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert!(
            dec.buf.len() < 16 * 1024,
            "dead prefix never compacted: {} bytes",
            dec.buf.len()
        );
    }
}
