//! Length-prefixed framing over byte streams.
//!
//! A frame is a little-endian `u32` body length followed by the body.
//! [`append_frame`] is the one place that writes the format; the runtime's
//! per-peer send buffers and [`write_frame`] both go through it.

use bytes::{Buf, BufMut};
use flexcast_types::{Error, Result};
use std::io::{Read, Write};

/// Maximum accepted frame size (16 MiB) — a defence against corrupt
/// length prefixes allocating unbounded memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of the length prefix in front of every body.
const HEADER: usize = 4;

/// The most [`read_frame`] reserves for a body before its bytes arrive:
/// larger bodies grow as they are read, so memory tracks bytes received,
/// not the length a peer claims.
const READ_CHUNK: usize = 64 * 1024;

/// Appends one frame — header and body — to `buf`. A body over
/// [`MAX_FRAME`] is an [`Error::Encode`] and leaves `buf` untouched.
pub fn append_frame(buf: &mut Vec<u8>, body: &[u8]) -> Result<()> {
    if body.len() > MAX_FRAME {
        return Err(Error::Encode(format!(
            "frame of {} bytes too large",
            body.len()
        )));
    }
    buf.reserve(HEADER + body.len());
    buf.put_u32_le(body.len() as u32);
    buf.put_slice(body);
    Ok(())
}

/// Writes one frame with a single `write_all`, then flushes `w`.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<()> {
    let mut frame = Vec::new();
    append_frame(&mut frame, body)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame written by [`append_frame`]. Returns `Ok(None)` on a
/// clean end-of-stream at a frame boundary; a stream that ends inside a
/// frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = (&header[..]).get_u32_le() as usize;
    if len > MAX_FRAME {
        return Err(Error::Decode(format!("frame length {len} exceeds maximum")));
    }
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(Error::Decode(format!(
            "stream ended {} bytes into a {len}-byte frame",
            body.len()
        )));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    /// The committed byte layout: a change to the format is a change here.
    #[test]
    fn frame_hex_vectors() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"").unwrap();
        assert_eq!(hex(&buf), "00000000");
        buf.clear();
        append_frame(&mut buf, b"hello").unwrap();
        assert_eq!(hex(&buf), "0500000068656c6c6f");
        let mut written = Vec::new();
        write_frame(&mut written, b"hello").unwrap();
        assert_eq!(written, buf, "write_frame writes what append_frame appends");

        // The largest body's length fills all four header bytes; only the
        // header is pinned, read back through a cursor.
        buf.clear();
        append_frame(&mut buf, &vec![0u8; MAX_FRAME]).unwrap();
        assert_eq!(hex(&buf[..HEADER]), "00000001");
        let back = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back.len(), MAX_FRAME);
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // header + 2 bytes of body
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut cur = Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn oversized_write_rejected() {
        let body = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &body).is_err());
        assert!(matches!(
            append_frame(&mut sink, &body),
            Err(Error::Encode(_))
        ));
        assert!(sink.is_empty(), "a rejected frame appends nothing");
    }
}
