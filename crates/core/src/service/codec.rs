//! The one decoder of untrusted bytes: strict varint primitives and the
//! bounds-checked [`Reader`] that both the snapshot format and the
//! `msoc_net` wire protocol decode through.
//!
//! Almost every integer is a **LEB128 varint**: seven payload bits per
//! byte, least-significant group first, high bit set on every byte except
//! the last. Signed deltas (snapshot placement starts relative to the
//! parent checkpoint or the previous entry) are **zigzag-mapped** first
//! (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`) so small magnitudes of either
//! sign stay short.
//!
//! The reader is strict: encodings longer than ten bytes, payload bits past
//! the 64th, and non-canonical zero continuation tails are all rejected as
//! corruption rather than silently accepted, so every valid value has
//! exactly one encoding and flipped bytes cannot alias to a different valid
//! stream. Collection counts are checked against the bytes actually
//! remaining before anything is reserved ([`Reader::count`]), so a lying
//! count can never force an allocation. A flipped byte on the wire
//! therefore fails exactly like a flipped byte on disk, and each format
//! lifts the resulting [`DecodeError`] into its own error type.

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended inside a value, or a count claims more elements
    /// than the remaining bytes can hold.
    Truncated,
    /// A value is malformed (description attached).
    Corrupt(String),
}

/// Append `value` as a LEB128 varint.
pub fn write_uv(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `value` zigzag-mapped, then LEB128.
pub fn write_iv(out: &mut Vec<u8>, value: i64) {
    write_uv(out, ((value << 1) ^ (value >> 63)) as u64);
}

/// A bounds-checked cursor over untrusted bytes. Every read fails with
/// [`DecodeError::Truncated`] when the stream ends early and with
/// [`DecodeError::Corrupt`] for a malformed value; none panics.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// One bool byte (`0` or `1`).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// One strict LEB128 varint.
    pub fn uv(&mut self) -> Result<u64, DecodeError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
            self.pos += 1;
            let payload = u64::from(byte & 0x7f);
            if shift == 63 && payload > 1 {
                return Err(DecodeError::Corrupt("varint overflows 64 bits".into()));
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift != 0 {
                    return Err(DecodeError::Corrupt("non-canonical varint".into()));
                }
                return Ok(value);
            }
        }
        Err(DecodeError::Corrupt("varint longer than 10 bytes".into()))
    }

    /// One zigzag varint.
    pub fn iv(&mut self) -> Result<i64, DecodeError> {
        let value = self.uv()?;
        Ok(((value >> 1) as i64) ^ -((value & 1) as i64))
    }

    /// One varint that must fit a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.uv()?).map_err(|_| DecodeError::Corrupt("u32 overflow".into()))
    }

    /// One little-endian IEEE-754 double.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))))
    }

    /// A collection count, rejecting counts the remaining bytes cannot
    /// possibly hold (`min_bytes` per element, at least 1) — the
    /// no-allocation-from-untrusted-lengths guard.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.uv()?;
        if n > (self.remaining() / min_bytes.max(1)) as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// A [`count`](Self::count)-prefixed sequence, each element decoded
    /// by `item` (which consumes at least `min_bytes`).
    pub fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A varint-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.count(1)?;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DecodeError::Corrupt("string is not UTF-8".into()))
    }

    /// Ends decoding, requiring the whole stream to have been consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Corrupt(format!("{n} trailing bytes after the last record"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_uv(bytes: &[u8]) -> Result<u64, DecodeError> {
        Reader::new(bytes).uv()
    }

    fn roundtrip_uv(value: u64) {
        let mut buf = Vec::new();
        write_uv(&mut buf, value);
        let mut r = Reader::new(&buf);
        assert_eq!(r.uv().expect("roundtrip"), value);
        assert_eq!(r.finish(), Ok(()), "no trailing bytes for {value}");
    }

    #[test]
    fn unsigned_values_roundtrip() {
        for value in [0, 1, 127, 128, 255, 300, 16383, 16384, u64::from(u32::MAX), u64::MAX] {
            roundtrip_uv(value);
        }
    }

    #[test]
    fn signed_values_roundtrip() {
        for value in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_iv(&mut buf, value);
            assert_eq!(Reader::new(&buf).iv().expect("roundtrip"), value);
        }
    }

    #[test]
    fn small_magnitudes_encode_short() {
        let mut buf = Vec::new();
        write_iv(&mut buf, -3);
        assert_eq!(buf.len(), 1, "zigzag keeps small negatives in one byte");
    }

    #[test]
    fn truncated_and_overlong_encodings_are_rejected() {
        assert_eq!(read_uv(&[0x80]), Err(DecodeError::Truncated));
        // Eleven continuation bytes can never be a canonical u64.
        assert!(matches!(read_uv(&[0x80u8; 11]), Err(DecodeError::Corrupt(_))));
        // 0x80 0x00 re-encodes zero with a wasted byte: non-canonical.
        assert!(matches!(read_uv(&[0x80, 0x00]), Err(DecodeError::Corrupt(_))));
        // Payload bits past the 64th.
        let wide = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(read_uv(&wide), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_truncation() {
        // Three elements of at least two bytes need six bytes; five remain.
        let mut buf = Vec::new();
        write_uv(&mut buf, 3);
        buf.extend_from_slice(&[0; 5]);
        assert_eq!(Reader::new(&buf).count(2), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&buf).count(1), Ok(3));
        let items = Reader::new(&buf).seq(1, Reader::u8).expect("three bytes");
        assert_eq!(items, vec![0, 0, 0]);
    }
}
