//! The one owner of the shared byte layouts: strict varint primitives,
//! the bounds-checked [`Reader`] that both the snapshot format and the
//! `msoc_net` wire protocol decode through, and the [`Codec`] encodings
//! of the domain types that cross the network — [`MixedSignalSoc`] (with
//! its digital [`Module`]s), [`AnalogCoreSpec`], [`CoreEdit`],
//! [`JobSpec`], [`SharingConfig`], [`CostWeights`] and [`Priority`].
//!
//! Almost every integer is a **LEB128 varint**: seven payload bits per
//! byte, least-significant group first, high bit set on every byte except
//! the last. Signed deltas (snapshot placement starts relative to the
//! parent checkpoint or the previous entry) are **zigzag-mapped** first
//! (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`) so small magnitudes of either
//! sign stay short. Strings are a varint byte length plus UTF-8 bytes,
//! floats their little-endian IEEE-754 bits, and sequences a varint count
//! plus their elements.
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
//!
//! # Validation
//!
//! Decoders build domain values through their fallible constructors
//! ([`SharingConfig::try_new`], [`CostWeights::try_new`]), so each
//! invariant is written once, and a value the constructor refuses decodes
//! to [`DecodeError::Corrupt`] instead of panicking. Two checks belong to
//! decoding itself: a sharing configuration's core count is capped at 64
//! before the coverage map it sizes is allocated, and analog core names
//! resolve against the paper catalog ([`paper_cores`]) —
//! [`AnalogCoreSpec::name`] is a `&'static str`, so decoding never leaks
//! the untrusted strings it reads.

use msoc_analog::{paper_cores, AnalogCoreSpec, AnalogTestKind, AnalogTestSpec, CoreId};
use msoc_itc02::{Module, ModuleTest, Soc};

use super::{CoreEdit, JobSpec, Priority};
use crate::{CostWeights, MixedSignalSoc, SharingConfig};

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

/// Append `s` as a varint byte length plus its UTF-8 bytes (read by
/// [`Reader::string`]).
pub fn write_string(out: &mut Vec<u8>, s: &str) {
    write_uv(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append `value` as its little-endian IEEE-754 bits (read by
/// [`Reader::f64`]).
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Append `items` as a varint count plus each element written by `item`
/// (read by [`Reader::seq`]).
pub fn write_seq<T>(out: &mut Vec<u8>, items: &[T], mut item: impl FnMut(&T, &mut Vec<u8>)) {
    write_uv(out, items.len() as u64);
    for x in items {
        item(x, out);
    }
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

    /// One varint that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.uv()?).map_err(|_| DecodeError::Corrupt("usize overflow".into()))
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

    /// One byte naming an entry of `table` by its index (`what` names
    /// the table in the error).
    pub fn code<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T, DecodeError> {
        let code = self.u8()?;
        table
            .get(usize::from(code))
            .copied()
            .ok_or_else(|| DecodeError::Corrupt(format!("unknown {what} {code}")))
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

/// A type whose byte layout this module owns: [`encode`](Codec::encode)
/// appends a value, [`decode`](Codec::decode) reads one back strictly.
pub trait Codec: Sized {
    /// Appends this value's encoding.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or malformed bytes, or on a value the
    /// type's constructor refuses.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// The largest sharing-configuration core count a decoder accepts: the
/// count sizes an allocation before any group is checked.
const MAX_CONFIG_CORES: u64 = 64;

impl Codec for Module {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [self.id, self.level, self.inputs, self.outputs, self.bidirs] {
            write_uv(out, u64::from(v));
        }
        write_seq(out, &self.scan_chains, |&c, out| write_uv(out, u64::from(c)));
        write_seq(out, &self.tests, |t, out| {
            write_uv(out, t.patterns);
            out.push(u8::from(t.scan_used));
            out.push(u8::from(t.tam_used));
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Module {
            id: r.u32()?,
            level: r.u32()?,
            inputs: r.u32()?,
            outputs: r.u32()?,
            bidirs: r.u32()?,
            scan_chains: r.seq(1, Reader::u32)?,
            tests: r.seq(3, |r| {
                Ok(ModuleTest { patterns: r.uv()?, scan_used: r.bool()?, tam_used: r.bool()? })
            })?,
        })
    }
}

impl Codec for AnalogCoreSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.id.index() as u8);
        write_string(out, self.name);
        out.push(self.resolution_bits);
        write_seq(out, &self.tests, |t, out| {
            out.push(t.kind as u8);
            for hz in [t.f_low_hz, t.f_high_hz, t.sample_rate_hz] {
                write_f64(out, hz);
            }
            write_uv(out, t.cycles);
            write_uv(out, u64::from(t.tam_width));
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let id = r.code(&CoreId::ALL, "analog core id")?;
        let name = r.string()?;
        let name =
            paper_cores().iter().find(|c| c.name == name).map(|c| c.name).ok_or_else(|| {
                DecodeError::Corrupt(format!("unknown analog core name {name:?}"))
            })?;
        let resolution_bits = r.u8()?;
        let tests = r.seq(27, |r| {
            Ok(AnalogTestSpec {
                kind: r.code(&AnalogTestKind::ALL, "analog test kind")?,
                f_low_hz: r.f64()?,
                f_high_hz: r.f64()?,
                sample_rate_hz: r.f64()?,
                cycles: r.uv()?,
                tam_width: r.u32()?,
            })
        })?;
        Ok(AnalogCoreSpec { id, name, resolution_bits, tests })
    }
}

impl Codec for MixedSignalSoc {
    fn encode(&self, out: &mut Vec<u8>) {
        write_string(out, &self.name);
        write_string(out, &self.digital.name);
        write_seq(out, &self.digital.modules, Module::encode);
        write_seq(out, &self.analog, AnalogCoreSpec::encode);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let name = r.string()?;
        let digital = Soc::new(r.string()?, r.seq(7, Module::decode)?);
        Ok(MixedSignalSoc::new(name, digital, r.seq(4, AnalogCoreSpec::decode)?))
    }
}

impl Codec for CoreEdit {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CoreEdit::ReplaceAnalog { index, core } => {
                out.push(0);
                write_uv(out, *index as u64);
                core.encode(out);
            }
            CoreEdit::ReplaceDigital { id, module } => {
                out.push(1);
                write_uv(out, u64::from(*id));
                module.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => CoreEdit::ReplaceAnalog { index: r.usize()?, core: AnalogCoreSpec::decode(r)? },
            1 => CoreEdit::ReplaceDigital { id: r.u32()?, module: Module::decode(r)? },
            other => return Err(DecodeError::Corrupt(format!("unknown edit tag {other}"))),
        })
    }
}

impl Codec for JobSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, widths) = match self {
            JobSpec::Single { width } => {
                out.push(0);
                write_uv(out, u64::from(*width));
                return;
            }
            JobSpec::Table { widths } => (1, widths),
            JobSpec::BestWidth { widths } => (2, widths),
        };
        out.push(tag);
        write_seq(out, widths, |&w, out| write_uv(out, u64::from(w)));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => JobSpec::Single { width: r.u32()? },
            1 => JobSpec::Table { widths: r.seq(1, Reader::u32)? },
            2 => JobSpec::BestWidth { widths: r.seq(1, Reader::u32)? },
            other => return Err(DecodeError::Corrupt(format!("unknown spec tag {other}"))),
        })
    }
}

impl Codec for SharingConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        write_uv(out, self.n_cores() as u64);
        write_seq(out, self.groups(), |g, out| {
            write_seq(out, g, |&c, out| write_uv(out, c as u64));
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n_cores = r.uv()?;
        if n_cores > MAX_CONFIG_CORES {
            return Err(DecodeError::Corrupt(format!("implausible core count {n_cores}")));
        }
        let groups = r.seq(1, |r| r.seq(1, Reader::usize))?;
        SharingConfig::try_new(n_cores as usize, groups).map_err(DecodeError::Corrupt)
    }
}

impl Codec for CostWeights {
    fn encode(&self, out: &mut Vec<u8>) {
        write_f64(out, self.time());
        write_f64(out, self.area());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        CostWeights::try_new(r.f64()?, r.f64()?).map_err(DecodeError::Corrupt)
    }
}

/// Priorities in declaration order: a priority's code is its index.
const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

impl Codec for Priority {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.code(&PRIORITIES, "priority")
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
