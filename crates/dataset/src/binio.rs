//! Little-endian binary (de)serialization substrate: the byte codec behind
//! binary model files and run-journal records (FORMATS.md §3–4).
//!
//! [`ByteWriter`] appends fixed-width little-endian fields to a growing
//! buffer; [`ByteReader`] reads them back with a bounds check on every
//! field. A short read is a [`ByteError`] naming the field and the byte
//! offset, and every declared length is checked against the bytes left
//! before anything is allocated, so a corrupt count makes a reader fail —
//! it never makes it allocate. Floats are stored as their IEEE-754 bit
//! patterns, so a round trip is bit-exact, NaN payloads included.
//!
//! Counts and indices (feature indices, design columns, node and class
//! counts) are `u32`; work counters are `u64`.

/// Writer side: append little-endian fields to a growing buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// One byte (tags and flags).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A count or index as `u32`.
    ///
    /// # Panics
    /// Panics above `u32::MAX`. Every count this codec stores sizes an
    /// in-memory array of at least that many elements, so no model that
    /// fits in memory reaches it.
    pub fn len32(&mut self, v: usize) {
        assert!(
            v <= u32::MAX as usize,
            "count {v} does not fit the u32 field"
        );
        self.u32(v as u32);
    }

    /// A `u32` count followed by that many `f64`s.
    pub fn f64s(&mut self, values: &[f64]) {
        self.len32(values.len());
        self.buf.reserve(values.len() * 8);
        for v in values {
            self.f64(*v);
        }
    }

    /// A `u32` byte length followed by the UTF-8 bytes of `s`.
    pub fn str(&mut self, s: &str) {
        self.len32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finish, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A binary decode failure: where it happened and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteError {
    /// Byte offset of the offending field within the decoded buffer.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl ByteError {
    /// Error anchored at byte `offset`.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        ByteError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ByteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ByteError {}

impl From<ByteError> for crate::textio::TextError {
    fn from(e: ByteError) -> Self {
        crate::textio::TextError::from(e.to_string())
    }
}

/// Reader side: bounds-checked little-endian fields over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `bytes`. Offsets in errors are relative to
    /// this slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// An error at the current offset.
    pub fn error(&self, message: impl Into<String>) -> ByteError {
        ByteError::new(self.pos, message)
    }

    /// The next `n` bytes, or a short-read error naming `field`.
    pub fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], ByteError> {
        if n > self.remaining() {
            return Err(self.error(format!(
                "short read of `{field}`: needs {n} byte(s), {} left (truncated?)",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, field: &str) -> Result<[u8; N], ByteError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, field)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self, field: &str) -> Result<u8, ByteError> {
        Ok(self.take(1, field)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, field: &str) -> Result<u32, ByteError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, field: &str) -> Result<u64, ByteError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian bit pattern.
    pub fn f64(&mut self, field: &str) -> Result<f64, ByteError> {
        self.u64(field).map(f64::from_bits)
    }

    /// A `u32` index or count widened to `usize`.
    pub fn index(&mut self, field: &str) -> Result<usize, ByteError> {
        self.u32(field).map(|v| v as usize)
    }

    /// A `u32` element count whose elements take at least
    /// `min_elem_bytes` each, checked against the bytes left — so the
    /// caller can size a buffer by it.
    pub fn count(&mut self, field: &str, min_elem_bytes: usize) -> Result<usize, ByteError> {
        let at = self.pos;
        let n = self.index(field)?;
        self.check_room(at, n, min_elem_bytes, field)?;
        Ok(n)
    }

    fn check_room(
        &self,
        at: usize,
        n: usize,
        elem_bytes: usize,
        field: &str,
    ) -> Result<(), ByteError> {
        match n.checked_mul(elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(ByteError::new(
                at,
                format!(
                    "`{field}` declares {n} entries of {elem_bytes} byte(s), only {} byte(s) left",
                    self.remaining()
                ),
            )),
        }
    }

    /// A `u32` count followed by that many `f64`s.
    pub fn f64s(&mut self, field: &str) -> Result<Vec<f64>, ByteError> {
        let n = self.count(field, 8)?;
        let raw = self.take(n * 8, field)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect())
    }

    /// Exactly `n` `u64`s (the count is implied by an earlier field).
    pub fn u64s(&mut self, n: usize, field: &str) -> Result<Vec<u64>, ByteError> {
        self.check_room(self.pos, n, 8, field)?;
        let raw = self.take(n * 8, field)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// A `u32` byte length followed by that many bytes of UTF-8.
    pub fn str(&mut self, field: &str) -> Result<&'a str, ByteError> {
        let n = self.count(field, 1)?;
        let at = self.pos;
        let raw = self.take(n, field)?;
        std::str::from_utf8(raw).map_err(|_| ByteError::new(at, format!("`{field}` is not UTF-8")))
    }

    /// Require that every byte was consumed: a trailing byte is a second
    /// encoding of the same value, so decoders refuse it.
    pub fn finish(&self, what: &str) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} trailing byte(s) after the {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_bit_exact() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64s(&[
            0.1,
            f64::from_bits(0x7FF8_0000_0000_0BAD),
            f64::NEG_INFINITY,
        ]);
        w.str("multi\nline µ");
        w.len32(42);
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        let v = r.f64s("e").unwrap();
        assert_eq!(v[0].to_bits(), 0.1f64.to_bits());
        assert_eq!(v[1].to_bits(), 0x7FF8_0000_0000_0BAD);
        assert_eq!(v[2], f64::NEG_INFINITY);
        assert_eq!(r.str("f").unwrap(), "multi\nline µ");
        assert_eq!(r.index("g").unwrap(), 42);
        assert!(r.finish("test record").is_ok());
    }

    #[test]
    fn short_read_names_field_and_offset() {
        let bytes = [1u8, 2, 3, 4, 5, 6];
        let mut r = ByteReader::new(&bytes);
        r.u32("head").unwrap();
        let err = r.u64("svr_bias").unwrap_err();
        assert_eq!(err.offset, 4);
        let msg = err.to_string();
        assert!(msg.contains("byte 4") && msg.contains("svr_bias"), "{msg}");
    }

    #[test]
    fn declared_lengths_are_checked_before_allocation() {
        // A count of u32::MAX floats with 4 bytes behind it must fail on
        // the count, not try to allocate 32 GiB.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        w.u32(0);
        let bytes = w.finish();
        let err = ByteReader::new(&bytes).f64s("weights").unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.to_string().contains("weights"), "{err}");
        let err = ByteReader::new(&bytes[4..])
            .u64s(usize::MAX, "counts")
            .unwrap_err();
        assert!(err.to_string().contains("counts"), "{err}");
        // A string whose bytes are not UTF-8.
        let mut w = ByteWriter::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        assert!(ByteReader::new(w.as_bytes()).str("detail").is_err());
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let r = ByteReader::new(&[0u8]);
        let err = r.finish("section").unwrap_err();
        assert!(err.to_string().contains("1 trailing byte"), "{err}");
    }
}
