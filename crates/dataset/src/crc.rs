//! Checksums for durable on-disk artifacts: CRC-32 (IEEE) and FNV-1a 64.
//!
//! The run journal, model files and FCB datasets must detect torn or
//! corrupted writes — a process killed mid-`write` leaves a prefix of the
//! intended bytes, and resumable runs must distinguish "valid record" from
//! "trailing garbage". CRC-32 (the IEEE/zlib polynomial, reflected form)
//! guards individual records and files; FNV-1a 64 provides cheap content
//! fingerprints for header compatibility checks (config hash, dataset
//! fingerprint). Both are implemented here from the published algorithms so
//! no external dependency is needed, and both are stable across platforms
//! and releases — they are part of the on-disk format.
//!
//! Model loads and FCB opens checksum whole files, so the CRC-32 fold runs
//! near memory speed: on x86_64 with PCLMULQDQ, carry-less multiplies fold
//! 64 B per step ([`CrcFold::Clmul`], in [`crate::kernels`], the crate's
//! SIMD module); slice-by-8 tables, eight bytes per step, take the rest
//! and every input on other CPUs ([`CrcFold::SliceBy8`]). Both give the
//! same value, resolved once per process by [`kernels::active_crc_fold`].

use crate::kernels::{self, CrcFold};

/// The reflected IEEE CRC-32 polynomial (as used by zlib, PNG, gzip).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table reads fold eight input bytes
/// at once with the same result as eight bytewise steps.
static TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ CRC32_POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Fold `bytes` into a raw (pre-inversion) CRC state through `fold`: its
/// head by the carry-less fold when `fold` takes one, the rest slice-by-8.
fn crc32_update(fold: CrcFold, c: u32, bytes: &[u8]) -> u32 {
    let (c, tail) = kernels::crc32_head(fold, c, bytes);
    slice_by_8(c, tail)
}

/// Fold `bytes` into a raw CRC state, eight bytes per step.
fn slice_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    c
}

/// CRC-32 (IEEE) of `bytes`: standard init `0xFFFF_FFFF`, final inversion.
/// Matches zlib's `crc32(0, bytes)`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_for_fold(kernels::active_crc_fold(), bytes)
}

/// [`crc32`] through an explicit fold, whichever the process resolved
/// (equivalence tests hold every fold to the same values).
///
/// # Panics
/// Panics if `fold` is not [supported](CrcFold::supported) on this CPU.
pub fn crc32_for_fold(fold: CrcFold, bytes: &[u8]) -> u32 {
    !crc32_update(fold, 0xFFFF_FFFF, bytes)
}

/// Incremental CRC-32 (IEEE) for streaming writers that cannot hold a whole
/// extent in memory — folding byte runs one at a time yields exactly
/// [`crc32`] of their concatenation.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh CRC state (standard init `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running CRC.
    pub fn write(&mut self, bytes: &[u8]) {
        self.state = crc32_update(kernels::active_crc_fold(), self.state, bytes);
    }

    /// The CRC of everything written so far (final inversion applied;
    /// the state itself is not consumed).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher for content fingerprints.
///
/// Not cryptographic — it detects accidental mismatch (resuming a journal
/// against a different dataset or config), not adversarial collision.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Fold `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold an `f64` by its IEEE-754 bit pattern (bit-exact, NaN-stable).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Published IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn fnv64_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let mut data = b"fracjournal record payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn incremental_crc_matches_oneshot() {
        let mut c = Crc32::new();
        c.write(b"1234");
        c.write(b"");
        c.write(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn incremental_fnv_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn f64_hashing_is_bit_exact() {
        let mut a = Fnv64::new();
        a.write_f64(0.1 + 0.2);
        let mut b = Fnv64::new();
        b.write_f64(0.3);
        // 0.1 + 0.2 != 0.3 in IEEE-754; the fingerprint must see that.
        assert_ne!(a.finish(), b.finish());
    }
}
