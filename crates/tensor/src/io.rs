//! Binary serialization primitives for persistent artifacts.
//!
//! The persistent artifact store (`neurofail_inject::store`) writes
//! fixed-layout binary records of f64 payloads — nominal checkpoints,
//! trained networks — whose integrity must be *checkable*, because the
//! store's contract is that on-disk corruption degrades to a cache miss,
//! never to a wrong value. This module provides the three substrate
//! pieces, kept in `tensor` because the payloads are matrices and raw
//! f64 bit patterns:
//!
//! * [`ByteWriter`] / [`ByteReader`] — a little-endian word codec.
//!   Everything serialises through 8-byte words (lengths, dimensions,
//!   `f64::to_bits`), so a record's byte image is a pure function of the
//!   payload's *bits* — bitwise-equal matrices always encode identically,
//!   on any host. The reader is fully bounds-checked and never panics on
//!   truncated or garbage input: every decode error surfaces as
//!   [`DecodeError`], which the store maps to a miss.
//! * [`checksum64`] — FNV-1a over the byte stream's 64-bit words (tail
//!   bytes zero-padded), SplitMix64-finalised: the same hash family the
//!   in-memory cache keys use (`input_set_hash`), applied to record
//!   payloads for per-record integrity.
//! * [`MappedFile`] — read-only zero-copy file access: `mmap(2)` on Unix
//!   (published records are immutable — the store replaces files only via
//!   rename, so a mapping never observes a partial write), a plain
//!   buffered read everywhere else. Either way the content is exposed as
//!   `&[u8]` and validated *before* any payload bytes are trusted.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Error decoding a serialized artifact: the input was truncated or held
/// an out-of-contract value. Deliberately carries no detail beyond a
/// static description — consumers treat every decode failure identically
/// (degrade to a miss), and corrupted bytes are not worth formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// One round of the SplitMix64 output function — the same finaliser the
/// workspace's content hashes use (`neurofail_par::seed::splitmix64`;
/// duplicated here because `tensor` sits below `par` in the crate DAG).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of 64-bit words, SplitMix64-finalised: the fold
/// behind [`checksum64`], exposed for content hashes whose input is
/// already words (an input set's dimensions and element bits). A pure
/// function of the words, stable across hosts and runs.
pub fn checksum64_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let h = words
        .into_iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v).wrapping_mul(FNV_PRIME));
    splitmix64(h)
}

/// FNV-1a over the stream's little-endian 64-bit words (a short tail is
/// zero-padded, with the byte length folded in first so `[0]` and `[0, 0]`
/// hash apart), SplitMix64-finalised. A pure function of the bytes —
/// stable across hosts and runs, which is what lets two processes agree
/// on whether a record is intact.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let tail = (!tail.is_empty()).then(|| {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        u64::from_le_bytes(w)
    });
    let words = chunks.map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    checksum64_words(std::iter::once(bytes.len() as u64).chain(words).chain(tail))
}

/// Append-only little-endian encoder for artifact payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one little-endian u64 word.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its raw bit pattern (sign-of-zero and NaN payloads
    /// included — serialization is bitwise, not numeric).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed f64 slice, element bits in order.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Append a length-prefixed byte blob, zero-padded to the next word
    /// boundary so the stream stays word-aligned.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        let pad = (8 - bytes.len() % 8) % 8;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
    }

    /// Append a length-prefixed UTF-8 string (bytes, zero-padded to the
    /// next word boundary so the stream stays word-aligned).
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Finish, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte image.
///
/// Every accessor returns [`DecodeError`] instead of panicking on
/// truncated input — a hard requirement, since the reader's inputs
/// include arbitrarily corrupted on-disk records.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed — decoders check this at
    /// the end so trailing garbage is rejected, not silently ignored.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one little-endian u64 word.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError("truncated u64"))?;
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    /// Read an f64 from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `len` declared by [`ByteWriter::put_u64`]-style prefixes and
    /// sanity-bound it: the declared element count must fit in the bytes
    /// actually remaining (`elem_bytes` per element), so a corrupted
    /// length can never trigger an over-allocation.
    pub fn get_len(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| DecodeError("length overflows usize"))?;
        if n.checked_mul(elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(DecodeError("declared length exceeds input"));
        }
        Ok(n)
    }

    /// Read a length-prefixed f64 slice written by
    /// [`ByteWriter::put_f64_slice`].
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.get_len(8)?;
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(self.get_f64()?);
        }
        Ok(vs)
    }

    /// Read a length-prefixed byte blob written by
    /// [`ByteWriter::put_bytes`], borrowing it from the input (zero-copy —
    /// the store's bitwise verification compares these slices directly
    /// against freshly encoded expectations).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.get_len(1)?;
        let padded = n + (8 - n % 8) % 8;
        let end = self
            .pos
            .checked_add(padded)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError("truncated bytes"))?;
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos = end;
        Ok(bytes)
    }

    /// Read a length-prefixed string written by [`ByteWriter::put_str`].
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let bytes = self.get_bytes()?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| DecodeError("invalid utf-8"))?
            .to_string())
    }
}

/// A read-only view of a whole file: `mmap(2)`-backed on Unix (zero-copy
/// — record validation and bitwise verification run directly against the
/// page cache), a plain read into memory elsewhere. Empty files map to an
/// empty slice without touching `mmap` (which rejects zero lengths).
///
/// The store's publish discipline is what makes mapping sound: record
/// files are written to a temp path and `rename(2)`d into place, never
/// modified in place, and an unlinked file's pages stay valid under any
/// live mapping on Unix. A reader can therefore never observe a torn
/// in-place write through a `MappedFile` — torn *publishes* leave a temp
/// file that is simply never mapped.
#[derive(Debug)]
pub struct MappedFile {
    inner: Mapping,
}

#[derive(Debug)]
enum Mapping {
    #[cfg(unix)]
    Mmap {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

// The mmap variant is an immutable private mapping; nothing aliases it
// mutably, so sharing the view across threads is sound.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    // Minimal direct bindings (the workspace is offline and carries no
    // `libc` crate; these symbols come from the platform libc every Rust
    // binary already links).
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl MappedFile {
    /// Map `path` read-only. Fails like `File::open` on a missing or
    /// unreadable file; on Unix, falls back to a plain read if `mmap`
    /// itself fails (e.g. a filesystem without mapping support).
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| io::Error::other("file too large to map"))?;
        #[cfg(unix)]
        if len > 0 {
            use std::os::fd::AsRawFd;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != sys::MAP_FAILED {
                return Ok(MappedFile {
                    inner: Mapping::Mmap { ptr, len },
                });
            }
        }
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(MappedFile {
            inner: Mapping::Owned(buf),
        })
    }

    /// The mapped content.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Mapping::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Mapping::Owned(buf) => buf,
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(unix)]
            Mapping::Mmap { len, .. } => *len,
            Mapping::Owned(buf) => buf.len(),
        }
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this view is an actual memory mapping (as opposed to the
    /// owned-buffer fallback) — exposed for tests and diagnostics.
    pub fn is_mmapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Mapping::Mmap { .. } => true,
            Mapping::Owned(_) => false,
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapping::Mmap { ptr, len } = self.inner {
            // Failure leaks the mapping, which is the safe direction.
            unsafe { sys::munmap(ptr, len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_bitwise() {
        let mut w = ByteWriter::new();
        w.put_u64(0);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64_slice(&[1.5, -2.25, 1e-300]);
        w.put_str("checkpoint");
        w.put_str(""); // empty and word-aligned strings both round-trip
        w.put_str("12345678");
        let bytes = w.into_bytes();
        assert_eq!(bytes.len() % 8, 0, "stream stays word-aligned");

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 0);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        let vs = r.get_f64_vec().unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[1].to_bits(), (-2.25f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "checkpoint");
        assert_eq!(r.get_str().unwrap(), "");
        assert_eq!(r.get_str().unwrap(), "12345678");
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_rejects_truncation_and_bad_lengths() {
        let mut w = ByteWriter::new();
        w.put_f64_slice(&[1.0, 2.0]);
        let bytes = w.into_bytes();
        // Truncate mid-element: the declared length no longer fits.
        let mut r = ByteReader::new(&bytes[..bytes.len() - 4]);
        assert!(r.get_f64_vec().is_err());
        // A huge declared length must be rejected before any allocation.
        let mut huge = ByteWriter::new();
        huge.put_u64(u64::MAX);
        let huge = huge.into_bytes();
        assert_eq!(
            ByteReader::new(&huge).get_len(8),
            Err(DecodeError("declared length exceeds input"))
        );
        // Non-UTF-8 string payloads are rejected, not panicked on.
        let mut s = ByteWriter::new();
        s.put_u64(2);
        let mut sb = s.into_bytes();
        sb.extend_from_slice(&[0xFF, 0xFE, 0, 0, 0, 0, 0, 0]);
        assert!(ByteReader::new(&sb).get_str().is_err());
        // Empty input fails cleanly on the first word.
        assert!(ByteReader::new(&[]).get_u64().is_err());
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Store records and fleet frames written by any build carry these
        // values: the fold must never change.
        let bytes: Vec<u8> = (0u8..13).collect();
        assert_eq!(checksum64(&[]), 0x71b8_262b_b6e2_e086);
        assert_eq!(checksum64(&bytes[..8]), 0x09c7_5ea2_a734_6e20);
        assert_eq!(checksum64(&bytes), 0x92a1_46e7_9a98_b5b6);
    }

    #[test]
    fn checksum_is_content_sensitive() {
        let a = ByteWriter::new();
        assert_eq!(checksum64(a.bytes()), checksum64(&[]));
        let mut w = ByteWriter::new();
        w.put_f64_slice(&[0.25, -0.5, 3.0]);
        let bytes = w.into_bytes();
        let c = checksum64(&bytes);
        assert_eq!(c, checksum64(&bytes), "deterministic");
        // One flipped bit anywhere changes the checksum.
        for byte in [0, 8, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            assert_ne!(checksum64(&bad), c, "flip at byte {byte}");
        }
        // Length is part of the content: a zero-extended stream differs.
        let mut ext = bytes.clone();
        ext.extend_from_slice(&[0; 8]);
        assert_ne!(checksum64(&ext), c);
        // Tail handling: non-multiple-of-8 inputs hash and differ too.
        assert_ne!(checksum64(&bytes[..9]), checksum64(&bytes[..10]));
    }

    #[test]
    fn mapped_file_reads_content_and_handles_empty() {
        let dir = std::env::temp_dir().join(format!("nf-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let mut w = ByteWriter::new();
        w.put_f64_slice(&[1.0, -2.0, 0.5]);
        std::fs::write(&path, w.bytes()).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), w.bytes());
        assert_eq!(map.len(), w.len());
        assert!(!map.is_empty());
        #[cfg(unix)]
        assert!(map.is_mmapped(), "non-empty files map on unix");
        // Unlinking under a live mapping keeps the view valid (the store's
        // eviction-vs-reader safety argument).
        std::fs::remove_file(&path).unwrap();
        assert_eq!(map.bytes(), w.bytes());
        drop(map);

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        let map = MappedFile::open(&empty).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), b"");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(MappedFile::open(&dir.join("missing.bin")).is_err());
    }
}
