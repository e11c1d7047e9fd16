//! Versioned binary checkpoint I/O.
//!
//! The wire format is deliberately tiny and dependency-free: every section
//! starts with an 8-byte magic, a `u32` version and a `u8` *kind* tag, and
//! all integers/floats are little-endian.  The parameter payload written by
//! [`crate::ParamStore::save_to`] is the raw `f32` bit pattern of every
//! tensor, so a save/load round trip is **bit-identical** — a reloaded model
//! produces exactly the estimates the saved one did.
//!
//! Versioning policy: the layout of a section may only change together with
//! a bump of [`FORMAT_VERSION`]; loaders reject any version they do not
//! know with [`CheckpointError::UnsupportedVersion`] instead of guessing.
//! Malformed input of any other sort (wrong magic, truncation, absurd
//! lengths, wrong kind tag) fails with the corresponding typed error —
//! never a panic and never a partially-applied load.

use std::fmt;
use std::io::{Read, Write};

/// Magic prefix of every checkpoint section written by this workspace.
pub const MAGIC: [u8; 8] = *b"E2ECKPT\0";

/// Current checkpoint format version.
///
/// * **v1** — model state only: config sections, vocab, raw-f32 parameter
///   values.
/// * **v2** — adds an optional trailing *training-state* block to the
///   tree-estimator and MSCN sections (Adam step count + first/second
///   moments, epochs completed, early-stop state) so training resumes
///   bit-identically from a checkpoint.  The shared header and every v1
///   section layout are unchanged; v1 files remain loadable.
/// * **v3** — adds an optional trailing *quantized-weights* block to the
///   tree-estimator section (per-channel symmetric int8 codes + f32 scales
///   for each 2-D weight matrix), behind a presence flag.  The int8 tier
///   that read it is gone: writers emit the absent flag, and readers
///   shape-check a present block against the model and skip it.  v1/v2
///   files remain loadable; [`MIN_FORMAT_VERSION`] is unchanged.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Section kind tag: a bare [`crate::ParamStore`] parameter payload.
pub const KIND_PARAMS: u8 = 0;
/// Section kind tag: a full tree-model estimator checkpoint.
pub const KIND_TREE_ESTIMATOR: u8 = 1;
/// Section kind tag: an MSCN estimator checkpoint.
pub const KIND_MSCN: u8 = 2;

/// Upper bound on any serialized string length (names, vocab keys).
const MAX_STRING_LEN: u32 = 1 << 16;
/// Upper bound on a single tensor's scalar count (~1 GiB of f32s).
const MAX_TENSOR_LEN: u64 = 1 << 28;
/// Upper bound on per-section element counts (params, vocab entries).
const MAX_COUNT: u64 = 1 << 24;

/// Why a checkpoint could not be written or read.
///
/// Every failure mode of a hostile or stale file maps to a variant here;
/// loading never panics and never leaves the target half-updated.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (open, read, write, create).
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic { found: [u8; 8] },
    /// The file's format version is newer (or older) than this build knows.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The section is of a different kind than the loader expected
    /// (e.g. feeding an MSCN checkpoint to the tree estimator).
    WrongKind { found: u8, expected: u8 },
    /// The file ended in the middle of the named field.
    Truncated { while_reading: &'static str },
    /// A structurally invalid value (absurd length, bad enum tag, non-UTF-8
    /// name, ...).
    Corrupt(String),
    /// A tensor in the file does not match the model being restored.
    ShapeMismatch { name: String, expected: (usize, usize), found: (usize, usize) },
    /// Parameter order/name in the file does not match the model.
    NameMismatch { expected: String, found: String },
    /// The file holds a different number of tensors than the model.
    CountMismatch { expected: usize, found: usize },
    /// The checkpoint was produced under a different feature-extractor
    /// vocabulary than the estimator it is being loaded into.
    VocabMismatch(String),
    /// The operation is not available (backend cannot checkpoint, or the
    /// estimator has no fitted model to save).
    Unsupported(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:?}, expected {MAGIC:?})")
            }
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported checkpoint version {found} (this build reads version {supported})")
            }
            CheckpointError::WrongKind { found, expected } => {
                write!(f, "checkpoint kind {found} does not match the expected kind {expected}")
            }
            CheckpointError::Truncated { while_reading } => {
                write!(f, "checkpoint truncated while reading {while_reading}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::ShapeMismatch { name, expected, found } => {
                write!(
                    f,
                    "parameter {name:?} has shape {}x{} in the checkpoint but {}x{} in the model",
                    found.0, found.1, expected.0, expected.1
                )
            }
            CheckpointError::NameMismatch { expected, found } => {
                write!(f, "parameter order mismatch: model expects {expected:?}, checkpoint holds {found:?}")
            }
            CheckpointError::CountMismatch { expected, found } => {
                write!(f, "checkpoint holds {found} tensors, the model has {expected}")
            }
            CheckpointError::VocabMismatch(what) => {
                write!(f, "checkpoint was saved under a different extractor vocabulary: {what}")
            }
            CheckpointError::Unsupported(what) => write!(f, "checkpoint operation unsupported: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Write the shared section header: magic, format version, kind tag.
pub fn write_header(w: &mut impl Write, kind: u8) -> Result<(), CheckpointError> {
    w.write_all(&MAGIC)?;
    write_u32(w, FORMAT_VERSION)?;
    w.write_all(&[kind])?;
    Ok(())
}

/// Read and validate a section header against the expected kind tag.
/// Returns the section's format version (any supported one — readers of
/// versioned sections branch on it for optional trailing blocks).
pub fn read_header(r: &mut impl Read, expected_kind: u8) -> Result<u32, CheckpointError> {
    let mut magic = [0u8; 8];
    read_exact(r, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic { found: magic });
    }
    let version = read_u32(r, "format version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    let mut kind = [0u8; 1];
    read_exact(r, &mut kind, "section kind")?;
    if kind[0] != expected_kind {
        return Err(CheckpointError::WrongKind { found: kind[0], expected: expected_kind });
    }
    Ok(version)
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { while_reading: what }
        } else {
            CheckpointError::Io(e)
        }
    })
}

/// Write a `u8`.
pub fn write_u8(w: &mut impl Write, v: u8) -> Result<(), CheckpointError> {
    Ok(w.write_all(&[v])?)
}

/// Read a `u8`; `what` names the field in truncation errors.
pub fn read_u8(r: &mut impl Read, what: &'static str) -> Result<u8, CheckpointError> {
    let mut b = [0u8; 1];
    read_exact(r, &mut b, what)?;
    Ok(b[0])
}

/// Write a little-endian `u32`.
pub fn write_u32(w: &mut impl Write, v: u32) -> Result<(), CheckpointError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

/// Read a little-endian `u32`.
pub fn read_u32(r: &mut impl Read, what: &'static str) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

/// Write a little-endian `u64`.
pub fn write_u64(w: &mut impl Write, v: u64) -> Result<(), CheckpointError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

/// Read a little-endian `u64`.
pub fn read_u64(r: &mut impl Read, what: &'static str) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

/// Read a `u64` element/entry count, bounding it against absurd values so a
/// corrupt file cannot drive a huge allocation.
pub fn read_count(r: &mut impl Read, what: &'static str) -> Result<usize, CheckpointError> {
    let n = read_u64(r, what)?;
    if n > MAX_COUNT {
        return Err(CheckpointError::Corrupt(format!("{what} of {n} exceeds the sanity bound {MAX_COUNT}")));
    }
    Ok(n as usize)
}

/// Write a little-endian `f64` (exact bit pattern).
pub fn write_f64(w: &mut impl Write, v: f64) -> Result<(), CheckpointError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

/// Read a little-endian `f64` (exact bit pattern).
pub fn read_f64(r: &mut impl Read, what: &'static str) -> Result<f64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, what)?;
    Ok(f64::from_le_bytes(b))
}

/// Write a length-prefixed UTF-8 string.
pub fn write_str(w: &mut impl Write, s: &str) -> Result<(), CheckpointError> {
    let bytes = s.as_bytes();
    if bytes.len() as u64 > MAX_STRING_LEN as u64 {
        return Err(CheckpointError::Corrupt(format!("string of {} bytes exceeds the format bound", bytes.len())));
    }
    write_u32(w, bytes.len() as u32)?;
    Ok(w.write_all(bytes)?)
}

/// Read a length-prefixed UTF-8 string.
pub fn read_str(r: &mut impl Read, what: &'static str) -> Result<String, CheckpointError> {
    let len = read_u32(r, what)?;
    if len > MAX_STRING_LEN {
        return Err(CheckpointError::Corrupt(format!("{what} length {len} exceeds the sanity bound {MAX_STRING_LEN}")));
    }
    let mut buf = vec![0u8; len as usize];
    read_exact(r, &mut buf, what)?;
    String::from_utf8(buf).map_err(|_| CheckpointError::Corrupt(format!("{what} is not valid UTF-8")))
}

/// Write an `f32` slice as its exact little-endian bit patterns.
pub fn write_f32_slice(w: &mut impl Write, data: &[f32]) -> Result<(), CheckpointError> {
    let mut buf = Vec::with_capacity(data.len() * 4);
    for &x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    Ok(w.write_all(&buf)?)
}

/// Read `len` little-endian `f32`s, bounding `len` against corrupt headers.
pub fn read_f32_vec(r: &mut impl Read, len: u64, what: &'static str) -> Result<Vec<f32>, CheckpointError> {
    if len > MAX_TENSOR_LEN {
        return Err(CheckpointError::Corrupt(format!("{what} of {len} scalars exceeds the sanity bound")));
    }
    let mut buf = vec![0u8; (len as usize) * 4];
    read_exact(r, &mut buf, what)?;
    Ok(buf.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Skip `len` bytes of a block this build reads but does not keep, without
/// allocating; a short read is [`CheckpointError::Truncated`].
pub fn skip_bytes(r: &mut impl Read, len: u64, what: &'static str) -> Result<(), CheckpointError> {
    if std::io::copy(&mut r.by_ref().take(len), &mut std::io::sink())? < len {
        return Err(CheckpointError::Truncated { while_reading: what });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn header_roundtrip_and_rejections() {
        let mut buf = Vec::new();
        write_header(&mut buf, KIND_PARAMS).unwrap();
        assert_eq!(read_header(&mut Cursor::new(&buf), KIND_PARAMS).unwrap(), FORMAT_VERSION);
        // A v1 header is still accepted and reported as such.
        let mut v1 = buf.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(read_header(&mut Cursor::new(&v1), KIND_PARAMS).unwrap(), 1);
        // Version 0 predates the format and is rejected like a future one.
        let mut v0 = buf.clone();
        v0[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_header(&mut Cursor::new(&v0), KIND_PARAMS),
            Err(CheckpointError::UnsupportedVersion { found: 0, .. })
        ));
        // Wrong kind.
        match read_header(&mut Cursor::new(&buf), KIND_MSCN) {
            Err(CheckpointError::WrongKind { found, expected }) => {
                assert_eq!((found, expected), (KIND_PARAMS, KIND_MSCN));
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(read_header(&mut Cursor::new(&bad), KIND_PARAMS), Err(CheckpointError::BadMagic { .. })));
        // Future version.
        let mut future = buf.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_header(&mut Cursor::new(&future), KIND_PARAMS),
            Err(CheckpointError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
        // Truncation inside the header.
        assert!(matches!(
            read_header(&mut Cursor::new(&buf[..5]), KIND_PARAMS),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn scalar_roundtrips_are_bit_exact() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX - 7).unwrap();
        write_f64(&mut buf, -0.0f64).unwrap();
        write_f64(&mut buf, f64::NAN).unwrap();
        write_str(&mut buf, "repr.lstm.w").unwrap();
        write_f32_slice(&mut buf, &[1.5, -0.0, f32::MIN_POSITIVE]).unwrap();
        let mut c = Cursor::new(&buf);
        assert_eq!(read_u64(&mut c, "x").unwrap(), u64::MAX - 7);
        assert_eq!(read_f64(&mut c, "x").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(read_f64(&mut c, "x").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(read_str(&mut c, "x").unwrap(), "repr.lstm.w");
        let v = read_f32_vec(&mut c, 3, "x").unwrap();
        assert_eq!(v[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(v[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(v[2].to_bits(), f32::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn absurd_lengths_are_corrupt_not_oom() {
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX).unwrap();
        assert!(matches!(read_str(&mut Cursor::new(&buf), "name"), Err(CheckpointError::Corrupt(_))));
        assert!(matches!(
            read_f32_vec(&mut Cursor::new(Vec::new()), u64::MAX, "payload"),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut cnt = Vec::new();
        write_u64(&mut cnt, u64::MAX / 2).unwrap();
        assert!(matches!(read_count(&mut Cursor::new(&cnt), "count"), Err(CheckpointError::Corrupt(_))));
    }
}
