//! The one binary codec behind every on-disk format: `.impres` result
//! records, `.imptrace` containers, the region table of a workload
//! artifact and functional-memory snapshots.
//!
//! All integers are little-endian. A [`Writer`] appends fields and a
//! [`Reader`] takes them back, checking every length against the bytes
//! left before anything is allocated for it: a checksum-valid file that
//! claims an absurd length fails with [`WireError::Truncated`] instead
//! of aborting. Every failure is a [`WireError`]; one inside a body
//! names the section being read.
//!
//! ## Framing
//!
//! Both file formats wrap their body in one frame, written by [`frame`]
//! and checked by [`unframe`]:
//!
//! | section | encoding |
//! |---|---|
//! | magic | 8 bytes, one per format |
//! | version | `u32` |
//! | body | the format's own sections |
//! | checksum | `u64` FNV-1a over everything before it |
//!
//! [`unframe`] checks, in this order: that the 8-byte trailer is
//! present, the checksum, the magic, the version, the body, and that
//! the body left no bytes over. The checksum detects corruption, not
//! tampering.

use crate::fnv1a;
use std::fmt;

/// Why bytes could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes ended before a section was complete.
    Truncated {
        /// Which section was being read.
        section: &'static str,
        /// Bytes the section needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The frame does not start with its format's magic.
    BadMagic,
    /// The frame's version is not the one this reader understands.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// Bytes are left over after the last section.
    TrailingBytes(usize),
    /// A string section is not valid UTF-8.
    BadUtf8(&'static str),
    /// A tag byte is out of range.
    BadTag {
        /// Which section held the byte.
        section: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated {section}: needs {needed} bytes, {available} left"
            ),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            WireError::TrailingBytes(n) => write!(f, "{n} unexpected bytes after the last section"),
            WireError::BadUtf8(section) => write!(f, "{section} is not valid UTF-8"),
            WireError::BadTag { section, value } => {
                write!(f, "unknown {section} tag byte {value:#x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends little-endian fields to a byte vector.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a length or count as the `u32` that [`Reader::list`]
    /// and [`Reader::str`] read. Panics if `n` does not fit.
    pub fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("wire counts fit in a u32"));
    }

    /// Appends a `u32` length and the string's UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Takes little-endian fields off the front of a byte slice. Each
/// method names the `section` it reads, and fails with
/// [`WireError::Truncated`] when the bytes left cannot hold it.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The bytes not yet taken.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    fn ensure(&self, section: &'static str, needed: usize) -> Result<(), WireError> {
        let available = self.rest.len();
        if needed > available {
            return Err(WireError::Truncated {
                section,
                needed,
                available,
            });
        }
        Ok(())
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, section: &'static str, n: usize) -> Result<&'a [u8], WireError> {
        self.ensure(section, n)?;
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Takes `count` records of `size` bytes as one slice, so an absurd
    /// count fails before anything is allocated for it.
    pub fn records(
        &mut self,
        section: &'static str,
        count: u64,
        size: usize,
    ) -> Result<&'a [u8], WireError> {
        let needed = usize::try_from(count).map_or(usize::MAX, |n| n.saturating_mul(size));
        self.take(section, needed)
    }

    /// Takes one byte.
    pub fn u8(&mut self, section: &'static str) -> Result<u8, WireError> {
        Ok(self.take(section, 1)?[0])
    }

    /// Takes a `u32`.
    pub fn u32(&mut self, section: &'static str) -> Result<u32, WireError> {
        let bytes = self.take(section, 4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("took 4 bytes")))
    }

    /// Takes a `u64`.
    pub fn u64(&mut self, section: &'static str) -> Result<u64, WireError> {
        let bytes = self.take(section, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("took 8 bytes")))
    }

    /// Takes a tag byte; [`WireError::BadTag`] unless it is below
    /// `variants`.
    pub fn tag(&mut self, section: &'static str, variants: u8) -> Result<u8, WireError> {
        match self.u8(section)? {
            value if value < variants => Ok(value),
            value => Err(WireError::BadTag { section, value }),
        }
    }

    /// Takes a `u32` count, then that many records with `record`. Each
    /// record occupies at least `min_record` bytes, so a count the bytes
    /// left cannot hold fails before anything is allocated for it.
    pub fn list<T>(
        &mut self,
        section: &'static str,
        min_record: usize,
        mut record: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32(section)? as usize;
        self.ensure(section, count.saturating_mul(min_record))?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(record(self)?);
        }
        Ok(records)
    }

    /// Takes a `u32` length and that many bytes of UTF-8;
    /// [`WireError::BadUtf8`] if they are not.
    pub fn str(&mut self, section: &'static str) -> Result<String, WireError> {
        let len = self.u32(section)? as usize;
        let bytes = self.take(section, len)?;
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8(section))?;
        Ok(text.to_owned())
    }

    /// Checks that every byte has been taken; [`WireError::TrailingBytes`]
    /// counts the rest.
    pub fn finish(self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// Writes one frame: `magic`, `version`, the sections `body` appends,
/// and the checksum trailer.
pub fn frame(magic: &[u8; 8], version: u32, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(magic);
    w.u32(version);
    body(&mut w);
    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

/// Checks one frame written by [`frame`] and decodes its body with
/// `body`, failing in the order of the [module docs](self): trailer,
/// checksum, magic, version, body, trailing bytes.
pub fn unframe<'a, T, E: From<WireError>>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    body: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut trailer = Reader::new(bytes);
    let framed = trailer.take("checksum trailer", bytes.len().saturating_sub(8))?;
    let stored = trailer.u64("checksum trailer")?;
    let computed = fnv1a(framed);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed }.into());
    }
    let mut r = Reader::new(framed);
    if r.take("magic", magic.len())? != magic {
        return Err(WireError::BadMagic.into());
    }
    let found = r.u32("version")?;
    if found != version {
        return Err(WireError::UnsupportedVersion(found).into());
    }
    let value = body(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Rewrites the checksum trailer of `bytes` to match what precedes it,
/// for tests that damage a frame and need the decoder, not the checksum
/// compare, to catch it. Bytes shorter than a trailer are left alone.
pub fn restamp(bytes: &mut [u8]) {
    if let Some(split) = bytes.len().checked_sub(8) {
        let checksum = fnv1a(&bytes[..split]);
        bytes[split..].copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Applies one fuzzing edit to `bytes` at offset `at`: by `kind`,
/// overwrite a byte with `value`, overwrite 8 bytes with a word within 3
/// of `u64::MAX` (read as a `u32` or `u64` length, it is absurd),
/// truncate, or insert the 8 bytes of `value`.
pub fn mutate(bytes: &mut Vec<u8>, kind: u8, at: u64, value: u64) {
    let at = (at % (bytes.len() as u64 + 1)) as usize;
    let field = match kind % 4 {
        0 => vec![value as u8],
        1 => (u64::MAX - value % 4).to_le_bytes().to_vec(),
        2 => {
            bytes.truncate(at);
            return;
        }
        _ => {
            bytes.splice(at..at, value.to_le_bytes());
            return;
        }
    };
    let end = bytes.len().min(at + field.len());
    bytes[at..end].copy_from_slice(&field[..end - at]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        frame(b"WIRETEST", 7, |w| {
            w.str("name");
            w.count(2);
            w.u8(5);
            w.u8(6);
            w.u64(u64::MAX);
            w.u8(1);
        })
    }

    fn decode(bytes: &[u8]) -> Result<(String, Vec<u8>, u64, u8), WireError> {
        unframe(bytes, b"WIRETEST", 7, |r| {
            Ok((
                r.str("name")?,
                r.list("list", 1, |r| r.u8("item"))?,
                r.u64("word")?,
                r.tag("tag", 2)?,
            ))
        })
    }

    #[test]
    fn frames_roundtrip() {
        assert_eq!(
            decode(&sample()),
            Ok(("name".into(), vec![5, 6], u64::MAX, 1))
        );
    }

    #[test]
    fn unframe_checks_in_order() {
        let bytes = sample();
        let short = decode(&bytes[..7]);
        assert!(matches!(
            short,
            Err(WireError::Truncated {
                section: "checksum trailer",
                needed: 8,
                available: 7
            })
        ));

        let mut flipped = bytes.clone();
        flipped[0] ^= 1;
        assert!(matches!(
            decode(&flipped),
            Err(WireError::ChecksumMismatch { .. })
        ));
        restamp(&mut flipped);
        assert_eq!(decode(&flipped), Err(WireError::BadMagic));

        let mut newer = bytes.clone();
        newer[8..12].copy_from_slice(&8u32.to_le_bytes());
        restamp(&mut newer);
        assert_eq!(decode(&newer), Err(WireError::UnsupportedVersion(8)));

        let mut bad_tag = bytes.clone();
        let tag_at = bad_tag.len() - 9;
        bad_tag[tag_at] = 2;
        restamp(&mut bad_tag);
        assert_eq!(
            decode(&bad_tag),
            Err(WireError::BadTag {
                section: "tag",
                value: 2
            })
        );

        let mut longer = bytes[..bytes.len() - 8].to_vec();
        longer.extend_from_slice(&[0; 3 + 8]);
        restamp(&mut longer);
        assert_eq!(decode(&longer), Err(WireError::TrailingBytes(3)));
    }

    #[test]
    fn absurd_lengths_fail_before_allocating() {
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0]);
        assert!(matches!(
            r.list("list", 1, |r| r.u8("item")),
            Err(WireError::Truncated { section: "list", needed, available: 1 })
                if needed == u32::MAX as usize
        ));
        let mut r = Reader::new(&[0; 16]);
        assert!(matches!(
            r.records("records", u64::MAX, 16),
            Err(WireError::Truncated {
                needed: usize::MAX,
                ..
            })
        ));
        assert_eq!(r.records("records", 1, 16).map(<[u8]>::len), Ok(16));
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xff]).str("name"),
            Err(WireError::BadUtf8("name"))
        );
    }

    #[test]
    fn mutate_edits_in_place_truncates_and_inserts() {
        let mut bytes = vec![0u8; 6];
        mutate(&mut bytes, 0, 2, 0x1ff);
        assert_eq!(bytes, [0, 0, 0xff, 0, 0, 0]);
        mutate(&mut bytes, 1, 4, 1);
        assert_eq!(bytes, [0, 0, 0xff, 0, 0xfe, 0xff]);
        mutate(&mut bytes, 2, 3, 0);
        assert_eq!(bytes.len(), 3);
        mutate(&mut bytes, 3, 0, 0);
        assert_eq!(bytes.len(), 11);
    }
}
