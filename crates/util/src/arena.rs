//! Section-table binary container for arena-loaded artifacts.
//!
//! A frozen artifact is one contiguous byte buffer holding several named
//! sections. The container is deliberately dumb: a fixed header, a table
//! of contents mapping short ASCII names to byte ranges, and the section
//! payloads 8-byte aligned. Readers keep the whole buffer alive (the
//! "arena") and slice sections out of it on demand — no copies, no
//! self-referential structs, no unsafe.
//!
//! All integers are little-endian. The header carries an explicit
//! endianness marker so a file produced on a hypothetical big-endian
//! writer (or mangled in transit) is rejected instead of silently
//! misread. Integrity (truncation, bit flips) is the job of the outer
//! [`crate::atomic`] frame; the checks here catch *logically* bad files
//! that still frame cleanly: version skew, marker mismatch, sections
//! pointing outside the buffer.
//!
//! ```
//! use p2o_util::arena::{ArenaWriter, ArenaIndex};
//! let mut w = ArenaWriter::new();
//! w.section("meta", vec![1, 2, 3]);
//! w.section("strings", b"hello".to_vec());
//! let payload = w.finish();
//! let index = ArenaIndex::parse(&payload).unwrap();
//! assert_eq!(&payload[index.get("strings").unwrap()], b"hello");
//! ```

use std::ops::Range;

/// Container magic, first four bytes of every arena payload.
pub const ARENA_MAGIC: [u8; 4] = *b"P2OA";

/// Current container version. Readers reject anything newer.
pub const ARENA_VERSION: u16 = 1;

/// Endianness marker value as written (little-endian). A byte-swapped
/// reader — or a byte-swapped file — sees `0x0D0C0B0A` and is rejected.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Fixed header length: magic, version, reserved, marker, section count.
pub const ARENA_HEADER_LEN: usize = 16;

/// Bytes per table-of-contents entry: 8-byte name, offset, length.
pub const ARENA_TOC_ENTRY_LEN: usize = 24;

const SECTION_ALIGN: usize = 8;
const NAME_LEN: usize = 8;

/// Builds an arena payload section by section.
#[derive(Default)]
pub struct ArenaWriter {
    /// Each section as the parts whose concatenation is its payload.
    sections: Vec<(String, Vec<Vec<u8>>)>,
}

impl ArenaWriter {
    /// An empty writer.
    pub fn new() -> ArenaWriter {
        ArenaWriter::default()
    }

    /// Appends a named section. Names must be 1..=8 ASCII bytes and
    /// unique; both are programmer errors, so they panic.
    pub fn section(&mut self, name: &str, bytes: Vec<u8>) {
        self.section_parts(name, vec![bytes]);
    }

    /// [`section`](Self::section) whose payload is the concatenation of
    /// `parts`, so a section built in pieces is copied once, into the
    /// finished buffer, and never joined first.
    pub fn section_parts(&mut self, name: &str, parts: Vec<Vec<u8>>) {
        assert!(
            !name.is_empty() && name.len() <= NAME_LEN && name.is_ascii(),
            "section name {name:?} must be 1..=8 ASCII bytes"
        );
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section {name:?}"
        );
        self.sections.push((name.to_string(), parts));
    }

    /// Serializes header + TOC + aligned sections into one buffer, sized
    /// up front. Each section is freed as soon as it is copied in.
    pub fn finish(self) -> Vec<u8> {
        let len = |parts: &[Vec<u8>]| parts.iter().map(Vec::len).sum::<usize>();
        // Lay the sections out after the TOC, each 8-byte aligned.
        let toc_end = ARENA_HEADER_LEN + self.sections.len() * ARENA_TOC_ENTRY_LEN;
        let mut offset = toc_end.next_multiple_of(SECTION_ALIGN);
        let mut placed: Vec<usize> = Vec::with_capacity(self.sections.len());
        for (_, parts) in &self.sections {
            placed.push(offset);
            offset = (offset + len(parts)).next_multiple_of(SECTION_ALIGN);
        }

        let mut out = Vec::with_capacity(offset);
        out.extend_from_slice(&ARENA_MAGIC);
        out.extend_from_slice(&ARENA_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&ENDIAN_MARKER.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for ((name, parts), &off) in self.sections.iter().zip(&placed) {
            let mut padded = [0u8; NAME_LEN];
            padded[..name.len()].copy_from_slice(name.as_bytes());
            out.extend_from_slice(&padded);
            out.extend_from_slice(&(off as u64).to_le_bytes());
            out.extend_from_slice(&(len(parts) as u64).to_le_bytes());
        }
        for ((_, parts), off) in self.sections.into_iter().zip(placed) {
            out.resize(off, 0);
            for part in parts {
                out.extend_from_slice(&part);
            }
        }
        out
    }
}

/// A validated table of contents over an arena payload.
#[derive(Debug)]
pub struct ArenaIndex {
    toc: Vec<(String, Range<usize>)>,
}

impl ArenaIndex {
    /// Parses and validates the header and TOC of `payload`.
    ///
    /// Rejects: wrong magic, a version newer than [`ARENA_VERSION`], an
    /// endianness marker mismatch, a truncated header/TOC, and any
    /// section range that falls outside the payload.
    pub fn parse(payload: &[u8]) -> Result<ArenaIndex, String> {
        if payload.len() < ARENA_HEADER_LEN {
            return Err(format!(
                "arena header truncated: {} bytes, need {ARENA_HEADER_LEN}",
                payload.len()
            ));
        }
        if payload[..4] != ARENA_MAGIC {
            return Err(format!(
                "bad arena magic {:02x?} (want {:02x?})",
                &payload[..4],
                ARENA_MAGIC
            ));
        }
        let version = u16_at(payload, 4).expect("header length checked");
        if version > ARENA_VERSION {
            return Err(format!(
                "arena version {version} is newer than this reader (max {ARENA_VERSION})"
            ));
        }
        let marker = u32_at(payload, 8).expect("header length checked");
        if marker != ENDIAN_MARKER {
            return Err(format!(
                "endianness marker mismatch: read {marker:#010x}, want {ENDIAN_MARKER:#010x} \
                 (byte-swapped or corrupt file)"
            ));
        }
        let count = u32_at(payload, 12).expect("header length checked") as usize;
        let toc_end = ARENA_HEADER_LEN + count * ARENA_TOC_ENTRY_LEN;
        if payload.len() < toc_end {
            return Err(format!(
                "arena TOC truncated: {} bytes, need {toc_end} for {count} section(s)",
                payload.len()
            ));
        }
        let mut toc = Vec::with_capacity(count);
        for i in 0..count {
            let base = ARENA_HEADER_LEN + i * ARENA_TOC_ENTRY_LEN;
            let raw_name = &payload[base..base + NAME_LEN];
            let name_len = raw_name.iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
            let name = std::str::from_utf8(&raw_name[..name_len])
                .map_err(|_| format!("section {i}: non-UTF-8 name"))?
                .to_string();
            let off = u64_at(payload, base + NAME_LEN).expect("TOC length checked") as usize;
            let len = u64_at(payload, base + NAME_LEN + 8).expect("TOC length checked") as usize;
            let end = off
                .checked_add(len)
                .ok_or_else(|| format!("section {name:?}: offset overflow"))?;
            if end > payload.len() {
                return Err(format!(
                    "section {name:?} [{off}..{end}) exceeds payload ({} bytes)",
                    payload.len()
                ));
            }
            toc.push((name, off..end));
        }
        Ok(ArenaIndex { toc })
    }

    /// The byte range of a named section, if present.
    pub fn get(&self, name: &str) -> Option<Range<usize>> {
        self.toc
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
    }

    /// The byte range of a required section, as an error otherwise.
    pub fn require(&self, name: &str) -> Result<Range<usize>, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required section {name:?}"))
    }

    /// Section names, in file order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.toc.iter().map(|(n, _)| n.as_str())
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.toc.len()
    }

    /// Whether the TOC is empty.
    pub fn is_empty(&self) -> bool {
        self.toc.is_empty()
    }
}

/// Little-endian `u16` at `off`, if in bounds.
#[inline]
pub fn u16_at(bytes: &[u8], off: usize) -> Option<u16> {
    Some(u16::from_le_bytes(
        bytes.get(off..off + 2)?.try_into().ok()?,
    ))
}

/// Little-endian `u32` at `off`, if in bounds.
#[inline]
pub fn u32_at(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        bytes.get(off..off + 4)?.try_into().ok()?,
    ))
}

/// Little-endian `u64` at `off`, if in bounds.
#[inline]
pub fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(off..off + 8)?.try_into().ok()?,
    ))
}

/// Little-endian `u128` at `off`, if in bounds.
#[inline]
pub fn u128_at(bytes: &[u8], off: usize) -> Option<u128> {
    Some(u128::from_le_bytes(
        bytes.get(off..off + 16)?.try_into().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArenaWriter::new();
        w.section("meta", vec![0xAA; 5]);
        w.section("strings", b"hello world".to_vec());
        w.section("empty", Vec::new());
        w.finish()
    }

    #[test]
    fn a_section_in_parts_writes_as_its_concatenation() {
        let mut w = ArenaWriter::new();
        w.section("meta", vec![0xAA; 5]);
        w.section_parts(
            "strings",
            vec![b"hello".to_vec(), Vec::new(), b" world".to_vec()],
        );
        w.section("empty", Vec::new());
        assert_eq!(w.finish(), sample());
    }

    #[test]
    fn round_trip_and_alignment() {
        let payload = sample();
        let idx = ArenaIndex::parse(&payload).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(
            idx.names().collect::<Vec<_>>(),
            ["meta", "strings", "empty"]
        );
        let meta = idx.get("meta").unwrap();
        assert_eq!(&payload[meta.clone()], &[0xAA; 5]);
        assert_eq!(meta.start % 8, 0, "sections are 8-byte aligned");
        let strings = idx.get("strings").unwrap();
        assert_eq!(&payload[strings.clone()], b"hello world");
        assert_eq!(strings.start % 8, 0);
        let empty = idx.get("empty").unwrap();
        assert!(empty.is_empty());
        assert!(idx.get("absent").is_none());
        assert!(idx.require("absent").is_err());
    }

    #[test]
    fn empty_arena_parses() {
        let payload = ArenaWriter::new().finish();
        let idx = ArenaIndex::parse(&payload).unwrap();
        assert!(idx.is_empty());
    }

    #[test]
    fn every_damage_mode_is_distinguished() {
        let payload = sample();

        // Truncated header.
        let err = ArenaIndex::parse(&payload[..10]).unwrap_err();
        assert!(err.contains("header truncated"), "{err}");

        // Bad magic.
        let mut bad = payload.clone();
        bad[0] ^= 0xFF;
        let err = ArenaIndex::parse(&bad).unwrap_err();
        assert!(err.contains("bad arena magic"), "{err}");

        // Future version.
        let mut bad = payload.clone();
        bad[4..6].copy_from_slice(&(ARENA_VERSION + 1).to_le_bytes());
        let err = ArenaIndex::parse(&bad).unwrap_err();
        assert!(err.contains("newer than this reader"), "{err}");

        // Endianness marker: simulate a byte-swapped writer.
        let mut bad = payload.clone();
        bad[8..12].copy_from_slice(&ENDIAN_MARKER.to_be_bytes());
        let err = ArenaIndex::parse(&bad).unwrap_err();
        assert!(err.contains("endianness marker mismatch"), "{err}");

        // Truncated TOC.
        let err = ArenaIndex::parse(&payload[..ARENA_HEADER_LEN + 4]).unwrap_err();
        assert!(err.contains("TOC truncated"), "{err}");

        // Section range out of bounds.
        let last_datum = payload.len() - 1;
        let err = ArenaIndex::parse(&payload[..last_datum]).unwrap_err();
        assert!(err.contains("exceeds payload"), "{err}");
    }

    #[test]
    fn name_rules_enforced() {
        let mut w = ArenaWriter::new();
        w.section("maxlen88", vec![1]);
        let r = std::panic::catch_unwind(|| {
            let mut w = ArenaWriter::new();
            w.section("ninechars", vec![]);
        });
        assert!(r.is_err(), "9-byte name must panic");
        let r = std::panic::catch_unwind(|| {
            let mut w = ArenaWriter::new();
            w.section("dup", vec![]);
            w.section("dup", vec![]);
        });
        assert!(r.is_err(), "duplicate name must panic");
    }

    #[test]
    fn le_accessors() {
        let bytes = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(u16_at(&bytes, 0), Some(1));
        assert_eq!(u32_at(&bytes, 0), Some(1));
        assert_eq!(u64_at(&bytes, 4), Some(2));
        assert_eq!(u128_at(&bytes, 0), Some((2u128 << 32) | 1));
        assert_eq!(u32_at(&bytes, 14), None);
    }
}
