//! String interning with dense `u32` symbols.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A handle to an interned string. Symbols are dense (`0..len`) and therefore
/// usable directly as vector indices, e.g. into a [`crate::UnionFind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns strings, assigning each distinct string a dense [`Symbol`].
///
/// ```
/// use p2o_util::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("verizon");
/// let b = i.intern("fastly");
/// assert_eq!(i.intern("verizon"), a);
/// assert_ne!(a, b);
/// assert_eq!(i.resolve(a), "verizon");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, Symbol>,
    strings: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an interner from an ordered list of distinct strings; the
    /// string at position `i` gets symbol `i`. Panics on duplicates, which
    /// would make symbol identity ambiguous.
    pub fn from_strings(strings: Vec<String>) -> Self {
        let mut map = HashMap::with_capacity(strings.len());
        for (i, s) in strings.iter().enumerate() {
            let prev = map.insert(s.clone(), Symbol(i as u32));
            assert!(prev.is_none(), "duplicate string {s:?} in from_strings");
        }
        Self { map, strings }
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// Looks up the symbol for `s` without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Returns the string for a symbol. Panics on a foreign symbol.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(symbol, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_str()))
    }
}

/// Builds the frozen artifact's interned-string table: every distinct
/// string stored once in one contiguous UTF-8 blob, addressed by dense
/// `u32` ids through an offsets array.
///
/// Serialized layout (all little-endian):
///
/// ```text
/// count: u32 | offsets: (count+1) × u32 | blob: UTF-8 bytes
/// ```
///
/// `offsets[i]..offsets[i+1]` is string `i`'s byte range in the blob.
///
/// ```
/// use p2o_util::interner::{StringBlob, StringBlobBuilder};
/// let mut b = StringBlobBuilder::new();
/// let hi = b.intern("hi");
/// assert_eq!(b.intern("hi"), hi);
/// let bytes = b.into_bytes();
/// let view = StringBlob::parse(&bytes).unwrap();
/// assert_eq!(view.get(hi), Some("hi"));
/// ```
///
/// Each string is held once, in the blob: the lookup map keys ids by a
/// hash of the string and checks a hit against the blob, so the builder
/// holds no second copy of the strings it interns.
#[derive(Debug, Default)]
pub struct StringBlobBuilder {
    /// The first id interned under each string hash.
    by_hash: HashMap<u64, u32>,
    /// Strings whose hash an earlier, different string already took.
    collided: HashMap<String, u32>,
    offsets: Vec<u32>,
    blob: String,
}

impl StringBlobBuilder {
    /// An empty builder.
    pub fn new() -> StringBlobBuilder {
        StringBlobBuilder {
            offsets: vec![0],
            ..StringBlobBuilder::default()
        }
    }

    /// Interns `s`, returning its dense id (existing or freshly assigned).
    /// Ids are assigned in first-intern order, so a deterministic intern
    /// sequence yields a byte-deterministic table.
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = text_hash(s);
        let first = self.by_hash.get(&hash).copied();
        match first {
            Some(id) if self.text(id) == s => return id,
            Some(_) => {
                if let Some(&id) = self.collided.get(s) {
                    return id;
                }
            }
            None => {}
        }
        let id = (self.offsets.len() - 1) as u32;
        self.blob.push_str(s);
        assert!(
            self.blob.len() <= u32::MAX as usize,
            "string blob exceeds u32 offsets"
        );
        self.offsets.push(self.blob.len() as u32);
        match first {
            None => self.by_hash.insert(hash, id),
            Some(_) => self.collided.insert(s.to_string(), id),
        };
        id
    }

    /// The string interned as `id`.
    fn text(&self, id: u32) -> &str {
        let i = id as usize;
        &self.blob[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The serialized table as two parts whose concatenation is
    /// [`into_bytes`](Self::into_bytes): count and offsets, then the blob,
    /// handed over without a copy.
    pub fn into_parts(self) -> Vec<Vec<u8>> {
        let count = (self.offsets.len() - 1) as u32;
        let mut head = Vec::with_capacity(4 + self.offsets.len() * 4);
        head.extend_from_slice(&count.to_le_bytes());
        for off in &self.offsets {
            head.extend_from_slice(&off.to_le_bytes());
        }
        vec![head, self.blob.into_bytes()]
    }

    /// Serializes the table: count, offsets, blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.into_parts().concat()
    }
}

/// The lookup hash of an interned string: SipHash with fixed keys, so a
/// run's collisions (harmless, but slower) are reproducible.
fn text_hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// A zero-copy view over a serialized [`StringBlobBuilder`] table. Its
/// blob is a `str` that [`parse`](Self::parse) validated once, so
/// [`get`](Self::get) slices it without re-checking any string's UTF-8.
#[derive(Debug, Clone, Copy)]
pub struct StringBlob<'a> {
    offsets: &'a [u8],
    text: &'a str,
    count: usize,
}

impl<'a> StringBlob<'a> {
    /// Splits a serialized table into its count, offsets and blob:
    /// header and bounds arithmetic only, O(1).
    fn split(bytes: &'a [u8]) -> Result<(usize, &'a [u8], &'a [u8]), String> {
        let count = crate::arena::u32_at(bytes, 0)
            .ok_or_else(|| "string table truncated before count".to_string())?
            as usize;
        let offsets_len = (count + 1)
            .checked_mul(4)
            .ok_or_else(|| "string table count overflow".to_string())?;
        let blob_start = 4 + offsets_len;
        if bytes.len() < blob_start {
            return Err(format!(
                "string table truncated: {} bytes, need {blob_start} for {count} offsets",
                bytes.len()
            ));
        }
        Ok((count, &bytes[4..blob_start], &bytes[blob_start..]))
    }

    /// Parses and fully validates a serialized table: the header and every
    /// offset are bounds-checked, offsets must be monotone, and the whole
    /// blob must be valid UTF-8 split at string boundaries.
    pub fn parse(bytes: &'a [u8]) -> Result<StringBlob<'a>, String> {
        let (count, offsets, blob) = Self::split(bytes)?;
        let offset = |i: usize| crate::arena::u32_at(offsets, i * 4).expect("offsets sized");
        let mut prev = 0u32;
        for i in 0..=count {
            let off = offset(i);
            if off < prev {
                return Err(format!("string table offsets not monotone at {i}"));
            }
            prev = off;
        }
        if prev as usize != blob.len() {
            return Err(format!(
                "string table blob length {} disagrees with final offset {prev}",
                blob.len()
            ));
        }
        let text = std::str::from_utf8(blob).map_err(|e| {
            format!(
                "string table blob is not valid UTF-8 at byte {}",
                e.valid_up_to()
            )
        })?;
        if let Some(i) = (0..count).find(|&i| !text.is_char_boundary(offset(i) as usize)) {
            return Err(format!("string {i} does not start a UTF-8 character"));
        }
        Ok(StringBlob {
            offsets,
            text,
            count,
        })
    }

    /// Re-attaches a table [`parse`](Self::parse) accepted to its blob
    /// text, which the caller kept from that parse: header and bounds
    /// arithmetic only, O(1).
    pub fn attach(bytes: &'a [u8], text: &'a str) -> Result<StringBlob<'a>, String> {
        let (count, offsets, blob) = Self::split(bytes)?;
        if blob.len() != text.len() {
            return Err(format!(
                "string table blob is {} bytes, its text {}",
                blob.len(),
                text.len()
            ));
        }
        Ok(StringBlob {
            offsets,
            text,
            count,
        })
    }

    /// The blob: every string, concatenated in id order.
    pub fn text(&self) -> &'a str {
        self.text
    }

    #[inline]
    fn offset(&self, i: usize) -> u32 {
        crate::arena::u32_at(self.offsets, i * 4).expect("offsets bounds-checked at parse")
    }

    /// The string for a dense id, or `None` when out of range.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&'a str> {
        if id as usize >= self.count {
            return None;
        }
        self.text
            .get(self.offset(id as usize) as usize..self.offset(id as usize + 1) as usize)
    }

    /// The bytes of the two offsets that bound string `id`, the ones
    /// [`get`](Self::get) reads before the text; empty when `id` is out of
    /// range. A read-ahead touches them to bring their cache line in.
    pub fn offset_bytes(&self, id: u32) -> &'a [u8] {
        if id as usize >= self.count {
            return &[];
        }
        &self.offsets[id as usize * 4..id as usize * 4 + 8]
    }

    /// Number of stored strings.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let a2 = i.intern("a");
        assert_eq!(a, a2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let syms: Vec<_> = ["x", "y", "z"].iter().map(|s| i.intern(s)).collect();
        for (sym, s) in syms.iter().zip(["x", "y", "z"]) {
            assert_eq!(i.resolve(*sym), s);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("nope"), None);
        let s = i.intern("yes");
        assert_eq!(i.get("yes"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_in_order() {
        let mut i = Interner::new();
        i.intern("first");
        i.intern("second");
        let got: Vec<_> = i.iter().map(|(s, t)| (s.index(), t.to_string())).collect();
        assert_eq!(got, vec![(0, "first".into()), (1, "second".into())]);
    }

    #[test]
    fn empty_strings_are_valid_keys() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.intern(""), e);
    }

    #[test]
    fn from_strings_assigns_positional_symbols() {
        let i = Interner::from_strings(vec!["a".into(), "b".into()]);
        assert_eq!(i.get("a"), Some(Symbol(0)));
        assert_eq!(i.get("b"), Some(Symbol(1)));
        assert_eq!(i.resolve(Symbol(1)), "b");
        assert_eq!(i.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate string")]
    fn from_strings_rejects_duplicates() {
        let _ = Interner::from_strings(vec!["a".into(), "a".into()]);
    }

    #[test]
    fn string_blob_round_trips_and_dedups() {
        let mut b = StringBlobBuilder::new();
        let a = b.intern("verizon");
        let empty = b.intern("");
        let uni = b.intern("nüñez-网络");
        assert_eq!(b.intern("verizon"), a);
        assert_eq!(b.len(), 3);
        let bytes = b.into_bytes();
        let view = StringBlob::parse(&bytes).unwrap();
        assert_eq!(view.len(), 3);
        assert_eq!(view.get(a), Some("verizon"));
        assert_eq!(view.get(empty), Some(""));
        assert_eq!(view.get(uni), Some("nüñez-网络"));
        assert_eq!(view.get(3), None);
    }

    #[test]
    fn empty_string_blob() {
        let bytes = StringBlobBuilder::new().into_bytes();
        let view = StringBlob::parse(&bytes).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.get(0), None);
    }

    #[test]
    fn string_blob_rejects_damage() {
        let mut b = StringBlobBuilder::new();
        b.intern("hello");
        b.intern("world");
        let bytes = b.into_bytes();

        // Truncated before the count.
        assert!(StringBlob::parse(&bytes[..2])
            .unwrap_err()
            .contains("count"));
        // Truncated inside the offsets.
        assert!(StringBlob::parse(&bytes[..8])
            .unwrap_err()
            .contains("truncated"));
        // Truncated blob: final offset disagrees.
        assert!(StringBlob::parse(&bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("final offset"));
        // Non-monotone offsets.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(StringBlob::parse(&bad).unwrap_err().contains("monotone"));
        // Invalid UTF-8 inside a string.
        let mut bad = bytes.clone();
        let blob_start = bad.len() - "helloworld".len();
        bad[blob_start] = 0xFF;
        assert!(StringBlob::parse(&bad).unwrap_err().contains("UTF-8"));
        // A valid blob split inside a character: "é" as two one-byte
        // strings.
        let mut split = Vec::new();
        for v in [2u32, 0, 1, 2] {
            split.extend_from_slice(&v.to_le_bytes());
        }
        split.extend_from_slice("é".as_bytes());
        assert!(StringBlob::parse(&split)
            .unwrap_err()
            .contains("string 1 does not start a UTF-8 character"));
    }

    /// A string whose hash an earlier string already took is still
    /// interned once, under its own id, and found again.
    #[test]
    fn blob_builder_survives_a_hash_collision() {
        let mut b = StringBlobBuilder::new();
        assert_eq!(b.intern("hello"), 0);
        // Make "world" hash-collide with "hello".
        b.by_hash.insert(text_hash("world"), 0);
        assert_eq!(b.intern("world"), 1);
        assert_eq!(b.intern("world"), 1);
        assert_eq!(b.intern("hello"), 0);
        assert_eq!(b.collided.len(), 1);
        let bytes = b.into_bytes();
        let view = StringBlob::parse(&bytes).unwrap();
        assert_eq!((view.get(0), view.get(1)), (Some("hello"), Some("world")));
    }

    #[test]
    fn blob_parts_concatenate_to_the_table() {
        let build = || {
            let mut b = StringBlobBuilder::new();
            for s in ["a", "bc", "a", "", "déf"] {
                b.intern(s);
            }
            b
        };
        let parts = build().into_parts();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1], b"abcd\xc3\xa9f");
        assert_eq!(parts.concat(), build().into_bytes());
    }
}
