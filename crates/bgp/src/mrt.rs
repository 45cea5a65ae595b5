//! MRT TABLE_DUMP_V2-style RIB snapshots (RFC 6396).
//!
//! RouteViews and RIPE RIS publish RIB snapshots in MRT format; the paper
//! reads them through BGPStream. This module implements the subset those
//! snapshots use: a PEER_INDEX_TABLE record followed by RIB_IPV4_UNICAST /
//! RIB_IPV6_UNICAST records, each carrying a prefix and per-peer path
//! attributes. The writer and reader share the framing, so synthetic RIBs
//! produced by `p2o-synth` flow through the identical binary path a real
//! collector dump would.

use p2o_net::{Prefix, Prefix4, Prefix6};
use p2o_util::ingest::{IngestErrorKind, QuarantinedRecord};

use crate::attrs::{AttrError, PathAttributes};
use crate::reader::Reader;

const MRT_TYPE_TABLE_DUMP_V2: u16 = 13;
const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;

/// PEER_INDEX_TABLE peer type bits (RFC 6396 §4.3.1): the peer address is
/// IPv6 (16 bytes, else IPv4's 4), and its AS number is 4 bytes (else 2).
const PEER_TYPE_IPV6: u8 = 0x01;
const PEER_TYPE_AS4: u8 = 0x02;

/// Largest TABLE_DUMP_V2 subtype the resync scanner treats as plausible.
/// RFC 6396 defines subtypes 1..=6; the margin tolerates extensions
/// without accepting random bytes as headers.
const MAX_PLAUSIBLE_SUBTYPE: u16 = 16;

/// One peer in the PEER_INDEX_TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's BGP identifier.
    pub bgp_id: u32,
    /// The peer's ASN.
    pub asn: u32,
}

/// One RIB entry: a peer's path for the record's prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the peer table.
    pub peer_index: u16,
    /// When the route was received (UNIX seconds).
    pub originated_time: u32,
    /// The path attributes.
    pub attrs: PathAttributes,
}

/// One RIB record: a prefix plus every peer's entry for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibRecord {
    /// Monotonic sequence number within the dump.
    pub sequence: u32,
    /// The routed prefix.
    pub prefix: Prefix,
    /// Per-peer entries.
    pub entries: Vec<RibEntry>,
}

/// MRT parse error with byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrtParseError {
    /// Byte offset of the failing record.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for MrtParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "MRT parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for MrtParseError {}

/// Writes an MRT RIB snapshot: peer index table first, then RIB records.
#[derive(Debug)]
pub struct MrtWriter {
    buf: Vec<u8>,
    timestamp: u32,
    sequence: u32,
}

impl MrtWriter {
    /// Starts a dump with the given snapshot timestamp and peer table.
    pub fn new(timestamp: u32, collector_id: u32, peers: &[PeerEntry]) -> Self {
        let mut w = MrtWriter {
            buf: Vec::new(),
            timestamp,
            sequence: 0,
        };
        let mut body = collector_id.to_be_bytes().to_vec();
        body.extend_from_slice(&0u16.to_be_bytes()); // view name length (unnamed)
        body.extend_from_slice(&(peers.len() as u16).to_be_bytes());
        for peer in peers {
            // A 4-byte AS number and an IPv4 address; the pipeline does not
            // use the address.
            body.push(PEER_TYPE_AS4);
            body.extend_from_slice(&peer.bgp_id.to_be_bytes());
            body.extend_from_slice(&[0; 4]);
            body.extend_from_slice(&peer.asn.to_be_bytes());
        }
        w.put_record(SUBTYPE_PEER_INDEX_TABLE, &body);
        w
    }

    fn put_record(&mut self, subtype: u16, body: &[u8]) {
        let out = &mut self.buf;
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&MRT_TYPE_TABLE_DUMP_V2.to_be_bytes());
        out.extend_from_slice(&subtype.to_be_bytes());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(body);
    }

    /// Appends one RIB record for `prefix`.
    pub fn push(&mut self, prefix: Prefix, entries: &[RibEntry]) {
        let mut body = self.sequence.to_be_bytes().to_vec();
        self.sequence += 1;
        // NLRI form: the length byte, then the minimal leading octets of
        // the address.
        let (subtype, bits) = match prefix {
            Prefix::V4(p) => (SUBTYPE_RIB_IPV4_UNICAST, u128::from(p.bits()) << 96),
            Prefix::V6(p) => (SUBTYPE_RIB_IPV6_UNICAST, p.bits()),
        };
        body.push(prefix.len());
        body.extend_from_slice(&bits.to_be_bytes()[..prefix.len().div_ceil(8) as usize]);
        body.extend_from_slice(&(entries.len() as u16).to_be_bytes());
        for e in entries {
            let attrs = e.attrs.encode();
            body.extend_from_slice(&e.peer_index.to_be_bytes());
            body.extend_from_slice(&e.originated_time.to_be_bytes());
            body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
            body.extend_from_slice(&attrs);
        }
        self.put_record(subtype, &body);
    }

    /// Finishes the dump and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Streaming MRT RIB reader over a borrowed dump.
#[derive(Debug)]
pub struct MrtReader<'a> {
    buf: &'a [u8],
    offset: usize,
    peers: Vec<PeerEntry>,
    obs: Option<MrtObs>,
}

#[derive(Debug, Clone)]
struct MrtObs {
    obs: p2o_obs::Obs,
    records: p2o_obs::Counter,
    entries: p2o_obs::Counter,
    bytes: p2o_obs::Counter,
    entries_per_record: p2o_obs::Histogram,
}

impl MrtObs {
    fn tick_record(&self, entries: usize) {
        self.records.incr();
        self.entries.add(entries as u64);
        self.entries_per_record.record(entries as u64);
    }
}

/// Decodes one RIB record body. `offset` is the byte offset *after* the
/// record (what the streaming reader reports on a decode failure, so both
/// paths produce identical errors). Returns `Ok(None)` for subtypes the
/// pipeline does not interpret.
fn decode_rib_body(
    subtype: u16,
    body: &[u8],
    offset: usize,
    peers: &[PeerEntry],
) -> Result<Option<RibRecord>, MrtParseError> {
    let err = |message: &str| MrtParseError {
        offset,
        message: message.to_string(),
    };
    let is_v4 = match subtype {
        SUBTYPE_RIB_IPV4_UNICAST => true,
        SUBTYPE_RIB_IPV6_UNICAST => false,
        _ => return Ok(None), // skip unknown subtypes, like real readers
    };
    let mut r = Reader::new(body);
    let sequence = r.u32().ok_or_else(|| err("truncated RIB record"))?;
    let family = if is_v4 { "v4" } else { "v6" };
    let prefix =
        decode_nlri(&mut r, is_v4).map_err(|e| err(&format!("bad {family} prefix: {e}")))?;
    let count = r.u16().ok_or_else(|| err("truncated entry count"))?;
    // An entry takes at least 8 bytes, which bounds what a bad count reserves.
    let mut entries = Vec::with_capacity((count as usize).min(body.len() / 8));
    for _ in 0..count {
        let (Some(peer_index), Some(originated_time), Some(attr_len)) = (r.u16(), r.u32(), r.u16())
        else {
            return Err(err("truncated RIB entry"));
        };
        if peer_index as usize >= peers.len() {
            return Err(err("peer index out of range"));
        }
        let attrs = r
            .take(attr_len as usize)
            .ok_or_else(|| err("truncated attributes"))?;
        let attrs =
            PathAttributes::decode(attrs).map_err(|e| err(&format!("bad attributes: {e}")))?;
        entries.push(RibEntry {
            peer_index,
            originated_time,
            attrs,
        });
    }
    Ok(Some(RibRecord {
        sequence,
        prefix,
        entries,
    }))
}

/// Decodes an IPv4 or IPv6 NLRI element: the length byte, then the
/// minimal leading octets of the address.
fn decode_nlri(r: &mut Reader<'_>, is_v4: bool) -> Result<Prefix, AttrError> {
    let len = r.u8().ok_or(AttrError::Truncated("NLRI length"))?;
    if len > if is_v4 { 32 } else { 128 } {
        return Err(AttrError::Malformed("NLRI length"));
    }
    let octets = r
        .take(len.div_ceil(8) as usize)
        .ok_or(AttrError::Truncated("NLRI body"))?;
    let mut bits = [0u8; 16];
    bits[..octets.len()].copy_from_slice(octets);
    let bits = u128::from_be_bytes(bits);
    Ok(if is_v4 {
        Prefix::V4(Prefix4::new_truncated((bits >> 96) as u32, len))
    } else {
        Prefix::V6(Prefix6::new_truncated(bits, len))
    })
}

/// Decodes a PEER_INDEX_TABLE body into its peers.
fn decode_peer_table(body: &[u8]) -> Result<Vec<PeerEntry>, &'static str> {
    let mut r = Reader::new(body);
    // The collector id, the view name's length and, after the name, the
    // peer count: eight bytes when the name is empty.
    let name_len = match (r.u32(), r.u16()) {
        (Some(_collector), Some(len)) if body.len() >= 8 => len,
        _ => return Err("truncated PEER_INDEX_TABLE"),
    };
    let count = r
        .take(name_len as usize)
        .and_then(|_| r.u16())
        .ok_or("truncated PEER_INDEX_TABLE name")?;
    // Each entry is sized by its peer type.
    let mut peer = || {
        let peer_type = r.u8()?;
        let bgp_id = r.u32()?;
        let address_len = if peer_type & PEER_TYPE_IPV6 != 0 {
            16
        } else {
            4
        };
        r.take(address_len)?;
        let asn = if peer_type & PEER_TYPE_AS4 != 0 {
            r.u32()?
        } else {
            u32::from(r.u16()?)
        };
        Some(PeerEntry { bgp_id, asn })
    };
    (0..count)
        .map(|_| peer().ok_or("truncated peer entry"))
        .collect()
}

/// Bytes in an MRT record header: timestamp, type, subtype, body length.
pub const HEADER_LEN: usize = 12;

/// One step of the lenient framing: what a dump holds at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// A well-framed TABLE_DUMP_V2 record; `start..end` covers its header
    /// and body.
    Record {
        /// Offset of the header.
        start: usize,
        /// Offset just past the body.
        end: usize,
        /// The TABLE_DUMP_V2 subtype.
        subtype: u16,
    },
    /// An unreadable byte range `start..end`. Framing resumes at `end`: the
    /// next plausible header, or the end of the dump when there is none.
    Damaged {
        /// Offset of the header that failed the checks.
        start: usize,
        /// Where framing resumes.
        end: usize,
        /// The quarantine variant for the range.
        kind: IngestErrorKind,
        /// Which check the header failed.
        message: &'static str,
    },
}

impl Frame {
    /// Offset of the next frame.
    pub fn end(&self) -> usize {
        match *self {
            Frame::Record { end, .. } | Frame::Damaged { end, .. } => end,
        }
    }
}

/// `(type, subtype, body length)` of a record header.
fn parse_header(h: &[u8; HEADER_LEN]) -> (u16, u16, usize) {
    (
        u16::from_be_bytes([h[4], h[5]]),
        u16::from_be_bytes([h[6], h[7]]),
        u32::from_be_bytes([h[8], h[9], h[10], h[11]]) as usize,
    )
}

/// Frames the dump `buf` at `pos`: the one framing step behind every MRT
/// reader and the corruption injector. `None` at the end of the dump.
///
/// A header that fails the checks (too short, not TABLE_DUMP_V2, or a body
/// longer than the rest of the dump) starts a damaged range. Its length
/// field is trusted first: if skipping `12 + len` bytes lands exactly at
/// the end or on a plausible header, only this record is damaged.
/// Otherwise the length itself is corrupt and the scan walks forward byte
/// by byte to the next plausible header.
pub fn frame_in(buf: &[u8], pos: usize) -> Option<Frame> {
    let total = buf.len();
    if pos >= total {
        return None;
    }
    let header = |at: usize| {
        parse_header(
            buf[at..at + HEADER_LEN]
                .try_into()
                .expect("header-sized slice"),
        )
    };
    let head = (total - pos >= HEADER_LEN).then(|| header(pos));
    let message = match head {
        None => "truncated MRT header",
        Some((mrt_type, _, _)) if mrt_type != MRT_TYPE_TABLE_DUMP_V2 => "unsupported MRT type",
        Some((_, _, len)) if len > total - pos - HEADER_LEN => "record body exceeds input",
        Some((_, subtype, len)) => {
            return Some(Frame::Record {
                start: pos,
                end: pos + HEADER_LEN + len,
                subtype,
            })
        }
    };
    // Whether `at` looks like the start of a record whose body fits.
    let plausible = |at: usize| -> bool {
        if total.saturating_sub(at) < HEADER_LEN {
            return false;
        }
        let (mrt_type, subtype, len) = header(at);
        mrt_type == MRT_TYPE_TABLE_DUMP_V2
            && (1..=MAX_PLAUSIBLE_SUBTYPE).contains(&subtype)
            && len <= total - at - HEADER_LEN
    };
    let resync = head
        .and_then(|(_, _, len)| (pos + HEADER_LEN).checked_add(len))
        .filter(|&cand| cand == total || plausible(cand))
        .or_else(|| (pos + 1..total).find(|&at| plausible(at)));
    let kind = match head {
        None => IngestErrorKind::MrtTruncated,
        Some((mrt_type, _, _)) if mrt_type != MRT_TYPE_TABLE_DUMP_V2 => IngestErrorKind::MrtBadType,
        Some(_) if resync.is_some() => IngestErrorKind::MrtBadLength,
        // The length overruns the input and no later header exists: the
        // dump was cut mid-record.
        Some(_) => IngestErrorKind::MrtTruncated,
    };
    Some(Frame::Damaged {
        start: pos,
        end: resync.unwrap_or(total),
        kind,
        message,
    })
}

impl<'a> MrtReader<'a> {
    /// Opens a dump and parses the leading PEER_INDEX_TABLE.
    pub fn new(data: &'a [u8]) -> Result<Self, MrtParseError> {
        let mut r = MrtReader {
            buf: data,
            offset: 0,
            peers: Vec::new(),
            obs: None,
        };
        let (subtype, body) = r
            .next_record()?
            .ok_or_else(|| r.err("empty dump (missing PEER_INDEX_TABLE)"))?;
        if subtype != SUBTYPE_PEER_INDEX_TABLE {
            return Err(r.err("first record is not PEER_INDEX_TABLE"));
        }
        r.peers = decode_peer_table(body).map_err(|message| r.err(message))?;
        Ok(r)
    }

    /// The peer table.
    pub fn peers(&self) -> &[PeerEntry] {
        &self.peers
    }

    /// Attaches observability: subsequent reads tick `mrt.records`,
    /// `mrt.entries`, `mrt.bytes` and record the `mrt.entries_per_record`
    /// distribution.
    pub fn instrument(&mut self, obs: &p2o_obs::Obs) {
        self.obs = Some(MrtObs {
            obs: obs.clone(),
            records: obs.counter("mrt.records"),
            entries: obs.counter("mrt.entries"),
            bytes: obs.counter("mrt.bytes"),
            entries_per_record: obs.histogram("mrt.entries_per_record"),
        });
    }

    fn err(&self, message: &str) -> MrtParseError {
        MrtParseError {
            offset: self.offset,
            message: message.to_string(),
        }
    }

    /// Pulls the next raw record: `(subtype, body)`.
    fn next_record(&mut self) -> Result<Option<(u16, &'a [u8])>, MrtParseError> {
        match frame_in(self.buf, self.offset) {
            None => Ok(None),
            Some(Frame::Damaged { message, .. }) => Err(self.err(message)),
            Some(Frame::Record {
                start,
                end,
                subtype,
            }) => {
                self.take(start, end);
                Ok(Some((subtype, &self.buf[start + HEADER_LEN..end])))
            }
        }
    }

    /// Consumes the well-framed record `start..end`.
    fn take(&mut self, start: usize, end: usize) {
        self.offset = end;
        if let Some(o) = &self.obs {
            o.bytes.add((end - start) as u64);
        }
    }

    /// Reads the next RIB record, or `None` at end of dump.
    pub fn next_rib(&mut self) -> Result<Option<RibRecord>, MrtParseError> {
        loop {
            let Some((subtype, body)) = self.next_record()? else {
                return Ok(None);
            };
            let Some(record) = decode_rib_body(subtype, body, self.offset, &self.peers)? else {
                continue;
            };
            if let Some(o) = &self.obs {
                o.tick_record(record.entries.len());
            }
            return Ok(Some(record));
        }
    }

    /// Collects every remaining RIB record.
    pub fn read_all(mut self) -> Result<Vec<RibRecord>, MrtParseError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_rib()? {
            out.push(rec);
        }
        Ok(out)
    }

    /// Lenient open: where [`new`](Self::new) would fail on an unreadable
    /// leading PEER_INDEX_TABLE, this yields no reader plus one quarantine
    /// entry covering the whole input. Without a peer table no RIB entry
    /// can be attributed, so nothing downstream is salvageable.
    pub fn new_lenient(data: &'a [u8]) -> (Option<Self>, Vec<QuarantinedRecord>) {
        match MrtReader::new(data) {
            Ok(r) => (Some(r), Vec::new()),
            Err(e) => {
                let kind = if e.message.contains("MRT type")
                    || e.message.contains("not PEER_INDEX_TABLE")
                {
                    IngestErrorKind::MrtBadType
                } else {
                    IngestErrorKind::MrtTruncated
                };
                let q = QuarantinedRecord::new(
                    kind,
                    0,
                    data,
                    format!("unreadable peer index table: {}", e.message),
                );
                (None, vec![q])
            }
        }
    }

    /// Lenient frame scan: collects every well-framed record as
    /// `(subtype, start, end)` and quarantines unreadable byte ranges,
    /// resyncing after each failure.
    fn scan_frames_lenient(&mut self) -> (Vec<(u16, usize, usize)>, Vec<QuarantinedRecord>) {
        let mut frames = Vec::new();
        let mut quarantined = Vec::new();
        while let Some(frame) = frame_in(self.buf, self.offset) {
            match frame {
                Frame::Record {
                    start,
                    end,
                    subtype,
                } => {
                    self.take(start, end);
                    frames.push((subtype, start, end));
                }
                Frame::Damaged {
                    start,
                    end,
                    kind,
                    message,
                } => {
                    quarantined.push(QuarantinedRecord::new(
                        kind,
                        start as u64,
                        &self.buf[start..end],
                        message,
                    ));
                    self.offset = end;
                }
            }
        }
        (frames, quarantined)
    }

    /// Decodes a slice of frames, quarantining bodies that fail to decode.
    fn decode_frames_lenient(
        &self,
        frames: &[(u16, usize, usize)],
        quarantined: &mut Vec<QuarantinedRecord>,
    ) -> Vec<RibRecord> {
        let mut out = Vec::with_capacity(frames.len());
        for &(subtype, start, end) in frames {
            let body = &self.buf[start + HEADER_LEN..end];
            match decode_rib_body(subtype, body, end, &self.peers) {
                Ok(Some(rec)) => {
                    if let Some(o) = &self.obs {
                        o.tick_record(rec.entries.len());
                    }
                    out.push(rec);
                }
                Ok(None) => {} // unknown subtype, skipped like the strict path
                Err(e) => quarantined.push(QuarantinedRecord::new(
                    IngestErrorKind::MrtBadRecord,
                    start as u64,
                    body,
                    e.message,
                )),
            }
        }
        out
    }

    /// Lenient read: decodes every recoverable RIB record and quarantines
    /// the rest — one bad record costs one record, not the run. Never
    /// fails; an unrecoverable tail becomes a single quarantine entry.
    /// Bodies decode through the shard runner over contiguous runs of
    /// frames on up to `threads` threads, folded in frame order, so the
    /// result is the same at any thread count; each shard records an
    /// `mrt.decode` span.
    pub fn read_all_lenient(mut self, threads: usize) -> LenientMrt {
        let (frames, mut quarantined) = self.scan_frames_lenient();
        let shards = p2o_obs::split_shards(&frames, threads);
        let decoded = p2o_obs::run_shards(
            self.obs.as_ref().map(|o| &o.obs),
            "mrt.decode",
            shards,
            |shard, span| {
                let mut q = Vec::new();
                let out = self.decode_frames_lenient(shard, &mut q);
                if let Some(s) = span {
                    s.arg("frames", shard.len());
                    s.arg("records", out.len());
                }
                (out, q)
            },
        );
        let (records, decode_failures) = decoded
            .into_iter()
            .reduce(|(mut records, mut q), (more, more_q)| {
                records.extend(more);
                q.extend(more_q);
                (records, q)
            })
            .unwrap_or_default();
        quarantined.extend(decode_failures);
        // Framing and body failures interleave; report them in byte order.
        quarantined.sort_by_key(|q| q.offset);
        LenientMrt {
            records,
            quarantined,
        }
    }
}

/// Outcome of a lenient MRT read: the decoded records plus a quarantine
/// entry for every rejected record or unreadable byte range.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LenientMrt {
    /// Every RIB record that decoded, in dump order.
    pub records: Vec<RibRecord>,
    /// Every rejected record, in byte-offset order.
    pub quarantined: Vec<QuarantinedRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn entry(peer: u16, path: &[u32]) -> RibEntry {
        RibEntry {
            peer_index: peer,
            originated_time: 1_725_148_800, // 2024-09-01
            attrs: PathAttributes::ebgp(AsPath::sequence(path.to_vec()), 0x0A000001),
        }
    }

    fn peers() -> Vec<PeerEntry> {
        vec![
            PeerEntry {
                bgp_id: 1,
                asn: 3356,
            },
            PeerEntry {
                bgp_id: 2,
                asn: 174,
            },
        ]
    }

    /// A raw TABLE_DUMP_V2 record with `subtype` and `body`.
    fn raw_record(subtype: u16, body: &[u8]) -> Vec<u8> {
        let mut out = vec![0; 4];
        out.extend_from_slice(&MRT_TYPE_TABLE_DUMP_V2.to_be_bytes());
        out.extend_from_slice(&subtype.to_be_bytes());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(body);
        out
    }

    /// The records of `dump` after its leading peer table.
    fn without_peer_table(dump: &[u8]) -> &[u8] {
        &dump[frame_in(dump, 0).expect("a peer table").end()..]
    }

    #[test]
    fn write_read_round_trip() {
        let mut w = MrtWriter::new(1_725_148_800, 42, &peers());
        w.push(
            p("203.0.113.0/24"),
            &[entry(0, &[3356, 18692]), entry(1, &[174, 18692])],
        );
        w.push(p("2001:db8::/32"), &[entry(0, &[3356, 701])]);
        let data = w.finish();

        let mut r = MrtReader::new(&data).unwrap();
        assert_eq!(r.peers().len(), 2);
        assert_eq!(r.peers()[1].asn, 174);

        let rec1 = r.next_rib().unwrap().unwrap();
        assert_eq!(rec1.sequence, 0);
        assert_eq!(rec1.prefix, p("203.0.113.0/24"));
        assert_eq!(rec1.entries.len(), 2);
        assert_eq!(rec1.entries[0].attrs.origin_asns(), vec![18692]);

        let rec2 = r.next_rib().unwrap().unwrap();
        assert_eq!(rec2.prefix, p("2001:db8::/32"));
        assert!(r.next_rib().unwrap().is_none());
    }

    #[test]
    fn empty_dump_has_peer_table_only() {
        let data = MrtWriter::new(0, 1, &peers()).finish();
        let mut r = MrtReader::new(&data).unwrap();
        assert!(r.next_rib().unwrap().is_none());
    }

    #[test]
    fn missing_peer_table_rejected() {
        assert!(MrtReader::new(&[]).is_err());
        // A RIB record first: build a dump then strip the peer table record.
        let mut w = MrtWriter::new(0, 1, &peers());
        w.push(p("10.0.0.0/8"), &[entry(0, &[1])]);
        let data = w.finish();
        assert!(MrtReader::new(without_peer_table(&data)).is_err());
    }

    #[test]
    fn out_of_range_peer_index_rejected() {
        let mut w = MrtWriter::new(0, 1, &peers());
        w.push(p("10.0.0.0/8"), &[entry(7, &[1])]);
        let data = w.finish();
        let mut r = MrtReader::new(&data).unwrap();
        let err = r.next_rib().unwrap_err();
        assert!(err.message.contains("peer index"));
    }

    #[test]
    fn truncated_dump_errors_with_offset() {
        let mut w = MrtWriter::new(0, 1, &peers());
        w.push(p("10.0.0.0/8"), &[entry(0, &[1, 2, 3])]);
        let data = w.finish();
        for cut in (data.len() - 10)..data.len() {
            let mut r = MrtReader::new(&data[..cut]).unwrap();
            assert!(r.next_rib().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_subtypes_are_skipped() {
        // Real dumps interleave RIB_GENERIC / multicast subtypes that this
        // reader does not interpret; they must be skipped, not fatal.
        let mut w = MrtWriter::new(0, 1, &peers());
        w.push(p("10.0.0.0/8"), &[entry(0, &[1])]);
        let mut data = w.finish();
        data.extend(raw_record(99, &0xDEADBEEFu32.to_be_bytes()));
        let mut w2 = MrtWriter::new(0, 1, &peers());
        w2.push(p("11.0.0.0/8"), &[entry(0, &[2])]);
        // Strip w2's peer table and append its RIB record after the junk.
        data.extend_from_slice(without_peer_table(&w2.finish()));

        let mut r = MrtReader::new(&data).unwrap();
        let first = r.next_rib().unwrap().unwrap();
        assert_eq!(first.prefix, p("10.0.0.0/8"));
        let second = r.next_rib().unwrap().unwrap();
        assert_eq!(second.prefix, p("11.0.0.0/8"));
        assert!(r.next_rib().unwrap().is_none());
    }

    /// Writes a dump, parses it back, re-encodes the parsed records with a
    /// fresh writer, and requires byte identity — the writer and reader
    /// agree on every field of the framing for arbitrary dump shapes.
    #[test]
    fn reencode_is_byte_identical() {
        use p2o_util::check::run_cases;
        run_cases(64, |g| {
            let peer_list: Vec<PeerEntry> = (0..g.range(1, 8))
                .map(|_| PeerEntry {
                    bgp_id: g.u32(),
                    asn: g.u32(),
                })
                .collect();
            let timestamp = g.u32();
            let collector = g.u32();
            let mut w = MrtWriter::new(timestamp, collector, &peer_list);
            for _ in 0..g.below(30) {
                let prefix = if g.bool() {
                    Prefix::V4(Prefix4::new_truncated(g.u32(), g.range(0, 32) as u8))
                } else {
                    Prefix::V6(Prefix6::new_truncated(g.u128(), g.range(0, 128) as u8))
                };
                let entries: Vec<RibEntry> = (0..g.range(1, 4))
                    .map(|_| RibEntry {
                        peer_index: g.below(peer_list.len()) as u16,
                        originated_time: g.u32(),
                        attrs: PathAttributes::ebgp(
                            AsPath::sequence(
                                (0..g.range(1, 5)).map(|_| g.u32()).collect::<Vec<u32>>(),
                            ),
                            g.u32(),
                        ),
                    })
                    .collect();
                w.push(prefix, &entries);
            }
            let wire = w.finish();

            let reader = MrtReader::new(&wire).unwrap();
            let peers_back = reader.peers().to_vec();
            assert_eq!(peers_back, peer_list);
            let records = reader.read_all().unwrap();

            let mut w2 = MrtWriter::new(timestamp, collector, &peers_back);
            for rec in &records {
                w2.push(rec.prefix, &rec.entries);
            }
            assert_eq!(w2.finish(), wire, "re-encode must be byte-identical");

            // The route table built from either byte stream is equal.
            let t1 = crate::table::RouteTable::from_mrt(&wire).unwrap();
            let mut t2 = crate::table::RouteTable::new();
            for rec in &records {
                t2.add_rib_record(rec);
            }
            assert_eq!(t1, t2);

            // Every strict prefix of a record body is an error, and no
            // single-byte flip of one panics.
            let mut pos = 0;
            while let Some(Frame::Record {
                start,
                end,
                subtype,
            }) = frame_in(&wire, pos)
            {
                pos = end;
                let decode = |body: &[u8]| match subtype {
                    SUBTYPE_PEER_INDEX_TABLE => decode_peer_table(body).map(drop),
                    _ => decode_rib_body(subtype, body, end, &peer_list)
                        .map(drop)
                        .map_err(|_| "bad RIB record"),
                };
                let body = &wire[start + HEADER_LEN..end];
                assert!(decode(body).is_ok());
                for cut in 0..body.len() {
                    assert!(decode(&body[..cut]).is_err(), "cut at {cut}");
                }
                let mut flipped = body.to_vec();
                for at in 0..body.len() {
                    let mask = g.range(1, 255) as u8;
                    flipped[at] ^= mask;
                    let _ = decode(&flipped);
                    flipped[at] ^= mask;
                }
            }
            assert_eq!(pos, wire.len());
        });
    }

    /// A PEER_INDEX_TABLE may mix every peer type (RFC 6396 §4.3.1): an
    /// IPv4 or IPv6 address, a 2- or 4-byte AS number. Each entry is sized
    /// by its type, and a table cut inside any entry is rejected.
    #[test]
    fn peer_table_entries_are_sized_by_their_type() {
        let peers: Vec<(u8, PeerEntry)> = (0..4u8)
            .map(|peer_type| {
                let asn = if peer_type & PEER_TYPE_AS4 != 0 {
                    4_200_000_000
                } else {
                    64_512
                };
                let bgp_id = 0x0A00_0001 + u32::from(peer_type);
                (
                    peer_type,
                    PeerEntry {
                        bgp_id,
                        asn: asn + u32::from(peer_type),
                    },
                )
            })
            .collect();
        let mut table = 7u32.to_be_bytes().to_vec();
        table.extend_from_slice(&3u16.to_be_bytes());
        table.extend_from_slice(b"rv2");
        table.extend_from_slice(&(peers.len() as u16).to_be_bytes());
        let mut entries = Vec::new();
        for (peer_type, peer) in &peers {
            let start = table.len();
            table.push(*peer_type);
            table.extend_from_slice(&peer.bgp_id.to_be_bytes());
            let address_len = if peer_type & PEER_TYPE_IPV6 != 0 {
                16
            } else {
                4
            };
            table.extend(std::iter::repeat_n(0x20, address_len));
            if peer_type & PEER_TYPE_AS4 != 0 {
                table.extend_from_slice(&peer.asn.to_be_bytes());
            } else {
                table.extend_from_slice(&(peer.asn as u16).to_be_bytes());
            }
            entries.push((start, table.len()));
        }
        assert_eq!(
            entries.iter().map(|(s, e)| e - s).collect::<Vec<_>>(),
            [11, 23, 13, 25]
        );

        let want: Vec<PeerEntry> = peers.iter().map(|(_, p)| p.clone()).collect();
        let mut w = MrtWriter::new(0, 7, &want);
        w.push(p("10.0.0.0/8"), &[entry(3, &[3356, 18692])]);
        w.push(p("2001:db8::/32"), &[entry(1, &[174]), entry(3, &[701])]);
        let mut dump = raw_record(SUBTYPE_PEER_INDEX_TABLE, &table);
        dump.extend_from_slice(without_peer_table(&w.finish()));
        let reader = MrtReader::new(&dump).expect("mixed peer table");
        assert_eq!(reader.peers(), want);
        let records = reader.read_all().expect("entries of the last peer");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].entries[1].peer_index, 3);
        assert_eq!(records[1].entries[1].attrs.origin_asns(), vec![701]);

        for (start, end) in entries {
            for cut in start + 1..end {
                let cut_dump = raw_record(SUBTYPE_PEER_INDEX_TABLE, &table[..cut]);
                let err = MrtReader::new(&cut_dump).expect_err("cut inside an entry");
                assert_eq!(err.message, "truncated peer entry", "cut at {cut}");
            }
        }
    }

    /// A dump of the peer table plus one raw record with `subtype` and
    /// `body`, and the offset at which that record starts.
    fn dump_with_raw_record(subtype: u16, body: &[u8]) -> (Vec<u8>, usize) {
        let mut data = MrtWriter::new(0, 1, &peers()).finish();
        let start = data.len();
        data.extend(raw_record(subtype, body));
        (data, start)
    }

    /// The strict reader rejects the record and the lenient one quarantines
    /// it as `mrt_bad_record`; both name the bad prefix.
    fn assert_bad_prefix(subtype: u16, body: &[u8], what: &str) {
        let (data, start) = dump_with_raw_record(subtype, body);
        let err = MrtReader::new(&data).unwrap().next_rib().expect_err(what);
        assert!(err.message.contains("prefix"), "{what}: {}", err.message);
        let out = MrtReader::new(&data).unwrap().read_all_lenient(1);
        assert!(out.records.is_empty(), "{what}");
        assert_eq!(out.quarantined.len(), 1, "{what}");
        assert_eq!(out.quarantined[0].kind, IngestErrorKind::MrtBadRecord);
        assert_eq!(out.quarantined[0].offset, start as u64, "{what}");
    }

    #[test]
    fn prefix_length_past_the_family_width_is_a_bad_record() {
        // Sequence number, then a length byte one past the address width;
        // an entry count follows so only the length is wrong.
        let mut v4 = vec![0, 0, 0, 0, 33];
        v4.extend_from_slice(&[10, 0, 0, 0, 0, 0, 0]);
        assert_bad_prefix(SUBTYPE_RIB_IPV4_UNICAST, &v4, "v4 /33");
        let mut v6 = vec![0, 0, 0, 0, 129];
        v6.extend_from_slice(&[0x20; 17]);
        v6.extend_from_slice(&[0, 0]);
        assert_bad_prefix(SUBTYPE_RIB_IPV6_UNICAST, &v6, "v6 /129");
    }

    #[test]
    fn body_ending_inside_the_prefix_is_a_bad_record() {
        // A /24 needs three prefix octets and a /64 eight; each body stops
        // one octet short, and a body may also stop before the length byte.
        assert_bad_prefix(SUBTYPE_RIB_IPV4_UNICAST, &[0, 0, 0, 0, 24, 10, 1], "v4 /24");
        let mut v6 = vec![0, 0, 0, 0, 64];
        v6.extend_from_slice(&[0x20, 0x01, 0x0d, 0xb8, 0, 0, 0]);
        assert_bad_prefix(SUBTYPE_RIB_IPV6_UNICAST, &v6, "v6 /64");
        assert_bad_prefix(SUBTYPE_RIB_IPV4_UNICAST, &[0, 0, 0, 0], "v4 no length");
        assert_bad_prefix(SUBTYPE_RIB_IPV6_UNICAST, &[0, 0, 0, 0], "v6 no length");
    }

    #[test]
    fn instrumented_reader_reports_counts() {
        let obs = p2o_obs::Obs::new();
        let mut w = MrtWriter::new(0, 1, &peers());
        w.push(p("10.0.0.0/8"), &[entry(0, &[1]), entry(1, &[2])]);
        w.push(p("11.0.0.0/8"), &[entry(0, &[3])]);
        let data = w.finish();
        let total = data.len() as u64;
        let mut r = MrtReader::new(&data).unwrap();
        r.instrument(&obs);
        while r.next_rib().unwrap().is_some() {}
        assert_eq!(obs.counter("mrt.records").get(), 2);
        assert_eq!(obs.counter("mrt.entries").get(), 3);
        // The peer table was read before instrument(); only the two RIB
        // records' bytes are counted.
        let peer_table_len = {
            let w = MrtWriter::new(0, 1, &peers());
            w.finish().len() as u64
        };
        assert_eq!(obs.counter("mrt.bytes").get(), total - peer_table_len);
        assert_eq!(obs.histogram("mrt.entries_per_record").count(), 2);
    }

    #[test]
    fn parallel_read_matches_sequential() {
        let mut w = MrtWriter::new(0, 1, &peers());
        for i in 0..500u32 {
            let prefix = Prefix::V4(p2o_net::Prefix4::new_truncated(i << 12, 20));
            // Record 10 references a peer the table does not have.
            let peer = if i == 10 { 9 } else { (i % 2) as u16 };
            w.push(prefix, &[entry(peer, &[3356, 64512 + i])]);
        }
        // Interleave an unknown subtype mid-dump.
        let mut data = w.finish();
        data.extend(raw_record(99, &0xDEADBEEFu32.to_be_bytes()));

        let seq = MrtReader::new(&data).unwrap().read_all_lenient(1);
        assert_eq!(seq.records.len(), 499);
        assert_eq!(seq.quarantined.len(), 1);
        for threads in [2, 3, 8] {
            let obs = p2o_obs::Obs::new();
            obs.enable_tracing();
            let mut r = MrtReader::new(&data).unwrap();
            r.instrument(&obs);
            let par = r.read_all_lenient(threads);
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(obs.counter("mrt.records").get(), 499);
            assert_eq!(obs.counter("mrt.entries").get(), 499);
            // Per-shard timing is a trace span, never a stage row.
            assert!(obs.report().stages.is_empty(), "threads={threads}");
            let decoded: Vec<u64> = obs
                .take_trace()
                .threads
                .iter()
                .flat_map(|t| &t.events)
                .filter(|e| e.name == "mrt.decode" && e.phase == p2o_obs::TracePhase::Begin)
                .map(|e| {
                    let records = e.args.iter().find(|(k, _)| k == "records");
                    records.expect("records arg").1.parse().unwrap()
                })
                .collect();
            assert!(decoded.len() > 1, "threads={threads}");
            assert_eq!(decoded.iter().sum::<u64>(), 499);
        }
    }

    /// Five-record dump plus the byte ranges of each RIB record
    /// (excluding the peer table): `(start, end)` pairs.
    fn dump_with_ranges() -> (Vec<u8>, Vec<(usize, usize)>) {
        let mut w = MrtWriter::new(0, 1, &peers());
        let table_len = {
            let w0 = MrtWriter::new(0, 1, &peers());
            w0.finish().len()
        };
        let mut ranges = Vec::new();
        let mut prev = table_len;
        for i in 0..5u32 {
            w.push(
                Prefix::V4(p2o_net::Prefix4::new_truncated((10 + i) << 24, 8)),
                &[entry(0, &[3356, 64512 + i])],
            );
            let end = w.buf.len();
            ranges.push((prev, end));
            prev = end;
        }
        (w.finish(), ranges)
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let (data, _) = dump_with_ranges();
        let strict = MrtReader::new(&data).unwrap().read_all().unwrap();
        for threads in [1, 2, 4] {
            let out = MrtReader::new(&data).unwrap().read_all_lenient(threads);
            assert_eq!(out.records, strict, "threads={threads}");
            assert!(out.quarantined.is_empty());
        }
    }

    #[test]
    fn lenient_resyncs_after_length_lie() {
        let (mut bytes, ranges) = dump_with_ranges();
        // Lie in record 2's length field: claim a body far past EOF.
        let (start, _) = ranges[2];
        bytes[start + 8..start + 12].copy_from_slice(&0xFFFF_FF00u32.to_be_bytes());
        let out = MrtReader::new(&bytes).unwrap().read_all_lenient(1);
        assert_eq!(out.records.len(), 4, "one victim, four survivors");
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].kind, IngestErrorKind::MrtBadLength);
        assert_eq!(out.quarantined[0].offset, start as u64);
        assert!(!out.quarantined[0].excerpt.is_empty());
    }

    #[test]
    fn lenient_skips_record_with_bad_type() {
        let (mut bytes, ranges) = dump_with_ranges();
        // Record 1 claims a non-TABLE_DUMP_V2 type but an honest length,
        // so the length-field skip resyncs without scanning.
        let (start, _) = ranges[1];
        bytes[start + 4..start + 6].copy_from_slice(&0x2222u16.to_be_bytes());
        let out = MrtReader::new(&bytes).unwrap().read_all_lenient(1);
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].kind, IngestErrorKind::MrtBadType);
        assert_eq!(out.quarantined[0].offset, start as u64);
    }

    #[test]
    fn lenient_quarantines_truncated_tail_as_one_record() {
        let (data, ranges) = dump_with_ranges();
        let (start, end) = ranges[4];
        for cut in [start + 5, start + 12, (start + end) / 2] {
            let out = MrtReader::new(&data[..cut]).unwrap().read_all_lenient(2);
            assert_eq!(out.records.len(), 4, "cut at {cut}");
            assert_eq!(out.quarantined.len(), 1, "cut at {cut}");
            assert_eq!(out.quarantined[0].kind, IngestErrorKind::MrtTruncated);
            assert_eq!(out.quarantined[0].offset, start as u64);
        }
    }

    #[test]
    fn lenient_quarantines_undecodable_body() {
        let (mut bytes, ranges) = dump_with_ranges();
        // Keep record 3's framing but fill its body with 0xFF: the NLRI
        // length byte becomes 255, which no prefix decoder accepts.
        let (start, end) = ranges[3];
        bytes[start + 12..end].fill(0xFF);
        for threads in [1, 4] {
            let out = MrtReader::new(&bytes).unwrap().read_all_lenient(threads);
            assert_eq!(out.records.len(), 4, "threads={threads}");
            assert_eq!(out.quarantined.len(), 1);
            assert_eq!(out.quarantined[0].kind, IngestErrorKind::MrtBadRecord);
            assert_eq!(out.quarantined[0].offset, start as u64);
        }
    }

    #[test]
    fn lenient_open_quarantines_garbage_input() {
        let (reader, quarantined) = MrtReader::new_lenient(b"not mrt data");
        assert!(reader.is_none());
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].offset, 0);
        let (reader, quarantined) = MrtReader::new_lenient(&[]);
        assert!(reader.is_none());
        assert_eq!(quarantined[0].kind, IngestErrorKind::MrtTruncated);
        assert_eq!(quarantined.len(), 1);
    }

    #[test]
    fn lenient_recovers_multiple_corruptions() {
        let (mut bytes, ranges) = dump_with_ranges();
        let (s1, _) = ranges[1];
        bytes[s1 + 4..s1 + 6].copy_from_slice(&0x2222u16.to_be_bytes());
        let (s3, e3) = ranges[3];
        bytes[s3 + 12..e3].fill(0xFF);
        let out = MrtReader::new(&bytes).unwrap().read_all_lenient(2);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.quarantined.len(), 2);
        // Quarantine entries arrive in byte order even though framing and
        // body failures are detected in different phases.
        assert_eq!(out.quarantined[0].offset, s1 as u64);
        assert_eq!(out.quarantined[1].offset, s3 as u64);
    }

    /// A dump with every framing fault the lenient reader recovers from —
    /// a bad type, a length lie, an inserted junk frame, a torn tail — plus
    /// one undecodable body, which frames cleanly.
    fn damaged_dump() -> Vec<u8> {
        let peer_table = MrtWriter::new(0, 1, &peers()).finish();
        let mut out = peer_table.clone();
        for i in 0..12u32 {
            let mut w = MrtWriter::new(0, 1, &peers());
            w.push(
                Prefix::V4(p2o_net::Prefix4::new_truncated((10 + i) << 24, 16)),
                &[entry(0, &[3356, 64512 + i])],
            );
            let mut rec = w.finish()[peer_table.len()..].to_vec();
            match i {
                2 => rec[4..6].copy_from_slice(&0x2222u16.to_be_bytes()),
                4 => rec[8..12].copy_from_slice(&0xFFFF_FF00u32.to_be_bytes()),
                6 => out.extend_from_slice(&[0, 0, 0, 0, 0x22, 0x22, 0, 0, 0, 0, 0, 4, 1, 2, 3, 4]),
                8 => rec[HEADER_LEN..].fill(0xFF),
                11 => rec.truncate(7),
                _ => {}
            }
            out.extend_from_slice(&rec);
        }
        out
    }

    #[test]
    fn framing_finds_the_damaged_ranges_the_lenient_reader_quarantines() {
        let data = damaged_dump();
        let mut frames = Vec::new();
        let mut pos = 0;
        while let Some(frame) = frame_in(&data, pos) {
            pos = frame.end();
            frames.push(frame);
        }
        assert_eq!(pos, data.len());
        let damaged: Vec<(u64, IngestErrorKind)> = frames
            .iter()
            .filter_map(|f| match *f {
                Frame::Damaged { start, kind, .. } => Some((start as u64, kind)),
                Frame::Record { .. } => None,
            })
            .collect();
        let kinds: Vec<IngestErrorKind> = damaged.iter().map(|d| d.1).collect();
        assert_eq!(
            kinds,
            [
                IngestErrorKind::MrtBadType,
                IngestErrorKind::MrtBadLength,
                IngestErrorKind::MrtBadType,
                IngestErrorKind::MrtTruncated,
            ]
        );
        // The lenient reader quarantines exactly those ranges, plus the one
        // body that frames cleanly but does not decode.
        let lenient = MrtReader::new(&data).unwrap().read_all_lenient(1);
        let framing: Vec<(u64, IngestErrorKind)> = lenient
            .quarantined
            .iter()
            .filter(|q| q.kind != IngestErrorKind::MrtBadRecord)
            .map(|q| (q.offset, q.kind))
            .collect();
        assert_eq!(framing, damaged);
        assert_eq!(lenient.quarantined.len(), damaged.len() + 1);
    }

    #[test]
    fn large_dump_round_trip() {
        let mut w = MrtWriter::new(0, 1, &peers());
        let mut want = Vec::new();
        for i in 0..1000u32 {
            let prefix = Prefix::V4(p2o_net::Prefix4::new_truncated(i << 12, 20));
            w.push(prefix, &[entry((i % 2) as u16, &[3356, 64512 + i])]);
            want.push(prefix);
        }
        let records = MrtReader::new(&w.finish()).unwrap().read_all().unwrap();
        assert_eq!(records.len(), 1000);
        assert_eq!(records.iter().map(|r| r.prefix).collect::<Vec<_>>(), want);
        // Sequence numbers are monotonic.
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.sequence, i as u32);
        }
    }
}
