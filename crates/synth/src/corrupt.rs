//! Deterministic fault injection for corruption-tolerance testing.
//!
//! The injector damages a generated [`World`]'s native-format artifacts —
//! the MRT RIB, the per-registry WHOIS dumps, and the RPKI JSONL — with
//! seeded, *detectable* faults: every injected fault is guaranteed to
//! produce exactly one quarantined record when the damaged artifact is fed
//! through the lenient parsers, and nothing else. That guarantee is what
//! lets the corruption-recovery property test reconcile `injected ==
//! quarantined` per layer and assert that the lenient pipeline's output on
//! corrupted input equals the strict pipeline's output on the same input
//! with the victim records removed ([`Corrupted::without_victims`]).
//!
//! Fault modes per layer (all seeded, all deterministic):
//!
//! - **MRT**: header type overwritten (`MrtBadType`), length-field lie that
//!   overruns the input (`MrtBadLength` via scan resync), body filled with
//!   `0xFF` (`MrtBadRecord`), mid-record EOF on the final record
//!   (`MrtTruncated`), and interleaved junk frames. The peer index table
//!   (record 0) is never targeted. Framing-level faults are never injected
//!   into adjacent frames: the resync scanner would merge two touching
//!   damaged ranges into one quarantined record and break reconciliation,
//!   so a second fault landing next to a framing fault downgrades to a
//!   body fill (which keeps its framing intact).
//! - **WHOIS**: network-field mangling (`RpslBadNet`), organization
//!   attribute removal (`RpslBadObject`), status/NetType mangling where the
//!   parser drops the record for it (`RpslBadAttr`, ARIN and LACNIC
//!   flavours only — the RPSL parser keeps records with unknown status),
//!   junk block insertion, and mid-key truncation of the final block
//!   (`RpslUnterminated`).
//! - **RPKI**: ROA-line truncation, unknown object type, unparseable
//!   resource prefix, and junk line insertion. Only leaf (ROA) lines are
//!   targeted: damaging a certificate line would cascade restore failures
//!   into its children and break the one-fault-one-quarantine invariant.
//!
//! Duplicated records are a *benign* corruption (real collectors emit
//! them): duplicates are inserted into both `data` and `without_victims`
//! and not counted as faults, so they exercise the pipeline without
//! perturbing the reconciliation.
//!
//! When a layer's rate is positive but the per-record draws selected no
//! victim, the first eligible record is force-corrupted so that `rate > 0`
//! always implies at least one quarantined record per artifact that has
//! eligible records (the CI smoke job asserts exactly this).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2o_bgp::mrt::{frame_in, Frame};
use p2o_whois::{Registry, Rir};

use crate::world::World;

/// Per-layer corruption rates and the seed driving the fault stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Seed for the injector's RNG (independent of the world seed).
    pub seed: u64,
    /// Probability that an MRT RIB record is damaged.
    pub mrt_rate: f64,
    /// Probability that a WHOIS block is damaged.
    pub whois_rate: f64,
    /// Probability that an RPKI ROA line is damaged.
    pub rpki_rate: f64,
}

impl CorruptionConfig {
    /// The same rate for every layer.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        CorruptionConfig {
            seed,
            mrt_rate: rate,
            whois_rate: rate,
            rpki_rate: rate,
        }
    }
}

/// A corrupted artifact together with its reconciliation baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Corrupted<T> {
    /// The artifact with faults injected.
    pub data: T,
    /// The clean artifact with the victim records removed: the lenient
    /// parse of [`data`](Corrupted::data) must equal the strict parse of
    /// this.
    pub without_victims: T,
    /// Number of injected detectable faults (== expected quarantine count).
    pub faults: usize,
}

/// All of a world's artifacts, corrupted.
#[derive(Debug, Clone)]
pub struct CorruptedWorld {
    /// Per-registry WHOIS dumps.
    pub whois: Vec<(Registry, Corrupted<String>)>,
    /// The MRT RIB snapshot.
    pub mrt: Corrupted<Vec<u8>>,
    /// The RPKI repository in persist JSONL form.
    pub rpki_jsonl: Corrupted<String>,
}

impl CorruptedWorld {
    /// Total injected faults across the WHOIS layer.
    pub fn whois_faults(&self) -> usize {
        self.whois.iter().map(|(_, c)| c.faults).sum()
    }

    /// Total injected faults across all layers.
    pub fn total_faults(&self) -> usize {
        self.whois_faults() + self.mrt.faults + self.rpki_jsonl.faults
    }
}

/// Corrupts every artifact of `world` under `config`. Rate 0 for a layer
/// reproduces that artifact byte-identically with zero faults.
pub fn corrupt_world(world: &World, config: &CorruptionConfig) -> CorruptedWorld {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let whois = world
        .whois_dumps
        .iter()
        .map(|d| {
            (
                d.registry,
                corrupt_whois(&d.text, d.registry, config.whois_rate, &mut rng),
            )
        })
        .collect();
    let mrt = corrupt_mrt(&world.mrt, config.mrt_rate, &mut rng);
    let jsonl = p2o_rpki::persist::to_jsonl(&world.rpki);
    let rpki_jsonl = corrupt_jsonl(&jsonl, config.rpki_rate, &mut rng);
    CorruptedWorld {
        whois,
        mrt,
        rpki_jsonl,
    }
}

// --- MRT ---

const MRT_TYPE_TABLE_DUMP_V2: u16 = 13;
const MAX_PLAUSIBLE_SUBTYPE: u16 = 16;
/// A type value no TABLE_DUMP_V2 reader accepts.
const JUNK_MRT_TYPE: [u8; 2] = [0x22, 0x22];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MrtMode {
    BadType,
    LengthLie,
    BodyFill,
    TailEof,
    JunkInsert,
}

/// Splits a well-formed TABLE_DUMP_V2 buffer into `(start, total_len)`
/// frames. `None` if the input is not cleanly framed (the injector only
/// corrupts known-good input).
fn mrt_frames(buf: &[u8]) -> Option<Vec<(usize, usize)>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while let Some(frame) = frame_in(buf, pos) {
        let Frame::Record { start, end, .. } = frame else {
            return None;
        };
        frames.push((start, end - start));
        pos = end;
    }
    Some(frames)
}

/// Whether any position strictly inside the victim frame could be mistaken
/// for a record header by the resync scanner (conservative: the scanner
/// additionally requires the claimed length to fit, which this ignores).
fn has_false_header(frame: &[u8], next_header: &[u8]) -> bool {
    let mut window = frame.to_vec();
    window.extend_from_slice(&next_header[..next_header.len().min(12)]);
    (1..frame.len()).any(|pos| {
        if window.len() < pos + 8 {
            return false;
        }
        let mrt_type = u16::from_be_bytes([window[pos + 4], window[pos + 5]]);
        let subtype = u16::from_be_bytes([window[pos + 6], window[pos + 7]]);
        mrt_type == MRT_TYPE_TABLE_DUMP_V2 && (1..=MAX_PLAUSIBLE_SUBTYPE).contains(&subtype)
    })
}

fn junk_mrt_frame() -> Vec<u8> {
    let mut frame = vec![0u8; 12];
    frame[4..6].copy_from_slice(&JUNK_MRT_TYPE);
    frame[8..12].copy_from_slice(&8u32.to_be_bytes());
    frame.extend_from_slice(&[0xAB; 8]);
    frame
}

/// Corrupts an MRT buffer. Record 0 (the peer index table) is never
/// touched.
pub fn corrupt_mrt(data: &[u8], rate: f64, rng: &mut StdRng) -> Corrupted<Vec<u8>> {
    let identity = || Corrupted {
        data: data.to_vec(),
        without_victims: data.to_vec(),
        faults: 0,
    };
    if rate <= 0.0 {
        return identity();
    }
    let Some(frames) = mrt_frames(data) else {
        return identity();
    };
    if frames.len() < 2 {
        return identity();
    }

    // Decide first (stable draw order), render second.
    let mut decisions: Vec<(bool, u32, bool)> = (1..frames.len())
        .map(|_| {
            (
                rng.random_bool(rate),
                rng.random_range(0..5u32),
                rng.random_bool(rate / 4.0),
            )
        })
        .collect();
    if !decisions.iter().any(|d| d.0) {
        decisions[0].0 = true;
    }

    let mut out = Vec::with_capacity(data.len());
    let mut clean = Vec::with_capacity(data.len());
    out.extend_from_slice(&data[..frames[0].1]);
    clean.extend_from_slice(&data[..frames[0].1]);
    let mut faults = 0usize;
    let mut last_framing_bad = false;
    for (i, &(start, total)) in frames.iter().enumerate().skip(1) {
        let frame = &data[start..start + total];
        let (victim, mode_draw, dup) = decisions[i - 1];
        if !victim {
            out.extend_from_slice(frame);
            clean.extend_from_slice(frame);
            if dup {
                out.extend_from_slice(frame);
                clean.extend_from_slice(frame);
            }
            last_framing_bad = false;
            continue;
        }
        let is_last = i == frames.len() - 1;
        let mut mode = match mode_draw {
            0 => MrtMode::BadType,
            1 => MrtMode::LengthLie,
            2 => MrtMode::BodyFill,
            3 => MrtMode::TailEof,
            _ => MrtMode::JunkInsert,
        };
        if mode == MrtMode::TailEof && !is_last {
            mode = MrtMode::BadType;
        }
        if mode == MrtMode::LengthLie {
            // The lie forces a byte-by-byte resync scan, which must land on
            // the *next real header* and nowhere earlier — require a clean
            // following frame and no header-lookalike inside the body.
            let next_ok = !is_last && !decisions[i].0;
            let next_header = frames
                .get(i + 1)
                .map(|&(s, _)| &data[s..s + 12])
                .unwrap_or(&[]);
            if !next_ok || has_false_header(frame, next_header) {
                mode = MrtMode::BadType;
            }
        }
        // Two adjacent framing-damaged ranges would be quarantined as one
        // record by the resync scanner; keep framing intact instead.
        if last_framing_bad && mode != MrtMode::BodyFill {
            mode = MrtMode::BodyFill;
        }
        faults += 1;
        match mode {
            MrtMode::BadType => {
                let mut f = frame.to_vec();
                f[4..6].copy_from_slice(&JUNK_MRT_TYPE);
                out.extend_from_slice(&f);
                last_framing_bad = true;
            }
            MrtMode::LengthLie => {
                let mut f = frame.to_vec();
                f[8..12].copy_from_slice(&0xFFFF_FF00u32.to_be_bytes());
                out.extend_from_slice(&f);
                last_framing_bad = true;
            }
            MrtMode::BodyFill => {
                let mut f = frame.to_vec();
                for b in &mut f[12..] {
                    *b = 0xFF;
                }
                out.extend_from_slice(&f);
                last_framing_bad = false;
            }
            MrtMode::TailEof => {
                out.extend_from_slice(&frame[..6]);
                last_framing_bad = true;
            }
            MrtMode::JunkInsert => {
                out.extend_from_slice(&junk_mrt_frame());
                out.extend_from_slice(frame);
                clean.extend_from_slice(frame);
                last_framing_bad = false;
            }
        }
    }
    Corrupted {
        data: out,
        without_victims: clean,
        faults,
    }
}

// --- WHOIS ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Arin,
    Lacnic,
    Rpsl,
}

fn flavor_of(registry: Registry) -> Flavor {
    match registry {
        Registry::Rir(Rir::Arin) => Flavor::Arin,
        Registry::Rir(Rir::Lacnic)
        | Registry::Nir(p2o_whois::Nir::NicBr)
        | Registry::Nir(p2o_whois::Nir::NicMx) => Flavor::Lacnic,
        _ => Flavor::Rpsl,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WhoisMode {
    MangleNet,
    DropOrg,
    MangleStatus,
    JunkInsert,
    BlankOrgName,
}

/// Whether a block is a corruptible record for its flavour. RPSL
/// `organisation` objects are eligible too (their loss is observable as a
/// dropped object, and handle resolution degrades identically on both
/// sides of the reconciliation).
fn block_eligibility(block: &str, flavor: Flavor) -> Option<bool> {
    let first_key = block.split(':').next().unwrap_or("").trim();
    match flavor {
        Flavor::Arin => block
            .lines()
            .any(|l| l.starts_with("NetRange"))
            .then_some(false),
        Flavor::Lacnic => (first_key == "inetnum").then_some(false),
        Flavor::Rpsl => match first_key {
            "inetnum" | "inet6num" => Some(false),
            "organisation" => Some(true),
            _ => None,
        },
    }
}

fn mangle_net(block: &str, flavor: Flavor) -> String {
    let mut lines: Vec<String> = block.lines().map(str::to_string).collect();
    match flavor {
        Flavor::Arin => {
            for line in &mut lines {
                if line.starts_with("NetRange") {
                    *line = "NetRange:       999.999.999.999 - bogus".to_string();
                }
            }
        }
        Flavor::Lacnic | Flavor::Rpsl => {
            if let Some(first) = lines.first_mut() {
                let key = first.split(':').next().unwrap_or("inetnum").to_string();
                *first = format!("{key}:        999.999.999.999/99");
            }
        }
    }
    lines.join("\n")
}

fn drop_org(block: &str, flavor: Flavor) -> String {
    let keep = |line: &&str| {
        let key = line.split(':').next().unwrap_or("").trim().to_lowercase();
        match flavor {
            Flavor::Arin => key != "orgname",
            Flavor::Lacnic => key != "owner",
            Flavor::Rpsl => !matches!(key.as_str(), "org" | "descr" | "netname"),
        }
    };
    block.lines().filter(keep).collect::<Vec<&str>>().join("\n")
}

fn mangle_status(block: &str, flavor: Flavor) -> String {
    let mut lines: Vec<String> = block.lines().map(str::to_string).collect();
    for line in &mut lines {
        match flavor {
            Flavor::Arin if line.starts_with("NetType") => {
                *line = "NetType:        Mystery-Type".to_string();
            }
            Flavor::Lacnic if line.starts_with("status") => {
                *line = "status:      mystery".to_string();
            }
            _ => {}
        }
    }
    lines.join("\n")
}

fn blank_org_name(block: &str) -> String {
    block
        .lines()
        .filter(|l| !l.starts_with("org-name"))
        .collect::<Vec<&str>>()
        .join("\n")
}

fn junk_block(flavor: Flavor) -> &'static str {
    match flavor {
        Flavor::Arin => {
            "NetRange:       999.999.999.999 - bogus\nNetType:        Allocation\nOrgName:        Junk Injected Co\nUpdated:        2024-01-01"
        }
        Flavor::Lacnic => {
            "inetnum:     999.999.999.999/99\nstatus:      allocated\nowner:       Junk Injected\nchanged:     20240101"
        }
        Flavor::Rpsl => {
            "inetnum:        999.999.999.999/99\ndescr:          Junk Injected\nsource:         TEST"
        }
    }
}

/// Corrupts one WHOIS dump in its native flavour.
pub fn corrupt_whois(
    text: &str,
    registry: Registry,
    rate: f64,
    rng: &mut StdRng,
) -> Corrupted<String> {
    let identity = || Corrupted {
        data: text.to_string(),
        without_victims: text.to_string(),
        faults: 0,
    };
    if rate <= 0.0 {
        return identity();
    }
    let flavor = flavor_of(registry);
    let blocks: Vec<&str> = text
        .split("\n\n")
        .filter(|b| !b.trim().is_empty())
        .collect();
    if blocks.is_empty() {
        return identity();
    }

    // Decide per-block fates, then the final-block truncation, then force.
    #[derive(PartialEq)]
    enum Fate {
        Pass,
        Duplicate,
        Fault(WhoisMode),
    }
    let mut fates: Vec<Fate> = Vec::with_capacity(blocks.len());
    let mut any_fault = false;
    for block in &blocks {
        let Some(is_org) = block_eligibility(block, flavor) else {
            fates.push(Fate::Pass);
            continue;
        };
        let victim = rng.random_bool(rate);
        let mode_draw = rng.random_range(0..4u32);
        let dup = rng.random_bool(rate / 4.0);
        if !victim {
            fates.push(if dup { Fate::Duplicate } else { Fate::Pass });
            continue;
        }
        let mode = if is_org {
            if mode_draw % 2 == 0 {
                WhoisMode::BlankOrgName
            } else {
                WhoisMode::JunkInsert
            }
        } else {
            match mode_draw {
                0 => WhoisMode::MangleNet,
                1 => WhoisMode::DropOrg,
                2 if flavor != Flavor::Rpsl => WhoisMode::MangleStatus,
                2 => WhoisMode::MangleNet,
                _ => WhoisMode::JunkInsert,
            }
        };
        any_fault = true;
        fates.push(Fate::Fault(mode));
    }
    let truncate_tail = rng.random_bool(rate) && fates.last() == Some(&Fate::Pass);
    if !any_fault && !truncate_tail {
        // Force-corrupt the first eligible block.
        if let Some(idx) = blocks
            .iter()
            .position(|b| block_eligibility(b, flavor).is_some())
        {
            let mode = match block_eligibility(blocks[idx], flavor) {
                Some(true) => WhoisMode::BlankOrgName,
                _ => WhoisMode::MangleNet,
            };
            fates[idx] = Fate::Fault(mode);
            any_fault = true;
        }
    }
    if !any_fault && !truncate_tail {
        return identity();
    }

    let mut data_blocks: Vec<String> = Vec::new();
    let mut clean_blocks: Vec<String> = Vec::new();
    let mut faults = 0usize;
    for (block, fate) in blocks.iter().zip(&fates) {
        match fate {
            Fate::Pass => {
                data_blocks.push(block.to_string());
                clean_blocks.push(block.to_string());
            }
            Fate::Duplicate => {
                for _ in 0..2 {
                    data_blocks.push(block.to_string());
                    clean_blocks.push(block.to_string());
                }
            }
            Fate::Fault(mode) => {
                faults += 1;
                match mode {
                    WhoisMode::MangleNet => data_blocks.push(mangle_net(block, flavor)),
                    WhoisMode::DropOrg => data_blocks.push(drop_org(block, flavor)),
                    WhoisMode::MangleStatus => data_blocks.push(mangle_status(block, flavor)),
                    WhoisMode::BlankOrgName => data_blocks.push(blank_org_name(block)),
                    WhoisMode::JunkInsert => {
                        data_blocks.push(junk_block(flavor).to_string());
                        data_blocks.push(block.to_string());
                        clean_blocks.push(block.to_string());
                    }
                }
            }
        }
    }

    let render = |blocks: &[String]| {
        let mut out = String::new();
        for b in blocks {
            out.push_str(b);
            out.push_str("\n\n");
        }
        out
    };
    let mut data = render(&data_blocks);
    if truncate_tail {
        // Cut the final block mid-key: strip the trailing blank line, then
        // keep only the first few characters of its last attribute line so
        // the dump ends in a colon-less fragment with no newline.
        while data.ends_with('\n') {
            data.pop();
        }
        let line_start = data.rfind('\n').map(|p| p + 1).unwrap_or(0);
        let last_line = &data[line_start..];
        let cut = last_line.find(':').map(|c| c.clamp(1, 4)).unwrap_or(1);
        data.truncate(line_start + cut);
        clean_blocks.pop();
        faults += 1;
    }
    Corrupted {
        data,
        without_victims: render(&clean_blocks),
        faults,
    }
}

// --- RPKI ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RpkiMode {
    Truncate,
    TypeMangle,
    BadResource,
    JunkInsert,
}

const ROA_MARKER: &str = "\"type\":\"roa\"";
const RPKI_JUNK_LINE: &str = "{\"type\":\"alien\",\"asn\":0}";

fn bad_resource(line: &str) -> Option<String> {
    // ROA prefixes serialize as `"prefixes":[["a.b.c.d/len",max], ...]` —
    // replace the first prefix string with an unparseable one.
    let open = line.find("[[\"")? + 3;
    let close = open + line[open..].find('"')?;
    Some(format!(
        "{}999.999.999.999/99{}",
        &line[..open],
        &line[close..]
    ))
}

/// Corrupts an RPKI persist-format JSONL text. Only ROA (leaf) lines are
/// targeted so a fault never cascades into dependent objects.
pub fn corrupt_jsonl(text: &str, rate: f64, rng: &mut StdRng) -> Corrupted<String> {
    let identity = || Corrupted {
        data: text.to_string(),
        without_victims: text.to_string(),
        faults: 0,
    };
    if rate <= 0.0 {
        return identity();
    }
    let lines: Vec<&str> = text.lines().collect();
    let eligible: Vec<bool> = lines.iter().map(|l| l.contains(ROA_MARKER)).collect();
    if !eligible.iter().any(|&e| e) {
        return identity();
    }
    let mut fates: Vec<Option<RpkiMode>> = lines
        .iter()
        .zip(&eligible)
        .map(|(_, &ok)| {
            if !ok {
                return None;
            }
            if !rng.random_bool(rate) {
                let _ = rng.random_range(0..4u32); // keep the stream aligned
                return None;
            }
            Some(match rng.random_range(0..4u32) {
                0 => RpkiMode::Truncate,
                1 => RpkiMode::TypeMangle,
                2 => RpkiMode::BadResource,
                _ => RpkiMode::JunkInsert,
            })
        })
        .collect();
    if !fates.iter().any(|f| f.is_some()) {
        let idx = eligible.iter().position(|&e| e).expect("checked above");
        fates[idx] = Some(RpkiMode::TypeMangle);
    }

    let mut data_lines: Vec<String> = Vec::new();
    let mut clean_lines: Vec<String> = Vec::new();
    let mut faults = 0usize;
    for (line, fate) in lines.iter().zip(&fates) {
        let Some(mode) = fate else {
            data_lines.push(line.to_string());
            clean_lines.push(line.to_string());
            continue;
        };
        faults += 1;
        match mode {
            RpkiMode::Truncate => data_lines.push(line[..line.len() / 2].to_string()),
            RpkiMode::TypeMangle => {
                data_lines.push(line.replacen(ROA_MARKER, "\"type\":\"???\"", 1))
            }
            RpkiMode::BadResource => match bad_resource(line) {
                Some(mangled) => data_lines.push(mangled),
                None => data_lines.push(line.replacen(ROA_MARKER, "\"type\":\"???\"", 1)),
            },
            RpkiMode::JunkInsert => {
                data_lines.push(RPKI_JUNK_LINE.to_string());
                data_lines.push(line.to_string());
                clean_lines.push(line.to_string());
            }
        }
    }
    let render = |lines: &[String]| {
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    };
    Corrupted {
        data: render(&data_lines),
        without_victims: render(&clean_lines),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use p2o_bgp::{pfx2as, RouteTable};

    fn world() -> World {
        World::generate(WorldConfig::tiny(41))
    }

    #[test]
    fn rate_zero_is_identity() {
        let w = world();
        let c = corrupt_world(&w, &CorruptionConfig::uniform(9, 0.0));
        assert_eq!(c.mrt.data, w.mrt);
        assert_eq!(c.mrt.without_victims, w.mrt);
        assert_eq!(c.total_faults(), 0);
        for (i, (_, dump)) in c.whois.iter().enumerate() {
            assert_eq!(dump.data, w.whois_dumps[i].text);
        }
        assert_eq!(c.rpki_jsonl.data, p2o_rpki::persist::to_jsonl(&w.rpki));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let w = world();
        let cfg = CorruptionConfig::uniform(77, 0.2);
        let a = corrupt_world(&w, &cfg);
        let b = corrupt_world(&w, &cfg);
        assert_eq!(a.mrt, b.mrt);
        assert_eq!(a.rpki_jsonl, b.rpki_jsonl);
        assert_eq!(a.whois, b.whois);
    }

    #[test]
    fn positive_rate_always_injects() {
        let w = world();
        let c = corrupt_world(&w, &CorruptionConfig::uniform(5, 0.001));
        assert!(c.mrt.faults >= 1);
        assert!(c.rpki_jsonl.faults >= 1);
        for (reg, dump) in &c.whois {
            assert!(dump.faults >= 1, "{reg}: no fault injected");
        }
    }

    #[test]
    fn mrt_faults_reconcile_with_lenient_parse() {
        let w = world();
        for seed in [1u64, 2, 3, 4, 5] {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = corrupt_mrt(&w.mrt, 0.2, &mut rng);
            let lenient = RouteTable::from_mrt_lenient(&c.data, None, 1);
            assert_eq!(
                lenient.quarantined.len(),
                c.faults,
                "seed {seed}: quarantined != injected"
            );
            let strict =
                RouteTable::from_mrt(&c.without_victims).expect("victimless MRT parses strictly");
            assert_eq!(
                pfx2as::write(&lenient.table),
                pfx2as::write(&strict),
                "seed {seed}: lenient(corrupted) != strict(without victims)"
            );
        }
    }

    #[test]
    fn whois_faults_reconcile_per_flavor() {
        let w = world();
        for seed in [11u64, 12, 13] {
            let mut rng = StdRng::seed_from_u64(seed);
            for dump in &w.whois_dumps {
                let c = corrupt_whois(&dump.text, dump.registry, 0.25, &mut rng);
                let (problems, records, clean_records) = match flavor_of(dump.registry) {
                    Flavor::Arin => {
                        let d = p2o_whois::arin::parse_dump(&c.data);
                        let cl = p2o_whois::arin::parse_dump(&c.without_victims);
                        assert!(cl.problems.is_empty(), "{:?}", cl.problems);
                        (d.problems.len(), d.records, cl.records)
                    }
                    Flavor::Lacnic => {
                        let d = p2o_whois::lacnic::parse_dump(&c.data, dump.registry);
                        let cl = p2o_whois::lacnic::parse_dump(&c.without_victims, dump.registry);
                        assert!(cl.problems.is_empty(), "{:?}", cl.problems);
                        (d.problems.len(), d.records, cl.records)
                    }
                    Flavor::Rpsl => {
                        let d = p2o_whois::rpsl::parse_dump(&c.data, dump.registry);
                        let cl = p2o_whois::rpsl::parse_dump(&c.without_victims, dump.registry);
                        assert!(cl.problems.is_empty(), "{:?}", cl.problems);
                        (d.problems.len(), d.records, cl.records)
                    }
                };
                assert_eq!(
                    problems, c.faults,
                    "{}: problems != injected (seed {seed})",
                    dump.registry
                );
                assert_eq!(records, clean_records, "{}", dump.registry);
            }
        }
    }

    #[test]
    fn rpki_faults_reconcile() {
        let w = world();
        let jsonl = p2o_rpki::persist::to_jsonl(&w.rpki);
        for seed in [21u64, 22, 23] {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = corrupt_jsonl(&jsonl, 0.3, &mut rng);
            let (repo, quarantined) = p2o_rpki::persist::from_jsonl_lenient(&c.data);
            assert_eq!(quarantined.len(), c.faults, "seed {seed}");
            let strict = p2o_rpki::persist::from_jsonl(&c.without_victims)
                .expect("victimless JSONL parses strictly");
            assert_eq!(
                p2o_rpki::persist::to_jsonl(&repo),
                p2o_rpki::persist::to_jsonl(&strict),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn heavy_corruption_never_panics_and_reconciles() {
        let w = world();
        let c = corrupt_world(&w, &CorruptionConfig::uniform(99, 0.5));
        let lenient = RouteTable::from_mrt_lenient(&c.mrt.data, None, 2);
        assert_eq!(lenient.quarantined.len(), c.mrt.faults);
        let (_, q) = p2o_rpki::persist::from_jsonl_lenient(&c.rpki_jsonl.data);
        assert_eq!(q.len(), c.rpki_jsonl.faults);
    }
}
