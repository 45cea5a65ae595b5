//! Repository persistence as JSON Lines.
//!
//! Real RPKI repositories are trees of DER-encoded objects fetched over
//! rsync/RRDP; this reproduction's simulated objects persist as one JSON
//! object per line instead (`{"type":"cert",...}` / `{"type":"roa",...}`).
//! Signatures and key ids are stored verbatim, so a tampered file fails
//! chain validation on load exactly like a tampered repository would.
//!
//! Ids and signatures are full 64-bit digests, which do not fit in a JSON
//! number without loss; they are stored as decimal strings.

use std::path::Path;

use p2o_net::Prefix;
use p2o_util::ingest::{IngestErrorKind, QuarantinedRecord};
use p2o_util::vfs::Vfs;
use p2o_util::{Digest, Json};

use crate::cert::{CertId, ResourceCert, Roa, RoaPrefix};
use crate::repo::RpkiRepository;
use crate::resources::IpResourceSet;

fn u64_str(v: u64) -> Json {
    Json::from(v.to_string())
}

fn cert_line(cert: &ResourceCert) -> Json {
    let mut line = Json::object();
    line.set("type", "cert");
    line.set("id", u64_str(cert.id.0 .0));
    line.set(
        "issuer",
        match cert.issuer {
            Some(i) => u64_str(i.0 .0),
            None => Json::Null,
        },
    );
    line.set("subject", cert.subject.as_str());
    line.set(
        "resources",
        cert.resources
            .to_prefixes()
            .iter()
            .map(|p| Json::from(p.to_string()))
            .collect::<Vec<Json>>(),
    );
    line.set("not_before", cert.not_before);
    line.set("not_after", cert.not_after);
    line.set("signature", u64_str(cert.signature.0));
    line
}

fn roa_line(roa: &Roa) -> Json {
    let mut line = Json::object();
    line.set("type", "roa");
    line.set("asn", roa.asn);
    line.set(
        "prefixes",
        roa.prefixes
            .iter()
            .map(|rp| {
                Json::Arr(vec![
                    Json::from(rp.prefix.to_string()),
                    Json::from(rp.max_len as u32),
                ])
            })
            .collect::<Vec<Json>>(),
    );
    line.set("parent", u64_str(roa.parent.0 .0));
    line.set("not_before", roa.not_before);
    line.set("not_after", roa.not_after);
    line.set("signature", u64_str(roa.signature.0));
    line
}

/// Serializes a repository (trust anchors, certificates, ROAs) to JSONL.
pub fn to_jsonl(repo: &RpkiRepository) -> String {
    let mut out = String::new();
    for cert in repo.certs_in_order() {
        out.push_str(&cert_line(cert).to_string());
        out.push('\n');
    }
    for roa in repo.roas_in_order() {
        out.push_str(&roa_line(roa).to_string());
        out.push('\n');
    }
    out
}

/// Serializes `repo` and writes it atomically (tmp + fsync + rename) so a
/// crash mid-save never leaves a torn `rpki.jsonl` in place of a good one.
pub fn save_jsonl(vfs: &Vfs, path: &Path, repo: &RpkiRepository) -> std::io::Result<()> {
    p2o_util::atomic::write_atomic(vfs, path, "rpki", to_jsonl(repo).as_bytes())
}

/// Reads and leniently restores a repository file; I/O failures surface as
/// a single error, per-line damage quarantines as in [`from_jsonl_lenient`].
pub fn load_jsonl_lenient(
    vfs: &Vfs,
    path: &Path,
) -> std::io::Result<(RpkiRepository, Vec<QuarantinedRecord>)> {
    Ok(from_jsonl_lenient(&vfs.read_to_string(path)?))
}

struct LineReader<'a> {
    doc: &'a Json,
    idx: usize,
}

impl<'a> LineReader<'a> {
    fn field(&self, name: &str) -> Result<&'a Json, String> {
        self.doc
            .get(name)
            .ok_or_else(|| format!("line {}: missing field {name:?}", self.idx + 1))
    }

    fn u64_field(&self, name: &str) -> Result<u64, String> {
        let v = self.field(name)?;
        v.as_str()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("line {}: field {name:?} is not a u64 string", self.idx + 1))
    }

    fn u32_field(&self, name: &str) -> Result<u32, String> {
        self.field(name)?
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("line {}: field {name:?} is not a u32", self.idx + 1))
    }

    fn str_field(&self, name: &str) -> Result<&'a str, String> {
        self.field(name)?
            .as_str()
            .ok_or_else(|| format!("line {}: field {name:?} is not a string", self.idx + 1))
    }

    fn prefix(&self, v: &Json) -> Result<Prefix, String> {
        v.as_str()
            .and_then(|s| s.parse::<Prefix>().ok())
            .ok_or_else(|| format!("line {}: bad prefix", self.idx + 1))
    }
}

/// Reconstructs a repository from JSONL. Objects are restored verbatim
/// (ids and signatures included); integrity is *not* checked here — run
/// [`RpkiRepository::validate`] as usual.
pub fn from_jsonl(text: &str) -> Result<RpkiRepository, String> {
    let mut repo = RpkiRepository::new();
    for (idx, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        restore_line(idx, raw, &mut repo)?;
    }
    Ok(repo)
}

/// Lenient variant of [`from_jsonl`]: a line that fails to restore is
/// quarantined (typed, with its 1-based line number and a hex excerpt)
/// instead of aborting the load. The repository holds exactly the objects
/// from the surviving lines, restored in file order.
pub fn from_jsonl_lenient(text: &str) -> (RpkiRepository, Vec<QuarantinedRecord>) {
    let mut repo = RpkiRepository::new();
    let mut quarantined = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        if let Err(message) = restore_line(idx, raw, &mut repo) {
            quarantined.push(QuarantinedRecord::new(
                classify_rpki_error(&message),
                (idx + 1) as u64,
                raw.as_bytes(),
                message,
            ));
        }
    }
    (repo, quarantined)
}

/// Maps a [`restore_line`] error message onto the ingest taxonomy.
fn classify_rpki_error(message: &str) -> IngestErrorKind {
    if message.contains("unknown object type") {
        IngestErrorKind::RpkiBadObject
    } else if message.contains("prefix")
        || message.contains("resources")
        || message.contains("max_len")
    {
        IngestErrorKind::RpkiBadResource
    } else {
        IngestErrorKind::RpkiBadLine
    }
}

/// Restores one JSONL object line into `repo`. Errors are prefixed with
/// the 1-based line number (`idx + 1`).
fn restore_line(idx: usize, raw: &str, repo: &mut RpkiRepository) -> Result<(), String> {
    let doc = Json::parse(raw).map_err(|e| format!("line {}: {e}", idx + 1))?;
    let line = LineReader { doc: &doc, idx };
    match line.str_field("type")? {
        "cert" => {
            let issuer = match line.field("issuer")? {
                Json::Null => None,
                v => Some(
                    v.as_str()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| format!("line {}: bad issuer", idx + 1))?,
                ),
            };
            let resources: IpResourceSet = line
                .field("resources")?
                .as_array()
                .ok_or_else(|| format!("line {}: resources is not an array", idx + 1))?
                .iter()
                .map(|v| line.prefix(v))
                .collect::<Result<Vec<Prefix>, String>>()?
                .into_iter()
                .collect();
            repo.restore_cert(ResourceCert {
                id: CertId(Digest(line.u64_field("id")?)),
                issuer: issuer.map(|i| CertId(Digest(i))),
                subject: line.str_field("subject")?.to_string(),
                resources,
                not_before: line.u32_field("not_before")?,
                not_after: line.u32_field("not_after")?,
                signature: Digest(line.u64_field("signature")?),
            });
        }
        "roa" => {
            let prefixes = line
                .field("prefixes")?
                .as_array()
                .ok_or_else(|| format!("line {}: prefixes is not an array", idx + 1))?
                .iter()
                .map(|pair| {
                    let items = pair
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| format!("line {}: bad roa prefix pair", idx + 1))?;
                    let max_len = items[1]
                        .as_u64()
                        .and_then(|v| u8::try_from(v).ok())
                        .ok_or_else(|| format!("line {}: bad max_len", idx + 1))?;
                    Ok(RoaPrefix {
                        prefix: line.prefix(&items[0])?,
                        max_len,
                    })
                })
                .collect::<Result<Vec<RoaPrefix>, String>>()?;
            repo.restore_roa(Roa {
                asn: line.u32_field("asn")?,
                prefixes,
                parent: CertId(Digest(line.u64_field("parent")?)),
                not_before: line.u32_field("not_before")?,
                not_after: line.u32_field("not_after")?,
                signature: Digest(line.u64_field("signature")?),
            });
        }
        other => {
            return Err(format!("line {}: unknown object type {other:?}", idx + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::RoaPrefix;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample_repo() -> RpkiRepository {
        let mut repo = RpkiRepository::new();
        let ta = repo.issue_trust_anchor(
            "ARIN",
            [p("63.0.0.0/8"), p("2600::/12")].into_iter().collect(),
            20200101,
            20301231,
        );
        let member = repo
            .issue_cert(
                ta,
                "member-account",
                [p("63.64.0.0/10")].into_iter().collect(),
                20200101,
                20301231,
            )
            .unwrap();
        repo.issue_roa(
            member,
            701,
            vec![RoaPrefix {
                prefix: p("63.64.0.0/10"),
                max_len: 24,
            }],
            20200101,
            20301231,
        )
        .unwrap();
        repo
    }

    #[test]
    fn round_trip_preserves_validation_results() {
        let repo = sample_repo();
        let restored = from_jsonl(&to_jsonl(&repo)).unwrap();
        assert_eq!(restored.cert_count(), repo.cert_count());
        assert_eq!(restored.roa_count(), repo.roa_count());
        assert_eq!(restored.trust_anchors().len(), 1);

        let (a, pa) = repo.validate(20240901);
        let (b, pb) = restored.validate(20240901);
        assert_eq!(pa, pb);
        assert!(pa.is_empty());
        assert_eq!(a.cert_count(), b.cert_count());
        let q = p("63.80.0.0/16");
        assert_eq!(a.child_most_rc(&q), b.child_most_rc(&q));
        assert_eq!(a.rov(&q, 701), b.rov(&q, 701));
    }

    #[test]
    fn tampered_file_fails_validation_not_parsing() {
        let repo = sample_repo();
        // Flip a resource in the member cert line: the signature no longer
        // matches the content.
        let text = to_jsonl(&repo).replace("63.64.0.0/10", "63.0.0.0/9");
        let restored = from_jsonl(&text).unwrap();
        let (_, problems) = restored.validate(20240901);
        assert!(
            !problems.is_empty(),
            "tampering must be caught by validation"
        );
    }

    #[test]
    fn garbage_reports_line_numbers() {
        let err = from_jsonl("{}\n").unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
        let mut text = to_jsonl(&sample_repo());
        text.push_str("{\"type\":\"alien\"}\n");
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn lenient_load_quarantines_bad_lines_and_keeps_the_rest() {
        let clean = to_jsonl(&sample_repo());
        let mut lines: Vec<String> = clean.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 3);
        // Garble the ROA line (line 3) and interleave junk before it.
        let victim = lines[2].clone();
        lines[2].truncate(victim.len() / 2);
        lines.insert(2, "{\"type\":\"alien\"}".to_string());
        let dirty = lines.join("\n") + "\n";

        let (repo, quarantined) = from_jsonl_lenient(&dirty);
        assert_eq!(quarantined.len(), 2);
        assert_eq!(quarantined[0].kind, IngestErrorKind::RpkiBadObject);
        assert_eq!(quarantined[0].offset, 3);
        assert_eq!(quarantined[1].kind, IngestErrorKind::RpkiBadLine);
        assert_eq!(quarantined[1].offset, 4);
        assert_eq!(repo.cert_count(), 2);
        assert_eq!(repo.roa_count(), 0);

        // The surviving repository equals a strict parse of the clean text
        // minus the victim lines.
        let reduced = from_jsonl(&(lines[0].clone() + "\n" + &lines[1] + "\n")).unwrap();
        assert_eq!(repo.cert_count(), reduced.cert_count());
        let (a, pa) = repo.validate(20240901);
        let (b, pb) = reduced.validate(20240901);
        assert_eq!(pa, pb);
        assert_eq!(a.cert_count(), b.cert_count());

        // Clean input round-trips with nothing quarantined.
        let (repo, quarantined) = from_jsonl_lenient(&clean);
        assert!(quarantined.is_empty());
        assert_eq!(repo.roa_count(), 1);
    }

    #[test]
    fn bad_resources_classify_as_resource_errors() {
        let clean = to_jsonl(&sample_repo());
        let dirty = clean.replacen("63.0.0.0/8", "999.999.0.0/99", 1);
        let (_, quarantined) = from_jsonl_lenient(&dirty);
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].kind, IngestErrorKind::RpkiBadResource);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = to_jsonl(&sample_repo()).replace('\n', "\n\n");
        assert!(from_jsonl(&text).is_ok());
    }

    #[test]
    fn atomic_save_load_round_trip_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("p2o-rpki-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = Vfs::real();
        let path = dir.join("rpki.jsonl");
        let repo = sample_repo();
        save_jsonl(&vfs, &path, &repo).unwrap();
        assert!(!p2o_util::atomic::tmp_path(&path).exists());
        let (restored, quarantined) = load_jsonl_lenient(&vfs, &path).unwrap();
        assert!(quarantined.is_empty());
        assert_eq!(restored.cert_count(), repo.cert_count());
        assert_eq!(restored.roa_count(), repo.roa_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_digests_survive_round_trip_exactly() {
        // 64-bit ids/signatures exceed f64's 53-bit mantissa; string encoding
        // must preserve them bit-for-bit.
        let repo = sample_repo();
        let restored = from_jsonl(&to_jsonl(&repo)).unwrap();
        for (a, b) in repo.certs_in_order().zip(restored.certs_in_order()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.signature, b.signature);
        }
        for (a, b) in repo.roas_in_order().zip(restored.roas_in_order()) {
            assert_eq!(a.signature, b.signature);
        }
    }
}
