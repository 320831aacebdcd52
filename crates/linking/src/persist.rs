//! Crash-safe catalog persistence: checksummed shard snapshots, atomic
//! manifests, and corruption-recovering restart.
//!
//! A [`ShardedStore`] is already flat — per-property text arenas plus
//! `u32` offset arrays — so the on-disk format is a direct dump of those
//! extents, not a re-encoding. Only ids and columns are written; what a
//! store derives from them is re-derived on first use after a restart,
//! so no file can hold a derived copy that disagrees with its columns:
//!
//! ```text
//!  <dir>/
//!    MANIFEST-00000002          ← commit point (newest generation)
//!    MANIFEST-00000001          ← previous generation (retained for fallback)
//!    schema-4f1c….clschema      ← interner snapshot (property IRIs in id order)
//!    shard-a90b….clshard        ← shard 0 (ids + columns)
//!    shard-77de….clshard        ← shard 1
//!
//!  shard/schema file:  magic ─ version ─ section count ─ sections…
//!  section:            tag ─ length ─ payload ─ XXH64(payload, seed=tag)
//!  manifest (text):    header ─ generation ─ schema line ─ shard lines
//!                      ─ "seal <XXH64 of everything above>"
//! ```
//!
//! **Data files are content-addressed**: the file name embeds the XXH64
//! of the file's bytes (the same hash the manifest records), so a shard
//! that already exists on disk is never rewritten. Snapshotting an
//! appended catalog therefore spills only the new shards — the commit
//! cost of an incremental snapshot is O(delta), like the append itself.
//!
//! **The manifest rename is the commit point.** A snapshot writes every
//! data file (temp file, fsync, rename), then the manifest the same way:
//! `MANIFEST-<gen>.tmp` → fsync → rename to `MANIFEST-<gen>` → fsync the
//! directory. A crash anywhere before the rename leaves the previous
//! manifest — and every file it references — untouched; the leftover
//! temp/orphan files are swept by the next [`CatalogSnapshot::open`].
//!
//! **`open` trusts nothing.** Every referenced file is re-hashed against
//! the manifest, every section checksum is verified, and every decoded
//! structure is bounds-checked before a [`ShardedStore`] is assembled —
//! a snapshot that fails any check is *discarded as a whole* and the
//! loader falls back to the previous manifest generation, reporting what
//! it skipped through a [`RecoveryReport`]. Corrupt manifests, temp
//! files and unreferenced data files are deleted on the way out, and the
//! two newest valid generations are retained so the *next* crash also
//! has a fallback. The loader never panics on corrupt input and never
//! returns a partially-loaded catalog.

use crate::intern::PropertyInterner;
use crate::shard::ShardedStore;
use crate::store::RecordStore;
use classilink_rdf::{Literal, Term};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use twox_hash::XxHash64;

const SHARD_MAGIC: &[u8; 8] = b"CLSHRD01";
const SCHEMA_MAGIC: &[u8; 8] = b"CLSCHM01";
const FORMAT_VERSION: u32 = 2;
const MANIFEST_HEADER: &str = "classilink-manifest v1";
const MANIFEST_PREFIX: &str = "MANIFEST-";
const TMP_SUFFIX: &str = ".tmp";
const SHARD_EXT: &str = "clshard";
const SCHEMA_EXT: &str = "clschema";
/// Valid manifest generations retained by the sweep: the newest (the
/// restart point) plus one predecessor (the fallback if the newest is
/// torn by the next crash).
const RETAINED_GENERATIONS: usize = 2;

const SECTION_IDS: u32 = 1;
const SECTION_COLUMNS: u32 = 2;
const SECTION_SCHEMA: u32 = 4;

fn xxh64(seed: u64, bytes: &[u8]) -> u64 {
    XxHash64::oneshot(seed, bytes)
}

/// A persistence failure. Every variant names the file (or directory)
/// involved, so a production log line is actionable without a debugger.
#[derive(Debug, Clone)]
pub enum PersistError {
    /// An I/O operation failed.
    Io {
        /// What the operation was doing (e.g. `"write shard file"`).
        op: &'static str,
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying I/O error (shared so the variant stays
        /// cloneable; exposed through [`std::error::Error::source`]).
        source: Arc<io::Error>,
    },
    /// A snapshot file failed checksum or structural validation.
    Corrupt {
        /// The corrupt file.
        path: PathBuf,
        /// Which check failed.
        detail: String,
    },
    /// The directory holds no manifest at all — nothing was ever
    /// committed there (or the directory does not exist).
    NoSnapshot {
        /// The snapshot directory.
        dir: PathBuf,
    },
    /// Manifests exist but every generation failed validation; the
    /// catalog cannot be restored from this directory.
    NoUsableGeneration {
        /// The snapshot directory.
        dir: PathBuf,
        /// Per-manifest failure summaries, newest first.
        detail: String,
    },
}

impl PersistError {
    fn io(op: &'static str, path: &Path, source: io::Error) -> Self {
        PersistError::Io {
            op,
            path: path.to_path_buf(),
            source: Arc::new(source),
        }
    }

    fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        PersistError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, source } => {
                write!(f, "{op} failed for {}: {source}", path.display())
            }
            PersistError::Corrupt { path, detail } => {
                write!(f, "snapshot file {} is corrupt: {detail}", path.display())
            }
            PersistError::NoSnapshot { dir } => {
                write!(
                    f,
                    "no catalog snapshot in {}: no manifest found",
                    dir.display()
                )
            }
            PersistError::NoUsableGeneration { dir, detail } => {
                write!(
                    f,
                    "no usable manifest generation in {}: {detail}",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    /// [`PersistError::Io`] exposes the wrapped [`io::Error`]; the
    /// validation variants originate here and have no source.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Structural equality. [`io::Error`] itself is not comparable, so the
/// `Io` variant compares the error's kind and rendering — exactly what a
/// test (or a retry classifier) can observe.
impl PartialEq for PersistError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                PersistError::Io { op, path, source },
                PersistError::Io {
                    op: op2,
                    path: path2,
                    source: source2,
                },
            ) => {
                op == op2
                    && path == path2
                    && source.kind() == source2.kind()
                    && source.to_string() == source2.to_string()
            }
            (
                PersistError::Corrupt { path, detail },
                PersistError::Corrupt {
                    path: path2,
                    detail: detail2,
                },
            ) => path == path2 && detail == detail2,
            (PersistError::NoSnapshot { dir }, PersistError::NoSnapshot { dir: dir2 }) => {
                dir == dir2
            }
            (
                PersistError::NoUsableGeneration { dir, detail },
                PersistError::NoUsableGeneration {
                    dir: dir2,
                    detail: detail2,
                },
            ) => dir == dir2 && detail == detail2,
            _ => false,
        }
    }
}

impl Eq for PersistError {}

/// What [`CatalogSnapshot::write`] committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReceipt {
    /// The committed manifest generation.
    pub generation: u64,
    /// Path of the committed manifest file.
    pub manifest: PathBuf,
    /// Shard files written by this snapshot.
    pub shards_written: usize,
    /// Shard files already on disk from an earlier generation
    /// (content-addressed reuse — the incremental-snapshot path).
    pub shards_reused: usize,
    /// Bytes physically written (data files actually spilled plus the
    /// manifest itself).
    pub bytes_written: u64,
    /// Total bytes the committed generation references on disk
    /// (schema + every shard + manifest), whether written now or reused.
    pub total_bytes: u64,
    /// Files deleted by the post-commit retention sweep.
    pub swept: Vec<String>,
}

/// What [`CatalogSnapshot::open`] did to restore the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The manifest generation the catalog was restored from.
    pub generation: u64,
    /// `true` when the newest manifest failed validation and the loader
    /// fell back to an earlier generation.
    pub recovered_from_fallback: bool,
    /// `(manifest file, reason)` for every generation that was tried and
    /// discarded, newest first.
    pub discarded: Vec<(String, String)>,
    /// Orphaned files deleted on open: temp files, discarded or
    /// out-of-retention manifests, and data files no retained manifest
    /// references.
    pub swept: Vec<String>,
    /// Shards in the restored catalog.
    pub shards: usize,
    /// Records in the restored catalog.
    pub records: usize,
}

/// The snapshot writer/loader pair. See the [module docs](self) for the
/// on-disk layout and the commit/recovery protocol.
pub struct CatalogSnapshot;

// ---------------------------------------------------------------------
// Serialization primitives
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u32(out, v);
    }
}

/// Append one checksummed section: tag, payload length, payload, then
/// the payload's XXH64 **seeded with the tag** — a section of one kind
/// can never masquerade as another even if lengths happen to line up.
fn put_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(out, xxh64(u64::from(tag), payload));
}

fn put_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(0);
            put_str(out, iri);
        }
        Term::Blank(label) => {
            out.push(1);
            put_str(out, label);
        }
        Term::Literal(literal) => {
            out.push(2);
            put_str(out, &literal.value);
            let flags =
                u8::from(literal.language.is_some()) | (u8::from(literal.datatype.is_some()) << 1);
            out.push(flags);
            if let Some(language) = &literal.language {
                put_str(out, language);
            }
            if let Some(datatype) = &literal.datatype {
                put_str(out, datatype);
            }
        }
    }
}

/// Serialize one shard store (see [`frame_shard`]).
fn serialize_shard(store: &RecordStore) -> Vec<u8> {
    // Models a fault while flattening one shard (e.g. an OOM mid-spill):
    // the manifest is never reached, so the previous generation stays
    // the restart point.
    fail::fail_point!("persist::serialize_shard");
    let columns: Vec<_> = (0..store.column_count())
        .map(|c| store.persist_column(c))
        .collect();
    frame_shard(store.persist_ids(), &columns)
}

/// Frame a shard file: magic, version, then the two checksummed sections
/// — the ids, and each column's `(text, bounds, offsets)`.
fn frame_shard(ids: &[Term], columns: &[(&str, &[u32], &[u32])]) -> Vec<u8> {
    let mut id_section = Vec::new();
    put_u64(&mut id_section, ids.len() as u64);
    for term in ids {
        put_term(&mut id_section, term);
    }

    let mut column_section = Vec::new();
    put_u64(&mut column_section, columns.len() as u64);
    for (text, bounds, offsets) in columns {
        put_str(&mut column_section, text);
        put_u32_slice(&mut column_section, bounds);
        put_u32_slice(&mut column_section, offsets);
    }

    let mut out = Vec::with_capacity(id_section.len() + column_section.len() + 56);
    out.extend_from_slice(SHARD_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, 2);
    put_section(&mut out, SECTION_IDS, &id_section);
    put_section(&mut out, SECTION_COLUMNS, &column_section);
    out
}

/// Serialize the schema: the interned property IRIs in id order (the
/// loader reproduces identical ids by re-interning them in order).
fn serialize_schema(schema: &PropertyInterner) -> Vec<u8> {
    let mut names = Vec::new();
    put_u64(&mut names, schema.len() as u64);
    for (_, name) in schema.iter() {
        put_str(&mut names, name);
    }
    let mut out = Vec::with_capacity(names.len() + 40);
    out.extend_from_slice(SCHEMA_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, 1);
    put_section(&mut out, SECTION_SCHEMA, &names);
    out
}

// ---------------------------------------------------------------------
// Deserialization: a bounds-checked cursor. Corrupt input must surface
// as PersistError::Corrupt, never as a panic or an out-of-range index.
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Reader { buf, pos: 0, path }
    }

    fn corrupt(&self, detail: impl Into<String>) -> PersistError {
        PersistError::corrupt(self.path, detail)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed count that must be realisable from the bytes
    /// that remain (`width` = minimum encoded bytes per element) — caps
    /// allocations on files whose lengths lie.
    fn count(&mut self, width: usize) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| self.corrupt("count exceeds usize"))?;
        if n.checked_mul(width)
            .is_none_or(|total| total > self.remaining())
        {
            return Err(self.corrupt(format!(
                "claimed {n} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.count(1)?;
        self.take(n)
    }

    fn str(&mut self) -> Result<&'a str, PersistError> {
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        Ok(self.str()?.to_string())
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn term(&mut self) -> Result<Term, PersistError> {
        match self.u8()? {
            0 => Ok(Term::Iri(self.string()?)),
            1 => Ok(Term::Blank(self.string()?)),
            2 => {
                let value = self.string()?;
                let flags = self.u8()?;
                if flags & !0b11 != 0 {
                    return Err(self.corrupt(format!("unknown literal flags {flags:#04x}")));
                }
                let language = (flags & 0b01 != 0).then(|| self.string()).transpose()?;
                let datatype = (flags & 0b10 != 0).then(|| self.string()).transpose()?;
                Ok(Term::Literal(Literal {
                    value,
                    language,
                    datatype,
                }))
            }
            kind => Err(self.corrupt(format!("unknown term kind {kind}"))),
        }
    }

    fn expect_done(&self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// Read the file header and return the checksum-verified section
/// payloads, in order.
fn read_sections<'a>(
    reader: &mut Reader<'a>,
    magic: &[u8; 8],
    expected: &[u32],
) -> Result<Vec<&'a [u8]>, PersistError> {
    if reader.take(8)? != magic {
        return Err(reader.corrupt("bad magic (not a classilink snapshot file)"));
    }
    let version = reader.u32()?;
    if version != FORMAT_VERSION {
        return Err(reader.corrupt(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let count = reader.u32()? as usize;
    if count != expected.len() {
        return Err(reader.corrupt(format!(
            "expected {} sections, file declares {count}",
            expected.len()
        )));
    }
    let mut sections = Vec::with_capacity(count);
    for &tag in expected {
        let actual = reader.u32()?;
        if actual != tag {
            return Err(reader.corrupt(format!("expected section {tag}, found {actual}")));
        }
        let len = reader.u64()?;
        let len = usize::try_from(len).map_err(|_| reader.corrupt("section length overflow"))?;
        let payload = reader.take(len)?;
        let checksum = reader.u64()?;
        let computed = xxh64(u64::from(tag), payload);
        if checksum != computed {
            return Err(reader.corrupt(format!(
                "section {tag} checksum mismatch (stored {checksum:016x}, computed {computed:016x})"
            )));
        }
        sections.push(payload);
    }
    reader.expect_done()?;
    Ok(sections)
}

/// Decode one shard file into a [`RecordStore`] on the shared schema.
fn decode_shard(
    path: &Path,
    bytes: &[u8],
    schema: &Arc<PropertyInterner>,
) -> Result<RecordStore, PersistError> {
    // Models a corrupt-on-read shard (e.g. a latent media error the
    // checksum catches in production): the whole generation is discarded
    // and the loader falls back, exactly like real corruption.
    fail::fail_point!("persist::load_shard", |arg: Option<String>| {
        Err(PersistError::corrupt(
            path,
            format!(
                "injected failure at failpoint 'persist::load_shard': {}",
                arg.unwrap_or_default()
            ),
        ))
    });
    let mut reader = Reader::new(bytes, path);
    let sections = read_sections(&mut reader, SHARD_MAGIC, &[SECTION_IDS, SECTION_COLUMNS])?;

    let mut ids_reader = Reader::new(sections[0], path);
    let record_count = ids_reader.count(2)?;
    let mut ids = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        ids.push(ids_reader.term()?);
    }
    ids_reader.expect_done()?;

    let mut columns_reader = Reader::new(sections[1], path);
    let column_count = columns_reader.count(24)?;
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        let text = columns_reader.string()?;
        let bounds = columns_reader.u32_vec()?;
        let offsets = columns_reader.u32_vec()?;
        columns.push((text, bounds, offsets));
    }
    columns_reader.expect_done()?;

    RecordStore::from_persisted_parts(Arc::clone(schema), ids, columns)
        .map_err(|detail| PersistError::corrupt(path, detail))
}

fn decode_schema(path: &Path, bytes: &[u8]) -> Result<PropertyInterner, PersistError> {
    let mut reader = Reader::new(bytes, path);
    let sections = read_sections(&mut reader, SCHEMA_MAGIC, &[SECTION_SCHEMA])?;
    let mut names_reader = Reader::new(sections[0], path);
    let count = names_reader.count(8)?;
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        names.push(names_reader.string()?);
    }
    names_reader.expect_done()?;
    PropertyInterner::from_names(names).map_err(|detail| PersistError::corrupt(path, detail))
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ManifestEntry {
    file: String,
    len: u64,
    hash: u64,
    records: u64,
}

#[derive(Debug, Clone)]
struct Manifest {
    generation: u64,
    schema: ManifestEntry,
    shards: Vec<ManifestEntry>,
}

fn manifest_name(generation: u64) -> String {
    format!("{MANIFEST_PREFIX}{generation:08}")
}

/// The generation encoded in a manifest file name, if it is one.
fn manifest_generation(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(MANIFEST_PREFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn render_manifest(manifest: &Manifest) -> String {
    let mut out = String::new();
    out.push_str(MANIFEST_HEADER);
    out.push('\n');
    out.push_str(&format!("generation {}\n", manifest.generation));
    let entry = &manifest.schema;
    out.push_str(&format!(
        "schema {} {} {:016x}\n",
        entry.file, entry.len, entry.hash
    ));
    for entry in &manifest.shards {
        out.push_str(&format!(
            "shard {} {} {:016x} {}\n",
            entry.file, entry.len, entry.hash, entry.records
        ));
    }
    let seal = xxh64(0, out.as_bytes());
    out.push_str(&format!("seal {seal:016x}\n"));
    out
}

/// A file name a manifest may legitimately reference: something this
/// module itself would generate, never a path that escapes the snapshot
/// directory.
fn safe_file_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.')
        && !name.starts_with('.')
}

/// Parse and seal-verify a manifest. Any deviation — bad header, missing
/// or wrong seal (truncation, bit flip), malformed line, generation not
/// matching the file name, unsafe file name, zero shards — is `Corrupt`.
fn parse_manifest(
    path: &Path,
    generation_from_name: u64,
    bytes: &[u8],
) -> Result<Manifest, PersistError> {
    let corrupt = |detail: String| PersistError::corrupt(path, detail);
    let text =
        std::str::from_utf8(bytes).map_err(|_| corrupt("manifest is not UTF-8".to_string()))?;
    let seal_start = text
        .rfind("seal ")
        .filter(|&i| i == 0 || bytes[i - 1] == b'\n')
        .ok_or_else(|| corrupt("missing seal line (truncated?)".to_string()))?;
    let seal_line = &text[seal_start..];
    let seal_hex = seal_line
        .strip_prefix("seal ")
        .and_then(|rest| rest.strip_suffix('\n'))
        .filter(|hex| hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| corrupt("malformed seal line".to_string()))?;
    let stored_seal = u64::from_str_radix(seal_hex, 16).expect("validated hex");
    let computed_seal = xxh64(0, &bytes[..seal_start]);
    if stored_seal != computed_seal {
        return Err(corrupt(format!(
            "seal mismatch (stored {stored_seal:016x}, computed {computed_seal:016x}) — \
             the manifest was truncated or altered"
        )));
    }

    let parse_entry =
        |line: &str, kind: &str, fields: usize| -> Result<ManifestEntry, PersistError> {
            let parts: Vec<&str> = line.split(' ').collect();
            if parts.len() != fields || parts[0] != kind {
                return Err(corrupt(format!("malformed {kind} line: {line:?}")));
            }
            let file = parts[1].to_string();
            if !safe_file_name(&file) {
                return Err(corrupt(format!("unsafe file name in manifest: {file:?}")));
            }
            let len = parts[2]
                .parse()
                .map_err(|_| corrupt(format!("bad length in {kind} line: {line:?}")))?;
            let hash = u64::from_str_radix(parts[3], 16)
                .map_err(|_| corrupt(format!("bad hash in {kind} line: {line:?}")))?;
            let records = if fields == 5 {
                parts[4]
                    .parse()
                    .map_err(|_| corrupt(format!("bad record count in {kind} line: {line:?}")))?
            } else {
                0
            };
            Ok(ManifestEntry {
                file,
                len,
                hash,
                records,
            })
        };

    let mut lines = text[..seal_start].lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(corrupt("missing manifest header".to_string()));
    }
    let generation = lines
        .next()
        .and_then(|line| line.strip_prefix("generation "))
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| corrupt("missing generation line".to_string()))?;
    if generation != generation_from_name {
        return Err(corrupt(format!(
            "generation line says {generation} but the file name says {generation_from_name}"
        )));
    }
    let schema = parse_entry(
        lines
            .next()
            .ok_or_else(|| corrupt("missing schema line".to_string()))?,
        "schema",
        4,
    )?;
    let mut shards = Vec::new();
    for line in lines {
        shards.push(parse_entry(line, "shard", 5)?);
    }
    if shards.is_empty() {
        return Err(corrupt("manifest references no shards".to_string()));
    }
    Ok(Manifest {
        generation,
        schema,
        shards,
    })
}

// ---------------------------------------------------------------------
// Durable file primitives
// ---------------------------------------------------------------------

/// Write `bytes` to `path` and fsync the file (create-or-truncate).
fn write_file_sync(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut file = fs::File::create(path).map_err(|e| PersistError::io("create file", path, e))?;
    file.write_all(bytes)
        .map_err(|e| PersistError::io("write file", path, e))?;
    file.sync_all()
        .map_err(|e| PersistError::io("fsync file", path, e))
}

/// fsync the directory itself, making a completed rename durable.
fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| PersistError::io("fsync directory", dir, e))
}

/// Spill one content-addressed data file (`<prefix>-<hash16>.<ext>`)
/// durably, unless a file of that name — and therefore that content —
/// already exists. Returns the manifest entry and whether bytes hit disk.
fn write_data_file(
    dir: &Path,
    prefix: &str,
    ext: &str,
    bytes: &[u8],
) -> Result<(ManifestEntry, bool), PersistError> {
    let hash = xxh64(0, bytes);
    let file = format!("{prefix}-{hash:016x}.{ext}");
    let path = dir.join(&file);
    // Models a full disk / permission fault on one data file: the write
    // fails cleanly before the manifest commit point.
    fail::fail_point!("persist::write_shard", |arg: Option<String>| {
        Err(PersistError::io(
            "write data file (injected)",
            &path,
            io::Error::other(arg.unwrap_or_default()),
        ))
    });
    let entry = ManifestEntry {
        file: file.clone(),
        len: bytes.len() as u64,
        hash,
        records: 0,
    };
    match fs::metadata(&path) {
        // Same name ⇒ same XXH64 ⇒ same content: skip the write. The
        // length check guards the (already astronomically unlikely)
        // hash-collision case at zero cost.
        Ok(meta) if meta.is_file() && meta.len() == bytes.len() as u64 => {
            return Ok((entry, false));
        }
        _ => {}
    }
    let tmp = dir.join(format!("{file}{TMP_SUFFIX}"));
    write_file_sync(&tmp, bytes)?;
    fs::rename(&tmp, &path).map_err(|e| PersistError::io("rename data file", &path, e))?;
    Ok((entry, true))
}

// ---------------------------------------------------------------------
// Directory listing & sweep
// ---------------------------------------------------------------------

/// UTF-8 file names in `dir`, sorted (deterministic sweep order).
fn list_file_names(dir: &Path) -> Result<Vec<String>, PersistError> {
    let entries = fs::read_dir(dir).map_err(|e| PersistError::io("read directory", dir, e))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io("read directory", dir, e))?;
        if let Ok(name) = entry.file_name().into_string() {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Manifest `(generation, file name)` pairs in `names`, newest first.
fn manifest_files(names: &[String]) -> Vec<(u64, String)> {
    let mut manifests: Vec<(u64, String)> = names
        .iter()
        .filter_map(|name| Some((manifest_generation(name)?, name.clone())))
        .collect();
    manifests.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
    manifests
}

/// Delete everything no retained manifest justifies: temp files,
/// manifests that are corrupt / in `discard` / beyond the retention
/// horizon, and data files no retained manifest references. Files this
/// module did not name (no recognised suffix) are left alone. Deletion
/// is best-effort — a sweep failure must never fail a committed snapshot
/// or a successful restore — and returns the names actually deleted.
fn sweep(dir: &Path, discard: &HashSet<u64>) -> Vec<String> {
    let Ok(names) = list_file_names(dir) else {
        return Vec::new();
    };
    let mut retained = 0usize;
    let mut keep_manifests: HashSet<String> = HashSet::new();
    let mut referenced: HashSet<String> = HashSet::new();
    for (generation, name) in manifest_files(&names) {
        if retained >= RETAINED_GENERATIONS || discard.contains(&generation) {
            continue;
        }
        let path = dir.join(&name);
        let Ok(bytes) = fs::read(&path) else {
            continue;
        };
        // Seal-verified parse only: deep (per-file hash) validation is
        // `open`'s job; retention just needs to know the manifest is
        // internally consistent enough to be worth keeping.
        let Ok(manifest) = parse_manifest(&path, generation, &bytes) else {
            continue;
        };
        retained += 1;
        keep_manifests.insert(name);
        referenced.insert(manifest.schema.file.clone());
        referenced.extend(manifest.shards.iter().map(|s| s.file.clone()));
    }
    let mut swept = Vec::new();
    for name in names {
        let delete = if name.ends_with(TMP_SUFFIX) {
            true
        } else if manifest_generation(&name).is_some() {
            !keep_manifests.contains(&name)
        } else if name.ends_with(&format!(".{SHARD_EXT}"))
            || name.ends_with(&format!(".{SCHEMA_EXT}"))
        {
            !referenced.contains(&name)
        } else {
            false
        };
        if delete && fs::remove_file(dir.join(&name)).is_ok() {
            swept.push(name);
        }
    }
    swept
}

// ---------------------------------------------------------------------
// Write / open
// ---------------------------------------------------------------------

impl CatalogSnapshot {
    /// Spill `store` into `dir` as a new manifest generation.
    ///
    /// Data files are written first (durably, content-addressed — shards
    /// already on disk from a previous generation are reused, so
    /// snapshotting an appended catalog costs O(new shards)); the
    /// manifest is then committed via temp file, fsync, atomic rename
    /// and directory fsync. A crash or error anywhere before the rename
    /// leaves the directory's previous restart point fully intact.
    /// After the commit, generations beyond the retention horizon (the
    /// new one plus one fallback) and the files only they referenced are
    /// swept.
    pub fn write(
        dir: impl AsRef<Path>,
        store: &ShardedStore,
    ) -> Result<SnapshotReceipt, PersistError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)
            .map_err(|e| PersistError::io("create snapshot directory", dir, e))?;
        let names = list_file_names(dir)?;
        // Before any data file is written: a wrapped counter would commit
        // a generation the sweep below, keeping the largest, deletes.
        let generation = match manifest_files(&names).first() {
            None => 1,
            Some((newest, name)) => newest.checked_add(1).ok_or_else(|| {
                PersistError::corrupt(&dir.join(name), "generation counter exhausted")
            })?,
        };

        let mut bytes_written = 0u64;
        let mut total_bytes = 0u64;
        let schema_bytes = serialize_schema(store.schema());
        let (schema_entry, wrote) = write_data_file(dir, "schema", SCHEMA_EXT, &schema_bytes)?;
        total_bytes += schema_entry.len;
        if wrote {
            bytes_written += schema_entry.len;
        }

        let mut shards = Vec::with_capacity(store.shard_count());
        let mut shards_written = 0usize;
        let mut shards_reused = 0usize;
        for shard in store.shards() {
            let shard_bytes = serialize_shard(shard);
            let (mut entry, wrote) = write_data_file(dir, "shard", SHARD_EXT, &shard_bytes)?;
            entry.records = shard.len() as u64;
            total_bytes += entry.len;
            if wrote {
                bytes_written += entry.len;
                shards_written += 1;
            } else {
                shards_reused += 1;
            }
            shards.push(entry);
        }

        let manifest = Manifest {
            generation,
            schema: schema_entry,
            shards,
        };
        let text = render_manifest(&manifest);
        let name = manifest_name(generation);
        let manifest_path = dir.join(&name);
        let tmp_path = dir.join(format!("{name}{TMP_SUFFIX}"));
        write_file_sync(&tmp_path, text.as_bytes())?;
        // Models a crash (or error) at the commit point itself: the temp
        // manifest exists but was never renamed, so the snapshot did NOT
        // commit — the previous generation is still the restart point
        // and the temp file is swept on the next open.
        fail::fail_point!("persist::commit_manifest", |arg: Option<String>| {
            Err(PersistError::io(
                "commit manifest (injected)",
                &tmp_path,
                io::Error::other(arg.unwrap_or_default()),
            ))
        });
        fs::rename(&tmp_path, &manifest_path)
            .map_err(|e| PersistError::io("commit manifest", &manifest_path, e))?;
        sync_dir(dir)?;
        bytes_written += text.len() as u64;
        total_bytes += text.len() as u64;

        let swept = sweep(dir, &HashSet::new());
        Ok(SnapshotReceipt {
            generation,
            manifest: manifest_path,
            shards_written,
            shards_reused,
            bytes_written,
            total_bytes,
            swept,
        })
    }

    /// Restore a catalog from `dir`, trying manifest generations newest
    /// first and falling back past any generation that fails validation
    /// (truncated or bit-flipped manifest, missing / corrupt / malformed
    /// data file). Returns the restored catalog and a [`RecoveryReport`]
    /// saying which generation was loaded, what was discarded, and which
    /// orphaned files were swept.
    ///
    /// Never panics on corrupt input and never returns a half-loaded
    /// catalog: a generation is returned only after every checksum and
    /// every structural invariant of every referenced file has been
    /// verified. Errs with [`PersistError::NoSnapshot`] when the
    /// directory holds no manifest, [`PersistError::NoUsableGeneration`]
    /// when every generation is corrupt.
    pub fn open(dir: impl AsRef<Path>) -> Result<(ShardedStore, RecoveryReport), PersistError> {
        let dir = dir.as_ref();
        let names = match list_file_names(dir) {
            Ok(names) => names,
            Err(PersistError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                return Err(PersistError::NoSnapshot {
                    dir: dir.to_path_buf(),
                })
            }
            Err(e) => return Err(e),
        };
        let manifests = manifest_files(&names);
        if manifests.is_empty() {
            return Err(PersistError::NoSnapshot {
                dir: dir.to_path_buf(),
            });
        }

        let mut discarded: Vec<(String, String)> = Vec::new();
        let mut failed_generations: HashSet<u64> = HashSet::new();
        let mut loaded: Option<(u64, ShardedStore)> = None;
        for (generation, name) in &manifests {
            match Self::load_generation(dir, *generation, name) {
                Ok(store) => {
                    loaded = Some((*generation, store));
                    break;
                }
                Err(error) => {
                    discarded.push((name.clone(), error.to_string()));
                    failed_generations.insert(*generation);
                }
            }
        }
        let Some((generation, store)) = loaded else {
            let detail = discarded
                .iter()
                .map(|(name, reason)| format!("{name}: {reason}"))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(PersistError::NoUsableGeneration {
                dir: dir.to_path_buf(),
                detail,
            });
        };

        let swept = sweep(dir, &failed_generations);
        let report = RecoveryReport {
            generation,
            recovered_from_fallback: !discarded.is_empty(),
            discarded,
            swept,
            shards: store.shard_count(),
            records: store.len(),
        };
        Ok((store, report))
    }

    /// Load one manifest generation end to end, verifying everything.
    fn load_generation(
        dir: &Path,
        generation: u64,
        name: &str,
    ) -> Result<ShardedStore, PersistError> {
        let manifest_path = dir.join(name);
        let bytes = fs::read(&manifest_path)
            .map_err(|e| PersistError::io("read manifest", &manifest_path, e))?;
        let manifest = parse_manifest(&manifest_path, generation, &bytes)?;

        let read_verified = |entry: &ManifestEntry| -> Result<(PathBuf, Vec<u8>), PersistError> {
            let path = dir.join(&entry.file);
            let bytes =
                fs::read(&path).map_err(|e| PersistError::io("read snapshot file", &path, e))?;
            if bytes.len() as u64 != entry.len {
                return Err(PersistError::corrupt(
                    &path,
                    format!(
                        "length mismatch (manifest says {}, file has {} — truncated?)",
                        entry.len,
                        bytes.len()
                    ),
                ));
            }
            let hash = xxh64(0, &bytes);
            if hash != entry.hash {
                return Err(PersistError::corrupt(
                    &path,
                    format!(
                        "content hash mismatch (manifest says {:016x}, file hashes to {hash:016x})",
                        entry.hash
                    ),
                ));
            }
            Ok((path, bytes))
        };

        let (schema_path, schema_bytes) = read_verified(&manifest.schema)?;
        let schema = Arc::new(decode_schema(&schema_path, &schema_bytes)?);

        // Identical shards share one file (content addressing); decode
        // each distinct file once and share the store Arc.
        let mut decoded: HashMap<String, Arc<RecordStore>> = HashMap::new();
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for entry in &manifest.shards {
            let store = match decoded.get(&entry.file) {
                Some(store) => Arc::clone(store),
                None => {
                    let (path, bytes) = read_verified(entry)?;
                    let store = Arc::new(decode_shard(&path, &bytes, &schema)?);
                    if store.len() as u64 != entry.records {
                        return Err(PersistError::corrupt(
                            &path,
                            format!(
                                "record count mismatch (manifest says {}, shard holds {})",
                                entry.records,
                                store.len()
                            ),
                        ));
                    }
                    decoded.insert(entry.file.clone(), Arc::clone(&store));
                    store
                }
            };
            shards.push(store);
        }
        Ok(ShardedStore::from_shards(shards, schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn catalog() -> ShardedStore {
        let mut records = Vec::new();
        for i in 0..9 {
            let mut r = Record::new(Term::iri(format!("http://e.org/item/{i}")));
            r.add("http://e.org/v#pn", format!("PN-{i:04}"));
            if i % 2 == 0 {
                r.add("http://e.org/v#mfr", "Vishay");
            }
            records.push(r);
        }
        ShardedStore::from_records(&records, 3)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "classilink_persist_unit_{}_{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_bytes_round_trip() {
        let store = catalog();
        let schema = Arc::new(store.schema().clone());
        for shard in store.shards() {
            let bytes = serialize_shard(shard);
            let decoded = decode_shard(Path::new("x.clshard"), &bytes, &schema).expect("decode");
            assert_eq!(&decoded, shard.as_ref());
            // Serialization is deterministic — the content address is
            // stable across spills.
            assert_eq!(bytes, serialize_shard(&decoded));
        }
    }

    #[test]
    fn schema_bytes_round_trip() {
        let store = catalog();
        let bytes = serialize_schema(store.schema());
        let decoded = decode_schema(Path::new("x.clschema"), &bytes).expect("decode");
        assert_eq!(&decoded, store.schema());
    }

    #[test]
    fn every_truncation_of_a_shard_file_is_rejected_not_a_panic() {
        let store = catalog();
        let schema = Arc::new(store.schema().clone());
        let bytes = serialize_shard(store.shard(0));
        for len in 0..bytes.len() {
            let result = decode_shard(Path::new("t.clshard"), &bytes[..len], &schema);
            assert!(result.is_err(), "truncation to {len} bytes was accepted");
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_shard_file_is_detected() {
        let store = catalog();
        let schema = Arc::new(store.schema().clone());
        let bytes = serialize_shard(store.shard(0));
        let original = decode_shard(Path::new("b.clshard"), &bytes, &schema).expect("clean");
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1;
            // Either the decoder rejects it (checksum / structure), or —
            // never — silently yields a different store. No panics.
            if let Ok(decoded) = decode_shard(Path::new("b.clshard"), &corrupt, &schema) {
                assert_eq!(
                    decoded, original,
                    "bit flip at byte {byte} silently changed the decoded store"
                );
                panic!("bit flip at byte {byte} was not detected");
            }
        }
    }

    /// The bit-flip and truncation sweeps above never get past the
    /// section checksums; these files carry valid ones, so each case
    /// lands on the structural check it names.
    #[test]
    fn malformed_structure_behind_valid_checksums_is_corrupt_not_a_panic() {
        let schema = Arc::new(PropertyInterner::from_names(vec!["p".to_string()]).unwrap());
        let ids = [Term::iri("http://e.org/a"), Term::iri("http://e.org/b")];
        let decode = |columns: &[(&str, &[u32], &[u32])]| {
            decode_shard(Path::new("m.clshard"), &frame_shard(&ids, columns), &schema)
        };
        let assert_corrupt =
            |columns: &[(&str, &[u32], &[u32])], expected: &str| match decode(columns) {
                Err(PersistError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(expected), "{expected}: got {detail:?}")
                }
                other => panic!("{expected}: expected Corrupt, got {other:?}"),
            };
        // Two records, one value each: "x" and the two-byte "é".
        let (bounds, offsets): (&[u32], &[u32]) = (&[0, 1, 3], &[0, 1, 2]);
        let good = ("xé", bounds, offsets);
        assert!(decode(&[good]).is_ok());
        let cases: &[(&str, &[u32], &[u32])] = &[
            ("bounds must start at 0", &[], offsets),
            ("bounds must start at 0", &[1, 1, 3], offsets),
            ("bounds are not monotonic", &[0, 3, 1], offsets),
            ("bounds end at 4", &[0, 1, 4], offsets),
            ("splits a character", &[0, 2, 3], offsets),
            ("2 offsets for 2 records", bounds, &[0, 1]),
            ("4 offsets for 2 records", bounds, &[0, 1, 2, 2]),
            ("offsets must start at 0", bounds, &[1, 1, 2]),
            ("offsets are not monotonic", bounds, &[0, 2, 1]),
            ("offsets end at 1", bounds, &[0, 1, 1]),
        ];
        for &(expected, bounds, offsets) in cases {
            assert_corrupt(&[("xé", bounds, offsets)], expected);
        }
        assert_corrupt(&[good, good], "2 columns but the schema has only 1");
    }

    #[test]
    fn manifest_round_trips_and_rejects_tampering() {
        let manifest = Manifest {
            generation: 7,
            schema: ManifestEntry {
                file: "schema-00ff.clschema".into(),
                len: 10,
                hash: 0xabcd,
                records: 0,
            },
            shards: vec![ManifestEntry {
                file: "shard-1234.clshard".into(),
                len: 99,
                hash: 0x1234,
                records: 5,
            }],
        };
        let text = render_manifest(&manifest);
        let parsed = parse_manifest(Path::new("MANIFEST-00000007"), 7, text.as_bytes()).unwrap();
        assert_eq!(parsed.generation, 7);
        assert_eq!(parsed.shards.len(), 1);
        assert_eq!(parsed.shards[0].records, 5);
        // Truncation drops the seal.
        for len in 0..text.len() {
            assert!(
                parse_manifest(Path::new("m"), 7, &text.as_bytes()[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
        // Any bit flip breaks the seal (or the seal line itself).
        for byte in 0..text.len() {
            let mut corrupt = text.clone().into_bytes();
            corrupt[byte] ^= 1;
            assert!(
                parse_manifest(Path::new("m"), 7, &corrupt).is_err(),
                "bit flip at {byte} accepted"
            );
        }
        // The file-name generation must agree.
        assert!(parse_manifest(Path::new("m"), 8, text.as_bytes()).is_err());
    }

    #[test]
    fn manifest_names_parse_and_order() {
        assert_eq!(manifest_generation("MANIFEST-00000012"), Some(12));
        assert_eq!(manifest_generation("MANIFEST-123456789"), Some(123456789));
        assert_eq!(manifest_generation("MANIFEST-"), None);
        assert_eq!(manifest_generation("MANIFEST-12.tmp"), None);
        assert_eq!(manifest_generation("shard-00.clshard"), None);
        assert_eq!(manifest_name(12), "MANIFEST-00000012");
    }

    #[test]
    fn unsafe_manifest_file_names_are_rejected() {
        for name in ["../evil", "a/b", "", ".hidden", "a\\b"] {
            assert!(!safe_file_name(name), "{name:?} accepted");
        }
        assert!(safe_file_name("shard-00ff.clshard"));
    }

    #[test]
    fn write_then_open_round_trips_in_place() {
        let dir = temp_dir("roundtrip");
        let store = catalog();
        let receipt = CatalogSnapshot::write(&dir, &store).expect("write");
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.shards_written, store.shard_count());
        assert_eq!(receipt.shards_reused, 0);
        let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
        assert_eq!(loaded, store);
        assert_eq!(report.generation, 1);
        assert!(!report.recovered_from_fallback);
        assert_eq!(report.records, store.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_exhausted_generation_counter_refuses_the_write() {
        let dir = temp_dir("exhausted");
        let grown = |base: &ShardedStore, i: usize| {
            let mut delta = base.delta_builder();
            delta.push(&Record::new(Term::iri(format!("http://e.org/extra/{i}"))));
            base.append_shards(delta)
        };
        let first = catalog();
        let second = grown(&first, 0);
        let third = grown(&second, 1);
        CatalogSnapshot::write(&dir, &first).expect("generation 1");
        CatalogSnapshot::write(&dir, &second).expect("generation 2");
        // A file *named* like the last generation there can be: the next
        // one would wrap to 0 and be swept by its own commit.
        let stray = dir.join(manifest_name(u64::MAX));
        fs::write(&stray, "not a manifest").unwrap();
        let before = list_file_names(&dir).unwrap();

        let error = CatalogSnapshot::write(&dir, &third).unwrap_err();
        let expected = PersistError::corrupt(&stray, "generation counter exhausted");
        assert_eq!(error, expected);
        assert_eq!(list_file_names(&dir).unwrap(), before, "nothing written");
        let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
        assert_eq!((report.generation, loaded), (2, second));

        let _ = fs::remove_file(&stray); // `open` may have swept it already
        let receipt = CatalogSnapshot::write(&dir, &third).expect("clean write");
        assert_eq!(receipt.generation, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v1_layout_shard_is_discarded_for_the_previous_generation() {
        let dir = temp_dir("v1_layout");
        let store = catalog();
        CatalogSnapshot::write(&dir, &store).expect("write");
        let gen1_path = dir.join(manifest_name(1));
        let gen1 = parse_manifest(&gen1_path, 1, &fs::read(&gen1_path).unwrap()).unwrap();

        // Generation 2, by hand: an (empty) shard in the retired layout —
        // version 1, three sections, the third the full-text arena.
        let (mut ids, mut columns, mut full_text) = (Vec::new(), Vec::new(), Vec::new());
        put_u64(&mut ids, 0);
        put_u64(&mut columns, 0);
        put_str(&mut full_text, "");
        put_u32_slice(&mut full_text, &[0]);
        let mut v1 = SHARD_MAGIC.to_vec();
        put_u32(&mut v1, 1);
        put_u32(&mut v1, 3);
        put_section(&mut v1, SECTION_IDS, &ids);
        put_section(&mut v1, SECTION_COLUMNS, &columns);
        put_section(&mut v1, 3, &full_text);
        let (shard, _) = write_data_file(&dir, "shard", SHARD_EXT, &v1).unwrap();
        let gen2 = Manifest {
            generation: 2,
            schema: gen1.schema,
            shards: vec![shard],
        };
        fs::write(dir.join(manifest_name(2)), render_manifest(&gen2)).unwrap();

        let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
        assert_eq!(loaded, store);
        assert_eq!(report.generation, 1);
        assert!(report.recovered_from_fallback);
        let (name, reason) = &report.discarded[0];
        assert_eq!(name, &manifest_name(2));
        assert!(reason.contains("unsupported format version 1"), "{reason}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_on_nothing_is_no_snapshot() {
        let dir = temp_dir("empty");
        assert!(matches!(
            CatalogSnapshot::open(&dir),
            Err(PersistError::NoSnapshot { .. })
        ));
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            CatalogSnapshot::open(&dir),
            Err(PersistError::NoSnapshot { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_display_the_failing_file_and_chain_sources() {
        use std::error::Error;
        let io_error = PersistError::io(
            "write file",
            Path::new("/snap/shard-00.clshard"),
            io::Error::other("disk full"),
        );
        let text = io_error.to_string();
        assert!(text.contains("shard-00.clshard"), "{text}");
        assert!(text.contains("disk full"), "{text}");
        assert!(io_error.source().is_some());
        let corrupt = PersistError::corrupt(Path::new("/snap/MANIFEST-00000001"), "seal mismatch");
        assert!(corrupt.to_string().contains("MANIFEST-00000001"));
        assert!(corrupt.source().is_none());
        // Equality ignores the io::Error allocation, not its identity.
        let again = PersistError::io(
            "write file",
            Path::new("/snap/shard-00.clshard"),
            io::Error::other("disk full"),
        );
        assert_eq!(io_error, again);
        assert_ne!(io_error, corrupt);
    }
}
