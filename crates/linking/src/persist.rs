//! Crash-safe catalog persistence: content-addressed shard snapshots,
//! sealed manifests, and corruption-recovering restart.
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
//!    MANIFEST-00000001          ← previous generation (kept for fallback)
//!    schema-4f1c….clschema      ← interner snapshot (property IRIs in id order)
//!    shard-a90b….clshard        ← shard 0 (ids + columns)
//!    shard-77de….clshard        ← shard 1
//!
//!  data file name:     <kind>-<XXH64 of the file, 16 lowercase hex>.<ext>
//!  shard file:         magic ─ version ─ ids ─ columns
//!  schema file:        magic ─ version ─ property names
//!  manifest (text):    header ─ generation ─ "schema <file>" ─ "shard <file>"…
//!                      ─ "seal <XXH64 of everything above>"
//! ```
//!
//! **A data file's name is its checksum.** The name embeds the XXH64 of
//! the file's bytes and the sealed manifest lists the names, so one hash
//! covers every byte of a data file and the seal covers every name. A
//! file already on disk is reused once it is read back holding the same
//! bytes (one that holds others is rewritten): snapshotting an appended
//! catalog writes only the new shards, O(delta) like the append itself,
//! and reads the reused ones once (~4.4 MB at paper scale).
//!
//! **The manifest rename is the commit point.** A snapshot writes every
//! data file (temp file, fsync, rename), then the manifest the same way:
//! `MANIFEST-<gen>.tmp` → fsync → rename to `MANIFEST-<gen>` → fsync the
//! directory. A crash anywhere before the rename leaves the previous
//! manifest — and every file it references — untouched; the leftover
//! temp/orphan files are swept by the next `write` or `open`.
//!
//! **Retention keeps what verifies.** `write` and `open` share one walk
//! over the generations, newest first. A generation is *sound* when its
//! seal holds and every file hashes to its name, *damaged* when a check
//! fails or a file is gone, and *unknown* on any other I/O error: no proof
//! either way. The walk keeps the two newest sound generations and every
//! unknown one, and deletes everything else this module names. `open`
//! serves the first sound generation, reporting what it passed over in a
//! [`RecoveryReport`]; `write` starts from the one it has just committed.
//! The loader never panics on corrupt input and never returns a
//! partially-loaded catalog.

use crate::intern::PropertyInterner;
use crate::shard::ShardedStore;
use crate::store::RecordStore;
use classilink_rdf::{Literal, Term};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use twox_hash::XxHash64;

/// The data-file layout version: a file of any other version is corrupt
/// to this reader, and its generation is discarded.
const FORMAT_VERSION: u32 = 3;
const MANIFEST_HEADER: &str = "classilink-manifest v";
const MANIFEST_VERSION: &str = "2";
const MANIFEST_PREFIX: &str = "MANIFEST-";
const TMP_SUFFIX: &str = ".tmp";

/// One kind of content-addressed data file: how it is named, listed in
/// a manifest and framed.
struct FileKind {
    /// The file-name prefix, also the manifest line's keyword.
    tag: &'static str,
    ext: &'static str,
    magic: &'static [u8; 8],
}

const SHARD: FileKind = FileKind {
    tag: "shard",
    ext: "clshard",
    magic: b"CLSHRD01",
};
const SCHEMA: FileKind = FileKind {
    tag: "schema",
    ext: "clschema",
    magic: b"CLSCHM01",
};

impl FileKind {
    fn file_name(&self, hash: u64) -> String {
        format!("{}-{hash:016x}.{}", self.tag, self.ext)
    }

    /// The content hash `name` carries, if it is exactly
    /// `<tag>-<16 lowercase hex digits>.<ext>` — a name this module
    /// writes, never a path that escapes the snapshot directory.
    fn named_hash(&self, name: &str) -> Option<u64> {
        let hex = name
            .strip_prefix(self.tag)?
            .strip_prefix('-')?
            .strip_suffix(self.ext)?
            .strip_suffix('.')?;
        let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        if hex.len() != 16 || !hex.bytes().all(lower_hex) {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }

    /// A buffer holding the file header (magic, version), ready for the
    /// body.
    fn header(&self) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        put_u32(&mut out, FORMAT_VERSION);
        out
    }
}

fn xxh64(bytes: &[u8]) -> u64 {
    XxHash64::oneshot(0, bytes)
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
    /// A snapshot file failed its content-hash or structural validation.
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
    /// Files deleted by the retention sweep after the commit.
    pub swept: Vec<String>,
}

/// What [`CatalogSnapshot::open`] did to restore the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The manifest generation the catalog was restored from.
    pub generation: u64,
    /// `true` when the newest generation failed to load and the loader
    /// fell back to an earlier one.
    pub recovered_from_fallback: bool,
    /// `(manifest file, reason)` for every generation that was tried and
    /// not served, newest first.
    pub discarded: Vec<(String, String)>,
    /// Files deleted by the retention sweep: temp files and whatever no
    /// kept generation names.
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u32(out, v);
    }
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

/// Frame a shard file: the header, then the ids and each column's
/// `(text, bounds, offsets)`, each list behind its length.
fn frame_shard(ids: &[Term], columns: &[(&str, &[u32], &[u32])]) -> Vec<u8> {
    let mut out = SHARD.header();
    put_u64(&mut out, ids.len() as u64);
    for term in ids {
        put_term(&mut out, term);
    }
    put_u64(&mut out, columns.len() as u64);
    for (text, bounds, offsets) in columns {
        put_str(&mut out, text);
        put_u32_slice(&mut out, bounds);
        put_u32_slice(&mut out, offsets);
    }
    out
}

/// Serialize the schema: the interned property IRIs in id order (the
/// loader reproduces identical ids by re-interning them in order).
fn serialize_schema(schema: &PropertyInterner) -> Vec<u8> {
    let mut out = SCHEMA.header();
    put_u64(&mut out, schema.len() as u64);
    for (_, name) in schema.iter() {
        put_str(&mut out, name);
    }
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
    /// A cursor over the body of a data file of `kind`, past its checked
    /// header.
    fn body(kind: &FileKind, buf: &'a [u8], path: &'a Path) -> Result<Self, PersistError> {
        let mut reader = Reader { buf, pos: 0, path };
        if reader.take(8)? != kind.magic {
            return Err(reader.corrupt("bad magic (not a classilink snapshot file)"));
        }
        let version = reader.u32()?;
        if version != FORMAT_VERSION {
            return Err(reader.corrupt(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        Ok(reader)
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

    fn str(&mut self) -> Result<&'a str, PersistError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        Ok(self.str()?.to_string())
    }

    /// A length-prefixed list of `u32`s, decoded in one pass over its
    /// bytes (`count` has checked that they are all there).
    fn u32_vec(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.count(4)?;
        let bytes = self.take(n * 4)?;
        let words = bytes.chunks_exact(4);
        Ok(words
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect())
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

/// Decode one shard file into a [`RecordStore`] on the shared schema.
fn decode_shard(
    path: &Path,
    bytes: &[u8],
    schema: &Arc<PropertyInterner>,
) -> Result<RecordStore, PersistError> {
    // Models a corrupt-on-read shard (e.g. a latent media error the
    // content hash catches in production): the whole generation is
    // discarded and the loader falls back, exactly like real corruption.
    fail::fail_point!("persist::load_shard", |arg: Option<String>| {
        Err(PersistError::corrupt(
            path,
            format!(
                "injected failure at failpoint 'persist::load_shard': {}",
                arg.unwrap_or_default()
            ),
        ))
    });
    let mut reader = Reader::body(&SHARD, bytes, path)?;
    // An id is at least its kind byte and its value's `u64` length.
    let record_count = reader.count(9)?;
    let mut ids = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        ids.push(reader.term()?);
    }
    let column_count = reader.count(24)?;
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        let text = reader.string()?;
        let bounds = reader.u32_vec()?;
        let offsets = reader.u32_vec()?;
        columns.push((text, bounds, offsets));
    }
    reader.expect_done()?;

    RecordStore::from_persisted_parts(Arc::clone(schema), ids, columns)
        .map_err(|detail| PersistError::corrupt(path, detail))
}

fn decode_schema(path: &Path, bytes: &[u8]) -> Result<PropertyInterner, PersistError> {
    let mut reader = Reader::body(&SCHEMA, bytes, path)?;
    let count = reader.count(8)?;
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        names.push(reader.string()?);
    }
    reader.expect_done()?;
    PropertyInterner::from_names(names).map_err(|detail| PersistError::corrupt(path, detail))
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// One generation: the content hashes of the data files it references,
/// which name them ([`FileKind::file_name`]).
#[derive(Debug, Clone)]
struct Manifest {
    generation: u64,
    schema: u64,
    shards: Vec<u64>,
}

impl Manifest {
    /// Each data file the generation names: the schema, then the shards.
    fn files(&self) -> impl Iterator<Item = (&'static FileKind, u64)> + '_ {
        let shards = self.shards.iter().map(|&hash| (&SHARD, hash));
        std::iter::once((&SCHEMA, self.schema)).chain(shards)
    }
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
    let mut out = format!(
        "{MANIFEST_HEADER}{MANIFEST_VERSION}\ngeneration {}\n",
        manifest.generation
    );
    for (kind, hash) in manifest.files() {
        out.push_str(&format!("{} {}\n", kind.tag, kind.file_name(hash)));
    }
    let seal = xxh64(out.as_bytes());
    out.push_str(&format!("seal {seal:016x}\n"));
    out
}

/// Parse and seal-verify a manifest. Any deviation — bad header, missing
/// or wrong seal (truncation, bit flip), malformed line, generation not
/// matching the file name, a file name this module would not write,
/// zero shards — is `Corrupt`.
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
    let computed_seal = xxh64(&bytes[..seal_start]);
    if stored_seal != computed_seal {
        return Err(corrupt(format!(
            "seal mismatch (stored {stored_seal:016x}, computed {computed_seal:016x}) — \
             the manifest was truncated or altered"
        )));
    }

    let file = |line: &str, kind: &FileKind| -> Result<u64, PersistError> {
        let file = line
            .strip_prefix(kind.tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| corrupt(format!("malformed {} line: {line:?}", kind.tag)))?;
        kind.named_hash(file)
            .ok_or_else(|| corrupt(format!("not a {} file name: {file:?}", kind.tag)))
    };

    let mut lines = text[..seal_start].lines();
    match lines
        .next()
        .and_then(|line| line.strip_prefix(MANIFEST_HEADER))
    {
        Some(MANIFEST_VERSION) => {}
        Some(version) => {
            return Err(corrupt(format!(
                "unsupported manifest format version {version} (this build reads \
                 {MANIFEST_VERSION}): re-take the snapshot"
            )))
        }
        None => return Err(corrupt("missing manifest header".to_string())),
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
    let schema = lines
        .next()
        .ok_or_else(|| corrupt("missing schema line".to_string()));
    let schema = file(schema?, &SCHEMA)?;
    let shards = lines
        .map(|line| file(line, &SHARD))
        .collect::<Result<Vec<_>, _>>()?;
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

/// Run `call` on `path`: every call of this module that changes the
/// disk goes through here, its error naming `op` and the path.
fn on_disk<'p, T>(
    op: &'static str,
    path: &'p Path,
    call: impl FnOnce(&'p Path) -> io::Result<T>,
) -> Result<T, PersistError> {
    // Models a crash: armed to fail from the k-th disk change on, it
    // leaves the directory as a power cut at that point would.
    fail::fail_point!("persist::fs", |arg| Err(injected(op, path, arg)));
    call(path).map_err(|e| PersistError::io(op, path, e))
}

/// The I/O error an armed failpoint injects, its argument the message.
#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
fn injected(op: &'static str, path: &Path, arg: Option<String>) -> PersistError {
    PersistError::io(op, path, io::Error::other(arg.unwrap_or_default()))
}

/// Write `bytes` to `path` and fsync the file (create-or-truncate).
fn write_file_sync(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut file = on_disk("create file", path, fs::File::create)?;
    on_disk("write file", path, |_| file.write_all(bytes))?;
    on_disk("fsync file", path, |_| file.sync_all())
}

/// Spill one content-addressed data file durably, unless a file of that
/// name already holds exactly these bytes. One that holds anything else
/// is damaged and is rewritten, which also mends every older generation
/// naming it. Returns the content hash that names the file and whether
/// bytes hit disk.
fn write_data_file(dir: &Path, kind: &FileKind, bytes: &[u8]) -> Result<(u64, bool), PersistError> {
    let hash = xxh64(bytes);
    let file = kind.file_name(hash);
    let path = dir.join(&file);
    // Models a full disk / permission fault on one data file: the write
    // fails cleanly before the manifest commit point.
    fail::fail_point!("persist::write_shard", |arg| {
        Err(injected("write data file (injected)", &path, arg))
    });
    match fs::read(&path) {
        Ok(existing) if existing == bytes => return Ok((hash, false)),
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            return Err(PersistError::io("read data file", &path, e))
        }
        _ => {}
    }
    let tmp = dir.join(format!("{file}{TMP_SUFFIX}"));
    write_file_sync(&tmp, bytes)?;
    on_disk("rename data file", &path, |path| fs::rename(&tmp, path))?;
    Ok((hash, true))
}

/// Read the data file of `kind` that `named` names and check that its
/// bytes hash to it — the one integrity check a data file gets. Returns
/// the file's path and bytes.
fn read_verified(
    dir: &Path,
    kind: &FileKind,
    named: u64,
) -> Result<(PathBuf, Vec<u8>), PersistError> {
    let path = dir.join(kind.file_name(named));
    let bytes = fs::read(&path).map_err(|e| PersistError::io("read snapshot file", &path, e))?;
    let hash = xxh64(&bytes);
    if hash != named {
        let detail = format!("content hash mismatch: the file hashes to {hash:016x}");
        return Err(PersistError::corrupt(&path, detail));
    }
    Ok((path, bytes))
}

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

// ---------------------------------------------------------------------
// Retention: the walk `write` and `open` share
// ---------------------------------------------------------------------

/// Whether `error` proves its generation lost — a failed check, or a file
/// that is gone. Any other I/O error proves nothing either way.
fn is_damage(error: &PersistError) -> bool {
    !matches!(error, PersistError::Io { source, .. } if source.kind() != io::ErrorKind::NotFound)
}

/// What one walk over a directory's generations decided.
#[derive(Default)]
struct Retention {
    /// The generation `open` serves, decoded.
    served: Option<(u64, ShardedStore)>,
    /// `(manifest, reason)` for each generation `open` passed over.
    passed_over: Vec<(String, String)>,
    /// The kept generations' manifests and data files.
    keep: HashSet<String>,
    /// A kept manifest could not be read, so every data file stays.
    keep_data: bool,
}

/// The retention walk of the [module docs](self). A data file is hashed
/// once a walk: never if `written` (the generation `write` just committed)
/// names it, again if a load after a failed one reads it. With `serve`,
/// generations are loaded (a decode failure damages one) until one loads.
fn retain(dir: &Path, names: &[String], written: Option<&Manifest>, serve: bool) -> Retention {
    let mut checked: HashMap<_, _> = written.into_iter().flat_map(sound_files).collect();
    let mut retention = Retention::default();
    let mut sound = 0;
    for (generation, name) in manifest_files(names) {
        let decode = serve && retention.served.is_none();
        let path = dir.join(&name);
        let manifest = fs::read(&path)
            .map_err(|e| PersistError::io("read manifest", &path, e))
            .and_then(|bytes| parse_manifest(&path, generation, &bytes));
        let mut errors: Vec<PersistError> = manifest.as_ref().err().into_iter().cloned().collect();
        let mut files = Vec::new();
        if let Ok(manifest) = &manifest {
            match decode.then(|| load(dir, manifest)) {
                Some(Ok(store)) => {
                    checked.extend(sound_files(manifest));
                    retention.served = Some((generation, store));
                }
                Some(Err(e)) => errors.push(e),
                None => {}
            }
            for (kind, hash) in manifest.files() {
                let file = checked
                    .entry(kind.file_name(hash))
                    .or_insert_with(|| read_verified(dir, kind, hash).map(drop));
                errors.extend(file.as_ref().err().cloned());
                files.push(kind.file_name(hash));
            }
        }
        // What decides a generation: damage before doubt.
        let kept = match errors.iter().find(|e| is_damage(e)).or(errors.first()) {
            None => {
                sound += 1;
                sound <= 2
            }
            Some(error) => {
                let reason = (name.clone(), error.to_string());
                retention.passed_over.extend(decode.then_some(reason));
                retention.keep_data |= !is_damage(error) && manifest.is_err();
                !is_damage(error)
            }
        };
        if kept {
            retention.keep.extend(files);
            retention.keep.insert(name);
        }
    }
    retention
}

/// Each data file `manifest` names, found sound.
fn sound_files(
    manifest: &Manifest,
) -> impl Iterator<Item = (String, Result<(), PersistError>)> + '_ {
    manifest
        .files()
        .map(|(kind, hash)| (kind.file_name(hash), Ok(())))
}

/// Load the generation `manifest` names, verifying every file it names.
fn load(dir: &Path, manifest: &Manifest) -> Result<ShardedStore, PersistError> {
    let (schema_path, schema_bytes) = read_verified(dir, &SCHEMA, manifest.schema)?;
    let schema = Arc::new(decode_schema(&schema_path, &schema_bytes)?);
    // Identical shards share one file (content addressing); decode each
    // distinct file once and share the store Arc.
    let mut decoded: HashMap<u64, Arc<RecordStore>> = HashMap::new();
    let mut shards = Vec::with_capacity(manifest.shards.len());
    for &hash in &manifest.shards {
        if let Entry::Vacant(slot) = decoded.entry(hash) {
            let (path, bytes) = read_verified(dir, &SHARD, hash)?;
            slot.insert(Arc::new(decode_shard(&path, &bytes, &schema)?));
        }
        shards.push(Arc::clone(&decoded[&hash]));
    }
    Ok(ShardedStore::from_shards(shards, schema))
}

impl Retention {
    /// Delete what the walk did not keep, of the names this module gives:
    /// manifests first, so that a crash mid-sweep never leaves a manifest
    /// naming a deleted file, then data files and temp files. Deletion is
    /// best-effort — a sweep failure must never fail a committed snapshot
    /// or a successful restore — and returns the names actually deleted.
    fn sweep(&self, dir: &Path, names: &[String]) -> Vec<String> {
        let data = |name: &String| SHARD.named_hash(name).or(SCHEMA.named_hash(name)).is_some();
        let manifests = names
            .iter()
            .filter(|name| manifest_generation(name).is_some());
        let rest = names
            .iter()
            .filter(|name| name.ends_with(TMP_SUFFIX) || (!self.keep_data && data(name)));
        manifests
            .chain(rest)
            .filter(|name| !self.keep.contains(*name))
            .filter(|name| on_disk("delete file", &dir.join(name), fs::remove_file).is_ok())
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------
// Write / open
// ---------------------------------------------------------------------

impl CatalogSnapshot {
    /// Spill `store` into `dir` as a new manifest generation.
    ///
    /// Data files are written first (durably, content-addressed — a file
    /// already on disk is reused once its bytes are checked, so
    /// snapshotting an appended catalog costs O(new shards) writes); the
    /// manifest is then committed via temp file, fsync, atomic rename
    /// and directory fsync. A crash or error anywhere before the rename
    /// leaves the directory's previous restart point fully intact. Then
    /// the retention walk runs, starting from the new generation.
    pub fn write(
        dir: impl AsRef<Path>,
        store: &ShardedStore,
    ) -> Result<SnapshotReceipt, PersistError> {
        let dir = dir.as_ref();
        on_disk("create snapshot directory", dir, fs::create_dir_all)?;
        let names = list_file_names(dir)?;
        // Before any data file is written: a wrapped counter would commit
        // a generation older than every other one.
        let generation = match manifest_files(&names).first() {
            None => 1,
            Some((newest, name)) => newest.checked_add(1).ok_or_else(|| {
                PersistError::corrupt(&dir.join(name), "generation counter exhausted")
            })?,
        };

        let (mut total_bytes, mut bytes_written) = (0, 0);
        let mut spill = |kind: &FileKind, bytes: Vec<u8>| {
            let (hash, wrote) = write_data_file(dir, kind, &bytes)?;
            total_bytes += bytes.len() as u64;
            bytes_written += if wrote { bytes.len() as u64 } else { 0 };
            Ok::<_, PersistError>((hash, wrote))
        };
        let (schema, _) = spill(&SCHEMA, serialize_schema(store.schema()))?;
        let mut shards = Vec::with_capacity(store.shard_count());
        let mut shards_written = 0usize;
        for shard in store.shards() {
            let (hash, wrote) = spill(&SHARD, serialize_shard(shard))?;
            shards_written += usize::from(wrote);
            shards.push(hash);
        }

        let manifest = Manifest {
            generation,
            schema,
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
        fail::fail_point!("persist::commit_manifest", |arg| {
            Err(injected("commit manifest (injected)", &tmp_path, arg))
        });
        on_disk("commit manifest", &manifest_path, |path| {
            fs::rename(&tmp_path, path)
        })?;
        on_disk("fsync directory", dir, |dir| {
            fs::File::open(dir)?.sync_all()
        })?;
        bytes_written += text.len() as u64;
        total_bytes += text.len() as u64;

        let swept = list_file_names(dir)
            .map(|names| retain(dir, &names, Some(&manifest), false).sweep(dir, &names))
            .unwrap_or_default();
        Ok(SnapshotReceipt {
            generation,
            manifest: manifest_path,
            shards_written,
            shards_reused: store.shard_count() - shards_written,
            bytes_written,
            total_bytes,
            swept,
        })
    }

    /// Restore a catalog from `dir`: the retention walk serves the newest
    /// sound generation, passing over any newer one that fails to load
    /// (truncated or bit-flipped manifest, missing / corrupt / malformed
    /// / unreadable data file), and reports it all in a
    /// [`RecoveryReport`]. Never panics on corrupt input and never
    /// returns a half-loaded catalog. Errs with
    /// [`PersistError::NoSnapshot`] when the directory holds no manifest,
    /// [`PersistError::NoUsableGeneration`] when no generation loads —
    /// and then deletes nothing.
    pub fn open(dir: impl AsRef<Path>) -> Result<(ShardedStore, RecoveryReport), PersistError> {
        let dir = dir.as_ref();
        let names = match list_file_names(dir) {
            Err(PersistError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                Vec::new()
            }
            names => names?,
        };
        if manifest_files(&names).is_empty() {
            return Err(PersistError::NoSnapshot {
                dir: dir.to_path_buf(),
            });
        }
        let mut retention = retain(dir, &names, None, true);
        let Some((generation, store)) = retention.served.take() else {
            let detail = retention
                .passed_over
                .iter()
                .map(|(name, reason)| format!("{name}: {reason}"))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(PersistError::NoUsableGeneration {
                dir: dir.to_path_buf(),
                detail,
            });
        };
        let report = RecoveryReport {
            generation,
            recovered_from_fallback: !retention.passed_over.is_empty(),
            swept: retention.sweep(dir, &names),
            discarded: retention.passed_over,
            shards: store.shard_count(),
            records: store.len(),
        };
        Ok((store, report))
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

    /// Every file of `dir`, with its bytes.
    fn save(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let names = list_file_names(dir).unwrap();
        names
            .into_iter()
            .map(|name| (name.clone(), fs::read(dir.join(&name)).unwrap()))
            .collect()
    }

    /// A data file in the retired version-2 layout: magic, version, the
    /// section count, then each section's tag, length, payload and XXH64
    /// seeded with the tag.
    fn sectioned_v2(kind: &FileKind, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut out = kind.magic.to_vec();
        put_u32(&mut out, 2);
        put_u32(&mut out, sections.len() as u32);
        for (tag, payload) in sections {
            put_u32(&mut out, *tag);
            put_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(payload);
            put_u64(&mut out, XxHash64::oneshot(u64::from(*tag), payload));
        }
        out
    }

    /// A version-2 shard file: an ids section (tag 1) and a columns
    /// section (tag 2).
    fn shard_v2(store: &RecordStore) -> Vec<u8> {
        let (mut ids, mut columns) = (Vec::new(), Vec::new());
        put_u64(&mut ids, store.len() as u64);
        for term in store.persist_ids() {
            put_term(&mut ids, term);
        }
        put_u64(&mut columns, store.column_count() as u64);
        for c in 0..store.column_count() {
            let (text, bounds, offsets) = store.persist_column(c);
            put_str(&mut columns, text);
            put_u32_slice(&mut columns, bounds);
            put_u32_slice(&mut columns, offsets);
        }
        sectioned_v2(&SHARD, &[(1, ids), (2, columns)])
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

    /// A file whose name matches its hash can still be malformed (written
    /// by another program, or by a bug); each case lands on the
    /// structural check it names.
    #[test]
    fn malformed_structure_behind_a_valid_hash_is_corrupt_not_a_panic() {
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

    /// An id is at least nine bytes (its kind and its value's length), so
    /// an id count is refused before any allocation when the bytes left
    /// cannot hold that many ids, or when its byte size overflows.
    #[test]
    fn a_lying_id_count_is_refused_before_it_allocates() {
        let schema = Arc::new(PropertyInterner::from_names(Vec::new()).unwrap());
        for (count, body) in [(10, 20), (3, 26), (u64::MAX, 64)] {
            let mut bytes = SHARD.header();
            put_u64(&mut bytes, count);
            bytes.resize(bytes.len() + body, 0);
            match decode_shard(Path::new("c.clshard"), &bytes, &schema) {
                Err(PersistError::Corrupt { detail, .. }) => assert!(
                    detail.contains(&format!("claimed {count} elements")),
                    "{count}: got {detail:?}"
                ),
                other => panic!("{count}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_tampering() {
        let manifest = Manifest {
            generation: 7,
            schema: 0xabcd,
            shards: vec![0x1234, u64::MAX],
        };
        let text = render_manifest(&manifest);
        let parsed = parse_manifest(Path::new("MANIFEST-00000007"), 7, text.as_bytes()).unwrap();
        assert_eq!(parsed.generation, 7);
        assert_eq!(parsed.schema, manifest.schema);
        assert_eq!(parsed.shards, manifest.shards);
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
        for name in [
            "../evil",
            "a/b",
            "",
            ".hidden",
            "a\\b",
            "shard-00ff.clshard",
            "shard-00000000DEADBEEF.clshard",
            "shard-00000000deadbeef0.clshard",
            "shard-00000000deadbeef.clshard.tmp",
            "shard-00000000deadbeef.clschema",
            "../shard-00000000deadbeef.clshard",
        ] {
            assert_eq!(SHARD.named_hash(name), None, "{name:?} accepted");
        }
        let shard = SHARD.file_name(0xdead_beef);
        assert_eq!(shard, "shard-00000000deadbeef.clshard");
        assert_eq!(SHARD.named_hash(&shard), Some(0xdead_beef));
        assert_eq!(SCHEMA.named_hash(&shard), None);
        // A shard name on the schema line, a schema name on a shard line.
        let schema = SCHEMA.file_name(1);
        for (schema, shard) in [(&shard, &shard), (&schema, &schema)] {
            let mut text = format!("{MANIFEST_HEADER}{MANIFEST_VERSION}\ngeneration 1\n");
            text.push_str(&format!("schema {schema}\nshard {shard}\n"));
            text.push_str(&format!("seal {:016x}\n", xxh64(text.as_bytes())));
            match parse_manifest(Path::new("m"), 1, text.as_bytes()) {
                Err(PersistError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("file name"), "{detail}")
                }
                other => panic!("{text:?} was accepted: {other:?}"),
            }
        }
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
    fn a_v2_layout_shard_is_discarded_for_the_previous_generation() {
        let dir = temp_dir("v2_layout");
        let store = catalog();
        CatalogSnapshot::write(&dir, &store).expect("write");
        let gen1_path = dir.join(manifest_name(1));
        let gen1 = parse_manifest(&gen1_path, 1, &fs::read(&gen1_path).unwrap()).unwrap();

        // Generation 2, by hand: a current manifest naming a shard file in
        // the retired sectioned layout.
        let (shard, _) = write_data_file(&dir, &SHARD, &shard_v2(store.shard(0))).unwrap();
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
        assert!(reason.contains("unsupported format version 2"), "{reason}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A directory written before the current layout — a version-1
    /// manifest listing lengths, hashes and record counts, and sectioned
    /// version-2 data files — is not read, and `open` says which format
    /// it met rather than deleting anything.
    #[test]
    fn a_directory_of_retired_generations_fails_to_restore_naming_the_format() {
        use crate::blocking::CartesianBlocker;
        use crate::comparator::{AttributeRule, RecordComparator};
        use crate::error::LinkError;
        use crate::serve::Linker;
        use crate::similarity::SimilarityMeasure;

        let dir = temp_dir("retired");
        fs::create_dir_all(&dir).unwrap();
        let store = catalog();
        let mut names = Vec::new();
        put_u64(&mut names, store.schema().len() as u64);
        for (_, name) in store.schema().iter() {
            put_str(&mut names, name);
        }
        let mut text = "classilink-manifest v1\ngeneration 1\n".to_string();
        let schema_bytes = sectioned_v2(&SCHEMA, &[(4, names)]);
        let (hash, _) = write_data_file(&dir, &SCHEMA, &schema_bytes).unwrap();
        let (file, len) = (SCHEMA.file_name(hash), schema_bytes.len());
        text.push_str(&format!("schema {file} {len} {hash:016x}\n"));
        for shard in store.shards() {
            let bytes = shard_v2(shard);
            let (hash, _) = write_data_file(&dir, &SHARD, &bytes).unwrap();
            let (file, len) = (SHARD.file_name(hash), bytes.len());
            text.push_str(&format!("shard {file} {len} {hash:016x} {}\n", shard.len()));
        }
        text.push_str(&format!("seal {:016x}\n", xxh64(text.as_bytes())));
        fs::write(dir.join(manifest_name(1)), &text).unwrap();
        let before = save(&dir);

        let blocker = CartesianBlocker;
        let comparator = RecordComparator::new(vec![AttributeRule {
            left_property: "http://e.org/v#pn".to_string(),
            right_property: "http://e.org/v#pn".to_string(),
            measure: SimilarityMeasure::JaroWinkler,
            weight: 1.0,
        }]);
        match Linker::open(&dir, &blocker, &comparator) {
            Err(LinkError::RestoreFailed {
                source: PersistError::NoUsableGeneration { detail, .. },
            }) => assert!(
                detail.contains("unsupported manifest format version 1"),
                "{detail}"
            ),
            Err(other) => panic!("expected NoUsableGeneration, got {other:?}"),
            Ok(_) => panic!("a retired layout was served"),
        }
        assert!(save(&dir) == before, "the retired generation was touched");
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
