//! An exhaustive explorer of snapshot retention ([`CatalogSnapshot`]):
//! it runs every sequence of up to four operations (five, in an ignored
//! test that never crashes) on one snapshot directory —
//!
//! * a `write` of a 2-shard catalog, of that catalog grown by a third
//!   shard, or of an append to the catalog in memory, so that
//!   generations share files — and one can name a file the next lacks;
//! * an `open`, whose served catalog becomes the one in memory;
//! * damage to one file, picked by role (the newest manifest, an older
//!   one, a shard only the newest generation names, a shard every
//!   generation names, the schema): a bit flip, a truncation, a deletion,
//!   or a directory put under its name, which no read gets past; or the
//!   repair of a damaged file;
//! * with `--features failpoints` (depth four only), a crash after the
//!   k-th change a `write` or an `open` makes to the disk, for every k: the
//!   `persist::fs` failpoint armed `"{k}*off->return(crash)"` fails that
//!   change and every later one.
//!
//! After each operation it checks, against its own record of the bytes
//! of every committed generation:
//!
//! 1. `open` never panics. It serves the newest *sound* generation —
//!    manifest and files all readable and byte-for-byte as committed —
//!    and the catalog it restores `==` the one written. It errs
//!    `NoUsableGeneration` exactly when manifests exist but none is sound.
//! 2. No operation but damage and repair deletes or alters a file of the
//!    two newest sound generations (counting one a `write` has just
//!    committed) or of a generation that is intact but unreadable
//!    (*unknown*). None leaves a manifest that was sound naming a file it
//!    deleted, which pins the sweep's order: manifests first.
//! 3. After a `write` or `open` that completed, the directory holds only
//!    what the rule keeps — those generations' manifests and files, every
//!    data file when a kept manifest is unreadable — and no temp file.
//!
//! A state reached twice is explored once: a state is the directory's
//! contents (a temp file by name only: nothing reads one), the catalog in
//! memory and the record. A sequence that ends in damage or repair has
//! nothing left to check, so it is counted but not run. The explorer
//! prints one line: the sequences its runs stand for, the operations
//! run, the distinct states and the elapsed time.

use classilink_linking::record::Record;
use classilink_linking::{CatalogSnapshot, PersistError, ShardedStore};
use classilink_rdf::Term;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;
use twox_hash::XxHash64;

mod common;
use common::{fresh_dir, serial};

/// Whether the `persist::fs` failpoint is compiled in, so that `write`
/// and `open` can crash.
const CRASHES: bool = cfg!(feature = "failpoints");

type Bytes = Rc<[u8]>;

/// One directory entry: a file and its bytes, or a directory under the
/// file's name (unreadable).
#[derive(Clone, PartialEq, Eq, Debug)]
enum Entry {
    File(Bytes),
    Unreadable,
}

/// A snapshot directory's contents, or `None` when there is none.
type Tree = Option<BTreeMap<String, Entry>>;

/// A committed generation, as the explorer recorded it.
#[derive(Clone, Debug)]
struct Generation {
    manifest: Bytes,
    files: Vec<String>,
    /// Index of the catalog written, in [`Explorer::catalogs`].
    catalog: usize,
}

#[derive(Clone)]
struct State {
    tree: Tree,
    /// The catalog in memory.
    held: usize,
    /// Committed generations whose manifest is still there or damaged.
    record: BTreeMap<u64, Generation>,
    /// What a repair puts back.
    damaged: BTreeMap<String, Bytes>,
    /// The first sequence that reached this state.
    path: String,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Sound,
    Damaged,
    /// Intact, but a file (or the manifest) cannot be read.
    Unknown,
}

#[derive(Clone, Copy, Debug)]
enum Damage {
    Flip,
    Truncate,
    Delete,
    Unreadable,
}

#[derive(Clone, Copy, Debug)]
enum Role {
    NewestManifest,
    OlderManifest,
    NewestOwnShard,
    SharedShard,
    Schema,
}

#[derive(Clone, Debug)]
enum Op {
    /// Write catalog 0 or 1, or (`None`) the one held grown by a shard.
    Write(Option<usize>),
    Open,
    Damage(Role, Damage),
    Repair(String),
}

fn manifest_name(generation: u64) -> String {
    format!("MANIFEST-{generation:08}")
}

fn manifest_generation(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("MANIFEST-")?;
    digits
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| digits.parse().ok())?
}

fn is_data_file(name: &str) -> bool {
    (name.starts_with("shard-") || name.starts_with("schema-")) && !name.ends_with(".tmp")
}

fn xxh64(bytes: &[u8]) -> u64 {
    XxHash64::oneshot(0, bytes)
}

/// The data files a manifest names, schema first.
fn named_files(manifest: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(manifest).expect("a committed manifest is text");
    text.lines()
        .filter_map(|line| line.strip_prefix("schema ").or(line.strip_prefix("shard ")))
        .map(str::to_string)
        .collect()
}

/// The 2-shard catalog, its 3-shard growth, and one append after another
/// for each operation of a `depth`-long sequence.
fn catalogs(depth: usize) -> Vec<ShardedStore> {
    let record = |i: usize| {
        let mut record = Record::new(Term::iri(format!("http://catalog.example.org/prod/{i}")));
        record.add("http://catalog.example.org/vocab#pn", format!("PN-{i}"));
        record
    };
    let base: Vec<Record> = (0..4).map(record).collect();
    let mut catalogs = vec![ShardedStore::from_records(&base, 2)];
    for i in 4..4 + depth {
        let mut delta = catalogs[i - 4].delta_builder();
        delta.begin_shard();
        delta.push(&record(i));
        let grown = catalogs[i - 4].append_shards(delta);
        catalogs.push(grown);
    }
    catalogs
}

struct Explorer {
    dir: std::path::PathBuf,
    /// What the explorer's directory holds now.
    on_disk: Tree,
    catalogs: Vec<ShardedStore>,
    /// The bytes of every data file a committed generation named.
    library: HashMap<String, Bytes>,
    ops_run: u64,
}

impl Explorer {
    /// The generations whose manifest is in `tree`, newest first, with
    /// what each is.
    fn present<'a>(&self, state: &'a State, tree: &Tree) -> Vec<(u64, &'a Generation, Class)> {
        let Some(entries) = tree else {
            return Vec::new();
        };
        state
            .record
            .iter()
            .rev()
            .filter(|(&g, _)| entries.contains_key(&manifest_name(g)))
            .map(|(&g, generation)| (g, generation, self.class(entries, g, generation)))
            .collect()
    }

    /// What generation `g` is in `entries`: a file missing or not as
    /// committed damages it, even behind an unreadable manifest.
    fn class(&self, entries: &BTreeMap<String, Entry>, g: u64, generation: &Generation) -> Class {
        let manifest = manifest_name(g);
        let mut unreadable = false;
        for file in std::iter::once(&manifest).chain(&generation.files) {
            let committed = match file == &manifest {
                true => &generation.manifest,
                false => &self.library[file],
            };
            match entries.get(file) {
                Some(Entry::File(bytes)) if bytes == committed => {}
                Some(Entry::Unreadable) => unreadable = true,
                _ => return Class::Damaged,
            }
        }
        match unreadable {
            false => Class::Sound,
            true => Class::Unknown,
        }
    }

    /// The operations to try from `state`.
    fn ops(&self, state: &State) -> Vec<Op> {
        let mut ops = vec![
            Op::Write(Some(0)),
            Op::Write(Some(1)),
            Op::Write(None),
            Op::Open,
        ];
        if state.tree.is_some() {
            for role in [
                Role::NewestManifest,
                Role::OlderManifest,
                Role::NewestOwnShard,
                Role::SharedShard,
                Role::Schema,
            ] {
                if self.target(state, role).is_some() {
                    for damage in [
                        Damage::Flip,
                        Damage::Truncate,
                        Damage::Delete,
                        Damage::Unreadable,
                    ] {
                        ops.push(Op::Damage(role, damage));
                    }
                }
            }
        }
        ops.extend(state.damaged.keys().cloned().map(Op::Repair));
        ops
    }

    /// The file `role` names in `state`, if it holds its committed bytes.
    fn target(&self, state: &State, role: Role) -> Option<(String, Bytes)> {
        let present = self.present(state, &state.tree);
        let (newest, rest) = present.split_first()?;
        let others = || rest.iter().map(|(_, generation, _)| generation);
        let (name, bytes) = match role {
            Role::NewestManifest => (manifest_name(newest.0), newest.1.manifest.clone()),
            Role::OlderManifest => {
                let (g, generation, _) = rest.first()?;
                (manifest_name(*g), generation.manifest.clone())
            }
            Role::NewestOwnShard | Role::SharedShard | Role::Schema => {
                let mut files = newest.1.files.iter();
                let file = match role {
                    Role::Schema => files.next(),
                    Role::NewestOwnShard => files
                        .skip(1)
                        .find(|f| others().all(|g| !g.files.contains(f))),
                    _ => files
                        .skip(1)
                        .find(|f| others().all(|g| g.files.contains(f))),
                }?;
                (file.clone(), self.library[file].clone())
            }
        };
        let intact = state.tree.as_ref()?.get(&name) == Some(&Entry::File(bytes.clone()));
        intact.then_some((name, bytes))
    }

    /// Put `tree` on disk, changing only what differs from what is there.
    fn materialize(&mut self, tree: &Tree) {
        let Some(entries) = tree else {
            let _ = fs::remove_dir_all(&self.dir);
            self.on_disk = None;
            return;
        };
        let empty = BTreeMap::new();
        let there = self.on_disk.as_ref().unwrap_or(&empty);
        if self.on_disk.is_none() {
            fs::create_dir_all(&self.dir).unwrap();
        }
        for (name, entry) in there {
            if entries.get(name) != Some(entry) {
                let path = self.dir.join(name);
                match entry {
                    Entry::File(_) => fs::remove_file(path).unwrap(),
                    Entry::Unreadable => fs::remove_dir(path).unwrap(),
                }
            }
        }
        for (name, entry) in entries {
            if there.get(name) != Some(entry) {
                let path = self.dir.join(name);
                match entry {
                    Entry::File(bytes) => fs::write(path, bytes).unwrap(),
                    Entry::Unreadable => fs::create_dir(path).unwrap(),
                }
            }
        }
        self.on_disk = tree.clone();
    }

    /// What the directory holds after an operation.
    fn read_back(&mut self) -> Tree {
        self.on_disk = fs::read_dir(&self.dir).ok().map(|listing| {
            let entry = |entry: fs::DirEntry| {
                let name = entry.file_name().into_string().unwrap();
                match entry.file_type().unwrap().is_dir() {
                    true => (name, Entry::Unreadable),
                    false => (name, Entry::File(fs::read(entry.path()).unwrap().into())),
                }
            };
            listing.map(|e| entry(e.unwrap())).collect()
        });
        self.on_disk.clone()
    }

    /// Damage or repair: the new state, without touching the disk.
    fn transform(&self, state: &State, op: &Op) -> State {
        let mut next = state.clone();
        next.path = format!("{} → {op:?}", state.path);
        let entries = next.tree.as_mut().expect("damage needs a directory");
        match op {
            Op::Damage(role, damage) => {
                let (name, bytes) = self.target(state, *role).expect("an intact target");
                let damaged = match damage {
                    Damage::Flip => {
                        let mut flipped = bytes.to_vec();
                        flipped[bytes.len() / 2] ^= 0x40;
                        Some(Entry::File(flipped.into()))
                    }
                    Damage::Truncate => Some(Entry::File(bytes[..bytes.len() / 2].into())),
                    Damage::Delete => None,
                    Damage::Unreadable => Some(Entry::Unreadable),
                };
                match damaged {
                    Some(entry) => entries.insert(name.clone(), entry),
                    None => entries.remove(&name),
                };
                next.damaged.insert(name, bytes);
            }
            Op::Repair(name) => {
                let bytes = next.damaged.remove(name).expect("a damaged file");
                entries.insert(name.clone(), Entry::File(bytes));
            }
            _ => unreachable!("only damage and repair transform"),
        }
        next
    }

    /// Run `write` or `open` from `state`, crashing after `crash` changes
    /// to the disk; check the invariants. Returns the state reached and
    /// whether the crash fired.
    fn run(&mut self, state: &State, op: &Op, crash: Option<u64>, context: &str) -> (State, bool) {
        self.materialize(&state.tree);
        self.ops_run += 1;
        let mut next = state.clone();
        let manifests = || {
            state
                .tree
                .iter()
                .flat_map(|t| t.keys().filter_map(|n| manifest_generation(n)))
        };
        let (fired, completed, committed) = match op {
            Op::Write(catalog) => {
                next.held = catalog.unwrap_or(state.held + 1);
                let catalog = &self.catalogs[next.held];
                arm(crash);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    CatalogSnapshot::write(&self.dir, catalog)
                }));
                let fired = disarm(crash);
                let receipt = outcome.unwrap_or_else(|_| fail(context, "write panicked"));
                next.tree = self.read_back();
                let g = manifests().max().map_or(1, |newest| newest + 1);
                let committed = self.commit(&mut next, g, context);
                match &receipt {
                    Ok(receipt) if committed != Some(receipt.generation) => fail(
                        context,
                        &format!(
                            "the receipt names {}, not {committed:?}",
                            receipt.generation
                        ),
                    ),
                    Err(e) if !fired && committed.is_some() => {
                        fail(context, &format!("a committed write failed: {e}"))
                    }
                    _ => {}
                }
                (fired, receipt.is_ok() && !fired, committed)
            }
            Op::Open => {
                arm(crash);
                let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(&self.dir)));
                let fired = disarm(crash);
                let outcome = outcome.unwrap_or_else(|_| fail(context, "open panicked"));
                next.tree = self.read_back();
                let present = self.present(state, &state.tree);
                let expected = present.iter().find(|(_, _, class)| *class == Class::Sound);
                let completed = match (outcome, expected) {
                    (Ok((store, report)), Some((g, generation, _)))
                        if report.generation == *g
                            && store == self.catalogs[generation.catalog] =>
                    {
                        next.held = generation.catalog;
                        !fired
                    }
                    (Err(PersistError::NoUsableGeneration { .. }), None)
                        if manifests().next().is_some() =>
                    {
                        false
                    }
                    (Err(PersistError::NoSnapshot { .. }), None)
                        if manifests().next().is_none() =>
                    {
                        false
                    }
                    (outcome, expected) => fail(
                        context,
                        &format!(
                            "open gave {:?}, not generation {:?}",
                            outcome.map(|(_, report)| report.generation),
                            expected.map(|(g, _, _)| g)
                        ),
                    ),
                };
                (fired, completed, None)
            }
            _ => unreachable!("only write and open run"),
        };
        self.check_kept(state, &next, committed, context);
        if completed {
            self.check_hygiene(&next, context);
        }
        next.record.retain(|&g, _| {
            let name = manifest_name(g);
            let there = next.tree.as_ref().is_some_and(|t| t.contains_key(&name));
            there || next.damaged.contains_key(&name)
        });
        next.path = context.to_string();
        (next, fired)
    }

    /// Record generation `g` if a `write` committed it: its manifest is in
    /// `next`'s directory, and every file it names must be there, hashing
    /// to its name.
    fn commit(&mut self, next: &mut State, g: u64, context: &str) -> Option<u64> {
        let name = manifest_name(g);
        let Some(Entry::File(manifest)) = next.tree.as_ref()?.get(&name) else {
            return None;
        };
        let files = named_files(manifest);
        for file in &files {
            match next.tree.as_ref()?.get(file) {
                Some(Entry::File(bytes)) if file.contains(&format!("-{:016x}.", xxh64(bytes))) => {
                    self.library.insert(file.clone(), bytes.clone());
                }
                other => {
                    let found = match other {
                        Some(Entry::File(_)) => "bytes not hashing to its name",
                        Some(Entry::Unreadable) => "a directory",
                        None => "nothing",
                    };
                    fail(
                        context,
                        &format!("generation {g} committed with {found} as {file}"),
                    )
                }
            }
        }
        let generation = Generation {
            manifest: manifest.clone(),
            files,
            catalog: next.held,
        };
        next.record.insert(g, generation);
        next.damaged.remove(&name);
        Some(g)
    }

    /// Invariant 2, from `before` to `after`. Soundness is judged on the
    /// directory as the commit left it: a `write` puts each file its new
    /// generation names in place — mending any older generation that
    /// shares a damaged one — before its sweep deletes anything.
    fn check_kept(&self, before: &State, after: &State, committed: Option<u64>, context: &str) {
        let Some(mut basis) = before.tree.clone() else {
            return;
        };
        if let Some(g) = committed {
            let generation = &after.record[&g];
            basis.insert(manifest_name(g), Entry::File(generation.manifest.clone()));
            for file in &generation.files {
                basis.insert(file.clone(), Entry::File(self.library[file].clone()));
            }
        }
        let now = after.tree.clone().unwrap_or_default();
        let mut sound = 0;
        for (g, generation, class) in self.present(after, &Some(basis.clone())) {
            let protected = match class {
                Class::Sound => {
                    sound += 1;
                    sound <= 2
                }
                Class::Unknown => true,
                Class::Damaged => false,
            };
            let name = manifest_name(g);
            if protected {
                for file in std::iter::once(&name).chain(&generation.files) {
                    if basis
                        .get(file)
                        .is_some_and(|entry| now.get(file) != Some(entry))
                    {
                        fail(
                            context,
                            &format!("{file} of kept generation {g} was changed"),
                        );
                    }
                }
            } else if class == Class::Sound
                && now.contains_key(&name)
                && self.class(&now, g, generation) != Class::Sound
            {
                fail(
                    context,
                    &format!("generation {g}'s manifest outlived one of its files"),
                );
            }
        }
    }

    /// Invariant 3, on the state a completed `write` or `open` left.
    fn check_hygiene(&self, after: &State, context: &str) {
        let Some(entries) = after.tree.as_ref() else {
            return;
        };
        let mut allowed = HashSet::new();
        let mut every_data_file = false;
        let mut sound = 0;
        for (g, generation, class) in self.present(after, &after.tree) {
            // An unreadable manifest hides what its generation names: the
            // sweep keeps it, and every data file with it.
            let hidden = entries.get(&manifest_name(g)) == Some(&Entry::Unreadable);
            every_data_file |= hidden;
            let kept = hidden
                || match class {
                    Class::Sound => {
                        sound += 1;
                        sound <= 2
                    }
                    Class::Unknown => true,
                    Class::Damaged => false,
                };
            if kept {
                allowed.insert(manifest_name(g));
                allowed.extend(generation.files.iter().cloned());
            }
        }
        for (name, entry) in entries {
            let kept = allowed.contains(name) || (every_data_file && is_data_file(name));
            if matches!(entry, Entry::File(_)) && !kept {
                fail(context, &format!("{name} outlived a completed sweep"));
            }
        }
    }
}

fn fail(context: &str, what: &str) -> ! {
    panic!("after {context}: {what}")
}

#[cfg(feature = "failpoints")]
fn arm(crash: Option<u64>) {
    if let Some(k) = crash {
        fail::cfg("persist::fs", &format!("{k}*off->return(crash)")).unwrap();
    }
}

/// Disarm the crash failpoint; whether it fired.
#[cfg(feature = "failpoints")]
fn disarm(crash: Option<u64>) -> bool {
    let Some(k) = crash else {
        return false;
    };
    let hits = fail::list()
        .into_iter()
        .find(|(name, _)| name == "persist::fs")
        .and_then(|(_, hits)| hits.split(' ').next()?.parse::<u64>().ok())
        .unwrap_or(0);
    fail::remove("persist::fs");
    hits > k
}

#[cfg(not(feature = "failpoints"))]
fn arm(_: Option<u64>) {}

#[cfg(not(feature = "failpoints"))]
fn disarm(_: Option<u64>) -> bool {
    false
}

/// The dedup key of a state.
fn key(state: &State) -> (u64, u64) {
    let mut out = Vec::new();
    match &state.tree {
        None => out.push(0),
        Some(entries) => {
            for (name, entry) in entries {
                out.extend_from_slice(name.as_bytes());
                match entry {
                    Entry::File(_) if name.ends_with(".tmp") => out.push(1),
                    Entry::File(bytes) => out.extend_from_slice(&xxh64(bytes).to_le_bytes()),
                    Entry::Unreadable => out.push(2),
                }
                out.push(b'\n');
            }
        }
    }
    out.extend_from_slice(&(state.held as u64).to_le_bytes());
    for (g, generation) in &state.record {
        out.extend_from_slice(&g.to_le_bytes());
        out.extend_from_slice(&xxh64(&generation.manifest).to_le_bytes());
        out.extend_from_slice(&(generation.catalog as u64).to_le_bytes());
    }
    for name in state.damaged.keys() {
        out.extend_from_slice(name.as_bytes());
        out.push(b'\n');
    }
    (xxh64(&out), XxHash64::oneshot(1, &out))
}

#[test]
fn every_sequence_of_up_to_four_operations_keeps_the_retention_invariants() {
    explore(4, CRASHES);
}

/// Five operations reach what four cannot: three generations plus damage
/// plus an `open`. Crash points stay off even with `failpoints` compiled
/// in, which keeps it to ~5 k runs; CI runs it in its release step.
#[test]
#[ignore = "~5 s in debug: run with --release -- --include-ignored"]
fn every_sequence_of_up_to_five_operations_keeps_the_retention_invariants() {
    explore(5, false);
}

/// BFS over every sequence of up to `depth` operations, each `write` and
/// `open` also crashed at every disk change when `crashes` is set.
fn explore(depth: usize, crashes: bool) {
    // Another test's armed `persist::fs` would crash this one's writes.
    let _serial = serial();
    let started = Instant::now();
    let mut explorer = Explorer {
        dir: fresh_dir("explorer"),
        on_disk: None,
        catalogs: catalogs(depth),
        library: HashMap::new(),
        ops_run: 0,
    };
    let initial = State {
        tree: None,
        held: 0,
        record: BTreeMap::new(),
        damaged: BTreeMap::new(),
        path: "start".to_string(),
    };
    let mut seen: HashSet<(u64, u64)> = HashSet::from([key(&initial)]);
    // Each state to explore, with how many sequences reach it: a state
    // first reached at a shallower depth is not explored again.
    let mut frontier: Vec<(State, u64)> = vec![(initial, 1)];
    let mut sequences = 0u64;
    for step in 1..=depth {
        let mut next: HashMap<(u64, u64), (State, u64)> = HashMap::new();
        for (state, reaching) in &frontier {
            for op in explorer.ops(state) {
                let mut reached = Vec::new();
                match &op {
                    Op::Damage(..) | Op::Repair(_) => {
                        sequences += reaching;
                        if step < depth {
                            reached.push(explorer.transform(state, &op));
                        }
                    }
                    _ => {
                        let mut crash = crashes.then_some(0);
                        loop {
                            let context = format!("{} → {op:?} (crash {crash:?})", state.path);
                            let (after, fired) = explorer.run(state, &op, crash, &context);
                            sequences += reaching;
                            reached.push(after);
                            match crash {
                                Some(k) if fired => crash = Some(k + 1),
                                _ => break,
                            }
                        }
                    }
                }
                if step == depth {
                    continue;
                }
                for after in reached {
                    let key = key(&after);
                    if seen.contains(&key) && !next.contains_key(&key) {
                        continue;
                    }
                    seen.insert(key);
                    next.entry(key).or_insert((after, 0)).1 += reaching;
                }
            }
        }
        frontier = next.into_values().collect();
    }
    let _ = fs::remove_dir_all(&explorer.dir);
    println!(
        "persist explorer: {sequences} sequences of up to {depth} operations, {} run, {} distinct states, {:.1} s",
        explorer.ops_run,
        seen.len(),
        started.elapsed().as_secs_f64()
    );
}
