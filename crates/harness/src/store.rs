//! The persistent, shareable on-disk run cache.
//!
//! [`PlanExecutor`](crate::PlanExecutor) memoizes run outputs in memory
//! and forgets them at process exit; a [`RunStore`] makes the
//! content-addressed cache durable, so consecutive `figures` / `matrix`
//! invocations are incremental: a warm regeneration is served entirely
//! from disk, and an experiment tweak re-executes only the requests whose
//! canonical keys actually changed (the platform-config digest inside
//! every key invalidates exactly the touched frontier).
//!
//! ## On-disk layout
//!
//! A store is a directory of up to [`STORE_SHARDS`] **segment files**,
//! `seg-0.prst` … `seg-f.prst`, one per low nibble of the request
//! fingerprint ([`crate::seed::fingerprint`]), in the style of
//! `prem-trace`'s `PRTC` container:
//!
//! ```text
//! segment := magic "PRST" | store version u8 | codec version u8
//!          | shard index u8 | reserved u8 (0) | record count u32 LE
//!          | record*
//! record  := fingerprint u64 LE
//!          | key length varint | canonical key (UTF-8)
//!          | payload length varint | payload (RunOutput, prem-core codec)
//!          | payload checksum u64 LE (FNV-1a + SplitMix64)
//! ```
//!
//! Records are in append order. The first write of a segment and
//! [`RunStore::gc`] sort them by canonical key, so a swept store's
//! segments are byte-identical to any other store holding the same
//! entries; between sweeps, later appends follow in arrival order.
//!
//! ## Integrity: corruption is a hard error
//!
//! A cache that silently drops or invents results would corrupt published
//! artifacts, so every load re-validates everything and **fails loudly**:
//! bad magic, unknown store/codec version, a segment filed under the
//! wrong shard, truncation (mid-record EOF or a record count the bytes
//! cannot back), trailing bytes, a stored fingerprint that does not match
//! the record's key, a payload failing its checksum or decode, two
//! records with equal fingerprints but different keys (fingerprint
//! collision), and two records for one key with different outputs all
//! surface as [`io::ErrorKind::InvalidData`] /
//! [`io::ErrorKind::UnexpectedEof`]. The record count in the header is
//! what keeps in-place appends checkable: records written without their
//! count bump (a writer killed in between) are trailing bytes, and a cut
//! exactly at a record boundary leaves a count the bytes cannot back.
//! Recovery is deletion: remove the
//! cache directory (or the one poisoned segment) and re-run — the store
//! is a cache of deterministic executions, never the only copy of
//! anything.
//!
//! ## Multi-process sharing
//!
//! Worker processes share one store through per-shard **advisory file
//! locks** (`seg-x.lock`, never renamed): readers take the lock shared,
//! writers exclusive. Each loaded shard remembers a **stamp** of the
//! segment it mirrors — (inode, length, mtime), from `fstat` on the
//! handle it read. Under the exclusive lock a writer stats the segment;
//! if the stamp still matches, its in-memory map is current, otherwise
//! (another process appended, or `gc` replaced the file) it reloads.
//! It then merges (a raced duplicate of the same key must carry a
//! bit-identical output — determinism makes that a checkable invariant,
//! not an assumption) and writes **only the new records**: at the old
//! end of file, followed by a rewrite of the header's record count and
//! one `sync_data`. A shard with no segment yet is written whole, sorted,
//! to a temp file in the same directory that is synced and atomically
//! renamed into place, as is every segment `gc` rewrites. Readers hold
//! the shared lock while they read, so they never see a partial write.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

use prem_core::{RunOutput, CODEC_VERSION};
use prem_obs::{MetricsSink, NullMetrics, Span};

use crate::seed::{fingerprint, fingerprint_bytes};

/// File magic: the first four bytes of every segment file.
pub const STORE_MAGIC: [u8; 4] = *b"PRST";
/// Store container format version this crate writes and reads.
pub const STORE_VERSION: u8 = 1;
/// Number of segment files a store shards its records over. A power of
/// two so the fingerprint selects a segment by masking — the same scheme
/// (and count) as the in-memory `PlanExecutor` shards.
pub const STORE_SHARDS: usize = 16;

/// Segments larger than this many records are rejected as corrupt: at
/// ≥ 25 encoded bytes per record the byte count alone could never back
/// such a claim, so the cap bounds allocation on hostile headers without
/// constraining any real cache.
const MAX_SEGMENT_RECORDS: u64 = 1 << 28;

fn bad_data(path: &Path, msg: impl fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("run store {}: {msg}", path.display()),
    )
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(r: &mut &[u8], path: &Path) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        let byte = buf[0];
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(bad_data(path, "varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// One shard's decoded records: canonical key → output, plus the
/// fingerprint → key index that makes fingerprint collisions detectable
/// at load and append time.
#[derive(Debug, Default, Clone)]
struct ShardMap {
    by_key: HashMap<String, RunOutput>,
    by_fp: HashMap<u64, String>,
}

impl ShardMap {
    /// Inserts one record, enforcing the collision and conflict
    /// invariants. Returns `true` when the record was new.
    fn insert(&mut self, fp: u64, key: String, output: RunOutput, path: &Path) -> io::Result<bool> {
        if let Some(prev) = self.by_fp.get(&fp) {
            if *prev != key {
                return Err(bad_data(
                    path,
                    format!("fingerprint collision: {fp:#018x} maps to both {prev:?} and {key:?}"),
                ));
            }
        }
        match self.by_key.get(&key) {
            Some(existing) if *existing == output => Ok(false),
            Some(_) => Err(bad_data(
                path,
                format!("conflicting outputs recorded for key {key:?}"),
            )),
            None => {
                self.by_fp.insert(fp, key.clone());
                self.by_key.insert(key, output);
                Ok(true)
            }
        }
    }
}

/// Identity of the segment file a loaded shard mirrors. Every append
/// grows the file and every replacement gives it a new inode, so a
/// matching stamp means nobody has written the segment since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    ino: u64,
    len: u64,
    mtime: Option<SystemTime>,
}

impl Stamp {
    fn of(meta: &fs::Metadata) -> Stamp {
        #[cfg(unix)]
        let ino = std::os::unix::fs::MetadataExt::ino(meta);
        #[cfg(not(unix))]
        let ino = 0;
        Stamp {
            ino,
            len: meta.len(),
            mtime: meta.modified().ok(),
        }
    }
}

/// A shard's in-memory image: its records plus the stamp of the segment
/// they were read from (`None` when no segment file existed).
#[derive(Debug, Default)]
struct Shard {
    map: ShardMap,
    stamp: Option<Stamp>,
}

/// Appends one encoded record for (`key`, `output`) to `bytes`.
fn encode_record(bytes: &mut Vec<u8>, key: &str, output: &RunOutput) {
    bytes.extend_from_slice(&fingerprint(key).to_le_bytes());
    write_varint(bytes, key.len() as u64).expect("writing to a Vec cannot fail");
    bytes.extend_from_slice(key.as_bytes());
    let payload = output.encode();
    write_varint(bytes, payload.len() as u64).expect("writing to a Vec cannot fail");
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&fingerprint_bytes(&payload).to_le_bytes());
}

/// The segment header's record count, checked against its `u32` field.
fn header_count(records: usize, path: &Path) -> io::Result<u32> {
    u32::try_from(records).map_err(|_| bad_data(path, "record count overflows the segment header"))
}

/// Aggregate shape of a store, as reported by [`RunStore::stats`] and
/// [`RunStore::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files present on disk.
    pub segments: usize,
    /// Total records across all segments.
    pub records: usize,
    /// Total segment bytes on disk.
    pub bytes: u64,
    /// Records per shard (index = fingerprint low nibble).
    pub shard_records: [usize; STORE_SHARDS],
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run store: {} records in {} segment file(s), {} bytes",
            self.records, self.segments, self.bytes
        )?;
        for (idx, count) in self.shard_records.iter().enumerate() {
            if *count > 0 {
                writeln!(f, "  seg-{idx:x}.prst: {count} record(s)")?;
            }
        }
        Ok(())
    }
}

/// Outcome of a [`RunStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records retained.
    pub kept: usize,
    /// Records dropped.
    pub removed: usize,
    /// Segment bytes before the sweep.
    pub bytes_before: u64,
    /// Segment bytes after the sweep.
    pub bytes_after: u64,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: kept {} record(s), removed {}, {} -> {} bytes",
            self.kept, self.removed, self.bytes_before, self.bytes_after
        )
    }
}

/// The persistent run cache: fingerprint-sharded segment files of
/// (canonical key, [`RunOutput`]) records under one directory. See the
/// [module docs](self) for format, integrity and locking.
///
/// Shards are loaded lazily (first lookup touching a shard parses its
/// segment, validating every record) and cached in memory together with
/// a stamp of the segment they mirror. Appends run under an exclusive
/// advisory lock: they reload a shard only when its segment's stamp has
/// changed (another process wrote it), then write just the new records
/// in place, so multiple worker processes can share one directory and
/// an append costs O(new records), not O(segment).
///
/// ```
/// use prem_harness::RunStore;
/// let dir = std::env::temp_dir().join(format!("prem-store-doc-{}", std::process::id()));
/// let store = RunStore::open(&dir)?;          // creates the directory
/// assert_eq!(store.stats()?.records, 0);      // empty store: no segments yet
/// assert!(store.get("bicg(128x128)|tx1|…")?.is_none());
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    shards: Vec<Mutex<Option<Shard>>>,
}

impl RunStore {
    /// Opens (creating if necessary) the store directory at `dir`.
    /// Segments are not read here — loading is lazy and per shard.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<RunStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(RunStore {
            dir,
            shards: (0..STORE_SHARDS).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard index of a canonical key: low nibble of its fingerprint.
    fn shard_of(key: &str) -> usize {
        (fingerprint(key) as usize) & (STORE_SHARDS - 1)
    }

    fn segment_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("seg-{idx:x}.prst"))
    }

    fn lock_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("seg-{idx:x}.lock"))
    }

    /// Opens (creating if necessary) shard `idx`'s lock file. The lock
    /// file is separate from the segment and never renamed, so a lock
    /// taken on it stays meaningful across the segment's atomic
    /// replacement.
    fn lock_file(&self, idx: usize) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(self.lock_path(idx))
    }

    /// Parses one segment file's bytes, validating every record. The
    /// flag says whether the records are in strictly ascending key order.
    fn parse_segment(&self, idx: usize, bytes: &[u8], path: &Path) -> io::Result<(ShardMap, bool)> {
        let mut r = bytes;
        let mut header = [0u8; 12];
        r.read_exact(&mut header)?;
        if header[0..4] != STORE_MAGIC {
            return Err(bad_data(path, "not a run-store segment (bad magic)"));
        }
        if header[4] != STORE_VERSION {
            return Err(bad_data(
                path,
                format!(
                    "unsupported store version {} (expected {STORE_VERSION})",
                    header[4]
                ),
            ));
        }
        if header[5] != CODEC_VERSION {
            return Err(bad_data(
                path,
                format!(
                    "run-output codec version {} does not match this build's {CODEC_VERSION} — \
                     delete the cache directory to regenerate it",
                    header[5]
                ),
            ));
        }
        if usize::from(header[6]) != idx {
            return Err(bad_data(
                path,
                format!("segment filed under shard {idx} claims shard {}", header[6]),
            ));
        }
        if header[7] != 0 {
            return Err(bad_data(path, "nonzero reserved header byte"));
        }
        let count = u64::from(u32::from_le_bytes([
            header[8], header[9], header[10], header[11],
        ]));
        if count > MAX_SEGMENT_RECORDS {
            return Err(bad_data(path, "unreasonable record count"));
        }
        let mut map = ShardMap::default();
        let mut sorted = true;
        let mut prev_key = String::new();
        for _ in 0..count {
            let mut fp_bytes = [0u8; 8];
            r.read_exact(&mut fp_bytes)?;
            let fp = u64::from_le_bytes(fp_bytes);
            let key_len = read_varint(&mut r, path)? as usize;
            if key_len > r.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("run store {}: truncated key", path.display()),
                ));
            }
            let mut key_bytes = vec![0u8; key_len];
            r.read_exact(&mut key_bytes)?;
            let key = String::from_utf8(key_bytes)
                .map_err(|_| bad_data(path, "record key is not UTF-8"))?;
            if fingerprint(&key) != fp {
                return Err(bad_data(
                    path,
                    format!("stored fingerprint does not match key {key:?}"),
                ));
            }
            if fp as usize & (STORE_SHARDS - 1) != idx {
                return Err(bad_data(
                    path,
                    format!("record for key {key:?} belongs to another shard"),
                ));
            }
            let payload_len = read_varint(&mut r, path)? as usize;
            if payload_len > r.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("run store {}: truncated payload", path.display()),
                ));
            }
            let (payload, rest) = r.split_at(payload_len);
            r = rest;
            let mut check = [0u8; 8];
            r.read_exact(&mut check)?;
            if u64::from_le_bytes(check) != fingerprint_bytes(payload) {
                return Err(bad_data(
                    path,
                    format!("payload checksum mismatch for key {key:?}"),
                ));
            }
            let output = RunOutput::decode(payload)
                .map_err(|e| bad_data(path, format!("undecodable payload for key {key:?}: {e}")))?;
            if !map.by_key.is_empty() && key <= prev_key {
                sorted = false;
            }
            prev_key.clone_from(&key);
            if !map.insert(fp, key, output, path)? {
                return Err(bad_data(path, "duplicate record within one segment"));
            }
        }
        if !r.is_empty() {
            return Err(bad_data(path, "trailing bytes after final record"));
        }
        Ok((map, sorted))
    }

    /// Reads and parses shard `idx` from disk, stamping the image with
    /// the `fstat` of the handle it read; the caller holds the shard's
    /// advisory lock (shared or exclusive). An absent segment is an empty
    /// shard with no stamp. The flag is [`RunStore::parse_segment`]'s
    /// key-order flag. Actual segment reads are metered: one
    /// `store.segment_loads` count, `store.bytes_read` (total and
    /// per-shard) and a `store.load_ns` latency sample.
    fn load_from_disk<M: MetricsSink>(&self, idx: usize, metrics: &M) -> io::Result<(Shard, bool)> {
        let _load = Span::start(metrics, "store.load_ns");
        let path = self.segment_path(idx);
        let mut file = match File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Shard::default(), true)),
            Err(e) => return Err(e),
        };
        let stamp = Stamp::of(&file.metadata()?);
        let mut bytes = Vec::with_capacity(stamp.len as usize);
        file.read_to_end(&mut bytes)?;
        metrics.add("store.segment_loads", 1);
        metrics.add("store.bytes_read", bytes.len() as u64);
        if metrics.enabled() {
            // Dynamic names allocate; keep the format off the disabled path.
            metrics.add(
                &format!("store.shard.{idx:x}.bytes_read"),
                bytes.len() as u64,
            );
        }
        let (map, sorted) = self.parse_segment(idx, &bytes, &path)?;
        let shard = Shard {
            map,
            stamp: Some(stamp),
        };
        Ok((shard, sorted))
    }

    /// Counts `n` written bytes of shard `idx` into `store.bytes_written`
    /// (total and per-shard).
    fn meter_written<M: MetricsSink>(idx: usize, n: usize, metrics: &M) {
        metrics.add("store.bytes_written", n as u64);
        if metrics.enabled() {
            metrics.add(&format!("store.shard.{idx:x}.bytes_written"), n as u64);
        }
    }

    /// Serializes `map` sorted by key and atomically replaces shard
    /// `idx`'s segment (write to a temp file in the same directory, fsync,
    /// rename), returning the new segment's stamp. An empty map removes
    /// the segment file instead (stamp `None`). Metered as
    /// [`RunStore::meter_written`].
    fn write_segment_metered<M: MetricsSink>(
        &self,
        idx: usize,
        map: &ShardMap,
        metrics: &M,
    ) -> io::Result<Option<Stamp>> {
        let path = self.segment_path(idx);
        if map.by_key.is_empty() {
            return match fs::remove_file(&path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
                _ => Ok(None),
            };
        }
        let mut keys: Vec<&String> = map.by_key.keys().collect();
        keys.sort();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&[STORE_VERSION, CODEC_VERSION, idx as u8, 0]);
        bytes.extend_from_slice(&header_count(map.by_key.len(), &path)?.to_le_bytes());
        for key in keys {
            encode_record(&mut bytes, key, &map.by_key[key]);
        }
        Self::meter_written(idx, bytes.len(), metrics);
        let tmp = self
            .dir
            .join(format!("seg-{idx:x}.tmp.{}", std::process::id()));
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        // Renaming keeps the inode, length and mtime stamped here.
        let stamp = Stamp::of(&file.metadata()?);
        drop(file);
        fs::rename(&tmp, &path)?;
        Ok(Some(stamp))
    }

    /// Appends the already-encoded `records` to shard `idx`'s existing
    /// segment, whose stamp is `stamp`: writes them at the old end of
    /// file, rewrites the header's record count from `old_count` to
    /// `count`, and syncs once. Returns the grown segment's stamp. On
    /// failure it tries to put the old length and count back, so an I/O
    /// error (a full disk, say) does not leave trailing bytes behind.
    fn append_in_place<M: MetricsSink>(
        &self,
        idx: usize,
        stamp: Stamp,
        records: &[u8],
        (old_count, count): (u32, u32),
        metrics: &M,
    ) -> io::Result<Stamp> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.segment_path(idx))?;
        let write = |file: &mut File, records: &[u8], count: u32| -> io::Result<Stamp> {
            file.seek(SeekFrom::Start(stamp.len))?;
            file.write_all(records)?;
            file.seek(SeekFrom::Start(8))?;
            file.write_all(&count.to_le_bytes())?;
            file.sync_data()?;
            Ok(Stamp::of(&file.metadata()?))
        };
        Self::meter_written(idx, records.len() + 4, metrics);
        write(&mut file, records, count).inspect_err(|_| {
            let _ = file.set_len(stamp.len);
            let _ = write(&mut file, &[], old_count);
        })
    }

    /// Runs `f` on shard `idx`'s in-memory map, loading it from disk
    /// first (under a shared advisory lock, its wait metered as
    /// `store.lock_wait_ns`) if this is the shard's first touch.
    fn with_shard<T, M: MetricsSink>(
        &self,
        idx: usize,
        metrics: &M,
        f: impl FnOnce(&ShardMap) -> T,
    ) -> io::Result<T> {
        let mut guard = self.shards[idx].lock().expect("store shard poisoned");
        if guard.is_none() {
            let lock = self.lock_file(idx)?;
            {
                let _wait = Span::start(metrics, "store.lock_wait_ns");
                lock.lock_shared()?;
            }
            let loaded = self.load_from_disk(idx, metrics);
            let _ = File::unlock(&lock);
            *guard = Some(loaded?.0);
        }
        Ok(f(&guard.as_ref().expect("shard loaded above").map))
    }

    /// Looks up the output recorded for `key`, loading the key's shard on
    /// first touch.
    ///
    /// The in-memory image is a snapshot: records appended by *another*
    /// process after this process first loaded the shard are not visible
    /// until this handle next appends to the shard (which reloads a
    /// segment whose stamp changed), a fresh [`RunStore::open`] or
    /// [`RunStore::verify`]. Missing a racing writer's record is safe — the
    /// re-execution it causes appends a bit-identical output, which the
    /// merge accepts.
    ///
    /// # Errors
    ///
    /// Corruption anywhere in the shard's segment is a hard error (see
    /// the [module docs](self)); so is any underlying I/O failure.
    pub fn get(&self, key: &str) -> io::Result<Option<RunOutput>> {
        self.get_metered(key, &NullMetrics)
    }

    /// [`RunStore::get`] recording segment-load and lock-wait metrics
    /// into `metrics` (the store-backed executor's metered tier).
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn get_metered<M: MetricsSink>(
        &self,
        key: &str,
        metrics: &M,
    ) -> io::Result<Option<RunOutput>> {
        self.with_shard(Self::shard_of(key), metrics, |map| {
            map.by_key.get(key).cloned()
        })
    }

    /// Whether `key` has a recorded output (same loading and error
    /// behavior as [`RunStore::get`], without cloning the payload).
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn contains(&self, key: &str) -> io::Result<bool> {
        self.with_shard(Self::shard_of(key), &NullMetrics, |map| {
            map.by_key.contains_key(key)
        })
    }

    /// Durably records `entries` (canonical key → output), returning how
    /// many were new. Entries are grouped by shard; each touched shard is
    /// merged under an exclusive advisory lock — reloaded first if another
    /// process has written its segment since this handle last read it —
    /// and only its new records are written, appended in place (see the
    /// [module docs](self)), so concurrent appenders from other processes
    /// cannot lose records. A shard's in-memory image is dropped when its
    /// append fails, so the next touch reloads it from disk.
    ///
    /// A key already recorded with a bit-identical output is skipped (two
    /// processes raced on the same deterministic run); one recorded with
    /// a *different* output is a hard error.
    ///
    /// # Errors
    ///
    /// Corruption (including output conflicts and fingerprint collisions)
    /// and any underlying I/O failure.
    pub fn append<'e>(
        &self,
        entries: impl IntoIterator<Item = (&'e str, &'e RunOutput)>,
    ) -> io::Result<usize> {
        self.append_metered(entries, &NullMetrics)
    }

    /// [`RunStore::append`] recording per-shard merge latency
    /// (`store.append_ns`), exclusive-lock waits (`store.lock_wait_ns`),
    /// written bytes and appended-record counts into `metrics`.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::append`].
    pub fn append_metered<'e, M: MetricsSink>(
        &self,
        entries: impl IntoIterator<Item = (&'e str, &'e RunOutput)>,
        metrics: &M,
    ) -> io::Result<usize> {
        let mut by_shard: Vec<Vec<(&str, &RunOutput)>> = vec![Vec::new(); STORE_SHARDS];
        for (key, output) in entries {
            by_shard[Self::shard_of(key)].push((key, output));
        }
        let mut added_total = 0;
        for (idx, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let _append = Span::start(metrics, "store.append_ns");
            let mut guard = self.shards[idx].lock().expect("store shard poisoned");
            let lock = self.lock_file(idx)?;
            {
                let _wait = Span::start(metrics, "store.lock_wait_ns");
                lock.lock()?;
            }
            let result = (|| {
                let path = self.segment_path(idx);
                let on_disk = match fs::metadata(&path) {
                    Ok(meta) => Some(Stamp::of(&meta)),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                    Err(e) => return Err(e),
                };
                // Taken, not borrowed: an error below leaves `None`.
                let mut shard = match guard.take() {
                    Some(shard) if shard.stamp == on_disk => shard,
                    _ => self.load_from_disk(idx, metrics)?.0,
                };
                let mut new = Vec::new();
                for (key, output) in batch {
                    if shard
                        .map
                        .insert(fingerprint(key), key.to_string(), output.clone(), &path)?
                    {
                        new.push((key, output));
                    }
                }
                if !new.is_empty() {
                    shard.stamp = match shard.stamp {
                        None => self.write_segment_metered(idx, &shard.map, metrics)?,
                        Some(stamp) => {
                            new.sort_unstable_by_key(|&(key, _)| key);
                            let mut records = Vec::new();
                            for (key, output) in &new {
                                encode_record(&mut records, key, output);
                            }
                            let count = header_count(shard.map.by_key.len(), &path)?;
                            let counts = (count - new.len() as u32, count);
                            Some(self.append_in_place(idx, stamp, &records, counts, metrics)?)
                        }
                    };
                }
                let added = new.len();
                *guard = Some(shard);
                Ok::<usize, io::Error>(added)
            })();
            let _ = File::unlock(&lock);
            added_total += result?;
        }
        metrics.add("store.appended_records", added_total as u64);
        Ok(added_total)
    }

    /// Counts records and bytes per shard, loading (and thereby
    /// validating) any shard not yet in memory.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn stats(&self) -> io::Result<StoreStats> {
        self.stats_metered(&NullMetrics)
    }

    /// [`RunStore::stats`] reporting through `metrics` as well: shape
    /// gauges (`store.records`, `store.segments`, `store.bytes`,
    /// per-shard `store.shard.<x>.records`/`.bytes`) plus the load
    /// latencies of any shard this call was first to touch — the
    /// registry-backed form behind `figures -- cache stats`.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn stats_metered<M: MetricsSink>(&self, metrics: &M) -> io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        for idx in 0..STORE_SHARDS {
            stats.shard_records[idx] = self.with_shard(idx, metrics, |map| map.by_key.len())?;
            stats.records += stats.shard_records[idx];
            let mut shard_bytes = 0;
            match fs::metadata(self.segment_path(idx)) {
                Ok(meta) => {
                    stats.segments += 1;
                    stats.bytes += meta.len();
                    shard_bytes = meta.len();
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            if metrics.enabled() && (stats.shard_records[idx] > 0 || shard_bytes > 0) {
                metrics.gauge(
                    &format!("store.shard.{idx:x}.records"),
                    stats.shard_records[idx] as i64,
                );
                metrics.gauge(&format!("store.shard.{idx:x}.bytes"), shard_bytes as i64);
            }
        }
        metrics.gauge("store.records", stats.records as i64);
        metrics.gauge("store.segments", stats.segments as i64);
        metrics.gauge("store.bytes", stats.bytes as i64);
        Ok(stats)
    }

    /// Re-reads **every** segment from disk (discarding in-memory
    /// snapshots), which decodes and checksums every record — the full
    /// integrity pass behind `figures -- cache verify`. On success the
    /// refreshed snapshots replace the cached ones and the stats are
    /// returned.
    ///
    /// # Errors
    ///
    /// The first corruption or I/O failure found, as a hard error.
    pub fn verify(&self) -> io::Result<StoreStats> {
        for idx in 0..STORE_SHARDS {
            let mut guard = self.shards[idx].lock().expect("store shard poisoned");
            let lock = self.lock_file(idx)?;
            lock.lock_shared()?;
            let loaded = self.load_from_disk(idx, &NullMetrics);
            let _ = File::unlock(&lock);
            *guard = Some(loaded?.0);
        }
        self.stats()
    }

    /// Sweeps every shard under the same per-shard exclusive locking as
    /// [`RunStore::append`], keeping only records whose canonical key
    /// satisfies `keep`. A segment that lost records, or whose records
    /// are out of key order after in-place appends, is rewritten sorted
    /// and atomically replaced; one left empty is deleted. So after a
    /// sweep, stores holding the same entries have byte-identical
    /// segments. The sweep also deletes the shard's orphaned temp files
    /// (`seg-x.tmp.*`, left by a writer killed before its rename): a
    /// live one only exists while its writer holds the lock gc holds.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::append`].
    pub fn gc(&self, keep: impl Fn(&str) -> bool) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for idx in 0..STORE_SHARDS {
            let mut guard = self.shards[idx].lock().expect("store shard poisoned");
            let lock = self.lock_file(idx)?;
            lock.lock()?;
            let result = (|| {
                guard.take();
                self.remove_temp_files(idx)?;
                let path = self.segment_path(idx);
                if let Ok(meta) = fs::metadata(&path) {
                    report.bytes_before += meta.len();
                }
                let (mut shard, sorted) = self.load_from_disk(idx, &NullMetrics)?;
                let before = shard.map.by_key.len();
                let mut kept = ShardMap::default();
                for (key, output) in shard.map.by_key {
                    if keep(&key) {
                        kept.insert(fingerprint(&key), key, output, &path)?;
                    } else {
                        report.removed += 1;
                    }
                }
                report.kept += kept.by_key.len();
                if kept.by_key.len() != before || !sorted {
                    shard.stamp = self.write_segment_metered(idx, &kept, &NullMetrics)?;
                }
                if let Ok(meta) = fs::metadata(&path) {
                    report.bytes_after += meta.len();
                }
                shard.map = kept;
                *guard = Some(shard);
                Ok::<(), io::Error>(())
            })();
            let _ = File::unlock(&lock);
            result?;
        }
        Ok(report)
    }

    /// Deletes shard `idx`'s temp files (`seg-x.tmp.*`); the caller holds
    /// the shard's exclusive lock, so none of them is being written.
    fn remove_temp_files(&self, idx: usize) -> io::Result<()> {
        let prefix = format!("seg-{idx:x}.tmp.");
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                match fs::remove_file(entry.path()) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{execute_run, NoiseModel, RunWork};
    use prem_gpusim::{PlatformConfig, Scenario};
    use prem_kernels::{Bicg, Kernel};
    use prem_memsim::KIB;
    use prem_obs::Registry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh per-test directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "prem-store-test-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_output_with(work: RunWork, seed: u64) -> RunOutput {
        let bicg = Bicg::new(64, 64);
        let intervals = bicg.intervals(32 * KIB).expect("tiling");
        execute_run(
            &PlatformConfig::tx1(),
            &intervals,
            work,
            seed,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .expect("sample run")
        .0
    }

    fn sample_output(seed: u64) -> RunOutput {
        sample_output_with(RunWork::PremLlc { r: 2 }, seed)
    }

    #[test]
    fn put_get_roundtrips_across_store_handles() {
        let dir = scratch_dir("roundtrip");
        let out = sample_output(3);
        {
            let store = RunStore::open(&dir).expect("open");
            assert!(store.get("k|a").expect("get").is_none());
            assert_eq!(store.append([("k|a", &out)]).expect("append"), 1);
            assert_eq!(store.get("k|a").expect("get"), Some(out.clone()));
        }
        // A second handle (≈ a second process) sees the persisted record.
        let store = RunStore::open(&dir).expect("reopen");
        assert_eq!(store.get("k|a").expect("get"), Some(out.clone()));
        let stats = store.stats().expect("stats");
        assert_eq!((stats.records, stats.segments), (1, 1));
        // Re-appending the identical output is a no-op, not an error.
        assert_eq!(store.append([("k|a", &out)]).expect("re-append"), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// The first `n` keys of the form `key|<i>` filed under shard `idx`,
    /// in ascending key order.
    fn keys_in_shard(idx: usize, n: usize) -> Vec<String> {
        let mut keys: Vec<String> = (0..)
            .map(|i| format!("key|{i}"))
            .filter(|key| RunStore::shard_of(key) == idx)
            .take(n)
            .collect();
        keys.sort();
        keys
    }

    /// Whether shard `idx`'s segment on disk holds its records in key
    /// order.
    fn segment_sorted(store: &RunStore, idx: usize) -> bool {
        store.load_from_disk(idx, &NullMetrics).expect("load").1
    }

    #[test]
    fn equal_contents_match_and_gc_makes_segments_byte_identical() {
        let dirs = [
            scratch_dir("order-fwd"),
            scratch_dir("order-rev"),
            scratch_dir("order-batch"),
        ];
        let keys = keys_in_shard(0, 3);
        let outputs: Vec<RunOutput> = (1..=3).map(sample_output).collect();
        let entries: Vec<(&str, &RunOutput)> =
            keys.iter().map(String::as_str).zip(&outputs).collect();
        let [fwd, rev, batch] = dirs
            .each_ref()
            .map(|dir| RunStore::open(dir).expect("open"));
        // One record per append: ascending into `fwd`, descending into
        // `rev`, so `rev`'s in-place appends land out of key order.
        for &entry in &entries {
            fwd.append([entry]).expect("append");
        }
        for &entry in entries.iter().rev() {
            rev.append([entry]).expect("append");
        }
        // One batch into an empty shard is written sorted.
        batch.append(entries.iter().rev().copied()).expect("append");
        assert!(segment_sorted(&batch, 0));
        assert!(!segment_sorted(&rev, 0));

        for store in [&fwd, &rev, &batch] {
            let fresh = RunStore::open(store.dir()).expect("reopen");
            for &(key, output) in &entries {
                assert_eq!(fresh.get(key).expect("get").as_ref(), Some(output));
            }
            assert_eq!(fresh.stats().expect("stats"), fwd.stats().expect("stats"));
        }

        for store in [&fwd, &rev, &batch] {
            let report = store.gc(|_| true).expect("gc");
            assert_eq!((report.kept, report.removed), (3, 0));
        }
        let bytes = fs::read(fwd.segment_path(0)).expect("read fwd");
        for store in [&rev, &batch] {
            assert_eq!(
                fs::read(store.segment_path(0)).expect("read"),
                bytes,
                "equal contents must give byte-identical segments after gc"
            );
        }
        // The sweep reloaded `rev`; it still appends in place afterwards.
        let extra = keys_in_shard(0, 4)
            .into_iter()
            .find(|key| !keys.contains(key))
            .expect("a fourth key");
        assert_eq!(
            rev.append([(extra.as_str(), &outputs[0])]).expect("append"),
            1
        );
        assert_eq!(
            RunStore::open(rev.dir())
                .expect("reopen")
                .verify()
                .expect("verify")
                .records,
            4
        );
        for dir in &dirs {
            fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn conflicting_outputs_for_one_key_are_a_hard_error() {
        let dir = scratch_dir("conflict");
        let store = RunStore::open(&dir).expect("open");
        store
            .append([("k|x", &sample_output_with(RunWork::PremLlc { r: 1 }, 1))])
            .expect("first");
        let err = store
            .append([("k|x", &sample_output_with(RunWork::Baseline, 1))])
            .expect_err("conflicting append must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("conflicting outputs"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_corruption_are_hard_errors() {
        let dir = scratch_dir("corrupt");
        let out = sample_output(5);
        let store = RunStore::open(&dir).expect("open");
        store.append([("k|y", &out)]).expect("append");
        let seg = store.segment_path(RunStore::shard_of("k|y"));
        let bytes = fs::read(&seg).expect("read segment");

        // Truncated mid-record: UnexpectedEof.
        fs::write(&seg, &bytes[..bytes.len() - 3]).expect("truncate");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Flipped payload bit: checksum mismatch.
        let mut flipped = bytes.clone();
        let mid = flipped.len() - 12; // inside the payload, before the checksum
        flipped[mid] ^= 0x40;
        fs::write(&seg, &flipped).expect("flip");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(&seg, &bad).expect("bad magic");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Wrong codec version byte.
        let mut wrong = bytes.clone();
        wrong[5] = CODEC_VERSION + 1;
        fs::write(&seg, &wrong).expect("codec bump");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("codec");
        assert!(err.to_string().contains("codec version"), "{err}");

        // Trailing garbage after the declared records.
        let mut trailing = bytes.clone();
        trailing.push(0xaa);
        fs::write(&seg, &trailing).expect("trailing");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("trailing");
        assert!(err.to_string().contains("trailing"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rereads_disk_and_gc_drops_dead_keys() {
        let dir = scratch_dir("gc");
        let store = RunStore::open(&dir).expect("open");
        let (a, b) = (sample_output(1), sample_output(2));
        store
            .append([("live|1", &a), ("dead|1", &b)])
            .expect("append");
        let stats = store.verify().expect("verify");
        assert_eq!(stats.records, 2);
        let report = store.gc(|key| key.starts_with("live|")).expect("gc");
        assert_eq!((report.kept, report.removed), (1, 1));
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(store.get("live|1").expect("get"), Some(a));
        assert!(store.get("dead|1").expect("get").is_none());
        // A fresh handle agrees: the sweep was durable.
        let fresh = RunStore::open(&dir).expect("reopen");
        assert!(fresh.get("dead|1").expect("get").is_none());
        assert_eq!(fresh.stats().expect("stats").records, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_place_appends_keep_truncation_and_trailing_bytes_detectable() {
        let dir = scratch_dir("in-place");
        let keys = keys_in_shard(0, 2);
        let store = RunStore::open(&dir).expect("open");
        let seg = store.segment_path(0);
        store
            .append([(keys[0].as_str(), &sample_output(1))])
            .expect("first write");
        let before = fs::read(&seg).expect("read");
        store
            .append([(keys[1].as_str(), &sample_output(2))])
            .expect("in place");
        let after = fs::read(&seg).expect("read");
        assert_eq!(after[..8], before[..8]);
        assert_eq!(after[8..12], 2u32.to_le_bytes(), "count bumped");
        assert_eq!(
            after[12..before.len()],
            before[12..],
            "old records untouched"
        );

        // Cut exactly at the last record boundary: the count (2) can no
        // longer be backed.
        fs::write(&seg, &after[..before.len()]).expect("truncate");
        let err = RunStore::open(&dir)
            .expect("open")
            .get(&keys[0])
            .expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // The appended record without its count bump: trailing bytes.
        let mut stale_count = after.clone();
        stale_count[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&seg, &stale_count).expect("restore old count");
        let err = RunStore::open(&dir)
            .expect("open")
            .get(&keys[0])
            .expect_err("trailing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_writer_reloads_when_another_handle_appended() {
        let dir = scratch_dir("two-handles");
        let keys = keys_in_shard(0, 3);
        let a = RunStore::open(&dir).expect("open a");
        let b = RunStore::open(&dir).expect("open b");
        a.append([(keys[0].as_str(), &sample_output(1))])
            .expect("a appends");
        assert_eq!(a.get(&keys[1]).expect("a loaded"), None);
        let b_output = sample_output(2);
        b.append([(keys[1].as_str(), &b_output)])
            .expect("b appends");

        let registry = Registry::new();
        let added = a
            .append_metered([(keys[2].as_str(), &sample_output(3))], &registry)
            .expect("a appends again");
        assert_eq!(added, 1);
        assert_eq!(
            registry.snapshot().counter("store.segment_loads"),
            Some(1),
            "a reloads"
        );
        assert_eq!(a.get(&keys[1]).expect("get"), Some(b_output.clone()));
        // B's record is still checked against, and its raced duplicate
        // merges silently.
        let err = a
            .append([(keys[1].as_str(), &sample_output_with(RunWork::Baseline, 2))])
            .expect_err("conflicting output for b's key");
        assert!(err.to_string().contains("conflicting outputs"), "{err}");
        assert_eq!(
            a.append([(keys[1].as_str(), &b_output)])
                .expect("raced duplicate"),
            0
        );

        let stats = RunStore::open(&dir)
            .expect("open")
            .verify()
            .expect("verify");
        assert_eq!((stats.records, stats.shard_records[0]), (3, 3));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_append_to_a_populated_shard_writes_about_one_record() {
        let dir = scratch_dir("o-record");
        let keys = keys_in_shard(0, 9);
        let store = RunStore::open(&dir).expect("open");
        let outputs: Vec<RunOutput> = (0..8).map(sample_output).collect();
        store
            .append(keys.iter().map(String::as_str).zip(&outputs))
            .expect("populate");
        let output = sample_output(8);
        let mut record = Vec::new();
        encode_record(&mut record, &keys[8], &output);

        let registry = Registry::new();
        store
            .append_metered([(keys[8].as_str(), &output)], &registry)
            .expect("append");
        let snapshot = registry.snapshot();
        let written = snapshot
            .counter("store.bytes_written")
            .expect("bytes written");
        assert_eq!(
            written,
            record.len() as u64 + 4,
            "one record plus the count"
        );
        assert!(written < 2 * record.len() as u64);
        assert_eq!(snapshot.counter("store.segment_loads"), None, "no reload");
        assert_eq!(
            RunStore::open(&dir)
                .expect("open")
                .verify()
                .expect("verify")
                .records,
            9
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_orphaned_temp_files() {
        let dir = scratch_dir("orphans");
        let store = RunStore::open(&dir).expect("open");
        let key = keys_in_shard(3, 1).pop().expect("key");
        store
            .append([(key.as_str(), &sample_output(1))])
            .expect("append");
        let orphans = [dir.join("seg-3.tmp.4242"), dir.join("seg-a.tmp.7")];
        for orphan in &orphans {
            fs::write(orphan, b"half-written segment").expect("plant");
        }
        let stats = RunStore::open(&dir).expect("open").stats().expect("stats");
        assert_eq!((stats.records, stats.segments), (1, 1));
        let bytes = fs::metadata(store.segment_path(3)).expect("segment").len();
        assert_eq!(stats.bytes, bytes, "temp files are not counted");

        store.gc(|_| true).expect("gc");
        for orphan in &orphans {
            assert!(!orphan.exists(), "{} survived gc", orphan.display());
        }
        assert_eq!(store.verify().expect("verify"), stats);
        fs::remove_dir_all(&dir).ok();
    }
}
