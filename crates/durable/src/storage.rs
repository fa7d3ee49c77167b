//! Storage backends for the write-ahead log and checkpoints.
//!
//! The durability layer talks to named byte blobs through the
//! [`Storage`] trait; two implementations exist:
//!
//! - [`FileStorage`]: real files in a directory, with `fsync` on
//!   [`Storage::flush`] and write-then-rename for
//!   [`Storage::write_atomic`].
//! - [`SimDisk`]: a deterministic in-memory disk for the simulator.
//!   Appends are buffered until flushed — exactly the window a real OS
//!   page cache leaves open — and [`SimDisk::crash`] resolves that
//!   window with seeded [`HashNoise`]: unflushed bytes survive only as
//!   a torn prefix, and (optionally) bit rot flips a durable bit. The
//!   same seed always tears the same writes, so crash tests reproduce.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sor_sensors::noise::HashNoise;

use crate::DurableError;

/// A flat namespace of durable byte blobs.
///
/// The contract mirrors the POSIX subset a WAL needs: appends are
/// buffered until [`Storage::flush`] (data loss window on crash),
/// while [`Storage::write_atomic`], [`Storage::truncate`] and
/// [`Storage::remove`] take effect durably and atomically.
pub trait Storage: std::fmt::Debug {
    /// Full contents of a blob, or `None` if it does not exist. Reads
    /// observe the writer's own unflushed appends.
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, DurableError>;

    /// Appends bytes (creating the blob if needed). Not durable until
    /// [`Storage::flush`].
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError>;

    /// Durability barrier: everything appended so far survives a crash.
    fn flush(&mut self, name: &str) -> Result<(), DurableError>;

    /// Atomically replaces a blob's contents (write + rename).
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError>;

    /// Durably cuts a blob to `len` bytes (no-op past the end).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurableError>;

    /// Durably removes a blob (no-op if absent).
    fn remove(&mut self, name: &str) -> Result<(), DurableError>;
}

// ---------------------------------------------------------------------
// Real files.
// ---------------------------------------------------------------------

/// [`Storage`] over real files in one directory.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Open append handles, so repeated appends don't reopen the file.
    handles: BTreeMap<String, fs::File>,
}

impl FileStorage {
    /// Opens (creating if needed) a storage directory.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurableError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir.display(), &e))?;
        Ok(FileStorage { dir, handles: BTreeMap::new() })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn handle(&mut self, name: &str) -> Result<&mut fs::File, DurableError> {
        if !self.handles.contains_key(name) {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))
                .map_err(|e| io_err("open", &name, &e))?;
            self.handles.insert(name.to_string(), file);
        }
        Ok(self.handles.get_mut(name).expect("just inserted"))
    }
}

fn io_err(what: &str, name: &dyn std::fmt::Display, e: &dyn std::fmt::Display) -> DurableError {
    DurableError::Io(format!("{what} `{name}`: {e}"))
}

impl Storage for FileStorage {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &name, &e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.handle(name)?.write_all(bytes).map_err(|e| io_err("append", &name, &e))
    }

    fn flush(&mut self, name: &str) -> Result<(), DurableError> {
        if let Some(file) = self.handles.get_mut(name) {
            file.flush().map_err(|e| io_err("flush", &name, &e))?;
            file.sync_all().map_err(|e| io_err("fsync", &name, &e))?;
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.handles.remove(name);
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &name, &e))?;
            file.write_all(bytes).map_err(|e| io_err("write", &name, &e))?;
            file.sync_all().map_err(|e| io_err("fsync", &name, &e))?;
        }
        fs::rename(&tmp, self.path(name)).map_err(|e| io_err("rename", &name, &e))
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurableError> {
        self.handles.remove(name);
        match fs::OpenOptions::new().write(true).open(self.path(name)) {
            Ok(file) => {
                file.set_len(len).map_err(|e| io_err("truncate", &name, &e))?;
                file.sync_all().map_err(|e| io_err("fsync", &name, &e))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("open", &name, &e)),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), DurableError> {
        self.handles.remove(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &name, &e)),
        }
    }
}

// ---------------------------------------------------------------------
// Simulated disk.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct SimFile {
    /// Bytes that survive a crash.
    durable: Vec<u8>,
    /// Appended but unflushed bytes — at crash time only a noise-chosen
    /// prefix of these lands (a torn / partial write).
    pending: Vec<u8>,
}

#[derive(Debug)]
struct DiskInner {
    files: BTreeMap<String, SimFile>,
    noise: HashNoise,
    crashes: u64,
    /// Per-file probability, at each crash, of one durable bit
    /// flipping (media corruption, as opposed to the torn tail).
    bit_rot: f64,
}

/// Deterministic in-memory disk with crash-fault injection.
///
/// Cheap to clone; clones share the same state, so the simulator keeps
/// one handle while the server's durability layer owns another — after
/// [`SimDisk::crash`] the server is dropped and a fresh one recovers
/// from the same disk.
#[derive(Debug, Clone)]
pub struct SimDisk {
    inner: Arc<Mutex<DiskInner>>,
}

/// Stable per-file tag so fault decisions are pure in (seed, file, crash#).
fn name_tag(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SimDisk {
    /// A fresh empty disk whose fault decisions derive from `seed`.
    pub fn new(seed: u64) -> Self {
        SimDisk {
            inner: Arc::new(Mutex::new(DiskInner {
                files: BTreeMap::new(),
                noise: HashNoise::new(seed).fork(0x5d15c),
                crashes: 0,
                bit_rot: 0.0,
            })),
        }
    }

    /// Enables bit rot: at each crash, each file independently has this
    /// probability of one durable bit flipping.
    pub fn with_bit_rot(self, p: f64) -> Self {
        self.inner.lock().expect("simdisk poisoned").bit_rot = p;
        self
    }

    /// Simulates power loss. Unflushed appends survive only as a
    /// noise-chosen prefix (possibly empty, possibly whole — a torn
    /// write, a partial flush, or luck); flushed bytes always survive;
    /// with bit rot enabled a durable bit may flip. Deterministic in
    /// `(seed, crash index)`.
    pub fn crash(&self) {
        let mut inner = self.inner.lock().expect("simdisk poisoned");
        inner.crashes += 1;
        let k = inner.crashes as f64;
        let noise = inner.noise;
        let bit_rot = inner.bit_rot;
        for (name, file) in inner.files.iter_mut() {
            let tag = name_tag(name);
            if !file.pending.is_empty() {
                let u = noise.uniform(tag ^ 0x7ea2, k);
                let keep = ((u * (file.pending.len() + 1) as f64) as usize).min(file.pending.len());
                let kept: Vec<u8> = file.pending.drain(..).take(keep).collect();
                file.durable.extend_from_slice(&kept);
            }
            if bit_rot > 0.0 && !file.durable.is_empty() && noise.uniform(tag ^ 0xb117, k) < bit_rot
            {
                let pos = ((noise.uniform(tag ^ 0x905e, k) * file.durable.len() as f64) as usize)
                    .min(file.durable.len() - 1);
                let bit = (noise.uniform(tag ^ 0x0b17, k) * 8.0) as u32 % 8;
                file.durable[pos] ^= 1 << bit;
            }
        }
    }

    /// How many crashes this disk has absorbed.
    pub fn crashes(&self) -> u64 {
        self.inner.lock().expect("simdisk poisoned").crashes
    }

    /// Bytes of a blob that would survive a crash right now (flushed
    /// data only) — what invariant tests compare against.
    pub fn durable_len(&self, name: &str) -> usize {
        let inner = self.inner.lock().expect("simdisk poisoned");
        inner.files.get(name).map_or(0, |f| f.durable.len())
    }

    /// Unflushed bytes of a blob — the crash-loss window.
    pub fn pending_len(&self, name: &str) -> usize {
        let inner = self.inner.lock().expect("simdisk poisoned");
        inner.files.get(name).map_or(0, |f| f.pending.len())
    }
}

impl Storage for SimDisk {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        let inner = self.inner.lock().expect("simdisk poisoned");
        Ok(inner.files.get(name).map(|f| {
            let mut all = f.durable.clone();
            all.extend_from_slice(&f.pending);
            all
        }))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        let mut inner = self.inner.lock().expect("simdisk poisoned");
        inner.files.entry(name.to_string()).or_default().pending.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self, name: &str) -> Result<(), DurableError> {
        let mut inner = self.inner.lock().expect("simdisk poisoned");
        if let Some(file) = inner.files.get_mut(name) {
            let pending = std::mem::take(&mut file.pending);
            file.durable.extend_from_slice(&pending);
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        let mut inner = self.inner.lock().expect("simdisk poisoned");
        let file = inner.files.entry(name.to_string()).or_default();
        // Drop the blob being replaced before copying in the new one:
        // nothing observes the disk mid-call, so it never holds both.
        drop(std::mem::take(&mut file.durable));
        file.durable = bytes.to_vec();
        file.pending.clear();
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurableError> {
        let mut inner = self.inner.lock().expect("simdisk poisoned");
        if let Some(file) = inner.files.get_mut(name) {
            let pending = std::mem::take(&mut file.pending);
            file.durable.extend_from_slice(&pending);
            file.durable.truncate(len as usize);
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), DurableError> {
        let mut inner = self.inner.lock().expect("simdisk poisoned");
        inner.files.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simdisk_flushed_bytes_survive_crashes() {
        let disk = SimDisk::new(7);
        let mut s: Box<dyn Storage> = Box::new(disk.clone());
        s.append("log", b"committed").unwrap();
        s.flush("log").unwrap();
        disk.crash();
        assert_eq!(s.read("log").unwrap().unwrap(), b"committed");
    }

    #[test]
    fn simdisk_crash_keeps_only_a_prefix_of_pending() {
        for seed in 0..64 {
            let disk = SimDisk::new(seed);
            let mut s: Box<dyn Storage> = Box::new(disk.clone());
            s.append("log", b"durable|").unwrap();
            s.flush("log").unwrap();
            s.append("log", b"pending-tail").unwrap();
            disk.crash();
            let after = s.read("log").unwrap().unwrap();
            assert!(after.starts_with(b"durable|"), "flushed prefix lost (seed {seed})");
            assert!(
                b"durable|pending-tail".starts_with(after.as_slice()),
                "crash invented bytes (seed {seed}): {after:?}"
            );
        }
    }

    #[test]
    fn simdisk_crash_outcomes_are_deterministic() {
        let run = |seed| {
            let disk = SimDisk::new(seed);
            let mut s: Box<dyn Storage> = Box::new(disk.clone());
            s.append("log", b"0123456789").unwrap();
            disk.crash();
            s.read("log").unwrap().unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn simdisk_tears_vary_with_seed() {
        // Across seeds the torn prefix length must actually vary —
        // otherwise the fault model degenerates to all-or-nothing.
        let lens: std::collections::BTreeSet<usize> = (0..32)
            .map(|seed| {
                let disk = SimDisk::new(seed);
                let mut s: Box<dyn Storage> = Box::new(disk.clone());
                s.append("log", &[0xAA; 64]).unwrap();
                disk.crash();
                s.read("log").unwrap().unwrap().len()
            })
            .collect();
        assert!(lens.len() > 3, "only saw torn lengths {lens:?}");
    }

    #[test]
    fn simdisk_bit_rot_flips_durable_bits() {
        let disk = SimDisk::new(5).with_bit_rot(1.0);
        let mut s: Box<dyn Storage> = Box::new(disk.clone());
        s.append("log", &[0u8; 32]).unwrap();
        s.flush("log").unwrap();
        disk.crash();
        let after = s.read("log").unwrap().unwrap();
        assert_eq!(after.len(), 32);
        assert!(after.iter().any(|&b| b != 0), "bit rot at p=1.0 must flip something");
    }

    #[test]
    fn simdisk_write_atomic_and_truncate_are_durable() {
        let disk = SimDisk::new(1);
        let mut s: Box<dyn Storage> = Box::new(disk.clone());
        s.write_atomic("ckpt", b"snapshot-v1").unwrap();
        s.append("log", b"abcdef").unwrap();
        s.flush("log").unwrap();
        s.truncate("log", 3).unwrap();
        disk.crash();
        assert_eq!(s.read("ckpt").unwrap().unwrap(), b"snapshot-v1");
        assert_eq!(s.read("log").unwrap().unwrap(), b"abc");
        s.remove("ckpt").unwrap();
        assert!(s.read("ckpt").unwrap().is_none());
    }

    #[test]
    fn file_storage_roundtrip() {
        // Keep test artifacts inside the workspace target dir.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp/file_storage_roundtrip");
        let _ = fs::remove_dir_all(dir);
        let mut s = FileStorage::open(dir).unwrap();
        assert!(s.read("log").unwrap().is_none());
        s.append("log", b"one").unwrap();
        s.append("log", b"two").unwrap();
        s.flush("log").unwrap();
        assert_eq!(s.read("log").unwrap().unwrap(), b"onetwo");
        s.truncate("log", 4).unwrap();
        assert_eq!(s.read("log").unwrap().unwrap(), b"onet");
        s.write_atomic("ckpt", b"snap").unwrap();
        assert_eq!(s.read("ckpt").unwrap().unwrap(), b"snap");
        // Reopen: state persists across instances.
        let mut s2 = FileStorage::open(dir).unwrap();
        assert_eq!(s2.read("log").unwrap().unwrap(), b"onet");
        s2.remove("ckpt").unwrap();
        assert!(s2.read("ckpt").unwrap().is_none());
        let _ = fs::remove_dir_all(dir);
    }
}
