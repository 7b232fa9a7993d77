//! File-backed [`LogBackend`] with group-commit fsync batching.
//!
//! [`FileLog`] frames the same byte format as every other backend; what it
//! adds is a *durability schedule*. Appends land in a user-space
//! group-commit buffer and are pushed to the file in batches — one
//! `write` + one `fsync` per **commit**, however many records the batch
//! holds — so heavy small-object traffic amortises the fsync the same way
//! coding groups amortise encodes. The [`FsyncPolicy`] knob picks the
//! schedule:
//!
//! | policy | commit happens | a crash can lose |
//! |---|---|---|
//! | [`FsyncPolicy::Always`] | on every append | nothing acked |
//! | [`FsyncPolicy::EveryN`]`(n)` | once `n` records are pending | up to `n - 1` records |
//! | [`FsyncPolicy::EveryT`]`(t)` | first event once `t` virtual time has passed since the last commit | records from the last `t` window |
//!
//! "Lose" here means exactly the un-fsynced tail: everything up to the last
//! completed commit replays bit-exact (the crash sweep in
//! `crates/sim/tests/wal_durability.rs` proves it under fault injection).
//! [`LogBackend::sync`] forces a commit at any moment, and the store syncs
//! explicitly where correctness demands it (checkpoints).
//!
//! The physical file layer is the small [`RawLogFile`] trait with two
//! implementations: [`StdFsFile`] over a real `std::fs::File` (prefix drops
//! rewrite through a temp file + atomic rename + directory fsync, so a
//! crash mid-truncation leaves either the old or the new log, never a
//! hybrid), and [`FaultyFile`], an in-memory twin that injects short
//! writes, failed or lying fsyncs, and power loss between write and fsync
//! for the durability test suite.

use super::{LogBackend, WalError};
use rain_sim::SimDuration;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// When a [`FileLog`] forces its group-commit buffer to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Write + fsync on every append: nothing acked is ever at risk, one
    /// fsync per record.
    #[default]
    Always,
    /// Commit once this many records are pending. Bounds loss to `n - 1`
    /// records while dividing the fsync cost by `n`.
    EveryN(usize),
    /// Commit at the first append or clock tick after this much virtual
    /// time has passed since the previous commit.
    EveryT(SimDuration),
}

/// The physical byte store under a [`FileLog`]: an append-only file with
/// explicit durability and whole-content replacement.
pub trait RawLogFile: std::fmt::Debug {
    /// Append `bytes` at the end of the file. Accepted bytes are in the
    /// OS's hands but **not durable** until [`RawLogFile::sync`].
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Make every accepted byte durable (fsync).
    fn sync(&mut self) -> Result<(), WalError>;
    /// The file's current bytes, as the OS sees them.
    fn read_all(&self) -> Result<Vec<u8>, WalError>;
    /// Atomically replace the whole file with `bytes`, durably: after this
    /// returns the new content has been fsynced, and a crash during the
    /// call leaves either the old content or the new, never a mixture.
    fn replace(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Durably drop the first `len` bytes, with the same crash atomicity
    /// as [`RawLogFile::replace`]: old log or new log, never a hybrid.
    /// Single-file backends keep the default — a full rewrite through
    /// `replace`, O(live log); [`SegmentedFile`] overrides it with O(1)
    /// whole-segment deletion.
    fn drop_prefix(&mut self, len: usize) -> Result<(), WalError> {
        let mut bytes = self.read_all()?;
        if len > bytes.len() {
            return Err(WalError::Backend(format!(
                "drop_prefix past end: {len} > {}",
                bytes.len()
            )));
        }
        bytes.drain(..len);
        self.replace(&bytes)
    }
}

fn io_err(what: &str, e: std::io::Error) -> WalError {
    WalError::Backend(format!("{what}: {e}"))
}

/// [`RawLogFile`] over a real filesystem path.
#[derive(Debug)]
pub struct StdFsFile {
    path: PathBuf,
    file: std::fs::File,
}

impl StdFsFile {
    /// Open (creating if absent) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open log file", e))?;
        Ok(StdFsFile { path, file })
    }

    /// Fsync the directory holding the log, so a rename into it is durable.
    fn sync_dir(&self) -> Result<(), WalError> {
        let dir = self.path.parent().unwrap_or_else(|| Path::new("."));
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync log directory", e))
    }
}

impl RawLogFile for StdFsFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("append to log file", e))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync log file", e))
    }

    fn read_all(&self) -> Result<Vec<u8>, WalError> {
        let mut buf = Vec::new();
        std::fs::File::open(&self.path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| io_err("read log file", e))?;
        Ok(buf)
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp log", e))?;
            f.write_all(bytes)
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err("write temp log", e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("rename temp log", e))?;
        self.sync_dir()?;
        // The old handle points at the unlinked inode; reopen the new file
        // so later appends land in it.
        self.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen log file", e))?;
        Ok(())
    }
}

/// What a planned [`FaultyFile`] sync fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncFault {
    /// The fsync returns an error and durability does not advance.
    Fail,
    /// The fsync *claims* success but durability does not advance — the
    /// firmware-lies case. The writer proceeds believing the data safe.
    Lie,
}

/// Planned faults for a [`FaultyFile`]. Each slot is one-shot: it fires on
/// the matching zero-based call index and then disarms.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSpec {
    /// Power loss at write call `at`: the write's bytes are accepted, then
    /// everything past the durable mark except `torn_bytes` survivors
    /// vanishes and the call returns [`WalError::Crashed`].
    pub crash_on_write: Option<(usize, usize)>,
    /// Short write at write call `at`: only the first `kept` bytes are
    /// accepted and the call fails (the writer lives).
    pub short_write: Option<(usize, usize)>,
    /// Fault at sync call `at`.
    pub sync_fault: Option<(usize, SyncFault)>,
    /// Power loss at replace call `at`: replacement is atomic, so either
    /// the new content survives (`true`) or the old does (`false`).
    pub crash_on_replace: Option<(usize, bool)>,
}

#[derive(Debug)]
struct FaultyState {
    /// Bytes the OS has accepted (page cache).
    data: Vec<u8>,
    /// Durable prefix of `data`.
    synced_len: usize,
    writes: usize,
    syncs: usize,
    replaces: usize,
    faults: FaultSpec,
    /// Power was lost: the device is gone. Every subsequent I/O call fails
    /// with [`WalError::Crashed`] — a dead machine takes no writes, so a
    /// writer that swallowed the original error cannot scribble past the
    /// survivor image. Tests reopen the image with
    /// [`FaultyFile::with_contents`].
    crashed: bool,
}

impl FaultyState {
    /// Apply a power loss: only the durable prefix plus `torn` extra bytes
    /// of the unsynced tail survive, and the device stays dead (see
    /// [`FaultyState::crashed`]).
    fn power_loss(&mut self, torn: usize) {
        let survive = (self.synced_len + torn).min(self.data.len());
        self.data.truncate(survive);
        self.synced_len = self.data.len();
        self.faults = FaultSpec::default();
        self.crashed = true;
    }
}

/// Shared inspection handle onto a [`FaultyFile`]: the test keeps it while
/// the store owns the file, and reads the durable image after a crash.
#[derive(Debug, Clone)]
pub struct FaultyHandle(Arc<Mutex<FaultyState>>);

impl FaultyHandle {
    /// Every byte the OS has accepted (durable or not).
    pub fn accepted_bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().data.clone()
    }

    /// The durable prefix — what a power loss right now would leave.
    pub fn durable_bytes(&self) -> Vec<u8> {
        let st = self.0.lock().unwrap();
        st.data[..st.synced_len].to_vec()
    }

    /// Length of the durable prefix.
    pub fn synced_len(&self) -> usize {
        self.0.lock().unwrap().synced_len
    }

    /// Sync calls observed so far.
    pub fn syncs(&self) -> usize {
        self.0.lock().unwrap().syncs
    }

    /// Write calls observed so far.
    pub fn writes(&self) -> usize {
        self.0.lock().unwrap().writes
    }
}

/// In-memory [`RawLogFile`] with filesystem-fault injection: short writes,
/// failed and lying fsyncs, and power loss between write and fsync. The
/// durability suite sweeps these under every [`FsyncPolicy`].
#[derive(Debug)]
pub struct FaultyFile {
    state: Arc<Mutex<FaultyState>>,
}

impl FaultyFile {
    /// An empty file with the given fault plan. Returns the file (for the
    /// [`FileLog`]) and an inspection handle (for the test).
    pub fn new(faults: FaultSpec) -> (FaultyFile, FaultyHandle) {
        Self::with_contents(Vec::new(), faults)
    }

    /// A file already holding `data` (all of it durable) — how a test
    /// "reopens" the survivor image after a crash.
    pub fn with_contents(data: Vec<u8>, faults: FaultSpec) -> (FaultyFile, FaultyHandle) {
        let state = Arc::new(Mutex::new(FaultyState {
            synced_len: data.len(),
            data,
            writes: 0,
            syncs: 0,
            replaces: 0,
            faults,
            crashed: false,
        }));
        (
            FaultyFile {
                state: Arc::clone(&state),
            },
            FaultyHandle(state),
        )
    }
}

impl RawLogFile for FaultyFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        let call = st.writes;
        st.writes += 1;
        if let Some((at, torn)) = st.faults.crash_on_write {
            if at == call {
                st.data.extend_from_slice(bytes);
                st.power_loss(torn);
                return Err(WalError::Crashed);
            }
        }
        if let Some((at, kept)) = st.faults.short_write {
            if at == call {
                let kept = kept.min(bytes.len());
                st.data.extend_from_slice(&bytes[..kept]);
                st.faults.short_write = None;
                return Err(WalError::Backend("injected short write".to_string()));
            }
        }
        st.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        let call = st.syncs;
        st.syncs += 1;
        if let Some((at, fault)) = st.faults.sync_fault {
            if at == call {
                st.faults.sync_fault = None;
                return match fault {
                    SyncFault::Fail => Err(WalError::Backend("injected fsync failure".to_string())),
                    // The lie: report success, advance nothing.
                    SyncFault::Lie => Ok(()),
                };
            }
        }
        st.synced_len = st.data.len();
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>, WalError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        Ok(st.data.clone())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        let call = st.replaces;
        st.replaces += 1;
        if let Some((at, new_survives)) = st.faults.crash_on_replace {
            if at == call {
                if new_survives {
                    st.data = bytes.to_vec();
                }
                let len = st.data.len();
                st.synced_len = len;
                st.faults = FaultSpec::default();
                st.crashed = true;
                return Err(WalError::Crashed);
            }
        }
        st.data = bytes.to_vec();
        st.synced_len = st.data.len();
        Ok(())
    }
}

/// The directory abstraction under a [`SegmentedFile`]: named flat files
/// with explicit per-file durability and one atomic-replace primitive (for
/// the manifest). [`StdSegFs`] is the real-directory implementation;
/// [`FaultySegFs`] is the in-memory multi-file fault twin the durability
/// suite drives power loss through.
pub trait SegmentFs: std::fmt::Debug {
    /// Append `bytes` to `name`, creating the file if absent. Accepted
    /// bytes are in the OS's hands but not durable until
    /// [`SegmentFs::sync`].
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
    /// Fsync one file's accepted bytes.
    fn sync(&mut self, name: &str) -> Result<(), WalError>;
    /// The file's current bytes (empty if absent).
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError>;
    /// The file's current length without reading it (empty if absent).
    fn len(&self, name: &str) -> Result<usize, WalError>;
    /// Unlink one file (no-op if absent).
    fn remove(&mut self, name: &str) -> Result<(), WalError>;
    /// Every file name in the directory.
    fn list(&self) -> Result<Vec<String>, WalError>;
    /// Durably and atomically replace `name` with `bytes` (temp + fsync +
    /// rename + directory fsync on a real filesystem): after this returns
    /// the new content is durable, and a crash during the call leaves the
    /// old content or the new, never a mixture.
    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
}

/// [`SegmentFs`] over a real directory.
#[derive(Debug)]
pub struct StdSegFs {
    dir: PathBuf,
}

impl StdSegFs {
    /// Open (creating if absent) the segment directory at `dir`.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create segment directory", e))?;
        Ok(StdSegFs { dir })
    }

    fn sync_dir(&self) -> Result<(), WalError> {
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync segment directory", e))
    }
}

impl SegmentFs for StdSegFs {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.dir.join(name);
        let created = !path.exists();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        f.write_all(bytes)
            .map_err(|e| io_err("append to segment", e))?;
        if created {
            // The new segment's directory entry must be durable before any
            // later write depends on it.
            self.sync_dir()?;
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.dir.join(name))
            .and_then(|f| f.sync_data())
            .map_err(|e| io_err("fsync segment", e))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        match std::fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err("read segment", e)),
        }
    }

    fn len(&self, name: &str) -> Result<usize, WalError> {
        match std::fs::metadata(self.dir.join(name)) {
            Ok(meta) => Ok(meta.len() as usize),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(io_err("stat segment", e)),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        match std::fs::remove_file(self.dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove segment", e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let mut names = Vec::new();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| io_err("list segment directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list segment directory", e))?;
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut f =
                std::fs::File::create(&tmp).map_err(|e| io_err("create temp manifest", e))?;
            f.write_all(bytes)
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err("write temp manifest", e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename temp manifest", e))?;
        self.sync_dir()
    }
}

#[derive(Debug, Default, Clone)]
struct SegFileState {
    /// Bytes the OS has accepted (page cache).
    data: Vec<u8>,
    /// Durable prefix of `data`.
    synced_len: usize,
}

#[derive(Debug)]
struct FaultySegState {
    files: std::collections::BTreeMap<String, SegFileState>,
    writes: usize,
    syncs: usize,
    replaces: usize,
    faults: FaultSpec,
    /// Power was lost: the device is gone, every later I/O fails with
    /// [`WalError::Crashed`]. Tests reopen the durable image with
    /// [`FaultySegFs::with_files`].
    crashed: bool,
}

impl FaultySegState {
    /// Power loss across the whole directory: every file keeps only its
    /// durable prefix, except the file being written keeps `torn` extra
    /// bytes of its unsynced tail. The device stays dead.
    fn power_loss(&mut self, writing: &str, torn: usize) {
        for (name, f) in self.files.iter_mut() {
            let survive = if name == writing {
                (f.synced_len + torn).min(f.data.len())
            } else {
                f.synced_len
            };
            f.data.truncate(survive);
            f.synced_len = f.data.len();
        }
        self.faults = FaultSpec::default();
        self.crashed = true;
    }
}

/// Shared inspection handle onto a [`FaultySegFs`] — the multi-file twin
/// of [`FaultyHandle`].
#[derive(Debug, Clone)]
pub struct FaultySegHandle(Arc<Mutex<FaultySegState>>);

impl FaultySegHandle {
    /// Every file's accepted bytes (durable or not).
    pub fn accepted_files(&self) -> std::collections::BTreeMap<String, Vec<u8>> {
        let st = self.0.lock().unwrap();
        st.files
            .iter()
            .map(|(n, f)| (n.clone(), f.data.clone()))
            .collect()
    }

    /// Every file's durable prefix — what a power loss right now would
    /// leave on the device.
    pub fn durable_files(&self) -> std::collections::BTreeMap<String, Vec<u8>> {
        let st = self.0.lock().unwrap();
        st.files
            .iter()
            .map(|(n, f)| (n.clone(), f.data[..f.synced_len].to_vec()))
            .collect()
    }

    /// Write calls observed so far (across every file).
    pub fn writes(&self) -> usize {
        self.0.lock().unwrap().writes
    }

    /// Sync calls observed so far (rotation seals included).
    pub fn syncs(&self) -> usize {
        self.0.lock().unwrap().syncs
    }
}

/// In-memory [`SegmentFs`] with the same fault plan as [`FaultyFile`],
/// applied across many files: write/sync/replace call indices count
/// globally, and a power loss clips **every** file to its durable prefix
/// (the file mid-write keeps its torn bytes). This is how the durability
/// suite sweeps power loss at and across segment rotation points.
#[derive(Debug)]
pub struct FaultySegFs {
    state: Arc<Mutex<FaultySegState>>,
}

impl FaultySegFs {
    /// An empty directory with the given fault plan.
    pub fn new(faults: FaultSpec) -> (FaultySegFs, FaultySegHandle) {
        Self::with_files(std::collections::BTreeMap::new(), faults)
    }

    /// A directory already holding `files` (all bytes durable) — how a
    /// test "remounts" the survivor image after a power loss.
    pub fn with_files(
        files: std::collections::BTreeMap<String, Vec<u8>>,
        faults: FaultSpec,
    ) -> (FaultySegFs, FaultySegHandle) {
        let state = Arc::new(Mutex::new(FaultySegState {
            files: files
                .into_iter()
                .map(|(n, data)| {
                    (
                        n,
                        SegFileState {
                            synced_len: data.len(),
                            data,
                        },
                    )
                })
                .collect(),
            writes: 0,
            syncs: 0,
            replaces: 0,
            faults,
            crashed: false,
        }));
        (
            FaultySegFs {
                state: Arc::clone(&state),
            },
            FaultySegHandle(state),
        )
    }
}

impl SegmentFs for FaultySegFs {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        let call = st.writes;
        st.writes += 1;
        if let Some((at, torn)) = st.faults.crash_on_write {
            if at == call {
                st.files
                    .entry(name.to_string())
                    .or_default()
                    .data
                    .extend_from_slice(bytes);
                st.power_loss(name, torn);
                return Err(WalError::Crashed);
            }
        }
        if let Some((at, kept)) = st.faults.short_write {
            if at == call {
                let kept = kept.min(bytes.len());
                st.files
                    .entry(name.to_string())
                    .or_default()
                    .data
                    .extend_from_slice(&bytes[..kept]);
                st.faults.short_write = None;
                return Err(WalError::Backend("injected short write".to_string()));
            }
        }
        st.files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        let call = st.syncs;
        st.syncs += 1;
        if let Some((at, fault)) = st.faults.sync_fault {
            if at == call {
                st.faults.sync_fault = None;
                return match fault {
                    SyncFault::Fail => Err(WalError::Backend("injected fsync failure".to_string())),
                    // The lie: report success, advance nothing.
                    SyncFault::Lie => Ok(()),
                };
            }
        }
        if let Some(f) = st.files.get_mut(name) {
            f.synced_len = f.data.len();
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        Ok(st
            .files
            .get(name)
            .map(|f| f.data.clone())
            .unwrap_or_default())
    }

    fn len(&self, name: &str) -> Result<usize, WalError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        Ok(st.files.get(name).map(|f| f.data.len()).unwrap_or(0))
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        st.files.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        Ok(st.files.keys().cloned().collect())
    }

    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalError::Crashed);
        }
        let call = st.replaces;
        st.replaces += 1;
        if let Some((at, new_survives)) = st.faults.crash_on_replace {
            if at == call {
                if new_survives {
                    let f = st.files.entry(name.to_string()).or_default();
                    f.data = bytes.to_vec();
                    f.synced_len = f.data.len();
                }
                st.power_loss("", 0);
                return Err(WalError::Crashed);
            }
        }
        let f = st.files.entry(name.to_string()).or_default();
        f.data = bytes.to_vec();
        f.synced_len = f.data.len();
        Ok(())
    }
}

/// The segment manifest's file name inside the log directory.
const MANIFEST: &str = "wal.manifest";

/// Parse `wal.NNNNNN.seg` into its index.
fn parse_segment_name(name: &str) -> Option<u64> {
    let idx = name.strip_prefix("wal.")?.strip_suffix(".seg")?;
    if idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    idx.parse().ok()
}

fn segment_name(index: u64) -> String {
    format!("wal.{index:06}.seg")
}

/// A segmented [`RawLogFile`]: the log is a run of fixed-size sealed
/// segment files (`wal.000017.seg`) plus one active tail segment, bound
/// together by a checksummed manifest naming the head segment and how many
/// of its leading bytes are logically dead.
///
/// * **Appends** go to the active segment only. Once it reaches
///   `segment_bytes` it is sealed — fsynced before any byte lands in the
///   next segment — so only the final segment can ever hold a torn or
///   unsynced tail; recovery scans segments in index order and tolerates
///   exactly that.
/// * **[`RawLogFile::drop_prefix`]** (checkpoint truncation) deletes the
///   segment files wholly covered by the dropped prefix and records the
///   remainder as the head segment's dead-byte count in the manifest —
///   O(segments dropped), never a rewrite of the live log.
/// * **Crash atomicity** comes from the manifest: it is replaced durably
///   and atomically *before* stale segment files are unlinked, and
///   [`SegmentedFile::open`] deletes any segment file the manifest's
///   contiguous run does not reach (leftovers of an interrupted
///   truncation or whole-log replacement). A crash anywhere leaves the old
///   log or the new log, never a hybrid.
#[derive(Debug)]
pub struct SegmentedFile {
    fs: Box<dyn SegmentFs>,
    /// Rotation threshold: the active segment seals once it holds at least
    /// this many bytes.
    segment_bytes: usize,
    /// Index of the first live segment.
    head_index: u64,
    /// Per-segment byte lengths, `head_index` first, contiguous.
    seg_lens: Vec<usize>,
    /// Logically dead leading bytes of the head segment.
    head_trim: usize,
}

impl SegmentedFile {
    /// Open the segmented log stored in `fs`, adopting the manifest's
    /// contiguous segment run and deleting any file outside it.
    pub fn open(fs: Box<dyn SegmentFs>, segment_bytes: usize) -> Result<Self, WalError> {
        let mut fs = fs;
        let manifest = fs.read(MANIFEST)?;
        let (head_index, head_trim) = if manifest.is_empty() {
            // A fresh directory: persist the genesis manifest before any
            // segment exists, so a reopen never has to guess.
            write_manifest(fs.as_mut(), 0, 0)?;
            (0, 0)
        } else {
            decode_manifest(&manifest).ok_or_else(|| {
                WalError::Backend("segment manifest corrupt (not a torn-tail case)".to_string())
            })?
        };
        let names = fs.list()?;
        let present: std::collections::BTreeSet<u64> =
            names.iter().filter_map(|n| parse_segment_name(n)).collect();
        let mut seg_lens = Vec::new();
        let mut idx = head_index;
        while present.contains(&idx) {
            seg_lens.push(fs.len(&segment_name(idx))?);
            idx += 1;
        }
        // Everything the contiguous run does not reach is a leftover of an
        // interrupted truncation or replacement: dead by construction,
        // because the manifest only moves *after* its target is durable.
        for stale in present.range(..head_index).chain(present.range(idx..)) {
            fs.remove(&segment_name(*stale))?;
        }
        let head_trim = if seg_lens.is_empty() { 0 } else { head_trim };
        Ok(SegmentedFile {
            fs,
            segment_bytes: segment_bytes.max(1),
            head_index,
            seg_lens,
            head_trim,
        })
    }

    /// The live segment count (tests and the bench read this to show a
    /// truncation deleted files instead of rewriting them).
    pub fn segment_count(&self) -> usize {
        self.seg_lens.len().max(1)
    }

    fn active_index(&self) -> u64 {
        self.head_index + self.seg_lens.len().saturating_sub(1) as u64
    }
}

fn write_manifest(fs: &mut dyn SegmentFs, head: u64, trim: usize) -> Result<(), WalError> {
    let mut body = Vec::with_capacity(20);
    body.extend_from_slice(&head.to_le_bytes());
    body.extend_from_slice(&(trim as u64).to_le_bytes());
    let crc = super::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    fs.replace_atomic(MANIFEST, &body)
}

fn decode_manifest(bytes: &[u8]) -> Option<(u64, usize)> {
    if bytes.len() != 20 {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[16..20].try_into().ok()?);
    if super::crc32(&bytes[..16]) != crc {
        return None;
    }
    let head = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let trim = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    Some((head, trim))
}

impl RawLogFile for SegmentedFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if self.seg_lens.is_empty() {
            self.seg_lens.push(0);
        }
        // Seal the active segment *before* the write that would overflow
        // it: the seal fsync runs before any byte lands in the successor,
        // so a power loss can never tear a non-final segment.
        if *self.seg_lens.last().unwrap() >= self.segment_bytes {
            self.fs.sync(&segment_name(self.active_index()))?;
            self.seg_lens.push(0);
        }
        let active = segment_name(self.active_index());
        self.fs.append(&active, bytes)?;
        *self.seg_lens.last_mut().unwrap() += bytes.len();
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if self.seg_lens.is_empty() {
            return Ok(());
        }
        // Sealed segments were fsynced at rotation; only the active tail
        // can hold unsynced bytes.
        self.fs.sync(&segment_name(self.active_index()))
    }

    fn read_all(&self) -> Result<Vec<u8>, WalError> {
        let mut buf = Vec::new();
        for (i, _) in self.seg_lens.iter().enumerate() {
            let bytes = self.fs.read(&segment_name(self.head_index + i as u64))?;
            if i == 0 {
                buf.extend_from_slice(bytes.get(self.head_trim..).unwrap_or(&[]));
            } else {
                buf.extend_from_slice(&bytes);
            }
        }
        Ok(buf)
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        // Write the replacement as a brand-new segment past a deliberate
        // index gap, make it durable, then flip the manifest. A crash
        // before the flip leaves the new segment unreachable (the gap
        // breaks contiguity, so `open` deletes it); a crash after the flip
        // leaves the old segments unreachable (below the new head).
        let new_index = self.active_index() + 2;
        let name = segment_name(new_index);
        self.fs.remove(&name)?;
        self.fs.append(&name, bytes)?;
        self.fs.sync(&name)?;
        write_manifest(self.fs.as_mut(), new_index, 0)?;
        for i in 0..self.seg_lens.len() {
            self.fs.remove(&segment_name(self.head_index + i as u64))?;
        }
        self.head_index = new_index;
        self.seg_lens = vec![bytes.len()];
        self.head_trim = 0;
        Ok(())
    }

    fn drop_prefix(&mut self, len: usize) -> Result<(), WalError> {
        // Count how many whole segments the dropped prefix covers; the
        // remainder becomes the new head segment's trim. The active (last)
        // segment is never deleted — a drop consuming it entirely leaves
        // it fully trimmed, so appends keep flowing into it.
        let mut remaining = len;
        let mut drop_count = 0usize;
        let mut trim = self.head_trim;
        while drop_count + 1 < self.seg_lens.len() && remaining >= self.seg_lens[drop_count] - trim
        {
            remaining -= self.seg_lens[drop_count] - trim;
            trim = 0;
            drop_count += 1;
        }
        let new_trim = trim + remaining;
        if drop_count == 0 && new_trim == self.head_trim {
            return Ok(());
        }
        if self.seg_lens.get(drop_count).is_none_or(|&l| new_trim > l) {
            return Err(WalError::Backend(format!(
                "drop_prefix past end: {len} bytes from trim {}",
                self.head_trim
            )));
        }
        let new_head = self.head_index + drop_count as u64;
        // Manifest first, unlinks second: a crash in between leaves stale
        // low-index files that the next `open` deletes.
        write_manifest(self.fs.as_mut(), new_head, new_trim)?;
        for i in 0..drop_count {
            self.fs.remove(&segment_name(self.head_index + i as u64))?;
        }
        self.head_index = new_head;
        self.seg_lens.drain(..drop_count);
        self.head_trim = new_trim;
        Ok(())
    }
}

/// File-backed [`LogBackend`] with group-commit batching and an
/// [`FsyncPolicy`] durability schedule. See the module docs.
#[derive(Debug)]
pub struct FileLog {
    raw: Box<dyn RawLogFile>,
    policy: FsyncPolicy,
    /// Group-commit buffer: frames accepted but not yet written to the OS.
    /// A *process* crash loses these; a committed batch survives it.
    pending: Vec<u8>,
    /// Length of each pending frame, so a truncate can pop whole frames.
    pending_frames: Vec<usize>,
    /// Logical length of the raw file: bytes successfully handed to the OS
    /// through this handle plus whatever the file held at open.
    raw_len: usize,
    /// Raw bytes written but whose fsync failed — accepted, not durable.
    unsynced_raw: usize,
    /// A failed raw write may have left partial garbage past `raw_len`;
    /// the next mutation rewrites the file to its known-good prefix first.
    raw_dirty: bool,
    /// Virtual now / last commit instant, driving [`FsyncPolicy::EveryT`].
    now_us: u64,
    last_commit_us: u64,
}

impl FileLog {
    /// Open (creating if absent) a file-backed log at `path`.
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Self, WalError> {
        Self::with_raw(Box::new(StdFsFile::open(path)?), policy)
    }

    /// Open (creating if absent) a **segmented** log in the directory
    /// `dir`: sealed `wal.NNNNNN.seg` segments of roughly `segment_bytes`
    /// each, so checkpoint truncation deletes whole files in O(1) instead
    /// of rewriting the live log. See [`SegmentedFile`].
    pub fn open_segmented(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        segment_bytes: usize,
    ) -> Result<Self, WalError> {
        let fs = StdSegFs::new(dir)?;
        Self::with_raw(
            Box::new(SegmentedFile::open(Box::new(fs), segment_bytes)?),
            policy,
        )
    }

    /// A log over any [`RawLogFile`] (tests inject a [`FaultyFile`] here).
    pub fn with_raw(raw: Box<dyn RawLogFile>, policy: FsyncPolicy) -> Result<Self, WalError> {
        let raw_len = raw.read_all()?.len();
        Ok(FileLog {
            raw,
            policy,
            pending: Vec::new(),
            pending_frames: Vec::new(),
            raw_len,
            unsynced_raw: 0,
            raw_dirty: false,
            now_us: 0,
            last_commit_us: 0,
        })
    }

    /// The durability schedule this log runs.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Rewrite the file to its known-good prefix if a failed write left
    /// partial garbage past `raw_len` — without this, the next append
    /// would land *behind* the garbage and corrupt the log.
    fn ensure_clean(&mut self) -> Result<(), WalError> {
        if !self.raw_dirty {
            return Ok(());
        }
        let mut good = self.raw.read_all()?;
        good.truncate(self.raw_len);
        self.raw.replace(&good)?;
        self.unsynced_raw = 0;
        self.raw_dirty = false;
        Ok(())
    }

    /// One group commit: push the whole pending buffer with one write and
    /// one fsync. On a write failure the buffer is kept (the frames were
    /// accepted) and the file is marked dirty; on an fsync failure the
    /// bytes count as accepted-but-not-durable (`unsynced_raw`).
    fn commit(&mut self) -> Result<(), WalError> {
        self.last_commit_us = self.now_us;
        if self.pending.is_empty() && self.unsynced_raw == 0 {
            return Ok(());
        }
        self.ensure_clean()?;
        if !self.pending.is_empty() {
            match self.raw.write_all(&self.pending) {
                Ok(()) => {
                    self.raw_len += self.pending.len();
                    self.unsynced_raw += self.pending.len();
                    self.pending.clear();
                    self.pending_frames.clear();
                }
                Err(WalError::Crashed) => return Err(WalError::Crashed),
                Err(e) => {
                    self.raw_dirty = true;
                    return Err(e);
                }
            }
        }
        self.raw.sync()?;
        self.unsynced_raw = 0;
        Ok(())
    }

    /// Whether the policy wants a commit right now.
    fn due(&self) -> bool {
        match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.pending_frames.len() >= n.max(1),
            FsyncPolicy::EveryT(t) => self.now_us.saturating_sub(self.last_commit_us) >= t.0,
        }
    }
}

impl LogBackend for FileLog {
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        self.pending.extend_from_slice(frame);
        self.pending_frames.push(frame.len());
        if self.due() {
            self.commit()?;
        }
        Ok(())
    }

    fn contents(&self) -> Result<Vec<u8>, WalError> {
        // The writer's logical view: the known-good raw prefix plus the
        // group-commit buffer. (After a power loss the raw file is shorter
        // than `raw_len` and the truncate is a no-op — the survivor image
        // is the truth.)
        let mut bytes = self.raw.read_all()?;
        bytes.truncate(self.raw_len);
        bytes.extend_from_slice(&self.pending);
        Ok(bytes)
    }

    fn truncate(&mut self, len: usize) -> Result<(), WalError> {
        // Cut pending frames first (newest bytes), then the raw file.
        while self.raw_len + self.pending.len() > len {
            match self.pending_frames.last() {
                Some(&f) if self.pending.len() >= f => {
                    self.pending.truncate(self.pending.len() - f);
                    self.pending_frames.pop();
                }
                _ => break,
            }
        }
        if self.raw_len + self.pending.len() > len {
            // The cut lands inside the raw file: rewrite it atomically.
            self.pending.clear();
            self.pending_frames.clear();
            let mut bytes = self.raw.read_all()?;
            bytes.truncate(self.raw_len.min(len));
            self.raw.replace(&bytes)?;
            self.raw_len = bytes.len();
            self.unsynced_raw = 0;
            self.raw_dirty = false;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.commit()
    }

    fn pending_bytes(&self) -> usize {
        self.pending.len() + self.unsynced_raw
    }

    fn advance_clock(&mut self, by: SimDuration) -> Result<(), WalError> {
        self.now_us = self.now_us.saturating_add(by.0);
        if let FsyncPolicy::EveryT(_) = self.policy {
            if self.due() && !self.pending.is_empty() {
                self.commit()?;
            }
        }
        Ok(())
    }

    fn drop_prefix(&mut self, len: usize) -> Result<(), WalError> {
        // Make the tail durable first, then let the raw layer drop the
        // prefix with its own crash atomicity: a crash leaves either the
        // old log (prefix intact — replay just does more work) or the new
        // one. Single-file backends rewrite through a temp file;
        // [`SegmentedFile`] deletes whole sealed segments in O(1).
        self.commit()?;
        self.ensure_clean()?;
        if len > self.raw_len {
            return Err(WalError::Backend(format!(
                "drop_prefix past end: {len} > {}",
                self.raw_len
            )));
        }
        self.raw.drop_prefix(len)?;
        self.raw_len -= len;
        Ok(())
    }

    fn on_writer_crash(&mut self) {
        // Process death: the user-space group-commit buffer dies with the
        // process; OS-accepted bytes survive.
        self.pending.clear();
        self.pending_frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Replay, WalRecord, WriteAheadLog};

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let pid = std::process::id();
        std::env::temp_dir().join(format!("rain-wal-{pid}-{tag}-{n}.wal"))
    }

    fn records() -> Vec<WalRecord> {
        (0..6)
            .map(|i| WalRecord::StoreGrouped {
                object: format!("obj{i}"),
                group: 0,
                bytes: vec![i as u8; 16 + i],
            })
            .collect()
    }

    #[test]
    fn a_real_file_log_survives_reopen() {
        let path = tmp_path("reopen");
        let mut wal =
            WriteAheadLog::new(Box::new(FileLog::open(&path, FsyncPolicy::Always).unwrap()));
        for r in records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let wal = WriteAheadLog::new(Box::new(FileLog::open(&path, FsyncPolicy::Always).unwrap()));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records());
        assert!(!replay.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_real_file_drop_prefix_survives_reopen() {
        let path = tmp_path("dropfx");
        let mut wal =
            WriteAheadLog::new(Box::new(FileLog::open(&path, FsyncPolicy::Always).unwrap()));
        let mut boundaries = vec![0usize];
        for r in records() {
            wal.append(&r).unwrap();
            boundaries.push(wal.bytes_appended() as usize);
        }
        wal.drop_prefix(boundaries[3], 3).unwrap();
        drop(wal);
        let wal = WriteAheadLog::new(Box::new(FileLog::open(&path, FsyncPolicy::Always).unwrap()));
        assert_eq!(wal.replay().unwrap().records, records()[3..].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_n_batches_writes_and_syncs() {
        let (file, handle) = FaultyFile::new(FaultSpec::default());
        let mut log = FileLog::with_raw(Box::new(file), FsyncPolicy::EveryN(3)).unwrap();
        log.append(b"aaaa").unwrap();
        log.append(b"bbbb").unwrap();
        assert_eq!(log.pending_bytes(), 8, "two records pending, no commit");
        assert_eq!(handle.writes(), 0);
        log.append(b"cccc").unwrap();
        assert_eq!(log.pending_bytes(), 0, "third record triggers the commit");
        assert_eq!(handle.writes(), 1, "one batched write for three records");
        assert_eq!(handle.syncs(), 1, "one fsync for three records");
        assert_eq!(handle.durable_bytes(), b"aaaabbbbcccc");
        // contents() always shows the logical log, durable or pending.
        log.append(b"dddd").unwrap();
        assert_eq!(log.contents().unwrap(), b"aaaabbbbccccdddd");
        assert_eq!(handle.durable_bytes(), b"aaaabbbbcccc");
    }

    #[test]
    fn every_t_commits_on_the_clock() {
        let (file, handle) = FaultyFile::new(FaultSpec::default());
        let mut log = FileLog::with_raw(
            Box::new(file),
            FsyncPolicy::EveryT(SimDuration::from_millis(10)),
        )
        .unwrap();
        log.append(b"aaaa").unwrap();
        log.advance_clock(SimDuration::from_millis(4)).unwrap();
        assert_eq!(log.pending_bytes(), 4, "interval not yet elapsed");
        log.advance_clock(SimDuration::from_millis(6)).unwrap();
        assert_eq!(log.pending_bytes(), 0, "interval elapsed: committed");
        assert_eq!(handle.durable_bytes(), b"aaaa");
        // The next append within a fresh window stays pending again.
        log.append(b"bbbb").unwrap();
        assert_eq!(log.pending_bytes(), 4);
        // ...and an append after the window commits the batch inline.
        log.advance_clock(SimDuration::from_millis(3)).unwrap();
        log.append(b"cccc").unwrap();
        log.advance_clock(SimDuration::from_millis(9)).unwrap();
        assert_eq!(log.pending_bytes(), 0);
        assert_eq!(handle.durable_bytes(), b"aaaabbbbcccc");
    }

    #[test]
    fn sync_forces_the_pending_batch_down() {
        let (file, handle) = FaultyFile::new(FaultSpec::default());
        let mut log = FileLog::with_raw(Box::new(file), FsyncPolicy::EveryN(100)).unwrap();
        log.append(b"aaaa").unwrap();
        assert_eq!(handle.synced_len(), 0);
        log.sync().unwrap();
        assert_eq!(handle.durable_bytes(), b"aaaa");
        assert_eq!(log.pending_bytes(), 0);
    }

    #[test]
    fn a_short_write_is_rolled_back_by_the_wal_handle() {
        let (file, _handle) = FaultyFile::new(FaultSpec {
            short_write: Some((1, 5)),
            ..FaultSpec::default()
        });
        let mut wal = WriteAheadLog::new(Box::new(
            FileLog::with_raw(Box::new(file), FsyncPolicy::Always).unwrap(),
        ));
        let recs = records();
        wal.append(&recs[0]).unwrap();
        assert!(matches!(wal.append(&recs[1]), Err(WalError::Backend(_))));
        // The handle rolled the partial frame back; the log keeps working.
        wal.append(&recs[2]).unwrap();
        let replay = wal.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, vec![recs[0].clone(), recs[2].clone()]);
    }

    #[test]
    fn a_failed_fsync_surfaces_and_the_record_is_rolled_back() {
        let (file, handle) = FaultyFile::new(FaultSpec {
            sync_fault: Some((1, SyncFault::Fail)),
            ..FaultSpec::default()
        });
        let mut wal = WriteAheadLog::new(Box::new(
            FileLog::with_raw(Box::new(file), FsyncPolicy::Always).unwrap(),
        ));
        let recs = records();
        wal.append(&recs[0]).unwrap();
        assert!(matches!(wal.append(&recs[1]), Err(WalError::Backend(_))));
        wal.append(&recs[2]).unwrap();
        let replay = wal.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, vec![recs[0].clone(), recs[2].clone()]);
        // Everything surviving in the log is durable again.
        assert_eq!(handle.durable_bytes(), wal.contents().unwrap());
    }

    #[test]
    fn a_lying_fsync_leaves_the_record_vulnerable_to_power_loss() {
        let (file, handle) = FaultyFile::new(FaultSpec {
            sync_fault: Some((1, SyncFault::Lie)),
            ..FaultSpec::default()
        });
        let mut wal = WriteAheadLog::new(Box::new(
            FileLog::with_raw(Box::new(file), FsyncPolicy::Always).unwrap(),
        ));
        let recs = records();
        wal.append(&recs[0]).unwrap();
        wal.append(&recs[1]).unwrap(); // "fsynced" — a lie
        let durable = handle.durable_bytes();
        // Power loss now: only the honestly-synced prefix survives, and it
        // replays cleanly to the first record.
        let (survivor, _h) = FaultyFile::with_contents(durable, FaultSpec::default());
        let wal = WriteAheadLog::new(Box::new(
            FileLog::with_raw(Box::new(survivor), FsyncPolicy::Always).unwrap(),
        ));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, vec![recs[0].clone()]);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn power_loss_between_write_and_fsync_keeps_the_durable_prefix_bit_exact() {
        // Crash at the second raw write with 7 torn bytes surviving past
        // the durable mark: replay gets record 0 intact plus a torn tail.
        let (file, handle) = FaultyFile::new(FaultSpec {
            crash_on_write: Some((1, 7)),
            ..FaultSpec::default()
        });
        let mut wal = WriteAheadLog::new(Box::new(
            FileLog::with_raw(Box::new(file), FsyncPolicy::Always).unwrap(),
        ));
        let recs = records();
        wal.append(&recs[0]).unwrap();
        assert_eq!(wal.append(&recs[1]), Err(WalError::Crashed));
        let (survivor, _h) =
            FaultyFile::with_contents(handle.accepted_bytes(), FaultSpec::default());
        let wal = WriteAheadLog::new(Box::new(
            FileLog::with_raw(Box::new(survivor), FsyncPolicy::Always).unwrap(),
        ));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, vec![recs[0].clone()]);
        assert!(replay.torn_tail, "7 orphan bytes form a torn tail");
    }

    #[test]
    fn crash_during_drop_prefix_keeps_old_or_new_log_never_a_hybrid() {
        for new_survives in [false, true] {
            let (file, handle) = FaultyFile::new(FaultSpec {
                crash_on_replace: Some((0, new_survives)),
                ..FaultSpec::default()
            });
            let mut wal = WriteAheadLog::new(Box::new(
                FileLog::with_raw(Box::new(file), FsyncPolicy::Always).unwrap(),
            ));
            let mut boundaries = vec![0usize];
            for r in records() {
                wal.append(&r).unwrap();
                boundaries.push(wal.bytes_appended() as usize);
            }
            assert_eq!(wal.drop_prefix(boundaries[2], 2), Err(WalError::Crashed));
            let (survivor, _h) =
                FaultyFile::with_contents(handle.accepted_bytes(), FaultSpec::default());
            let wal = WriteAheadLog::new(Box::new(
                FileLog::with_raw(Box::new(survivor), FsyncPolicy::Always).unwrap(),
            ));
            let replay = wal.replay().unwrap();
            let expect = if new_survives {
                records()[2..].to_vec()
            } else {
                records()
            };
            assert_eq!(replay.records, expect, "new_survives={new_survives}");
            assert!(!replay.torn_tail);
        }
    }

    /// A segmented log over the in-memory fault fs, plus its handle.
    fn seg_log(
        policy: FsyncPolicy,
        segment_bytes: usize,
        faults: FaultSpec,
    ) -> (FileLog, FaultySegHandle) {
        let (fs, handle) = FaultySegFs::new(faults);
        let seg = SegmentedFile::open(Box::new(fs), segment_bytes).unwrap();
        (FileLog::with_raw(Box::new(seg), policy).unwrap(), handle)
    }

    /// Reopen a segmented log from a survivor file image.
    fn seg_reopen(
        files: std::collections::BTreeMap<String, Vec<u8>>,
        policy: FsyncPolicy,
        segment_bytes: usize,
    ) -> FileLog {
        let (fs, _h) = FaultySegFs::with_files(files, FaultSpec::default());
        let seg = SegmentedFile::open(Box::new(fs), segment_bytes).unwrap();
        FileLog::with_raw(Box::new(seg), policy).unwrap()
    }

    #[test]
    fn a_segmented_log_rotates_and_replays_across_reopen() {
        let (log, handle) = seg_log(FsyncPolicy::Always, 64, FaultSpec::default());
        let mut wal = WriteAheadLog::new(Box::new(log));
        for r in records() {
            wal.append(&r).unwrap();
        }
        let seg_files: Vec<String> = handle
            .accepted_files()
            .keys()
            .filter(|n| parse_segment_name(n).is_some())
            .cloned()
            .collect();
        assert!(
            seg_files.len() >= 2,
            "the workload must cross at least one rotation: {seg_files:?}"
        );
        assert!(seg_files.contains(&"wal.000000.seg".to_string()));
        let wal = WriteAheadLog::new(Box::new(seg_reopen(
            handle.accepted_files(),
            FsyncPolicy::Always,
            64,
        )));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records());
        assert!(!replay.torn_tail);
    }

    #[test]
    fn segmented_drop_prefix_deletes_files_instead_of_rewriting() {
        let (log, handle) = seg_log(FsyncPolicy::Always, 48, FaultSpec::default());
        let mut wal = WriteAheadLog::new(Box::new(log));
        let mut boundaries = vec![0usize];
        for r in records() {
            wal.append(&r).unwrap();
            boundaries.push(wal.bytes_appended() as usize);
        }
        let writes_before = handle.writes();
        let files_before = handle.accepted_files().len();
        wal.drop_prefix(boundaries[4], 4).unwrap();
        // O(1): the truncation wrote no segment bytes — it only flipped the
        // manifest and unlinked covered segments.
        assert_eq!(
            handle.writes(),
            writes_before,
            "drop_prefix must not rewrite segment data"
        );
        assert!(
            handle.accepted_files().len() < files_before,
            "covered segments are unlinked"
        );
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records()[4..].to_vec());
        // The truncated log survives a reopen bit-exact.
        let wal = WriteAheadLog::new(Box::new(seg_reopen(
            handle.accepted_files(),
            FsyncPolicy::Always,
            48,
        )));
        assert_eq!(wal.replay().unwrap().records, records()[4..].to_vec());
    }

    #[test]
    fn power_loss_tears_only_the_final_segment() {
        // Relaxed policy, tiny segments: several rotations happen, then a
        // power loss mid-write. Sealed segments were fsynced at rotation,
        // so the only damage allowed is a torn tail in the last segment.
        for crash_write in 1..8 {
            let (log, handle) = seg_log(
                FsyncPolicy::EveryN(2),
                40,
                FaultSpec {
                    crash_on_write: Some((crash_write, 9)),
                    ..FaultSpec::default()
                },
            );
            let mut wal = WriteAheadLog::new(Box::new(log));
            let mut crashed = false;
            for r in records().iter().cycle().take(24) {
                match wal.append(r) {
                    Ok(()) => {}
                    Err(WalError::Crashed) => {
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            if !crashed {
                let _ = wal.sync();
            }
            let survivor = seg_reopen(handle.durable_files(), FsyncPolicy::EveryN(2), 40);
            let replay = WriteAheadLog::new(Box::new(survivor))
                .replay()
                .unwrap_or_else(|e| panic!("crash at write {crash_write}: mid-log damage: {e}"));
            // No assertion on the exact count here (the durability suite
            // owns the oracle); what matters is a clean scan — corruption
            // would mean a torn *middle* segment.
            assert!(replay.bytes_replayed > 0 || replay.records.is_empty());
        }
    }

    #[test]
    fn crash_during_segmented_drop_prefix_keeps_old_or_new_never_hybrid() {
        for new_survives in [false, true] {
            let (log, handle) = seg_log(
                FsyncPolicy::Always,
                48,
                FaultSpec {
                    crash_on_replace: Some((1, new_survives)),
                    ..FaultSpec::default()
                },
            );
            let mut wal = WriteAheadLog::new(Box::new(log));
            let mut boundaries = vec![0usize];
            for r in records() {
                wal.append(&r).unwrap();
                boundaries.push(wal.bytes_appended() as usize);
            }
            // Replace call 0 was the genesis manifest; call 1 is the
            // truncation's manifest flip.
            assert_eq!(wal.drop_prefix(boundaries[3], 3), Err(WalError::Crashed));
            let survivor = seg_reopen(handle.durable_files(), FsyncPolicy::Always, 48);
            let replay = WriteAheadLog::new(Box::new(survivor)).replay().unwrap();
            let expect = if new_survives {
                records()[3..].to_vec()
            } else {
                records()
            };
            assert_eq!(replay.records, expect, "new_survives={new_survives}");
            assert!(!replay.torn_tail);
        }
    }

    #[test]
    fn segmented_truncate_and_replace_round_trip() {
        // truncate() into the raw file goes through SegmentedFile::replace
        // (whole-log replacement past an index gap); the replaced log must
        // survive a reopen, and stale segments must be gone.
        let (log, handle) = seg_log(FsyncPolicy::Always, 48, FaultSpec::default());
        let mut wal = WriteAheadLog::new(Box::new(log));
        let mut boundaries = vec![0usize];
        for r in records() {
            wal.append(&r).unwrap();
            boundaries.push(wal.bytes_appended() as usize);
        }
        // Resume from a replay that ends after record 2, as recovery does
        // after a torn tail: the cut rewrites the raw file.
        let cut = Replay {
            records: records()[..2].to_vec(),
            offsets: boundaries[..2].to_vec(),
            torn_tail: true,
            bytes_replayed: boundaries[2],
        };
        wal.resume(&cut, None).unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records()[..2].to_vec());
        let wal = WriteAheadLog::new(Box::new(seg_reopen(
            handle.accepted_files(),
            FsyncPolicy::Always,
            48,
        )));
        assert_eq!(wal.replay().unwrap().records, records()[..2].to_vec());
    }

    #[test]
    fn a_real_segmented_directory_survives_reopen_and_truncation() {
        let dir = std::env::temp_dir().join(format!(
            "rain-segwal-{}-{}",
            std::process::id(),
            std::sync::atomic::AtomicUsize::new(0)
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = WriteAheadLog::new(Box::new(
            FileLog::open_segmented(&dir, FsyncPolicy::Always, 64).unwrap(),
        ));
        let mut boundaries = vec![0usize];
        for r in records() {
            wal.append(&r).unwrap();
            boundaries.push(wal.bytes_appended() as usize);
        }
        let seg_count = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_segment_name(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert!(seg_count >= 2, "rotation must have happened on disk");
        wal.drop_prefix(boundaries[3], 3).unwrap();
        drop(wal);
        let wal = WriteAheadLog::new(Box::new(
            FileLog::open_segmented(&dir, FsyncPolicy::Always, 64).unwrap(),
        ));
        assert_eq!(wal.replay().unwrap().records, records()[3..].to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn process_crash_loses_the_group_commit_buffer_but_not_committed_bytes() {
        let (file, _handle) = FaultyFile::new(FaultSpec::default());
        let mut log = FileLog::with_raw(Box::new(file), FsyncPolicy::EveryN(4)).unwrap();
        log.append(b"aaaa").unwrap();
        log.append(b"bbbb").unwrap();
        log.append(b"cccc").unwrap();
        log.append(b"dddd").unwrap(); // commit
        log.append(b"eeee").unwrap(); // pending in user space
        log.on_writer_crash();
        assert_eq!(log.contents().unwrap(), b"aaaabbbbccccdddd");
        assert_eq!(log.pending_bytes(), 0);
    }
}
