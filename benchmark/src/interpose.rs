//! The bare shard array of the traced passes, and the timing wrappers that
//! attribute its time to layers from outside the crates.
//!
//! `ClusterStore` builds its own shards, so nothing can be put beneath it
//! without editing the crate. But a shard's parts are all public traits:
//! [`ShardArray`] assembles three `DistributedStore`s the way the cluster
//! does and routes by the same genesis view, so under a static membership a
//! key lands on the same shard with the same log layout. Built `traced`,
//! every part is wrapped: codec, log backend, raw file or segment directory,
//! and transport each push a span per call into [`crate::trace`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rain_cluster::{MembershipView, ShardId};
use rain_codes::{
    build_code, CodeCost, CodeError, CodeKind, CodeMetrics, CodeSpec, ErasureCode, ShareSet,
    ShareView,
};
use rain_sim::{SimDuration, SimTime};
use rain_storage::{
    Attempt, DirectTransport, DistributedStore, FileLog, LogBackend, RawLogFile, SegmentFs,
    SegmentedFile, SelectionPolicy, StdFsFile, StdSegFs, Transport, TransportOp, TransportStats,
    WalError, WriteAheadLog,
};

use crate::driver::{Restart, Target};
use crate::trace::{self, span, Name};
use crate::workloads::{Workload, SHARDS, VNODES};

/// Spans around the five coding entry points. Each delegates to the inner
/// method of the same name, whose own nested calls stay inside the inner
/// code, so no call is counted twice.
struct TimedCode(Arc<dyn ErasureCode>);

impl ErasureCode for TimedCode {
    fn kind(&self) -> CodeKind {
        self.0.kind()
    }
    fn n(&self) -> usize {
        self.0.n()
    }
    fn k(&self) -> usize {
        self.0.k()
    }
    fn fault_tolerance(&self) -> usize {
        self.0.fault_tolerance()
    }
    fn data_len_unit(&self) -> usize {
        self.0.data_len_unit()
    }
    fn cost(&self, data_len: usize) -> CodeCost {
        self.0.cost(data_len)
    }
    fn runtime_metrics(&self) -> CodeMetrics {
        self.0.runtime_metrics()
    }
    fn is_mds(&self) -> bool {
        self.0.is_mds()
    }
    fn spec(&self) -> CodeSpec {
        self.0.spec()
    }
    fn share_len_for(&self, data_len: usize) -> Result<usize, CodeError> {
        self.0.share_len_for(data_len)
    }
    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        span(Name::CodesEncode, data.len() as u64, || {
            self.0.encode_slices(data, shares)
        })
    }
    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        span(Name::CodesDecode, out.len() as u64, || {
            self.0.decode_slices(shares, out)
        })
    }
    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        span(Name::CodesRepair, out.len() as u64, || {
            self.0.repair(shares, missing, out)
        })
    }
    fn encode_into(&self, data: &[u8], shares: &mut ShareSet) -> Result<(), CodeError> {
        span(Name::CodesEncode, data.len() as u64, || {
            self.0.encode_into(data, shares)
        })
    }
    fn decode_into(&self, shares: &ShareView<'_>, out: &mut Vec<u8>) -> Result<(), CodeError> {
        // The decoded length is known only after the call.
        let t = trace::open(Name::CodesDecode);
        let result = self.0.decode_into(shares, out);
        trace::close(t, out.len() as u64);
        result
    }
}

/// Spans around a `FileLog`'s `LogBackend` calls.
#[derive(Debug)]
struct TimedLog(FileLog);

impl LogBackend for TimedLog {
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        span(Name::WalAppend, frame.len() as u64, || self.0.append(frame))
    }
    fn contents(&self) -> Result<Vec<u8>, WalError> {
        span(Name::WalRead, 0, || self.0.contents())
    }
    fn truncate(&mut self, len: usize) -> Result<(), WalError> {
        span(Name::WalTruncate, 0, || self.0.truncate(len))
    }
    fn sync(&mut self) -> Result<(), WalError> {
        span(Name::WalSync, 0, || self.0.sync())
    }
    fn pending_bytes(&self) -> usize {
        self.0.pending_bytes()
    }
    fn advance_clock(&mut self, by: SimDuration) -> Result<(), WalError> {
        self.0.advance_clock(by)
    }
    fn drop_prefix(&mut self, len: usize) -> Result<(), WalError> {
        span(Name::WalDropPrefix, len as u64, || self.0.drop_prefix(len))
    }
    fn on_writer_crash(&mut self) {
        self.0.on_writer_crash()
    }
}

/// Spans around the single-file layout's `RawLogFile` calls. `drop_prefix`
/// is left to the trait's default, as `StdFsFile` leaves it: it runs as
/// `read_all` + `replace` on this wrapper and shows as those two spans.
#[derive(Debug)]
struct TimedRaw(StdFsFile);

impl RawLogFile for TimedRaw {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        span(Name::DeviceWrite, bytes.len() as u64, || {
            self.0.write_all(bytes)
        })
    }
    fn sync(&mut self) -> Result<(), WalError> {
        span(Name::DeviceFsync, 0, || self.0.sync())
    }
    fn read_all(&self) -> Result<Vec<u8>, WalError> {
        span(Name::DeviceRead, 0, || self.0.read_all())
    }
    fn replace(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        span(Name::DeviceReplace, bytes.len() as u64, || {
            self.0.replace(bytes)
        })
    }
}

/// Spans around the segmented layout's `SegmentFs` calls.
#[derive(Debug)]
struct TimedSegFs(StdSegFs);

impl SegmentFs for TimedSegFs {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        span(Name::DeviceWrite, bytes.len() as u64, || {
            self.0.append(name, bytes)
        })
    }
    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        span(Name::DeviceFsync, 0, || self.0.sync(name))
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        span(Name::DeviceRead, 0, || self.0.read(name))
    }
    fn len(&self, name: &str) -> Result<usize, WalError> {
        self.0.len(name)
    }
    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        span(Name::DeviceUnlink, 0, || self.0.remove(name))
    }
    fn list(&self) -> Result<Vec<String>, WalError> {
        self.0.list()
    }
    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        span(Name::DeviceReplace, bytes.len() as u64, || {
            self.0.replace_atomic(name, bytes)
        })
    }
}

/// Spans around a `DirectTransport`'s attempts.
#[derive(Default)]
struct TimedTransport(DirectTransport);

impl Transport for TimedTransport {
    fn attempt(
        &mut self,
        node: usize,
        op: TransportOp,
        bytes: u64,
        patience: SimDuration,
    ) -> Attempt {
        let name = match op {
            TransportOp::Install => Name::TransportInstall,
            TransportOp::Fetch => Name::TransportFetch,
            TransportOp::Delete | TransportOp::Probe => Name::TransportOther,
        };
        span(name, bytes, || self.0.attempt(node, op, bytes, patience))
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn advance(&mut self, by: SimDuration) {
        self.0.advance(by)
    }
    fn stats(&self) -> TransportStats {
        self.0.stats()
    }
}

/// Three `DistributedStore`s routed by the genesis view: the cluster's data
/// path without its directory, metalog and epoch checks.
pub struct ShardArray {
    view: MembershipView,
    shards: Vec<DistributedStore>,
    workload: Workload,
    dir: PathBuf,
    traced: bool,
    op_id: u64,
}

impl ShardArray {
    pub fn build(w: &Workload, dir: &Path, traced: bool) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut array = ShardArray {
            view: MembershipView::genesis(&SHARDS, VNODES),
            shards: Vec::new(),
            workload: w.clone(),
            dir: dir.to_path_buf(),
            traced,
            op_id: 0,
        };
        for s in SHARDS {
            let code = array.code()?;
            let log = array.open_log(s)?;
            let mut store = DistributedStore::with_wal(code, w.config, log);
            array.wire(&mut store);
            array.shards.push(store);
        }
        Ok(array)
    }

    fn code(&self) -> Result<Arc<dyn ErasureCode>, String> {
        let code = build_code(self.workload.code).map_err(|e| e.to_string())?;
        Ok(if self.traced {
            Arc::new(TimedCode(code))
        } else {
            code
        })
    }

    /// Shard `s`'s log, at the path and in the layout `ClusterStore` uses.
    fn open_log(&self, s: ShardId) -> Result<Box<dyn LogBackend>, String> {
        let config = self.workload.config;
        let raw: Box<dyn RawLogFile> = if config.segment_bytes > 0 {
            let fs = StdSegFs::new(self.dir.join(format!("shard-{s}.wal.d")))
                .map_err(|e| e.to_string())?;
            let fs: Box<dyn SegmentFs> = if self.traced {
                Box::new(TimedSegFs(fs))
            } else {
                Box::new(fs)
            };
            Box::new(SegmentedFile::open(fs, config.segment_bytes).map_err(|e| e.to_string())?)
        } else {
            let file = StdFsFile::open(self.dir.join(format!("shard-{s}.wal")))
                .map_err(|e| e.to_string())?;
            if self.traced {
                Box::new(TimedRaw(file))
            } else {
                Box::new(file)
            }
        };
        let log = FileLog::with_raw(raw, config.fsync).map_err(|e| e.to_string())?;
        Ok(if self.traced {
            Box::new(TimedLog(log))
        } else {
            Box::new(log)
        })
    }

    fn wire(&self, store: &mut DistributedStore) {
        if self.traced {
            store.set_transport(Box::new(TimedTransport::default()));
        }
    }

    fn route(&mut self, key: &str) -> &mut DistributedStore {
        let s = self.view.owner_of(key).expect("the view has members");
        self.op_id += 1;
        if self.traced {
            trace::set_op(self.op_id);
        }
        &mut self.shards[s]
    }

    /// Every object name with its bytes, sorted: what two arrays fed the
    /// same ops must agree on.
    pub fn contents(&mut self) -> Result<Vec<(String, Vec<u8>)>, String> {
        let mut all = Vec::new();
        for store in &mut self.shards {
            let names: Vec<String> = store.object_names().map(str::to_string).collect();
            for name in names {
                let (bytes, _) = store
                    .retrieve(&name, SelectionPolicy::FirstK)
                    .map_err(|e| e.to_string())?;
                all.push((name, bytes));
            }
        }
        all.sort();
        Ok(all)
    }
}

impl Target for ShardArray {
    fn put(&mut self, key: &str, data: &[u8]) -> Result<(), String> {
        let traced = self.traced;
        let store = self.route(key);
        trace::span_if(traced, Name::StorageStore, data.len() as u64, || {
            store.store(key, data)
        })
        .map_err(|e| e.to_string())
    }

    fn get(&mut self, key: &str) -> Result<Vec<u8>, String> {
        let traced = self.traced;
        let store = self.route(key);
        if traced {
            let t = trace::open(Name::StorageRetrieve);
            let r = store.retrieve(key, SelectionPolicy::FirstK);
            trace::close(t, r.as_ref().map_or(0, |(b, _)| b.len() as u64));
            r
        } else {
            store.retrieve(key, SelectionPolicy::FirstK)
        }
        .map(|(bytes, _)| bytes)
        .map_err(|e| e.to_string())
    }

    fn del(&mut self, key: &str) -> Result<(), String> {
        let traced = self.traced;
        let store = self.route(key);
        trace::span_if(traced, Name::StorageDelete, 0, || store.delete(key))
            .map_err(|e| e.to_string())
    }

    fn shard(&mut self, s: ShardId) -> &mut DistributedStore {
        &mut self.shards[s]
    }

    fn restart(mut self, w: &Workload) -> Result<(Self, Restart), String> {
        self.workload = w.clone();
        let mut info = Restart::default();
        let old = std::mem::take(&mut self.shards);
        let t0 = Instant::now();
        for (s, store) in old.into_iter().enumerate() {
            // The old log handle dies with the coordinator; recovery reads
            // the log back from the filesystem.
            let (nodes, _lost) = store.crash();
            let log = self.open_log(s)?;
            let (mut store, report) = DistributedStore::recover(
                self.code()?,
                self.workload.config,
                nodes,
                WriteAheadLog::new(log),
            )
            .map_err(|e| e.to_string())?;
            self.wire(&mut store);
            info.shard_records += report.records_replayed as u64;
            self.shards.push(store);
        }
        info.seconds = t0.elapsed().as_secs_f64();
        Ok((self, info))
    }

    fn advance_time(&mut self, by: SimDuration) {
        for store in &mut self.shards {
            store.advance_time(by);
        }
    }

    fn traced(&self) -> bool {
        self.traced
    }
}
