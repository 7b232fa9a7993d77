//! RAINVideo (Section 5.1): a highly-available video server built from the
//! communication and storage building blocks.
//!
//! A collection of videos is erasure-encoded and written to all `n` server
//! nodes with distributed store operations. Every client plays a video by
//! issuing one distributed retrieve per block: as long as the client can
//! still reach at least `k` servers, playback continues without
//! interruption; only when connectivity drops below `k` does the client
//! stall, and it resumes as soon as enough servers become reachable again
//! (experiment E12).

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rain_codes::{build_code, CodeSpec, ErasureCode};
use rain_obs::Registry;
use rain_sim::NodeId;
use rain_storage::{
    DistributedStore, FaultPolicy, GroupConfig, OutcomeTally, RecoveryReport, SelectionPolicy,
    StorageError, SurvivingNodes, Transport, WriteAheadLog,
};

/// One streaming client and its playback state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VideoClient {
    /// Client identifier.
    pub id: usize,
    /// Which video it is playing.
    pub video: String,
    /// Next block to fetch.
    pub position: usize,
    /// Blocks successfully played.
    pub blocks_played: usize,
    /// Ticks in which playback stalled (no block could be fetched).
    pub stalls: usize,
    /// Blocks played from a degraded read (fewer than `n` verified
    /// shares — some server was down, slow, damaged, or stale).
    pub degraded_blocks: usize,
    /// Servers this client currently cannot reach (its local view of the
    /// network; server crashes are tracked globally in the store).
    pub unreachable: BTreeSet<NodeId>,
}

/// The video service: erasure-coded video blocks on `n` servers plus a set
/// of streaming clients.
pub struct VideoSystem {
    store: DistributedStore,
    block_size: usize,
    videos: Vec<(String, usize)>,
    clients: Vec<VideoClient>,
    registry: Registry,
}

impl VideoSystem {
    /// Create a service over `code.n()` servers with the given block size.
    pub fn new(code: Arc<dyn ErasureCode>, block_size: usize) -> Self {
        Self::new_grouped(code, block_size, GroupConfig::disabled())
    }

    /// Create a service whose store batches small video blocks into coding
    /// groups (one encode and one symbol per node per *group* of blocks —
    /// the right shape for low-bitrate renditions whose blocks are tiny).
    /// [`VideoSystem::ingest`] seals the open group when it finishes, so a
    /// fully ingested video is always erasure-coded durable.
    pub fn new_grouped(code: Arc<dyn ErasureCode>, block_size: usize, config: GroupConfig) -> Self {
        assert!(block_size > 0);
        let registry = Registry::new();
        let mut store = DistributedStore::with_groups(code, config);
        store.attach_registry(&registry);
        VideoSystem {
            store,
            block_size,
            videos: Vec::new(),
            clients: Vec::new(),
            registry,
        }
    }

    /// Create a service from a serializable code description.
    pub fn from_spec(spec: CodeSpec, block_size: usize) -> Result<Self, StorageError> {
        Ok(Self::new(build_code(spec)?, block_size))
    }

    /// Like [`VideoSystem::new_grouped`], selecting the code by spec.
    pub fn from_spec_grouped(
        spec: CodeSpec,
        block_size: usize,
        config: GroupConfig,
    ) -> Result<Self, StorageError> {
        Ok(Self::new_grouped(build_code(spec)?, block_size, config))
    }

    /// Simulate a crash of the ingest coordinator: its memory (video
    /// catalogue, store metadata, open-group buffers) is lost; the server
    /// nodes and the write-ahead log survive for [`VideoSystem::recover`].
    pub fn crash(self) -> (SurvivingNodes, Option<WriteAheadLog>) {
        self.store.crash()
    }

    /// Rebuild the service after a coordinator crash: the store replays
    /// the write-ahead log, and the video catalogue is reconstructed from
    /// the recovered block namespace (`<video>/<index>` keys), so fully or
    /// partially ingested videos stream again without re-ingesting. Clients
    /// are ephemeral and start fresh. The [`RecoveryReport`] is passed
    /// through so operators can see torn tails and swept stale frames.
    pub fn recover(
        code: Arc<dyn ErasureCode>,
        block_size: usize,
        config: GroupConfig,
        nodes: SurvivingNodes,
        wal: WriteAheadLog,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        assert!(block_size > 0);
        let (mut store, report) = DistributedStore::recover(code, config, nodes, wal)?;
        // A fresh registry per incarnation: health counters restart at zero
        // after a coordinator crash, exactly like the old in-memory tally.
        let registry = Registry::new();
        store.attach_registry(&registry);
        let mut blocks_per_video: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for name in store.object_names() {
            if let Some((video, index)) = name.rsplit_once('/') {
                if let Ok(i) = index.parse::<usize>() {
                    let blocks = blocks_per_video.entry(video.to_string()).or_insert(0);
                    *blocks = (*blocks).max(i + 1);
                }
            }
        }
        Ok((
            VideoSystem {
                store,
                block_size,
                videos: blocks_per_video.into_iter().collect(),
                clients: Vec::new(),
                registry,
            },
            report,
        ))
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.store.num_nodes()
    }

    /// Reconstruction threshold `k` of the code in use.
    pub fn k(&self) -> usize {
        self.store.code().k()
    }

    /// Ingest a video: split into blocks and store each with a distributed
    /// store operation. Returns the number of blocks.
    pub fn ingest(&mut self, name: &str, data: &[u8]) -> Result<usize, StorageError> {
        let blocks = data.chunks(self.block_size).count().max(1);
        for (i, chunk) in data.chunks(self.block_size).enumerate() {
            self.store.store(&format!("{name}/{i}"), chunk)?;
        }
        if data.is_empty() {
            self.store.store(&format!("{name}/0"), &[])?;
        }
        // Seal the open coding group (a no-op for ungrouped stores): every
        // block of the video is erasure-coded durable once ingest returns.
        self.store.flush()?;
        self.videos.push((name.to_string(), blocks));
        Ok(blocks)
    }

    /// Grouping counters of the underlying store (all zero when the
    /// service was built without grouping).
    pub fn group_stats(&self) -> rain_storage::GroupStats {
        self.store.group_stats()
    }

    /// Run the service over a fault-injecting transport (see
    /// [`rain_storage::ChaosTransport`]): playback then experiences
    /// timeouts, losses, and corrupt responses instead of instant answers.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.store.set_transport(transport);
    }

    /// Configure how retrieves behave under a faulty transport (timeouts,
    /// retries, hedging).
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.store.set_policy(policy);
    }

    /// Per-node outcome breakdown accumulated over every block retrieve:
    /// how many server contacts answered ok, timed out, returned damage,
    /// were down, or served a stale generation — plus degraded/hedged read
    /// counts. A view over the service telemetry registry (see
    /// [`VideoSystem::registry`]); no per-retrieve aggregation happens in
    /// the playback loop.
    pub fn playback_health(&self) -> OutcomeTally {
        OutcomeTally::from_registry(&self.registry)
    }

    /// The telemetry registry the service's store publishes into: retrieve
    /// outcome counters, latency histograms, span durations, WAL and group
    /// metrics. Snapshot it for dashboards or diffing in tests.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Register a client that will stream `video` from the beginning.
    pub fn add_client(&mut self, video: &str) -> usize {
        let id = self.clients.len();
        self.clients.push(VideoClient {
            id,
            video: video.to_string(),
            position: 0,
            blocks_played: 0,
            stalls: 0,
            degraded_blocks: 0,
            unreachable: BTreeSet::new(),
        });
        id
    }

    /// Number of blocks in a video.
    pub fn video_blocks(&self, name: &str) -> Option<usize> {
        self.videos.iter().find(|(v, _)| v == name).map(|(_, b)| *b)
    }

    /// A client's playback state.
    pub fn client(&self, id: usize) -> &VideoClient {
        &self.clients[id]
    }

    /// Crash a server (affects every client).
    pub fn crash_server(&mut self, server: NodeId) -> Result<(), StorageError> {
        self.store.fail_node(server)
    }

    /// Recover a crashed server.
    pub fn recover_server(&mut self, server: NodeId) -> Result<(), StorageError> {
        self.store.recover_node(server)
    }

    /// Break the path between one client and one server (the server stays up
    /// for everyone else — e.g. a link or switch failure on that side of the
    /// fabric).
    pub fn break_path(&mut self, client: usize, server: NodeId) {
        self.clients[client].unreachable.insert(server);
    }

    /// Restore the path between a client and a server.
    pub fn restore_path(&mut self, client: usize, server: NodeId) {
        self.clients[client].unreachable.remove(&server);
    }

    /// Number of servers a client can currently reach (ignoring crashes,
    /// which the store accounts for separately).
    pub fn reachable_servers(&self, client: usize) -> Vec<NodeId> {
        (0..self.servers())
            .map(NodeId)
            .filter(|s| !self.clients[client].unreachable.contains(s))
            .collect()
    }

    /// Advance playback by one block for every client that has not finished.
    /// Returns the number of clients that made progress this tick.
    pub fn tick(&mut self) -> usize {
        let mut progressed = 0;
        for c in 0..self.clients.len() {
            let (video, position, finished) = {
                let cl = &self.clients[c];
                let total = self
                    .videos
                    .iter()
                    .find(|(v, _)| *v == cl.video)
                    .map(|(_, b)| *b)
                    .unwrap_or(0);
                (cl.video.clone(), cl.position, cl.position >= total)
            };
            if finished {
                continue;
            }
            let allowed = self.reachable_servers(c);
            let result = self.store.retrieve_from(
                &format!("{video}/{position}"),
                SelectionPolicy::LeastLoaded,
                Some(&allowed),
            );
            let cl = &mut self.clients[c];
            match result {
                Ok((_, report)) => {
                    cl.position += 1;
                    cl.blocks_played += 1;
                    if report.degraded {
                        cl.degraded_blocks += 1;
                    }
                    progressed += 1;
                }
                Err(_) => {
                    cl.stalls += 1;
                }
            }
        }
        progressed
    }

    /// Run until every client finished its video or `max_ticks` elapse.
    /// Returns true if everyone finished.
    pub fn run(&mut self, max_ticks: usize) -> bool {
        for _ in 0..max_ticks {
            self.tick();
            if self.all_finished() {
                return true;
            }
        }
        self.all_finished()
    }

    /// True if every client has played its whole video.
    pub fn all_finished(&self) -> bool {
        self.clients.iter().all(|c| {
            self.videos
                .iter()
                .find(|(v, _)| *v == c.video)
                .map(|(_, b)| c.position >= *b)
                .unwrap_or(true)
        })
    }

    /// Total stalls across all clients.
    pub fn total_stalls(&self) -> usize {
        self.clients.iter().map(|c| c.stalls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_codes::CodeKind;

    fn system() -> VideoSystem {
        // The paper's testbed streams from 10 servers; the (10, 8) B-Code
        // matches the DESIGN.md parameters for E12. Selected by spec, as a
        // deployment would from its config file.
        VideoSystem::from_spec(CodeSpec::new(CodeKind::BCode, 10, 8), 256).expect("valid spec")
    }

    #[test]
    fn playback_health_surfaces_per_server_outcomes_under_chaos() {
        use rain_sim::{FaultPlan, SimTime};
        use rain_storage::ChaosTransport;
        let mut v = system();
        let film: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        v.ingest("film", &film).unwrap();
        // Swap in a transport where server 3 has crashed: every contact
        // with it fails and playback reads around it, flagged degraded.
        v.set_transport(Box::new(ChaosTransport::new(10, 99).with_plan(
            FaultPlan::none().at(SimTime::ZERO, rain_sim::Fault::NodeCrash(NodeId(3))),
        )));
        v.set_fault_policy(FaultPolicy::default());
        v.add_client("film");
        assert!(v.run(100));
        assert_eq!(v.total_stalls(), 0, "one dead server of ten cannot stall");
        let health = v.playback_health();
        assert!(health.ok > 0, "live servers must answer");
        assert!(health.down > 0, "dead-server contacts must be surfaced");
        assert_eq!(health.corrupt, 0, "nothing corrupts in this scenario");
        assert!(
            v.client(0).degraded_blocks > 0,
            "blocks played around the dead server count as degraded"
        );
    }

    #[test]
    fn playback_completes_with_no_faults_and_no_stalls() {
        let mut v = system();
        let film: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        v.ingest("film", &film).unwrap();
        v.add_client("film");
        v.add_client("film");
        assert!(v.run(100));
        assert_eq!(v.total_stalls(), 0);
        assert_eq!(v.client(0).blocks_played, 16);
    }

    #[test]
    fn grouped_ingest_plays_back_through_failures_like_ungrouped() {
        // Tiny 256-byte blocks batched into coding groups: the whole film
        // fits in a handful of group encodes instead of one per block.
        let mut v = VideoSystem::from_spec_grouped(
            CodeSpec::new(CodeKind::BCode, 10, 8),
            256,
            GroupConfig {
                threshold: 1024,
                capacity: 2048,
                compact_watermark: 0.5,
                ..GroupConfig::disabled()
            },
        )
        .expect("valid spec");
        let film: Vec<u8> = (0..4096u32).map(|i| (i % 249) as u8).collect();
        v.ingest("film", &film).unwrap();
        let stats = v.group_stats();
        assert_eq!(stats.grouped_objects, 16, "every block rides in a group");
        assert!(stats.groups < 16, "blocks share group encodes");
        assert_eq!(stats.open_bytes, 0, "ingest seals the open group");
        // Playback behaves exactly like the per-block store, including
        // under the code's full fault tolerance.
        v.crash_server(NodeId(0)).unwrap();
        v.crash_server(NodeId(9)).unwrap();
        let c = v.add_client("film");
        assert!(v.run(100));
        assert_eq!(v.client(c).blocks_played, 16);
        assert_eq!(v.total_stalls(), 0);
    }

    #[test]
    fn ingest_coordinator_crash_recovers_the_catalogue_and_blocks() {
        // A logged grouped service: tiny blocks ride in coding groups and
        // every mutation is written ahead to the log.
        let config = GroupConfig {
            threshold: 1024,
            capacity: 2048,
            compact_watermark: 0.5,
            ..GroupConfig::disabled()
        }
        .logged();
        let spec = CodeSpec::new(CodeKind::BCode, 10, 8);
        let mut v = VideoSystem::from_spec_grouped(spec, 256, config).expect("valid spec");
        let film: Vec<u8> = (0..4096u32).map(|i| (i % 247) as u8).collect();
        let short = vec![3u8; 700];
        v.ingest("film", &film).unwrap();
        v.ingest("short", &short).unwrap();

        let (nodes, wal) = v.crash();
        let code = rain_codes::build_code(spec).expect("valid spec");
        let (mut v, report) =
            VideoSystem::recover(code, 256, config, nodes, wal.expect("logged")).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(v.video_blocks("film"), Some(16), "catalogue rebuilt");
        assert_eq!(v.video_blocks("short"), Some(3));
        // Playback is bit-for-bit unaffected, including under failures.
        v.crash_server(NodeId(1)).unwrap();
        v.crash_server(NodeId(6)).unwrap();
        let a = v.add_client("film");
        let b = v.add_client("short");
        assert!(v.run(100));
        assert_eq!(v.client(a).blocks_played, 16);
        assert_eq!(v.client(b).blocks_played, 3);
        assert_eq!(v.total_stalls(), 0);
    }

    #[test]
    fn playback_continues_while_k_servers_remain_reachable() {
        let mut v = system();
        let film = vec![7u8; 2048];
        v.ingest("film", &film).unwrap();
        let c = v.add_client("film");
        // Two server crashes (the code tolerance)...
        v.crash_server(NodeId(2)).unwrap();
        v.crash_server(NodeId(7)).unwrap();
        // ...and this client additionally cannot reach one healthy server
        // through the fabric — but that still leaves k = 8? No: 10 - 2 - 1
        // = 7 < 8, so instead only break a path to one of the *crashed*
        // servers, leaving exactly 8 reachable healthy servers.
        v.break_path(c, NodeId(2));
        assert!(v.run(50), "playback must not be interrupted");
        assert_eq!(v.total_stalls(), 0);
    }

    #[test]
    fn playback_stalls_below_k_and_resumes_after_recovery() {
        let mut v = system();
        v.ingest("film", &vec![1u8; 1024]).unwrap();
        let c = v.add_client("film");
        // Lose three servers: only 7 < k = 8 remain, the client stalls.
        for s in [0usize, 1, 2] {
            v.crash_server(NodeId(s)).unwrap();
        }
        for _ in 0..10 {
            v.tick();
        }
        assert_eq!(v.client(c).blocks_played, 0);
        assert_eq!(v.client(c).stalls, 10);
        // Recover one server: playback resumes and finishes.
        v.recover_server(NodeId(0)).unwrap();
        assert!(v.run(50));
        assert!(v.client(c).blocks_played > 0);
    }

    #[test]
    fn per_client_path_failures_only_affect_that_client() {
        let mut v = system();
        v.ingest("film", &vec![9u8; 1024]).unwrap();
        let lucky = v.add_client("film");
        let unlucky = v.add_client("film");
        // The unlucky client loses paths to three servers (below k), the
        // lucky one sees the full cluster.
        for s in [1usize, 4, 8] {
            v.break_path(unlucky, NodeId(s));
        }
        for _ in 0..10 {
            v.tick();
        }
        assert!(v.client(lucky).blocks_played > 0);
        assert_eq!(v.client(unlucky).blocks_played, 0);
        // Restoring one path brings it back above k.
        v.restore_path(unlucky, NodeId(4));
        assert!(v.run(50));
    }
}
