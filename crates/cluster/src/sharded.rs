//! One sharded RAIN deployment: the [`ClusterStore`] data plane and the
//! control plane that decides its views, behind one handle.
//!
//! This is where the so-far-freestanding `rain-membership` and
//! `rain-election` crates meet the storage path. One membership node and
//! one election state machine run per shard (shard `i` is control node
//! `i`); the membership protocol circulates its token over the simulated
//! fabric and converges every live node on a common view, the election
//! protocol designates the smallest live shard id as **leader**, and only
//! the leader may commit a view change — the data plane never acts on a
//! membership event until the leader has watched the token ring converge
//! on it. [`ShardedRain::reconcile`] then runs the whole two-phase
//! handover for it.
//!
//! The committed member set is the cluster's own view, so the control
//! plane and the data plane cannot disagree about it. The election
//! machines are driven on the membership simulation's clock (announcements
//! are exchanged between live nodes at every [`ShardedRain::tick`]), so one
//! seed determines the entire control-plane history: token passes,
//! exclusions, 911 regenerations, leadership hand-offs.

use rain_election::{ElectionConfig, ElectionNode};
use rain_membership::{MemberConfig, MembershipCluster};
use rain_obs::Registry;
use rain_sim::{NodeId, SimDuration};

use crate::ring::ShardId;
use crate::store::{ClusterError, ClusterStore};

/// A sharded RAIN deployment of up to `total` shards: data plane, control
/// plane, one handle.
pub struct ShardedRain {
    cluster: ClusterStore,
    membership: MembershipCluster,
    electors: Vec<ElectionNode>,
    /// Whether each shard currently participates (joined and not crashed).
    active: Vec<bool>,
}

impl ShardedRain {
    /// A deployment of up to `total` shards over `cluster`. The members of
    /// the cluster's committed view participate from the start; they must
    /// be `0..m` with `1 <= m <= total`, else [`ClusterError::BadMembers`].
    /// `seed` fixes the entire control-plane history.
    pub fn new(cluster: ClusterStore, total: usize, seed: u64) -> Result<Self, ClusterError> {
        let members = cluster.view().members();
        let initial = members.len();
        if initial == 0 || initial > total || !members.iter().copied().eq(0..initial) {
            return Err(ClusterError::BadMembers(members.to_vec()));
        }
        let membership = MembershipCluster::new(total, initial, MemberConfig::default(), seed);
        let electors = (0..total)
            .map(|i| ElectionNode::new(NodeId(i), ElectionConfig::default()))
            .collect();
        Ok(ShardedRain {
            cluster,
            membership,
            electors,
            active: (0..total).map(|i| i < initial).collect(),
        })
    }

    /// Borrow the data plane.
    pub fn cluster(&self) -> &ClusterStore {
        &self.cluster
    }

    /// Mutably borrow the data plane: requests stamped with its epoch,
    /// registry attachment, per-shard repair, manual handover control.
    pub fn cluster_mut(&mut self) -> &mut ClusterStore {
        &mut self.cluster
    }

    /// Give up the control plane and keep the data plane, e.g. to
    /// [`ClusterStore::crash`] it.
    pub fn into_cluster(self) -> ClusterStore {
        self.cluster
    }

    /// Advance both planes by `step` of simulated time: the membership
    /// token circulates over the fabric, then every active node exchanges
    /// election announcements (in shard-id order, so the run is
    /// deterministic), then the data plane's clocks move.
    pub fn tick(&mut self, step: SimDuration) {
        self.membership.run_for(step);
        let now = self.membership.now();
        for i in 0..self.electors.len() {
            if !self.active[i] {
                continue;
            }
            if let Some(announce) = self.electors[i].on_tick(now) {
                for (j, elector) in self.electors.iter_mut().enumerate() {
                    if j != i && self.active[j] {
                        elector.on_announce(now, announce);
                    }
                }
            }
        }
        self.cluster.advance_time(step);
    }

    /// The unique live leader, if the active shards currently agree on one.
    pub fn leader(&self) -> Option<ShardId> {
        let mut leader = None;
        for (i, elector) in self.electors.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            match leader {
                None => leader = Some(elector.leader()),
                Some(l) if elector.leader() == l => {}
                Some(_) => return None,
            }
        }
        let l = leader?;
        self.active
            .get(l.0)
            .copied()
            .unwrap_or(false)
            .then_some(l.0)
    }

    /// The view change the leader is ready to commit: the leader's
    /// membership view, once every live token-ring participant has
    /// converged on it and it differs from the cluster's committed member
    /// set. `None` while there is no stable leader, the ring is still
    /// churning, or nothing changed.
    pub fn poll_transition(&self) -> Option<Vec<ShardId>> {
        let leader = self.leader()?;
        let mut view: Vec<NodeId> = self.membership.node(NodeId(leader)).view().to_vec();
        if view.is_empty() {
            return None;
        }
        view.sort_by_key(|n| n.0);
        if !self.membership.converged_on(&view) {
            return None;
        }
        let members: Vec<ShardId> = view.iter().map(|n| n.0).collect();
        (members != self.cluster.view().members()).then_some(members)
    }

    /// If the elected leader has a converged view change ready, run the
    /// whole two-phase handover for it — transfers, cutover, epoch bump —
    /// and report the new epoch. With no view change pending, units left
    /// stranded by an earlier handover (their source was down at transfer
    /// time) are re-planned the moment their shard is reachable again —
    /// convergence does not wait for the *next* membership change.
    /// `Ok(None)` when nothing changed.
    ///
    /// A handover this call opens and cannot finish is aborted before the
    /// error returns, so the next call starts afresh.
    pub fn reconcile(&mut self) -> Result<Option<u64>, ClusterError> {
        let done = match self.poll_transition() {
            None => self.cluster.replan_skipped(),
            Some(members) => {
                self.cluster.begin_handover(&members)?;
                self.cluster.commit_handover().map(Some)
            }
        };
        if done.is_err() {
            // `NoHandover` here means the failure came after the cutover
            // closed it: there is nothing left to roll back.
            let _ = self.cluster.abort_handover();
        }
        done
    }

    /// Control node `s`, if `s` is one of the deployment's shards.
    fn node(&self, s: ShardId) -> Result<NodeId, ClusterError> {
        if s < self.active.len() {
            Ok(NodeId(s))
        } else {
            Err(ClusterError::UnknownShard(s))
        }
    }

    /// Have shard `s`, outside the current membership, join via `contact`;
    /// the data plane follows once the leader commits the wider view
    /// through [`ShardedRain::reconcile`].
    pub fn join(&mut self, s: ShardId, contact: ShardId) -> Result<(), ClusterError> {
        let (node, contact) = (self.node(s)?, self.node(contact)?);
        self.membership.join(node, contact);
        self.active[s] = true;
        Ok(())
    }

    /// Crash shard `s` on both planes: its membership node goes down with
    /// its fabric node, its elector falls silent (peers drop it one
    /// failure-timeout later), and its requests fail with
    /// [`ClusterError::ShardDown`].
    pub fn crash(&mut self, s: ShardId) -> Result<(), ClusterError> {
        self.membership.crash(self.node(s)?);
        self.active[s] = false;
        self.cluster.fail_shard(s);
        Ok(())
    }

    /// Recover a crashed shard on both planes; it rejoins the token ring
    /// via the 911 mechanism and resumes announcing.
    pub fn recover(&mut self, s: ShardId) -> Result<(), ClusterError> {
        self.membership.recover(self.node(s)?);
        self.active[s] = true;
        self.cluster.recover_shard(s);
        Ok(())
    }

    /// Total token regenerations across the control plane's history.
    pub fn regenerations(&self) -> u64 {
        self.membership.regenerations().len() as u64
    }

    /// Total tokens received, summed over all shards.
    pub fn tokens_received(&self) -> u64 {
        (0..self.active.len())
            .map(|i| self.membership.node(NodeId(i)).tokens_received())
            .sum()
    }

    /// Total leadership changes, summed over all shards' election state.
    pub fn leader_changes(&self) -> u64 {
        self.electors.iter().map(|e| e.leader_changes()).sum()
    }

    /// Publish the control-plane health gauges into `registry`:
    /// `membership.regenerations`, `membership.tokens_received`, and
    /// `election.leader_changes` — the churn signals an operator watches
    /// without poking node internals. The data plane publishes its own
    /// through [`ClusterStore::publish_gauges`].
    pub fn publish_gauges(&self, registry: &Registry) {
        registry
            .gauge("membership.regenerations")
            .set(self.regenerations() as i64);
        registry
            .gauge("membership.tokens_received")
            .set(self.tokens_received() as i64);
        registry
            .gauge("election.leader_changes")
            .set(self.leader_changes() as i64);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rain_codes::{build_code, CodeSpec, ErasureCode};
    use rain_storage::{
        FaultSpec, FaultyFile, FileLog, GroupConfig, LogBackend, SelectionPolicy, StorageError,
        WalError,
    };

    use super::*;
    use crate::ShardFactory;

    /// `initial` in-memory `(6, 4)` B-Code shards with small-object
    /// grouping and 48 ring points each, in a deployment of `total`.
    fn rain(total: usize, initial: usize, seed: u64) -> ShardedRain {
        let members: Vec<ShardId> = (0..initial).collect();
        let config = GroupConfig::small_objects();
        let cluster = ClusterStore::new(CodeSpec::bcode_6_4(), config, &members, 48).unwrap();
        ShardedRain::new(cluster, total, seed).unwrap()
    }

    fn settle(rain: &mut ShardedRain, secs: u64) {
        for _ in 0..secs * 10 {
            rain.tick(SimDuration::from_millis(100));
        }
    }

    /// Tick until [`ShardedRain::reconcile`] commits, up to `max_secs` of
    /// simulated time; the committed epoch.
    fn reconcile_within(rain: &mut ShardedRain, max_secs: u64) -> Option<u64> {
        for _ in 0..max_secs * 10 {
            rain.tick(SimDuration::from_millis(100));
            if let Some(epoch) = rain.reconcile().unwrap() {
                return Some(epoch);
            }
        }
        None
    }

    fn get(rain: &mut ShardedRain, key: &str) -> Result<Vec<u8>, ClusterError> {
        let epoch = rain.cluster().epoch();
        let read = rain
            .cluster_mut()
            .retrieve(key, SelectionPolicy::FirstK, epoch)?;
        Ok(read.bytes)
    }

    fn put_docs(rain: &mut ShardedRain, docs: std::ops::Range<u8>) {
        let cluster = rain.cluster_mut();
        for i in docs {
            let epoch = cluster.epoch();
            cluster
                .store(&format!("doc-{i:02}"), &[i; 700], epoch)
                .unwrap();
        }
        cluster.flush_all();
    }

    fn assert_docs(rain: &mut ShardedRain, docs: std::ops::Range<u8>) {
        for i in docs {
            assert_eq!(get(rain, &format!("doc-{i:02}")).unwrap(), [i; 700]);
        }
    }

    #[test]
    fn a_healthy_plane_elects_the_smallest_shard_and_reports_no_transition() {
        let mut rain = rain(4, 4, 42);
        settle(&mut rain, 3);
        assert_eq!(rain.leader(), Some(0));
        assert_eq!(rain.poll_transition(), None, "nothing changed");
        let reg = Registry::new();
        rain.publish_gauges(&reg);
        assert!(reg.gauge_value("membership.tokens_received") > 0);
        assert_eq!(reg.gauge_value("membership.regenerations"), 0);
    }

    #[test]
    fn a_join_surfaces_as_a_leader_committed_transition() {
        let mut rain = rain(4, 3, 42);
        settle(&mut rain, 3);
        assert_eq!(rain.poll_transition(), None);
        rain.join(3, 1).unwrap();
        settle(&mut rain, 6);
        let view = rain.poll_transition().expect("join must surface");
        assert_eq!(view, vec![0, 1, 2, 3]);
        assert_eq!(rain.reconcile().unwrap(), Some(2));
        assert_eq!(
            rain.poll_transition(),
            None,
            "committed views stop reporting"
        );
    }

    #[test]
    fn killing_the_leader_re_elects_and_excludes_it_from_the_view() {
        let mut rain = rain(4, 4, 42);
        settle(&mut rain, 3);
        assert_eq!(rain.leader(), Some(0));
        rain.crash(0).unwrap();
        settle(&mut rain, 20);
        assert_eq!(rain.leader(), Some(1), "next-smallest live shard leads");
        let view = rain.poll_transition().expect("exclusion must surface");
        assert_eq!(view, vec![1, 2, 3]);
    }

    #[test]
    fn control_histories_replay_bit_identically() {
        let run = || {
            let mut rain = rain(5, 4, 42);
            settle(&mut rain, 2);
            rain.join(4, 0).unwrap();
            settle(&mut rain, 4);
            rain.crash(2).unwrap();
            settle(&mut rain, 12);
            (
                rain.leader(),
                rain.poll_transition(),
                rain.regenerations(),
                rain.tokens_received(),
                rain.leader_changes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_join_reconciles_into_a_committed_rebalance() {
        let mut rain = rain(4, 3, 77);
        settle(&mut rain, 3);
        assert_eq!(rain.reconcile().unwrap(), None, "nothing changed yet");
        put_docs(&mut rain, 0..30);

        rain.join(3, 0).unwrap();
        let committed = reconcile_within(&mut rain, 20);
        assert_eq!(committed, Some(2), "the join must commit epoch 2");
        assert!(rain.cluster().stats().groups_moved > 0);
        assert_docs(&mut rain, 0..30);
    }

    /// Regression: units whose source shard was down at transfer time used
    /// to stay stranded on their out-of-view owner until the *next*
    /// membership change. [`ShardedRain::reconcile`] now re-homes them as
    /// soon as the shard's data plane is reachable again — even when the
    /// control plane reports no view change at all.
    #[test]
    fn stranded_units_converge_without_another_membership_change() {
        let mut rain = rain(3, 3, 91);
        settle(&mut rain, 3);
        put_docs(&mut rain, 0..30);

        // Shard 2 crashes; the leader commits the shrunken view while the
        // dead shard's outbound units can only be skipped.
        rain.crash(2).unwrap();
        let committed = reconcile_within(&mut rain, 60);
        assert_eq!(committed, Some(2), "the crash must commit epoch 2");
        assert!(
            rain.cluster().pending_replan(),
            "units stranded on the dead shard leave a pending replan"
        );

        // The machine comes back and its coordinator is reachable for
        // transfers, but it is NOT re-admitted to membership: the control
        // plane has no view change to report.
        rain.cluster_mut().recover_shard(2);
        assert_eq!(
            rain.reconcile().unwrap(),
            Some(3),
            "reconcile re-homes stranded units without a membership change"
        );
        assert!(!rain.cluster().pending_replan());
        assert!(rain.cluster().stats().handover_replanned > 0);
        assert_docs(&mut rain, 0..30);
    }

    #[test]
    fn a_cluster_not_over_shards_zero_to_m_is_refused() {
        let config = GroupConfig::small_objects();
        for (members, total) in [(vec![1, 2, 3], 4), (vec![0, 1, 2], 2)] {
            let cluster = ClusterStore::new(CodeSpec::bcode_6_4(), config, &members, 8).unwrap();
            let refused = ShardedRain::new(cluster, total, 1).err();
            assert!(
                matches!(&refused, Some(ClusterError::BadMembers(m)) if *m == members),
                "{members:?} of {total}: {refused:?}"
            );
        }
    }

    #[test]
    fn joining_an_unknown_shard_is_refused() {
        let mut rain = rain(4, 3, 5);
        assert!(matches!(
            rain.join(9, 0),
            Err(ClusterError::UnknownShard(9))
        ));
        assert!(matches!(
            rain.join(3, 4),
            Err(ClusterError::UnknownShard(4))
        ));
        rain.join(3, 0).unwrap();
    }

    #[test]
    fn crashing_an_unknown_shard_is_refused() {
        let mut rain = rain(4, 4, 5);
        assert!(matches!(rain.crash(7), Err(ClusterError::UnknownShard(7))));
        settle(&mut rain, 3);
        assert_eq!(rain.leader(), Some(0), "the plane is untouched");
    }

    #[test]
    fn recovering_an_unknown_shard_is_refused() {
        let mut rain = rain(4, 4, 5);
        assert!(matches!(
            rain.recover(4),
            Err(ClusterError::UnknownShard(4))
        ));
        rain.crash(3).unwrap();
        rain.recover(3).unwrap();
        assert!(rain.cluster().shard_up(3));
    }

    /// Every log an in-memory file; `shard-3.wal` fails its first write
    /// short, so the first transfer into shard 3 fails.
    struct ShortWriteFactory;

    impl ShardFactory for ShortWriteFactory {
        fn code(&self, _s: ShardId) -> Result<Arc<dyn ErasureCode>, StorageError> {
            Ok(build_code(CodeSpec::bcode_6_4())?)
        }

        fn log(
            &self,
            name: &str,
            config: &GroupConfig,
        ) -> Result<Option<Box<dyn LogBackend>>, WalError> {
            let faults = FaultSpec {
                short_write: (name == "shard-3.wal").then_some((0, 0)),
                ..FaultSpec::default()
            };
            let (file, _handle) = FaultyFile::with_contents(Vec::new(), faults);
            Ok(Some(Box::new(FileLog::with_raw(
                Box::new(file),
                config.fsync,
            )?)))
        }
    }

    #[test]
    fn a_handover_reconcile_cannot_finish_is_aborted() {
        let config = GroupConfig::small_objects().logged();
        let cluster =
            ClusterStore::with_factory(ShortWriteFactory, config, &[0, 1, 2], 48).unwrap();
        let mut rain = ShardedRain::new(cluster, 4, 77).unwrap();
        settle(&mut rain, 3);
        put_docs(&mut rain, 0..30);

        rain.join(3, 0).unwrap();
        let (mut failures, mut committed) = (Vec::new(), None);
        for _ in 0..200 {
            rain.tick(SimDuration::from_millis(100));
            match rain.reconcile() {
                Ok(None) => {}
                Ok(epoch) => {
                    committed = epoch;
                    break;
                }
                Err(e) => failures.push(e),
            }
        }
        // One failure, the injected one: the retry is not refused with
        // `HandoverInProgress` but commits the join.
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].to_string().contains("short write"));
        assert_eq!(committed, Some(2));
        for i in 0..30u8 {
            match get(&mut rain, &format!("doc-{i:02}")) {
                Ok(bytes) => assert_eq!(bytes, [i; 700]),
                Err(ClusterError::ShardDown(_))
                | Err(ClusterError::Storage(StorageError::NotEnoughNodes { .. })) => {}
                Err(e) => panic!("doc-{i:02} failed dishonestly: {e}"),
            }
        }
    }

    #[test]
    fn a_membership_driven_handover_on_disk_survives_a_full_restart() {
        let dir = std::env::temp_dir().join(format!("rain-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (spec, config) = (CodeSpec::bcode_6_4(), GroupConfig::small_objects().logged());
        let cluster = ClusterStore::with_wal_dir(spec, config, &[0, 1, 2], 48, &dir).unwrap();
        let mut rain = ShardedRain::new(cluster, 4, 77).unwrap();
        settle(&mut rain, 3);
        put_docs(&mut rain, 0..30);
        rain.join(3, 0).unwrap();
        assert_eq!(reconcile_within(&mut rain, 20), Some(2));
        put_docs(&mut rain, 30..50);

        let survivors = rain.into_cluster().crash();
        let (cluster, _) = ClusterStore::recover_from_disk(spec, config, &dir, survivors).unwrap();
        let mut rain = ShardedRain::new(cluster, 4, 78).unwrap();
        assert_eq!(rain.cluster().epoch(), 2);
        assert_docs(&mut rain, 0..50);
        settle(&mut rain, 3);
        assert_eq!(
            rain.reconcile().unwrap(),
            None,
            "the restarted view is settled"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
