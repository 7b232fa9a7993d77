//! Group-granularity ownership transfer between coordinator shards.
//!
//! A sharded cluster (the `rain-cluster` crate) splits the object namespace
//! across many [`DistributedStore`] coordinators on a consistent-hash ring.
//! When the ring changes — a shard joins, leaves, or fails — data must move,
//! and the unit of movement is the **sealed coding group**, not the object:
//! exporting a group decodes its block once (any `k` symbols), importing it
//! re-encodes once and installs **one symbol per node**, so a migration
//! costs `n` symbols per group no matter how many objects ride inside.
//! This mirrors the paper's amortisation insight for small-object traffic:
//! the group is the unit of placement, repair, *and* rebalancing.
//!
//! The handover protocol built on these primitives is two-phase:
//!
//! 1. **Prepare** — the old owner [`DistributedStore::export_group`]s the
//!    block, the new owner [`DistributedStore::import_group`]s it. Both
//!    copies now exist; reads may be served from either, and overwrites are
//!    applied (and write-ahead logged) on both.
//! 2. **Cutover** — once the epoch commits, the old owner
//!    [`DistributedStore::evict_group`]s its copy. Until that moment the
//!    old copy survives, so a crash of the new owner mid-handover loses
//!    nothing acked.
//!
//! Durability plumbing: an import is logged (with its bytes) **after** its
//! symbols install — like a seal, so a quorum-failed import can never be
//! resurrected by replay — and an eviction is logged **before** the drop,
//! because it is only ever issued once the receiving shard's copy is
//! durable.

use rain_obs::span;

use super::{padded_block_len, DistributedStore, ObjectEntry, SelectionPolicy, StorageError, Unit};
use crate::group::{CodingGroup, GroupId, ObjSpan};
use crate::wal::RecordView;

/// A sealed coding group packaged for transfer to another shard: the live
/// members (tombstoned ones are left behind — migration doubles as
/// compaction) and their bytes, repacked contiguously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupExport {
    /// Live members and their spans within `block`, in block order.
    pub members: Vec<(String, ObjSpan)>,
    /// The repacked (unpadded) data block.
    pub block: Vec<u8>,
}

impl GroupExport {
    /// Total live payload bytes in the export.
    pub fn live_bytes(&self) -> usize {
        self.block.len()
    }
}

impl DistributedStore {
    /// Ids of every sealed coding group, ascending — the placement units a
    /// cluster rebalancer enumerates.
    pub fn sealed_group_ids(&self) -> Vec<GroupId> {
        let mut ids: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, g)| g.sealed)
            .map(|(&gid, _)| gid)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Names of every individually-placed (whole) object, sorted — each is
    /// its own placement unit, moving alone during a rebalance.
    pub fn whole_object_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .objects
            .iter()
            .filter(|(_, p)| matches!(p, ObjectEntry::Whole { .. }))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Names of the live members of group `gid`, sorted. Empty if the group
    /// is unknown.
    pub fn group_live_members(&self, gid: GroupId) -> Vec<String> {
        let mut names: Vec<String> = self
            .objects
            .iter()
            .filter(|(_, p)| matches!(p, ObjectEntry::Grouped { group, .. } if *group == gid))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Package sealed group `gid` for transfer: decode its block from any
    /// `k` reachable symbols (one decode for the whole group) and repack
    /// the live members contiguously. The group itself is untouched — the
    /// exporting shard keeps serving it until [`DistributedStore::evict_group`].
    pub fn export_group(
        &mut self,
        gid: GroupId,
        policy: SelectionPolicy,
    ) -> Result<GroupExport, StorageError> {
        if !self.groups.get(&gid).is_some_and(|g| g.sealed) {
            return Err(StorageError::UnknownGroup(gid));
        }
        let mut span = span!(self.recorder, "store.shard.export", group = gid);
        // One decode fills the cache (or validates availability on a hit).
        let (row, holders) = self.pick_holders(policy, Unit::Group(gid), None);
        let fetch = self.decode_group(gid, row, &holders)?;
        self.note_outcomes(&fetch.outcomes);
        let block_full = self
            .decode_cache
            .get(gid)
            .expect("decode_group populated the cache");
        let mut members: Vec<(String, ObjSpan)> = self
            .objects
            .iter()
            .filter_map(|(name, p)| match p {
                ObjectEntry::Grouped { group, span } if *group == gid => {
                    Some((name.clone(), *span))
                }
                _ => None,
            })
            .collect();
        members.sort_by_key(|(_, s)| s.offset);
        let mut block = Vec::with_capacity(members.iter().map(|(_, s)| s.len).sum());
        let members = members
            .into_iter()
            .map(|(name, s)| {
                let offset = block.len();
                block.extend_from_slice(&block_full[s.offset..s.offset + s.len]);
                (name, ObjSpan { offset, len: s.len })
            })
            .collect::<Vec<_>>();
        span.field("objects", members.len() as u64);
        span.field("bytes", block.len() as u64);
        Ok(GroupExport { members, block })
    }

    /// Accept ownership of an exported group: encode the block once,
    /// install one generation-stamped symbol per node (same ack quorum as a
    /// seal), enter every member into the object table, and write-ahead log
    /// the transfer. Returns this store's id for the imported group.
    ///
    /// Importing a member name that already exists overwrites it, exactly
    /// like a store would — the cluster layer relies on this when a write
    /// raced the transfer and was dual-applied.
    pub fn import_group(&mut self, export: &GroupExport) -> Result<GroupId, StorageError> {
        let gid = self.next_group_id;
        let mut span = span!(
            self.recorder,
            "store.shard.import",
            group = gid,
            objects = export.members.len() as u64
        );
        self.apply_group_import(gid, &export.members, &export.block)?;
        // Logged after the apply, like a seal: replaying a record always
        // redoes an import that really happened, never one that failed its
        // quorum (the failed attempt leaves only stale-generation orphans).
        self.log(RecordView::GroupImport {
            group: gid,
            members: &export.members,
            bytes: &export.block,
        })?;
        span.field("bytes", export.block.len() as u64);
        Ok(gid)
    }

    /// The transition core of an import, shared by the live path and log
    /// replay: build the sealed group, encode, install, register members.
    /// On a failed quorum nothing is registered (queued installs are
    /// withdrawn; any landed frames are stale-generation orphans).
    pub(crate) fn apply_group_import(
        &mut self,
        gid: GroupId,
        members: &[(String, ObjSpan)],
        block: &[u8],
    ) -> Result<(), StorageError> {
        self.note_group_id(gid)?;
        // Pad to the code's input unit and encode — one encode for the
        // whole group, identical to a seal.
        let padded = padded_block_len(self.code.as_ref(), block.len());
        self.io_buf.clear();
        self.io_buf.extend_from_slice(block);
        self.io_buf.resize(padded, 0);
        let frames = self
            .frames
            .encode(self.code.as_ref(), &[], &self.io_buf, padded)?;
        // A failed import's landed frames sit under a group id no table
        // entry will ever name; recovery's reconcile pass sweeps them.
        self.install_unit(Unit::Group(gid), None, frames)?;
        self.groups.insert(
            gid,
            CodingGroup {
                data: Vec::new(),
                packed_len: block.len(),
                live_bytes: block.len(),
                live_objects: members.len(),
                sealed: true,
            },
        );
        // The padded block is exactly what a decode would produce; seed the
        // cache so co-located reads right after a migration stay local. The
        // block moves in, and the entry it evicts becomes `io_buf`.
        let block = std::mem::take(&mut self.io_buf);
        self.io_buf = self.decode_cache.insert(gid, block).unwrap_or_default();
        for (name, member_span) in members {
            self.retire_for_grouped(name)?;
            self.objects.insert(
                name.clone(),
                ObjectEntry::Grouped {
                    group: gid,
                    span: *member_span,
                },
            );
        }
        Ok(())
    }

    /// Cede ownership of sealed group `gid`: write-ahead log the eviction,
    /// remove every member from the object table, and drop the group's
    /// symbols from all nodes (best-effort — unreachable nodes keep
    /// stale-generation orphans no decode accepts). Returns the number of
    /// members removed.
    ///
    /// Call this only once the receiving shard's import is durable: the
    /// eviction is the cutover of the two-phase handover.
    pub fn evict_group(&mut self, gid: GroupId) -> Result<usize, StorageError> {
        if !self.groups.get(&gid).is_some_and(|g| g.sealed) {
            return Err(StorageError::UnknownGroup(gid));
        }
        self.log(RecordView::GroupEvict { group: gid })?;
        self.apply_group_evict(gid)
    }

    /// The transition core of an eviction, shared by the live path and log
    /// replay.
    pub(crate) fn apply_group_evict(&mut self, gid: GroupId) -> Result<usize, StorageError> {
        let members: Vec<String> = self
            .objects
            .iter()
            .filter(|(_, p)| matches!(p, ObjectEntry::Grouped { group, .. } if *group == gid))
            .map(|(name, _)| name.clone())
            .collect();
        for name in &members {
            self.objects.remove(name);
        }
        if self.groups.contains_key(&gid) {
            self.delete_unit(Unit::Group(gid))?;
        }
        Ok(members.len())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rain_codes::ReedSolomon;
    use rain_sim::NodeId;

    use super::*;
    use crate::group::GroupConfig;
    use crate::transport::{ChaosTransport, FaultPolicy};
    use crate::wal::{LogRecord, MemLog, WalRecord};

    fn grouped_config() -> GroupConfig {
        GroupConfig {
            threshold: 1024,
            capacity: 4096,
            compact_watermark: 0.25,
            ..GroupConfig::disabled()
        }
    }

    fn code() -> Arc<ReedSolomon> {
        Arc::new(ReedSolomon::new(6, 4).unwrap())
    }

    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| ((i * 37 + j) % 251) as u8).collect()
    }

    /// Build a source store with `count` small objects sealed into groups.
    fn seeded_source(count: usize) -> DistributedStore {
        let mut store = DistributedStore::with_groups(code(), grouped_config());
        for i in 0..count {
            store.store(&format!("obj-{i}"), &payload(i, 200)).unwrap();
        }
        store.flush().unwrap();
        store
    }

    #[test]
    fn export_import_round_trips_every_member() {
        let mut src = seeded_source(8);
        let mut dst = DistributedStore::with_groups(code(), grouped_config());
        for gid in src.sealed_group_ids() {
            let export = src.export_group(gid, SelectionPolicy::FirstK).unwrap();
            assert!(!export.members.is_empty());
            dst.import_group(&export).unwrap();
        }
        for i in 0..8 {
            let (bytes, _) = dst
                .retrieve(&format!("obj-{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(bytes, payload(i, 200), "obj-{i} must survive migration");
        }
    }

    #[test]
    fn import_costs_one_symbol_per_node_per_group() {
        let mut src = seeded_source(8);
        let gids = src.sealed_group_ids();
        let mut dst = DistributedStore::with_groups(code(), grouped_config());
        let before = dst.transport_stats().attempts;
        for gid in &gids {
            let export = src.export_group(*gid, SelectionPolicy::FirstK).unwrap();
            dst.import_group(&export).unwrap();
        }
        let installs = dst.transport_stats().attempts - before;
        // One install attempt per node per group under the direct transport,
        // regardless of how many objects each group carries.
        assert_eq!(installs as usize, gids.len() * dst.num_nodes());
    }

    #[test]
    fn export_repacks_out_tombstoned_members() {
        let mut src = seeded_source(8);
        src.delete("obj-3").unwrap();
        let gid = *src
            .sealed_group_ids()
            .first()
            .expect("at least one sealed group");
        let export = src.export_group(gid, SelectionPolicy::FirstK).unwrap();
        assert!(
            export.members.iter().all(|(name, _)| name != "obj-3"),
            "tombstoned members are left behind"
        );
        let live: usize = export.members.iter().map(|(_, s)| s.len).sum();
        assert_eq!(export.block.len(), live, "no dead bytes travel");
    }

    #[test]
    fn evict_removes_members_and_symbols() {
        let mut src = seeded_source(8);
        let gid = *src.sealed_group_ids().first().unwrap();
        let members = src.group_live_members(gid);
        let removed = src.evict_group(gid).unwrap();
        assert_eq!(removed, members.len());
        for name in &members {
            assert!(matches!(
                src.retrieve(name, SelectionPolicy::FirstK),
                Err(StorageError::UnknownObject { .. })
            ));
        }
        assert!(!src.sealed_group_ids().contains(&gid));
    }

    #[test]
    fn export_of_unknown_or_open_group_is_rejected() {
        let mut store = DistributedStore::with_groups(code(), grouped_config());
        store.store("tiny", &payload(0, 100)).unwrap(); // open group 0
        assert!(matches!(
            store.export_group(0, SelectionPolicy::FirstK),
            Err(StorageError::UnknownGroup(0))
        ));
        assert!(matches!(
            store.export_group(99, SelectionPolicy::FirstK),
            Err(StorageError::UnknownGroup(99))
        ));
        assert!(matches!(
            store.evict_group(99),
            Err(StorageError::UnknownGroup(99))
        ));
    }

    #[test]
    fn import_survives_coordinator_crash_and_replay() {
        let mut src = seeded_source(8);
        let mut dst =
            DistributedStore::with_wal(code(), grouped_config(), Box::new(MemLog::default()));
        let gid = *src.sealed_group_ids().first().unwrap();
        let export = src.export_group(gid, SelectionPolicy::FirstK).unwrap();
        let members = export.members.clone();
        dst.import_group(&export).unwrap();
        // Overwrite one imported member after the import, then crash.
        dst.store(&members[0].0, &payload(99, 150)).unwrap();
        let (nodes, wal) = dst.crash();
        let (mut recovered, report) =
            DistributedStore::recover(code(), grouped_config(), nodes, wal.unwrap()).unwrap();
        assert!(report.records_replayed >= 2);
        let (bytes, _) = recovered
            .retrieve(&members[0].0, SelectionPolicy::FirstK)
            .unwrap();
        assert_eq!(bytes, payload(99, 150), "post-import overwrite wins");
        for (name, span) in members.iter().skip(1) {
            let (bytes, _) = recovered.retrieve(name, SelectionPolicy::FirstK).unwrap();
            assert_eq!(bytes.len(), span.len);
        }
    }

    #[test]
    fn evict_survives_coordinator_crash_and_replay() {
        let mut src =
            DistributedStore::with_wal(code(), grouped_config(), Box::new(MemLog::default()));
        for i in 0..8 {
            src.store(&format!("obj-{i}"), &payload(i, 200)).unwrap();
        }
        src.flush().unwrap();
        let gid = *src.sealed_group_ids().first().unwrap();
        let members = src.group_live_members(gid);
        src.evict_group(gid).unwrap();
        let (nodes, wal) = src.crash();
        let (mut recovered, _) =
            DistributedStore::recover(code(), grouped_config(), nodes, wal.unwrap()).unwrap();
        for name in &members {
            assert!(
                matches!(
                    recovered.retrieve(name, SelectionPolicy::FirstK),
                    Err(StorageError::UnknownObject { .. })
                ),
                "{name} must stay evicted across recovery"
            );
        }
    }

    #[test]
    fn quorum_failed_import_leaves_no_trace() {
        let mut src = seeded_source(8);
        let gid = *src.sealed_group_ids().first().unwrap();
        let export = src.export_group(gid, SelectionPolicy::FirstK).unwrap();
        let mut dst = DistributedStore::with_groups(code(), grouped_config());
        // Every install is lost: the import cannot reach its quorum.
        dst.set_transport(Box::new(ChaosTransport::new(6, 11).with_loss(1.0)));
        dst.set_policy(FaultPolicy::default());
        let err = dst.import_group(&export).unwrap_err();
        assert!(matches!(err, StorageError::QuorumNotReached { .. }));
        assert!(dst.sealed_group_ids().is_empty());
        for (name, _) in &export.members {
            assert!(matches!(
                dst.retrieve(name, SelectionPolicy::FirstK),
                Err(StorageError::UnknownObject { .. })
            ));
        }
    }

    #[test]
    fn import_overwrites_raced_duplicates() {
        let mut src = seeded_source(4);
        let gid = *src.sealed_group_ids().first().unwrap();
        let export = src.export_group(gid, SelectionPolicy::FirstK).unwrap();
        let raced = export.members[0].0.clone();
        let mut dst = DistributedStore::with_groups(code(), grouped_config());
        dst.store(&raced, &payload(7, 100)).unwrap();
        dst.import_group(&export).unwrap();
        let (bytes, _) = dst.retrieve(&raced, SelectionPolicy::FirstK).unwrap();
        let want_len = export.members[0].1.len;
        assert_eq!(bytes.len(), want_len, "the imported copy wins the table");
    }

    #[test]
    fn wal_round_trips_transfer_records() {
        let members = vec![
            ("a".to_string(), ObjSpan { offset: 0, len: 3 }),
            ("b".to_string(), ObjSpan { offset: 3, len: 5 }),
        ];
        let records = vec![
            WalRecord::GroupImport {
                group: 42,
                members,
                bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            WalRecord::GroupEvict { group: 42 },
        ];
        for record in records {
            let mut out = Vec::new();
            WalRecord::encode(record.view(), &mut out);
            assert_eq!(WalRecord::from_payload(&out), Some(record));
        }
    }

    #[test]
    fn repair_covers_imported_groups() {
        let mut src = seeded_source(8);
        let mut dst = DistributedStore::with_groups(code(), grouped_config());
        for gid in src.sealed_group_ids() {
            let export = src.export_group(gid, SelectionPolicy::FirstK).unwrap();
            dst.import_group(&export).unwrap();
        }
        let target = NodeId(2);
        dst.replace_node(target).unwrap();
        let repaired = dst.repair_node(target).unwrap();
        assert_eq!(repaired, dst.sealed_group_ids().len());
    }
}
