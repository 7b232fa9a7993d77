//! The cluster **metalog**: cluster-level control state as a write-ahead
//! log of checksummed records.
//!
//! PR 8 left the cluster's routing brain — the committed
//! [`MembershipView`], handover dual overrides, and per-shard placement
//! keys — as plain in-memory maps, so a full cluster restart could replay
//! every per-shard WAL and still not know *which view is committed*. The
//! metalog closes that gap with the shard stores' own log: [`MetaLog`] is
//! the storage crate's [`RecordLog`] over [`MetaRecord`]s, so framing,
//! torn-tail tolerance, counters and checkpoint retention are the shard
//! WAL's code, and damage anywhere but the tail is an honest
//! [`rain_storage::WalError::Corrupt`]. This module only defines the
//! records (tags 1–9) and folds a replay into control state.
//!
//! The key directory is not logged: each shard's log says which keys it
//! holds, and a restart rebuilds the directory from them. Where a crash
//! leaves a key on several shards, the committed ring owner's copy wins,
//! unless a handover left the key off its ring owner while another copy
//! may remain: an **exception**. [`MetaRecord::DirPut`] `{ key, shard }`
//! records one ("`key` lives on `shard`"), no later than the `ViewCommit`
//! that creates it; [`MetaRecord::DirDel`] `{ key }` ends it, synced with
//! the shard deletes before a delete is acked. While a copy of a deleted
//! exception key sits on a down shard, the exception outlives the delete,
//! naming a shard without the key: a restart evicts every copy of such a
//! key, and ends the exception once none is left. An older metalog's `DirPut`
//! for every key replays as it is: an entry equal to the committed ring
//! owner is not an exception.
//!
//! ## Record ordering discipline
//!
//! Every record is appended **before** the in-memory mutation it
//! describes (log-then-apply); a `DirDel` follows its shard-level delete,
//! and a `HandoverAbort` its rollback's evictions, once they are synced
//! (until then, replay rolls the handover back the same way).
//!
//! A handover writes [`MetaRecord::HandoverPrepare`] before any transfer,
//! [`MetaRecord::UnitLanded`] after each import is shard-durable, and a
//! single [`MetaRecord::ViewCommit`] before the cutover mutations — replay
//! redoes the cutover deterministically from the reconstructed handover
//! state, and a prepare with no matching commit rolls back exactly like
//! [`crate::ClusterStore::abort_handover`].
//!
//! [`MetaRecord::Checkpoint`] snapshots the whole control state. The log
//! keeps two, as it does for the shard stores: the prefix before the
//! *previous* checkpoint is dropped, so a torn newest checkpoint falls
//! back to a complete older one.

use std::collections::{BTreeMap, HashMap};

use rain_storage::{FieldReader, FieldWriter, GroupId, LogRecord, Named, RecordLog};

use crate::ring::{vnodes_in_range, ShardId};
use crate::view::MembershipView;

/// What one transferred placement unit was (mirrors the cluster store's
/// private `UnitKind`, plus the id the destination assigned to a group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaUnit {
    /// A sealed coding group: its id at the source and at the destination.
    Group {
        /// The group's id at the source shard.
        gid: GroupId,
        /// The id the destination shard assigned on import.
        new_gid: GroupId,
    },
    /// An individually placed object.
    Whole {
        /// The object's key.
        name: String,
    },
}

/// One cluster-control mutation, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRecord {
    /// A membership view became committed (genesis included): the epoch,
    /// the member set, and the ring's vnode count — everything needed to
    /// rebuild the ring deterministically via [`MembershipView::restore`].
    /// Logged **before** the cutover mutations it authorises.
    ViewCommit {
        /// The committed epoch.
        epoch: u64,
        /// The committed member shards, sorted.
        members: Vec<ShardId>,
        /// Ring points per shard.
        vnodes: usize,
    },
    /// `key` lives on `shard`, off its committed ring owner: an
    /// exception to the placement rule (see the module docs).
    DirPut {
        /// The object key.
        key: String,
        /// The shard whose copy wins.
        shard: ShardId,
    },
    /// The exception for `key` ended. Logged after the shard-level delete
    /// succeeded, before the exception is forgotten.
    DirDel {
        /// The key.
        key: String,
    },
    /// Group `gid` on `shard` routes by placement key `pkey`.
    PkeyAssign {
        /// The shard holding the group.
        shard: ShardId,
        /// The group id at that shard.
        gid: GroupId,
        /// The placement key the ring routes the group by.
        pkey: String,
    },
    /// A two-phase handover toward a view over `members` began. Everything
    /// after this record and before the matching [`MetaRecord::ViewCommit`]
    /// / [`MetaRecord::HandoverAbort`] is transition state.
    HandoverPrepare {
        /// The target member set.
        members: Vec<ShardId>,
    },
    /// One planned unit transfer landed: the unit now also exists at `to`
    /// (shard-durable there), carrying `members` object keys.
    UnitLanded {
        /// The exporting shard.
        from: ShardId,
        /// The importing shard.
        to: ShardId,
        /// What moved.
        unit: MetaUnit,
        /// The object keys riding in the unit.
        members: Vec<String>,
    },
    /// `key` was dual-written during the transition and must collapse onto
    /// `shard` at commit (the freshest copy's home).
    DualOverride {
        /// The overwritten key.
        key: String,
        /// The shard whose copy wins at commit.
        shard: ShardId,
    },
    /// The in-flight handover was abandoned; the committed view stays
    /// authoritative. Logged once the rollback's evictions are durable;
    /// also appended by recovery itself when it finds a prepare with no
    /// commit.
    HandoverAbort,
    /// A full snapshot of the committed control state. Replay restarts
    /// from the newest complete checkpoint; older records become dead
    /// weight and are dropped (two-checkpoint retention).
    Checkpoint {
        /// The committed epoch.
        epoch: u64,
        /// The committed member shards, sorted.
        members: Vec<ShardId>,
        /// Ring points per shard.
        vnodes: usize,
        /// Every exception (an older metalog: every key), in the canonical
        /// order of [`rain_storage::sort_canonical`] (ascending
        /// [`rain_storage::name_hash`], ties by key), so equal states write
        /// equal bytes; replay accepts any order.
        directory: Vec<(String, ShardId)>,
        /// Every placement-key assignment, sorted by (shard, gid).
        pkeys: Vec<(ShardId, GroupId, String)>,
    },
}

const TAG_VIEW_COMMIT: u8 = 1;
const TAG_DIR_PUT: u8 = 2;
const TAG_DIR_DEL: u8 = 3;
const TAG_PKEY_ASSIGN: u8 = 4;
const TAG_HANDOVER_PREPARE: u8 = 5;
const TAG_UNIT_LANDED: u8 = 6;
const TAG_DUAL_OVERRIDE: u8 = 7;
const TAG_HANDOVER_ABORT: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;

const UNIT_GROUP: u8 = 0;
const UNIT_WHOLE: u8 = 1;

/// A ring size as a view or checkpoint record carries it: one no ring can
/// take (zero, or above [`crate::MAX_VNODES`]) makes the record corrupt.
fn vnodes(c: &mut FieldReader<'_>) -> Option<usize> {
    c.usize().filter(|&v| vnodes_in_range(v))
}

/// What a metalog append serializes from: an owned record, or a checkpoint
/// borrowed from the cluster's live tables. Both checkpoint forms write the
/// same bytes for the same entries in the same order.
#[derive(Debug, Clone, Copy)]
pub enum MetaView<'a> {
    /// Any record, owned by the caller.
    Record(&'a MetaRecord),
    /// A [`MetaRecord::Checkpoint`] read from the live tables, without
    /// copying a key.
    Checkpoint {
        /// The committed epoch.
        epoch: u64,
        /// The committed member shards, sorted.
        members: &'a [ShardId],
        /// Ring points per shard.
        vnodes: usize,
        /// Every exception, in canonical order (see
        /// [`rain_storage::sort_canonical`]).
        directory: &'a [Named<'a, ShardId>],
        /// Every placement-key assignment, sorted by (shard, gid).
        pkeys: &'a [(ShardId, GroupId, &'a str)],
    },
}

/// Write a checkpoint record, tag first. Owned and borrowed checkpoints
/// both come through here.
fn encode_checkpoint<'a>(
    out: &mut Vec<u8>,
    epoch: u64,
    vnodes: usize,
    members: &[ShardId],
    directory: impl ExactSizeIterator<Item = (&'a str, ShardId)>,
    pkeys: impl ExactSizeIterator<Item = (ShardId, GroupId, &'a str)>,
) {
    out.push(TAG_CHECKPOINT);
    out.write_u64(epoch);
    out.write_usize(vnodes);
    out.write_list(members, |out, &s| out.write_usize(s));
    out.write_list(directory, |out, (key, shard)| {
        out.write_usize(shard);
        out.write_str(key);
    });
    out.write_list(pkeys, |out, (shard, gid, pkey)| {
        out.write_usize(shard);
        out.write_u64(gid);
        out.write_str(pkey);
    });
}

/// The cluster's control-state write-ahead log, on any
/// [`rain_storage::LogBackend`] — typically a [`rain_storage::FileLog`]
/// (single-file or segmented) under a real cluster, a
/// [`rain_storage::MemLog`] in tests.
pub type MetaLog = RecordLog<MetaRecord>;

impl LogRecord for MetaRecord {
    type View<'a> = MetaView<'a>;

    fn view(&self) -> MetaView<'_> {
        MetaView::Record(self)
    }

    fn encode(view: MetaView<'_>, out: &mut Vec<u8>) {
        let record = match view {
            MetaView::Record(record) => record,
            MetaView::Checkpoint {
                epoch,
                members,
                vnodes,
                directory,
                pkeys,
            } => {
                return encode_checkpoint(
                    out,
                    epoch,
                    vnodes,
                    members,
                    directory.iter().map(|e| (e.name, e.value)),
                    pkeys.iter().copied(),
                )
            }
        };
        match record {
            MetaRecord::ViewCommit {
                epoch,
                members,
                vnodes,
            } => {
                out.push(TAG_VIEW_COMMIT);
                out.write_u64(*epoch);
                out.write_usize(*vnodes);
                out.write_list(members, |out, &s| out.write_usize(s));
            }
            MetaRecord::DirPut { key, shard } => {
                out.push(TAG_DIR_PUT);
                out.write_usize(*shard);
                out.write_str(key);
            }
            MetaRecord::DirDel { key } => {
                out.push(TAG_DIR_DEL);
                out.write_str(key);
            }
            MetaRecord::PkeyAssign { shard, gid, pkey } => {
                out.push(TAG_PKEY_ASSIGN);
                out.write_usize(*shard);
                out.write_u64(*gid);
                out.write_str(pkey);
            }
            MetaRecord::HandoverPrepare { members } => {
                out.push(TAG_HANDOVER_PREPARE);
                out.write_list(members, |out, &s| out.write_usize(s));
            }
            MetaRecord::UnitLanded {
                from,
                to,
                unit,
                members,
            } => {
                out.push(TAG_UNIT_LANDED);
                out.write_usize(*from);
                out.write_usize(*to);
                match unit {
                    MetaUnit::Group { gid, new_gid } => {
                        out.push(UNIT_GROUP);
                        out.write_u64(*gid);
                        out.write_u64(*new_gid);
                    }
                    MetaUnit::Whole { name } => {
                        out.push(UNIT_WHOLE);
                        out.write_str(name);
                    }
                }
                out.write_list(members, |out, m| out.write_str(m));
            }
            MetaRecord::DualOverride { key, shard } => {
                out.push(TAG_DUAL_OVERRIDE);
                out.write_usize(*shard);
                out.write_str(key);
            }
            MetaRecord::HandoverAbort => out.push(TAG_HANDOVER_ABORT),
            MetaRecord::Checkpoint {
                epoch,
                members,
                vnodes,
                directory,
                pkeys,
            } => encode_checkpoint(
                out,
                *epoch,
                *vnodes,
                members,
                directory.iter().map(|(key, shard)| (key.as_str(), *shard)),
                pkeys
                    .iter()
                    .map(|(shard, gid, pkey)| (*shard, *gid, pkey.as_str())),
            ),
        }
    }

    fn decode(c: &mut FieldReader<'_>) -> Option<MetaRecord> {
        Some(match c.u8()? {
            TAG_VIEW_COMMIT => MetaRecord::ViewCommit {
                epoch: c.u64()?,
                vnodes: vnodes(c)?,
                members: c.list(FieldReader::usize)?,
            },
            TAG_DIR_PUT => MetaRecord::DirPut {
                shard: c.usize()?,
                key: c.str()?,
            },
            TAG_DIR_DEL => MetaRecord::DirDel { key: c.str()? },
            TAG_PKEY_ASSIGN => MetaRecord::PkeyAssign {
                shard: c.usize()?,
                gid: c.u64()?,
                pkey: c.str()?,
            },
            TAG_HANDOVER_PREPARE => MetaRecord::HandoverPrepare {
                members: c.list(FieldReader::usize)?,
            },
            TAG_UNIT_LANDED => MetaRecord::UnitLanded {
                from: c.usize()?,
                to: c.usize()?,
                unit: match c.u8()? {
                    UNIT_GROUP => MetaUnit::Group {
                        gid: c.u64()?,
                        new_gid: c.u64()?,
                    },
                    UNIT_WHOLE => MetaUnit::Whole { name: c.str()? },
                    _ => return None,
                },
                members: c.list(FieldReader::str)?,
            },
            TAG_DUAL_OVERRIDE => MetaRecord::DualOverride {
                shard: c.usize()?,
                key: c.str()?,
            },
            TAG_HANDOVER_ABORT => MetaRecord::HandoverAbort,
            TAG_CHECKPOINT => MetaRecord::Checkpoint {
                epoch: c.u64()?,
                vnodes: vnodes(c)?,
                members: c.list(FieldReader::usize)?,
                directory: c.list(|c| {
                    let shard = c.usize()?;
                    Some((c.str()?, shard))
                })?,
                pkeys: c.list(|c| Some((c.usize()?, c.u64()?, c.str()?)))?,
            },
            _ => return None,
        })
    }

    fn is_checkpoint(view: MetaView<'_>) -> bool {
        matches!(
            view,
            MetaView::Record(MetaRecord::Checkpoint { .. }) | MetaView::Checkpoint { .. }
        )
    }
}

/// The committed control state a metalog replay reconstructs, plus the
/// transition state of a handover that was in flight at the crash.
///
/// [`MetaState::fold`] consumes the replayed records: keys and placement
/// keys move out of them into the maps below, which have the types
/// [`crate::ClusterStore`] keeps, so recovery hands them over as they are.
#[derive(Debug, Default)]
pub struct MetaState {
    /// The committed view, if any `ViewCommit`/`Checkpoint` was found.
    pub view: Option<MembershipView>,
    /// Exceptions: keys off their ring owner, and the shard whose copy wins.
    pub exceptions: HashMap<String, ShardId>,
    /// Placement keys per (shard, group).
    pub pkeys: HashMap<(ShardId, GroupId), String>,
    /// A prepare-logged handover with no matching commit/abort: its target
    /// member set, landed units, and dual overrides. Recovery rolls it
    /// back.
    pub pending: Option<PendingHandover>,
}

/// Transition state reconstructed from records between a
/// `HandoverPrepare` and its (missing) commit.
#[derive(Debug, Default)]
pub struct PendingHandover {
    /// The target member set.
    pub members: Vec<ShardId>,
    /// Landed transfers: (from, to, unit, member keys).
    pub landed: Vec<(ShardId, ShardId, MetaUnit, Vec<String>)>,
    /// Dual overrides accumulated during the transition.
    pub dual: BTreeMap<String, ShardId>,
}

impl MetaState {
    /// Fold a replayed record stream into the control state it describes.
    /// `ViewCommit` *applies* the pending handover's cutover exactly as
    /// [`crate::ClusterStore::commit_handover`] does, so a crash between
    /// the two redoes it. Entries equal to the committed ring owner (an
    /// older metalog's) are dropped. The records' keys move into the state.
    pub fn fold(records: Vec<MetaRecord>) -> MetaState {
        let mut st = MetaState::default();
        for record in records {
            match record {
                MetaRecord::Checkpoint {
                    epoch,
                    members,
                    vnodes,
                    directory,
                    pkeys,
                } => {
                    st = MetaState::default();
                    st.view = Some(MembershipView::restore(epoch, &members, vnodes));
                    st.exceptions = directory.into_iter().collect();
                    st.pkeys = pkeys.into_iter().map(|(s, g, p)| ((s, g), p)).collect();
                }
                MetaRecord::ViewCommit {
                    epoch,
                    members,
                    vnodes,
                } => {
                    let committed = MembershipView::restore(epoch, &members, vnodes);
                    if let Some(pending) = st.pending.take() {
                        st.apply_cutover(&pending, &committed);
                    }
                    st.view = Some(committed);
                }
                MetaRecord::DirPut { key, shard } => {
                    st.exceptions.insert(key, shard);
                }
                MetaRecord::DirDel { key } => {
                    st.exceptions.remove(&key);
                    if let Some(p) = &mut st.pending {
                        p.dual.remove(&key);
                    }
                }
                MetaRecord::PkeyAssign { shard, gid, pkey } => {
                    st.pkeys.insert((shard, gid), pkey);
                }
                MetaRecord::HandoverPrepare { members } => {
                    st.pending = Some(PendingHandover {
                        members,
                        ..PendingHandover::default()
                    });
                }
                MetaRecord::UnitLanded {
                    from,
                    to,
                    unit,
                    members,
                } => {
                    if let Some(p) = &mut st.pending {
                        p.landed.push((from, to, unit, members));
                    }
                }
                MetaRecord::DualOverride { key, shard } => {
                    if let Some(p) = &mut st.pending {
                        p.dual.insert(key, shard);
                    }
                }
                MetaRecord::HandoverAbort => {
                    st.abort_pending();
                }
            }
        }
        if let Some(view) = &st.view {
            st.exceptions
                .retain(|key, &mut s| view.owner_of(key) != Some(s));
        }
        st
    }

    /// Roll back the pending handover, if any, and return it. Only the
    /// pkeys its landed groups got go here; its copies are swept by the
    /// directory rebuild.
    pub fn abort_pending(&mut self) -> Option<PendingHandover> {
        let p = self.pending.take()?;
        for (_, to, unit, _) in &p.landed {
            if let MetaUnit::Group { new_gid, .. } = unit {
                self.pkeys.remove(&(*to, *new_gid));
            }
        }
        Some(p)
    }

    /// Redo the cutover a `ViewCommit` record authorised over `committed`:
    /// an exception naming a landed unit's source moves with the unit, a
    /// dual-written key lives on its override shard, and the source side's
    /// pkeys are dropped.
    fn apply_cutover(&mut self, pending: &PendingHandover, committed: &MembershipView) {
        for (from, to, unit, members) in &pending.landed {
            for m in members {
                if self.exceptions.get(m) == Some(from) {
                    place_key(&mut self.exceptions, committed, m, *to);
                }
            }
            if let MetaUnit::Group { gid, .. } = unit {
                self.pkeys.remove(&(*from, *gid));
            }
        }
        for (key, &t) in &pending.dual {
            place_key(&mut self.exceptions, committed, key, t);
        }
    }
}

/// Record in `exceptions` that `key` lives on `s` under `view`: an
/// exception unless `s` is the key's ring owner.
pub(crate) fn place_key(
    exceptions: &mut HashMap<String, ShardId>,
    view: &MembershipView,
    key: &str,
    s: ShardId,
) {
    if view.owner_of(key) == Some(s) {
        exceptions.remove(key);
    } else {
        exceptions.insert(key.to_string(), s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_storage::{LogBackend, MemLog};

    fn sample_records() -> Vec<MetaRecord> {
        vec![
            MetaRecord::ViewCommit {
                epoch: 1,
                members: vec![0, 1, 2],
                vnodes: 8,
            },
            MetaRecord::DirPut {
                key: "obj-1".into(),
                shard: 2,
            },
            MetaRecord::PkeyAssign {
                shard: 2,
                gid: 7,
                pkey: "unit/2/7#3".into(),
            },
            MetaRecord::HandoverPrepare {
                members: vec![0, 1, 2, 3],
            },
            MetaRecord::UnitLanded {
                from: 2,
                to: 3,
                unit: MetaUnit::Group { gid: 7, new_gid: 0 },
                members: vec!["obj-1".into()],
            },
            MetaRecord::DualOverride {
                key: "obj-1".into(),
                shard: 3,
            },
            MetaRecord::HandoverAbort,
            MetaRecord::DirDel {
                key: "obj-1".into(),
            },
            MetaRecord::Checkpoint {
                epoch: 4,
                members: vec![1, 2],
                vnodes: 8,
                directory: vec![("a".into(), 1), ("b".into(), 2)],
                pkeys: vec![(1, 3, "unit/1/3#0".into())],
            },
        ]
    }

    #[test]
    fn every_record_round_trips_through_the_codec() {
        for record in sample_records() {
            let mut payload = Vec::new();
            MetaRecord::encode(record.view(), &mut payload);
            assert_eq!(MetaRecord::from_payload(&payload), Some(record));
        }
    }

    #[test]
    fn replay_returns_what_was_appended_and_cuts_a_torn_tail() {
        let mut log = MetaLog::in_memory();
        for record in sample_records() {
            log.append(&record).unwrap();
        }
        let replay = log.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, sample_records());

        // A partial frame at the tail: replay stops before it, and resuming
        // cuts it so the next append extends a clean log.
        let mut torn = log.contents().unwrap();
        torn.extend_from_slice(&[0x55, 0xAA, 0x01]);
        let mut backend = MemLog::new();
        backend.append(&torn).unwrap();
        let mut log = MetaLog::new(Box::new(backend));
        let replay = log.replay().unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records, sample_records());
        log.resume(&replay, replay.newest_checkpoint()).unwrap();
        assert_eq!(log.since_checkpoint(), 0, "the last sample is a checkpoint");
        log.append(&MetaRecord::HandoverAbort).unwrap();
        let replay = log.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.last(), Some(&MetaRecord::HandoverAbort));
    }

    #[test]
    fn fold_applies_commit_and_rolls_back_unfinished_handovers() {
        // "k" lives off its ring owner, on `off`; its whole unit then moves
        // to the joining shard 2, and the exception with it (unless 2 is
        // its new ring owner). "d" is dual-written with an override off its
        // new ring owner.
        let v1 = MembershipView::restore(1, &[0, 1], 8);
        let off = 1 - v1.owner_of("k").unwrap();
        let v2 = MembershipView::restore(2, &[0, 1, 2], 8);
        let pinned = (v2.owner_of("d").unwrap() + 1) % 3;
        let records = vec![
            MetaRecord::ViewCommit {
                epoch: 1,
                members: vec![0, 1],
                vnodes: 8,
            },
            MetaRecord::DirPut {
                key: "k".into(),
                shard: off,
            },
            MetaRecord::HandoverPrepare {
                members: vec![0, 1, 2],
            },
            MetaRecord::UnitLanded {
                from: off,
                to: 2,
                unit: MetaUnit::Whole { name: "k".into() },
                members: vec!["k".into()],
            },
            MetaRecord::DualOverride {
                key: "d".into(),
                shard: pinned,
            },
            MetaRecord::ViewCommit {
                epoch: 2,
                members: vec![0, 1, 2],
                vnodes: 8,
            },
        ];
        let st = MetaState::fold(records.clone());
        assert_eq!(st.view.as_ref().unwrap().epoch(), 2);
        let mut expect: HashMap<String, ShardId> = [("d".to_string(), pinned)].into();
        if v2.owner_of("k") != Some(2) {
            expect.insert("k".to_string(), 2);
        }
        assert_eq!(st.exceptions, expect);
        assert!(st.pending.is_none());

        // Same prefix, but the commit never made it to the log: the landed
        // unit must be reported as pending so recovery rolls it back.
        let st = MetaState::fold(records[..5].to_vec());
        assert_eq!(st.view.as_ref().unwrap().epoch(), 1);
        assert_eq!(
            st.exceptions.get("k"),
            Some(&off),
            "no cutover without commit"
        );
        let pending = st.pending.expect("prepare without commit is pending");
        assert_eq!(pending.landed.len(), 1);
        assert_eq!(pending.dual.get("d"), Some(&pinned));
    }

    #[test]
    fn a_checkpoint_resets_state_and_drops_the_stale_prefix() {
        let mut log = MetaLog::in_memory();
        log.append(&MetaRecord::ViewCommit {
            epoch: 1,
            members: vec![0, 1],
            vnodes: 4,
        })
        .unwrap();
        // An older metalog's directory: every key on shard 0, which is the
        // ring owner of some of them and an exception for the rest.
        for i in 0..10 {
            log.append(&MetaRecord::DirPut {
                key: format!("k{i}"),
                shard: 0,
            })
            .unwrap();
        }
        let ckpt = MetaRecord::Checkpoint {
            epoch: 1,
            members: vec![0, 1],
            vnodes: 4,
            directory: (0..10).map(|i| (format!("k{i}"), 0)).collect(),
            pkeys: vec![],
        };
        log.append(&ckpt).unwrap();
        log.append(&ckpt).unwrap();
        // The prefix before the first checkpoint is gone; replay starts at
        // a checkpoint and keeps exactly the entries off their ring owner.
        let replay = log.replay().unwrap();
        assert!(
            matches!(replay.records[0], MetaRecord::Checkpoint { .. }),
            "pre-checkpoint records must have been dropped"
        );
        let st = MetaState::fold(replay.records);
        let view = st.view.unwrap();
        assert_eq!(view.epoch(), 1);
        let off: Vec<String> = (0..10)
            .map(|i| format!("k{i}"))
            .filter(|k| view.owner_of(k) != Some(0))
            .collect();
        assert!(!off.is_empty() && off.len() < 10, "{off:?}");
        assert_eq!(st.exceptions.len(), off.len());
        assert!(off.iter().all(|k| st.exceptions.get(k) == Some(&0)));
    }
}
