//! Every node contact of a read lands in its report's
//! [`RetrieveReport::outcomes`], registry or not, and the
//! `storage.retrieve.outcome.*` counters are summed from those vectors.
//! Fetches and installs retry through one loop, which still treats them
//! differently: a fetch checks what arrives, an install does not.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rain_codes::ReedSolomon;
use rain_obs::Registry;
use rain_sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime};
use rain_storage::{
    Attempt, ChaosTransport, DistributedStore, FaultPolicy, GroupConfig, NodeOutcome, OutcomeTally,
    RetrieveReport, SelectionPolicy, StorageError, Transport, TransportOp, TransportStats,
};

fn code() -> Arc<ReedSolomon> {
    Arc::new(ReedSolomon::new(6, 4).unwrap())
}

fn payload(i: usize) -> Vec<u8> {
    // Every third object is past the grouping threshold.
    let len = if i.is_multiple_of(3) { 5000 } else { 300 };
    (0..len).map(|j| ((i * 31 + j) % 251) as u8).collect()
}

/// Store 24 objects, whole and grouped, then read each four times over a
/// lossy, corrupting transport with node 0 down. Returns the report of
/// every served read.
fn chaos_reads(registry: Option<&Registry>) -> Vec<RetrieveReport> {
    let mut s = DistributedStore::with_groups(code(), GroupConfig::small_objects());
    if let Some(registry) = registry {
        s.attach_registry(registry);
    }
    for i in 0..24 {
        s.store(&format!("o{i}"), &payload(i)).unwrap();
    }
    s.flush().unwrap();
    let plan = FaultPlan::none().at(SimTime::ZERO, Fault::NodeCrash(NodeId(0)));
    let chaos = ChaosTransport::new(6, 21)
        .with_plan(plan)
        .with_loss(0.3)
        .with_corruption(0.3);
    s.set_transport(Box::new(chaos));
    s.set_policy(FaultPolicy {
        max_attempts: 2,
        ..FaultPolicy::default()
    });
    let mut reports = Vec::new();
    for _ in 0..4 {
        for i in 0..24 {
            match s.retrieve(&format!("o{i}"), SelectionPolicy::FirstK) {
                Ok((data, report)) => {
                    assert_eq!(data, payload(i), "o{i}");
                    reports.push(report);
                }
                Err(StorageError::NotEnoughNodes { .. }) => {}
                Err(e) => panic!("o{i}: {e}"),
            }
        }
    }
    reports
}

#[test]
fn outcome_counters_are_the_sum_of_the_reports() {
    let registry = Registry::new();
    let reports = chaos_reads(Some(&registry));
    let mut want = OutcomeTally::default();
    for report in &reports {
        for (_, outcome) in &report.outcomes {
            match outcome {
                NodeOutcome::Ok => want.ok += 1,
                NodeOutcome::Timeout => want.timeout += 1,
                NodeOutcome::Corrupt => want.corrupt += 1,
                NodeOutcome::Down => want.down += 1,
                NodeOutcome::Stale => want.stale += 1,
            }
        }
        want.degraded_reads += u64::from(report.degraded);
        want.hedged_reads += u64::from(report.hedged);
        want.retries += u64::from(report.retries);
    }
    assert!(
        want.ok > 0 && want.timeout > 0 && want.corrupt > 0 && want.down > 0,
        "the run exercises every failure it injects: {want:?}"
    );
    assert_eq!(OutcomeTally::from_registry(&registry), want);

    // The same run with no registry attached reports the same contacts.
    let bare = chaos_reads(None);
    assert_eq!(bare, reports);
}

/// Delivers every attempt at once, damaging in flight each response from a
/// node `damaged` names, and logs every attempt.
struct Damaging {
    damaged: fn(usize) -> bool,
    log: Rc<RefCell<Vec<(usize, TransportOp)>>>,
    now: SimTime,
}

impl Transport for Damaging {
    fn attempt(&mut self, node: usize, op: TransportOp, _: u64, _: SimDuration) -> Attempt {
        self.log.borrow_mut().push((node, op));
        Attempt {
            corrupt: (self.damaged)(node),
            ..Attempt::instant_ok()
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Attempts of `op` per node.
fn attempts(log: &[(usize, TransportOp)], op: TransportOp) -> Vec<usize> {
    (0..6)
        .map(|node| log.iter().filter(|&&e| e == (node, op)).count())
        .collect()
}

#[test]
fn damaged_fetches_use_every_attempt_and_installs_land_at_once() {
    const MAX_ATTEMPTS: u32 = 4;
    let log = Rc::new(RefCell::new(Vec::new()));
    let registry = Registry::new();
    let mut s = DistributedStore::new(code());
    s.attach_registry(&registry);
    s.set_policy(FaultPolicy {
        max_attempts: MAX_ATTEMPTS,
        ..FaultPolicy::default()
    });
    s.set_transport(Box::new(Damaging {
        damaged: |_| true,
        log: log.clone(),
        now: SimTime::ZERO,
    }));

    // Installs ignore the in-flight damage flag: one attempt per node.
    s.store("obj", &[5u8; 64]).unwrap();
    assert_eq!(attempts(&log.borrow(), TransportOp::Install), [1; 6]);
    assert_eq!(s.group_stats().pending_installs, 0);

    // Every fetch is damaged: each node is asked exactly MAX_ATTEMPTS
    // times and none delivers.
    let err = s.retrieve("obj", SelectionPolicy::FirstK).unwrap_err();
    assert_eq!(
        err,
        StorageError::NotEnoughNodes {
            available: 0,
            needed: 4
        }
    );
    let per_node = MAX_ATTEMPTS as usize;
    assert_eq!(attempts(&log.borrow(), TransportOp::Fetch), [per_node; 6]);

    // Only node 0 damages: its stream ends Corrupt after every attempt,
    // and a backup serves the read.
    log.borrow_mut().clear();
    s.set_transport(Box::new(Damaging {
        damaged: |node| node == 0,
        log: log.clone(),
        now: SimTime::ZERO,
    }));
    let (out, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
    assert_eq!(out, [5u8; 64]);
    assert_eq!(report.outcomes[0], (NodeId(0), NodeOutcome::Corrupt));
    assert_eq!(report.outcomes.len(), 5, "k streams plus one backup");
    assert_eq!(report.retries, MAX_ATTEMPTS - 1);
    assert!(report.degraded);
    assert_eq!(
        attempts(&log.borrow(), TransportOp::Fetch),
        [per_node, 1, 1, 1, 1, 0]
    );
    let tally = OutcomeTally::from_registry(&registry);
    assert_eq!(
        (tally.ok, tally.corrupt),
        (4, 1),
        "only the served read counts"
    );
}
