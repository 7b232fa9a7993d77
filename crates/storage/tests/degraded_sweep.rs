//! Exhaustive degraded-read sweep across code families.
//!
//! For every supported `(n, k)` code family and **every** faulty-node
//! combination of size `≤ n - k`, an acked object — one whole placement and
//! one grouped small object — must retrieve **bit-exact**, flagged degraded
//! exactly when at least one node is missing. One failure past the
//! tolerance (`|S| = n - k + 1`), the store must classify the read as
//! [`StorageError::NotEnoughNodes`] with the exact survivor count — honest
//! unavailability, never wrong bytes.
//!
//! The grouped objects sit at zero and non-zero offsets of one sealed
//! group: one straddles a data-cell boundary, one is empty, one fits in a
//! single cell. Each is read twice: as the first read of a store of its
//! own, where a healthy read is ranged — served from the shares that hold
//! the object verbatim, so it must report exactly the shares
//! the code's [`Layout`] names for its span — and in a row with the others
//! from one store, where the group is decoded once and cached.
//!
//! Proptest randomises the payloads; the faulty-node combinations are
//! enumerated exhaustively (every subset, not a sample) inside each case.

use std::sync::Arc;

use proptest::prelude::*;
use rain_codes::{build_code, CodeKind, CodeSpec, ErasureCode, Layout};
use rain_sim::NodeId;
use rain_storage::{DistributedStore, GroupConfig, RetrieveReport, SelectionPolicy, StorageError};

/// Every code family the registry supports, at its reference parameters.
fn families() -> Vec<CodeSpec> {
    vec![
        CodeSpec::new(CodeKind::BCode, 6, 4),
        CodeSpec::new(CodeKind::XCode, 5, 3),
        CodeSpec::new(CodeKind::EvenOdd, 7, 5),
        CodeSpec::new(CodeKind::ReedSolomon, 9, 6),
        CodeSpec::new(CodeKind::Mirroring, 3, 1),
        CodeSpec::new(CodeKind::SingleParity, 5, 4),
    ]
}

fn fill(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// Bytes either side of the cell boundary the straddling object crosses.
const STRADDLE: usize = 16;

/// The grouped objects, in packing order, for a code's layout and a `tiny`
/// payload at offset 0, plus the block length they fill exactly (a
/// multiple of the code's unit, so the sealed block is this long with no
/// padding).
fn grouped_objects(
    code: &dyn ErasureCode,
    layout: &Layout,
    tiny: &[u8],
) -> (Vec<(&'static str, Vec<u8>)>, usize) {
    let unit = code.data_len_unit();
    let block = 4800usize.div_ceil(unit) * unit;
    // The first cell boundary at least STRADDLE past `tiny`. A mirror has
    // one cell, the whole block; its "boundary" is then an arbitrary point.
    let probe = tiny.len() + STRADDLE;
    let (_, _, run) = layout.locate(block, probe).expect("every family locates");
    let boundary = (probe + run).min(block - 1024);
    let mut objects = vec![
        ("tiny", tiny.to_vec()),
        ("filler", fill(1, boundary - STRADDLE - tiny.len())),
        ("straddle", fill(2, 2 * STRADDLE)),
        ("empty", Vec::new()),
        ("one-cell", fill(3, 8)),
    ];
    let rest = block - boundary - STRADDLE - 8;
    objects.push(("tail-a", fill(4, rest / 2)));
    objects.push(("tail-b", fill(5, rest - rest / 2)));
    (objects, block)
}

/// The distinct shares `layout` names for `len` bytes at `offset`.
fn covering(layout: &Layout, block: usize, offset: usize, len: usize) -> Vec<usize> {
    let mut shares = Vec::new();
    let mut at = offset;
    while at < offset + len {
        let (share, _, run) = layout.locate(block, at).expect("in range");
        if !shares.contains(&share) {
            shares.push(share);
        }
        at += run;
    }
    shares
}

/// A store holding `whole` (if any) and the grouped objects, sealed into
/// one group, with the nodes in `mask` then failed.
fn loaded_store(
    code: &Arc<dyn ErasureCode>,
    whole: Option<&[u8]>,
    grouped: &[(&str, Vec<u8>)],
    mask: u32,
) -> DistributedStore {
    let mut store = DistributedStore::with_groups(code.clone(), GroupConfig::small_objects());
    if let Some(whole) = whole {
        store.store("whole", whole).expect("healthy store");
    }
    for (name, bytes) in grouped {
        store.store(name, bytes).expect("healthy store");
    }
    store.flush().expect("healthy flush");
    assert_eq!(store.group_stats().sealed_groups, 1);
    for i in 0..code.n() {
        if mask & (1 << i) != 0 {
            store.fail_node(NodeId(i)).expect("fail known node");
        }
    }
    store
}

/// Check one read under the faulty set `mask`. Within tolerance: bit-exact
/// bytes, exact degraded flag, no faulty node among the sources, and, when
/// `covering` is given and no node is faulty, exactly those sources. One
/// past tolerance: honest unavailability with the exact survivor count,
/// never bytes.
fn check_read(
    spec: CodeSpec,
    mask: u32,
    name: &str,
    want: &[u8],
    got: Result<(Vec<u8>, RetrieveReport), StorageError>,
    covering: Option<Vec<usize>>,
) -> Result<(), TestCaseError> {
    let (n, k) = (spec.n, spec.k);
    let faulty = mask.count_ones() as usize;
    if faulty > n - k {
        return match got {
            Err(StorageError::NotEnoughNodes { available, needed }) => {
                prop_assert_eq!(available, n - faulty);
                prop_assert_eq!(needed, k);
                Ok(())
            }
            Err(e) => Err(TestCaseError::Fail(format!(
                "{spec:?} faulty={mask:#b}: {name} wrong error class: {e}"
            ))),
            Ok(_) => Err(TestCaseError::Fail(format!(
                "{spec:?} faulty={mask:#b}: {name} decoded past tolerance"
            ))),
        };
    }
    let (bytes, report) = got.map_err(|e| {
        TestCaseError::Fail(format!(
            "{spec:?} faulty={mask:#b}: {name} unavailable within tolerance: {e}"
        ))
    })?;
    prop_assert!(
        bytes == want,
        "{:?} faulty={:#b}: {} bytes diverged",
        spec,
        mask,
        name
    );
    prop_assert!(
        report.degraded == (faulty > 0),
        "{:?} faulty={:#b}: {} degraded misclassified",
        spec,
        mask,
        name
    );
    prop_assert!(
        report.sources.iter().all(|s| mask & (1 << s.0) == 0),
        "{:?} faulty={:#b}: {} read from a failed node",
        spec,
        mask,
        name
    );
    if let (0, Some(mut want_sources)) = (faulty, covering) {
        let mut sources: Vec<usize> = report.sources.iter().map(|s| s.0).collect();
        sources.sort_unstable();
        want_sources.sort_unstable();
        prop_assert!(
            sources == want_sources,
            "{:?}: {} read {:?}, not the covering {:?}",
            spec,
            name,
            sources,
            want_sources
        );
    }
    Ok(())
}

/// Check one `(family, faulty-set)` pair. `mask` encodes the faulty nodes.
fn check_subset(spec: CodeSpec, mask: u32, whole: &[u8], tiny: &[u8]) -> Result<(), TestCaseError> {
    let code = build_code(spec).expect("reference spec must build");
    let layout = Layout::of(code.as_ref()).expect("every family has a layout");
    let (grouped, block) = grouped_objects(code.as_ref(), &layout, tiny);
    let mut spans = Vec::new();
    let mut offset = 0;
    for (_, bytes) in &grouped {
        spans.push((offset, bytes.len()));
        offset += bytes.len();
    }
    assert_eq!(offset, block, "the objects fill the block exactly");
    if spec.kind != CodeKind::Mirroring {
        // The straddling object's first cell ends halfway through it.
        let (at, _) = spans[2];
        let first_run = layout.locate(block, at).map(|(_, _, run)| run);
        prop_assert!(
            first_run == Some(STRADDLE),
            "{:?}: no cell boundary crossed",
            spec
        );
    }

    let mut shared = loaded_store(&code, Some(whole), &grouped, mask);
    let got = shared.retrieve("whole", SelectionPolicy::LeastLoaded);
    check_read(spec, mask, "whole", whole, got, None)?;
    // Each grouped object first as the only read of its group's store: a
    // healthy read is then ranged, from exactly the covering shares.
    for ((name, bytes), &(at, len)) in grouped.iter().zip(&spans) {
        let mut store = loaded_store(&code, None, &grouped, mask);
        let got = store.retrieve(name, SelectionPolicy::LeastLoaded);
        let want_sources = covering(&layout, block, at, len);
        if *name == "one-cell" {
            prop_assert_eq!(want_sources.len(), 1);
        }
        check_read(spec, mask, name, bytes, got, Some(want_sources))?;
    }
    // Then all in a row from one store: the second read decodes the group
    // and the rest are served from the decode cache.
    for (name, bytes) in &grouped {
        let got = shared.retrieve(name, SelectionPolicy::LeastLoaded);
        check_read(spec, mask, name, bytes, got, None)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite: for random payloads, walk every code family and every
    /// faulty-node subset up to one past the code's tolerance.
    #[test]
    fn every_tolerable_failure_combination_reads_bit_exact(
        seed in any::<u64>(),
        wlen in 4096usize..4600,
        tlen in 16usize..2000,
    ) {
        let whole = fill(seed, wlen);
        let tiny = fill(seed ^ 0xFF, tlen);
        for spec in families() {
            let tolerance = spec.n - spec.k;
            for mask in 0u32..(1 << spec.n) {
                let faulty = mask.count_ones() as usize;
                if faulty <= tolerance + 1 {
                    check_subset(spec, mask, &whole, &tiny)?;
                }
            }
        }
    }
}
