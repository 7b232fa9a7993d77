//! The transport seam between the coordinator and its storage nodes.
//!
//! [`DistributedStore`](crate::DistributedStore) keeps its `Vec` of node
//! symbol stores as the ground-truth fabric — real machines holding real
//! bytes — but every operation that *crosses the network* (installing,
//! fetching, or deleting a symbol; probing a node) first asks a
//! [`Transport`] what fate the attempt meets: did it succeed, how long did
//! it take, and did the response arrive corrupted. Only when the fate says
//! *delivered* does the store move the bytes.
//!
//! Three implementations cover the spectrum:
//!
//! * [`DirectTransport`] — the legacy in-process call: always succeeds,
//!   zero latency. The default; existing callers see no change.
//! * [`ChaosTransport`] — a standalone fault injector: per-node crash /
//!   unreachable / gray-slowdown state driven by a
//!   [`FaultPlan`], plus seeded random loss and
//!   response corruption. No network model, so it is cheap enough for
//!   property tests.
//! * [`SimNetTransport`] — routes every attempt through a
//!   [`rain_sim::Network`]: routing over the healthy links, per-link
//!   latency and loss, and gray-failure slowdowns, so node and link faults
//!   affect the store the way they would a real network.
//!
//! Time is virtual ([`SimTime`]/[`SimDuration`]) and every random draw
//! comes from a seeded [`DetRng`], so any schedule of faults replays
//! bit-identically.
//!
//! The store's failure policy — deadlines, bounded retries with jittered
//! exponential backoff, hedged reads, quorum writes — is configured with
//! [`FaultPolicy`] and implemented in [`crate::store`]; this module only
//! decides the fate of individual attempts.
//!
//! Symbols travel (and rest) inside a self-verifying **share frame**:
//!
//! ```text
//! [generation: u64 LE][checksum of chunk 0: u64 LE]..[checksum of chunk c-1][payload]
//! ```
//!
//! The payload is cut into [`FRAME_CHUNK`] (4 KiB) chunks, the last one
//! possibly short, and each chunk has its own checksum, seeded with the
//! generation, the chunk index and the payload length. The chunk count
//! follows from the frame length ([`frame_payload_len`]), so a payload of
//! at most one chunk keeps a 16-byte header. The checksums turn a
//! corrupted response into a detected erasure instead of a poisoned
//! decode; the generation stamp keeps a quorum-partial overwrite from ever
//! mixing old and new shares in one decode (each share checksums fine on
//! its own — only the generation exposes the mix).
//!
//! A decode or a repair verifies every chunk ([`open_frame`]). A ranged
//! read verifies only the chunks covering the bytes it returns
//! ([`open_range`]), so a 256-byte read of a 16 KiB share hashes one chunk,
//! not the share. The store builds frames where it encodes them: the code
//! writes each share into the payload region of a buffer with the header
//! space reserved, and [`seal_in_place`] stamps the header.

use std::ops::Range;

use rain_sim::{DetRng, Fault, FaultPlan, Network, NodeId, SimDuration, SimTime};

/// What a transport attempt was trying to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportOp {
    /// Push a symbol frame to the node.
    Install,
    /// Read a symbol frame back from the node.
    Fetch,
    /// Remove a symbol from the node.
    Delete,
    /// Liveness check carrying no payload.
    Probe,
}

/// Why a transport attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The node itself is down (it cannot serve even if packets arrive).
    NodeDown,
    /// No functioning path reaches the node (partition, link failure).
    Unreachable,
    /// The request or response was silently lost in flight; the caller
    /// learns only by waiting out its patience.
    Lost,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::NodeDown => write!(f, "node down"),
            TransportError::Unreachable => write!(f, "no route to node"),
            TransportError::Lost => write!(f, "message lost"),
        }
    }
}

/// The fate of one transport attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Whether the operation reached the node and its response came back.
    pub outcome: Result<(), TransportError>,
    /// Time from dispatch until the requester *learned* the outcome: the
    /// round trip for a success, the wait it took to give up for a loss.
    pub latency: SimDuration,
    /// True if the response arrived but was damaged in flight. The payload
    /// did make it — verification (checksum) is the caller's job, which is
    /// the point: corruption must be *detected*, not announced.
    pub corrupt: bool,
}

impl Attempt {
    /// An instantaneous clean success (the direct-call fate).
    pub fn instant_ok() -> Self {
        Attempt {
            outcome: Ok(()),
            latency: SimDuration::ZERO,
            corrupt: false,
        }
    }
}

/// Classification of one node's contribution to a retrieve, surfaced in
/// [`RetrieveReport::outcomes`](crate::RetrieveReport::outcomes) so an
/// operator can see *why* a read degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NodeOutcome {
    /// A verified share arrived in time.
    Ok,
    /// Every attempt timed out or was lost within the deadline.
    Timeout,
    /// A response arrived but failed checksum verification.
    Corrupt,
    /// The node (or every path to it) was down.
    Down,
    /// The share carried a stale generation — a leftover of an overwrite
    /// that never completed on this node.
    Stale,
}

/// Running counters kept by every transport implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Total attempts, across all operations.
    pub attempts: u64,
    /// Attempts that succeeded.
    pub ok: u64,
    /// Attempts refused because the node was down.
    pub node_down: u64,
    /// Attempts that found no path to the node.
    pub unreachable: u64,
    /// Attempts lost in flight.
    pub lost: u64,
    /// Successful attempts whose response arrived corrupted.
    pub corrupted: u64,
}

impl TransportStats {
    fn record(&mut self, attempt: &Attempt) {
        self.attempts += 1;
        match attempt.outcome {
            Ok(()) => {
                self.ok += 1;
                if attempt.corrupt {
                    self.corrupted += 1;
                }
            }
            Err(TransportError::NodeDown) => self.node_down += 1,
            Err(TransportError::Unreachable) => self.unreachable += 1,
            Err(TransportError::Lost) => self.lost += 1,
        }
    }
}

/// The fate model: who decides what happens to bytes crossing the network.
///
/// Implementations must be deterministic given their seed and the sequence
/// of calls — the fault-injection harness depends on bit-identical replays.
pub trait Transport {
    /// Decide the fate of one `op` against `node` (a store node index),
    /// moving `bytes` payload bytes. `patience` is how long the caller is
    /// willing to wait before declaring the attempt lost; a lost attempt
    /// reports that full wait as its latency.
    fn attempt(
        &mut self,
        node: usize,
        op: TransportOp,
        bytes: u64,
        patience: SimDuration,
    ) -> Attempt;

    /// The transport's current virtual time.
    fn now(&self) -> SimTime;

    /// Advance virtual time (applying any fault schedule that came due).
    fn advance(&mut self, by: SimDuration);

    /// Counters accumulated so far.
    fn stats(&self) -> TransportStats;
}

// ---------------------------------------------------------------------------
// Share framing
// ---------------------------------------------------------------------------

/// Payload bytes covered by one chunk checksum. A ranged read verifies the
/// chunks that cover the bytes it returns, not the whole share.
pub const FRAME_CHUNK: usize = 4096;

/// Header bytes of a frame whose payload fits in one chunk: generation (8)
/// plus one checksum (8). It is also the length of the shortest frame, one
/// with an empty payload.
pub const FRAME_HEADER: usize = 16;

/// Number of chunk checksums in the frame of a `payload_len`-byte payload:
/// one per started [`FRAME_CHUNK`], and one for an empty payload.
fn frame_chunks(payload_len: usize) -> usize {
    payload_len.div_ceil(FRAME_CHUNK).max(1)
}

/// Total length of the frame of a `payload_len`-byte payload.
pub fn frame_len(payload_len: usize) -> usize {
    8 + 8 * frame_chunks(payload_len) + payload_len
}

/// The payload length a frame of `frame_len` bytes carries, or `None` for
/// a length no payload produces (shorter than [`FRAME_HEADER`], or one of
/// the few lengths where a payload would need one checksum more than the
/// header has room for).
pub fn frame_payload_len(frame_len: usize) -> Option<usize> {
    let body = frame_len.checked_sub(8)?;
    let chunks = body.div_ceil(FRAME_CHUNK + 8).max(1);
    let payload = body.checked_sub(8 * chunks)?;
    (frame_chunks(payload) == chunks).then_some(payload)
}

/// Multiplier of the checksum's mix step.
const PRIME: u64 = 0x100_0000_01b3;

/// One step of the checksum: absorb word `w` into state `h`.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(PRIME);
    h ^ (h >> 29)
}

/// The four lane states of chunk `index` of a `payload_len`-byte payload
/// stamped `gen`, before any payload word is absorbed.
#[inline(always)]
fn seed_lanes(gen: u64, index: usize, payload_len: usize) -> [u64; 4] {
    let seed = mix(
        mix(mix(0x9e37_79b9_7f4a_7c15, gen), index as u64),
        payload_len as u64,
    );
    [
        seed,
        seed.rotate_left(17) ^ PRIME,
        seed.rotate_left(31) ^ PRIME.rotate_left(24),
        seed.rotate_left(47) ^ PRIME.rotate_left(48),
    ]
}

/// Fold the four lanes into one state through the same injective mix.
#[inline(always)]
fn fold_lanes(lanes: [u64; 4]) -> u64 {
    let mut h = lanes[0];
    for (i, lane) in lanes.iter().enumerate().skip(1) {
        h = mix(h, lane.rotate_left(i as u32 * 13));
    }
    h
}

/// Word-wide mix checksum over chunk `index` of a `payload_len`-byte share
/// payload stamped `gen`. Not cryptographic — it exists to catch bit
/// damage, and it must be cheap enough to sit on the store's hot path.
/// Generation, index and payload length seed the hash, so a chunk does not
/// verify at another index, in another generation or in a frame of another
/// size. Four independent lanes eat 32 bytes per round so the multiply
/// latencies overlap instead of serialising (a single-lane chain is
/// latency-bound at one multiply per word); the lanes fold together
/// through the same injective mix at the end, so damage to any input word
/// still changes the result.
///
/// This is the scalar kernel and the oracle of the wide one: the frame
/// functions hash eight full chunks at once where the CPU allows, and
/// every sum equals this function's.
pub fn share_checksum(gen: u64, index: usize, payload_len: usize, chunk: &[u8]) -> u64 {
    let mut lanes = seed_lanes(gen, index, payload_len);
    let mut blocks = chunk.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("exact block"));
            *lane = mix(*lane, w);
        }
    }
    let mut h = fold_lanes(lanes);
    let mut tail = blocks.remainder().chunks_exact(8);
    for c in &mut tail {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("exact chunk")));
    }
    let rem = tail.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(last));
    }
    h
}

/// Full chunks the wide kernel hashes per call.
const WIDE_CHUNKS: usize = 8;

/// The chunk-checksum kernel the frame functions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// [`share_checksum`], one chunk at a time.
    Scalar,
    /// [`checksum8_avx512`] over each run of eight full chunks, the scalar
    /// kernel for the rest.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                return Kernel::Avx512;
            }
        }
        Kernel::Scalar
    }
}

/// Checksums of the eight full chunks `first..first + 8` of a
/// `payload_len`-byte payload stamped `gen`; `chunks` is their
/// `8 * FRAME_CHUNK` bytes. Chunk `c`'s four lanes are one half of
/// register `c / 2`, so the eight chunks run as 32 independent multiply
/// chains in four registers, and no lane ever moves between registers.
/// Seeds, mix and fold are [`share_checksum`]'s, so each sum is the same.
///
/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn checksum8_avx512(
    gen: u64,
    first: usize,
    payload_len: usize,
    chunks: &[u8],
) -> [u64; WIDE_CHUNKS] {
    use std::arch::x86_64::*;

    assert_eq!(chunks.len(), WIDE_CHUNKS * FRAME_CHUNK);
    let mut lanes = [0u64; 4 * WIDE_CHUNKS];
    for (c, four) in lanes.chunks_exact_mut(4).enumerate() {
        four.copy_from_slice(&seed_lanes(gen, first + c, payload_len));
    }
    let prime = _mm512_set1_epi64(PRIME as i64);
    let mut regs: [__m512i; WIDE_CHUNKS / 2] =
        std::array::from_fn(|r| _mm512_loadu_si512(lanes[8 * r..].as_ptr().cast()));
    let base = chunks.as_ptr();
    for block in (0..FRAME_CHUNK).step_by(32) {
        for (r, reg) in regs.iter_mut().enumerate() {
            // SAFETY: both 32-byte reads lie inside `chunks`, whose length
            // was asserted above.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_si256(base.add(2 * r * FRAME_CHUNK + block).cast()),
                    _mm256_loadu_si256(base.add((2 * r + 1) * FRAME_CHUNK + block).cast()),
                )
            };
            let words = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi);
            let h = _mm512_mullo_epi64(_mm512_xor_si512(*reg, words), prime);
            *reg = _mm512_xor_si512(h, _mm512_srli_epi64::<29>(h));
        }
    }
    for (r, reg) in regs.iter().enumerate() {
        _mm512_storeu_si512(lanes[8 * r..].as_mut_ptr().cast(), *reg);
    }
    std::array::from_fn(|c| {
        fold_lanes([
            lanes[4 * c],
            lanes[4 * c + 1],
            lanes[4 * c + 2],
            lanes[4 * c + 3],
        ])
    })
}

/// Hand the checksums of chunks `chunks` of `payload` (stamped `gen`) to
/// `each` in index order, stopping as soon as `each` returns false.
/// Returns whether every call returned true.
fn chunk_sums(
    kernel: Kernel,
    gen: u64,
    payload: &[u8],
    chunks: Range<usize>,
    mut each: impl FnMut(usize, u64) -> bool,
) -> bool {
    let mut index = chunks.start;
    while index < chunks.end {
        #[cfg(target_arch = "x86_64")]
        {
            let wide_end = index + WIDE_CHUNKS;
            if kernel == Kernel::Avx512
                && wide_end <= chunks.end
                && wide_end * FRAME_CHUNK <= payload.len()
            {
                let wide = &payload[index * FRAME_CHUNK..wide_end * FRAME_CHUNK];
                // SAFETY: `Kernel::detect` chose `Avx512` only after finding
                // avx512f and avx512dq on this CPU.
                let sums = unsafe { checksum8_avx512(gen, index, payload.len(), wide) };
                if !(index..wide_end).zip(sums).all(|(i, sum)| each(i, sum)) {
                    return false;
                }
                index = wide_end;
                continue;
            }
        }
        let sum = share_checksum(gen, index, payload.len(), chunk_of(payload, index));
        if !each(index, sum) {
            return false;
        }
        index += 1;
    }
    true
}

/// Stamp `gen` and the chunk checksums into the header of `frame`, a
/// buffer of [`frame_len`] bytes whose payload region (everything after
/// the header) already holds the share. This is how the store seals the
/// buffers it encodes into: no copy of the payload.
///
/// # Panics
///
/// If `frame.len()` is not a length [`frame_payload_len`] accepts.
pub fn seal_in_place(gen: u64, frame: &mut [u8]) {
    seal_with(Kernel::detect(), gen, frame);
}

/// [`seal_in_place`] on the scalar kernel alone: the same bytes, one
/// [`share_checksum`] per chunk. Kept so that tests and benchmarks run the
/// fallback on any CPU.
///
/// # Panics
///
/// If `frame.len()` is not a length [`frame_payload_len`] accepts.
pub fn seal_in_place_scalar(gen: u64, frame: &mut [u8]) {
    seal_with(Kernel::Scalar, gen, frame);
}

fn seal_with(kernel: Kernel, gen: u64, frame: &mut [u8]) {
    let payload_len = frame_payload_len(frame.len()).expect("a valid frame length");
    let (header, payload) = frame.split_at_mut(frame.len() - payload_len);
    header[..8].copy_from_slice(&gen.to_le_bytes());
    let sums = &mut header[8..];
    chunk_sums(kernel, gen, payload, 0..sums.len() / 8, |index, sum| {
        sums[8 * index..8 * index + 8].copy_from_slice(&sum.to_le_bytes());
        true
    });
}

/// Wrap a share payload in its self-verifying frame:
/// `[generation][one checksum per chunk][payload]`.
pub fn seal_frame(gen: u64, payload: &[u8]) -> Vec<u8> {
    let len = frame_len(payload.len());
    let mut frame = Vec::with_capacity(len);
    frame.resize(len - payload.len(), 0);
    frame.extend_from_slice(payload);
    seal_in_place(gen, &mut frame);
    frame
}

/// Payload bytes of chunk `index` (the last chunk may be short; the only
/// chunk of an empty payload is empty).
fn chunk_of(payload: &[u8], index: usize) -> &[u8] {
    let start = (index * FRAME_CHUNK).min(payload.len());
    &payload[start..(start + FRAME_CHUNK).min(payload.len())]
}

/// Check chunks `chunks` of `frame` and return `(generation, payload)`, or
/// `None` when the length is invalid or a checked chunk does not match.
fn verify_chunks(kernel: Kernel, frame: &[u8], chunks: Range<usize>) -> Option<(u64, &[u8])> {
    let (gen, payload) = split_frame(frame)?;
    let sums = &frame[8..frame.len() - payload.len()];
    let stored = |index: usize| {
        u64::from_le_bytes(
            sums[8 * index..8 * index + 8]
                .try_into()
                .expect("in the header"),
        )
    };
    chunk_sums(kernel, gen, payload, chunks, |index, sum| {
        sum == stored(index)
    })
    .then_some((gen, payload))
}

/// Verify every chunk of a frame and return `(generation, payload)`, or
/// `None` when the frame has an impossible length or any checksum does
/// not match — i.e. the share is one more erasure, never an input to
/// decode.
pub fn open_frame(frame: &[u8]) -> Option<(u64, &[u8])> {
    let chunks = frame_chunks(frame_payload_len(frame.len())?);
    verify_chunks(Kernel::detect(), frame, 0..chunks)
}

/// The chunks a ranged read of `len` bytes at `offset` verifies: those
/// that hold a byte of the range, or, for an empty range, the one chunk
/// holding `offset` (so the generation is still checked).
fn covering_chunks(payload_len: usize, offset: usize, len: usize) -> Range<usize> {
    let last = frame_chunks(payload_len) - 1;
    let first = (offset / FRAME_CHUNK).min(last);
    let end = match len {
        0 => first,
        _ => ((offset + len - 1) / FRAME_CHUNK).min(last),
    };
    first..end + 1
}

/// Payload bytes [`open_range`] hashes to verify `len` bytes at `offset`
/// of a `payload_len`-byte payload: the whole covering chunks.
pub(crate) fn range_verified_len(payload_len: usize, offset: usize, len: usize) -> usize {
    let chunks = covering_chunks(payload_len, offset, len);
    (chunks.end * FRAME_CHUNK).min(payload_len) - chunks.start * FRAME_CHUNK
}

/// Verify only the chunks covering `len` payload bytes at `offset` and
/// return `(generation, those bytes)`, or `None` when the frame has an
/// impossible length, the range runs past the payload, or a covering
/// checksum does not match. Damage outside the covering chunks goes
/// unnoticed, which is the point: the caller never sees those bytes.
pub fn open_range(frame: &[u8], offset: usize, len: usize) -> Option<(u64, &[u8])> {
    let payload_len = frame_payload_len(frame.len())?;
    let end = offset.checked_add(len).filter(|&end| end <= payload_len)?;
    let chunks = covering_chunks(payload_len, offset, len);
    let (gen, payload) = verify_chunks(Kernel::detect(), frame, chunks)?;
    Some((gen, &payload[offset..end]))
}

/// Split a frame into `(generation, payload)` **without** verifying any
/// checksum, or `None` for an impossible length. Only for frames already
/// verified by [`open_frame`] or [`open_range`] in the same operation — it
/// spares the hot path a second pass over the payload — or to order frames
/// by their claimed generation before opening them.
pub fn split_frame(frame: &[u8]) -> Option<(u64, &[u8])> {
    let payload_len = frame_payload_len(frame.len())?;
    let gen = u64::from_le_bytes(frame[..8].try_into().expect("header"));
    Some((gen, &frame[frame.len() - payload_len..]))
}

// ---------------------------------------------------------------------------
// Failure policy
// ---------------------------------------------------------------------------

/// The store's failure-handling knobs: how long to wait, how often to
/// retry, when to hedge, and how much of a write may complete in the
/// background. The defaults are generous enough that [`DirectTransport`]
/// (every attempt an instant success) behaves exactly like the historical
/// direct-call store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Patience per attempt: a request unanswered for this long is
    /// declared lost and retried (or handed to the next node).
    pub attempt_timeout: SimDuration,
    /// Overall per-request deadline. A node whose retries would cross the
    /// deadline is given up on.
    pub deadline: SimDuration,
    /// Attempts per node before moving on (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff between retries against the same node; attempt `i`
    /// waits `backoff << (i - 1)`, plus jitter.
    pub backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to
    /// this fraction of itself, drawn from the store's deterministic RNG,
    /// so synchronized retries against a recovering node spread out.
    pub backoff_jitter: f64,
    /// Hedged reads: when the decode is still short of `k` shares at this
    /// threshold — or its slowest needed share lands after it — one extra
    /// share is requested from an unused node and the earliest `k`
    /// arrivals win. `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
    /// Quorum writes: a store operation acks once `n - write_slack`
    /// symbols install (never fewer than `k`); the remainder is queued and
    /// retried by [`complete_writes`](crate::DistributedStore::complete_writes),
    /// with the outstanding bytes reported as
    /// [`pending_install_bytes`](crate::GroupStats::pending_install_bytes).
    pub write_slack: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            attempt_timeout: SimDuration::from_millis(10),
            deadline: SimDuration::from_millis(50),
            max_attempts: 3,
            backoff: SimDuration::from_micros(500),
            backoff_jitter: 0.5,
            hedge_after: None,
            write_slack: 0,
        }
    }
}

impl FaultPolicy {
    /// A tail-latency-sensitive profile: short patience, early hedging,
    /// and one symbol's worth of write slack. Used by the fault-injection
    /// scenarios; a reasonable starting point for interactive reads.
    pub fn hedged() -> Self {
        FaultPolicy {
            attempt_timeout: SimDuration::from_millis(2),
            deadline: SimDuration::from_millis(20),
            max_attempts: 2,
            backoff: SimDuration::from_micros(200),
            backoff_jitter: 0.5,
            hedge_after: Some(SimDuration::from_micros(500)),
            write_slack: 1,
        }
    }

    /// The backoff before retry number `attempt` (1-based count of
    /// attempts already made), jittered from `rng`.
    pub(crate) fn backoff_before_retry(&self, attempt: u32, rng: &mut DetRng) -> SimDuration {
        let base = self
            .backoff
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16));
        let jitter_micros = (base.as_micros() as f64 * self.backoff_jitter) as u64;
        if jitter_micros == 0 {
            return base;
        }
        base + SimDuration::from_micros(rng.below(jitter_micros + 1))
    }
}

// ---------------------------------------------------------------------------
// DirectTransport
// ---------------------------------------------------------------------------

/// The legacy in-process "network": every attempt is an instant, clean
/// success. Installing on a *down* node still succeeds — exactly the
/// historical store semantics, where up/down only gated read selection.
#[derive(Debug, Default)]
pub struct DirectTransport {
    now: SimTime,
    stats: TransportStats,
}

impl DirectTransport {
    /// A fresh direct transport at time zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for DirectTransport {
    fn attempt(&mut self, _node: usize, _op: TransportOp, _bytes: u64, _p: SimDuration) -> Attempt {
        let a = Attempt::instant_ok();
        self.stats.record(&a);
        a
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// ChaosTransport
// ---------------------------------------------------------------------------

/// A network-model-free fault injector: per-node down / cut-off / slowdown
/// state driven by a [`FaultPlan`], plus seeded random loss and response
/// corruption. Node faults map directly; `LinkDown(LinkId(i))` /
/// `LinkUp(LinkId(i))` are interpreted as *the path to store node `i`*
/// going away and coming back, so [`FaultPlan::flapping_link`] drives a
/// flapping path without building a fabric.
#[derive(Debug)]
pub struct ChaosTransport {
    now: SimTime,
    stats: TransportStats,
    rng: DetRng,
    down: Vec<bool>,
    cut: Vec<bool>,
    slow: Vec<u32>,
    /// Remaining scheduled faults, sorted by time (soonest last, popped).
    schedule: Vec<(SimTime, Fault)>,
    /// Round-trip service latency against a healthy node.
    pub base_latency: SimDuration,
    /// Uniform extra latency in `[0, jitter]` per attempt.
    pub jitter: SimDuration,
    /// Probability an attempt is silently lost.
    pub loss: f64,
    /// Probability a successful fetch's response arrives corrupted.
    pub corruption: f64,
}

impl ChaosTransport {
    /// A chaos transport over `n` store nodes, healthy and fault-free,
    /// with all randomness drawn from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        ChaosTransport {
            now: SimTime::ZERO,
            stats: TransportStats::default(),
            rng: DetRng::new(seed),
            down: vec![false; n],
            cut: vec![false; n],
            slow: vec![1; n],
            schedule: Vec::new(),
            base_latency: SimDuration::from_micros(200),
            jitter: SimDuration::from_micros(50),
            loss: 0.0,
            corruption: 0.0,
        }
    }

    /// Install a fault schedule; actions fire as [`Transport::advance`]
    /// moves time past them. Replaces any previous schedule.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        let mut events = plan.into_sorted();
        events.reverse(); // soonest last, so firing is a pop
        self.schedule = events;
        self.run_schedule();
        self
    }

    /// Set the message loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }

    /// Set the response corruption probability.
    pub fn with_corruption(mut self, corruption: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corruption),
            "corruption must be a probability"
        );
        self.corruption = corruption;
        self
    }

    /// Apply every scheduled action that is due at or before `now`.
    fn run_schedule(&mut self) {
        while let Some(&(t, fault)) = self.schedule.last() {
            if t > self.now {
                break;
            }
            self.schedule.pop();
            match fault {
                Fault::NodeCrash(NodeId(i)) => self.set(i, |s, i| s.down[i] = true),
                Fault::NodeRecover(NodeId(i)) => self.set(i, |s, i| s.down[i] = false),
                Fault::NodeDegrade(NodeId(i), f) => self.set(i, move |s, i| s.slow[i] = f.max(1)),
                Fault::NodeRestore(NodeId(i)) => self.set(i, |s, i| s.slow[i] = 1),
                rain_sim::Fault::LinkDown(l) => self.set(l.0, |s, i| s.cut[i] = true),
                rain_sim::Fault::LinkUp(l) => self.set(l.0, |s, i| s.cut[i] = false),
            }
        }
    }

    fn set(&mut self, i: usize, f: impl FnOnce(&mut Self, usize)) {
        if i < self.down.len() {
            f(self, i);
        }
    }
}

impl Transport for ChaosTransport {
    fn attempt(
        &mut self,
        node: usize,
        op: TransportOp,
        _bytes: u64,
        patience: SimDuration,
    ) -> Attempt {
        let a = if node >= self.down.len() || self.down[node] {
            // A crashed node refuses fast: the failure is learned in one
            // round trip, not by waiting out the patience.
            Attempt {
                outcome: Err(TransportError::NodeDown),
                latency: self.base_latency,
                corrupt: false,
            }
        } else if self.cut[node] {
            // A severed path blackholes silently; the caller learns only
            // by giving up.
            Attempt {
                outcome: Err(TransportError::Lost),
                latency: patience,
                corrupt: false,
            }
        } else if self.rng.chance(self.loss) {
            Attempt {
                outcome: Err(TransportError::Lost),
                latency: patience,
                corrupt: false,
            }
        } else {
            let jitter = if self.jitter.as_micros() > 0 {
                SimDuration::from_micros(self.rng.below(self.jitter.as_micros() + 1))
            } else {
                SimDuration::ZERO
            };
            let latency = (self.base_latency + jitter).saturating_mul(self.slow[node] as u64);
            let corrupt = op == TransportOp::Fetch && self.rng.chance(self.corruption);
            Attempt {
                outcome: Ok(()),
                latency,
                corrupt,
            }
        };
        self.stats.record(&a);
        a
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
        self.run_schedule();
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// SimNetTransport
// ---------------------------------------------------------------------------

/// A transport routed through [`rain_sim::Network`]: the coordinator is a
/// node in the fabric and each store node maps to another fabric node.
/// Every attempt is routed over the currently healthy links, so node and
/// link faults — and the gray-failure slowdowns of [`Fault::NodeDegrade`]
/// — hit the store the way they would hit a real network.
#[derive(Debug)]
pub struct SimNetTransport {
    net: Network,
    coord: NodeId,
    map: Vec<NodeId>,
    now: SimTime,
    stats: TransportStats,
    rng: DetRng,
    schedule: Vec<(SimTime, Fault)>,
    /// Per-request service time at the remote node, added to the wire RTT.
    pub service: SimDuration,
    /// Probability a successful fetch's response arrives corrupted.
    pub corruption: f64,
}

impl SimNetTransport {
    /// A transport over `net` where the coordinator sits at `coord` and
    /// store node `i` lives at fabric node `map[i]`.
    pub fn new(net: Network, coord: NodeId, map: Vec<NodeId>, seed: u64) -> Self {
        assert!(
            !map.contains(&coord),
            "the coordinator cannot be a storage node"
        );
        SimNetTransport {
            net,
            coord,
            map,
            now: SimTime::ZERO,
            stats: TransportStats::default(),
            rng: DetRng::new(seed),
            schedule: Vec::new(),
            service: SimDuration::from_micros(100),
            corruption: 0.0,
        }
    }

    /// The conventional layout over a full-mesh fabric of `n + 1` nodes:
    /// coordinator at fabric node 0, store node `i` at fabric node `i + 1`.
    pub fn full_mesh(n: usize, latency: SimDuration, loss: f64, seed: u64) -> Self {
        let net = Network::full_mesh(n + 1, latency, loss);
        let map = (1..=n).map(NodeId).collect();
        Self::new(net, NodeId(0), map, seed)
    }

    /// Install a fault schedule applied against the fabric as time passes.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        let mut events = plan.into_sorted();
        events.reverse();
        self.schedule = events;
        self.run_schedule();
        self
    }

    /// Set the response corruption probability.
    pub fn with_corruption(mut self, corruption: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corruption),
            "corruption must be a probability"
        );
        self.corruption = corruption;
        self
    }

    /// Direct mutable access to the fabric (tests inject faults by hand).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    fn run_schedule(&mut self) {
        while let Some(&(t, fault)) = self.schedule.last() {
            if t > self.now {
                break;
            }
            self.schedule.pop();
            fault.apply(&mut self.net);
        }
    }
}

impl Transport for SimNetTransport {
    fn attempt(
        &mut self,
        node: usize,
        op: TransportOp,
        _bytes: u64,
        patience: SimDuration,
    ) -> Attempt {
        let target = self.map[node];
        let a = if !self.net.node_up(target) {
            // A crashed node is silent — indistinguishable on the wire
            // from a partition, but the fate is reported honestly so the
            // coordinator's failure detector can converge on it.
            Attempt {
                outcome: Err(TransportError::NodeDown),
                latency: patience,
                corrupt: false,
            }
        } else {
            match self.net.route_between_nodes(self.coord, target) {
                None => Attempt {
                    outcome: Err(TransportError::Unreachable),
                    latency: patience,
                    corrupt: false,
                },
                Some(path) => {
                    // Request and response each cross the path and each
                    // roll the combined per-hop loss independently.
                    let loss = self.net.path_loss(&path);
                    if self.rng.chance(loss) || self.rng.chance(loss) {
                        Attempt {
                            outcome: Err(TransportError::Lost),
                            latency: patience,
                            corrupt: false,
                        }
                    } else {
                        let one_way = self.net.path_latency(&path);
                        let rtt = (one_way.saturating_mul(2) + self.service)
                            .saturating_mul(self.net.pair_slowdown(self.coord, target));
                        let corrupt = op == TransportOp::Fetch && self.rng.chance(self.corruption);
                        Attempt {
                            outcome: Ok(()),
                            latency: rtt,
                            corrupt,
                        }
                    }
                }
            }
        };
        self.stats.record(&a);
        a
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
        self.run_schedule();
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_sim::{LinkId, DEFAULT_LINK_LATENCY};

    const PATIENCE: SimDuration = SimDuration(10_000);

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        let payload: Vec<u8> = (0..37u8).collect();
        let frame = seal_frame(7, &payload);
        assert_eq!(open_frame(&frame), Some((7, payload.as_slice())));
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                assert_eq!(
                    open_frame(&damaged),
                    None,
                    "flip at {byte}:{bit} slipped by"
                );
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert_eq!(open_frame(&[]), None);
        assert_eq!(open_frame(&[0u8; FRAME_HEADER - 1]), None);
        // An empty payload is legal — a frame is never shorter than its
        // header, but it may be exactly the header.
        let frame = seal_frame(0, &[]);
        assert_eq!(frame.len(), FRAME_HEADER);
        assert_eq!(open_frame(&frame), Some((0, &[][..])));
        // Up to one chunk the header is 16 bytes; each further chunk adds
        // a checksum. Cutting any byte off the end of a frame breaks it,
        // whether the shorter length has a smaller header or none at all.
        for len in [FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 5] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frame = seal_frame(5, &payload);
            assert_eq!(frame.len(), 8 + 8 * len.div_ceil(FRAME_CHUNK) + len);
            assert_eq!(open_frame(&frame), Some((5, payload.as_slice())));
            for cut in [1, 8, 9, FRAME_HEADER, frame.len() - FRAME_HEADER] {
                assert_eq!(
                    open_frame(&frame[..frame.len() - cut]),
                    None,
                    "{len} - {cut}"
                );
            }
        }
    }

    #[test]
    fn generations_are_part_of_the_checksum() {
        let frame = seal_frame(3, b"abc");
        let mut regen = frame.clone();
        regen[0] = 4; // bump the stored generation without re-checksumming
        assert_eq!(open_frame(&regen), None, "gen tampering must not verify");
        assert_eq!(open_range(&regen, 1, 1), None);
    }

    #[test]
    fn a_ranged_open_hashes_only_the_covering_chunks() {
        let payload: Vec<u8> = (0..3 * FRAME_CHUNK + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut frame = seal_frame(1, &payload);
        let header = frame.len() - payload.len();
        // Damage chunk 0: a range inside chunk 2 still opens, one that
        // touches chunk 0 does not, and neither does the whole frame.
        frame[header + 10] ^= 1;
        let inside = open_range(&frame, 2 * FRAME_CHUNK + 7, 300);
        assert_eq!(
            inside,
            Some((1, &payload[2 * FRAME_CHUNK + 7..2 * FRAME_CHUNK + 307]))
        );
        assert_eq!(open_range(&frame, FRAME_CHUNK - 1, 2), None);
        assert_eq!(open_frame(&frame), None);
        // What a range hashes: whole covering chunks, the short last one
        // included.
        let len = payload.len();
        assert_eq!(range_verified_len(len, 7, 300), FRAME_CHUNK);
        assert_eq!(range_verified_len(len, FRAME_CHUNK - 1, 2), 2 * FRAME_CHUNK);
        assert_eq!(range_verified_len(len, len - 1, 1), 100);
        assert_eq!(range_verified_len(len, len, 0), 100);
        assert_eq!(range_verified_len(0, 0, 0), 0);
        assert_eq!(range_verified_len(60, 20, 20), 60);
    }

    #[test]
    fn direct_transport_is_instant_and_infallible() {
        let mut t = DirectTransport::new();
        for node in 0..8 {
            let a = t.attempt(node, TransportOp::Install, 4096, PATIENCE);
            assert_eq!(a.outcome, Ok(()));
            assert_eq!(a.latency, SimDuration::ZERO);
            assert!(!a.corrupt);
        }
        assert_eq!(t.stats().ok, 8);
        t.advance(SimDuration::from_secs(1));
        assert_eq!(t.now(), SimTime::from_secs(1));
    }

    #[test]
    fn chaos_down_nodes_refuse_and_cut_nodes_blackhole() {
        let plan = FaultPlan::none()
            .at(SimTime::ZERO, Fault::NodeCrash(NodeId(1)))
            .at(SimTime::ZERO, Fault::LinkDown(LinkId(2)));
        let mut t = ChaosTransport::new(4, 1).with_plan(plan);
        t.jitter = SimDuration::ZERO;

        let refused = t.attempt(1, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(refused.outcome, Err(TransportError::NodeDown));
        assert_eq!(refused.latency, t.base_latency, "refusal is fast");

        let blackholed = t.attempt(2, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(blackholed.outcome, Err(TransportError::Lost));
        assert_eq!(blackholed.latency, PATIENCE, "loss costs the full wait");

        let clean = t.attempt(0, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(clean.outcome, Ok(()));
        assert_eq!(clean.latency, t.base_latency);
    }

    #[test]
    fn chaos_slowdown_inflates_latency_until_restored() {
        let plan = FaultPlan::none().gray_failure(
            NodeId(0),
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            8,
        );
        let mut t = ChaosTransport::new(2, 1).with_plan(plan);
        t.jitter = SimDuration::ZERO;
        let nominal = t.attempt(0, TransportOp::Fetch, 0, PATIENCE).latency;
        t.advance(SimDuration::from_millis(1));
        let slow = t.attempt(0, TransportOp::Fetch, 0, PATIENCE).latency;
        assert_eq!(slow, nominal.saturating_mul(8));
        t.advance(SimDuration::from_millis(1));
        let healed = t.attempt(0, TransportOp::Fetch, 0, PATIENCE).latency;
        assert_eq!(healed, nominal);
    }

    #[test]
    fn chaos_loss_and_corruption_are_deterministic_per_seed() {
        let run = |seed| {
            let mut t = ChaosTransport::new(3, seed)
                .with_loss(0.3)
                .with_corruption(0.2);
            (0..100)
                .map(|i| {
                    let a = t.attempt(i % 3, TransportOp::Fetch, 0, PATIENCE);
                    (a.outcome.is_ok(), a.corrupt)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let mut t = ChaosTransport::new(1, 9).with_loss(0.5);
        let fates: Vec<bool> = (0..200)
            .map(|_| {
                t.attempt(0, TransportOp::Fetch, 0, PATIENCE)
                    .outcome
                    .is_ok()
            })
            .collect();
        assert!(fates.iter().any(|&ok| ok) && fates.iter().any(|&ok| !ok));
        assert_eq!(
            t.stats().lost,
            fates.iter().filter(|&&ok| !ok).count() as u64
        );
    }

    #[test]
    fn chaos_corruption_hits_only_fetches() {
        let mut t = ChaosTransport::new(1, 4).with_corruption(1.0);
        assert!(t.attempt(0, TransportOp::Fetch, 0, PATIENCE).corrupt);
        assert!(!t.attempt(0, TransportOp::Install, 0, PATIENCE).corrupt);
        assert!(!t.attempt(0, TransportOp::Probe, 0, PATIENCE).corrupt);
    }

    #[test]
    fn simnet_routes_and_reports_honest_latency() {
        let mut t = SimNetTransport::full_mesh(4, DEFAULT_LINK_LATENCY, 0.0, 3);
        let a = t.attempt(2, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(a.outcome, Ok(()));
        // One 50 µs hop each way plus the 100 µs service time.
        assert_eq!(a.latency, SimDuration::from_micros(200));
    }

    #[test]
    fn simnet_crash_partition_and_gray_failure_have_distinct_fates() {
        let plan = FaultPlan::none()
            .at(SimTime::ZERO, Fault::NodeCrash(NodeId(1)))
            .gray_failure(NodeId(2), SimTime::ZERO, SimTime::from_secs(1), 5);
        let mut t = SimNetTransport::full_mesh(3, DEFAULT_LINK_LATENCY, 0.0, 3).with_plan(plan);

        let down = t.attempt(0, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(down.outcome, Err(TransportError::NodeDown));
        assert_eq!(down.latency, PATIENCE, "silence costs the full wait");

        let gray = t.attempt(1, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(gray.outcome, Ok(()));
        assert_eq!(gray.latency, SimDuration::from_micros(200 * 5));

        // Sever the only link to store node 2 (fabric node 3): unreachable.
        let net = t.network_mut();
        let links: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| l.a.node == NodeId(3) || l.b.node == NodeId(3))
            .map(|l| l.id)
            .collect();
        for l in links {
            net.set_link_up(l, false);
        }
        let cut = t.attempt(2, TransportOp::Fetch, 0, PATIENCE);
        assert_eq!(cut.outcome, Err(TransportError::Unreachable));
    }

    #[test]
    fn simnet_schedule_fires_as_time_advances() {
        let plan = FaultPlan::none()
            .at(SimTime::from_millis(5), Fault::NodeCrash(NodeId(1)))
            .at(SimTime::from_millis(9), Fault::NodeRecover(NodeId(1)));
        let mut t = SimNetTransport::full_mesh(2, DEFAULT_LINK_LATENCY, 0.0, 3).with_plan(plan);
        assert!(t
            .attempt(0, TransportOp::Probe, 0, PATIENCE)
            .outcome
            .is_ok());
        t.advance(SimDuration::from_millis(6));
        assert_eq!(
            t.attempt(0, TransportOp::Probe, 0, PATIENCE).outcome,
            Err(TransportError::NodeDown)
        );
        t.advance(SimDuration::from_millis(6));
        assert!(t
            .attempt(0, TransportOp::Probe, 0, PATIENCE)
            .outcome
            .is_ok());
    }

    #[test]
    fn backoff_grows_exponentially_and_jitters_within_bounds() {
        let policy = FaultPolicy {
            backoff: SimDuration::from_micros(100),
            backoff_jitter: 0.5,
            ..FaultPolicy::default()
        };
        let mut rng = DetRng::new(11);
        for attempt in 1..=4u32 {
            let base = 100u64 << (attempt - 1);
            for _ in 0..20 {
                let b = policy.backoff_before_retry(attempt, &mut rng).as_micros();
                assert!(b >= base && b <= base + base / 2, "attempt {attempt}: {b}");
            }
        }
    }
}
