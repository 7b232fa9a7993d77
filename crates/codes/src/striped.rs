//! [`StripedCodec`]: parallel encoding/decoding of large blocks.
//!
//! The XOR and GF(256) kernels are embarrassingly parallel over disjoint
//! byte lanes, so a large block can be split into fixed-size **stripes**
//! that are encoded/decoded/repaired independently on worker threads. A
//! stripe of the input maps to one contiguous chunk of every share:
//!
//! ```text
//! data    |— stripe 0 —|— stripe 1 —|— stripe 2 (short) —|
//! share i |— chunk 0  —|— chunk 1  —|— chunk 2 (short)  —|
//! ```
//!
//! Within one stripe the inner code's share format is unchanged, but the
//! concatenation makes the overall share layout **stripe-dependent**: writer
//! and reader must use the same `StripedCodec` configuration (they always do
//! in the storage layer, where the codec is fixed per store). The worker
//! count, by contrast, is pure scheduling — any number of workers produces
//! bit-identical shares (with one worker the stripes run as a sequential
//! loop on the calling thread). Blocks no larger than one stripe go
//! straight to the inner code.
//!
//! Threads come from [`std::thread::scope`]; nothing is spawned for small
//! inputs, and stripes are distributed round-robin so a short final stripe
//! doesn't serialise the run.

use std::sync::Arc;

use crate::error::CodeError;
use crate::metrics::CodeCost;
use crate::share::ShareView;
use crate::traits::{validate_decode_out, validate_encode_cols, CodeKind, ErasureCode};

/// Wraps any [`ErasureCode`] and processes large blocks as parallel stripes.
#[derive(Clone)]
pub struct StripedCodec {
    inner: Arc<dyn ErasureCode>,
    stripe_data_len: usize,
    workers: usize,
}

impl StripedCodec {
    /// Wrap `inner`, splitting inputs into stripes of `stripe_data_len`
    /// bytes processed by up to `workers` threads. The stripe length must
    /// be a positive multiple of the inner code's `data_len_unit`.
    pub fn new(
        inner: Arc<dyn ErasureCode>,
        stripe_data_len: usize,
        workers: usize,
    ) -> Result<Self, CodeError> {
        let unit = inner.data_len_unit();
        if stripe_data_len == 0
            || !stripe_data_len.is_multiple_of(unit)
            || !stripe_data_len.is_multiple_of(inner.k())
        {
            return Err(CodeError::UnsupportedParameters {
                reason: format!(
                    "stripe length {stripe_data_len} must be a positive multiple of the \
                     code's data unit {unit}"
                ),
            });
        }
        Ok(StripedCodec {
            inner,
            stripe_data_len,
            workers: workers.max(1),
        })
    }

    /// The wrapped code.
    pub fn inner(&self) -> &Arc<dyn ErasureCode> {
        &self.inner
    }

    /// Stripe length in input-data bytes.
    pub fn stripe_data_len(&self) -> usize {
        self.stripe_data_len
    }

    /// Maximum worker threads used per call.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Stripe length in per-share bytes.
    fn stripe_share_len(&self) -> usize {
        self.stripe_data_len / self.inner.k()
    }

    /// Run `jobs` across up to `self.workers` scoped threads (round-robin),
    /// sequentially when only one worker is warranted. Returns the first
    /// error encountered.
    fn par_run<J, F>(&self, jobs: Vec<J>, f: F) -> Result<(), CodeError>
    where
        J: Send,
        F: Fn(J) -> Result<(), CodeError> + Sync,
    {
        let workers = self.workers.min(jobs.len());
        if workers <= 1 {
            for job in jobs {
                f(job)?;
            }
            return Ok(());
        }
        let mut queues: Vec<Vec<J>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            queues[i % workers].push(job);
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = queues
                .into_iter()
                .map(|queue| {
                    scope.spawn(move || {
                        for job in queue {
                            f(job)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            let mut result = Ok(());
            for handle in handles {
                let joined = handle.join().expect("stripe worker panicked");
                if result.is_ok() {
                    result = joined;
                }
            }
            result
        })
    }
}

impl ErasureCode for StripedCodec {
    fn kind(&self) -> CodeKind {
        self.inner.kind()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn data_len_unit(&self) -> usize {
        self.inner.data_len_unit()
    }

    fn cost(&self, data_len: usize) -> CodeCost {
        self.inner.cost(data_len)
    }

    fn runtime_metrics(&self) -> crate::metrics::CodeMetrics {
        self.inner.runtime_metrics()
    }

    fn is_mds(&self) -> bool {
        self.inner.is_mds()
    }

    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        let share_len = self.share_len_for(data.len())?;
        validate_encode_cols(shares, self.n(), share_len)?;
        if data.len() <= self.stripe_data_len {
            return self.inner.encode_slices(data, shares);
        }
        let stripe_share_len = self.stripe_share_len();
        let num_stripes = data.len().div_ceil(self.stripe_data_len);
        let mut stripe_cols: Vec<Vec<&mut [u8]>> = (0..num_stripes)
            .map(|_| Vec::with_capacity(self.n()))
            .collect();
        for share in shares.iter_mut() {
            for (s, chunk) in share.chunks_mut(stripe_share_len).enumerate() {
                stripe_cols[s].push(chunk);
            }
        }
        let jobs: Vec<(&[u8], Vec<&mut [u8]>)> =
            data.chunks(self.stripe_data_len).zip(stripe_cols).collect();
        self.par_run(jobs, |(stripe, mut cols)| {
            self.inner.encode_slices(stripe, &mut cols)
        })
    }

    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        let share_len = shares.validate(self.n(), self.k())?;
        validate_decode_out(out.len(), share_len * self.k())?;
        if out.len() <= self.stripe_data_len {
            return self.inner.decode_slices(shares, out);
        }
        let stripe_share_len = self.stripe_share_len();
        let k = self.k();
        let jobs: Vec<(ShareView<'_>, &mut [u8])> = out
            .chunks_mut(self.stripe_data_len)
            .enumerate()
            .map(|(s, chunk)| {
                let view = shares.substripe(s * stripe_share_len, chunk.len() / k);
                (view, chunk)
            })
            .collect();
        self.par_run(jobs, |(view, chunk)| self.inner.decode_slices(&view, chunk))
    }

    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        // The survivors define the share length `out` must match; check it
        // here so per-stripe sub-views cannot slice out of bounds.
        let share_len = shares.validate_excluding(self.n(), self.k(), missing)?;
        validate_decode_out(out.len(), share_len)?;
        let stripe_share_len = self.stripe_share_len();
        if out.len() <= stripe_share_len {
            return self.inner.repair(shares, missing, out);
        }
        // Drop whatever (possibly stale, possibly differently sized) value
        // sits in the target slot before sub-slicing: the repair contract is
        // that slot `missing` is ignored, and substripe slices every
        // present slot.
        let mut survivors = shares.clone();
        survivors.clear(missing);
        let jobs: Vec<(ShareView<'_>, &mut [u8])> = out
            .chunks_mut(stripe_share_len)
            .enumerate()
            .map(|(s, chunk)| {
                let view = survivors.substripe(s * stripe_share_len, chunk.len());
                (view, chunk)
            })
            .collect();
        self.par_run(jobs, |(view, chunk)| {
            self.inner.repair(&view, missing, chunk)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcode::BCode;
    use crate::reed_solomon::ReedSolomon;
    use crate::share::ShareSet;
    use crate::xcode::XCode;

    fn test_data(code: &dyn ErasureCode, blocks: usize) -> Vec<u8> {
        (0..code.data_len_unit() * blocks)
            .map(|i| (i * 131 + 17) as u8)
            .collect()
    }

    fn encode(code: &dyn ErasureCode, data: &[u8]) -> ShareSet {
        let mut set = ShareSet::new();
        code.encode_into(data, &mut set).unwrap();
        set
    }

    fn codes() -> Vec<Arc<dyn ErasureCode>> {
        vec![
            Arc::new(BCode::table_1a()),
            Arc::new(XCode::new(5).unwrap()),
            Arc::new(ReedSolomon::new(6, 4).unwrap()),
        ]
    }

    #[test]
    fn worker_count_never_changes_the_bytes() {
        for inner in codes() {
            let unit = inner.data_len_unit();
            // 3 full stripes plus a short one.
            let data = test_data(inner.as_ref(), 8 * 3 + 2);
            let sequential = StripedCodec::new(inner.clone(), unit * 8, 1).unwrap();
            let parallel = StripedCodec::new(inner.clone(), unit * 8, 4).unwrap();
            assert_eq!(
                encode(&sequential, &data),
                encode(&parallel, &data),
                "{:?}",
                inner.kind()
            );
        }
    }

    #[test]
    fn striped_decode_and_repair_round_trip_across_stripes() {
        for inner in codes() {
            let unit = inner.data_len_unit();
            let striped = StripedCodec::new(inner.clone(), unit * 4, 3).unwrap();
            let data = test_data(inner.as_ref(), 4 * 5 + 1);
            let mut set = ShareSet::new();
            striped.encode_into(&data, &mut set).unwrap();

            // Erase the tolerance's worth of shares and decode.
            let m = striped.fault_tolerance();
            let mut view = set.as_view();
            for i in 0..m {
                view.clear(i);
            }
            let mut out = Vec::new();
            striped.decode_into(&view, &mut out).unwrap();
            assert_eq!(out, data, "{:?}", inner.kind());

            // Repair a single lost share.
            let mut view = set.as_view();
            view.clear(1);
            let mut repaired = vec![0u8; set.share_len()];
            striped.repair(&view, 1, &mut repaired).unwrap();
            assert_eq!(repaired, set.share(1), "{:?}", inner.kind());
        }
    }

    #[test]
    fn single_stripe_inputs_take_the_sequential_path() {
        let inner: Arc<dyn ErasureCode> = Arc::new(BCode::table_1a());
        let striped = StripedCodec::new(inner.clone(), inner.data_len_unit() * 64, 4).unwrap();
        let data = test_data(inner.as_ref(), 2);
        assert_eq!(encode(&striped, &data), encode(inner.as_ref(), &data));
    }

    #[test]
    fn bad_stripe_lengths_are_rejected() {
        let inner: Arc<dyn ErasureCode> = Arc::new(BCode::table_1a());
        assert!(StripedCodec::new(inner.clone(), 0, 4).is_err());
        let unit = inner.data_len_unit();
        assert!(StripedCodec::new(inner, unit + 1, 4).is_err());
    }

    #[test]
    fn repair_ignores_a_stale_value_in_the_missing_slot() {
        // The trait contract: whatever sits in slot `missing` is ignored —
        // including a buffer of a completely different length, which the
        // per-stripe sub-views must not try to slice.
        let inner: Arc<dyn ErasureCode> = Arc::new(BCode::table_1a());
        let striped = StripedCodec::new(inner.clone(), inner.data_len_unit() * 2, 2).unwrap();
        let set = encode(&striped, &test_data(inner.as_ref(), 8));
        let stale = [0xAAu8; 1];
        let mut view = set.as_view();
        view.set(0, &stale);
        let mut out = vec![0u8; set.share_len()];
        striped.repair(&view, 0, &mut out).unwrap();
        assert_eq!(out, set.share(0));
    }

    #[test]
    fn repair_rejects_mismatched_output_length() {
        let inner: Arc<dyn ErasureCode> = Arc::new(BCode::table_1a());
        let striped = StripedCodec::new(inner.clone(), inner.data_len_unit() * 2, 2).unwrap();
        let data = test_data(inner.as_ref(), 8);
        let set = encode(&striped, &data);
        let mut view = set.as_view();
        view.clear(0);
        let mut short = vec![0u8; set.share_len() - 1];
        assert!(striped.repair(&view, 0, &mut short).is_err());
    }
}
