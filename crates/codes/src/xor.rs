//! Word-wide XOR kernels shared by all array codes.
//!
//! The paper's array codes (Section 4.1) encode and decode using nothing but
//! binary XOR, so this tiny module is the hot path of the whole storage
//! stack.
//!
//! # Kernel design
//!
//! The XOR body processes eight bytes per step: both slices are split into
//! `u64` lanes with `chunks_exact`, XORed as whole words, and a short scalar
//! loop handles the final `len % 8` tail. Working on native-endian `u64`
//! words keeps the body fully safe and portable, and gives LLVM a shape it
//! vectorises at whatever width the compiled-for target allows.
//!
//! The workspace builds for baseline x86-64, where that width is SSE2's 16
//! bytes, and sets no `target-cpu`. So [`xor_into`] and [`xor_many`] pick
//! their kernel at run time, as `gf256`'s `mul_acc` and the share-frame
//! checksum do: the same body compiled under `#[target_feature]` for
//! AVX-512F where the CPU has it (64-byte vectors), else for AVX2 (32-byte
//! vectors), else the portable build of the body. The CPU check is the only
//! input; there is no flag or setting. [`is_zero`] reuses the lane
//! structure.
//!
//! The original byte-at-a-time kernel is retained as [`scalar_xor_into`] so
//! benchmarks and equivalence tests can compare the two in-tree; the bench
//! harness (`cargo run -p bench --release`) asserts the word-wide path stays
//! ≥ 4x faster on 64 KiB blocks.
//!
//! The free functions also keep an exact count of byte-XOR operations for
//! the complexity experiments (E10).

/// Lane width of the word-wide kernels, in bytes.
const WORD: usize = std::mem::size_of::<u64>();

/// XOR `src` into `dst` element-wise with the widest kernel this CPU runs.
/// Panics if the lengths differ.
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "xor_into requires equal-length slices"
    );
    xor_into_unchecked(dst, src);
}

/// The dispatched XOR, shared with [`xor_many`] which validates lengths
/// once up front instead of per call.
#[inline]
fn xor_into_unchecked(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just detected on this CPU.
            return unsafe { xor_avx512(dst, src) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 was just detected on this CPU.
            return unsafe { xor_avx2(dst, src) };
        }
    }
    xor_portable(dst, src);
}

/// The XOR body, eight bytes per step; inlined into each kernel so that
/// each is vectorised for its own target features.
#[inline(always)]
fn xor_words(dst: &mut [u8], src: &[u8]) {
    let split = dst.len() - dst.len() % WORD;
    let (dst_words, dst_tail) = dst.split_at_mut(split);
    let (src_words, src_tail) = src.split_at(split);
    for (d, s) in dst_words
        .chunks_exact_mut(WORD)
        .zip(src_words.chunks_exact(WORD))
    {
        let x = u64::from_ne_bytes((&*d).try_into().unwrap())
            ^ u64::from_ne_bytes(s.try_into().unwrap());
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= *s;
    }
}

/// The body built for the baseline target: the fallback kernel.
fn xor_portable(dst: &mut [u8], src: &[u8]) {
    xor_words(dst, src);
}

/// The body built with 32-byte vectors.
///
/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xor_avx2(dst: &mut [u8], src: &[u8]) {
    xor_words(dst, src);
}

/// The body built with 64-byte vectors.
///
/// # Safety
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn xor_avx512(dst: &mut [u8], src: &[u8]) {
    xor_words(dst, src);
}

/// Retained byte-at-a-time reference kernel.
///
/// This is the seed implementation of [`xor_into`], kept as the baseline the
/// bench harness measures the word-wide kernel against and the oracle the
/// equivalence tests compare it to. The `black_box` pins each byte to a
/// genuine one-byte-per-operation schedule — without it LLVM auto-vectorises
/// this loop too and the baseline stops being scalar.
pub fn scalar_xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "scalar_xor_into requires equal-length slices"
    );
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= std::hint::black_box(*s);
    }
}

/// XOR all of `sources` together into a freshly allocated buffer of length
/// `len`. Returns the buffer and the number of byte-XOR operations performed.
///
/// Every source must have length `len`; lengths are validated once up front
/// so the inner loop runs assert-free, and the output buffer is the only
/// allocation.
pub fn xor_many(len: usize, sources: &[&[u8]]) -> (Vec<u8>, u64) {
    for (i, src) in sources.iter().enumerate() {
        assert_eq!(
            src.len(),
            len,
            "xor_many source {i} has length {} but {len} was requested",
            src.len()
        );
    }
    let mut out = vec![0u8; len];
    for src in sources {
        xor_into_unchecked(&mut out, src);
    }
    (out, sources.len() as u64 * len as u64)
}

/// Returns true if every byte of `buf` is zero, checking eight bytes per step.
#[inline]
pub fn is_zero(buf: &[u8]) -> bool {
    let mut words = buf.chunks_exact(WORD);
    words.all(|w| u64::from_ne_bytes(w.try_into().unwrap()) == 0)
        && words.remainder().iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_into_basic() {
        let mut a = vec![0b1010_1010u8; 16];
        let b = vec![0b0110_0110u8; 16];
        xor_into(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0b1100_1100));
    }

    #[test]
    fn xor_is_involution() {
        let orig: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let mask: Vec<u8> = (0..64).map(|i| (i * 7 + 3) as u8).collect();
        let mut buf = orig.clone();
        xor_into(&mut buf, &mask);
        xor_into(&mut buf, &mask);
        assert_eq!(buf, orig);
    }

    #[test]
    fn word_wide_matches_scalar_on_all_small_lengths() {
        // Cover every tail size around the 8-byte lane boundary, including
        // lengths below one lane.
        for len in 0..=129usize {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut fast: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let mut slow = fast.clone();
            xor_into(&mut fast, &src);
            scalar_xor_into(&mut slow, &src);
            assert_eq!(fast, slow, "len = {len}");
        }
    }

    #[test]
    fn dispatched_portable_and_scalar_kernels_agree_at_every_length_and_offset() {
        // Every length up to one 4 KiB window plus a vector tail, each at
        // one of the 64 × 64 source and destination offsets into larger
        // buffers, so every offset pair is used and every vector head and
        // tail split occurs. The portable loop is called directly, so a CPU
        // that dispatches to a wide kernel still tests the fallback.
        let max = 4096 + 129;
        let src_buf: Vec<u8> = (0..max + 64).map(|i| (i * 37 + 11) as u8).collect();
        let dst_buf: Vec<u8> = (0..max + 64).map(|i| (i * 13 + 5) as u8).collect();
        for len in 0..=max {
            let (s, d) = (len % 64, len / 64 % 64);
            let src = &src_buf[s..s + len];
            let mut expect = dst_buf.clone();
            scalar_xor_into(&mut expect[d..d + len], src);
            let mut dispatched = dst_buf.clone();
            xor_into(&mut dispatched[d..d + len], src);
            assert!(
                dispatched == expect,
                "dispatched: len {len}, src +{s}, dst +{d}"
            );
            let mut portable = dst_buf.clone();
            xor_portable(&mut portable[d..d + len], src);
            assert!(
                portable == expect,
                "portable: len {len}, src +{s}, dst +{d}"
            );
        }
    }

    #[test]
    fn xor_many_counts_ops() {
        let a = vec![1u8; 8];
        let b = vec![2u8; 8];
        let c = vec![4u8; 8];
        let (out, ops) = xor_many(8, &[&a, &b, &c]);
        assert_eq!(ops, 24);
        assert!(out.iter().all(|&x| x == 7));
    }

    #[test]
    #[should_panic]
    fn xor_into_length_mismatch_panics() {
        let mut a = vec![0u8; 4];
        let b = vec![0u8; 5];
        xor_into(&mut a, &b);
    }

    #[test]
    #[should_panic]
    fn xor_many_length_mismatch_panics() {
        let a = vec![0u8; 4];
        let b = vec![0u8; 5];
        xor_many(4, &[&a, &b]);
    }

    #[test]
    fn is_zero_detects_nonzero() {
        assert!(is_zero(&[0, 0, 0]));
        assert!(!is_zero(&[0, 1, 0]));
        assert!(is_zero(&[]));
        // Word-sized and word-straddling cases.
        assert!(is_zero(&[0u8; 64]));
        let mut buf = vec![0u8; 64];
        for hot in [0usize, 7, 8, 31, 63] {
            buf[hot] = 1;
            assert!(!is_zero(&buf), "hot byte at {hot}");
            buf[hot] = 0;
        }
        let mut tail = vec![0u8; 13];
        tail[12] = 255;
        assert!(!is_zero(&tail));
    }
}
