//! Caller-owned share buffers: [`ShareSet`] and [`ShareView`].
//!
//! * [`ShareSet`] owns **one flat backing buffer** holding all `n` shares
//!   contiguously. It is reused across calls — `reset` only reallocates when
//!   the layout grows beyond the retained capacity — so a steady-state
//!   encode loop performs zero share allocations.
//! * [`ShareView`] is a borrowed view of up to `n` shares (missing symbols
//!   are `None`), pointing straight into whatever buffers the caller already
//!   owns: a `ShareSet`, storage-node maps, network receive buffers. Decode
//!   and repair read through it without copying a byte.
//!
//! Both are deliberately dumb containers; all coding logic stays in the
//! [`crate::traits::ErasureCode`] implementations.

use crate::error::CodeError;

/// A reusable, flat-backed set of `n` equally sized encoded shares.
///
/// The backing buffer survives [`ShareSet::reset`], so repeated
/// `encode_into` calls of the same (or smaller) layout allocate nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShareSet {
    buf: Vec<u8>,
    n: usize,
    share_len: usize,
}

impl ShareSet {
    /// An empty set with no backing storage; the first `reset` sizes it.
    pub fn new() -> Self {
        ShareSet::default()
    }

    /// A set pre-sized for `n` shares of `share_len` bytes each (zeroed).
    pub fn with_layout(n: usize, share_len: usize) -> Self {
        let mut set = ShareSet::new();
        set.reset(n, share_len);
        set
    }

    /// Re-layout the set for `n` shares of `share_len` bytes, reusing the
    /// backing allocation. Bytes carried over from a previous layout are
    /// unspecified — `encode_into` overwrites every byte.
    pub fn reset(&mut self, n: usize, share_len: usize) {
        self.n = n;
        self.share_len = share_len;
        self.buf.resize(n * share_len, 0);
    }

    /// Number of shares in the current layout.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Length in bytes of each share.
    pub fn share_len(&self) -> usize {
        self.share_len
    }

    /// True if the set holds no shares.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Capacity of the backing buffer in bytes (diagnostic: proves reuse).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Borrow share `i`.
    pub fn share(&self, i: usize) -> &[u8] {
        &self.buf[i * self.share_len..(i + 1) * self.share_len]
    }

    /// Mutably borrow share `i`.
    pub fn share_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.buf[i * self.share_len..(i + 1) * self.share_len]
    }

    /// Iterate over the shares.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.buf.chunks_exact(self.share_len.max(1)).take(self.n)
    }

    /// Mutable slices of every share at once (disjoint, for encoding).
    pub fn columns_mut(&mut self) -> Vec<&mut [u8]> {
        if self.share_len == 0 {
            return Vec::new();
        }
        self.buf.chunks_exact_mut(self.share_len).collect()
    }

    /// The whole backing buffer (shares concatenated in index order).
    pub fn flat(&self) -> &[u8] {
        &self.buf
    }

    /// A [`ShareView`] with every share present.
    pub fn as_view(&self) -> ShareView<'_> {
        let mut view = ShareView::missing(self.n);
        for i in 0..self.n {
            view.set(i, self.share(i));
        }
        view
    }
}

/// A borrowed view of up to `n` shares; missing symbols are `None`.
///
/// Construction is cheap (one pointer-sized slot per share); the share
/// bytes themselves are never copied.
#[derive(Debug, Clone, Default)]
pub struct ShareView<'a> {
    slots: Vec<Option<&'a [u8]>>,
}

impl<'a> ShareView<'a> {
    /// A view of `n` shares, all initially missing.
    pub fn missing(n: usize) -> Self {
        ShareView {
            slots: vec![None; n],
        }
    }

    /// Mark share `i` present, borrowing its bytes.
    pub fn set(&mut self, i: usize, share: &'a [u8]) {
        self.slots[i] = Some(share);
    }

    /// Mark share `i` missing.
    pub fn clear(&mut self, i: usize) {
        self.slots[i] = None;
    }

    /// Share `i`, if present.
    pub fn share(&self, i: usize) -> Option<&'a [u8]> {
        self.slots.get(i).copied().flatten()
    }

    /// Number of slots (present or missing).
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Number of present shares.
    pub fn available(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterate over the slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&'a [u8]>> + '_ {
        self.slots.iter().copied()
    }

    /// A view of the byte range `offset..offset + len` of every present
    /// share — the per-stripe sub-view used by `StripedCodec`.
    pub fn substripe(&self, offset: usize, len: usize) -> ShareView<'a> {
        ShareView {
            slots: self
                .slots
                .iter()
                .map(|s| s.map(|b| &b[offset..offset + len]))
                .collect(),
        }
    }

    /// Validate the view against an `(n, k)` code: right slot count, at
    /// least `k` present shares, consistent lengths. Returns the common
    /// share length.
    pub fn validate(&self, n: usize, k: usize) -> Result<usize, CodeError> {
        if self.slots.len() != n {
            return Err(CodeError::BadShareCount {
                got: self.slots.len(),
                expected: n,
            });
        }
        let mut len = None;
        let mut available = 0;
        for share in self.slots.iter().flatten() {
            available += 1;
            match len {
                None => len = Some(share.len()),
                Some(l) if l != share.len() => {
                    return Err(CodeError::InconsistentShareLength);
                }
                Some(_) => {}
            }
        }
        if available < k {
            return Err(CodeError::TooManyErasures {
                available,
                needed: k,
            });
        }
        Ok(len.unwrap_or(0))
    }

    /// Validate the survivors of a single-share repair: right slot count,
    /// at least `k` present shares *outside* slot `missing`, consistent
    /// lengths among them. Slot `missing` is ignored entirely (any stale
    /// value there must not affect the result). Returns the survivors'
    /// common share length.
    pub fn validate_excluding(
        &self,
        n: usize,
        k: usize,
        missing: usize,
    ) -> Result<usize, CodeError> {
        if self.slots.len() != n {
            return Err(CodeError::BadShareCount {
                got: self.slots.len(),
                expected: n,
            });
        }
        if missing >= n {
            return Err(CodeError::BadShareIndex { got: missing, n });
        }
        let mut len = None;
        let mut available = 0;
        for (i, share) in self.slots.iter().enumerate() {
            if i == missing {
                continue;
            }
            let Some(share) = share else { continue };
            available += 1;
            match len {
                None => len = Some(share.len()),
                Some(l) if l != share.len() => {
                    return Err(CodeError::InconsistentShareLength);
                }
                Some(_) => {}
            }
        }
        if available < k {
            return Err(CodeError::TooManyErasures {
                available,
                needed: k,
            });
        }
        Ok(len.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_set_reset_reuses_capacity() {
        let mut set = ShareSet::with_layout(6, 128);
        set.share_mut(2)[0] = 7;
        let cap = set.capacity();
        assert!(cap >= 6 * 128);
        set.reset(6, 64);
        assert_eq!(set.capacity(), cap, "shrinking must not reallocate");
        set.reset(4, 32);
        assert_eq!(set.capacity(), cap);
        assert_eq!(set.n(), 4);
        assert_eq!(set.share_len(), 32);
        assert_eq!(set.columns_mut().len(), 4);
    }

    #[test]
    fn share_set_shares_are_disjoint_and_ordered() {
        let mut set = ShareSet::with_layout(3, 4);
        for i in 0..3 {
            set.share_mut(i).fill(i as u8 + 1);
        }
        assert_eq!(set.share(0), &[1, 1, 1, 1]);
        assert_eq!(set.share(2), &[3, 3, 3, 3]);
        assert_eq!(set.flat(), &[1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        assert_eq!(set.iter().count(), 3);
    }

    #[test]
    fn view_validate_matches_legacy_checks() {
        // Wrong slot count.
        let view = ShareView::missing(3);
        assert!(matches!(
            view.validate(4, 2),
            Err(CodeError::BadShareCount { .. })
        ));

        // Too many erasures.
        let a = [0u8; 4];
        let mut view = ShareView::missing(4);
        view.set(0, &a);
        assert!(matches!(
            view.validate(4, 2),
            Err(CodeError::TooManyErasures { .. })
        ));

        // Inconsistent lengths.
        let b = [0u8; 5];
        view.set(1, &b);
        assert!(matches!(
            view.validate(4, 2),
            Err(CodeError::InconsistentShareLength)
        ));

        // Happy path.
        let c = [1u8; 4];
        view.clear(1);
        view.set(2, &c);
        assert_eq!(view.validate(4, 2).unwrap(), 4);
        assert_eq!(view.available(), 2);
        assert_eq!(view.share(2), Some(&c[..]));
        assert_eq!(view.share(1), None);
    }

    #[test]
    fn substripe_narrows_every_present_share() {
        let a: Vec<u8> = (0..8).collect();
        let b: Vec<u8> = (10..18).collect();
        let mut view = ShareView::missing(3);
        view.set(0, &a);
        view.set(2, &b);
        let sub = view.substripe(2, 3);
        assert_eq!(sub.share(0), Some(&a[2..5]));
        assert_eq!(sub.share(1), None);
        assert_eq!(sub.share(2), Some(&b[2..5]));
    }

    #[test]
    fn as_view_marks_everything_present() {
        let set = ShareSet::with_layout(5, 8);
        let view = set.as_view();
        assert_eq!(view.available(), 5);
        assert_eq!(view.validate(5, 3).unwrap(), 8);
    }
}
