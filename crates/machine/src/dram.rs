//! The DRAM image, and the per-template pool that recycles it.
//!
//! A compiled program's DRAM is one contiguous byte image (4 MiB for the
//! Table III apps) of which an instance writes a few hundred bytes.
//! Deep-copying it per instance made instantiation cost a 4 MiB `memcpy`
//! whatever the program did — the opposite of the paper's thread
//! allocator (§V-B a, quoted in [`crate::mem`]), which never allocates a
//! buffer: it "pops a pointer from this queue and deallocation pushes it
//! back". [`Dram`] applies that rule to the host side, through the
//! per-template pool the channel table recycles through too
//! ([`crate::pool`]):
//!
//! - [`Dram::checkout`] on a *template* image pops a previously used image
//!   from the template's pool and restores only the [`PAGE_BYTES`] pages
//!   its last user dirtied (falling back to a full copy when the pool is
//!   empty), so instantiation costs O(pages touched).
//! - Dropping a checked-out image pushes it back, dirty bitmap and all.
//!
//! Four rules keep a recycled image indistinguishable from a fresh copy,
//! and keep a compile from paying for an image nobody reads:
//!
//! 1. **Mark before write.** Every `&mut` path marks the pages it can
//!    reach *before* handing out the bytes: range indexing
//!    (`dram[a..b]`) marks exactly the covered pages, any other mutable
//!    borrow ([`DerefMut`]) marks the whole image. An image dropped by an
//!    error return or a panic unwind therefore carries a truthful bitmap.
//! 2. **Mutating a template drops its pool.** Any `&mut` access to a
//!    `Dram` retires that `Dram`'s own pool; checked-out images hold only
//!    a weak reference to it, so ones still out are freed on return
//!    instead of being recycled against bytes that no longer exist.
//! 3. **Debug builds check the whole image** at every pool hit and panic
//!    naming the first differing page, so every differential suite run
//!    under `cargo test` exercises the tracker.
//! 4. **An all-zero image owns no bytes.** [`Dram::zeroed`] allocates
//!    nothing; the image is allocated (zeroed) the first time something
//!    borrows or writes its bytes. [`Dram::len`], `Clone`, `==` and
//!    `Debug` do not count as borrowing. A checkout from such a template
//!    allocates a zeroed image on a pool miss and zero-fills the dirty
//!    pages on a hit, so a program whose inputs arrive as per-instance
//!    overlays never holds a template image at all. Checked-out images are
//!    always backed.
//!
//! Retention is bounded: a pool keeps at most [`crate::POOL_IMAGES`]
//! images, so a live template pins at most `POOL_IMAGES × len` bytes of
//! idle images, plus `len` for its own image once something has written or borrowed
//! it; dropping the template (evicting the program) frees them. The pool
//! is created by the first checkout and holds nothing until the first
//! image is dropped.

use crate::pool::{Home, PoolStats, Source};
use std::fmt;
use std::ops::{Bound, Deref, DerefMut, Index, IndexMut, RangeBounds};
use std::slice::SliceIndex;
use std::sync::OnceLock;

/// Granularity of dirty tracking and reset.
pub const PAGE_BYTES: usize = 4096;

/// An idle image: its bytes and the pages that differ from the template.
type Idle = (Box<[u8]>, Box<[u64]>);

/// `len` zero bytes from the allocator's zeroed path, which skips the fill
/// where the memory is fresh.
fn zeros(len: usize) -> Box<[u8]> {
    vec![0; len].into_boxed_slice()
}

/// A contiguous DRAM byte image that dereferences to `[u8]`.
///
/// One type plays both roles of the recycling scheme in the module docs:
/// a *template* (a compiled program's image, the source of
/// [`Dram::checkout`]) and a *checked-out image* (an instance's private
/// copy, which tracks the pages it dirties and returns to its template's
/// pool on drop). `Clone` makes a detached copy that belongs to no pool.
/// Equality compares bytes only (an unbacked image reads as zeros).
///
/// An image never changes length, so its buffers are boxed slices, which
/// also pays for the `len` field: `Dram` is carried by value in every
/// `MemoryState`, and so in every batch result.
pub struct Dram {
    /// The image length, whether or not it is backed.
    len: usize,
    /// Unset while the image is all zero and nothing has borrowed it
    /// (module docs, rule 4); `len` bytes once set.
    bytes: OnceLock<Box<[u8]>>,
    /// One bit per page written since checkout; empty when nothing will
    /// ever reset this image (templates, detached copies).
    dirty: Box<[u64]>,
    /// Images checked out of *this* image come back here.
    pool: Source<Idle>,
    /// Where this image goes when dropped; dangling unless checked out.
    home: Home<Idle>,
}

impl Dram {
    /// An image of `len` zero bytes, owning none of them until something
    /// borrows or writes it (module docs, rule 4).
    pub fn zeroed(len: usize) -> Dram {
        Dram {
            len,
            bytes: OnceLock::new(),
            dirty: Box::default(),
            pool: Source::default(),
            home: Home::default(),
        }
    }

    /// The image length in bytes. Unlike the slice's `len`, this does not
    /// back an all-zero image.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is zero bytes long; does not back it.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes to write, allocated zeroed if the image is not backed yet.
    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        self.bytes.get_or_init(|| zeros(len));
        self.bytes.get_mut().expect("backed just above")
    }

    /// A private image byte-identical to `self`, to be written freely and
    /// dropped: recycled from this template's pool when one is idle
    /// (restoring only the pages its last user dirtied), copied otherwise.
    /// An unbacked template is neither read nor backed: a miss allocates
    /// zeros and a hit zero-fills its dirty pages.
    ///
    /// # Panics
    ///
    /// In debug builds, if a recycled image differs from `self` after the
    /// reset — a write that escaped dirty tracking.
    pub fn checkout(&self) -> Dram {
        // `None`: all zero. Another thread backing it meanwhile backs it
        // with zeros, so this stays a true picture of the template.
        let template = self.bytes.get();
        let ((bytes, dirty), home) = self.pool.checkout(
            |(bytes, dirty)| {
                let mut pages = 0;
                for (w, word) in dirty.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        let start = (w * 64 + bits.trailing_zeros() as usize) * PAGE_BYTES;
                        let end = (start + PAGE_BYTES).min(bytes.len());
                        match template {
                            Some(t) => bytes[start..end].copy_from_slice(&t[start..end]),
                            None => bytes[start..end].fill(0),
                        }
                        bits &= bits - 1;
                        pages += 1;
                    }
                }
                #[cfg(debug_assertions)]
                {
                    let zeros = [0; PAGE_BYTES];
                    let want =
                        |at: usize, n: usize| template.map_or(&zeros[..n], |t| &t[at..][..n]);
                    if let Some(page) = (0..)
                        .zip(bytes.chunks(PAGE_BYTES))
                        .position(|(i, got)| got != want(i * PAGE_BYTES, got.len()))
                    {
                        panic!(
                            "recycled DRAM image differs from its template at page {page} \
                             (bytes {}..): a write escaped dirty tracking",
                            page * PAGE_BYTES
                        );
                    }
                }
                pages
            },
            || {
                let words = self.len.div_ceil(PAGE_BYTES).div_ceil(64);
                let bytes = template.map_or_else(|| zeros(self.len), Box::clone);
                (bytes, vec![0; words].into_boxed_slice())
            },
        );
        Dram {
            len: self.len,
            bytes: OnceLock::from(bytes),
            dirty,
            pool: Source::default(),
            home,
        }
    }

    /// Counters of the pool behind [`Dram::checkout`] on this image.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats(|(bytes, _)| bytes.len())
    }

    /// Called before any `&mut` view of `start..end` is handed out: this
    /// image stops being a valid template for what it has checked out, and
    /// (if it is itself checked out) the covered pages will be restored.
    #[inline]
    fn touch(&mut self, start: usize, end: usize) {
        self.pool.retire();
        if start < end {
            for page in start / PAGE_BYTES..=(end - 1) / PAGE_BYTES {
                // Past the bitmap: untracked, or a range the slice index
                // is about to reject.
                let Some(word) = self.dirty.get_mut(page / 64) else {
                    break;
                };
                *word |= 1 << (page % 64);
            }
        }
    }
}

impl Drop for Dram {
    fn drop(&mut self) {
        // Checked-out images are always backed.
        if let Some(bytes) = self.bytes.take() {
            self.home
                .give_back((bytes, std::mem::take(&mut self.dirty)));
        }
    }
}

impl Clone for Dram {
    /// A detached copy, unbacked if `self` is.
    fn clone(&self) -> Dram {
        Dram {
            len: self.len,
            bytes: self.bytes.clone(),
            dirty: Box::default(),
            pool: Source::default(),
            home: Home::default(),
        }
    }
}

impl Default for Dram {
    fn default() -> Dram {
        Dram::zeroed(0)
    }
}

impl fmt::Debug for Dram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dirty: u32 = self.dirty.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("Dram")
            .field("len", &self.len)
            .field("dirty_pages", &dirty)
            .finish()
    }
}

impl PartialEq for Dram {
    /// Byte equality; an unbacked image is compared as zeros without
    /// being backed.
    fn eq(&self, other: &Dram) -> bool {
        match (self.bytes.get(), other.bytes.get()) {
            (Some(a), Some(b)) => a == b,
            (None, None) => self.len == other.len,
            (Some(bytes), None) | (None, Some(bytes)) => {
                self.len == other.len && bytes.iter().all(|&b| b == 0)
            }
        }
    }
}

impl Eq for Dram {}

impl Deref for Dram {
    type Target = [u8];

    /// Backs an all-zero image (module docs, rule 4).
    #[inline]
    fn deref(&self) -> &[u8] {
        self.bytes.get_or_init(|| zeros(self.len))
    }
}

impl DerefMut for Dram {
    /// Marks the whole image dirty: the caller may write anywhere. Prefer
    /// range indexing, which marks only what it covers.
    fn deref_mut(&mut self) -> &mut [u8] {
        self.touch(0, self.len);
        self.bytes_mut()
    }
}

impl<I: SliceIndex<[u8]>> Index<I> for Dram {
    type Output = I::Output;

    fn index(&self, index: I) -> &I::Output {
        &(**self)[index]
    }
}

/// Mutable indexing by any range kind marks exactly the pages the range
/// covers. (A single byte is stored through a one-byte range or
/// [`crate::MemoryState::dram_write_byte`].)
impl<I: SliceIndex<[u8]> + RangeBounds<usize>> IndexMut<I> for Dram {
    #[inline]
    fn index_mut(&mut self, index: I) -> &mut I::Output {
        let start = match index.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s.saturating_add(1),
            Bound::Unbounded => 0,
        };
        let end = match index.end_bound() {
            Bound::Included(&e) => e.saturating_add(1),
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        self.touch(start, end);
        &mut self.bytes_mut()[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::POOL_IMAGES;

    #[test]
    fn recycled_image_equals_the_template_after_scattered_writes() {
        let mut template = Dram::zeroed(3 * PAGE_BYTES + 100);
        template[10..14].copy_from_slice(b"seed");
        assert_eq!(template.pool_stats(), PoolStats::default(), "lazy pool");
        let mut a = template.checkout();
        a[0..4].copy_from_slice(b"aaaa");
        a[PAGE_BYTES - 2..PAGE_BYTES + 2].copy_from_slice(b"span"); // two pages
        a[3 * PAGE_BYTES + 99..].copy_from_slice(b"z"); // the short last page
        drop(a);
        let b = template.checkout();
        assert_eq!(b, template);
        let stats = template.pool_stats();
        assert_eq!((stats.hits, stats.misses, stats.reset_pages), (1, 1, 3));
        assert_eq!(stats.retained_bytes, 0, "the one idle image is out again");
    }

    #[test]
    fn deref_mut_marks_everything_and_ranges_mark_only_their_pages() {
        let template = Dram::zeroed(8 * PAGE_BYTES);
        let mut a = template.checkout();
        a[PAGE_BYTES..PAGE_BYTES + 1].copy_from_slice(&[7]);
        drop(a);
        drop(template.checkout());
        assert_eq!(template.pool_stats().reset_pages, 1);
        let mut b = template.checkout();
        b.fill(9); // through DerefMut
        drop(b);
        assert_eq!(template.checkout(), template);
        assert_eq!(template.pool_stats().reset_pages, 1 + 8);
    }

    #[test]
    fn pool_retains_at_most_the_cap() {
        let template = Dram::zeroed(PAGE_BYTES);
        let out: Vec<Dram> = (0..POOL_IMAGES + 3).map(|_| template.checkout()).collect();
        drop(out);
        let stats = template.pool_stats();
        assert_eq!(stats.misses, (POOL_IMAGES + 3) as u64);
        assert_eq!(stats.retained_bytes, (POOL_IMAGES * PAGE_BYTES) as u64);
    }

    #[test]
    fn clone_is_detached_and_equality_ignores_tracking() {
        let template = Dram::zeroed(2 * PAGE_BYTES);
        let mut inst = template.checkout();
        inst[0..1].copy_from_slice(&[1]);
        let copy = inst.clone();
        assert_eq!(copy, inst);
        drop(copy); // not pooled: nothing was retained
        assert_eq!(template.pool_stats().retained_bytes, 0);
        inst[0..1].copy_from_slice(&[0]);
        assert_eq!(inst, template, "dirty bitmap is not part of equality");
    }

    fn backed(image: &Dram) -> bool {
        image.bytes.get().is_some()
    }

    #[test]
    fn unbacked_template_checks_out_zeros_on_a_miss_and_a_hit() {
        let template = Dram::zeroed(3 * PAGE_BYTES + 100);
        let mut a = template.checkout();
        assert!(backed(&a), "checked-out images are always backed");
        assert!(a.iter().all(|&b| b == 0), "miss");
        a[PAGE_BYTES..PAGE_BYTES + 2].copy_from_slice(b"hi");
        a[3 * PAGE_BYTES + 99..].copy_from_slice(b"z"); // the short last page
        drop(a);
        let b = template.checkout();
        assert!(b.iter().all(|&x| x == 0), "hit");
        let stats = template.pool_stats();
        assert_eq!((stats.hits, stats.misses, stats.reset_pages), (1, 1, 2));
        assert!(!backed(&template), "neither checkout backs the template");
    }

    #[test]
    fn len_clone_eq_and_debug_leave_an_image_unbacked() {
        let image = Dram::zeroed(2 * PAGE_BYTES);
        assert_eq!((image.len(), image.is_empty()), (2 * PAGE_BYTES, false));
        let copy = image.clone();
        assert_eq!(image, copy);
        assert_ne!(image, Dram::zeroed(PAGE_BYTES));
        assert_eq!(format!("{image:?}"), "Dram { len: 8192, dirty_pages: 0 }");
        // Against a backed image: zeros are equal, anything else is not.
        let mut out = image.checkout();
        assert_eq!(image, out);
        out[5..6].copy_from_slice(&[1]);
        assert_ne!(image, out);
        assert_ne!(out, image, "either side may be the backed one");
        assert!(!backed(&image) && !backed(&copy));
        // Borrowing the bytes backs it.
        assert_eq!(image[7], 0);
        assert!(backed(&image));
        assert_eq!(image, copy);
    }
}
