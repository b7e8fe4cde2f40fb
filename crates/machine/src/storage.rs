//! Dataset storage on 2 MiB pages.
//!
//! The paper's apps stream GB-sized datasets. On 4 KiB pages the first
//! touch of such a dataset costs one minor fault per 4 KiB: a 2880²
//! CloverLeaf state takes ~32 k of them. With transparent huge pages in
//! `madvise` mode (the common distribution default) the kernel backs a
//! range with 2 MiB pages only if the process asks. [`zeroed`] asks, over
//! every whole 2 MiB page of the allocation, before any page is touched.
//!
//! The advice is a hint. Under THP `never`, off Linux, under miri, or if
//! the kernel refuses, the storage stays on 4 KiB pages. The values are
//! the same either way.

/// The x86-64 PMD page: the size a transparent huge page faults in.
const HUGE_PAGE: usize = 2 << 20;

/// `n` values of `T::default()`, advised onto 2 MiB pages.
///
/// The numeric types' default is all-zero bits. `vec!` takes such a fill
/// from the allocator's zeroed memory, and a large block of that arrives
/// as untouched pages, so the advice lands before the first fault.
pub fn zeroed<T: Copy + Default>(n: usize) -> Vec<T> {
    let v = vec![T::default(); n];
    advise_huge(&v);
    v
}

/// The 2 MiB-aligned pages wholly inside `[addr, addr + len)`, as
/// `(start, len)`. `None` when the range holds no whole page.
fn huge_range(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge<T>(v: &[T]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    if let Some((start, len)) = huge_range(v.as_ptr() as usize, std::mem::size_of_val(v)) {
        // SAFETY: `[start, start + len)` lies inside `v`'s allocation, which
        // is borrowed for the call. MADV_HUGEPAGE changes only how later
        // faults in the range are served: no byte changes and every address
        // stays valid. A failure leaves the range on 4 KiB pages, so the
        // result is unused.
        unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge<T>(_: &[T]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_advises_only_whole_aligned_pages_inside_the_allocation() {
        // Less than one whole page, wherever it starts.
        assert_eq!(huge_range(0, HUGE_PAGE - 1), None);
        assert_eq!(huge_range(HUGE_PAGE + 16, HUGE_PAGE), None);
        assert_eq!(huge_range(16, 2 * HUGE_PAGE - 32), None);
        assert_eq!(huge_range(HUGE_PAGE, 0), None);
        // Exactly one page, aligned.
        assert_eq!(
            huge_range(HUGE_PAGE, HUGE_PAGE),
            Some((HUGE_PAGE, HUGE_PAGE))
        );
        // Both ends trimmed to the aligned interior.
        assert_eq!(
            huge_range(HUGE_PAGE + 16, 3 * HUGE_PAGE),
            Some((2 * HUGE_PAGE, 2 * HUGE_PAGE))
        );
        // An address range that would wrap holds no page.
        assert_eq!(huge_range(usize::MAX - 8, 64), None);
        for (addr, len) in [
            (4096, 9 << 20),
            (16, 64 << 20),
            (HUGE_PAGE - 1, HUGE_PAGE + 1),
        ] {
            let (start, n) = huge_range(addr, len).unwrap();
            assert_eq!(start % HUGE_PAGE, 0);
            assert_eq!(n % HUGE_PAGE, 0);
            assert!(n > 0 && start >= addr && start + n <= addr + len);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // millions of interpreted reads
    fn storage_is_zeroed_at_every_size_around_one_huge_page() {
        let per_page = HUGE_PAGE / std::mem::size_of::<f64>();
        for n in [per_page - 1, per_page, per_page + 1] {
            let v = zeroed::<f64>(n);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x == 0.0));
        }
        let idx = zeroed::<u32>(HUGE_PAGE / 4 + 1);
        assert_eq!(idx.len(), HUGE_PAGE / 4 + 1);
        assert!(idx.iter().all(|&x| x == 0));
        assert!(zeroed::<f64>(0).is_empty());
    }
}
