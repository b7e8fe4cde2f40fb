//! `storage::zeroed` puts a large allocation on 2 MiB pages when the
//! kernel lets it: the `AnonHugePages` of its mapping in
//! `/proc/self/smaps` is non-zero once touched. A test process of its own,
//! so no earlier allocation in it has pre-touched the block.

#![cfg(all(target_os = "linux", not(miri)))]

use bwb_machine::storage;

/// The `AnonHugePages` kB of the mapping that contains `addr`.
fn anon_huge_kb(smaps: &str, addr: usize) -> Option<usize> {
    let mut inside = false;
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = first.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                inside = (lo..hi).contains(&addr);
                continue;
            }
        }
        if let (true, Some(rest)) = (inside, line.strip_prefix("AnonHugePages:")) {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[test]
fn storage_touched_block_lands_on_huge_pages() {
    let mode =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    if !(mode.contains("[always]") || mode.contains("[madvise]")) {
        eprintln!("skipped: transparent huge pages are off here ({mode:?})");
        return;
    }
    let mut v = storage::zeroed::<u8>(8 << 20);
    for page in v.chunks_mut(4096) {
        page[0] = 1;
    }
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps");
    let mid = v.as_ptr() as usize + v.len() / 2;
    let kb = anon_huge_kb(&smaps, mid).expect("the block's mapping is in smaps");
    assert!(
        kb > 0,
        "no huge page backs a touched {} MiB block (THP {mode:?})",
        v.len() >> 20
    );
    assert_eq!(
        v.iter().map(|&b| b as usize).sum::<usize>(),
        (8 << 20) / 4096
    );
}
