//! Executable set-associative cache simulator.
//!
//! The analytic model in [`crate::hierarchy`] predicts *where* capacity
//! transitions happen; this simulator lets tests verify those predictions by
//! actually streaming address traces through an LRU cache, and lets the
//! tiling experiments (Figure 9) demonstrate the reuse mechanism at small
//! scale.
//!
//! Single level, physically-indexed, true-LRU replacement, write-allocate /
//! write-back by default with an optional streaming-store (non-temporal)
//! path that bypasses allocation — the distinction behind the paper's two
//! Xeon MAX flag sets.

/// Kind of access fed to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    /// Regular write: write-allocate (miss brings the line in: an RFO read).
    Write,
    /// Non-temporal / streaming store: bypasses the cache entirely.
    StreamingWrite,
}

/// Aggregate statistics after a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub reads: u64,
    pub writes: u64,
    pub streaming_writes: u64,
    pub read_hits: u64,
    pub write_hits: u64,
    /// Lines read from the next level (demand misses + RFOs).
    pub lines_in: u64,
    /// Dirty lines written back to the next level.
    pub lines_out: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes + self.streaming_writes
    }

    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Hit rate over allocating accesses (reads + writes).
    pub fn hit_rate(&self) -> f64 {
        let a = self.reads + self.writes;
        if a == 0 {
            return 0.0;
        }
        self.hits() as f64 / a as f64
    }

    /// Bytes of traffic to the next level from cached accesses, given the
    /// line size. Streaming writes bypass the cache and are accounted by
    /// [`CacheSim::memory_traffic_bytes`] instead.
    pub fn next_level_bytes(&self, line_bytes: u64) -> u64 {
        (self.lines_in + self.lines_out) * line_bytes
    }
}

/// A single-level set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct CacheSim {
    line_bytes: u64,
    n_sets: u64,
    ways: usize,
    /// `tags[set * ways + way]` = Some((tag, dirty, lru_stamp)).
    tags: Vec<Option<(u64, bool, u64)>>,
    clock: u64,
    stats: CacheStats,
    /// Streaming stores write full lines to the next level directly.
    nt_line_writes: u64,
}

impl CacheSim {
    /// Create a cache of `capacity_bytes` with `ways`-way associativity and
    /// `line_bytes` lines. Capacity must be an exact multiple of
    /// `ways × line_bytes`.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(ways >= 1 && line_bytes.is_power_of_two() && line_bytes >= 8);
        assert!(
            capacity_bytes.is_multiple_of(ways as u64 * line_bytes) && capacity_bytes > 0,
            "capacity {capacity_bytes} must be a positive multiple of ways*line"
        );
        let n_sets = capacity_bytes / (ways as u64 * line_bytes);
        CacheSim {
            line_bytes,
            n_sets,
            ways,
            tags: vec![None; (n_sets as usize) * ways],
            clock: 0,
            stats: CacheStats::default(),
            nt_line_writes: 0,
        }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.n_sets * self.ways as u64 * self.line_bytes
    }

    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Total bytes moved between this cache and the next level, counting
    /// streaming stores as full-line writes that bypass allocation.
    pub fn memory_traffic_bytes(&self) -> u64 {
        (self.stats.lines_in + self.stats.lines_out + self.nt_line_writes) * self.line_bytes
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line % self.n_sets) as usize, line / self.n_sets)
    }

    /// Access one byte address.
    pub fn access(&mut self, addr: u64, kind: AccessKind) {
        self.clock += 1;
        if kind == AccessKind::StreamingWrite {
            self.stats.streaming_writes += 1;
            // Bypass: write-combining buffer emits the line downstream.
            // Count one line out per *line-sized group*; approximate by
            // counting a line every line_bytes-th byte (callers usually
            // issue line-granular traces; per-byte traces over-count, so we
            // only count when the address is line-aligned).
            if addr.is_multiple_of(self.line_bytes) {
                self.nt_line_writes += 1;
            }
            // Must also invalidate any cached copy (hardware semantics).
            let (set, tag) = self.set_and_tag(addr);
            let base = set * self.ways;
            for w in 0..self.ways {
                if let Some((t, dirty, _)) = self.tags[base + w] {
                    if t == tag {
                        if dirty {
                            self.stats.lines_out += 1;
                        }
                        self.tags[base + w] = None;
                    }
                }
            }
            return;
        }

        let is_write = kind == AccessKind::Write;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;

        // Hit?
        for w in 0..self.ways {
            if let Some((t, dirty, _)) = self.tags[base + w] {
                if t == tag {
                    self.tags[base + w] = Some((t, dirty || is_write, self.clock));
                    if is_write {
                        self.stats.write_hits += 1;
                    } else {
                        self.stats.read_hits += 1;
                    }
                    return;
                }
            }
        }

        // Miss: allocate (write-allocate policy ⇒ RFO read on write miss).
        self.stats.lines_in += 1;
        // Victim: empty way or true-LRU.
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            match self.tags[base + w] {
                None => {
                    victim = w;
                    break;
                }
                Some((_, _, stamp)) => {
                    if stamp < oldest {
                        oldest = stamp;
                        victim = w;
                    }
                }
            }
        }
        if let Some((_, dirty, _)) = self.tags[base + victim] {
            if dirty {
                self.stats.lines_out += 1;
            }
        }
        self.tags[base + victim] = Some((tag, is_write, self.clock));
    }

    /// Stream a contiguous array access pattern: `n` elements of
    /// `elem_bytes` starting at `base`, with the given kind.
    pub fn stream(&mut self, base: u64, n: u64, elem_bytes: u64, kind: AccessKind) {
        for i in 0..n {
            self.access(base + i * elem_bytes, kind);
        }
    }

    /// Flush all dirty lines (end-of-kernel accounting) and clear contents.
    pub fn flush(&mut self) {
        for slot in &mut self.tags {
            if let Some((_, dirty, _)) = slot.take() {
                if dirty {
                    self.stats.lines_out += 1;
                }
            }
        }
    }

    /// Reset statistics but keep contents (for steady-state measurements).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.nt_line_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_geometry() {
        let c = CacheSim::new(32 << 10, 8, 64);
        assert_eq!(c.capacity_bytes(), 32 << 10);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    #[should_panic]
    fn rejects_non_multiple_capacity() {
        CacheSim::new(1000, 8, 64);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(4 << 10, 4, 64);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(8, AccessKind::Read); // same line
        let s = c.stats();
        assert_eq!(s.reads, 3);
        assert_eq!(s.read_hits, 2);
        assert_eq!(s.lines_in, 1);
    }

    #[test]
    fn working_set_within_capacity_gets_full_reuse() {
        let mut c = CacheSim::new(64 << 10, 8, 64);
        // Touch 32 KiB twice: second pass must be all hits.
        c.stream(0, 512, 64, AccessKind::Read);
        c.reset_stats();
        c.stream(0, 512, 64, AccessKind::Read);
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_lru() {
        let mut c = CacheSim::new(4 << 10, 4, 64);
        // Stream 64 KiB cyclically: LRU on a cyclic pattern larger than
        // capacity gives 0% reuse on every pass.
        c.stream(0, 1024, 64, AccessKind::Read);
        c.reset_stats();
        c.stream(0, 1024, 64, AccessKind::Read);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn write_allocate_reads_line_in() {
        let mut c = CacheSim::new(4 << 10, 4, 64);
        c.access(0, AccessKind::Write);
        let s = c.stats();
        assert_eq!(s.lines_in, 1, "write miss must RFO the line");
        c.flush();
        assert_eq!(c.stats().lines_out, 1, "dirty line must write back");
    }

    #[test]
    fn streaming_store_bypasses_allocation() {
        let mut c = CacheSim::new(4 << 10, 4, 64);
        for i in 0..64u64 {
            c.access(i * 64, AccessKind::StreamingWrite);
        }
        let s = c.stats();
        assert_eq!(s.lines_in, 0, "NT stores must not allocate");
        assert_eq!(c.memory_traffic_bytes(), 64 * 64);
    }

    #[test]
    fn streaming_store_triad_moves_three_quarters_of_write_allocate_traffic() {
        // Triad: a[i] = b[i] + s*c[i]. With write-allocate: read b, read c,
        // RFO a, write back a = 4 lines per line of output. With NT stores:
        // read b, read c, stream a = 3 lines. Ratio 4/3 ≈ 1.33 — the upper
        // bound on the paper's 1446→1643 streaming-store gain.
        let n = 4096u64; // elements per array, f64
        let run = |nt: bool| {
            let mut c = CacheSim::new(32 << 10, 8, 64); // small: everything misses
            let (a, b, cc) = (0u64, 1 << 22, 2 << 22);
            for i in 0..n {
                c.access(b + i * 8, AccessKind::Read);
                c.access(cc + i * 8, AccessKind::Read);
                c.access(
                    a + i * 8,
                    if nt {
                        AccessKind::StreamingWrite
                    } else {
                        AccessKind::Write
                    },
                );
            }
            c.flush();
            c.memory_traffic_bytes()
        };
        let wa = run(false);
        let nt = run(true);
        let ratio = wa as f64 / nt as f64;
        assert!((ratio - 4.0 / 3.0).abs() < 0.05, "traffic ratio {ratio}");
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-like scenario: 2-way set, 3 conflicting lines.
        let mut c = CacheSim::new(128, 2, 64); // 1 set, 2 ways
        c.access(0, AccessKind::Read); // line A
        c.access(64, AccessKind::Read); // line B
        c.access(0, AccessKind::Read); // touch A (B is now LRU)
        c.access(128, AccessKind::Read); // line C evicts B
        c.reset_stats();
        c.access(0, AccessKind::Read); // A still resident
        c.access(128, AccessKind::Read); // C still resident
        assert_eq!(c.stats().hit_rate(), 1.0);
        c.access(64, AccessKind::Read); // B was evicted
        assert_eq!(c.stats().lines_in, 1);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut c = CacheSim::new(4 << 10, 4, 64);
        c.stream(0, 8, 64, AccessKind::Write);
        c.flush();
        let out1 = c.stats().lines_out;
        c.flush();
        assert_eq!(c.stats().lines_out, out1);
    }

    #[test]
    fn tiled_reuse_beats_streaming_over_large_array() {
        // The Figure 9 mechanism in miniature: process a 256 KiB array
        // twice. Untiled (pass 1 fully, then pass 2 fully) thrashes a
        // 64 KiB cache; tiled (per 32 KiB tile, do both passes) hits in
        // cache for the second pass of each tile.
        let cache_cap = 64 << 10;
        let array = 256 << 10u64;
        let untiled = {
            let mut c = CacheSim::new(cache_cap, 8, 64);
            c.stream(0, array / 64, 64, AccessKind::Read);
            c.stream(0, array / 64, 64, AccessKind::Read);
            c.flush();
            c.memory_traffic_bytes()
        };
        let tiled = {
            let mut c = CacheSim::new(cache_cap, 8, 64);
            let tile = 32 << 10u64;
            let mut base = 0;
            while base < array {
                c.stream(base, tile / 64, 64, AccessKind::Read);
                c.stream(base, tile / 64, 64, AccessKind::Read);
                base += tile;
            }
            c.flush();
            c.memory_traffic_bytes()
        };
        assert!(
            (untiled as f64 / tiled as f64 - 2.0).abs() < 0.1,
            "tiling should halve traffic: untiled {untiled} tiled {tiled}"
        );
    }
}
