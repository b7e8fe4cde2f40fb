//! Write-allocate vs streaming-store traffic accounting.
//!
//! STREAM-style bandwidth numbers count *useful* bytes (reads the kernel
//! needs plus writes it produces). The hardware may move more: a regular
//! write miss first reads the line (read-for-ownership), inflating traffic
//! by one line per written line. Non-temporal ("streaming") stores skip the
//! RFO. The paper's two Xeon MAX flag sets differ exactly in this (§2,
//! Figure 1: 1446 GB/s application flags vs 1643 GB/s with `-qopt-streaming-
//! stores=always` style tuning).

/// Store policy in effect for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreMode {
    /// Regular cached stores: every written line costs an extra read (RFO).
    WriteAllocate,
    /// Non-temporal stores: written lines go straight to memory.
    Streaming,
}

/// Byte-traffic model for a kernel with known read/write volumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficModel {
    /// Useful bytes read per iteration (or per element).
    pub read_bytes: f64,
    /// Useful bytes written per iteration (or per element).
    pub write_bytes: f64,
}

impl TrafficModel {
    pub fn new(read_bytes: f64, write_bytes: f64) -> Self {
        assert!(read_bytes >= 0.0 && write_bytes >= 0.0);
        TrafficModel {
            read_bytes,
            write_bytes,
        }
    }

    /// STREAM-convention useful bytes.
    pub fn useful_bytes(&self) -> f64 {
        self.read_bytes + self.write_bytes
    }

    /// Actual bytes the memory system moves under the store mode.
    pub fn moved_bytes(&self, mode: StoreMode) -> f64 {
        match mode {
            StoreMode::WriteAllocate => self.read_bytes + 2.0 * self.write_bytes,
            StoreMode::Streaming => self.useful_bytes(),
        }
    }

    /// The *reported* bandwidth (useful bytes / time) when the memory system
    /// sustains `raw_bw_gbs` of actual traffic.
    pub fn reported_bandwidth_gbs(&self, raw_bw_gbs: f64, mode: StoreMode) -> f64 {
        raw_bw_gbs * self.useful_bytes() / self.moved_bytes(mode)
    }

    /// Speedup of streaming stores over write-allocate for this kernel
    /// (pure traffic ratio: the upper bound on the observable gain).
    pub fn streaming_store_gain(&self) -> f64 {
        self.moved_bytes(StoreMode::WriteAllocate) / self.moved_bytes(StoreMode::Streaming)
    }

    // --- The BabelStream kernels (f64 elements), paper Figure 1 ---

    /// Copy: c[i] = a[i] — 8 read + 8 write bytes per element.
    pub fn stream_copy() -> Self {
        TrafficModel::new(8.0, 8.0)
    }

    /// Mul: b[i] = s·c[i].
    pub fn stream_mul() -> Self {
        TrafficModel::new(8.0, 8.0)
    }

    /// Add: c[i] = a[i] + b[i].
    pub fn stream_add() -> Self {
        TrafficModel::new(16.0, 8.0)
    }

    /// Triad: a[i] = b[i] + s·c[i] — the paper's headline kernel.
    pub fn stream_triad() -> Self {
        TrafficModel::new(16.0, 8.0)
    }

    /// Dot: sum += a[i]·b[i] — reads only.
    pub fn stream_dot() -> Self {
        TrafficModel::new(16.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_streaming_gain_is_four_thirds() {
        let t = TrafficModel::stream_triad();
        assert!((t.streaming_store_gain() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dot_gains_nothing_from_streaming_stores() {
        let t = TrafficModel::stream_dot();
        assert_eq!(t.streaming_store_gain(), 1.0);
    }

    #[test]
    fn copy_gain_is_three_halves() {
        // Copy writes half its useful bytes: (8+16)/(8+8) = 1.5.
        let t = TrafficModel::stream_copy();
        assert!((t.streaming_store_gain() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reported_bandwidth_below_raw_under_write_allocate() {
        let t = TrafficModel::stream_triad();
        let raw = 2000.0;
        let rep = t.reported_bandwidth_gbs(raw, StoreMode::WriteAllocate);
        assert!(rep < raw);
        assert!((rep - raw * 24.0 / 32.0).abs() < 1e-9);
        // Streaming mode reports the full raw bandwidth.
        assert_eq!(t.reported_bandwidth_gbs(raw, StoreMode::Streaming), raw);
    }

    #[test]
    fn paper_xeon_max_flag_gap_is_within_traffic_bound() {
        // 1643/1446 = 1.136 must be ≤ the theoretical 4/3 Triad bound.
        let observed = 1643.0 / 1446.0;
        let bound = TrafficModel::stream_triad().streaming_store_gain();
        assert!(observed <= bound);
        assert!(observed > 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_traffic_rejected() {
        TrafficModel::new(-1.0, 0.0);
    }
}
