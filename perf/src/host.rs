//! Facts about the host every run echoes, so that two numbers can be told
//! apart from two machines.

use std::time::Instant;

/// What the sizes of the `_mem` workloads are judged against.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Largest cache the kernel reports for cpu0, bytes (0 when sysfs has
    /// no cache directory, as on some containers).
    pub llc_bytes: u64,
    /// Per-core level-2 cache, bytes (1 MiB when sysfs does not say).
    pub l2_bytes: u64,
    /// Transparent-huge-page mode, the bracketed word of the sysfs file.
    pub thp: String,
}

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let caches: Vec<(u64, u64)> = (0..8)
            .filter_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
                Some((level.trim().parse().ok()?, parse_size(&size)?))
            })
            .collect();
        let llc_bytes = caches.iter().map(|&(_, size)| size).max().unwrap_or(0);
        let l2_bytes = caches
            .iter()
            .find(|&&(level, _)| level == 2)
            .map_or(1 << 20, |&(_, size)| size);
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .ok()
            .and_then(|s| {
                let open = s.find('[')?;
                let close = s.find(']')?;
                Some(s[open + 1..close].to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc,
            llc_bytes,
            l2_bytes,
            thp,
        }
    }

    pub fn fingerprint(&self) -> String {
        format!(
            "host: nproc={} llc_bytes={} l2_bytes={} thp={}",
            self.nproc, self.llc_bytes, self.l2_bytes, self.thp
        )
    }
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process now, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A fixed integer spin loop, timed. Run before and after a timed region:
/// if the two disagree the host changed speed under the run, and the run's
/// numbers are suspect whatever the code did.
pub fn calib_spin_s() -> f64 {
    // The median of five: one 30 ms sample moved by half when the thread
    // was migrated or interrupted inside it.
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_their_suffix() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(260 << 20));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }
}
