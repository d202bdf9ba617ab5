//! Resident-memory measurement from `/proc`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The kibibyte value of a `/proc/<pid>/status` field such as `VmRSS:`.
pub fn status_kib(status: &str, field: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's current resident set in MiB.
pub fn current_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kib(&s, "VmRSS:"))
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Samples this process's resident set every 5 ms until
/// stopped, keeping the maximum.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
}

impl PeakSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = current_mb();
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(current_mb());
                std::thread::sleep(Duration::from_millis(5));
            }
            peak.max(current_mb())
        });
        PeakSampler { stop, handle }
    }

    /// The highest resident set seen, in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("memory sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(status_kib(status, "VmRSS:"), Some(1024.0));
        assert_eq!(status_kib(status, "VmHWM:"), Some(2048.0));
        assert_eq!(status_kib(status, "VmSwap:"), None);
        assert!(current_mb() > 0.0);
    }
}
