//! # bwb-bench — the command-line front ends
//!
//! The binaries under `src/bin/`: `figures` prints each paper figure's
//! reproduction (`cargo run -p bwb-bench --bin figures [N]`) — host
//! measurements where the hardware allows, model outputs for the
//! cross-platform comparisons — and writes the data as CSV under
//! `target/figures/`; `analyze`, `trace`, `ablation` and `serve` drive
//! the analyzers, the tracer and the job server. Timing of the engine's
//! layers and of serving (`serve_mix`) is the separate `perf/`
//! benchmark's job.

use std::path::PathBuf;

/// Directory the figure binary writes its CSVs to.
pub fn figures_dir() -> PathBuf {
    PathBuf::from("target/figures")
}

/// One figure's standard flow: render + save CSV.
pub fn emit(figure: bwb_core::Figure) {
    let exp = bwb_core::Experiment::new(figure);
    println!("{}", exp.render());
    match exp.save_csv(&figures_dir()) {
        Ok(path) => println!("\n[data written to {}]", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

/// SIGINT as a flag: the `serve` binary drains on it instead of dying.
pub mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_sig: i32) {
        // Async-signal-safe: a single atomic store.
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        /// POSIX `signal(2)`: always available on the linux-gnu targets this
        /// workspace builds for; declared directly since the workspace vendors
        /// no libc crate.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(crate) const SIGINT: i32 = 2;

    /// From now on a SIGINT sets [`stopped`] instead of ending the process.
    pub fn install() {
        // SAFETY: installs a handler that only stores to a static
        // AtomicBool, which is async-signal-safe; `signal` is always
        // available on the linux-gnu target. `tests::sigint_sets_stop`
        // raises the signal through it.
        unsafe { signal(SIGINT, on_sigint) };
    }

    /// True once a SIGINT has arrived after [`install`].
    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::sigint;

    extern "C" {
        /// ISO C `raise`: delivers the signal to the calling thread and
        /// returns only after its handler has.
        fn raise(sig: i32) -> i32;
    }

    #[test]
    fn sigint_sets_stop() {
        sigint::install();
        assert!(!sigint::stopped());
        // SAFETY: `raise` has no memory preconditions; the handler
        // installed above only stores to an atomic.
        assert_eq!(unsafe { raise(sigint::SIGINT) }, 0);
        assert!(sigint::stopped());
    }
}
