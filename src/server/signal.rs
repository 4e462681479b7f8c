//! SIGINT/SIGTERM for the daemon binaries (`mhxd`, `mhxr`): a signal
//! lands in an atomic flag, and the daemon's owner loop polls it next to
//! its own `POST /shutdown` flag, then drains. Raw libc `signal(2)` via
//! an `extern` declaration: std exposes no signal API and the build is
//! offline, but every unix target links libc anyway. Elsewhere no signal
//! is caught and only `POST /shutdown` stops a daemon.

use std::time::Duration;

#[cfg(unix)]
mod raw {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: *const ()) -> *const ();
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: the handler is an async-signal-safe extern "C" fn; the
        // raw `signal` binding matches the libc prototype on every unix
        // target this builds for.
        unsafe {
            signal(SIGINT, on_signal as *const ());
            signal(SIGTERM, on_signal as *const ());
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod raw {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// Route SIGINT and SIGTERM into the flag [`wait_for_shutdown`] polls.
/// Call it before binding, so that a signal never kills a bound daemon
/// outright.
pub fn install() {
    raw::install();
}

/// The owner loop of a daemon: return once a signal arrived or
/// `requested` (the front end's `POST /shutdown` flag) holds. The event
/// loop cannot join itself, so the caller performs the shutdown.
pub fn wait_for_shutdown(requested: impl Fn() -> bool) {
    while !raw::requested() && !requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
}
