//! Watchdog trips of the virtual clock.
//!
//! DRAM decay and storage accounting need a notion of elapsed time, and
//! wall-clock time would make simulations nondeterministic, so the
//! simulator's clock is an integer op-tick counter on
//! [`Hardware`](crate::Hardware), advanced once per simulated operation.
//! This module holds what a watchdog armed on that clock needs: the trip
//! payload and the hook that keeps expected trips quiet.

use std::fmt;
use std::panic::PanicHookInfo;
use std::sync::Once;

/// The panic payload thrown when an armed watchdog exhausts its op-tick
/// budget (see [`Hardware::arm_watchdog`](crate::Hardware::arm_watchdog)).
///
/// A fault-corrupted loop bound cannot be interrupted cooperatively — the
/// approximate region is arbitrary host code — so the watchdog aborts it by
/// unwinding with this payload from the clock tick that crosses the
/// deadline. Guarded runners (`enerj_core::Runtime::run_guarded`, `fenerjc
/// --max-ops`) catch the unwind and downcast to this type to distinguish a
/// deterministic budget trip from an application panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// The clock reading (completed simulated operations) at trip time.
    pub op_ticks: u64,
    /// The budget that was armed, in op-ticks.
    pub budget: u64,
}

impl fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op budget exceeded: {} ticks elapsed, budget {}", self.op_ticks, self.budget)
    }
}

/// Suppresses the default "thread panicked" stderr message for
/// [`WatchdogTrip`] unwinds, process-wide.
///
/// Watchdog trips are an expected, recoverable outcome in campaigns with
/// recovery enabled; without this, every trip would spray a spurious panic
/// report into trace output and golden CLI captures. The hook wraps (and
/// otherwise delegates to) whatever hook was installed before it, and is
/// installed at most once per process.
pub fn silence_watchdog_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            if info.payload().downcast_ref::<WatchdogTrip>().is_none() {
                previous(info);
            }
        }));
    });
}
