//! Shared parsing for `VSNOOP_*` environment knobs.
//!
//! Every runtime tunable read from the environment (`VSNOOP_SHARD_WORKERS`,
//! `VSNOOP_FLIGHT_CAP`, `VSNOOP_WARM_CAP`, `VSNOOP_HEARTBEAT_MS`) is a
//! positive integer. These used to be parsed ad hoc with `.parse().ok()`,
//! which silently fell back to the default on a malformed value — setting
//! `VSNOOP_SHARD_WORKERS=abc` (or `=0`) looked accepted but did nothing.
//! [`env_positive_usize`] keeps the fall-back-to-default behaviour (a bad
//! knob must never abort a long campaign) but warns **once per knob** on
//! stderr so the operator learns the value was ignored.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Reads the environment knob `name` as a positive integer.
///
/// Returns `None` when the variable is unset, *or* when it is set to a
/// malformed value (non-integer, zero, or out of range) — in which case a
/// one-line warning naming the knob and the rejected value is printed to
/// stderr, once per knob per process. Callers treat `None` as "use the
/// default", exactly as before.
pub fn env_positive_usize(name: &str) -> Option<usize> {
    parse_positive(name, &std::env::var(name).ok()?)
}

/// The parsing half of [`env_positive_usize`], split out so unit tests
/// can exercise malformed values without mutating the process
/// environment. `raw` is the knob's value; `name` is used only in the
/// warning.
pub fn parse_positive(name: &str, raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        Ok(_) => {
            warn_malformed(name, raw, "must be a positive integer (>= 1)");
            None
        }
        Err(_) => {
            warn_malformed(name, raw, "is not an unsigned integer");
            None
        }
    }
}

/// [`env_positive_usize`] for `u64`-valued knobs (millisecond periods
/// like `VSNOOP_HEARTBEAT_MS`): same warn-once fall-back-to-default
/// semantics, without the platform-width cap.
pub fn env_positive_u64(name: &str) -> Option<u64> {
    parse_positive_u64(name, &std::env::var(name).ok()?)
}

/// The parsing half of [`env_positive_u64`], split out so unit tests
/// can exercise malformed values without mutating the process
/// environment.
pub fn parse_positive_u64(name: &str, raw: &str) -> Option<u64> {
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        Ok(_) => {
            warn_malformed(name, raw, "must be a positive integer (>= 1)");
            None
        }
        Err(_) => {
            warn_malformed(name, raw, "is not an unsigned integer");
            None
        }
    }
}

/// Prints the ignored-knob warning, once per knob name per process.
fn warn_malformed(name: &str, raw: &str, why: &str) {
    if note_first_warning(name) {
        eprintln!("warning: ignoring {name}={raw:?}: {why}; using the default");
    }
}

/// Records that `name` warned; returns `true` only the first time, which
/// is what makes the stderr warning once-per-knob. Split from the
/// printing so the latch itself is unit-testable.
fn note_first_warning(name: &str) -> bool {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    warned.insert(name.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_positive("VSNOOP_TEST_OK", "8"), Some(8));
        assert_eq!(parse_positive("VSNOOP_TEST_OK", " 16 "), Some(16));
        assert_eq!(parse_positive("VSNOOP_TEST_OK", "1"), Some(1));
    }

    #[test]
    fn malformed_values_fall_back_to_default() {
        // Each rejected shape returns None (caller keeps its default).
        assert_eq!(parse_positive("VSNOOP_TEST_BAD", "abc"), None);
        assert_eq!(parse_positive("VSNOOP_TEST_BAD", "0"), None);
        assert_eq!(parse_positive("VSNOOP_TEST_BAD", "-3"), None);
        assert_eq!(parse_positive("VSNOOP_TEST_BAD", "4.5"), None);
        assert_eq!(parse_positive("VSNOOP_TEST_BAD", ""), None);
    }

    #[test]
    fn u64_variant_mirrors_usize_semantics() {
        assert_eq!(parse_positive_u64("VSNOOP_TEST_OK64", "1000"), Some(1000));
        assert_eq!(parse_positive_u64("VSNOOP_TEST_OK64", " 250 "), Some(250));
        assert_eq!(parse_positive_u64("VSNOOP_TEST_BAD64", "0"), None);
        assert_eq!(parse_positive_u64("VSNOOP_TEST_BAD64", "abc"), None);
        assert_eq!(parse_positive_u64("VSNOOP_TEST_BAD64", "-1"), None);
        assert_eq!(env_positive_u64("VSNOOP_TEST_DEFINITELY_UNSET"), None);
    }

    #[test]
    fn warning_latch_fires_once_per_knob() {
        assert!(note_first_warning("VSNOOP_TEST_LATCH_A"));
        assert!(!note_first_warning("VSNOOP_TEST_LATCH_A"));
        assert!(note_first_warning("VSNOOP_TEST_LATCH_B"));
        assert!(!note_first_warning("VSNOOP_TEST_LATCH_B"));
    }

    #[test]
    fn unset_knob_is_silent_none() {
        assert_eq!(env_positive_usize("VSNOOP_TEST_DEFINITELY_UNSET"), None);
    }
}
