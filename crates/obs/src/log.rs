//! A leveled stderr logger.
//!
//! Diagnostics must never interleave with machine output: everything
//! here goes to stderr, stdout stays reserved for census tables and
//! reports. The default level is [`Level::Warn`], so stderr is clean on
//! a healthy run; `-v`/`-vv` raise it and `--quiet` drops it to errors
//! only.

use crate::registry::lock_recover;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Log severity, most severe first. The default is the logger's
/// starting threshold, [`Level::Warn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// Failures the run cannot paper over.
    Error = 0,
    /// Degradations and suspicious conditions.
    #[default]
    Warn = 1,
    /// Progress milestones, configuration echoes.
    Info = 2,
    /// Per-item chatter.
    Debug = 3,
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);
static PROGRAM: Mutex<&'static str> = Mutex::new("tcpa");

/// Sets the most verbose level that still prints.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current threshold.
pub fn level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// `true` when a message at `at` would print.
pub fn enabled(at: Level) -> bool {
    at <= level()
}

/// Sets the program name prefixed to every line (the CLI sets
/// `"tcpanaly"`).
pub fn set_program(name: &'static str) {
    *lock_recover(&PROGRAM) = name;
}

/// The configured program name.
pub fn program() -> &'static str {
    *lock_recover(&PROGRAM)
}

/// Emits `msg` at `at` to stderr if the level allows.
pub fn log(at: Level, msg: &str) {
    if enabled(at) {
        eprintln!("{}: {msg}", program());
    }
}

/// Error-level message (prints even under `--quiet`).
pub fn error(msg: &str) {
    log(Level::Error, msg);
}

/// Warning-level message.
pub fn warn(msg: &str) {
    log(Level::Warn, msg);
}

/// Info-level message (needs `-v`).
pub fn info(msg: &str) {
    log(Level::Info, msg);
}

/// Debug-level message (needs `-vv`).
pub fn debug(msg: &str) {
    log(Level::Debug, msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        assert!(Level::Error < Level::Debug);
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Warn);
    }
}
