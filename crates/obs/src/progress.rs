//! Periodic stderr status line for long corpus runs.
//!
//! A [`Progress`] meter owns a background ticker thread that prints a
//! one-line status to stderr every interval — even while the pipeline is
//! wedged on one slow item, so "is it still moving?" is always
//! answerable. The pipeline reports completions through cheap atomic
//! increments; [`Progress::finish`] stops the ticker and always prints a
//! final summary line. Strictly stderr: stdout belongs to the census.
//!
//! Redraw policy: the line is redrawn every 500 ms (a meter must never
//! dominate a fast run's I/O), and the periodic ticker only runs when
//! stderr is a terminal. Piped
//! stderr (CI logs, `2>file`) still gets the final summary line from
//! [`Progress::finish`], just not the intermediate repaints. The line
//! carries an ETA extrapolated from the running item rate.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time between two redraws of the status line.
const INTERVAL: Duration = Duration::from_millis(500);

/// How a completed corpus item classifies for the status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemClass {
    /// Analyzed cleanly.
    Analyzed,
    /// Analyzed from a damaged capture.
    Salvaged,
    /// Produced no analysis.
    Failed,
}

#[derive(Debug)]
struct Shared {
    total: u64,
    done: AtomicU64,
    salvaged: AtomicU64,
    failed: AtomicU64,
    stop: AtomicBool,
    start: Instant,
}

impl Shared {
    fn line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let salvaged = self.salvaged.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let secs = self.start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let total = self.total;
        // Extrapolate from the running rate once at least one item
        // finished; "eta -" before that and nothing once the run is done.
        let eta = if done >= total {
            String::new()
        } else if done > 0 && rate > 0.0 {
            format!(" eta {:.0}s", (total - done) as f64 / rate)
        } else {
            " eta -".to_string()
        };
        format!(
            "progress {done}/{total} traces ({salvaged} salvaged, {failed} failed) {rate:.1}/s elapsed {secs:.1}s{eta}"
        )
    }

    fn emit(&self) {
        eprintln!("{}: {}", crate::log::program(), self.line());
    }
}

/// A running progress meter; construct with [`Progress::start`].
#[derive(Debug)]
pub struct Progress {
    shared: Arc<Shared>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl Progress {
    /// Starts the meter and — when stderr is a terminal — its ticker
    /// thread. `total`, the corpus length, sizes the "done/total"
    /// readout and the ETA.
    pub fn start(total: usize) -> Progress {
        let shared = Arc::new(Shared {
            total: total as u64,
            done: AtomicU64::new(0),
            salvaged: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            start: Instant::now(),
        });
        // Intermediate repaints are only useful on an interactive
        // terminal; a piped stderr keeps just the final summary line.
        if !std::io::stderr().is_terminal() {
            return Progress {
                shared,
                ticker: None,
            };
        }
        let ticker_shared = Arc::clone(&shared);
        let ticker = std::thread::Builder::new()
            .name("tcpa-progress".into())
            // tcpa-lint: allow(thread-spawn-audit) -- stderr progress ticker only; touches no analysis state and is stopped and joined by finish()
            .spawn(move || {
                let mut last = Instant::now();
                // Sleep in short steps so finish() never blocks a full
                // interval waiting for the ticker to notice.
                while !ticker_shared.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    if last.elapsed() >= INTERVAL {
                        ticker_shared.emit();
                        last = Instant::now();
                    }
                }
            })
            .ok();
        Progress { shared, ticker }
    }

    /// Reports one completed item.
    pub fn observe(&self, class: ItemClass) {
        self.shared.done.fetch_add(1, Ordering::Relaxed);
        match class {
            ItemClass::Analyzed => {}
            ItemClass::Salvaged => {
                self.shared.salvaged.fetch_add(1, Ordering::Relaxed);
            }
            ItemClass::Failed => {
                self.shared.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stops the ticker and prints the final status line.
    pub fn finish(mut self) {
        self.stop_ticker();
        self.shared.emit();
    }

    fn stop_ticker(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        // finish() already joined; an abandoned meter must still stop
        // its ticker rather than print forever.
        self.stop_ticker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_line_format() {
        let p = Progress::start(10);
        p.observe(ItemClass::Analyzed);
        p.observe(ItemClass::Salvaged);
        p.observe(ItemClass::Failed);
        let line = p.shared.line();
        assert!(line.contains("3/10 traces"), "{line}");
        assert!(line.contains("(1 salvaged, 1 failed)"), "{line}");
        p.finish();
    }

    #[test]
    fn eta_appears_midway_and_disappears_when_done() {
        let p = Progress::start(4);
        p.observe(ItemClass::Analyzed);
        p.observe(ItemClass::Analyzed);
        std::thread::sleep(Duration::from_millis(5));
        let midway = p.shared.line();
        assert!(midway.contains(" eta "), "{midway}");
        p.observe(ItemClass::Analyzed);
        p.observe(ItemClass::Analyzed);
        let done = p.shared.line();
        assert!(!done.contains("eta"), "{done}");
    }
}
