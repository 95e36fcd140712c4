//! The bytes a [`Records`](super::Records) walk reads: a whole in-memory
//! capture, or a stream seen through one bounded window that is refilled
//! in place.

use std::borrow::Cow;
use std::io::{self, Read};

/// Capacity of a streamed capture's window (256 KiB). It holds a typical
/// corpus file whole, so such a file is read in one refill; a long
/// capture never sits in memory at once.
const WINDOW: usize = 256 << 10;

/// A capture as a walk sees it: the bytes from absolute offset `base` on,
/// as far as they have been read.
///
/// An in-memory capture is the degenerate case: every byte is present
/// and the end of the capture is known. A stream's window holds at most
/// 256 KiB, or the one record the walk must see whole when that record is
/// larger; it grows only as that record's bytes arrive, never to a length
/// a record header merely claims.
pub struct Capture<'a> {
    /// Capture bytes `[base, base + bytes.len())`.
    bytes: Cow<'a, [u8]>,
    /// Absolute offset of `bytes[0]`.
    base: u64,
    /// The unread rest of a stream; `None` once the end of the capture
    /// is known (always, for an in-memory capture).
    input: Option<Box<dyn Read + 'a>>,
    /// The capacity the first fill gives a stream's window.
    window: usize,
}

impl core::fmt::Debug for Capture<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Capture")
            .field("base", &self.base)
            .field("len", &self.bytes.len())
            .field("eof", &self.input.is_none())
            .finish()
    }
}

impl<'a> From<&'a [u8]> for Capture<'a> {
    fn from(bytes: &'a [u8]) -> Capture<'a> {
        Capture {
            bytes: Cow::Borrowed(bytes),
            base: 0,
            input: None,
            window: 0,
        }
    }
}

impl<'a> Capture<'a> {
    /// A capture read from `input` through a 256 KiB window, or one of
    /// `len_hint` bytes when the capture is known to be shorter. The
    /// window is allocated by the first read and filled without being
    /// zeroed first.
    pub fn stream(input: impl Read + 'a, len_hint: Option<u64>) -> Capture<'a> {
        Capture {
            bytes: Cow::Owned(Vec::new()),
            base: 0,
            input: Some(Box::new(input)),
            window: len_hint
                .and_then(|len| usize::try_from(len).ok())
                .map_or(WINDOW, |len| len.min(WINDOW)),
        }
    }

    /// Absolute offset just past the last byte read.
    #[inline]
    pub(super) fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// The bytes read from absolute offset `at` on (empty when `at` is at
    /// or past [`Capture::end`]).
    #[inline]
    pub(super) fn from(&self, at: u64) -> &[u8] {
        debug_assert!(at >= self.base, "byte {at} was dropped from the window");
        usize::try_from(at.saturating_sub(self.base))
            .ok()
            .and_then(|i| self.bytes.get(i..))
            .unwrap_or_default()
    }

    /// Reads until the window holds every byte before `upto`, or the whole
    /// rest of the capture when it ends sooner. Bytes before `keep` are no
    /// longer needed: once the window is full, they are dropped and what
    /// follows them moves to the front. Only a full window that starts at
    /// `keep` grows, by at most one window at a time, so it never holds
    /// more than one window or the bytes from `keep` to `upto`, whichever
    /// is more. Interrupted reads are retried; any other I/O error is
    /// returned, with the bytes read before it kept.
    #[inline]
    pub(super) fn fill(&mut self, keep: u64, upto: u64) -> io::Result<()> {
        if upto <= self.end() {
            return Ok(());
        }
        self.refill(keep, upto)
    }

    /// The slow path of [`Capture::fill`]: the window is short of `upto`.
    #[cold]
    fn refill(&mut self, keep: u64, upto: u64) -> io::Result<()> {
        let (Some(input), Cow::Owned(buf)) = (self.input.as_mut(), &mut self.bytes) else {
            return Ok(());
        };
        while self.base + (buf.len() as u64) < upto {
            if buf.len() == buf.capacity() {
                let stale = usize::try_from(keep.saturating_sub(self.base))
                    .map_or(buf.len(), |n| n.min(buf.len()));
                if stale > 0 {
                    buf.drain(..stale);
                    self.base += stale as u64;
                } else {
                    let short = usize::try_from(upto - self.base - buf.len() as u64)
                        .map_or(WINDOW, |n| n.min(WINDOW));
                    // The first fill sizes the window; later growth is for
                    // one record larger than it.
                    let grow = if buf.capacity() == 0 {
                        self.window.max(short)
                    } else {
                        short
                    };
                    buf.reserve_exact(grow);
                }
            }
            let spare = buf.capacity() - buf.len();
            // `take` keeps the read inside the spare capacity, which
            // `read_to_end` then fills without zeroing it first.
            let got = input.take(spare as u64).read_to_end(buf)?;
            if got < spare {
                self.input = None;
                break;
            }
        }
        Ok(())
    }

    /// Reads and drops the rest of the capture a window at a time,
    /// returning the capture's length.
    pub(super) fn skip_to_end(&mut self) -> io::Result<u64> {
        while self.input.is_some() {
            let end = self.end();
            self.fill(end, end + 1)?;
        }
        Ok(self.end())
    }
}
