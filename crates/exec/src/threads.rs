//! Thread-count policy: explicit counts and the `auto` heuristic.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// The machine's available parallelism, queried once and cached.
///
/// Falls back to 1 when the runtime cannot tell (the conservative
/// answer: sequential is never wrong, only slower).
pub fn available_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How many workers a parallel phase should use.
///
/// `Auto` is the default everywhere: each call site estimates its work
/// in site-specific units (outer vertices, postings, partition ranks) and
/// [`resolve`](Threads::resolve) picks a worker count that keeps every
/// worker above a minimum grain — so tiny substrates run sequentially
/// and never pay pool overhead, while large ones use the whole machine.
///
/// `Fixed(n)` is the bench/test override: exactly `n` workers, even on
/// a machine with fewer cores (the pool time-slices; output is
/// identical regardless).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Threads {
    /// Scale with the work and the machine; sequential below the grain.
    #[default]
    Auto,
    /// Exactly this many workers. Resolving `Fixed(0)` panics.
    Fixed(usize),
}

impl Threads {
    /// Resolves to a concrete worker count for a phase with
    /// `work_items` units of work and a target grain of
    /// `min_items_per_worker` units per worker.
    ///
    /// `Fixed(n)` resolves to `n` unchanged. `Auto` resolves to
    /// `work_items / min_items_per_worker` clamped to
    /// `[1, available_parallelism()]`.
    ///
    /// # Panics
    ///
    /// Panics if this is `Fixed(0)` — the executor needs at least one
    /// thread (the caller's own).
    pub fn resolve(self, work_items: usize, min_items_per_worker: usize) -> usize {
        match self {
            Threads::Fixed(n) => {
                assert!(n > 0, "need at least one thread");
                n
            }
            Threads::Auto => {
                let grain = min_items_per_worker.max(1);
                (work_items / grain).clamp(1, available_parallelism())
            }
        }
    }

    /// True when this is [`Threads::Auto`].
    pub fn is_auto(self) -> bool {
        matches!(self, Threads::Auto)
    }
}

/// Existing call sites pass plain integers; keep them compiling.
impl From<usize> for Threads {
    fn from(n: usize) -> Self {
        Threads::Fixed(n)
    }
}

impl FromStr for Threads {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Threads::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Threads::Fixed(n)),
            _ => Err(format!(
                "invalid thread count '{s}': expected 'auto' or a positive integer"
            )),
        }
    }
}

impl fmt::Display for Threads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threads::Auto => write!(f, "auto"),
            Threads::Fixed(n) => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_resolves_to_itself() {
        assert_eq!(Threads::Fixed(7).resolve(0, 1_000), 7);
        assert_eq!(Threads::Fixed(1).resolve(usize::MAX, 1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn fixed_zero_panics() {
        Threads::Fixed(0).resolve(10, 1);
    }

    #[test]
    fn auto_goes_sequential_below_the_grain() {
        assert_eq!(Threads::Auto.resolve(0, 1_000), 1);
        assert_eq!(Threads::Auto.resolve(999, 1_000), 1);
    }

    #[test]
    fn auto_never_exceeds_the_machine() {
        let avail = available_parallelism();
        assert_eq!(Threads::Auto.resolve(usize::MAX, 1), avail);
        // And scales up between the bounds when the machine allows.
        if avail >= 2 {
            assert_eq!(Threads::Auto.resolve(2 * 1_000, 1_000), 2);
        }
    }

    #[test]
    fn parses_auto_and_counts() {
        assert_eq!("auto".parse::<Threads>().unwrap(), Threads::Auto);
        assert_eq!("AUTO".parse::<Threads>().unwrap(), Threads::Auto);
        assert_eq!("4".parse::<Threads>().unwrap(), Threads::Fixed(4));
        assert!("0".parse::<Threads>().is_err());
        assert!("four".parse::<Threads>().is_err());
        assert!("".parse::<Threads>().is_err());
    }

    #[test]
    fn displays_round_trip() {
        for t in [Threads::Auto, Threads::Fixed(3)] {
            assert_eq!(t.to_string().parse::<Threads>().unwrap(), t);
        }
    }

    #[test]
    fn from_usize_is_fixed() {
        assert_eq!(Threads::from(5), Threads::Fixed(5));
    }
}
