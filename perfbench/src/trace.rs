//! In-memory span sink plus the summary statistics the report prints.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer (never inside the program): name, start, end, parent span and
//! the case or session the work belongs to. They stay in memory until the
//! run ends, when [`Trace::write_tsv`] writes them out and
//! [`Trace::self_times`] folds them into the per-layer self-time table.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `pipeline.incorporate`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Case index or session id the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span sink shared by reference. Spans nest by call order on the
/// thread that records them (the traced replays are single-threaded).
/// A disabled sink records nothing, which is how the same replay code
/// runs untraced to measure the tracing overhead.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    inner: Mutex<Inner>,
}

/// Handle to an open span; pass it back to [`Trace::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Trace {
    /// A sink that records when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            epoch: Instant::now(),
            enabled,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("trace sink poisoned by a panicking span")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&self, name: &'static str, unit: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        let idx = inner.spans.len();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit,
        });
        inner.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[idx].end_ns = end_ns;
        if let Some(pos) = inner.open.iter().rposition(|&i| i == idx) {
            inner.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, unit);
        let out = f();
        self.end(open);
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used for a layer that runs inside another call, such as
    /// the engine behind a semantic-cache miss).
    pub fn record(&self, name: &'static str, unit: u64, started: Instant, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = u64::try_from(started.saturating_duration_since(self.epoch).as_nanos())
            .unwrap_or(u64::MAX);
        let end_ns = start_ns.saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(0));
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Per-name totals: `(count, total ns, self ns)`. Self time is the
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let inner = self.lock();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for span in &inner.spans {
            if let Some(p) = span.parent {
                child_ns[p] = child_ns[p].saturating_add(span.dur_ns());
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in inner.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.dur_ns();
            entry.self_ns += span.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `index name start_ns end_ns parent unit`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tunit")?;
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        out.flush()
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean duration per span, µs (0 when none were recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// A latency percentile together with the rank it was actually taken
/// at and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the reported rank.
    pub value: f64,
    /// The percentile the value sits at (99.0 when the sample allowed it).
    pub percentile: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The `want`-th percentile (nearest rank) of an ascending sample when at
/// least [`TAIL_SAMPLES_BEYOND`] samples lie beyond it; otherwise the
/// highest percentile that still has that many beyond. With no more
/// samples than that, the maximum is returned at percentile 100.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: want,
            samples: 0,
        };
    }
    let rank = ((want / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank >= TAIL_SAMPLES_BEYOND {
        return Tail {
            value: sorted[rank - 1],
            percentile: want,
            samples: n,
        };
    }
    if n <= TAIL_SAMPLES_BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - TAIL_SAMPLES_BEYOND;
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Median of an unsorted sample (mean of the middle pair for even
/// counts; 0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond — p99 is reportable.
        let t = tail(&ramp(1000), 99.0);
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        // 999 samples: rank 990, only 9 beyond — fall back to the rank
        // with ten beyond it.
        let t = tail(&ramp(999), 99.0);
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 100.0 * 989.0 / 999.0).abs() < 1e-9);
        assert!(t.percentile < 99.0);
        // 200 samples: highest percentile with ten beyond is p95.
        let t = tail(&ramp(200), 99.0);
        assert_eq!((t.value, t.percentile), (190.0, 95.0));
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        let t = tail(&ramp(7), 99.0);
        assert_eq!((t.value, t.percentile, t.samples), (7.0, 100.0, 7));
        assert_eq!(tail(&[], 99.0).samples, 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let trace = Trace::new(true);
        let outer = trace.begin("outer", 0);
        trace.span("inner", 0, || std::thread::sleep(Duration::from_millis(2)));
        trace.end(outer);
        let table = trace.self_times();
        let (o, i) = (table["outer"], table["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(trace.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let trace = Trace::new(false);
        trace.span("x", 0, || ());
        assert!(trace.spans().is_empty());
    }
}
