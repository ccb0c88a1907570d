//! What a run collected, and how it is printed: a human-readable table
//! of every metric with its unit and sample count, then one JSON line.

use crate::trace::{LayerTime, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Corpus and load scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale (the benchmark proper).
    Full,
    /// A few databases and sessions, for the benchmark's own tests.
    Small,
}

/// Frame types the codec metrics are split by.
pub const FRAME_KINDS: [&str; 9] = [
    "hello",
    "ask",
    "feedback",
    "transcript",
    "bye",
    "welcome",
    "turn",
    "transcript_dump",
    "goodbye",
];

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer the workload never reaches
/// reads 0.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("llm.generate.us", "us"),
        ("llm.generate.calls", "count"),
        ("llm.classify.us", "us"),
        ("llm.classify.calls", "count"),
        ("llm.edit.us", "us"),
        ("llm.edit.calls", "count"),
        ("llm.retrieval_cache.hit_ratio", "ratio"),
        ("assistant.answer.us", "us"),
        ("pipeline.incorporate.self_us", "us"),
        ("interpret.us", "us"),
        ("gate.us", "us"),
        ("search.step.us", "us"),
        ("search.enumerated", "count"),
        ("search.survivor_ratio", "ratio"),
        ("canon.oracle.us", "us"),
        ("canon.oracle.calls", "count"),
        ("canon.oracle.skips", "count"),
        ("semcache.us", "us"),
        ("semcache.hit_ratio", "ratio"),
        ("engine.exec.us", "us"),
        ("engine.exec.calls", "count"),
        ("user.feedback.us", "us"),
        ("codec.encode.us", "us"),
        ("codec.decode.us", "us"),
        ("codec.bytes", "bytes"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kind in FRAME_KINDS {
        v.push((format!("codec.{kind}.encode.us"), "us"));
        v.push((format!("codec.{kind}.decode.us"), "us"));
        v.push((format!("codec.{kind}.bytes"), "bytes"));
    }
    v.extend(
        [
            ("session.ask.us", "us"),
            ("session.feedback.us", "us"),
            ("store.append.us", "us"),
            ("store.bytes_per_op", "bytes"),
            ("store.compaction.us", "us"),
            ("accept.wait_us", "us"),
            ("admission.queued", "count"),
            ("admission.rejected", "count"),
            ("repl.shipped", "count"),
            ("repl.ack_timeouts", "count"),
            ("repl.degraded_entries", "count"),
            ("repl.lag_after_drain", "count"),
            ("repl.gate_wait_us", "us"),
            ("turn.unattributed_us", "us"),
            ("trace.overhead_ratio", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a single measurement).
    pub samples: usize,
    /// Extra detail printed in the table (e.g. the percentile a tail
    /// value was actually taken at).
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (eval cases, or sessions).
    pub attempted: u64,
    /// Operations that crashed, timed out, failed or were rejected.
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub failures: Vec<String>,
    /// End-to-end metrics (the untraced run's JSON).
    pub e2e: Vec<Metric>,
    /// The workload's own metric names, printed for reading only.
    pub table: Vec<Metric>,
    /// Per-layer metrics (the traced run's JSON).
    pub layers: Vec<Metric>,
    /// Free-form lines printed before the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an output-check failure.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records a note.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
            detail: String::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Self::metric(name, value, unit, samples));
    }

    /// Records a workload-named metric for the table.
    pub fn table(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.table.push(Self::metric(name, value, unit, samples));
    }

    /// Records a workload-named tail percentile for the table.
    pub fn tail_table(&mut self, name: &str, t: Tail, unit: &'static str) {
        let mut m = Self::metric(name, t.value, unit, t.samples);
        m.detail = format!("at p{:.2}", t.percentile);
        self.table.push(m);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Self::metric(name, value, unit, 0));
    }

    /// Adds the self-time table of a trace as notes. `roots` are the span
    /// names whose total time is the denominator of each share.
    pub fn layer_table(&mut self, table: &BTreeMap<&'static str, LayerTime>, roots: &[&str]) {
        let root_ns: u64 = roots
            .iter()
            .filter_map(|r| table.get(r))
            .map(|t| t.total_ns)
            .sum();
        let mut rows: Vec<_> = table.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        self.notes.push(format!(
            "{:<24} {:>9} {:>11} {:>11} {:>7}",
            "span (self-time table)", "count", "total_ms", "self_ms", "self%"
        ));
        for (name, t) in rows {
            self.notes.push(format!(
                "{:<24} {:>9} {:>11.2} {:>11.2} {:>6.1}%",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                if root_ns == 0 {
                    0.0
                } else {
                    100.0 * t.self_ns as f64 / root_ns as f64
                }
            ));
        }
    }

    /// Puts the per-layer metrics in [`layer_metrics`] order, adding a
    /// zero for every layer this workload does not reach. A recorded
    /// name missing from the list is an output-check failure.
    pub fn complete_layers(&mut self) {
        let mut recorded: BTreeMap<String, Metric> =
            self.layers.drain(..).map(|m| (m.name.clone(), m)).collect();
        for (name, unit) in layer_metrics() {
            let m = recorded
                .remove(&name)
                .unwrap_or_else(|| Self::metric(&name, 0.0, unit, 0));
            self.layers.push(m);
        }
        for name in recorded.into_keys() {
            self.fail(format!("per-layer metric {name} is not in the metric list"));
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable block followed by the final JSON line.
    pub fn render(&self, traced: bool) -> String {
        let mut s = String::new();
        for note in &self.notes {
            let _ = writeln!(s, "{note}");
        }
        for failure in &self.failures {
            let _ = writeln!(s, "CHECK FAILED: {failure}");
        }
        let sections: [(&str, &[Metric]); 3] = [
            ("end-to-end", &self.e2e),
            ("workload", &self.table),
            ("per-layer", &self.layers),
        ];
        for (title, metrics) in sections {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(s, "-- {title} metrics");
            for m in metrics {
                let _ = writeln!(
                    s,
                    "{:<32} {:>16.4} {:<6} n={:<7} {}",
                    m.name, m.value, m.unit, m.samples, m.detail
                );
            }
        }
        if self.attempted > 0 {
            let _ = writeln!(
                s,
                "failed_ratio {:.6} ({} of {} attempted)",
                self.failed as f64 / self.attempted as f64,
                self.failed,
                self.attempted
            );
        }
        let metrics = if traced { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        s
    }
}

/// A finite number with all its digits, as JSON.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Peak resident set size of this process, MB (from `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the calling thread has run, seconds, from
/// `/proc/thread-self/schedstat` (nanoseconds). Time the VM's vCPU was
/// stolen by the host, or the thread spent waiting, is not counted.
pub fn thread_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("perfbench needs Linux /proc/thread-self/schedstat");
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the thread's run time in ns");
    ns as f64 / 1e9
}

/// CPU time of the whole process, exited threads included, seconds:
/// `utime + stime` from `/proc/self/stat`, in clock ticks of 1/100 s
/// (Linux's fixed `USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let text =
        std::fs::read_to_string("/proc/self/stat").expect("perfbench needs Linux /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &text[text.rfind(')').expect("stat has a command name") + 1..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("stat time fields are integers"))
        .sum();
    ticks as f64 / 100.0
}
