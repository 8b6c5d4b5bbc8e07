//! Telemetry for the FlexCast suite: a metrics registry and sim-time
//! tracing spans, zero-cost when disabled.
//!
//! The crate has two halves behind one [`Telemetry`] handle:
//!
//! * a [`Registry`] of named counters, gauges, and log-bucketed
//!   [`Histogram`]s with p50/p90/p99/p999 extraction, snapshotted into a
//!   deterministic [`MetricsSnapshot`] (BTreeMap-ordered, stable JSON);
//! * a [`Tracer`] that records chrome://tracing-compatible trace events
//!   (complete spans, instants, and async begin/end pairs) stamped with
//!   simulated time in nanoseconds.
//!
//! # Gating
//!
//! [`Telemetry::default`] is *disabled*: the handle holds no allocation
//! and every recording call is a single `Option` branch, mirroring the
//! `World::enable_probes` observation plane. [`Telemetry::enabled`]
//! allocates one registry and tracer behind an `Rc`; cloning a handle
//! shares them, so a config, its world, and its actors all write to one
//! registry. The handle is single-threaded: it is neither `Send` nor
//! `Sync`.
//!
//! # Determinism
//!
//! Nothing in this crate reads wall-clock time or random state. All
//! timestamps are supplied by the caller (simulated nanoseconds), span
//! ids are caller-derived ([`SpanId::from_parts`]), and every export
//! iterates BTreeMaps or insertion-ordered buffers — so two replays of
//! the same seeded run produce byte-identical snapshots and traces.

mod export;
mod registry;
mod trace;

pub use registry::{Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{SpanId, TraceEvent, TracePh, Tracer};

use std::cell::RefCell;
use std::rc::Rc;

/// Shared state behind an enabled handle.
#[derive(Debug)]
struct Inner {
    registry: RefCell<Registry>,
    tracer: RefCell<Tracer>,
}

/// Cloneable handle to a metrics registry and tracer.
///
/// Disabled (the default) it is a `None` and every call is a no-op;
/// enabled it shares one registry/tracer across all clones. The state is
/// single-threaded (`Rc<RefCell<…>>`): the simulator runs every actor
/// callback on the calling thread, so nothing records from elsewhere.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: all recording calls are no-ops.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with an unbounded trace buffer.
    pub fn enabled() -> Self {
        Telemetry::with_trace_capacity(usize::MAX)
    }

    /// An enabled handle that keeps at most `cap` trace events; further
    /// events are counted in the `trace.dropped_events` counter rather
    /// than silently discarded.
    pub fn with_trace_capacity(cap: usize) -> Self {
        Telemetry {
            inner: Some(Rc::new(Inner {
                registry: RefCell::new(Registry::default()),
                tracer: RefCell::new(Tracer::with_capacity(cap)),
            })),
        }
    }

    /// True when recording calls actually record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().counter_add(name, delta);
        }
    }

    /// Sets the named counter to an absolute value. Used by exporters
    /// that publish an already-accumulated total (idempotent on re-export).
    #[inline]
    pub fn counter_set(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().counter_set(name, value);
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().gauge_set(name, value);
        }
    }

    /// Records one `u64` observation into the named histogram. Latency
    /// histograms record nanoseconds by convention (`*_ns` names).
    #[inline]
    pub fn record(&self, hist: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().record(hist, value);
        }
    }

    /// Records a complete span (`ph: "X"`) of `dur_ns` starting at
    /// `ts_ns`, attributed to simulated node `node`.
    #[inline]
    pub fn span(&self, cat: &'static str, name: &str, node: u32, ts_ns: u64, dur_ns: u64) {
        self.span_with_args(cat, name, node, ts_ns, dur_ns, &[]);
    }

    /// [`Telemetry::span`] with numeric args shown in the trace viewer.
    pub fn span_with_args(
        &self,
        cat: &'static str,
        name: &str,
        node: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: &[(&str, f64)],
    ) {
        if self.inner.is_some() {
            self.push_trace(TraceEvent {
                name: name.to_string(),
                cat,
                ph: TracePh::Complete { dur_ns },
                ts_ns,
                tid: node,
                args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            });
        }
    }

    /// Records an instant event (`ph: "i"`).
    #[inline]
    pub fn instant(&self, cat: &'static str, name: &str, node: u32, ts_ns: u64) {
        if self.inner.is_some() {
            self.push_trace(TraceEvent {
                name: name.to_string(),
                cat,
                ph: TracePh::Instant,
                ts_ns,
                tid: node,
                args: Vec::new(),
            });
        }
    }

    /// Appends one trace event to the tracer.
    fn push_trace(&self, ev: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.tracer.borrow_mut().push(ev);
        }
    }

    /// Opens an async span (`ph: "b"`); pair with [`Telemetry::async_end`]
    /// using the same `cat`/`name`/`id`.
    #[inline]
    pub fn async_begin(&self, cat: &'static str, name: &str, id: SpanId, node: u32, ts_ns: u64) {
        self.async_event(cat, name, id, node, ts_ns, true);
    }

    /// Closes an async span (`ph: "e"`).
    #[inline]
    pub fn async_end(&self, cat: &'static str, name: &str, id: SpanId, node: u32, ts_ns: u64) {
        self.async_event(cat, name, id, node, ts_ns, false);
    }

    fn async_event(
        &self,
        cat: &'static str,
        name: &str,
        id: SpanId,
        node: u32,
        ts_ns: u64,
        begin: bool,
    ) {
        if self.inner.is_some() {
            self.push_trace(TraceEvent {
                name: name.to_string(),
                cat,
                ph: if begin {
                    TracePh::AsyncBegin { id }
                } else {
                    TracePh::AsyncEnd { id }
                },
                ts_ns,
                tid: node,
                args: Vec::new(),
            });
        }
    }

    /// Deterministic snapshot of all metrics. Empty when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let mut snap = inner.registry.borrow().snapshot();
                let tracer = inner.tracer.borrow();
                if tracer.dropped() > 0 {
                    snap.counters
                        .insert("trace.dropped_events".to_string(), tracer.dropped());
                }
                snap
            }
            None => MetricsSnapshot::default(),
        }
    }

    /// Number of buffered trace events.
    pub fn trace_len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.tracer.borrow().len(),
            None => 0,
        }
    }

    /// The buffered trace as chrome://tracing trace-event JSON.
    pub fn trace_json(&self) -> String {
        match &self.inner {
            Some(inner) => inner.tracer.borrow().to_json(),
            None => "{\"traceEvents\":[]}".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter_add("a", 1);
        tel.record("h", 5);
        tel.span("cat", "s", 0, 0, 10);
        assert_eq!(tel.trace_len(), 0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(tel.trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tel.counter_add("x", 2);
        other.counter_add("x", 3);
        assert_eq!(tel.snapshot().counters.get("x"), Some(&5));
    }

    #[test]
    fn counter_set_is_idempotent() {
        let tel = Telemetry::enabled();
        tel.counter_set("total", 10);
        tel.counter_set("total", 10);
        assert_eq!(tel.snapshot().counters.get("total"), Some(&10));
    }

    #[test]
    fn trace_capacity_counts_drops() {
        let tel = Telemetry::with_trace_capacity(2);
        for i in 0..5 {
            tel.instant("cat", "e", 0, i);
        }
        assert_eq!(tel.trace_len(), 2);
        assert_eq!(
            tel.snapshot().counters.get("trace.dropped_events"),
            Some(&3)
        );
    }
}
