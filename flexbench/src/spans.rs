//! The in-memory span store of the traced pass and its chrome://tracing
//! writer.
//!
//! Three levels, linked by `parent`: one **workload** span (id 1) covering
//! the traced run, one **event** span per recorded actor callback, and
//! **layer** spans for the calls the replay makes into `flexcast-core`
//! and `flexcast-wire` on behalf of one event. Spans of one multicast
//! share its `MsgId` as request id. Raw spans are capped; the histograms
//! in [`crate::traced`] and [`crate::replay`] are not, so every number
//! the benchmark prints comes from the uncapped side.

use flexcast_telemetry::{TraceEvent, TracePh, Tracer};
use flexcast_types::MsgId;

/// Id of the root workload span.
pub const ROOT: u64 = 1;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the log; [`ROOT`] is the workload span.
    pub id: u64,
    /// The span that caused this one (`0` for the root).
    pub parent: u64,
    /// Which layer did the work (`workload`, `harness`, `core`, `wire`,
    /// `net`).
    pub layer: &'static str,
    /// What the work was.
    pub name: &'static str,
    /// Simulator process (or TCP node) the work ran for.
    pub pid: u32,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// The multicast this work served, if any.
    pub req: Option<MsgId>,
}

/// A capped span log.
#[derive(Clone, Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    next_id: u64,
}

impl SpanLog {
    /// A log keeping at most `cap` spans beyond the root.
    pub fn new(cap: usize) -> Self {
        SpanLog {
            spans: Vec::new(),
            cap,
            dropped: 0,
            next_id: ROOT + 1,
        }
    }

    /// Records the root workload span (id [`ROOT`], first in the log);
    /// call once, whenever the run's duration is known.
    pub fn root(&mut self, name: &'static str, dur_ns: u64) {
        self.spans.insert(
            0,
            Span {
                id: ROOT,
                parent: 0,
                layer: "workload",
                name,
                pid: 0,
                start_ns: 0,
                dur_ns,
                req: None,
            },
        );
    }

    /// Records a span under `parent`, assigning and returning its id —
    /// `None` once the cap is reached (the span is counted as dropped).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        pid: u32,
        start_ns: u64,
        dur_ns: u64,
        req: Option<MsgId>,
    ) -> Option<u64> {
        let id = self.next_id;
        if id - (ROOT + 1) >= self.cap as u64 {
            self.dropped += 1;
            return None;
        }
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            pid,
            start_ns,
            dur_ns,
            req,
        });
        Some(id)
    }

    /// Spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Time a span's children cover, summed (children of one event never
    /// overlap: the replay makes its calls one after another). A span's
    /// self time is its duration minus this.
    #[cfg(test)]
    pub fn child_ns(&self, id: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The log as chrome://tracing "trace event" JSON, through the
    /// telemetry crate's writer: complete (`X`) events, `tid` = process,
    /// `args` carrying id, parent and the request id (client, seq).
    pub fn to_chrome_json(&self) -> String {
        let mut tracer = Tracer::with_capacity(self.spans.len());
        for s in &self.spans {
            let mut args = vec![
                ("id".to_string(), s.id as f64),
                ("parent".to_string(), s.parent as f64),
            ];
            if let Some(req) = s.req {
                args.push(("req_client".to_string(), req.sender.0 as f64));
                args.push(("req_seq".to_string(), req.seq as f64));
            }
            tracer.push(TraceEvent {
                name: s.name.to_string(),
                cat: s.layer,
                ph: TracePh::Complete { dur_ns: s.dur_ns },
                ts_ns: s.start_ns,
                tid: s.pid,
                args,
            });
        }
        tracer.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::ClientId;

    #[test]
    fn parents_link_three_levels_and_self_time_subtracts_children() {
        let mut log = SpanLog::new(16);
        log.root("demo", 10_000);
        let req = Some(MsgId::new(ClientId(3), 7));
        let ev = log
            .push(ROOT, "harness", "server.on_message", 2, 100, 900, req)
            .unwrap();
        log.push(ev, "core", "on_packet.msg", 2, 100, 500, req);
        log.push(ev, "wire", "size", 2, 600, 150, req);
        assert_eq!(log.child_ns(ev), 650);
        let me = &log.spans()[1];
        assert_eq!(me.dur_ns - log.child_ns(me.id), 250, "self time");
        assert_eq!(log.child_ns(ROOT), 900);
        assert!(log.spans().iter().skip(1).all(|s| s.req == req));
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut log = SpanLog::new(2);
        log.root("demo", 1);
        assert!(log.push(ROOT, "harness", "a", 0, 0, 1, None).is_some());
        assert!(log.push(ROOT, "harness", "b", 0, 0, 1, None).is_some());
        assert!(log.push(ROOT, "harness", "c", 0, 0, 1, None).is_none());
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.spans().len(), 3);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut log = SpanLog::new(4);
        log.root("demo", 2_000);
        log.push(
            ROOT,
            "core",
            "on_client",
            1,
            1_500,
            250,
            Some(MsgId::new(ClientId(1), 2)),
        );
        let json = log.to_chrome_json();
        let v = crate::json::parse(&json).expect("parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[1].get("ts").and_then(|p| p.as_f64()), Some(1.5));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(args.get("req_client").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(args.get("req_seq").and_then(|p| p.as_f64()), Some(2.0));
    }
}
