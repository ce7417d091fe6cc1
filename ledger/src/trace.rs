//! In-memory spans for the traced run.
//!
//! A span is `{name, start_ns, end_ns, parent, read_id}`. Spans are
//! recorded from the ledger's own code, around the calls into each layer's
//! public functions, on the one thread the traced run uses; they are kept
//! in memory and written out when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `read_id` of a span that belongs to no single read (a block, a file).
pub const NO_READ: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub read_id: u32,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    read_id: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, dropping anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            read_id: NO_READ,
        });
    });
}

/// Stops recording and returns the spans, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

/// Sets the read that spans opened from now on belong to.
pub fn set_read(read_id: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.read_id = read_id;
        }
    });
}

/// An open span; closes when dropped. A no-op while recording is off, so
/// the same decorated code runs in the untraced pass.
pub struct Guard(Option<u32>);

pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return Guard(None);
        };
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        let read_id = rec.read_id;
        rec.open.push(id);
        // Read the clock last, so bookkeeping is charged to the parent.
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            read_id,
        });
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.spans[id as usize].end_ns = end_ns;
                rec.open.retain(|&open| open != id);
            }
        });
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children may overlap each other; overlapping
/// parts are not subtracted twice, and parts outside the parent are
/// ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(count, total duration, total self time)` in ns.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += self_ns;
    }
    out
}

/// The span file: one JSON array of span objects.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, span) in spans.iter().enumerate() {
        let id = |v: u32| {
            if v == u32::MAX {
                "null".to_owned()
            } else {
                v.to_string()
            }
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"read_id\":{}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            id(span.parent),
            id(span.read_id)
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            read_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 { a 10..40 { b 20..30 }, c 50..60 }
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("c", 50, 60, 0),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // root 0..100 { a 10..50, b 30..70, c 90..120 (runs past the parent) }
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 50, 0),
            span("b", 30, 70, 0),
            span("c", 90, 120, 0),
        ];
        // covered = 10..70 (60) + 90..100 (10)
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("leaf", 10, 20, 0),
            span("leaf", 30, 50, 0),
        ];
        let totals = totals(&spans);
        assert_eq!(totals["leaf"], (2, 30, 30));
        assert_eq!(totals["root"], (1, 100, 70));
    }

    #[test]
    fn recorder_links_parents_and_reads() {
        start();
        set_read(7);
        {
            let _outer = super::span("outer");
            let _inner = super::span("inner");
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans.iter().all(|s| s.read_id == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Recording is off again: guards are no-ops.
        drop(super::span("ignored"));
        assert!(finish().is_empty());
        assert!(to_json(&spans).contains("\"parent\":null"));
    }
}
