//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public functions: name, start, end, parent span
//! and request id. High-frequency leaf calls (one VFS append per WAL
//! record) are folded into one aggregate per `(parent, name)` instead of
//! one record each, so a run with millions of appends stays small.
//!
//! When tracing is off every entry point is a single thread-local flag
//! check, and the wrapped closure runs untouched.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index meaning "top level".
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// Folded leaf calls under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafAgg {
    pub calls: u64,
    pub total_ns: u64,
}

#[derive(Debug)]
struct State {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    leaves: BTreeMap<(u32, &'static str), LeafAgg>,
    request: u64,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Start recording on this thread (clears anything recorded before).
pub fn enable() {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            leaves: BTreeMap::new(),
            request: 0,
        })
    });
}

/// Stop recording and hand back what was recorded.
pub fn take() -> Option<Trace> {
    STATE.with(|s| s.borrow_mut().take()).map(|st| Trace {
        spans: st.spans,
        leaves: st.leaves,
    })
}

/// Is this thread recording?
pub fn enabled() -> bool {
    STATE.with(|s| s.borrow().is_some())
}

/// Run `f` with recording paused (the untraced side of the overhead
/// measurement).
pub fn suspended<T>(f: impl FnOnce() -> T) -> T {
    let st = STATE.with(|s| s.borrow_mut().take());
    let out = f();
    STATE.with(|s| *s.borrow_mut() = st);
    out
}

/// Tag subsequent spans with a request id (a query or batch number).
pub fn set_request(id: u64) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.request = id;
        }
    });
}

/// Nanoseconds since tracing was enabled (0 when off).
pub fn now_ns() -> u64 {
    STATE.with(|s| {
        s.borrow()
            .as_ref()
            .map_or(0, |st| st.origin.elapsed().as_nanos() as u64)
    })
}

/// Run `f` inside a span named `name`, nested under the current span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = STATE.with(|s| {
        let mut b = s.borrow_mut();
        let st = b.as_mut()?;
        let idx = st.spans.len() as u32;
        let parent = st.stack.last().copied().unwrap_or(ROOT);
        let start_ns = st.origin.elapsed().as_nanos() as u64;
        st.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: st.request,
        });
        st.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        STATE.with(|s| {
            if let Some(st) = s.borrow_mut().as_mut() {
                st.spans[idx as usize].end_ns = st.origin.elapsed().as_nanos() as u64;
                st.stack.pop();
            }
        });
    }
    out
}

/// Run `f` as a folded leaf call named `name` under the current span.
pub fn leaf<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let parent = st.stack.last().copied().unwrap_or(ROOT);
            let agg = st.leaves.entry((parent, name)).or_default();
            agg.calls += 1;
            agg.total_ns += ns;
        }
    });
    out
}

/// Per-name totals of a recorded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// A finished trace.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<SpanRec>,
    pub leaves: BTreeMap<(u32, &'static str), LeafAgg>,
}

impl Trace {
    /// Calls, busy time and self time per span name. A span's self time
    /// is its duration minus the time its children (spans and folded
    /// leaves) cover; children never overlap, all spans being on one
    /// thread.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (&(parent, _), agg) in &self.leaves {
            if parent != ROOT {
                child_ns[parent as usize] += agg.total_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.busy_ns += d;
            e.self_ns += d.saturating_sub(child_ns[i]);
        }
        for (&(_, name), agg) in &self.leaves {
            let e = out.entry(name).or_default();
            e.calls += agg.calls;
            e.busy_ns += agg.total_ns;
            e.self_ns += agg.total_ns;
        }
        out
    }

    /// Nanoseconds inside `[from, to)` covered by top-level spans whose
    /// name is not in `exclude`.
    pub fn top_level_ns(&self, from: u64, to: u64, exclude: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT && !exclude.contains(&s.name))
            .map(|s| s.end_ns.min(to).saturating_sub(s.start_ns.max(from)))
            .sum()
    }

    /// Write the spans, then the folded leaves, as JSON lines.
    pub fn dump_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (&(parent, name), agg) in &self.leaves {
            let parent = if parent == ROOT {
                "null".to_string()
            } else {
                parent.to_string()
            };
            writeln!(
                w,
                "{{\"leaf\":\"{name}\",\"parent\":{parent},\"calls\":{},\"total_ns\":{}}}",
                agg.calls, agg.total_ns
            )?;
        }
        w.flush()
    }
}

/// The layer a span name belongs to: its first dotted component.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_leaves() {
        enable();
        span("store.end_batch", || {
            span("vfs.sync_dir", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            leaf("vfs.append", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = take().unwrap();
        let by = t.by_name();
        let parent = by["store.end_batch"];
        let child = by["vfs.sync_dir"];
        let folded = by["vfs.append"];
        assert_eq!(parent.calls, 1);
        assert_eq!(folded.calls, 1);
        assert!(parent.busy_ns >= child.busy_ns + folded.busy_ns);
        assert_eq!(
            parent.self_ns,
            parent.busy_ns - child.busy_ns - folded.busy_ns
        );
        assert_eq!(t.spans[1].parent, 0);
        assert!(!enabled());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        assert_eq!(span("store.query", || 7), 7);
        assert!(take().is_none());
    }
}
