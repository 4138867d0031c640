//! In-memory spans around every call the harness makes into a layer,
//! plus a counting allocator. Both cost one relaxed flag load when the
//! run is untraced.
//!
//! A span is `{id, parent, name, start, end}`; spans of one training
//! call or query share an `id`. Self time is a span's duration minus
//! the time its child spans cover.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static TRACING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Counts allocated bytes (growth only for `realloc`) while tracing.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACING.load(Ordering::Relaxed) && new_size > layout.size() {
            ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

pub fn enable() {
    TRACING.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Bytes allocated since tracing was enabled (0 when untraced).
pub fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

struct Record {
    id: u64,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// An open span; it closes when dropped.
pub struct Span(Option<usize>);

/// Open a span named after the layer entry point it wraps.
pub fn span(name: &'static str, id: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start = epoch().elapsed();
    let mut recs = records().lock().expect("span log poisoned by a panic");
    recs.push(Record {
        id,
        parent,
        name,
        start,
        end: start,
    });
    let index = recs.len() - 1;
    OPEN.with(|open| open.borrow_mut().push(index));
    Span(Some(index))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end = epoch().elapsed();
            OPEN.with(|open| open.borrow_mut().retain(|&i| i != index));
            if let Ok(mut recs) = records().lock() {
                recs[index].end = end;
            }
        }
    }
}

/// Run `f` inside a span and return its result with its wall time; the
/// time is measured whether or not the run is traced.
pub fn timed<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = span(name, id);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Per-name totals: span count, total and self milliseconds.
pub fn summary() -> Value {
    let recs = records().lock().expect("span log poisoned by a panic");
    let mut child_time = vec![Duration::ZERO; recs.len()];
    for r in recs.iter() {
        if let Some(p) = r.parent {
            child_time[p] += r.end.saturating_sub(r.start);
        }
    }
    let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (r, children) in recs.iter().zip(&child_time) {
        let total = r.end.saturating_sub(r.start);
        let entry = by_name.entry(r.name).or_default();
        entry.0 += 1;
        entry.1 += total.as_secs_f64() * 1e3;
        entry.2 += total.saturating_sub(*children).as_secs_f64() * 1e3;
    }
    Value::Array(
        by_name
            .into_iter()
            .map(|(name, (count, total_ms, self_ms))| {
                serde_json::json!({
                    "name": name,
                    "count": count,
                    "total_ms": total_ms,
                    "self_ms": self_ms,
                })
            })
            .collect(),
    )
}

/// The raw spans that carry `id`, as `{id, parent, name, start_ms, end_ms}`.
pub fn spans_of(id: u64) -> Value {
    let recs = records().lock().expect("span log poisoned by a panic");
    Value::Array(
        recs.iter()
            .filter(|r| r.id == id)
            .map(|r| {
                let parent = r.parent.map_or(Value::Null, |p| Value::UInt(p as u64));
                serde_json::json!({
                    "id": r.id,
                    "parent": parent,
                    "name": r.name,
                    "start_ms": r.start.as_secs_f64() * 1e3,
                    "end_ms": r.end.as_secs_f64() * 1e3,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get, num, text};

    #[test]
    fn self_time_excludes_child_spans() {
        enable();
        let id = 0xABCD;
        {
            let _outer = span("test.outer", id);
            std::thread::sleep(Duration::from_millis(20));
            let (_, inner) = timed("test.inner", id, || {
                std::thread::sleep(Duration::from_millis(30))
            });
            assert!(inner >= Duration::from_millis(30));
        }
        let rows = summary();
        let row = |name: &str| {
            rows.as_array()
                .expect("array")
                .iter()
                .find(|r| get(r, "name").and_then(text) == Some(name))
                .cloned()
                .expect("span recorded")
        };
        let field = |r: &Value, k: &str| get(r, k).and_then(num).expect("number");
        let outer = row("test.outer");
        let inner = row("test.inner");
        assert!(field(&outer, "total_ms") >= 50.0);
        // The outer span's self time is its own 20 ms, not the 30 ms child.
        assert!(field(&outer, "self_ms") < field(&outer, "total_ms") - 29.0);
        assert_eq!(field(&inner, "self_ms"), field(&inner, "total_ms"));
        let raw = spans_of(id);
        let raw = raw.as_array().expect("array");
        assert_eq!(raw.len(), 2);
        assert!(matches!(get(&raw[1], "parent"), Some(Value::UInt(_))));
    }
}
