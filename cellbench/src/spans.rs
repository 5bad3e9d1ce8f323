//! In-memory spans recorded around calls into each layer.
//!
//! A span has a layer name, start and end (nanoseconds since the
//! tracer's origin), the index of the span that caused it, and the run
//! or batch id it belongs to. Spans stay in memory until the traced run
//! ends and [`write_json`] writes them out.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `exec.try_run`.
    pub name: &'static str,
    /// Run or batch id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder never panics while holding its lock")
    }

    /// Runs `f` inside a span; `f` receives the span's index so it can
    /// parent child spans on it.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(index);
        let end_ns = self.now_ns();
        self.lock()[index].end_ns = end_ns;
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Runs `f` inside a span when tracing is on, and plainly otherwise.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, id, parent, |index| f(Some(index))),
        None => f(None),
    }
}

/// Durations in milliseconds of every span named `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Self time of span `index`: its duration minus the part of it that
/// its child spans cover.
#[must_use]
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    spans[index]
        .duration_ns()
        .saturating_sub(union_ns(children))
}

/// Share of `[start_ns, end_ns)` covered by top-level spans that started
/// inside it.
#[must_use]
pub fn coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.start_ns >= start_ns && s.start_ns < end_ns)
        .map(|s| (s.start_ns, s.end_ns.min(end_ns)))
        .collect();
    let wall = end_ns.saturating_sub(start_ns);
    if wall == 0 {
        return 0.0;
    }
    union_ns(top) as f64 / wall as f64
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Writes `spans` as a JSON array, one object per span.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{comma}",
            s.name,
            s.id,
            s.start_ns,
            s.end_ns,
            self_time_ns(spans, i)
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            span("c", None, 120, 150),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert!((coverage(&spans, 0, 200) - 0.65).abs() < 1e-12);
    }
}
