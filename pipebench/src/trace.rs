//! In-memory spans recorded around calls into each crate's public
//! functions. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span of the same
/// recorder; `id` is shared by every span of one project or request.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A per-thread span recorder. When disabled, [`Tracer::span`] only
/// runs its closure, which gives the untraced wall time of the very
/// same code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Sets the id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id: self.id,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed in seconds. Children of one span
/// never overlap (one recorder is one thread), so their durations add.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The crate a span name belongs to: the text before its first dot.
pub fn crate_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(krate, _)| krate)
}

/// One JSON object per span, one per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    out
}

/// Re-bases one recorder's parent indexes so its spans can be appended
/// after `offset` spans recorded elsewhere.
pub fn append(all: &mut Vec<Span>, mut more: Vec<Span>) {
    let offset = all.len();
    for s in &mut more {
        s.parent = s.parent.map(|p| p + offset);
    }
    all.extend(more);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("core.verify_file", 0, 100, None),
            span("ir.filter", 10, 40, Some(0)),
            span("bmc.check", 40, 90, Some(0)),
            span("bmc.replay", 50, 60, Some(2)),
        ];
        let s = self_seconds(&spans);
        assert!((s["core.verify_file"] - 20e-9).abs() < 1e-15);
        assert!((s["ir.filter"] - 30e-9).abs() < 1e-15);
        assert!((s["bmc.check"] - 40e-9).abs() < 1e-15);
        assert!((s["bmc.replay"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.set_id(7);
        let v = t.span("project", |t| t.span("php-front.parse", |_| 3));
        assert_eq!(v, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("project", |_| 4), 4);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn append_rebases_parents() {
        let mut all = vec![span("a", 0, 1, None)];
        append(
            &mut all,
            vec![span("b", 0, 2, None), span("c", 0, 1, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(crate_of("php-front.parse"), "php-front");
    }
}
