//! In-memory span recorder for the traced run.
//!
//! Each span times one call into a layer's public function from the
//! benchmark's own code: layer, call name, phase, start, end and the
//! span that was open when it started (its parent). A span's self time
//! is its duration minus what its children cover; the spans of one
//! thread nest strictly, so the children's durations can simply be
//! summed. Spans stay in memory and are written out when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The runtime crates the benchmark attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Core,
    Trace,
    Workloads,
    System,
    Power,
    Store,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Trace => "trace",
            Layer::Workloads => "workloads",
            Layer::System => "system",
            Layer::Power => "power",
            Layer::Store => "store",
        }
    }
}

/// Which part of the traced run a span belongs to: the workload's
/// set-up (store population for `serve-warm`), its timed work, or the
/// generation-only probe pass that runs after both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Timed,
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    layer: Layer,
    name: &'static str,
    phase: Phase,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn self_ns(&self) -> u64 {
        self.dur_ns() - self.child_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), phase: Phase::Timed, spans: Vec::new(), open: Vec::new() }
    }

    /// Spans opened from now on belong to `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        let phase = self.phase;
        self.spans.push(Span {
            layer,
            name,
            phase,
            parent,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Σ self time of `layer`'s spans, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.layer == layer).map(Span::self_ns).sum();
        ns as f64 * 1e-9
    }

    /// (calls, Σ duration ns) of the spans named `name`, optionally of
    /// one phase only.
    pub fn calls(&self, name: &str, phase: Option<Phase>) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && phase.is_none_or(|p| s.phase == p))
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.dur_ns()))
    }

    /// Σ duration of the root spans of `phase`, in seconds: the traced
    /// wall time of that phase's work.
    pub fn root_s(&self, phase: Phase) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.phase == phase)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Per (phase, layer, name): calls, Σ duration and Σ self time, in
    /// first-seen order — the table the traced run prints.
    pub fn summary(&self) -> Vec<(Phase, Layer, &'static str, u64, u64, u64)> {
        let mut rows: Vec<(Phase, Layer, &'static str, u64, u64, u64)> = Vec::new();
        for s in &self.spans {
            match rows.iter_mut().find(|r| r.0 == s.phase && r.2 == s.name) {
                Some(r) => {
                    r.3 += 1;
                    r.4 += s.dur_ns();
                    r.5 += s.self_ns();
                }
                None => rows.push((s.phase, s.layer, s.name, 1, s.dur_ns(), s.self_ns())),
            }
        }
        rows
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"phase\":\"{}\",\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.phase.name(),
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span(Layer::Core, "outer", |t| {
            t.span(Layer::System, "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        assert_eq!(inner.parent, Some(0));
        assert!(outer.self_ns() < inner.dur_ns());
        assert_eq!(outer.self_ns() + inner.dur_ns(), outer.dur_ns());
        assert_eq!(t.calls("inner", Some(Phase::Timed)).0, 1);
        assert_eq!(t.calls("inner", Some(Phase::Setup)).0, 0);
    }
}
