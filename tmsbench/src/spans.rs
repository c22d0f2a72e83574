//! Per-layer time accounting for the traced run. The benchmark times each
//! call it makes into a layer's public API and charges the elapsed time
//! to that layer; nothing inside the program is instrumented.

use std::time::Instant;

/// The layer a timed call belongs to. Each variant is one public call (or
/// a fixed group of calls) into one crate of the repository.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `WorldBuilder::build` (and app generation) for a traced world.
    Build,
    /// `WorldBuilder::build` for the untraced twin world.
    BuildBare,
    /// `Ros2World::run_for` with the runtime tracers never started.
    RunBare,
    /// `start_runtime_tracers` / `run_for` / `stop_runtime_tracers`.
    RunTraced,
    /// `Ros2World::collect_segment_into`: perf-buffer drain.
    Collect,
    /// `TraceSegment::sort_by_time`.
    Sort,
    /// `SegmentWriter::write_segment` (and `finish`).
    Encode,
    /// `SynthesisSession::feed_segment` on the cumulative session.
    Feed,
    /// Baseline model + `Baseline::from_dag` + `BaselineStore::install`.
    Install,
    /// Per-window snapshot session: `feed_segment` + `model()`.
    WindowModel,
    /// `BaselineStore::observe`.
    Observe,
    /// `SynthesisSession::model` on the cumulative session.
    Model,
    /// `merge_dag_refs` of a finished tenant into the running merge.
    Merge,
    /// `Dag::canonicalize` of the merged model.
    Canonicalize,
    /// `SegmentReader::read_segment_into` over a whole file.
    Decode,
    /// `SynthesisSession::feed_reader` over a whole file (fused decode).
    FeedReader,
    /// `SynthesisSession::model` on the replayed session.
    ReplayModel,
}

const LAYERS: usize = Layer::ReplayModel as usize + 1;

/// Nanosecond and call-count accumulators, one slot per [`Layer`]. When
/// disabled, [`Spans::time`] calls straight through and reads no clock.
#[derive(Clone, Debug)]
pub struct Spans {
    enabled: bool,
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, ns: [0; LAYERS], calls: [0; LAYERS] }
    }

    /// Runs `f`, charging its wall time to `layer` when enabled.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        out
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Mean nanoseconds per call of `layer`.
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        self.ns(layer) as f64 / self.calls(layer) as f64
    }

    /// Sum over `layers`, in nanoseconds.
    pub fn sum(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.ns(l)).sum()
    }

    /// Nanoseconds charged to all layers together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}
