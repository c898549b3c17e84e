//! Stage-attributed telemetry for the VarSaw reproduction's hot paths.
//!
//! The workspace's speed claims (plan fusion, the sampler and
//! reconstruction kernels) all rest on "where did the time go"
//! questions, so the hot paths carry instrumentation points with a
//! **fixed stage taxonomy** ([`Stage`]): plan compilation, the
//! statevector sweeps, noise sampling, Bayesian reconstruction,
//! VarSaw's Local-PMF marginals and energy assembly.
//!
//! Instrumentation is **feature-gated**: without this crate's `enabled`
//! feature (downstream crates forward their own `telemetry` feature to
//! it), [`span`] returns a zero-sized guard and the optimizer deletes
//! the call sites — the instrumented binaries are the uninstrumented
//! ones. With the feature on, spans time themselves with
//! [`std::time::Instant`] and accumulate into one process-global set of
//! lock-free per-stage atomics, read with [`global_snapshot`]; two
//! snapshots bracket a region with [`TelemetrySnapshot::since`].
//!
//! Even when compiled in, recording honors a runtime switch, on by
//! default and flipped with [`set_active`] — an instrumented build can
//! still run cold.
//!
//! Spans at the chosen call sites are **disjoint by construction** (noise
//! spans sit outside the sweep spans, and the marginal and energy spans
//! contain no sampling or reconstruction span), so summing a snapshot's
//! stages never double-counts
//! wall time; the `telemetry` experiments table relies on this when it
//! reports the fraction of an iteration attributed to named stages.
//!
//! ```
//! use telemetry::Stage;
//!
//! let before = telemetry::global_snapshot();
//! {
//!     let _span = telemetry::span(Stage::SweepSerial);
//!     // ... statevector work ...
//! }
//! let delta = telemetry::global_snapshot().since(&before);
//! if telemetry::compiled() {
//!     assert_eq!(delta.stat(Stage::SweepSerial).count, 1);
//! } else {
//!     assert!(delta.is_empty());
//! }
//! ```

use std::fmt;

/// The fixed stage taxonomy every instrumented call site attributes to.
///
/// The set is closed on purpose: dashboards, the experiments table, and
/// the bench-history tooling can enumerate [`Stage::ALL`] without
/// version skew, and a new stage is a reviewed API change rather than a
/// stray string label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Compiling one circuit (`qsim::CircuitPlan::compile`).
    PlanCompile,
    /// Never recorded. Kept only because `paperbench/src/main.rs` and
    /// `BENCHMARK.json` name it; a benchmark change drops it (ROADMAP.md,
    /// "Benchmark housekeeping").
    PlanRebind,
    /// Dense statevector pass on the calling thread: gate sweeps,
    /// marginal/probability reads, and state copies.
    SweepSerial,
    /// Never recorded. Kept only because `paperbench/src/main.rs` and
    /// `BENCHMARK.json` name it; a benchmark change drops it (ROADMAP.md,
    /// "Benchmark housekeeping").
    SweepThreaded,
    /// Never recorded. Kept only because `paperbench/src/main.rs` names
    /// it; a benchmark change drops it (ROADMAP.md, "Benchmark
    /// housekeeping").
    SweepSharded,
    /// Distribution-level noise: depolarizing and readout confusion
    /// application, plus shot sampling.
    NoiseSampling,
    /// Bayesian reconstruction sweeps (`mitigation::Reconstructor`).
    Reconstruction,
    /// VarSaw's Local-PMF build: marginalizing each reduced subset PMF
    /// onto the windows it covers (`mitigation::Pmf::marginal`).
    Marginal,
    /// Energy assembly from per-group outcome PMFs
    /// (`vqe::GroupedHamiltonian::energy_from_pmfs`).
    Energy,
}

impl Stage {
    /// Number of stages in the taxonomy.
    pub const COUNT: usize = 9;

    /// Every stage, in display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::PlanCompile,
        Stage::PlanRebind,
        Stage::SweepSerial,
        Stage::SweepThreaded,
        Stage::SweepSharded,
        Stage::NoiseSampling,
        Stage::Reconstruction,
        Stage::Marginal,
        Stage::Energy,
    ];

    /// The stage's dense index into snapshot arrays (`0..COUNT`).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable name (`snake_case`), used by the
    /// experiments table and report files.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::PlanCompile => "plan_compile",
            Stage::PlanRebind => "plan_rebind",
            Stage::SweepSerial => "sweep_serial",
            Stage::SweepThreaded => "sweep_threaded",
            Stage::SweepSharded => "sweep_sharded",
            Stage::NoiseSampling => "noise_sampling",
            Stage::Reconstruction => "reconstruction",
            Stage::Marginal => "marginal",
            Stage::Energy => "energy",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated totals for one [`Stage`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Recorded events (span completions / duration records).
    pub count: u64,
    /// Total recorded wall time, nanoseconds.
    pub total_ns: u64,
}

/// An immutable copy of per-stage accumulators: the exchange format
/// between the recording layer and everything that reports on it (the
/// experiments table, the paper-run benchmark).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    counts: [u64; Stage::COUNT],
    nanos: [u64; Stage::COUNT],
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot::empty()
    }
}

impl TelemetrySnapshot {
    /// A snapshot with every stage at zero.
    pub const fn empty() -> Self {
        TelemetrySnapshot {
            counts: [0; Stage::COUNT],
            nanos: [0; Stage::COUNT],
        }
    }

    /// The totals recorded for `stage`.
    pub fn stat(&self, stage: Stage) -> StageStat {
        let i = stage.index();
        StageStat {
            count: self.counts[i],
            total_ns: self.nanos[i],
        }
    }

    /// Every `(stage, totals)` row in [`Stage::ALL`] order.
    pub fn rows(&self) -> impl Iterator<Item = (Stage, StageStat)> + '_ {
        Stage::ALL.into_iter().map(|s| (s, self.stat(s)))
    }

    /// Sum of all stages' recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Sum of all stages' event counts.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing has been recorded (all counters zero).
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0 && self.total_ns() == 0
    }

    /// Adds `other`'s totals into `self`, stage by stage (saturating).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for i in 0..Stage::COUNT {
            self.counts[i] = self.counts[i].saturating_add(other.counts[i]);
            self.nanos[i] = self.nanos[i].saturating_add(other.nanos[i]);
        }
    }

    /// The per-stage difference `self - earlier` (saturating at zero) —
    /// how two [`global_snapshot`] reads bracket a region of interest.
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut out = TelemetrySnapshot::empty();
        for i in 0..Stage::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
            out.nanos[i] = self.nanos[i].saturating_sub(earlier.nanos[i]);
        }
        out
    }

    /// Divides every per-stage count and total by `passes` — turns an
    /// N-pass accumulation into a per-pass average. `passes == 0` is
    /// treated as 1.
    #[must_use]
    pub fn scaled_down(&self, passes: u32) -> TelemetrySnapshot {
        let d = u64::from(passes.max(1));
        let mut out = TelemetrySnapshot::empty();
        for i in 0..Stage::COUNT {
            out.counts[i] = self.counts[i] / d;
            out.nanos[i] = self.nanos[i] / d;
        }
        out
    }
}

/// Whether the instrumentation was compiled in (the `enabled` feature).
/// `false` means every recording entry point in this crate is a no-op
/// regardless of the runtime switch.
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Stage, TelemetrySnapshot};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// Lock-free per-stage accumulators: one `(count, nanos)` atomic pair
    /// per stage. Relaxed ordering everywhere — totals are statistics,
    /// not synchronization.
    static COUNTS: [AtomicU64; Stage::COUNT] = [const { AtomicU64::new(0) }; Stage::COUNT];
    static NANOS: [AtomicU64; Stage::COUNT] = [const { AtomicU64::new(0) }; Stage::COUNT];

    static ACTIVE: AtomicBool = AtomicBool::new(true);

    /// Whether recording is live right now: compiled in **and** the
    /// runtime switch is on (the default; see [`set_active`]).
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Flips the runtime recording switch for the rest of the process.
    /// No-op without the `enabled` feature.
    pub fn set_active(on: bool) {
        ACTIVE.store(on, Ordering::Relaxed);
    }

    fn record(stage: Stage, ns: u64) {
        let i = stage.index();
        COUNTS[i].fetch_add(1, Ordering::Relaxed);
        NANOS[i].fetch_add(ns, Ordering::Relaxed);
    }

    fn saturating_ns(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    /// A live span: times the region from construction to drop and
    /// accumulates into the global cells. Zero-sized and inert without
    /// the `enabled` feature.
    #[must_use = "a span records the time until it is dropped; bind it to a variable"]
    #[derive(Debug)]
    pub struct Span {
        live: Option<(Stage, Instant)>,
    }

    /// Starts timing `stage`; the returned guard records on drop.
    /// Inactive (runtime switch off) spans cost one atomic load.
    pub fn span(stage: Stage) -> Span {
        Span {
            live: active().then(|| (stage, Instant::now())),
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if let Some((stage, start)) = self.live.take() {
                record(stage, saturating_ns(start.elapsed()));
            }
        }
    }

    /// The process-global accumulated totals.
    pub fn global_snapshot() -> TelemetrySnapshot {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        TelemetrySnapshot {
            counts: COUNTS.each_ref().map(load),
            nanos: NANOS.each_ref().map(load),
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Stage, TelemetrySnapshot};

    /// Whether recording is live right now. Always `false` without the
    /// `enabled` feature.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Flips the runtime recording switch. No-op without the `enabled`
    /// feature.
    #[inline(always)]
    pub fn set_active(_on: bool) {}

    /// A live span guard. Zero-sized and inert without the `enabled`
    /// feature.
    #[must_use = "a span records the time until it is dropped; bind it to a variable"]
    #[derive(Debug)]
    pub struct Span;

    /// Starts timing `stage`. Compiles to nothing without the `enabled`
    /// feature.
    #[inline(always)]
    pub fn span(_stage: Stage) -> Span {
        Span
    }

    /// The process-global accumulated totals: always empty.
    #[inline(always)]
    pub fn global_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot::empty()
    }
}

pub use imp::{active, global_snapshot, set_active, span, Span};

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that record (or flip the runtime switch) share the global
    /// cells, so they serialize on this lock and pin the switch on.
    fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_active(true);
        guard
    }

    #[test]
    fn taxonomy_is_dense_and_named() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage}");
            assert!(!stage.name().is_empty());
        }
        // Names are unique (report files key on them).
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn stage_names_are_stable() {
        // Report files and the paper-run benchmark's stage rows key on
        // these names, in this order.
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "plan_compile",
                "plan_rebind",
                "sweep_serial",
                "sweep_threaded",
                "sweep_sharded",
                "noise_sampling",
                "reconstruction",
                "marginal",
                "energy",
            ]
        );
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let snap = TelemetrySnapshot::empty();
        assert!(snap.is_empty());
        assert_eq!(snap.total_ns(), 0);
        assert_eq!(snap.total_count(), 0);
        assert_eq!(snap.rows().count(), Stage::COUNT);
    }

    #[test]
    fn merge_and_since_are_inverse_on_disjoint_stages() {
        let mut a = TelemetrySnapshot::empty();
        let b = TelemetrySnapshot::empty();
        a.merge(&b);
        assert!(a.is_empty());
        assert_eq!(a.since(&b), TelemetrySnapshot::empty());
    }

    #[test]
    fn noop_mode_records_nothing() {
        // Either mode: the span API is callable; in no-op mode nothing
        // lands in the global cells, in enabled mode each span lands
        // there exactly once.
        let _lock = recording_lock();
        let before = global_snapshot();
        {
            let _span = span(Stage::SweepSerial);
            std::hint::black_box(());
        }
        {
            let _span = span(Stage::Reconstruction);
            std::hint::black_box(());
        }
        let delta = global_snapshot().since(&before);
        if compiled() {
            assert_eq!(delta.stat(Stage::SweepSerial).count, 1);
            assert_eq!(delta.stat(Stage::Reconstruction).count, 1);
            assert_eq!(delta.total_count(), 2);
        } else {
            assert!(delta.is_empty());
            assert!(global_snapshot().is_empty());
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn runtime_switch_gates_recording() {
        let _lock = recording_lock();
        set_active(false);
        let before = global_snapshot();
        {
            let _span = span(Stage::SweepSerial);
        }
        assert!(
            global_snapshot().since(&before).is_empty(),
            "switched-off span recorded"
        );
        set_active(true);
        {
            let _span = span(Stage::SweepSerial);
        }
        let delta = global_snapshot().since(&before);
        assert_eq!(delta.stat(Stage::SweepSerial).count, 1);
    }
}
