//! Stage-attributed telemetry for the VarSaw reproduction's hot paths.
//!
//! The workspace's speed claims (fusion ratios, batched dispatch, shard
//! exchanges) all rest on "where did the time go" questions, so the hot
//! paths carry instrumentation points with a **fixed stage taxonomy**
//! ([`Stage`]): plan compilation vs rebinding, the statevector sweep per
//! execution tier, cross-shard exchanges and plane swaps, noise
//! sampling, Bayesian reconstruction, VarSaw's Local-PMF marginals and
//! energy assembly.
//!
//! Instrumentation is **feature-gated**: without this crate's `enabled`
//! feature (downstream crates forward their own `telemetry` feature to
//! it), [`span`] returns a zero-sized guard and the optimizer deletes
//! the call sites — the instrumented binaries are the uninstrumented
//! ones. With the feature on, spans time themselves with
//! [`std::time::Instant`] and accumulate into lock-free per-stage
//! atomics:
//!
//! - a **process-global** accumulator, read with [`global_snapshot`];
//! - an optional **scoped [`Recorder`]** installed on the current thread
//!   ([`Recorder::install`]), which attributes one thread's stages apart
//!   from whatever other threads record concurrently.
//!
//! Even when compiled in, recording honors a runtime switch seeded from
//! the `VARSAW_TELEMETRY` environment knob (read once through
//! `parallel::config`) and adjustable with [`set_active`] — an
//! instrumented build can still run cold.
//!
//! Spans at the chosen call sites are **disjoint by construction** (a
//! sweep span never contains an exchange span, noise spans sit outside
//! the sweep spans, and the marginal and energy spans contain no
//! sampling or reconstruction span), so summing a snapshot's stages never double-counts
//! wall time; the `telemetry` experiments table relies on this when it
//! reports the fraction of an iteration attributed to named stages.
//!
//! ```
//! use telemetry::{Recorder, Stage};
//!
//! let recorder = Recorder::new();
//! {
//!     let _guard = recorder.install();
//!     let _span = telemetry::span(Stage::SweepSerial);
//!     // ... statevector work ...
//! }
//! if telemetry::compiled() {
//!     assert_eq!(recorder.snapshot().stat(Stage::SweepSerial).count, 1);
//! } else {
//!     assert!(recorder.snapshot().is_empty());
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
    /// Full fusion analysis of a circuit structure (plan-cache miss).
    PlanCompile,
    /// Rebinding parameters into a cached structure (plan-cache hit).
    PlanRebind,
    /// Dense statevector pass on the calling thread: gate sweeps,
    /// marginal/probability reads, and state copies of the serial tier.
    SweepSerial,
    /// Dense statevector pass fanned out across worker threads.
    SweepThreaded,
    /// Sharded statevector work: local shard sweeps and the final
    /// gather back into a dense state.
    SweepSharded,
    /// Cross-shard pairwise/quad amplitude exchanges.
    TransportExchange,
    /// Whole-shard plane swaps (global-qubit permutations).
    TransportPlaneSwap,
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
    pub const COUNT: usize = 11;

    /// Every stage, in display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::PlanCompile,
        Stage::PlanRebind,
        Stage::SweepSerial,
        Stage::SweepThreaded,
        Stage::SweepSharded,
        Stage::TransportExchange,
        Stage::TransportPlaneSwap,
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
            Stage::TransportExchange => "transport_exchange",
            Stage::TransportPlaneSwap => "transport_plane_swap",
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

    #[cfg(feature = "enabled")]
    fn add(&mut self, stage: Stage, count: u64, ns: u64) {
        let i = stage.index();
        self.counts[i] = self.counts[i].saturating_add(count);
        self.nanos[i] = self.nanos[i].saturating_add(ns);
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
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::{Duration, Instant};

    /// Lock-free per-stage accumulators: one `(count, nanos)` atomic pair
    /// per stage. Relaxed ordering everywhere — totals are statistics,
    /// not synchronization.
    #[derive(Debug, Default)]
    pub(super) struct Cells {
        counts: [AtomicU64; Stage::COUNT],
        nanos: [AtomicU64; Stage::COUNT],
    }

    impl Cells {
        fn add(&self, stage: Stage, count: u64, ns: u64) {
            let i = stage.index();
            self.counts[i].fetch_add(count, Ordering::Relaxed);
            self.nanos[i].fetch_add(ns, Ordering::Relaxed);
        }

        fn snapshot(&self) -> TelemetrySnapshot {
            let mut out = TelemetrySnapshot::empty();
            for (i, stage) in Stage::ALL.into_iter().enumerate() {
                out.add(
                    stage,
                    self.counts[i].load(Ordering::Relaxed),
                    self.nanos[i].load(Ordering::Relaxed),
                );
            }
            out
        }

        fn clear(&self) {
            for i in 0..Stage::COUNT {
                self.counts[i].store(0, Ordering::Relaxed);
                self.nanos[i].store(0, Ordering::Relaxed);
            }
        }
    }

    fn global() -> &'static Cells {
        static GLOBAL: OnceLock<Cells> = OnceLock::new();
        GLOBAL.get_or_init(Cells::default)
    }

    fn active_flag() -> &'static AtomicBool {
        static ACTIVE: OnceLock<AtomicBool> = OnceLock::new();
        ACTIVE.get_or_init(|| AtomicBool::new(parallel::telemetry_default()))
    }

    thread_local! {
        static CURRENT: RefCell<Option<Arc<Cells>>> = const { RefCell::new(None) };
    }

    /// Whether recording is live right now: compiled in **and** the
    /// runtime switch is on (`VARSAW_TELEMETRY`, adjustable via
    /// [`set_active`]).
    pub fn active() -> bool {
        active_flag().load(Ordering::Relaxed)
    }

    /// Flips the runtime recording switch (overrides the environment
    /// default for the rest of the process). No-op without the
    /// `enabled` feature.
    pub fn set_active(on: bool) {
        active_flag().store(on, Ordering::Relaxed);
    }

    fn record(stage: Stage, count: u64, ns: u64) {
        global().add(stage, count, ns);
        // `try_with` so a span dropped during thread teardown (after the
        // thread-local was destroyed) degrades to global-only recording.
        let _ = CURRENT.try_with(|cur| {
            if let Some(cells) = cur.borrow().as_ref() {
                cells.add(stage, count, ns);
            }
        });
    }

    fn saturating_ns(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    /// A live span: times the region from construction to drop and
    /// accumulates into the global cells plus the installed [`Recorder`]
    /// (if any). Zero-sized and inert without the `enabled` feature.
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
                record(stage, 1, saturating_ns(start.elapsed()));
            }
        }
    }

    /// A scoped accumulator: while [`installed`](Recorder::install) on a
    /// thread, every recording on that thread lands here *in addition
    /// to* the global cells. Cloning shares the accumulator.
    #[derive(Clone, Debug, Default)]
    pub struct Recorder {
        cells: Arc<Cells>,
    }

    impl Recorder {
        /// A fresh, empty recorder.
        pub fn new() -> Self {
            Recorder::default()
        }

        /// Installs this recorder as the calling thread's current sink
        /// until the guard drops (the previous sink, if any, is
        /// restored — installation nests).
        pub fn install(&self) -> RecorderGuard {
            let prev = CURRENT.with(|cur| cur.replace(Some(Arc::clone(&self.cells))));
            RecorderGuard { prev }
        }

        /// The totals recorded through this recorder so far.
        pub fn snapshot(&self) -> TelemetrySnapshot {
            self.cells.snapshot()
        }

        /// Resets every stage to zero.
        pub fn clear(&self) {
            self.cells.clear();
        }
    }

    /// Restores the thread's previous recorder when dropped — see
    /// [`Recorder::install`].
    #[must_use = "dropping the guard immediately uninstalls the recorder"]
    #[derive(Debug)]
    pub struct RecorderGuard {
        prev: Option<Arc<Cells>>,
    }

    impl Drop for RecorderGuard {
        fn drop(&mut self) {
            let prev = self.prev.take();
            let _ = CURRENT.try_with(|cur| {
                *cur.borrow_mut() = prev;
            });
        }
    }

    /// The process-global accumulated totals.
    pub fn global_snapshot() -> TelemetrySnapshot {
        global().snapshot()
    }

    /// Zeroes the process-global accumulators (tests and the
    /// experiments harness bracket regions with this plus
    /// [`global_snapshot`]).
    pub fn reset_global() {
        global().clear();
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

    /// A scoped accumulator. Zero-sized and inert without the `enabled`
    /// feature: snapshots are always empty.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Recorder;

    impl Recorder {
        /// A fresh recorder (inert).
        #[inline(always)]
        pub fn new() -> Self {
            Recorder
        }

        /// Installs this recorder on the calling thread (inert).
        #[inline(always)]
        pub fn install(&self) -> RecorderGuard {
            RecorderGuard
        }

        /// The totals recorded through this recorder: always empty.
        #[inline(always)]
        pub fn snapshot(&self) -> TelemetrySnapshot {
            TelemetrySnapshot::empty()
        }

        /// Resets every stage to zero (inert).
        #[inline(always)]
        pub fn clear(&self) {}
    }

    /// Restores the thread's previous recorder when dropped (inert).
    #[must_use = "dropping the guard immediately uninstalls the recorder"]
    #[derive(Debug)]
    pub struct RecorderGuard;

    /// The process-global accumulated totals: always empty.
    #[inline(always)]
    pub fn global_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot::empty()
    }

    /// Zeroes the process-global accumulators (inert).
    #[inline(always)]
    pub fn reset_global() {}
}

pub use imp::{
    active, global_snapshot, reset_global, set_active, span, Recorder, RecorderGuard, Span,
};

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
                "transport_exchange",
                "transport_plane_swap",
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
        // Either mode: the recorder API is callable; in no-op mode it
        // stays empty, in enabled mode the span must land in both the
        // recorder and the global cells.
        let _lock = recording_lock();
        let recorder = Recorder::new();
        let before = global_snapshot();
        {
            let _guard = recorder.install();
            let _span = span(Stage::SweepSerial);
            std::hint::black_box(());
        }
        {
            let _span = span(Stage::Reconstruction);
            std::hint::black_box(());
        }
        let recorded = recorder.snapshot();
        if compiled() {
            assert_eq!(recorded.stat(Stage::SweepSerial).count, 1);
            // The second span ran outside the guard, so only the global
            // cells see it.
            assert_eq!(recorded.stat(Stage::Reconstruction).count, 0);
            let delta = global_snapshot().since(&before);
            assert_eq!(delta.stat(Stage::Reconstruction).count, 1);
        } else {
            assert!(recorded.is_empty());
            assert!(global_snapshot().is_empty());
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn runtime_switch_gates_recording() {
        let _lock = recording_lock();
        set_active(false);
        let recorder = Recorder::new();
        {
            let _guard = recorder.install();
            let _span = span(Stage::SweepThreaded);
        }
        assert!(recorder.snapshot().is_empty(), "switched-off span recorded");
        set_active(true);
        {
            let _guard = recorder.install();
            let _span = span(Stage::SweepThreaded);
        }
        assert_eq!(recorder.snapshot().stat(Stage::SweepThreaded).count, 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn install_nests_and_restores() {
        let _lock = recording_lock();
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _outer_guard = outer.install();
        {
            let _inner_guard = inner.install();
            let _span = span(Stage::NoiseSampling);
        }
        // Inner guard dropped: the outer recorder is current again.
        let _span = span(Stage::PlanRebind);
        drop(_span);
        assert_eq!(inner.snapshot().stat(Stage::NoiseSampling).count, 1);
        assert_eq!(inner.snapshot().stat(Stage::PlanRebind).count, 0);
        assert_eq!(outer.snapshot().stat(Stage::PlanRebind).count, 1);
    }
}
