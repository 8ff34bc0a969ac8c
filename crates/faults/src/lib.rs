//! Deterministic fault injection for the WAFL free-space simulator.
//!
//! §3.4 of the paper leans on WAFL Iron to "recompute and recover"
//! damaged TopAA metafile blocks, but nothing in a clean-room simulator
//! damages blocks on its own. This crate is the damage generator: a
//! [`FaultPlan`] is a pure-data, seed-reproducible schedule of
//!
//! * **scribbles** — byte corruption of persisted TopAA blocks and HBPS
//!   pages ([`ScribbleFault`]),
//! * **read errors** — transient (succeed after retries) or persistent
//!   ([`ReadErrorFault`]) metafile read failures,
//! * **a crash point** — a [`CrashSite`] mid-consistency-point where the
//!   in-memory state is torn down as a power loss would.
//!
//! `wafl-fs` consumes a plan through a [`FaultSession`], which tracks
//! per-structure attempt counts so "fail the first N reads" semantics
//! are stateful while the plan itself stays immutable and replayable.
//! The same seed always yields the same plan and the same session
//! behavior — crash-consistency failures found by the torture test
//! reproduce from their seed alone.

use rand::prelude::*;
use rand::rngs::StdRng;

/// Which persisted metafile structure a fault targets.
///
/// TopAA state is persisted per RAID group (one 4 KiB block, or two HBPS
/// pages for object-store groups) and per FlexVol (two HBPS pages).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureId {
    /// A RAID group's TopAA block / HBPS page pair.
    Group(usize),
    /// A FlexVol's HBPS page pair.
    Volume(usize),
}

/// Which 4 KiB page of a structure a scribble lands on.
///
/// Heap-style TopAA state is a single block (`First`); HBPS state is a
/// histogram page (`First`) plus a candidate-list page (`Second`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageSel {
    /// The TopAA block or the HBPS histogram page.
    First,
    /// The HBPS candidate-list page (ignored for heap-style groups).
    Second,
}

/// Byte corruption of one persisted page.
///
/// The corruption XORs `len` bytes starting at `offset` with a non-zero
/// pattern derived from `pattern_seed`, so applying it always changes
/// the page (an all-zero XOR would be a no-op "corruption").
#[derive(Clone, Copy, Debug)]
pub struct ScribbleFault {
    /// Structure whose persisted page is damaged.
    pub target: StructureId,
    /// Which of the structure's pages.
    pub page: PageSel,
    /// First corrupted byte offset within the 4 KiB page.
    pub offset: usize,
    /// Number of corrupted bytes.
    pub len: usize,
    /// Seed for the XOR pattern.
    pub pattern_seed: u64,
}

impl ScribbleFault {
    /// Apply the corruption to a persisted page image.
    ///
    /// Out-of-range portions are clamped to the page, and the XOR bytes
    /// are forced non-zero, so at least one byte changes whenever
    /// `offset` is inside the page.
    pub fn apply(&self, page: &mut [u8]) {
        if self.offset >= page.len() || self.len == 0 {
            return;
        }
        let end = (self.offset + self.len).min(page.len());
        let mut rng = StdRng::seed_from_u64(self.pattern_seed);
        for byte in &mut page[self.offset..end] {
            *byte ^= rng.random_range(1u8..=u8::MAX);
        }
    }
}

/// A metafile read failure schedule for one structure.
#[derive(Clone, Copy, Debug)]
pub struct ReadErrorFault {
    /// Structure whose reads fail.
    pub target: StructureId,
    /// How many leading read attempts fail. [`PERSISTENT`] means every
    /// attempt fails (media gone, not flaky).
    pub failures: u32,
}

/// `failures` value meaning "every read attempt fails".
pub const PERSISTENT: u32 = u32::MAX;

impl ReadErrorFault {
    /// True if no finite number of retries will succeed.
    pub fn is_persistent(&self) -> bool {
        self.failures == PERSISTENT
    }
}

/// Where a crash cuts a consistency point short.
///
/// Sites are ordered by CP progress; each leaves a characteristic torn
/// state that `iron::check`/`iron::repair` must handle (see
/// `docs/recovery.md` for the fault matrix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashSite {
    /// After `n` physical block allocations are written, before any
    /// logical→physical binding: leaks allocated-but-unowned pvbns.
    AfterBlockWrites(u64),
    /// After binding and the queued deletes, before delayed frees apply:
    /// the overwritten and deleted blocks' old versions stay allocated in
    /// both VBN spaces with no volume map referencing them — leaks.
    AfterBind,
    /// After `n` delayed-free log entries applied: the rest of the log
    /// is lost (absolved), possibly with one torn entry.
    MidFreeLogApply(u64),
    /// CP work complete but the TopAA metafile was not persisted: the
    /// on-disk TopAA image is one CP stale.
    BeforeTopAaPersist,
    /// Crash immediately after TopAA persist: the cleanest tear.
    AfterTopAaPersist,
}

/// Which piece of *live, in-memory* free-space metadata a runtime
/// scribble corrupts. Unlike [`ScribbleFault`] (which damages persisted
/// page images before a remount), these fire while the aggregate is
/// serving traffic — the latent corruption the runtime scrubber exists
/// to catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeTarget {
    /// One per-page free-count summary counter of the aggregate bitmap.
    AggSummaryPage {
        /// Metafile page index (reduced modulo the page count on apply).
        page: usize,
    },
    /// One per-page free-count summary counter of a FlexVol bitmap.
    VolSummaryPage {
        /// Volume index (reduced modulo the volume count on apply).
        vol: usize,
        /// Metafile page index (reduced modulo the page count on apply).
        page: usize,
    },
    /// A cached AA score inside a RAID group's in-memory TopAA cache.
    GroupCacheScore {
        /// Group index (reduced modulo the group count on apply).
        group: usize,
    },
    /// One histogram bin count of a FlexVol's HBPS.
    HbpsBinCount {
        /// Volume index (reduced modulo the volume count on apply).
        vol: usize,
    },
    /// One list entry of a FlexVol's HBPS, made to name another listed AA.
    HbpsListEntry {
        /// Volume index (reduced modulo the volume count on apply).
        vol: usize,
    },
}

/// A scheduled in-memory corruption: at the start of the consistency
/// point numbered `at_cp`, the target counter/score is XORed with a
/// non-zero value derived from `value_seed`, guaranteeing a change.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeScribbleFault {
    /// What live structure is damaged.
    pub target: RuntimeTarget,
    /// CP count at whose start the scribble fires (fires on the first CP
    /// with `cp_count >= at_cp`, exactly once).
    pub at_cp: u64,
    /// Seed for the corrupting value.
    pub value_seed: u64,
}

/// A complete, immutable fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Corruptions applied to the persisted image before remount.
    pub scribbles: Vec<ScribbleFault>,
    /// Read failures observed during remount.
    pub read_errors: Vec<ReadErrorFault>,
    /// Optional mid-CP crash point.
    pub crash: Option<CrashSite>,
    /// In-memory corruptions fired mid-run at scheduled CP counts.
    pub runtime_scribbles: Vec<RuntimeScribbleFault>,
    /// Read failures observed by the runtime scrubber's verify reads
    /// (a separate channel from `read_errors`, which fire at mount).
    pub scrub_read_errors: Vec<ReadErrorFault>,
}

/// Dimensions of the system a random plan is generated against.
#[derive(Clone, Copy, Debug)]
pub struct PlanShape {
    /// Number of RAID groups in the aggregate.
    pub groups: usize,
    /// Number of FlexVols.
    pub volumes: usize,
    /// Rough upper bound for [`CrashSite::AfterBlockWrites`] /
    /// [`CrashSite::MidFreeLogApply`] progress counts.
    pub max_progress: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Corrupt one structure's page with a seed-derived pattern.
    pub fn scribble(target: StructureId, page: PageSel, seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        FaultPlan {
            scribbles: vec![ScribbleFault {
                target,
                page,
                offset: rng.random_range(0usize..4096),
                len: rng.random_range(1usize..=64),
                pattern_seed: rng.next_u64(),
            }],
            ..FaultPlan::default()
        }
    }

    /// Generate a random schedule from `seed`. Every draw comes from a
    /// `StdRng` seeded with `seed`, so equal seeds yield equal plans.
    pub fn random(seed: u64, shape: PlanShape) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::default();

        let pick_target = |rng: &mut StdRng| {
            if shape.volumes > 0 && rng.random_bool(0.4) {
                StructureId::Volume(rng.random_range(0..shape.volumes))
            } else {
                StructureId::Group(rng.random_range(0..shape.groups.max(1)))
            }
        };

        // Scribbles: usually zero or one structure, sometimes a couple.
        let n_scribbles = [0usize, 0, 1, 1, 1, 2][rng.random_range(0usize..6)];
        for _ in 0..n_scribbles {
            let page = if rng.random_bool(0.5) {
                PageSel::First
            } else {
                PageSel::Second
            };
            plan.scribbles.push(ScribbleFault {
                target: pick_target(&mut rng),
                page,
                offset: rng.random_range(0usize..4096),
                len: rng.random_range(1usize..=256),
                pattern_seed: rng.next_u64(),
            });
        }

        // Read errors: mostly transient (1–3 failures), occasionally
        // persistent.
        let n_read_errors = [0usize, 0, 0, 1, 1, 2][rng.random_range(0usize..6)];
        for _ in 0..n_read_errors {
            let failures = if rng.random_bool(0.25) {
                PERSISTENT
            } else {
                rng.random_range(1u32..=3)
            };
            plan.read_errors.push(ReadErrorFault {
                target: pick_target(&mut rng),
                failures,
            });
        }

        // Crash point: present in most schedules — the torture test is
        // about crash consistency first, corruption second.
        if rng.random_bool(0.8) {
            let progress = rng.random_range(0..shape.max_progress.max(1));
            plan.crash = Some(match rng.random_range(0u32..5) {
                0 => CrashSite::AfterBlockWrites(progress),
                1 => CrashSite::AfterBind,
                2 => CrashSite::MidFreeLogApply(progress),
                3 => CrashSite::BeforeTopAaPersist,
                _ => CrashSite::AfterTopAaPersist,
            });
        }
        plan
    }

    /// Generate a random *runtime* schedule from `seed`: 1–2 in-memory
    /// scribbles at CP counts in `[1, cps)` plus occasionally a transient
    /// scrub-read error, and (30% of seeds) a crash site to tear a CP
    /// while repairs may be pending. Scrub-read errors here are always
    /// transient — a persistent read failure pins its structure's ticket
    /// (and the aggregate in `ReadOnly`) forever, which is its own
    /// (deliberate, non-random) test scenario.
    pub fn random_runtime(seed: u64, shape: PlanShape, cps: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0B_5C0B_5C0B_5C0B);
        let mut plan = FaultPlan::default();
        let cps = cps.max(2);

        let pick_runtime_target = |rng: &mut StdRng| match rng.random_range(0u32..3) {
            0 => RuntimeTarget::AggSummaryPage {
                page: rng.random_range(0usize..1024),
            },
            1 if shape.volumes > 0 => RuntimeTarget::VolSummaryPage {
                vol: rng.random_range(0..shape.volumes),
                page: rng.random_range(0usize..1024),
            },
            _ => RuntimeTarget::GroupCacheScore {
                group: rng.random_range(0..shape.groups.max(1)),
            },
        };

        let n_scribbles = [1usize, 1, 1, 2, 2][rng.random_range(0usize..5)];
        for _ in 0..n_scribbles {
            plan.runtime_scribbles.push(RuntimeScribbleFault {
                target: pick_runtime_target(&mut rng),
                at_cp: rng.random_range(1..cps),
                value_seed: rng.next_u64(),
            });
        }

        if rng.random_bool(0.3) {
            let target = if shape.volumes > 0 && rng.random_bool(0.4) {
                StructureId::Volume(rng.random_range(0..shape.volumes))
            } else {
                StructureId::Group(rng.random_range(0..shape.groups.max(1)))
            };
            plan.scrub_read_errors.push(ReadErrorFault {
                target,
                failures: rng.random_range(1u32..=3),
            });
        }

        if rng.random_bool(0.3) {
            let progress = rng.random_range(0..shape.max_progress.max(1));
            plan.crash = Some(match rng.random_range(0u32..5) {
                0 => CrashSite::AfterBlockWrites(progress),
                1 => CrashSite::AfterBind,
                2 => CrashSite::MidFreeLogApply(progress),
                3 => CrashSite::BeforeTopAaPersist,
                _ => CrashSite::AfterTopAaPersist,
            });
        }
        plan
    }

    /// Scribbles aimed at `target`.
    pub fn scribbles_for(&self, target: StructureId) -> impl Iterator<Item = &ScribbleFault> + '_ {
        self.scribbles.iter().filter(move |s| s.target == target)
    }
}

/// Outcome of one faulted read attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read succeeds.
    Ok,
    /// The read fails but a retry may succeed.
    Transient,
    /// The read fails and retrying is pointless.
    Persistent,
}

/// Runtime state for consuming a [`FaultPlan`]: tracks how many read
/// attempts each structure has absorbed so transient errors clear after
/// their scheduled failure count.
#[derive(Debug)]
pub struct FaultSession<'a> {
    plan: &'a FaultPlan,
    attempts: std::collections::HashMap<StructureId, u32>,
    scrub_attempts: std::collections::HashMap<StructureId, u32>,
    fired_runtime: Vec<bool>,
}

impl<'a> FaultSession<'a> {
    /// Start consuming `plan`.
    pub fn new(plan: &'a FaultPlan) -> FaultSession<'a> {
        FaultSession {
            plan,
            attempts: std::collections::HashMap::new(),
            scrub_attempts: std::collections::HashMap::new(),
            fired_runtime: vec![false; plan.runtime_scribbles.len()],
        }
    }

    /// The plan this session consumes.
    pub fn plan(&self) -> &FaultPlan {
        self.plan
    }

    /// Record a read attempt against `target` and report its outcome.
    pub fn on_read(&mut self, target: StructureId) -> ReadOutcome {
        let Some(fault) = self.plan.read_errors.iter().find(|f| f.target == target) else {
            return ReadOutcome::Ok;
        };
        if fault.is_persistent() {
            return ReadOutcome::Persistent;
        }
        let seen = self.attempts.entry(target).or_insert(0);
        if *seen < fault.failures {
            *seen += 1;
            ReadOutcome::Transient
        } else {
            ReadOutcome::Ok
        }
    }

    /// Record a *scrub* read attempt against `target` and report its
    /// outcome. A separate attempt channel from [`FaultSession::on_read`]
    /// so mount-time and runtime failure schedules don't consume each
    /// other's budgets.
    pub fn on_scrub_read(&mut self, target: StructureId) -> ReadOutcome {
        let Some(fault) = self
            .plan
            .scrub_read_errors
            .iter()
            .find(|f| f.target == target)
        else {
            return ReadOutcome::Ok;
        };
        if fault.is_persistent() {
            return ReadOutcome::Persistent;
        }
        let seen = self.scrub_attempts.entry(target).or_insert(0);
        if *seen < fault.failures {
            *seen += 1;
            ReadOutcome::Transient
        } else {
            ReadOutcome::Ok
        }
    }

    /// Runtime scribbles due at CP count `cp` that have not fired yet,
    /// in plan order. Each is returned exactly once across the session.
    pub fn take_due_runtime_scribbles(&mut self, cp: u64) -> Vec<RuntimeScribbleFault> {
        let mut due = Vec::new();
        for (i, fault) in self.plan.runtime_scribbles.iter().enumerate() {
            if !self.fired_runtime[i] && fault.at_cp <= cp {
                self.fired_runtime[i] = true;
                due.push(*fault);
            }
        }
        due
    }

    /// The crash point, if the plan schedules one.
    pub fn crash_site(&self) -> Option<CrashSite> {
        self.plan.crash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let shape = PlanShape {
            groups: 4,
            volumes: 3,
            max_progress: 10_000,
        };
        for seed in 0..200 {
            let a = FaultPlan::random(seed, shape);
            let b = FaultPlan::random(seed, shape);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
        // And different seeds do differ somewhere in 200 tries.
        let all: std::collections::HashSet<String> = (0..200)
            .map(|s| format!("{:?}", FaultPlan::random(s, shape)))
            .collect();
        assert!(all.len() > 100, "only {} distinct plans", all.len());
    }

    #[test]
    fn scribble_always_changes_the_page() {
        for seed in 0..100 {
            let plan = FaultPlan::scribble(StructureId::Group(0), PageSel::First, seed);
            let mut page = vec![0xA5u8; 4096];
            let orig = page.clone();
            plan.scribbles[0].apply(&mut page);
            assert_ne!(page, orig, "seed {seed} produced a no-op scribble");
        }
    }

    #[test]
    fn scribble_clamps_to_page_bounds() {
        let fault = ScribbleFault {
            target: StructureId::Group(0),
            page: PageSel::First,
            offset: 4090,
            len: 100,
            pattern_seed: 7,
        };
        let mut page = vec![0u8; 4096];
        fault.apply(&mut page);
        assert!(page[..4090].iter().all(|&b| b == 0));
        assert!(page[4090..].iter().any(|&b| b != 0));
    }

    #[test]
    fn transient_errors_clear_after_scheduled_failures() {
        let plan = FaultPlan {
            read_errors: vec![ReadErrorFault {
                target: StructureId::Group(1),
                failures: 2,
            }],
            ..FaultPlan::default()
        };
        let mut session = FaultSession::new(&plan);
        assert_eq!(
            session.on_read(StructureId::Group(1)),
            ReadOutcome::Transient
        );
        assert_eq!(
            session.on_read(StructureId::Group(1)),
            ReadOutcome::Transient
        );
        assert_eq!(session.on_read(StructureId::Group(1)), ReadOutcome::Ok);
        // Unrelated structures never fail.
        assert_eq!(session.on_read(StructureId::Group(0)), ReadOutcome::Ok);
        assert_eq!(session.on_read(StructureId::Volume(0)), ReadOutcome::Ok);
    }

    #[test]
    fn persistent_errors_never_clear() {
        let plan = FaultPlan {
            read_errors: vec![ReadErrorFault {
                target: StructureId::Volume(2),
                failures: PERSISTENT,
            }],
            ..FaultPlan::default()
        };
        let mut session = FaultSession::new(&plan);
        for _ in 0..50 {
            assert_eq!(
                session.on_read(StructureId::Volume(2)),
                ReadOutcome::Persistent
            );
        }
    }

    #[test]
    fn runtime_plans_are_seed_deterministic_and_bounded() {
        let shape = PlanShape {
            groups: 2,
            volumes: 3,
            max_progress: 1000,
        };
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..200 {
            let a = FaultPlan::random_runtime(seed, shape, 24);
            let b = FaultPlan::random_runtime(seed, shape, 24);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
            distinct.insert(format!("{a:?}"));
            assert!(
                !a.runtime_scribbles.is_empty(),
                "seed {seed} injects nothing"
            );
            for f in &a.runtime_scribbles {
                assert!((1..24).contains(&f.at_cp));
                match f.target {
                    RuntimeTarget::VolSummaryPage { vol, .. } => assert!(vol < 3),
                    RuntimeTarget::GroupCacheScore { group } => assert!(group < 2),
                    RuntimeTarget::AggSummaryPage { .. } => {}
                    // Random plans keep their draws from before the HBPS
                    // targets existed; those are aimed by hand.
                    RuntimeTarget::HbpsBinCount { .. } | RuntimeTarget::HbpsListEntry { .. } => {
                        panic!("seed {seed} draws an HBPS target")
                    }
                }
            }
            for f in &a.scrub_read_errors {
                assert!(!f.is_persistent(), "runtime read errors must clear");
                assert!((1..=3).contains(&f.failures));
            }
        }
        assert!(
            distinct.len() > 100,
            "only {} distinct plans",
            distinct.len()
        );
    }

    #[test]
    fn runtime_scribbles_fire_exactly_once_when_due() {
        let plan = FaultPlan {
            runtime_scribbles: vec![
                RuntimeScribbleFault {
                    target: RuntimeTarget::AggSummaryPage { page: 0 },
                    at_cp: 3,
                    value_seed: 1,
                },
                RuntimeScribbleFault {
                    target: RuntimeTarget::GroupCacheScore { group: 0 },
                    at_cp: 5,
                    value_seed: 2,
                },
            ],
            ..FaultPlan::default()
        };
        let mut session = FaultSession::new(&plan);
        assert!(session.take_due_runtime_scribbles(2).is_empty());
        assert_eq!(session.take_due_runtime_scribbles(3).len(), 1);
        assert!(session.take_due_runtime_scribbles(4).is_empty());
        // A skipped CP count still delivers the overdue fault, once.
        assert_eq!(session.take_due_runtime_scribbles(9).len(), 1);
        assert!(session.take_due_runtime_scribbles(10).is_empty());
    }

    #[test]
    fn scrub_reads_use_their_own_attempt_channel() {
        let plan = FaultPlan {
            read_errors: vec![ReadErrorFault {
                target: StructureId::Group(0),
                failures: 1,
            }],
            scrub_read_errors: vec![ReadErrorFault {
                target: StructureId::Group(0),
                failures: 2,
            }],
            ..FaultPlan::default()
        };
        let mut session = FaultSession::new(&plan);
        // Mount-time reads consume only the mount-time schedule...
        assert_eq!(
            session.on_read(StructureId::Group(0)),
            ReadOutcome::Transient
        );
        assert_eq!(session.on_read(StructureId::Group(0)), ReadOutcome::Ok);
        // ...and the scrub schedule still has both failures left.
        assert_eq!(
            session.on_scrub_read(StructureId::Group(0)),
            ReadOutcome::Transient
        );
        assert_eq!(
            session.on_scrub_read(StructureId::Group(0)),
            ReadOutcome::Transient
        );
        assert_eq!(
            session.on_scrub_read(StructureId::Group(0)),
            ReadOutcome::Ok
        );
    }

    #[test]
    fn random_plans_respect_shape_bounds() {
        let shape = PlanShape {
            groups: 3,
            volumes: 2,
            max_progress: 500,
        };
        for seed in 0..300 {
            let plan = FaultPlan::random(seed, shape);
            for s in &plan.scribbles {
                match s.target {
                    StructureId::Group(g) => assert!(g < 3),
                    StructureId::Volume(v) => assert!(v < 2),
                }
                assert!(s.offset < 4096);
            }
            if let Some(CrashSite::AfterBlockWrites(n) | CrashSite::MidFreeLogApply(n)) = plan.crash
            {
                assert!(n < 500);
            }
        }
    }
}
