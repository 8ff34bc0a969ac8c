//! End-to-end flight-recorder coverage: an aggregate with tracing
//! enabled journals CP phase spans and allocator events; the
//! Chrome trace-event list validates (balanced spans, CP ordering, the
//! engine track); and the per-CP series carries one row per completed
//! CP, with the CP's and each stage's wall time.

use wafl_fs::{Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_obs::trace::{chrome_events, validate_chrome_trace, TraceData, TraceEvent};
use wafl_types::VolumeId;

fn traced_agg(trace_events: usize) -> Aggregate {
    Aggregate::new(
        AggregateConfig {
            trace_events,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 8 * 32768,
                aa_cache: true,
                aa_blocks: None,
            },
            50_000,
        )],
        42,
    )
    .unwrap()
}

fn churn(a: &mut Aggregate, rounds: usize) {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for _ in 0..rounds {
        for _ in 0..2000 {
            a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                .unwrap();
        }
        a.run_cp().unwrap();
    }
}

#[test]
fn tracing_off_journals_nothing() {
    let mut a = traced_agg(0);
    churn(&mut a, 2);
    assert!(a.tracer().is_none());
    assert!(a.cp_series().is_none());
    assert!(a.obs().counter_value("trace.dropped_events").is_none());
}

#[test]
fn cps_journal_phase_spans_and_allocator_instants() {
    let mut a = traced_agg(65_536);
    churn(&mut a, 4);
    let tracer = a.tracer().expect("tracing enabled");
    assert_eq!(
        tracer.dropped(),
        0,
        "journal sized well above the event count"
    );
    let events = tracer.events();
    assert!(!events.is_empty());

    // Every CP emitted its phase timeline...
    let phase_names = [
        "cp",
        "cp.plan_virtual",
        "cp.plan_physical",
        "cp.bind",
        "cp.frees",
        "cp.apply",
        "cp.costing",
        "cp.rebalance",
    ];
    for name in phase_names {
        let count = events
            .iter()
            .filter(|e| matches!(e.data, TraceData::Span { name: n, .. } if n == name))
            .count();
        assert_eq!(count, 4, "span {name} once per CP");
    }
    // ...and nothing but those spans and the allocator's instants (a
    // healthy cache-guided run has no sweep fallback to report).
    for e in &events {
        assert!(
            matches!(
                e.data,
                TraceData::Span { .. } | TraceData::CursorInvalidated { .. }
            ),
            "unexpected event {e:?}"
        );
    }

    // CP sequence numbers cover exactly the completed CPs.
    let max_cp = events.iter().map(|e| e.cp).max().unwrap();
    assert_eq!(max_cp, 3);

    // Within each CP the stage spans run in execution order, laid end to
    // end from the enclosing `cp` span's start.
    let stage_order = &phase_names[1..];
    for cp in 0..=max_cp {
        let spans: Vec<(&str, f64, f64)> = events
            .iter()
            .filter(|e| e.cp == cp)
            .filter_map(|e| match e.data {
                TraceData::Span { name, dur_us, .. } => Some((name, e.ts_us, dur_us)),
                _ => None,
            })
            .collect();
        let names: Vec<&str> = spans.iter().map(|s| s.0).collect();
        assert_eq!(names[0], "cp", "cp {cp}");
        assert_eq!(&names[1..], stage_order, "cp {cp}");
        assert_eq!(spans[1].1, spans[0].1, "cp {cp}: first stage starts the CP");
        for pair in spans[1..].windows(2) {
            let ((_, ts, dur), (next, next_ts, _)) = (pair[0], pair[1]);
            assert_eq!(next_ts, ts + dur, "cp {cp}: {next} does not follow on");
        }
    }
}

#[test]
fn chrome_export_of_a_real_run_validates() {
    let mut a = traced_agg(65_536);
    churn(&mut a, 3);
    let events: Vec<TraceEvent> = a.tracer().unwrap().events();
    let stats = validate_chrome_trace(&chrome_events(&events)).expect("trace validates");
    assert!(stats.engine_track);
    assert!(stats.spans > 0);
    assert_eq!(stats.max_cp, 2);
}

#[test]
fn per_cp_series_has_one_row_per_cp() {
    let mut a = traced_agg(65_536);
    churn(&mut a, 5);
    // An empty CP completes too, and is counted and sampled like any.
    let empty = a.run_cp().unwrap();
    assert_eq!((empty.cp_index, empty.ops), (5, 0));
    assert_eq!(a.obs().counter_value("cp.completed"), Some(a.cp_count()));
    let series = a.cp_series().expect("series sampled when tracing is on");
    let rows = series.rows();
    assert_eq!(rows.len(), 6, "one sample per completed CP");
    let columns = series.columns();
    let cp_completed = columns
        .iter()
        .position(|c| c == "cp.completed")
        .expect("series tracks cp.completed");
    let wall = columns
        .iter()
        .position(|c| c == "cp.wall.total_us.sum")
        .expect("series tracks the wall histogram sum");
    let stages: Vec<usize> = [
        "plan_virtual",
        "plan_physical",
        "bind",
        "frees",
        "apply",
        "costing",
        "rebalance",
    ]
    .iter()
    .map(|stage| {
        let name = format!("cp.wall.{stage}_us.sum");
        columns
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("series tracks {name}"))
    })
    .collect();
    // Column 0 is "cp"; a row's `values` start at column 1.
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.cp, i as u64, "cp column is the CP sequence");
        assert_eq!(
            row.values[cp_completed - 1],
            1.0,
            "each row is one CP's delta"
        );
        // An empty CP runs no stage, so it clocks no time.
        let busy = row.cp < 5;
        assert_eq!(
            row.values[wall - 1] > 0.0,
            busy,
            "wall time of cp {}",
            row.cp
        );
        let stage_sum: f64 = stages.iter().map(|&i| row.values[i - 1]).sum();
        assert_eq!(stage_sum > 0.0, busy, "stage wall time of cp {}", row.cp);
    }
}

#[test]
fn ring_overflow_drops_and_counts_but_cps_still_complete() {
    let mut a = traced_agg(8); // absurdly small journal
    churn(&mut a, 3);
    let tracer = a.tracer().unwrap();
    assert_eq!(tracer.recorded(), 8);
    assert!(tracer.dropped() > 0);
    assert_eq!(
        a.obs().counter_value("trace.dropped_events"),
        Some(tracer.dropped())
    );
    // Dropped spans never unbalance the export: spans are journaled
    // whole, so begin/end pairs are synthesized only for survivors.
    let events = tracer.events();
    validate_chrome_trace(&chrome_events(&events)).expect("partial journal still balances");
}
