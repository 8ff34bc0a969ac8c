//! End-of-run correctness check: the file system must agree with the
//! benchmark's shadow live-set and with itself.

use crate::workloads::Shadow;
use wafl_fs::{iron, Aggregate};

/// Every way the end state is wrong, as one line each; empty when the
/// run is correct.
pub fn check(agg: &Aggregate, shadow: &Shadow) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut live_total = 0u64;
    for (v, vol) in agg.volumes().iter().enumerate() {
        // Every written-and-not-deleted logical block resolves to a
        // physical block, and no deleted or never-written one does.
        let mut lost = 0u64;
        let mut ghosts = 0u64;
        for l in 0..vol.logical_blocks() {
            let mapped = vol
                .lookup_logical(l)
                .and_then(|vvbn| vol.lookup_vvbn(vvbn))
                .is_some();
            match (shadow.is_live(v, l), mapped) {
                (true, false) => lost += 1,
                (false, true) => ghosts += 1,
                _ => {}
            }
        }
        if lost + ghosts > 0 {
            wrong.push(format!(
                "volume {v}: {lost} live blocks do not resolve, {ghosts} deleted blocks still do"
            ));
        }
        let live = shadow.live_blocks(v);
        live_total += live;
        if vol.free_blocks() != vol.size_blocks() - live {
            wrong.push(format!(
                "volume {v}: {} free virtual blocks, expected {} - {live}",
                vol.free_blocks(),
                vol.size_blocks()
            ));
        }
        if vol.bitmap().summary_divergences() != 0 {
            wrong.push(format!("volume {v}: bitmap summary diverged from its bits"));
        }
    }
    // Frees still in the delayed-free log keep their bit set until a
    // later CP applies them.
    let bitmap = agg.bitmap();
    let logged = agg.free_log().pending();
    if bitmap.free_blocks() + logged != bitmap.space_len() - live_total {
        wrong.push(format!(
            "aggregate: {} free + {logged} logged frees, expected {} - {live_total}",
            bitmap.free_blocks(),
            bitmap.space_len()
        ));
    }
    if bitmap.summary_divergences() != 0 {
        wrong.push("aggregate: bitmap summary diverged from its bits".into());
    }
    match iron::check(agg) {
        Ok(report) if report.is_clean() => {}
        Ok(report) => wrong.push(format!("iron: {report:?}")),
        Err(e) => wrong.push(format!("iron: {e}")),
    }
    wrong
}
