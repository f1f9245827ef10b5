// Waiver-syntax fixture.

fn good_waiver(gvt: u64) {
    // detlint: allow(D003, fixture float; a reporting ratio only)
    let _ = gvt as f64;
}

fn missing_reason(gvt: u64) {
    // detlint: allow(D003)
    let _ = gvt as f64;
}

fn multi_rule(lvt: VTime) -> VTime {
    // detlint: allow(D003, D011, a float-scaled time; both justified here)
    VTime::from((lvt.ticks() as f64 * 1.5) as u64)
}

// detlint: allow(D999, no such rule)
fn unknown_rule() {}

// detlint: allow(D011, waiver that matches nothing on the next line)
fn unused_waiver() {}

fn half_used(gvt: u64) {
    // detlint: allow(D003, D011, only the float is actually on the next line)
    let _ = gvt as f64;
}

fn retired_rule(gvt: u64) {
    // detlint: allow(D003, D004, the lock rule moved to clippy; this waiver is stale)
    let _ = gvt as f64;
}
