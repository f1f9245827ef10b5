// Waiver-syntax fixture.

fn good_waiver() -> bool {
    // detlint: allow(D004, fixture lock; never shared across threads)
    let m: Mutex<u32> = Mutex::new(4);
    m.is_poisoned()
}

fn missing_reason() -> bool {
    // detlint: allow(D004)
    let m: Mutex<u32> = Mutex::new(4);
    m.is_poisoned()
}

fn multi_rule(now: VTime) -> bool {
    // detlint: allow(D004, D007, scratch lock stamped with a raw time; both justified here)
    let m: Mutex<u64> = Mutex::new(now.0 + 1);
    m.is_poisoned()
}

// detlint: allow(D999, no such rule)
fn unknown_rule() {}

// detlint: allow(D007, waiver that matches nothing on the next line)
fn unused_waiver() {}

fn half_used() -> bool {
    // detlint: allow(D004, D007, only the lock is actually on the next line)
    let m: Mutex<u32> = Mutex::new(2);
    m.is_poisoned()
}

fn retired_rule() -> bool {
    // detlint: allow(D004, D001, the map rule moved to clippy; this waiver is stale)
    let m: Mutex<u32> = Mutex::new(1);
    m.is_poisoned()
}
