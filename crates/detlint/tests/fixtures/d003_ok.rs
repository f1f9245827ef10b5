// D003 negative fixture: integer virtual-time math, and float math on
// host-side quantities that never touches virtual time.
use crate::time::VTime;

fn advance(gvt: VTime, delta: u64) -> VTime {
    gvt.after(delta)
}

fn throughput(events: u64, max_clock: u64) -> f64 {
    // Host-side rate: floats are fine, no virtual-time value involved.
    events as f64 / (max_clock as f64 / 1e9)
}

fn cycle(now: VTime, offset: u64, period: u64) -> u64 {
    // A difference of times is a span; the `+ 1` counts cycles.
    (now.ticks() - offset) / period + 1
}

fn literal() -> VTime {
    VTime::from(1 + 9 * 3)
}
