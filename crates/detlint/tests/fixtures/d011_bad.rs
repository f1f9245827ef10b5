//! D011 positive fixture: nondeterministic values flowing into
//! determinism-critical sinks — directly, through a float cast, and
//! through a helper's return value (an address, and host time).

pub fn skewed(sink: &mut EventSink) {
    let skew = std::env::var("PLS_SKEW").unwrap().parse().unwrap();
    sink.schedule(1, skew, 0);
}

pub fn quantized(sink: &mut EventSink, raw: u64) {
    let scale = (raw as f64) * 1.5;
    let q = scale as u64;
    sink.schedule_at(2, q);
}

fn keyed(seed: u64) -> u64 {
    let p = (&seed as *const u64) as u64;
    p
}

pub fn addressed(sink: &mut EventSink) {
    let k = keyed(7);
    sink.schedule(3, k, 0);
}

fn jitter_ns() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}

pub fn jittered(sink: &mut EventSink) {
    let d = jitter_ns();
    sink.schedule(4, d, 0);
}

impl EventSink {
    pub fn schedule(&mut self, lp: u32, at: u64, n: u64) {}
    pub fn schedule_at(&mut self, lp: u32, at: u64) {}
}
