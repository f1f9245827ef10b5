// D003 positive fixture: float or wrapping arithmetic on virtual time.
use crate::time::VTime;

fn skew(gvt: u64, factor: f64) -> u64 {
    (gvt as f64 * factor) as u64           // line 5: f64 arithmetic on gvt
}

fn window(lvt: VTime) -> VTime {
    let scaled = lvt.ticks() as f32 * 1.5;       // line 9: float literal times lvt
    VTime::from(scaled as u64)
}

fn edge(now: VTime, off: u64) -> VTime {
    VTime::from(now.ticks() + off)               // line 14: wraps at VTime::INF
}

fn horizon(&self, w: u64) -> u64 {
    let mut h = w * self.clock[0].gvt.ticks();   // line 18: `*` before the receiver
    h += self.now().ticks();                     // line 19: `+=` before the receiver
    h
}

fn scaled(t: u64, k: u64) -> VTime {
    VTime::from(t * k)                           // line 24: `*` inside VTime::from
}
