//! D008 positive fixture: probes that steer the kernel instead of
//! observing it — directly, through a helper, and through a static.

static mut PEEKED: u64 = 0;

impl EventSink {
    pub fn schedule(&mut self) {}
}

impl LpRuntime {
    pub fn force_rollback(&mut self) {}
}

pub struct Steer {
    sink: EventSink,
    rt: LpRuntime,
}

impl Probe for Steer {
    fn on(&mut self, event: ProbeEvent) {
        self.sink.schedule();
        self.indirect();
    }
}

impl Steer {
    fn indirect(&mut self) {
        self.rt.force_rollback();
    }
}

pub struct Spy;

impl Probe for Spy {
    fn on(&mut self, event: ProbeEvent) {
        unsafe {
            PEEKED += 1;
        }
    }
}
