//! D008 negative fixture: probes that accumulate in their own state and
//! fan out to child probes — the Tee/KernelStats shapes the kernel ships.

pub struct Counter {
    pub n: u64,
}

impl Probe for Counter {
    fn on(&mut self, event: ProbeEvent) {
        if let ProbeEvent::BatchExecuted { events, .. } = event {
            self.n += events;
        }
        self.note();
    }
    fn fork(&mut self) -> Counter {
        Counter { n: 0 }
    }
    fn join(&mut self, child: Counter) {
        self.n += child.n;
    }
}

impl Counter {
    fn note(&mut self) {
        self.n = self.n.wrapping_add(1);
    }
}

pub struct Pair {
    a: Counter,
    b: Counter,
}

impl Probe for Pair {
    fn on(&mut self, event: ProbeEvent) {
        self.a.on(event);
        self.b.on(event);
    }
    fn fork(&mut self) -> Pair {
        Pair { a: self.a.fork(), b: self.b.fork() }
    }
    fn join(&mut self, child: Pair) {
        self.a.join(child.a);
        self.b.join(child.b);
    }
}
