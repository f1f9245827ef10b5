//! D010 negative fixture: every phase-restricted operation sits under
//! a root whose declared phases permit it, and annotated functions act
//! as boundaries for each other.

// detlint: phase(compute)
pub fn step(lp: &mut Lp) {
    lp.execute_next();
}

// detlint: phase(fossil)
pub fn reap(lp: &mut Lp) {
    lp.fossil_collect();
}

// detlint: phase(compute|flush)
pub fn pump(ch: &Wire) {
    ch.send(1);
    ch.receive();
    hand_off(ch);
}

// detlint: phase(migrate)
pub fn hand_off(ch: &Wire) {
    ch.evict(1);
}
