//! D010 positive fixture: a fossil free reached from a compute-phase
//! root through a helper, and a restricted op outside any declared
//! phase.

// detlint: phase(compute)
pub fn step(lp: &mut Lp) {
    lp.execute_next();
    reclaim(lp);
}

fn reclaim(lp: &mut Lp) {
    lp.fossil_collect();
}

pub fn stray(core: &mut Core, mv: &Migration) {
    core.evict(mv);
}
