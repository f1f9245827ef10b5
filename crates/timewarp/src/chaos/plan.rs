//! Fault plans: *what* goes wrong, *where*, and *when*.
//!
//! A [`FaultPlan`] is pure data — a seed plus a list of scripted
//! [`FaultScenario`] windows (optionally extended by seeded random
//! scenarios materialized once the node count is known). The platform
//! executive turns a plan into a [`ChaosRuntime`](super::ChaosRuntime);
//! the plan itself never touches kernel state, so the same value can be
//! reused across runs and executives.

/// A transmission (or its ack) is never dropped from this attempt on:
/// the hash-sampled loss model must not be able to starve a message
/// forever, or a sick link could wedge GVT below the message's receive
/// time for the rest of the run.
pub const MAX_DROP_ATTEMPTS: u32 = 16;

/// Exponential backoff cap: the RTO stops doubling after this many
/// attempts (so timer arithmetic cannot overflow).
pub(crate) const MAX_BACKOFF_EXP: u32 = 10;

/// What a fault window does while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node's ingress link adds `spike_ns` to every arrival, plus a
    /// seeded jitter sample in `0..=jitter_ns` per transmission attempt.
    LinkDegrade {
        /// Fixed extra latency per arrival (ns).
        spike_ns: u64,
        /// Upper bound of the per-attempt jitter sample (ns).
        jitter_ns: u64,
    },
    /// The node's ingress link drops transmissions (and acks headed the
    /// other way) with probability `drop_per_mille`/1000 per attempt,
    /// decided by a seeded hash of `(wire id, attempt)`.
    LinkLoss {
        /// Loss probability in 0..=1000 (clamped to
        /// [`MAX_DROP_PER_MILLE`] so retransmission always wins).
        drop_per_mille: u32,
    },
    /// Every modeled CPU charge on the node costs `factor` times as
    /// much (transient slowdown: thermal throttling, a co-tenant, ...).
    NodeSlow {
        /// Multiplier >= 2 (1 would be a no-op).
        factor: u32,
    },
    /// The node executes nothing during the window: any charge landing
    /// inside it is deferred to the window's end (OS stall, GC pause).
    NodePause,
}

/// Loss probabilities are clamped here: a link that drops everything
/// would only terminate thanks to [`MAX_DROP_ATTEMPTS`], and the run
/// would be all retransmission and no progress.
pub const MAX_DROP_PER_MILLE: u32 = 950;

/// One fault window: `kind` is active on `node` for platform times in
/// `start_ns..end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScenario {
    /// Target platform node.
    pub node: u32,
    /// Window start (platform ns, inclusive).
    pub start_ns: u64,
    /// Window end (platform ns, exclusive; `u64::MAX` = rest of run).
    pub end_ns: u64,
    /// What happens while the window is active.
    pub kind: FaultKind,
}

impl FaultScenario {
    /// Whether the window is active at platform time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        self.start_ns <= t && t < self.end_ns
    }
}

/// A seeded, byte-reproducible fault model: scripted scenarios plus an
/// optional count of seed-sampled random ones, and the retransmission
/// protocol's timing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every sampled decision (drops, jitter, random
    /// scenarios). Two runs with equal plans are byte-identical.
    pub seed: u64,
    /// Initial retransmission timeout (ns); doubles per attempt.
    pub rto_ns: u64,
    /// Scripted fault windows.
    pub scenarios: Vec<FaultScenario>,
    /// Extra seed-sampled scenarios, materialized by the runtime once
    /// the node count is known (`random:N` in the CLI spec).
    pub random_scenarios: u32,
}

impl FaultPlan {
    /// An empty plan with the given seed: the ack/retransmit protocol
    /// runs (every remote transmission is tracked and acked) but no
    /// fault window ever opens.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            // ~2.5x the default round trip: retransmits fire on real
            // loss, not on ordinary congestion.
            rto_ns: 500_000,
            scenarios: Vec::new(),
            random_scenarios: 0,
        }
    }

    /// Add a scripted fault window.
    pub fn scenario(mut self, s: FaultScenario) -> FaultPlan {
        self.scenarios.push(s);
        self
    }

    /// Set the initial retransmission timeout.
    pub fn rto_ns(mut self, ns: u64) -> FaultPlan {
        self.rto_ns = ns.max(1);
        self
    }

    /// Request `n` seed-sampled scenarios on top of the scripted ones.
    pub fn random(mut self, n: u32) -> FaultPlan {
        self.random_scenarios = n;
        self
    }

    /// Parse a CLI fault spec: comma-separated clauses, each
    ///
    /// ```text
    /// drop:NODE:PERMILLE[@START..END]     lossy ingress link
    /// jitter:NODE:SPIKE[:JITTER][@..]     slow ingress link
    /// slow:NODE:FACTOR[@START..END]       node CPU slowdown
    /// pause:NODE@START..END               node stall window
    /// random:N                            N seed-sampled scenarios
    /// ```
    ///
    /// Times accept `ns`/`us`/`ms`/`s` suffixes (bare numbers are ns);
    /// omitting `@START..END` means the whole run, and an empty END
    /// (`@5ms..`) means "until the run finishes".
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (head, window) = match clause.split_once('@') {
                Some((h, w)) => (h, Some(w)),
                None => (clause, None),
            };
            let (start_ns, end_ns) = match window {
                None => (0, u64::MAX),
                Some(w) => parse_window(w).map_err(|e| format!("`{clause}`: {e}"))?,
            };
            let mut parts = head.split(':');
            let kind_name = parts.next().unwrap_or("");
            let fields: Vec<&str> = parts.collect();
            let field = |i: usize, what: &str| -> Result<&str, String> {
                fields.get(i).copied().ok_or(format!("`{clause}`: missing {what}"))
            };
            let node = |s: &str| -> Result<u32, String> {
                s.parse::<u32>().map_err(|_| format!("`{clause}`: bad node `{s}`"))
            };
            match kind_name {
                "drop" => {
                    let n = node(field(0, "node")?)?;
                    let p: u32 = field(1, "per-mille")?
                        .parse()
                        .map_err(|_| format!("`{clause}`: bad per-mille"))?;
                    plan.scenarios.push(FaultScenario {
                        node: n,
                        start_ns,
                        end_ns,
                        kind: FaultKind::LinkLoss { drop_per_mille: p.min(MAX_DROP_PER_MILLE) },
                    });
                }
                "jitter" => {
                    let n = node(field(0, "node")?)?;
                    let spike =
                        parse_time(field(1, "spike")?).map_err(|e| format!("`{clause}`: {e}"))?;
                    let jit = match fields.get(2) {
                        Some(s) => parse_time(s).map_err(|e| format!("`{clause}`: {e}"))?,
                        None => 0,
                    };
                    plan.scenarios.push(FaultScenario {
                        node: n,
                        start_ns,
                        end_ns,
                        kind: FaultKind::LinkDegrade { spike_ns: spike, jitter_ns: jit },
                    });
                }
                "slow" => {
                    let n = node(field(0, "node")?)?;
                    let f: u32 = field(1, "factor")?
                        .parse()
                        .map_err(|_| format!("`{clause}`: bad factor"))?;
                    if f < 2 {
                        return Err(format!("`{clause}`: slow factor must be >= 2"));
                    }
                    plan.scenarios.push(FaultScenario {
                        node: n,
                        start_ns,
                        end_ns,
                        kind: FaultKind::NodeSlow { factor: f },
                    });
                }
                "pause" => {
                    if window.is_none() {
                        return Err(format!("`{clause}`: pause needs @START..END"));
                    }
                    let n = node(field(0, "node")?)?;
                    plan.scenarios.push(FaultScenario {
                        node: n,
                        start_ns,
                        end_ns,
                        kind: FaultKind::NodePause,
                    });
                }
                "random" => {
                    let n: u32 =
                        field(0, "count")?.parse().map_err(|_| format!("`{clause}`: bad count"))?;
                    plan.random_scenarios = plan
                        .random_scenarios
                        .checked_add(n)
                        .ok_or(format!("`{clause}`: random scenario count overflows"))?;
                }
                other => return Err(format!("unknown fault kind `{other}` in `{clause}`")),
            }
        }
        Ok(plan)
    }
}

/// Parse `START..END` (END empty = `u64::MAX`).
fn parse_window(w: &str) -> Result<(u64, u64), String> {
    let (a, b) = w.split_once("..").ok_or("window must be START..END")?;
    let start = parse_time(a)?;
    let end = if b.is_empty() { u64::MAX } else { parse_time(b)? };
    if end <= start {
        return Err(format!("window end {end} <= start {start}"));
    }
    Ok((start, end))
}

/// Parse a time with an optional `ns`/`us`/`ms`/`s` suffix (bare = ns).
fn parse_time(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits.trim().parse().map_err(|_| format!("bad time `{s}`"))?;
    n.checked_mul(mult).ok_or(format!("time `{s}` overflows ns"))
}

/// The splitmix64 finalizer: every sampled decision in the chaos engine
/// flows through this (no RNG state to carry, so sampling is a pure
/// function of the plan seed and the decision's identity).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(seed, a, b)` into a uniform u64.
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ splitmix64(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse(
            "drop:1:200@1ms..5ms, slow:0:4, pause:2@10us..20us, jitter:3:50us:10us@..",
            7,
        );
        // `jitter:...@..` has an empty START — that is an error (START is
        // required when `@` is present).
        assert!(p.is_err());
        let p = FaultPlan::parse(
            "drop:1:200@1ms..5ms, slow:0:4, pause:2@10us..20us, jitter:3:50us:10us@0..",
            7,
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.scenarios.len(), 4);
        assert_eq!(
            p.scenarios[0],
            FaultScenario {
                node: 1,
                start_ns: 1_000_000,
                end_ns: 5_000_000,
                kind: FaultKind::LinkLoss { drop_per_mille: 200 },
            }
        );
        assert_eq!(p.scenarios[1].end_ns, u64::MAX);
        assert_eq!(p.scenarios[2].kind, FaultKind::NodePause);
        assert_eq!(
            p.scenarios[3].kind,
            FaultKind::LinkDegrade { spike_ns: 50_000, jitter_ns: 10_000 }
        );
    }

    #[test]
    fn parse_random_and_clamps() {
        let p = FaultPlan::parse("random:3, drop:0:1000", 1).unwrap();
        assert_eq!(p.random_scenarios, 3);
        assert_eq!(p.scenarios[0].kind, FaultKind::LinkLoss { drop_per_mille: MAX_DROP_PER_MILLE });
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("explode:1", 0).is_err());
        assert!(FaultPlan::parse("slow:0:1", 0).is_err(), "factor 1 is a no-op");
        assert!(FaultPlan::parse("pause:1", 0).is_err(), "pause needs a window");
        assert!(FaultPlan::parse("drop:1:200@5ms..1ms", 0).is_err(), "inverted window");
        assert!(FaultPlan::parse("drop:x:200", 0).is_err());
        assert!(
            FaultPlan::parse("random:4000000000,random:4000000000", 0).is_err(),
            "the summed count overflows u32"
        );
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
        // Crude uniformity check on the low bits used for per-mille rolls.
        let hits = (0..1000).filter(|&i| mix(42, i, 0) % 1000 < 100).count();
        assert!((50..200).contains(&hits), "~10% expected, got {hits}/1000");
    }
}
