//! Fault plans: *what* goes wrong, *where*, and *when*.
//!
//! A [`FaultPlan`] is pure data — a seed plus a list of scripted
//! [`FaultScenario`] windows (optionally extended by seeded random
//! scenarios materialized once the node count is known). The platform
//! executive turns a plan into a [`ChaosRuntime`](super::ChaosRuntime);
//! the plan itself never touches kernel state, so the same value can be
//! reused across runs and executives.

use std::fmt;

/// Largest platform time a plan may name: one hour of modeled ns. It
/// bounds every finite window edge and every per-arrival spike + jitter,
/// so a plan can stretch a run but never push a node clock towards
/// `u64::MAX`. Benchmark runs last milliseconds of platform time.
pub const MAX_FAULT_NS: u64 = 3_600 * 1_000_000_000;

/// Largest [`FaultKind::NodeSlow`] factor.
pub const MAX_SLOW_FACTOR: u32 = 1_000;

/// Largest `random:N` count: each sampled window is scanned on every
/// modeled CPU charge, so the count bounds the cost of the fault model.
pub const MAX_RANDOM_SCENARIOS: u32 = 1_000;

/// What a fault window does while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node's ingress link adds `spike_ns` to every arrival, plus a
    /// seeded jitter sample in `0..=jitter_ns` per transmission.
    LinkDegrade {
        /// Fixed extra latency per arrival (ns).
        spike_ns: u64,
        /// Upper bound of the per-transmission jitter sample (ns).
        jitter_ns: u64,
    },
    /// Every modeled CPU charge on the node costs `factor` times as
    /// much (transient slowdown: thermal throttling, a co-tenant, ...).
    NodeSlow {
        /// Multiplier in `2..=MAX_SLOW_FACTOR` (1 would be a no-op).
        factor: u32,
    },
    /// The node executes nothing during the window: any charge landing
    /// inside it is deferred to the window's end (OS stall, GC pause).
    NodePause,
}

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

/// The scenario as a `--faults` clause, so errors name a clause in the
/// grammar the user wrote it in.
impl fmt::Display for FaultScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.node;
        match self.kind {
            FaultKind::LinkDegrade { spike_ns, jitter_ns: 0 } => {
                write!(f, "jitter:{node}:{}", Ns(spike_ns))?;
            }
            FaultKind::LinkDegrade { spike_ns, jitter_ns } => {
                write!(f, "jitter:{node}:{}:{}", Ns(spike_ns), Ns(jitter_ns))?;
            }
            FaultKind::NodeSlow { factor } => write!(f, "slow:{node}:{factor}")?,
            FaultKind::NodePause => write!(f, "pause:{node}")?,
        }
        match (self.start_ns, self.end_ns) {
            (0, u64::MAX) if self.kind != FaultKind::NodePause => Ok(()),
            (start, u64::MAX) => write!(f, "@{}..", Ns(start)),
            (start, end) => write!(f, "@{}..{}", Ns(start), Ns(end)),
        }
    }
}

/// A platform time in the largest unit that writes it exactly.
struct Ns(u64);

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let units = [(1_000_000_000, "s"), (1_000_000, "ms"), (1_000, "us")];
        match units.into_iter().find(|&(unit, _)| self.0 != 0 && self.0.is_multiple_of(unit)) {
            Some((unit, suffix)) => write!(f, "{}{suffix}", self.0 / unit),
            None => write!(f, "{}", self.0),
        }
    }
}

/// A seeded, byte-reproducible fault model: scripted scenarios plus an
/// optional count of seed-sampled random ones.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every sampled decision (jitter, random scenarios). Two
    /// runs with equal plans are byte-identical.
    pub seed: u64,
    /// Scripted fault windows.
    pub scenarios: Vec<FaultScenario>,
    /// Extra seed-sampled scenarios, materialized by the runtime once
    /// the node count is known (`random:N` in the CLI spec).
    pub random_scenarios: u32,
}

impl FaultPlan {
    /// An empty plan with the given seed: no fault window ever opens.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, scenarios: Vec::new(), random_scenarios: 0 }
    }

    /// Add a scripted fault window.
    pub fn scenario(mut self, s: FaultScenario) -> FaultPlan {
        self.scenarios.push(s);
        self
    }

    /// Request `n` seed-sampled scenarios on top of the scripted ones.
    pub fn random(mut self, n: u32) -> FaultPlan {
        self.random_scenarios = n;
        self
    }

    /// Whether the plan can run on `nodes` platform nodes: every scripted
    /// window names an existing node, every finite window edge and every
    /// spike + jitter is at most [`MAX_FAULT_NS`], every slowdown factor is
    /// in `2..=`[`MAX_SLOW_FACTOR`], and the random count is at most
    /// [`MAX_RANDOM_SCENARIOS`]. The error names the offending clause.
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        if self.random_scenarios > MAX_RANDOM_SCENARIOS {
            return Err(format!(
                "`random:{}`: at most {MAX_RANDOM_SCENARIOS} random scenarios",
                self.random_scenarios
            ));
        }
        for s in &self.scenarios {
            let too_late = |ns: u64| ns != u64::MAX && ns > MAX_FAULT_NS;
            let problem = match s.kind {
                _ if s.node as usize >= nodes => {
                    format!("node {} does not exist (only {nodes} nodes)", s.node)
                }
                _ if too_late(s.start_ns) || too_late(s.end_ns) => {
                    format!("window edges must be at most {MAX_FAULT_NS} ns (one hour)")
                }
                FaultKind::LinkDegrade { spike_ns, jitter_ns }
                    if spike_ns.saturating_add(jitter_ns) > MAX_FAULT_NS =>
                {
                    format!("spike + jitter must be at most {MAX_FAULT_NS} ns (one hour)")
                }
                FaultKind::NodeSlow { factor } if !(2..=MAX_SLOW_FACTOR).contains(&factor) => {
                    format!("slow factor must be in 2..={MAX_SLOW_FACTOR}")
                }
                _ => continue,
            };
            return Err(format!("`{s}`: {problem}"));
        }
        Ok(())
    }

    /// Parse a CLI fault spec: comma-separated clauses, each
    ///
    /// ```text
    /// jitter:NODE:SPIKE[:JITTER][@..]     slow ingress link
    /// slow:NODE:FACTOR[@START..END]       node CPU slowdown
    /// pause:NODE@START..END               node stall window
    /// random:N                            N seed-sampled scenarios
    /// ```
    ///
    /// Times accept `ns`/`us`/`ms`/`s` suffixes (bare numbers are ns);
    /// omitting `@START..END` means the whole run, and an empty END
    /// (`@5ms..`) means "until the run finishes". Parsing checks the
    /// grammar; [`Self::check`] checks the values against a node count.
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
            let kind = match kind_name {
                "jitter" => {
                    let spike =
                        parse_time(field(1, "spike")?).map_err(|e| format!("`{clause}`: {e}"))?;
                    let jit = match fields.get(2) {
                        Some(s) => parse_time(s).map_err(|e| format!("`{clause}`: {e}"))?,
                        None => 0,
                    };
                    FaultKind::LinkDegrade { spike_ns: spike, jitter_ns: jit }
                }
                "slow" => {
                    let f: u32 = field(1, "factor")?
                        .parse()
                        .map_err(|_| format!("`{clause}`: bad factor"))?;
                    FaultKind::NodeSlow { factor: f }
                }
                "pause" => {
                    if window.is_none() {
                        return Err(format!("`{clause}`: pause needs @START..END"));
                    }
                    FaultKind::NodePause
                }
                "random" => {
                    let n: u32 =
                        field(0, "count")?.parse().map_err(|_| format!("`{clause}`: bad count"))?;
                    plan.random_scenarios = plan
                        .random_scenarios
                        .checked_add(n)
                        .ok_or(format!("`{clause}`: random scenario count overflows"))?;
                    continue;
                }
                other => return Err(format!("unknown fault kind `{other}` in `{clause}`")),
            };
            let node = node(field(0, "node")?)?;
            plan.scenarios.push(FaultScenario { node, start_ns, end_ns, kind });
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
        let p = FaultPlan::parse("slow:0:4, pause:2@10us..20us, jitter:3:50us:10us@..", 7);
        // `jitter:...@..` has an empty START — that is an error (START is
        // required when `@` is present).
        assert!(p.is_err());
        let p = FaultPlan::parse(
            "slow:1:3@1ms..5ms, slow:0:4, pause:2@10us..20us, jitter:3:50us:10us@0..",
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
                kind: FaultKind::NodeSlow { factor: 3 },
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
    fn display_round_trips_through_parse() {
        let spec =
            "slow:1:3@1ms..5ms,jitter:3:50us:10us@7..,pause:2@0..1500us,jitter:0:2s,slow:0:4";
        let p = FaultPlan::parse(spec, 0).unwrap();
        let shown: Vec<String> = p.scenarios.iter().map(ToString::to_string).collect();
        assert_eq!(shown.join(","), spec);
        assert_eq!(FaultPlan::parse(&shown.join(","), 0).unwrap(), p);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("explode:1", 0).is_err());
        assert!(FaultPlan::parse("drop:0:300", 0).unwrap_err().contains("`drop`"));
        assert!(FaultPlan::parse("pause:1", 0).is_err(), "pause needs a window");
        assert!(FaultPlan::parse("slow:1:2@5ms..1ms", 0).is_err(), "inverted window");
        assert!(FaultPlan::parse("slow:x:2", 0).is_err());
        assert!(
            FaultPlan::parse("random:4000000000,random:4000000000", 0).is_err(),
            "the summed count overflows u32"
        );
    }

    #[test]
    fn check_rejects_out_of_range_values_by_clause() {
        let check = |spec: &str| FaultPlan::parse(spec, 0).unwrap().check(3);
        for ok in ["slow:2:1000", "jitter:0:1800s:1800s", "pause:1@1ms..3600s", "random:1000"] {
            assert_eq!(check(ok), Ok(()), "{ok}");
        }
        for (bad, names) in [
            ("slow:3:2", "`slow:3:2`: node 3 does not exist"),
            ("slow:0:1", "`slow:0:1`: slow factor"),
            ("slow:0:4294967295", "`slow:0:4294967295`: slow factor"),
            ("pause:0@0..18446744073709551614ns", "`pause:0@0..18446744073709551614`: window"),
            ("pause:0@3600000000001..", "`pause:0@3600000000001..`: window"),
            ("jitter:1:18446744073s", "`jitter:1:18446744073s`: spike + jitter"),
            ("jitter:1:1800s:1801s", "spike + jitter"),
            ("random:1001", "`random:1001`"),
        ] {
            let err = check(bad).unwrap_err();
            assert!(err.contains(names), "{bad}: {err}");
        }
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
        // Crude uniformity check on the low bits used for bounded samples.
        let hits = (0..1000).filter(|&i| mix(42, i, 0) % 1000 < 100).count();
        assert!((50..200).contains(&hits), "~10% expected, got {hits}/1000");
    }
}
