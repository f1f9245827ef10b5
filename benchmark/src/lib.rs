//! The repository's benchmark: netlist text in → committed fingerprint
//! out, on five workloads and all three executives, measured from outside
//! the crates. See `README.md` for the metrics, the workloads and how the
//! metrics are predicted to interact.
//!
//! * [`contract`] — every metric and the run length, declared once;
//!   `BENCHMARK.json` is its rendering.
//! * [`workloads`] — the five workloads and the configuration each hands
//!   to the library.
//! * [`pipeline`] — set-up (circuit, text, oracle) and one iteration.
//! * [`trace`] — spans around the stage calls, Chrome trace-event output.
//! * [`child`] — one workload in its own process: set-ups, timed
//!   iterations, determinism guard, traced iteration, metrics.
//! * [`parent`] — spawns the children, enforces the wall-clock limit,
//!   prints the result line, the suite table and the noise check.
//! * [`stats`] — median and bound comparison.

pub mod child;
pub mod contract;
pub mod parent;
pub mod pipeline;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Duration;

/// How one invocation runs its workloads; the parent passes all but
/// `limit` on to each child on its command line.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Input seed: selects the stimulus streams.
    pub seed: u64,
    /// Seconds to keep starting timed iterations.
    pub seconds: f64,
    /// Also run the traced iteration and report per-layer metrics.
    pub trace: bool,
    /// ~300-gate circuits, one set-up, one timed iteration per stream.
    pub smoke: bool,
    /// Directory for traces and results.
    pub out_dir: PathBuf,
    /// Wall-clock limit the parent puts on a child.
    pub limit: Duration,
}
