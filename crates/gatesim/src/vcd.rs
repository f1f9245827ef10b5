//! Value Change Dump (IEEE 1364) waveform output.
//!
//! The committed history of a simulation can be dumped as a `.vcd` file
//! and inspected in GTKWave or any other waveform viewer. The writer
//! consumes per-LP transition lists collected by a [`WaveRecorder`] —
//! an application wrapper that taps every committed output transition of
//! a sequential run (for optimistic runs, dump the sequential oracle: the
//! committed histories are identical, which the test suite enforces).

use std::fmt::Write as _;

use pls_logic::Value;
use pls_netlist::Netlist;
use pls_timewarp::{Application, EventSink, LpId, VTime};

use crate::gatelp::{GateMsg, GateSim, GateState};

/// A recorded waveform: per-signal transition lists.
#[derive(Debug, Clone, Default)]
pub struct Waveform {
    /// `transitions[lp]` = ordered `(time, value)` changes of that gate's
    /// output signal.
    pub transitions: Vec<Vec<(u64, Value)>>,
}

impl Waveform {
    /// Total number of recorded transitions.
    pub fn len(&self) -> usize {
        self.transitions.iter().map(|t| t.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An [`Application`] wrapper around [`GateSim`] whose LP state carries the
/// full transition history, so a sequential run yields the waveform
/// directly from the final states.
#[derive(Debug)]
pub struct WaveRecorder {
    inner: GateSim,
}

/// State of a recorded gate: the normal gate state plus its history.
#[derive(Debug, Clone)]
pub struct RecordedState {
    /// The wrapped gate state.
    pub gate: GateState,
    /// Output transitions so far.
    pub history: Vec<(u64, Value)>,
    last_hash: u64,
    last_output: Value,
}

impl WaveRecorder {
    /// Wrap a gate simulation (built solely for recording).
    pub fn new(inner: GateSim) -> Self {
        WaveRecorder { inner }
    }

    /// Run the wrapped simulation sequentially and collect the waveform.
    pub fn record(&self) -> Waveform {
        let res = pls_timewarp::Simulator::new(self)
            .run(pls_timewarp::Backend::Sequential)
            .expect("sequential runs cannot fail");
        Waveform { transitions: res.states.into_iter().map(|s| s.history).collect() }
    }
}

impl Application for WaveRecorder {
    type Msg = GateMsg;
    type State = RecordedState;

    fn num_lps(&self) -> usize {
        self.inner.num_lps()
    }

    fn init_state(&self, lp: LpId) -> RecordedState {
        let gate = self.inner.init_state(lp);
        RecordedState {
            last_hash: gate.trace_hash,
            last_output: gate.output,
            gate,
            history: Vec::new(),
        }
    }

    fn init_events(&self, lp: LpId, state: &mut RecordedState, sink: &mut EventSink<GateMsg>) {
        self.inner.init_events(lp, &mut state.gate, sink);
    }

    fn execute(
        &self,
        lp: LpId,
        state: &mut RecordedState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        self.inner.execute(lp, &mut state.gate, now, msgs, sink);
        if state.gate.trace_hash != state.last_hash {
            // The transition is stamped with its effective (delayed) time,
            // matching what downstream gates observe.
            state.history.push((now.after(self.inner.delay_of(lp)).ticks(), state.gate.output));
            state.last_hash = state.gate.trace_hash;
            state.last_output = state.gate.output;
        }
    }
}

/// Serialize a waveform as VCD text. `signals` selects and names the
/// dumped wires (e.g. the primary outputs); `timescale` is a free-form
/// VCD timescale string such as `"1ns"`.
pub fn write_vcd(
    netlist: &Netlist,
    wave: &Waveform,
    signals: &[pls_netlist::GateId],
    timescale: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date reproduced-run $end");
    let _ = writeln!(out, "$version parlogsim $end");
    let _ = writeln!(out, "$timescale {timescale} $end");
    let _ = writeln!(out, "$scope module {} $end", netlist.name());
    let ids: Vec<String> = (0..signals.len()).map(vcd_id).collect();
    for (&g, id) in signals.iter().zip(&ids) {
        let _ = writeln!(out, "$var wire 1 {id} {} $end", netlist.gate(g).name);
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Initial values: X for everything.
    let _ = writeln!(out, "$dumpvars");
    for id in &ids {
        let _ = writeln!(out, "x{id}");
    }
    let _ = writeln!(out, "$end");

    // Merge all transitions into one time-ordered stream.
    let mut stream: Vec<(u64, usize, Value)> = Vec::new();
    for (si, &g) in signals.iter().enumerate() {
        for &(t, v) in &wave.transitions[g as usize] {
            stream.push((t, si, v));
        }
    }
    stream.sort_unstable_by_key(|&(t, si, _)| (t, si));

    let mut current = u64::MAX;
    for (t, si, v) in stream {
        if t != current {
            let _ = writeln!(out, "#{t}");
            current = t;
        }
        let _ = writeln!(out, "{}{}", vcd_char(v), ids[si]);
    }
    out
}

/// VCD identifier code for the n-th signal (printable ASCII 33..=126).
fn vcd_id(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

fn vcd_char(v: Value) -> char {
    match v {
        Value::V0 => '0',
        Value::V1 => '1',
        Value::X => 'x',
        Value::Z => 'z',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use pls_logic::StimulusConfig;

    fn build(netlist: &Netlist) -> GateSim {
        SimConfig {
            stim: StimulusConfig { seed: 3, period: 10, toggle_prob: 0.5 },
            end_time: 120,
            ..Default::default()
        }
        .build_gate_sim(netlist)
    }

    fn record(netlist: &Netlist) -> Waveform {
        WaveRecorder::new(build(netlist)).record()
    }

    #[test]
    fn recorder_collects_transitions() {
        let netlist = pls_netlist::data::s27();
        let wave = record(&netlist);
        assert!(!wave.is_empty());
        // Every transition list is time-ordered.
        for t in &wave.transitions {
            assert!(t.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn recorder_matches_gatesim_transition_counts() {
        let netlist = pls_netlist::data::s27();
        let app = build(&netlist);
        let plain = pls_timewarp::Simulator::new(&app)
            .run(pls_timewarp::Backend::Sequential)
            .expect("sequential runs cannot fail");
        let wave = record(&netlist);
        for (lp, st) in plain.states.iter().enumerate() {
            assert_eq!(
                st.transitions as usize,
                wave.transitions[lp].len(),
                "lp {lp} transition count mismatch"
            );
        }
    }

    #[test]
    fn vcd_has_header_and_ordered_timestamps() {
        let netlist = pls_netlist::data::s27();
        let wave = record(&netlist);
        let vcd = write_vcd(&netlist, &wave, netlist.outputs(), "1ns");
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$enddefinitions"));
        let times: Vec<u64> =
            vcd.lines().filter_map(|l| l.strip_prefix('#')).map(|t| t.parse().unwrap()).collect();
        assert!(!times.is_empty(), "no value changes dumped");
        assert!(times.windows(2).all(|w| w[0] < w[1]), "timestamps must ascend");
    }

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let ids: Vec<String> = (0..300).map(vcd_id).collect();
        let set: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids.iter().all(|s| s.bytes().all(|b| (33..=126).contains(&b))));
    }
}
