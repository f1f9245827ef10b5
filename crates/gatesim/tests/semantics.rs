//! Gate-level simulation semantics: register sampling order, glitch
//! propagation, X-flush behaviour and determinism details that the
//! top-level oracle tests would only catch indirectly.

use pls_gatesim::{CompileOptions, ExecModel, GateSim, SimConfig};
use pls_logic::{DelayModel, StimulusConfig, Value};
use pls_netlist::bench_format::parse;
use pls_timewarp::{
    Application, Backend, Cancellation, KernelConfig, LpLedger, RunReport, Simulator,
};

fn run_sequential<A: Application>(app: &A) -> RunReport<A> {
    Simulator::new(app).run(Backend::Sequential).unwrap()
}

/// Unit delays, stimulus period 10 (the default clock period).
fn config(seed: u64, toggle: f64, end: u64) -> SimConfig {
    SimConfig {
        delay: DelayModel::Unit(1),
        stim: StimulusConfig { seed, period: 10, toggle_prob: toggle },
        end_time: end,
        ..Default::default()
    }
}

fn sim(text: &str, seed: u64, toggle: f64, end: u64) -> (pls_netlist::Netlist, GateSim) {
    let n = parse("t", text).unwrap();
    let app = config(seed, toggle, end).build_gate_sim(&n);
    (n, app)
}

/// Per-gate fingerprints of both engines on the same workload.
fn both_fingerprints(text: &str, seed: u64, toggle: f64, end: u64) -> (Vec<u64>, Vec<u64>) {
    let n = parse("t", text).unwrap();
    let build = |exec: ExecModel| SimConfig { exec, ..config(seed, toggle, end) }.build_app(&n);
    let gate = build(ExecModel::GatePerLp);
    let compiled = build("compiled".parse().unwrap());
    let gf = gate.fingerprint(&run_sequential(&gate).states);
    let cf = compiled.fingerprint(&run_sequential(&compiled).states);
    (gf, cf)
}

#[test]
fn dff_samples_pre_edge_value() {
    // D toggles every stimulus period; Q must always lag by one clock:
    // since delays are 1 and edges sit between stimulus ticks, Q at edge e
    // must equal D's value just before e, never the post-edge value.
    let (n, app) = sim("INPUT(D)\nOUTPUT(Q)\nQ = DFF(D)\n", 3, 1.0, 200);
    let res = run_sequential(&app);
    let q = &res.states[n.find("Q").unwrap() as usize];
    // D alternates 20 times; Q follows with exactly one transition per
    // change after the first sample.
    assert!(q.transitions >= 18, "Q only changed {} times", q.transitions);
}

#[test]
fn glitches_propagate_through_unequal_paths() {
    // Y = AND(A, NOT(A)) is logically 0, but the inverter path is one
    // delay longer, so every A edge produces a 1-glitch on Y under pure
    // transport delays.
    let (n, app) = sim("INPUT(A)\nOUTPUT(Y)\nB = NOT(A)\nY = AND(A, B)\n", 5, 1.0, 200);
    let res = run_sequential(&app);
    let y = &res.states[n.find("Y").unwrap() as usize];
    assert!(
        y.transitions > 10,
        "transport delays must show hazards, got {} transitions",
        y.transitions
    );
}

#[test]
fn equal_paths_do_not_glitch() {
    // Y = XOR(B, C) with B = BUFF(A), C = BUFF(A): both inputs change at
    // the same instant (one batch), Y evaluates once and stays 0.
    let (n, app) =
        sim("INPUT(A)\nOUTPUT(Y)\nB = BUFF(A)\nC = BUFF(A)\nY = XOR(B, C)\n", 5, 1.0, 200);
    let res = run_sequential(&app);
    let y = &res.states[n.find("Y").unwrap() as usize];
    // Y leaves X once (to 0) and never toggles.
    assert_eq!(y.output, Value::V0);
    assert_eq!(y.transitions, 1, "balanced paths must not glitch");
}

#[test]
fn known_values_flush_x_on_combinational_outputs() {
    let (n, app) = sim(
        "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nC = NAND(A, B)\nD = NOR(A, C)\nY = XOR(C, D)\n",
        9,
        0.5,
        300,
    );
    let res = run_sequential(&app);
    for id in n.ids() {
        if !n.is_input(id) {
            assert!(
                res.states[id as usize].output.is_known(),
                "gate {} stuck at {}",
                n.gate(id).name,
                res.states[id as usize].output
            );
        }
    }
}

#[test]
fn quiet_inputs_produce_single_settling_wave() {
    // toggle_prob 0: one initial drive, then silence. Event count is
    // bounded by circuit size × depth, far below a toggling run.
    let (_, quiet) = sim("INPUT(A)\nOUTPUT(C)\nB = NOT(A)\nC = NOT(B)\n", 1, 0.0, 500);
    let silent = run_sequential(&quiet);
    // 1 input drive + 2 gate evaluations + ~50 no-change stimulus ticks.
    assert!(silent.stats.events_processed < 60);
}

#[test]
fn multi_pin_reader_gets_one_event_per_pin() {
    // G reads A on both pins: each A change delivers two events (one per
    // pin) in one batch, evaluated once.
    let (n, app) = sim("INPUT(A)\nOUTPUT(G)\nG = AND(A, A)\n", 2, 1.0, 100);
    let res = run_sequential(&app);
    let g = &res.states[n.find("G").unwrap() as usize];
    let a = &res.states[n.find("A").unwrap() as usize];
    // G follows A exactly: same number of value changes.
    assert_eq!(g.transitions, a.transitions);
}

#[test]
fn sim_config_builds_runnable_app() {
    let netlist = pls_netlist::data::c17();
    let cfg = SimConfig { end_time: 200, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let res = run_sequential(&app);
    assert!(res.stats.events_processed > 50);
    // c17 is combinational: no DFF ever ticks.
    assert_eq!(netlist.dffs().len(), 0);
}

#[test]
fn compiled_mode_reproduces_hazards_exactly() {
    // The glitch circuit is the hardest timing case: the compiled sweep
    // must keep the unequal-path transport delays visible, not settle the
    // cone combinationally.
    let (gf, cf) =
        both_fingerprints("INPUT(A)\nOUTPUT(Y)\nB = NOT(A)\nY = AND(A, B)\n", 5, 1.0, 200);
    assert_eq!(gf, cf, "compiled mode must preserve hazard timing");
}

#[test]
fn compiled_mode_matches_on_sequential_circuit() {
    let (gf, cf) = both_fingerprints(
        "INPUT(D)\nOUTPUT(Q2)\nQ = DFF(D)\nN = NOT(Q)\nQ2 = DFF(N)\n",
        3,
        1.0,
        300,
    );
    assert_eq!(gf, cf, "DFF boundary contract broken");
}

#[test]
fn compiled_mode_matches_on_multi_pin_and_reconvergence() {
    let (gf, cf) = both_fingerprints(
        "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nC = NAND(A, B)\nD = NOR(A, C)\nE = AND(C, C)\nY = XOR(E, D)\n",
        9,
        0.5,
        300,
    );
    assert_eq!(gf, cf);
}

#[test]
fn widest_gates_match_across_engines_and_executives() {
    // 255 inputs, the widest gate `GateKind::arity` allows: an XOR over
    // all of them (every pin word of the packed state, every operand slot
    // of a full compiled op) and a NAND reading one input on 254 pins and
    // another on the last, so it toggles and a change of the first lands
    // 254 pin updates in one batch.
    let ins: Vec<String> = (0..255).map(|i| format!("I{i}")).collect();
    let mut nand = vec!["I0"; 254];
    nand.push("I1");
    let text = format!(
        "{}OUTPUT(Y)\nOUTPUT(Z)\nY = XOR({})\nZ = NAND({})\n",
        ins.iter().map(|i| format!("INPUT({i})\n")).collect::<String>(),
        ins.join(", "),
        nand.join(", ")
    );
    let n = parse("wide", &text).unwrap();
    let parts: Vec<u32> = (0..n.len() as u32).map(|g| g % 2).collect();
    let gate = config(11, 0.5, 300).build_app(&n);
    let seq = run_sequential(&gate);
    let oracle = gate.fingerprint(&seq.states);
    for out in ["Y", "Z"] {
        let state = seq.states[n.find(out).unwrap() as usize].as_gate().unwrap();
        assert!(state.transitions > 5, "{out} barely toggled: {}", state.transitions);
    }
    let exec = ExecModel::CompiledBlocks(CompileOptions { blocks: Some(parts.clone()) });
    let compiled = SimConfig { exec, ..config(11, 0.5, 300) }.build_app(&n);
    for app in [&gate, &compiled] {
        let asg = app.lp_assignment(&parts);
        let runs = [
            Simulator::new(app).run(Backend::Sequential),
            Simulator::new(app).run(Backend::Platform { assignment: &asg, nodes: 2 }),
            Simulator::new(app).run(Backend::Threaded { assignment: &asg, clusters: 2 }),
        ];
        for (executive, run) in ["sequential", "platform", "threaded"].iter().zip(runs) {
            assert_eq!(
                app.fingerprint(&run.unwrap().states),
                oracle,
                "{} on the {executive} executive",
                app.exec_name()
            );
        }
    }
}

#[test]
fn wide_gates_roll_back_alike_on_every_executive_and_cancellation() {
    // A gate keeps up to 32 pins inline and boxes any wider: a 32-pin AND
    // and a 33-pin OR sit either side of that boundary, and a 255-pin XOR
    // fills every word of the boxed pins.
    // A NAND reads all three. Each wide gate has a part of its own with
    // one in eight of the inputs, and the fourth part holds the rest; so
    // the gates' parts run ahead of most of their pins, take stragglers and
    // roll back, restoring their pins from checkpoints.
    let ins: Vec<String> = (0..255).map(|i| format!("I{i}")).collect();
    let text = format!(
        "{}OUTPUT(Z)\nA = AND({})\nB = OR({})\nY = XOR({})\nZ = NAND(A, B, Y)\n",
        ins.iter().map(|i| format!("INPUT({i})\n")).collect::<String>(),
        ins[..32].join(", "),
        ins[..33].join(", "),
        ins.join(", "),
    );
    let n = parse("wide", &text).unwrap();
    let wide = ["A", "B", "Y"].map(|g| n.find(g).unwrap());
    let mut parts: Vec<u32> = (0..n.len() as u32).map(|g| (g % 8).min(3)).collect();
    for (part, g) in (0..).zip(wide) {
        parts[g as usize] = part;
    }
    let app = config(13, 0.5, 400).build_app(&n);
    let oracle = app.fingerprint(&run_sequential(&app).states);
    let asg = app.lp_assignment(&parts);
    for cancellation in [Cancellation::Aggressive, Cancellation::Lazy] {
        let kernel = KernelConfig { cancellation, ..Default::default() };
        let sim = || Simulator::new(&app).config(kernel);
        let (platform, ledger) = sim()
            .probe(LpLedger::default())
            .run_probed(Backend::Platform { assignment: &asg, nodes: 4 })
            .unwrap();
        let activity = ledger.into_parts();
        for g in wide {
            assert!(activity[g as usize].rollbacks > 0, "gate {g} never rolled back");
        }
        let threaded = sim().run(Backend::Threaded { assignment: &asg, clusters: 4 }).unwrap();
        let sequential = sim().run(Backend::Sequential).unwrap();
        for (executive, states) in [
            ("sequential", sequential.states),
            ("platform", platform.states),
            ("threaded", threaded.states),
        ] {
            assert_eq!(app.fingerprint(&states), oracle, "{executive}, {cancellation:?}");
        }
    }
}
