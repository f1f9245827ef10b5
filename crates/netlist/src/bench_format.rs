//! Reader and writer for the ISCAS'89 `.bench` netlist format.
//!
//! The format the CAD Benchmarking Lab distributes (the paper's reference
//! \[4\]) looks like:
//!
//! ```text
//! # s27 example
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = NAND(G0, G1)
//! G11 = DFF(G10)
//! ```
//!
//! Parsing scans the text once, keeping every name as a slice of it,
//! then fills the netlist's flat tables: names are declared (so signals
//! may be used before they are defined, which real benchmark files do
//! freely) and each gate's fanin names resolve through the name index
//! straight into its fanin row.

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder};

/// The non-empty, trimmed names of a gate's comma-separated input list.
fn input_names(args: &str) -> impl Iterator<Item = &str> {
    args.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parse `.bench` text into a [`Netlist`] with the given circuit name.
pub fn parse(name: &str, text: &str) -> Result<Netlist, NetlistError> {
    // Statements by kind, with the line number wherever a later step can
    // still fail on them. Every syntax error is found here, before any
    // name is declared.
    let mut inputs: Vec<&str> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    // (line, output signal, kind, unsplit input list)
    let mut gates: Vec<(usize, &str, GateKind, &str)> = Vec::new();
    let (mut name_bytes, mut pins) = (0, 0);

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = strip_call(line, "INPUT") {
            inputs.push(rest);
            name_bytes += rest.len();
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            outputs.push((lineno, rest));
        } else if let Some(eq) = line.find('=') {
            let out = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: lineno,
                msg: format!("expected `KIND(...)`, got `{rhs}`"),
            })?;
            let close = rhs.rfind(')').filter(|&close| close > open).ok_or_else(|| {
                NetlistError::Parse { line: lineno, msg: "missing closing parenthesis".into() }
            })?;
            if out.is_empty() {
                return Err(NetlistError::Parse { line: lineno, msg: "empty signal name".into() });
            }
            let kind_str = rhs[..open].trim();
            let kind = GateKind::from_bench_name(kind_str).ok_or_else(|| NetlistError::Parse {
                line: lineno,
                msg: format!("unknown gate kind `{kind_str}`"),
            })?;
            let args = &rhs[open + 1..close];
            let arity = input_names(args).count();
            if arity == 0 {
                return Err(NetlistError::Parse {
                    line: lineno,
                    msg: format!("gate `{out}` has no inputs"),
                });
            }
            gates.push((lineno, out, kind, args));
            name_bytes += out.len();
            pins += arity;
        } else {
            return Err(NetlistError::Parse {
                line: lineno,
                msg: format!("unrecognized statement `{line}`"),
            });
        }
    }

    // Declare every defined signal, inputs first so that
    // `Netlist::inputs()` preserves declaration order.
    let mut builder =
        NetlistBuilder::with_capacity(name, inputs.len() + gates.len(), name_bytes, pins);
    for &n in &inputs {
        builder.declare(n, GateKind::Input)?;
    }
    for &(_, out, kind, _) in &gates {
        builder.declare(out, kind)?;
    }

    // Fanin rows in id order: the inputs' are empty, a gate's names
    // resolve now that every signal is declared.
    for _ in &inputs {
        builder.close_row();
    }
    for &(lineno, out, _, args) in &gates {
        for i in input_names(args) {
            let driver = builder.find(i).ok_or_else(|| NetlistError::Parse {
                line: lineno,
                msg: format!("gate `{out}` references undefined signal `{i}`"),
            })?;
            builder.push_pin(driver);
        }
        builder.close_row();
    }

    for (lineno, n) in outputs {
        let id = builder.find(n).ok_or_else(|| NetlistError::Parse {
            line: lineno,
            msg: format!("OUTPUT names undefined signal `{n}`"),
        })?;
        builder.mark_output(id);
    }

    builder.build()
}

/// Serialize a netlist back to `.bench` text. `parse(write(n))` reproduces
/// the same circuit (names, kinds, pin order, outputs).
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", netlist.name()));
    out.push_str(&format!(
        "# {} inputs, {} gates, {} outputs, {} flip-flops\n",
        netlist.inputs().len(),
        netlist.num_logic_gates(),
        netlist.outputs().len(),
        netlist.dffs().len()
    ));
    for &i in netlist.inputs() {
        out.push_str(&format!("INPUT({})\n", netlist.gate(i).name));
    }
    for &o in netlist.outputs() {
        out.push_str(&format!("OUTPUT({})\n", netlist.gate(o).name));
    }
    for g in netlist.gates() {
        if g.kind == GateKind::Input {
            continue;
        }
        let ins: Vec<&str> = g.fanin.iter().map(|&f| netlist.gate(f).name).collect();
        out.push_str(&format!("{} = {}({})\n", g.name, g.kind.bench_name(), ins.join(", ")));
    }
    out
}

fn strip_call<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(kw)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# tiny sample
INPUT(A)
INPUT(B)
OUTPUT(Y)
N = NAND(A, B)
Y = NOT(N)
";

    #[test]
    fn parses_sample() {
        let n = parse("tiny", SAMPLE).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.num_logic_gates(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.gate(n.outputs()[0]).name, "Y");
    }

    #[test]
    fn forward_references_allowed() {
        let text = "INPUT(A)\nOUTPUT(Y)\nY = NOT(N)\nN = BUFF(A)\n";
        let n = parse("fwd", text).unwrap();
        let y = n.find("Y").unwrap();
        let nn = n.find("N").unwrap();
        assert_eq!(n.fanin(y), &[nn]);
    }

    #[test]
    fn round_trip() {
        let n1 = parse("tiny", SAMPLE).unwrap();
        let text = write(&n1);
        let n2 = parse("tiny", &text).unwrap();
        assert_eq!(n1.len(), n2.len());
        for id in n1.ids() {
            let g1 = n1.gate(id);
            let g2id = n2.find(g1.name).unwrap();
            let g2 = n2.gate(g2id);
            assert_eq!(g1.kind, g2.kind);
            let f1: Vec<&str> = g1.fanin.iter().map(|&f| n1.gate(f).name).collect();
            let f2: Vec<&str> = g2.fanin.iter().map(|&f| n2.gate(f).name).collect();
            assert_eq!(f1, f2);
        }
        assert_eq!(n1.outputs().len(), n2.outputs().len());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# hello\n\nINPUT(A)\nOUTPUT(B)\nB = BUFF(A)\n# trailing\n";
        assert!(parse("c", text).is_ok());
    }

    #[test]
    fn error_has_line_number() {
        let text = "INPUT(A)\nOUTPUT(B)\nB = FROB(A)\n";
        match parse("e", text) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    fn parse_err(line: usize, msg: &str) -> NetlistError {
        NetlistError::Parse { line, msg: msg.into() }
    }

    #[test]
    fn every_error_keeps_its_variant_message_and_line() {
        let cases: [(&str, NetlistError); 12] = [
            (
                "INPUT(A)\nOUTPUT(B)\nB = NOT(ZZZ)\n",
                parse_err(3, "gate `B` references undefined signal `ZZZ`"),
            ),
            (
                "INPUT(A)\nOUTPUT(NOPE)\nB = NOT(A)\n",
                parse_err(2, "OUTPUT names undefined signal `NOPE`"),
            ),
            ("INPUT(A)\nwhat is this\n", parse_err(2, "unrecognized statement `what is this`")),
            ("INPUT(A)\n\n# c\nB = A\n", parse_err(4, "expected `KIND(...)`, got `A`")),
            ("INPUT(A)\nB = NOT(A\n", parse_err(2, "missing closing parenthesis")),
            ("INPUT(A)\n = NOT(A)\n", parse_err(2, "empty signal name")),
            ("INPUT(A)\nB = FROB(A)\n", parse_err(2, "unknown gate kind `FROB`")),
            ("INPUT(A)\nB = NOT( , )\n", parse_err(2, "gate `B` has no inputs")),
            // Syntax errors anywhere win over semantic errors earlier in
            // the text: the scan finishes before any name is defined.
            ("INPUT(A)\nINPUT(A)\nB = FROB(A)\n", parse_err(3, "unknown gate kind `FROB`")),
            ("INPUT(A)\nINPUT(A)\n", NetlistError::DuplicateName("A".into())),
            ("INPUT(A)\nB = NOT(A)\nB = BUFF(A)\n", NetlistError::DuplicateName("B".into())),
            (
                "INPUT(A)\nB = AND(A)\n",
                NetlistError::BadArity { gate: "B".into(), kind: "AND", got: 1 },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse("e", text).unwrap_err(), want, "for {text:?}");
        }
    }

    #[test]
    fn parentheses_in_the_wrong_order_are_an_error_not_a_panic() {
        assert_eq!(
            parse("p", "INPUT(A)\nB = NOT)A(\n").unwrap_err(),
            parse_err(2, "missing closing parenthesis")
        );
    }

    #[test]
    fn names_and_pin_order_survive_loose_spacing() {
        let text = "INPUT( A )\n  INPUT(B)\nOUTPUT ( Y )\nY=NAND( B ,A, )\n";
        let n = parse("s", text).unwrap();
        let y = n.find("Y").unwrap();
        assert_eq!(n.fanin(y), &[n.find("B").unwrap(), n.find("A").unwrap()]);
        assert_eq!(n.outputs(), &[y]);
    }

    #[test]
    fn dff_parses() {
        let text = "INPUT(D)\nOUTPUT(Q)\nQ = DFF(D)\n";
        let n = parse("ff", text).unwrap();
        assert_eq!(n.dffs().len(), 1);
    }

    /// Every name, kind, pin, fanout row and list of `a` equals `b`'s.
    fn assert_same(a: &Netlist, b: &Netlist) {
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.gate(id), b.gate(id));
            assert_eq!(a.fanout(id), b.fanout(id));
        }
        assert_eq!((a.inputs(), a.outputs(), a.dffs()), (b.inputs(), b.outputs(), b.dffs()));
    }

    #[test]
    fn crlf_tabs_trailing_blanks_and_comment_lines_parse_like_plain_text() {
        let plain = parse("s27", crate::data::S27_BENCH).unwrap();
        let crlf = crate::data::S27_BENCH.replace('\n', "\r\n");
        assert_same(&plain, &parse("s27", &crlf).unwrap());
        let loose = crate::data::S27_BENCH
            .lines()
            .map(|l| l.replace('(', "\t(\t").replace(',', "\t,").replace('=', "\t=\t"))
            .map(|l| format!("\t{l} \t \r\n#   comment only\r\n   \t\r\n"))
            .collect::<String>();
        assert_same(&plain, &parse("s27", &loose).unwrap());
    }

    #[test]
    fn every_name_round_trips_through_find() {
        let gates = 20_000;
        for n in [
            crate::IscasSynth::s15850().build(),
            crate::IscasSynth::new("synth20k", gates / 150, gates, gates / 70).build(),
        ] {
            let parsed = parse(n.name(), &write(&n)).unwrap();
            for id in parsed.ids() {
                assert_eq!(parsed.find(parsed.gate(id).name), Some(id), "{}", n.name());
            }
        }
    }

    #[test]
    fn absent_names_are_not_found() {
        let n = parse("s27", crate::data::S27_BENCH).unwrap();
        assert!(n.find("G17").is_some() && n.find("G1").is_some());
        // The empty string, proper prefixes and extensions of real names.
        for absent in ["", "G", "G170", "G17 ", "G0G1", "g17"] {
            assert_eq!(n.find(absent), None, "{absent:?}");
        }
    }

    #[test]
    fn names_differing_in_their_last_byte_are_distinct() {
        let n = parse("last", "INPUT(sig_a)\nINPUT(sig_b)\nOUTPUT(y)\ny = AND(sig_b, sig_a)\n")
            .unwrap();
        let (a, b) = (n.find("sig_a").unwrap(), n.find("sig_b").unwrap());
        assert_ne!(a, b);
        assert_eq!(n.fanin(n.find("y").unwrap()), &[b, a]);
        for dup in ["sig_a", "sig_b"] {
            let text = format!("INPUT(sig_a)\nINPUT(sig_b)\nINPUT({dup})\n");
            assert_eq!(parse("dup", &text).unwrap_err(), NetlistError::DuplicateName(dup.into()));
        }
    }
}
