//! The determinism checks that live in the toolchain: rustc, clippy and
//! the `VTime` type. A check that stops firing passes forever, so this
//! test pins what keeps each one live (docs/LINTS.md). It also pins the
//! kernel as a leaf crate.

use std::path::Path;

/// The crates whose code reaches committed history.
const KERNEL_CRATES: [&str; 5] = ["timewarp", "partition", "logic", "netlist", "gatesim"];

/// The kernel crates that hold virtual time: their library code does no
/// float arithmetic and no lossy numeric cast.
const VIRTUAL_TIME_CRATES: [&str; 2] = ["timewarp", "gatesim"];

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The retired lint rules (docs/LINTS.md), and each one's checker.
/// D005: every kernel crate forbids `unsafe`. D001/D002/D004 and the
/// D006/D008/D011 host sources: `clippy.toml` bans the paths, and
/// `scripts/check.sh` runs that clippy pass, with the lints denied, over
/// exactly the kernel crates; the threaded executive's sanctioned sites
/// are waived item by item, never for the whole module. D003 and D011's
/// floats: the two crates that hold virtual time deny float arithmetic
/// and lossy casts outside their tests. D007 and D003's wrapping sums:
/// `VTime`'s field is private, so `.0` arithmetic on it does not
/// compile, and `VTime::from` is an inherent function that `clippy.toml`
/// bans by path, so `VTime::from(t.ticks() + d)` fails the kernel clippy
/// pass unless a waiver names the site.
#[test]
fn rustc_and_clippy_still_check_the_retired_rules() {
    for c in KERNEL_CRATES {
        let lib = workspace_file(&format!("crates/{c}/src/lib.rs"));
        assert!(lib.contains("#![forbid(unsafe_code)]"), "crates/{c} must forbid unsafe code");
    }
    for c in VIRTUAL_TIME_CRATES {
        let lib: String = workspace_file(&format!("crates/{c}/src/lib.rs"))
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        assert!(
            lib.contains(
                "#![cfg_attr(not(test),deny(clippy::float_arithmetic,clippy::cast_precision_loss,\
                 clippy::cast_possible_truncation))]"
            ),
            "crates/{c} must deny float arithmetic and lossy casts in its library code"
        );
    }

    let clippy = workspace_file("clippy.toml");
    let (types, methods) =
        clippy.split_once("\ndisallowed-methods = [").expect("clippy.toml has disallowed-methods");
    assert!(types.contains("\ndisallowed-types = ["), "disallowed-types comes first");
    for path in [
        // D001, D002
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::SystemTime",
        // D004
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
        "std::sync::Barrier",
        "std::sync::mpsc::Sender",
        "std::sync::mpsc::SyncSender",
        "std::sync::mpsc::Receiver",
        "std::sync::atomic::AtomicBool",
        "std::sync::atomic::AtomicU32",
        "std::sync::atomic::AtomicU64",
        "std::sync::atomic::AtomicUsize",
        "std::sync::atomic::AtomicI64",
        "std::thread::Builder",
        // D006, D008: every std atomic, cell and once-set global, and
        // file handles
        "std::sync::atomic::AtomicI8",
        "std::sync::atomic::AtomicI16",
        "std::sync::atomic::AtomicI32",
        "std::sync::atomic::AtomicIsize",
        "std::sync::atomic::AtomicU8",
        "std::sync::atomic::AtomicU16",
        "std::sync::atomic::AtomicPtr",
        "std::cell::Cell",
        "std::cell::RefCell",
        "std::cell::OnceCell",
        "std::cell::LazyCell",
        "std::cell::UnsafeCell",
        "std::cell::SyncUnsafeCell",
        "std::sync::Once",
        "std::sync::OnceLock",
        "std::sync::LazyLock",
        "std::fs::File",
    ] {
        assert!(types.contains(&format!("path = \"{path}\"")), "disallowed-types: {path}");
    }
    for path in [
        // D002
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        // D004
        "std::thread::spawn",
        "std::thread::scope",
        "std::sync::mpsc::channel",
        "std::sync::mpsc::sync_channel",
        // D006
        "std::io::stdout",
        "std::io::stderr",
        "std::io::stdin",
        "std::env::set_var",
        "std::env::remove_var",
        // D011 sources
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::thread::current",
        // D003, D007: raw tick sums
        "pls_timewarp::time::VTime::from",
    ] {
        assert!(methods.contains(&format!("path = \"{path}\"")), "disallowed-methods: {path}");
    }

    let threaded = workspace_file("crates/timewarp/src/threaded.rs");
    assert!(
        !threaded.contains("#![allow(clippy::disallowed_"),
        "threaded.rs must waive its sanctioned sites item by item: an inner allow switches the \
         bans off for the whole file"
    );

    let time = workspace_file("crates/timewarp/src/time.rs");
    assert!(time.contains("pub struct VTime(u64);"), "VTime's field must stay private");
    assert!(
        time.contains("pub const fn from(t: u64) -> VTime"),
        "VTime::from must stay an inherent function: clippy cannot ban a trait impl by path"
    );
    assert!(
        !time.contains("impl From<u64> for VTime"),
        "a From<u64> impl would give `.into()` and `VTime::from` a path clippy.toml cannot ban"
    );

    let check = workspace_file("scripts/check.sh");
    let lines: Vec<&str> = check.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("for p in pls-"))
        .expect("check.sh has a per-crate clippy loop");
    let mut looped: Vec<&str> = lines[at]
        .trim_start_matches("for p in ")
        .trim_end_matches("; do")
        .split_whitespace()
        .map(|p| p.trim_start_matches("pls-"))
        .collect();
    let mut kernel = KERNEL_CRATES.to_vec();
    looped.sort_unstable();
    kernel.sort_unstable();
    assert_eq!(looped, kernel, "the clippy loop must cover exactly KERNEL_CRATES");
    let body = lines[at + 1];
    assert!(body.contains("clippy") && body.contains("--lib"), "loop body: {body}");
    for lint in [
        "-D clippy::disallowed-types",
        "-D clippy::disallowed-methods",
        "-D clippy::print_stdout",
        "-D clippy::print_stderr",
        "-D clippy::dbg_macro",
    ] {
        assert!(body.contains(lint), "the per-crate clippy pass must {lint}: {body}");
    }
}

/// The Time Warp kernel is a leaf crate (DESIGN §2): as in the paper,
/// where WARPED knows nothing of the partitioner, `pls-timewarp` depends
/// on no crate, so it cannot quietly grow a workspace dependency again.
#[test]
fn the_time_warp_kernel_depends_on_no_crate() {
    let manifest = workspace_file("crates/timewarp/Cargo.toml");
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        if line.starts_with('[') {
            in_deps = line.contains("dependencies") && !line.contains("dev-dependencies");
            assert!(!(in_deps && line.contains("dependencies.")), "pls-timewarp: {line}");
        } else {
            assert!(!in_deps, "pls-timewarp must list no dependencies, found `{line}`");
        }
    }
}
