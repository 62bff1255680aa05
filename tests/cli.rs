//! Integration tests for the `ldplayer` command-line tool: generate,
//! stats, convert between all three formats, mutate, and replay against
//! a loopback sink.

use std::path::PathBuf;
use std::process::Command;

fn ldplayer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldplayer"))
}

fn tmp(name: &str) -> PathBuf {
    // Under target/, so a test run leaves nothing outside the checkout.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ldp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn ldplayer");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_stats_convert_mutate_pipeline() {
    let bin = tmp("t1.bin");
    let txt = tmp("t1.txt");
    let pcap = tmp("t1.pcap");
    let mutated = tmp("t1-tcp.bin");

    // generate
    let out = run_ok(ldplayer().args([
        "generate",
        "--kind",
        "syn",
        "--seconds",
        "2",
        "--interarrival",
        "0.01",
        "--out",
        bin.to_str().unwrap(),
    ]));
    assert!(out.contains("200 rec"), "stats row: {out}");

    // stats
    let out = run_ok(ldplayer().args(["stats", bin.to_str().unwrap()]));
    assert!(out.contains("queries 200"), "{out}");
    assert!(out.contains("0.0% TCP"), "{out}");

    // convert bin → txt → pcap → bin
    run_ok(ldplayer().args(["convert", bin.to_str().unwrap(), txt.to_str().unwrap()]));
    run_ok(ldplayer().args(["convert", txt.to_str().unwrap(), pcap.to_str().unwrap()]));
    let back = tmp("t1-back.bin");
    run_ok(ldplayer().args(["convert", pcap.to_str().unwrap(), back.to_str().unwrap()]));
    let out = run_ok(ldplayer().args(["stats", back.to_str().unwrap()]));
    assert!(out.contains("queries 200"), "round-tripped: {out}");

    // mutate: all TCP + DO.
    run_ok(ldplayer().args([
        "mutate",
        bin.to_str().unwrap(),
        mutated.to_str().unwrap(),
        "--all-tcp",
        "--do-fraction",
        "1.0",
    ]));
    let out = run_ok(ldplayer().args(["stats", mutated.to_str().unwrap()]));
    assert!(out.contains("100.0% TCP"), "{out}");
    assert!(out.contains("DO bit on 100.0%"), "{out}");
}

#[test]
fn replay_fast_against_sink() {
    let sink = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let target = sink.local_addr().unwrap();
    let bin = tmp("t2.bin");
    let udp = tmp("t2-udp.bin");
    run_ok(ldplayer().args([
        "generate",
        "--kind",
        "broot",
        "--seconds",
        "2",
        "--rate",
        "500",
        "--clients",
        "100",
        "--out",
        bin.to_str().unwrap(),
    ]));
    // The generated trace has ~3% TCP; the sink is UDP-only, so force
    // UDP first (also exercises mutate).
    run_ok(ldplayer().args([
        "mutate",
        bin.to_str().unwrap(),
        udp.to_str().unwrap(),
        "--all-udp",
    ]));
    let out = run_ok(ldplayer().args([
        "replay",
        udp.to_str().unwrap(),
        "--target",
        &target.to_string(),
        "--fast",
    ]));
    assert!(out.contains("sent"), "{out}");
    assert!(out.contains("(0 errors)"), "{out}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = tmp("t4.bin");
    let out = out.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (&["bogus-subcommand"], "unknown command"),
        (&["stats", "/nonexistent/file.bin"], "read /nonexistent"),
        (
            &["convert", "/nonexistent/in.weird", out],
            "read /nonexistent",
        ),
        // A flag the subcommand does not know: refused, with its usage.
        (
            &["stats", "t.txt", "--nonsense"],
            "usage:\n  ldplayer stats",
        ),
        (
            &["generate", "--kind", "syn", "--out", out, "--bogus", "1"],
            "usage:\n  ldplayer generate",
        ),
    ];
    for (args, says) in cases {
        let res = ldplayer().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(res.stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn out_of_range_numbers_are_refused_with_a_message() {
    let bin = tmp("t3.bin");
    let out = tmp("t3-out.bin");
    let (bin, out) = (bin.to_str().unwrap(), out.to_str().unwrap());
    run_ok(ldplayer().args(["generate", "--kind", "syn", "--seconds", "1", "--out", bin]));
    let cases: [&[&str]; 9] = [
        &[
            "generate",
            "--kind",
            "syn",
            "--out",
            out,
            "--interarrival",
            "0",
        ],
        &["generate", "--kind", "broot", "--out", out, "--rate", "nan"],
        &["replay", bin, "--target", "127.0.0.1:9", "--speed", "0"],
        &["replay", bin, "--target", "127.0.0.1:9", "--speed", "-1"],
        &["replay", bin, "--target", "127.0.0.1:9", "--speed", "nan"],
        &["mutate", bin, out, "--scale-time", "-2"],
        &["mutate", bin, out, "--scale-time", "nan"],
        &["mutate", bin, out, "--do-fraction", "5"],
        &["mutate", bin, out, "--do-fraction", "nan"],
    ];
    for args in cases {
        let res = ldplayer().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(1), "{args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("bad {flag}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_usage() {
    let out = run_ok(ldplayer().args(["--help"]));
    assert!(out.contains("usage:"));
    assert!(out.contains("replay"));
    assert!(out.contains("generate"));
}
