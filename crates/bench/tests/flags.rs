//! Every study binary refuses a flag it does not know — exit status 2,
//! nothing on stdout — instead of quietly running its default study
//! under a mistyped or retired name.

macro_rules! binaries {
    ($($name:literal),*) => { [$(env!(concat!("CARGO_BIN_EXE_", $name))),*] };
}

const BINARIES: [&str; 14] = binaries! {
    "ablations", "calibrate_broot", "fig06_07_08", "fig09", "fig10", "fig11", "fig13_14",
    "fig15", "fig_cache", "fig_outage", "fig_recovery", "fig_trace", "scan_gate", "table1"
};

#[test]
fn every_binary_refuses_an_unknown_flag() {
    for bin in BINARIES {
        // `--scal` for `--scale`: the typo that used to run scale 20.
        let out = std::process::Command::new(bin)
            .args(["--scal", "1"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("unknown argument \"--scal\""),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} printed before refusing");
    }
}
