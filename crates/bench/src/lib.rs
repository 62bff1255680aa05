//! # ldp-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §3 for the index), plus shared scaling helpers.
//!
//! Every binary accepts `--scale <N>` (default shown per binary): the
//! workload is shrunk by N× relative to the paper's full-size traces so
//! the whole suite regenerates on a laptop; `--scale 1` reproduces the
//! full-size run. Results print as aligned text tables with the paper's
//! reference numbers alongside, and EXPERIMENTS.md records a captured
//! run.

#![warn(missing_docs)]

/// The value that followed `name` on the command line, parsed — or
/// `default` if the flag is absent. A flag that is present but
/// malformed is fatal (exit status 2): a run whose banner prints
/// "seed S" or "scale N" must have run seed S at scale N.
fn arg_or<T>(name: &str, default: T, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    parse(args.get(i + 1).map(String::as_str)).unwrap_or_else(|e| {
        eprintln!("error: {name} {e}");
        std::process::exit(2)
    })
}

/// The value that followed a numeric flag on the command line (`None`:
/// the flag was the last argument) as a finite, non-negative `f64`, or
/// why not. Every such flag is a scale, a duration, a rate or a count.
fn parse_f64(value: Option<&str>) -> Result<f64, String> {
    let v = value.ok_or("needs a value")?;
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        Ok(_) => Err(format!("{v:?} is not a finite, non-negative number")),
        Err(e) => Err(format!("{v:?} is not a number ({e})")),
    }
}

/// The value that followed an integer flag on the command line
/// (`None`: the flag was the last argument) as a `u64`, or why not.
fn parse_u64(value: Option<&str>) -> Result<u64, String> {
    let v = value.ok_or("needs a value")?;
    v.parse()
        .map_err(|e| format!("{v:?} is not an unsigned 64-bit integer ({e})"))
}

/// `--scale N` / `--seconds S` style flags from argv; a malformed,
/// negative or non-finite value is fatal (exit status 2).
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg_or(name, default, parse_f64)
}

/// `--seed S` style integer flags from argv; a malformed value is fatal
/// (exit status 2).
pub fn arg_u64(name: &str, default: u64) -> u64 {
    arg_or(name, default, parse_u64)
}

/// Exit with status 2 if argv holds a `--flag` that is not in `known`:
/// a mistyped or retired flag must not run the default study under
/// another name.
pub fn reject_unknown_flags(known: &[&str]) {
    let unknown = |a: &String| a.starts_with("--") && !known.contains(&a.as_str());
    if let Some(bad) = std::env::args().skip(1).find(unknown) {
        eprintln!(
            "error: unknown argument {bad:?} (known: {})",
            known.join(", ")
        );
        std::process::exit(2)
    }
}

/// The verdict word of a byte-identity gate.
pub fn identical(ok: bool) -> &'static str {
    if ok {
        "byte-identical"
    } else {
        "MISMATCH"
    }
}

/// The verdict word of a pass/fail gate.
pub fn ok_fail(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Render a boxplot-style row: label + med/quartiles/p5/p95.
pub fn boxplot_row(label: &str, s: &ldp_metrics::Summary, unit: &str) -> String {
    format!(
        "{label:<28} p5 {:>9.3}{unit}  q1 {:>9.3}{unit}  med {:>9.3}{unit}  q3 {:>9.3}{unit}  p95 {:>9.3}{unit}",
        s.p5, s.q1, s.median, s.q3, s.p95
    )
}

/// Render a CDF as a fixed set of probe points for terminal output.
pub fn cdf_rows(label: &str, samples: &[f64], unit: &str) -> Vec<String> {
    let Some(cdf) = ldp_metrics::Cdf::of(samples) else {
        return vec![format!("{label}: no samples")];
    };
    [0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        .iter()
        .map(|&p| {
            format!(
                "{label:<24} P{:>2.0} = {:>12.6}{unit}",
                p * 100.0,
                cdf.value_at(p)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn parse_u64_rejects_what_the_f64_route_accepted() {
        use super::{parse_f64, parse_u64};
        assert_eq!(parse_u64(Some("42")), Ok(42));
        // Above 2^53: exact, where `as u64` on an `f64` rounded to ...992.
        assert_eq!(
            parse_u64(Some("9007199254740993")),
            Ok(9_007_199_254_740_993)
        );
        assert!(parse_u64(Some("x")).is_err(), "was: silently seed 11");
        assert!(parse_u64(Some("-3")).is_err(), "was: silently seed 0");
        assert!(parse_u64(None).is_err(), "--seed as the last argument");

        assert_eq!(parse_f64(Some("800")), Ok(800.0));
        assert_eq!(parse_f64(Some("0.5")), Ok(0.5));
        assert_eq!(parse_f64(Some("0")), Ok(0.0));
        assert!(parse_f64(Some("x")).is_err(), "was: silently the default");
        assert!(parse_f64(Some("")).is_err());
        assert!(
            parse_f64(Some("-3")).is_err(),
            "a negative scale or duration"
        );
        assert!(parse_f64(Some("NaN")).is_err());
        assert!(parse_f64(Some("inf")).is_err());
        assert!(parse_f64(None).is_err(), "--scale as the last argument");
    }

    #[test]
    fn boxplot_row_formats() {
        let s = ldp_metrics::Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let row = super::boxplot_row("test", &s, "ms");
        assert!(row.contains("med"));
        assert!(row.starts_with("test"));
    }

    #[test]
    fn cdf_rows_cover_probes() {
        let rows = super::cdf_rows("x", &[1.0, 2.0, 3.0], "s");
        assert_eq!(rows.len(), 6);
        assert!(super::cdf_rows("x", &[], "s")[0].contains("no samples"));
    }
}
