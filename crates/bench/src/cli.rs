//! Shared command-line parsing for the `repro` binary.
//!
//! Every subcommand understands the same flag vocabulary (`--threads`,
//! `--json`, `--seed`, `--iters`, `--edits`, `--out`, `--wall-clock`,
//! `--model`, `--trace`, `--beam`, `--calibrate`, `--requests`,
//! `--clients`, `--corpus-size`, `--port`, `--access-log`), parsed once
//! here instead of per subcommand. Unknown flags are errors; the first
//! bare word is the subcommand. `--json` names one report file, so it
//! needs one subcommand: under `all` every report would overwrite it.

use std::path::PathBuf;

/// Parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// Subcommand (first non-flag argument), when given.
    pub cmd: Option<String>,
    /// `--wall-clock`: use wall-clock meters where supported.
    pub wall_clock: bool,
    /// `--out PATH`: transcript destination.
    pub out_path: PathBuf,
    /// `--threads N`: worker threads (`0` = available parallelism).
    pub threads: usize,
    /// `--json PATH`: machine-readable report destination.
    pub json: Option<PathBuf>,
    /// `--seed S`: base seed for randomized subcommands.
    pub seed: u64,
    /// `--iters N`: iteration count for randomized subcommands.
    pub iters: usize,
    /// `--edits N`: edit count per model for the incremental subcommand.
    pub edits: usize,
    /// `--model NAME`: restrict a subcommand to one benchmark model.
    pub model: Option<String>,
    /// `--trace PATH`: Chrome trace-event JSON destination.
    pub trace: Option<PathBuf>,
    /// `--beam W`: beam width for search-mapped subcommands (`0` = greedy).
    pub beam: usize,
    /// `--calibrate`: run profile-guided cost calibration before the beam
    /// pass (the `search` subcommand's full loop).
    pub calibrate: bool,
    /// `--requests N`: total requests replayed by `obs-bench`.
    pub requests: usize,
    /// `--clients C`: concurrent client threads for `obs-bench`.
    pub clients: usize,
    /// `--corpus-size M`: synthesized models in the `obs-bench` corpus.
    pub corpus_size: usize,
    /// `--port P`: TCP port for the `serve` subcommand (`0` = ephemeral).
    pub port: u16,
    /// `--access-log PATH`: per-request JSONL destination for the `serve`
    /// and `obs-bench` subcommands.
    pub access_log: Option<PathBuf>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            cmd: None,
            wall_clock: false,
            out_path: PathBuf::from("target/repro_output.txt"),
            threads: 0,
            json: None,
            seed: 0,
            iters: 200,
            edits: 50,
            model: None,
            trace: None,
            beam: 0,
            calibrate: false,
            requests: 5000,
            clients: 8,
            corpus_size: 1000,
            port: 0,
            access_log: None,
        }
    }
}

/// Parse an argument stream (usually `std::env::args().skip(1)`).
///
/// # Errors
///
/// Returns a usage message when a flag is missing its value, a numeric
/// value does not parse, a second bare word appears, or `--json` is given
/// without a subcommand (or with `all`).
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<CommonArgs, String> {
    let mut out = CommonArgs::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--wall-clock" => out.wall_clock = true,
            "--out" => {
                out.out_path = PathBuf::from(args.next().ok_or("--out requires a path")?);
            }
            "--json" => {
                out.json = Some(PathBuf::from(args.next().ok_or("--json requires a path")?));
            }
            "--threads" => {
                out.threads = parse_num(args.next(), "--threads")?;
            }
            "--seed" => {
                out.seed = parse_num(args.next(), "--seed")?;
            }
            "--iters" => {
                out.iters = parse_num(args.next(), "--iters")?;
            }
            "--edits" => {
                out.edits = parse_num(args.next(), "--edits")?;
            }
            "--model" => {
                out.model = Some(args.next().ok_or("--model requires a name")?);
            }
            "--trace" => {
                out.trace = Some(PathBuf::from(args.next().ok_or("--trace requires a path")?));
            }
            "--beam" => {
                out.beam = parse_num(args.next(), "--beam")?;
            }
            "--calibrate" => out.calibrate = true,
            "--requests" => {
                out.requests = parse_num(args.next(), "--requests")?;
            }
            "--clients" => {
                out.clients = parse_num(args.next(), "--clients")?;
            }
            "--corpus-size" => {
                out.corpus_size = parse_num(args.next(), "--corpus-size")?;
            }
            "--port" => {
                out.port = parse_num(args.next(), "--port")?;
            }
            "--access-log" => {
                out.access_log = Some(PathBuf::from(
                    args.next().ok_or("--access-log requires a path")?,
                ));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}"));
            }
            word => {
                if out.cmd.is_some() {
                    return Err(format!("unexpected extra argument {word:?}"));
                }
                out.cmd = Some(word.to_owned());
            }
        }
    }
    if out.json.is_some() && matches!(out.cmd.as_deref(), None | Some("all")) {
        return Err(
            "--json needs a single subcommand: under `all` every report would overwrite the same file"
                .to_owned(),
        );
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(value: Option<String>, flag: &str) -> Result<T, String> {
    value
        .ok_or_else(|| format!("{flag} requires a number"))?
        .parse()
        .map_err(|_| format!("{flag} requires a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CommonArgs, String> {
        parse_args(words.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CommonArgs::default());
        assert_eq!(a.iters, 200);
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn full_fuzz_invocation() {
        let a = parse(&[
            "fuzz",
            "--seed",
            "7",
            "--iters",
            "50",
            "--threads",
            "3",
            "--json",
            "x.json",
        ])
        .unwrap();
        assert_eq!(a.cmd.as_deref(), Some("fuzz"));
        assert_eq!(a.seed, 7);
        assert_eq!(a.iters, 50);
        assert_eq!(a.threads, 3);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("x.json")));
    }

    #[test]
    fn flag_order_is_free() {
        let a = parse(&["--threads", "2", "fig1", "--wall-clock"]).unwrap();
        assert_eq!(a.cmd.as_deref(), Some("fig1"));
        assert_eq!(a.threads, 2);
        assert!(a.wall_clock);
    }

    #[test]
    fn profile_invocation() {
        let a = parse(&[
            "profile", "--model", "FIR", "--json", "p.json", "--trace", "t.json",
        ])
        .unwrap();
        assert_eq!(a.cmd.as_deref(), Some("profile"));
        assert_eq!(a.model.as_deref(), Some("FIR"));
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("p.json")));
    }

    #[test]
    fn incremental_invocation() {
        let a = parse(&["incremental", "--seed", "3", "--edits", "25"]).unwrap();
        assert_eq!(a.cmd.as_deref(), Some("incremental"));
        assert_eq!(a.seed, 3);
        assert_eq!(a.edits, 25);
        assert_eq!(parse(&[]).unwrap().edits, 50);
    }

    #[test]
    fn search_invocation() {
        let a = parse(&["search", "--beam", "4", "--calibrate", "--json", "s.json"]).unwrap();
        assert_eq!(a.cmd.as_deref(), Some("search"));
        assert_eq!(a.beam, 4);
        assert!(a.calibrate);
        let d = parse(&[]).unwrap();
        assert_eq!(d.beam, 0);
        assert!(!d.calibrate);
    }

    #[test]
    fn serve_invocation() {
        let a = parse(&["serve", "--port", "8901", "--threads", "2"]).unwrap();
        assert_eq!(a.cmd.as_deref(), Some("serve"));
        assert_eq!(a.port, 8901);
        assert_eq!(a.threads, 2);
        assert_eq!(parse(&[]).unwrap().port, 0);
    }

    #[test]
    fn obs_bench_invocation() {
        let a = parse(&[
            "obs-bench",
            "--requests",
            "2000",
            "--clients",
            "16",
            "--corpus-size",
            "1000",
            "--access-log",
            "target/access.jsonl",
            "--json",
            "o.json",
        ])
        .unwrap();
        assert_eq!(a.cmd.as_deref(), Some("obs-bench"));
        assert_eq!(a.requests, 2000);
        assert_eq!(a.clients, 16);
        assert_eq!(a.corpus_size, 1000);
        assert_eq!(
            a.access_log.as_deref(),
            Some(std::path::Path::new("target/access.jsonl"))
        );
        assert_eq!(parse(&[]).unwrap().access_log, None);
        assert_eq!(parse(&[]).unwrap().requests, 5000);
    }

    #[test]
    fn json_needs_a_single_subcommand() {
        // Under `all` every subcommand would write its report to the same
        // path and only the last would survive.
        for words in [&["all", "--json", "r.json"][..], &["--json", "r.json"]] {
            let e = parse(words).unwrap_err();
            assert!(e.contains("--json"), "{e}");
        }
        assert!(parse(&["all", "--threads", "2"]).is_ok());
        assert!(parse(&["verify", "--json", "v.json"]).is_ok());
    }

    #[test]
    fn errors() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--edits"]).is_err());
        assert!(parse(&["--edits", "x"]).is_err());
        assert!(parse(&["--model"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--threads", "abc"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--beam"]).is_err());
        assert!(parse(&["--beam", "wide"]).is_err());
        assert!(parse(&["--requests"]).is_err());
        assert!(parse(&["--clients", "many"]).is_err());
        assert!(parse(&["--corpus-size"]).is_err());
        assert!(parse(&["--port", "70000"]).is_err());
        assert!(parse(&["--access-log"]).is_err());
        assert!(parse(&["--calibrate", "--bogus"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["table2", "fuzz"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--json"]).is_err());
    }
}
