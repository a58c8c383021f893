//! The experiment driver's command line: the flag vocabulary, one parser
//! and the usage text.
//!
//! The `experiments` binary declares a table of [`Command`]s whose usage
//! lines name the flags each one reads. [`parse`] rejects every other
//! flag, so none is silently ignored, and [`usage`] renders the help from
//! the same table.

use std::path::PathBuf;

use tm_campaign::{CampaignSpec, Shard};

use crate::campaign;

/// The driver's default base seed (also the paper's publication venue and
/// year, which makes it easy to spot in output).
pub const DEFAULT_SEED: u64 = 0xD5_2018;

/// The driver's default trial count for figure reproductions.
pub const DEFAULT_TRIALS: usize = 200;

/// Parses a `u64` that may be hex (`0x` prefix, case-insensitive) or
/// decimal. Underscore separators are accepted in both forms.
pub fn parse_u64(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Each flag as typed and its value's placeholder in usage. A boolean flag
/// has no placeholder and takes no value, whatever the command.
pub const FLAGS: [(&str, &str); 13] = [
    ("--seed", "HEX"),
    ("--trials", "N"),
    ("--json", "FILE"),
    ("--seeds", "N"),
    ("--workers", "N"),
    ("--confidence", "P"),
    ("--shard", "I/N"),
    ("--state", "DIR"),
    ("--resume", ""),
    ("--topo", "CSV"),
    ("--attacks", "CSV"),
    ("--stacks", "CSV"),
    ("--probe-only", ""),
];

/// A parsed command line: its operands, and the value of each flag, or
/// its default where the flag was not given. A field holds the flag of its
/// name, split at commas for `--topo`, `--attacks` and `--stacks`.
#[derive(Clone, Debug)]
pub struct Args {
    /// The operands after the command's name.
    pub operands: Vec<String>,
    pub seed: u64,
    pub trials: usize,
    pub json: Option<String>,
    /// `--seeds`, `--workers`, `--confidence` and `--shard`, on the
    /// campaign runner's defaults; the caller names scenario and seed.
    pub campaign: CampaignSpec,
    pub state: Option<PathBuf>,
    pub resume: bool,
    pub topo: Vec<String>,
    pub attacks: Vec<String>,
    pub stacks: Vec<String>,
}

impl Args {
    /// Stores the value of `flag`, one of [`FLAGS`] (empty for a boolean
    /// flag).
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        let bad = |what: &str| format!("{flag}: {what} {value}");
        let number = || bad("cannot parse");
        let csv = || value.split(',').filter(|s| !s.is_empty()).map(String::from);
        match flag {
            "--seed" => self.seed = parse_u64(value).ok_or_else(|| bad("not hex or decimal:"))?,
            "--trials" => self.trials = value.parse().map_err(|_| bad("not a count:"))?,
            "--json" => self.json = Some(value.to_string()),
            "--seeds" => self.campaign.seeds = value.parse().map_err(|_| number())?,
            "--workers" => self.campaign.workers = value.parse().map_err(|_| number())?,
            "--confidence" => self.campaign.confidence = value.parse().map_err(|_| number())?,
            "--shard" => self.campaign.shard = Shard::parse(value)?,
            "--state" => self.state = Some(PathBuf::from(value)),
            "--resume" => self.resume = true,
            "--topo" => self.topo = csv().collect(),
            "--attacks" => self.attacks = csv().collect(),
            "--stacks" => self.stacks = csv().collect(),
            // `--probe-only` only selects its entry.
            _ => {}
        }
        Ok(())
    }
}

/// One entry of the driver's command table.
#[derive(Clone, Copy, Debug)]
pub struct Command {
    /// The usage line, without placeholders: the command's words (`a|b`
    /// for aliases), a bare `--flag` that must be given and selects this
    /// entry over the one without it, an `<operand>` or `<operands>...`,
    /// and each `[--flag]` the command reads besides. [`parse`] rejects
    /// every other flag.
    pub usage: &'static str,
    /// One line of help.
    pub help: &'static str,
    /// Prints the command's output.
    pub run: fn(&Args),
}

impl Command {
    /// A table entry.
    pub const fn new(usage: &'static str, help: &'static str, run: fn(&Args)) -> Command {
        Command { usage, help, run }
    }

    /// How many leading `words` the usage takes and the flag it selects
    /// on, if any, when `words` and the `(flag, value)`s given name this
    /// entry.
    fn named_by(&self, words: &[&str], given: &[(&str, &str)]) -> Option<(usize, Option<&str>)> {
        let (mut taken, mut selector) = (0, None);
        for part in self.usage.split_whitespace() {
            if part.starts_with("--") {
                given.iter().find(|g| g.0 == part)?;
                selector = Some(part);
            } else if !part.starts_with(['[', '<']) {
                let word = words.get(taken)?;
                part.split('|').find(|alias| alias == word)?;
                taken += 1;
            }
        }
        Some((taken, selector))
    }

    /// The usage line with each flag's placeholder (`[--seed HEX]`).
    pub fn synopsis(&self) -> String {
        let parts = self.usage.split_whitespace().map(|part| {
            let flag = part.trim_matches(['[', ']']);
            match FLAGS.iter().find(|f| f.0 == flag) {
                Some((_, value)) if !value.is_empty() => {
                    part.replace(flag, &format!("{flag} {value}"))
                }
                _ => part.to_string(),
            }
        });
        parts.collect::<Vec<_>>().join(" ")
    }
}

/// Parses `argv` (everything after the program name) against `table`. The
/// leading words and any selecting flag pick the entry, the most specific
/// one winning; the words after its name are its operands; every flag must
/// be one it reads. The error is the whole text to print: the message, then
/// the entry's usage, or the table's when the command line names no entry.
pub fn parse<'t>(table: &'t [Command], argv: &[String]) -> Result<(&'t Command, Args), String> {
    let (mut words, mut given) = (Vec::new(), Vec::new());
    let mut argv = argv.iter().map(String::as_str);
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            words.push(arg);
            continue;
        }
        let Some(&(flag, placeholder)) = FLAGS.iter().find(|f| f.0 == arg) else {
            return Err(format!("unknown flag {arg}\n{}", usage(table)));
        };
        let value = match placeholder {
            "" => "",
            _ => argv
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage(table)))?,
        };
        given.push((flag, value));
    }

    let Some((command, (taken, selector))) = table
        .iter()
        .filter_map(|c| Some((c, c.named_by(&words, &given)?)))
        .max_by_key(|m| m.1)
    else {
        return Err(match words.first() {
            Some(word) => format!("unknown command {word}\n{}", usage(table)),
            None => usage(table),
        });
    };
    let label = [&words[..taken], selector.as_slice()].concat().join(" ");
    let fail = |e: String| format!("{label}: {e}\nusage: experiments {}", command.synopsis());

    let usage_words = || command.usage.split_whitespace();
    let reads = |flag| usage_words().any(|p| p.trim_matches(['[', ']']) == flag);
    let operands = &words[taken..];
    let fits = match usage_words().find(|p| p.starts_with('<')) {
        None => operands.is_empty(),
        Some(slot) if slot.ends_with("...") => !operands.is_empty(),
        Some(_) => operands.len() == 1,
    };
    if !fits {
        return Err(fail("wrong number of operands".into()));
    }
    let strings = |s: &[&str]| s.iter().map(|s| s.to_string()).collect();
    let mut args = Args {
        operands: strings(operands),
        seed: DEFAULT_SEED,
        trials: DEFAULT_TRIALS,
        json: None,
        campaign: CampaignSpec::new("", DEFAULT_SEED),
        state: None,
        resume: false,
        topo: Vec::new(),
        attacks: strings(&campaign::FABRIC_MATRIX_DEFAULT_ATTACKS),
        stacks: strings(&campaign::FABRIC_MATRIX_STACKS),
    };
    for (flag, value) in given {
        if !reads(flag) {
            return Err(fail(format!("{flag} is not read by this command")));
        }
        args.set(flag, value).map_err(fail)?;
    }
    if args.resume && args.state.is_none() {
        let e = "--resume needs --state DIR (that is where the run-log lives)";
        return Err(fail(e.into()));
    }
    Ok((command, args))
}

/// The usage text rendered from `table`: each command's usage line, with
/// its help indented below it.
pub fn usage(table: &[Command]) -> String {
    let mut text = String::from(
        "usage: experiments <command> [flags]; a command rejects every flag it does not list",
    );
    for command in table {
        text += &format!("\n  {}\n      {}", command.synopsis(), command.help);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const TABLE: &[Command] = &[
        Command::new("fig5|fig6 [--seed] [--trials]", "figures", |_| {}),
        Command::new("matrix [--seed]", "matrix", |_| {}),
        Command::new("matrix --topo [--state] [--resume]", "topo matrix", |_| {}),
        Command::new("campaign <scenario> [--seeds]", "campaign", |_| {}),
        Command::new("campaign replay <LOG>... [--json]", "replay", |_| {}),
    ];

    fn parse_test(args: &[&str]) -> Result<(&'static str, Args), String> {
        parse(TABLE, &strings(args)).map(|(c, a)| (c.help, a))
    }

    #[test]
    fn defaults_match_the_historical_hardcoded_values() {
        let (_, parsed) = parse_test(&["matrix"]).expect("no flags");
        assert_eq!(parsed.seed, 0xD5_2018);
        assert_eq!(parsed.trials, 200);
        assert!(parsed.json.is_none());
        let c = &parsed.campaign;
        assert_eq!((c.seeds, c.workers, c.confidence), (5, 1, 0.95));
        assert_eq!(c.shard, Shard::full());
        assert!(parsed.state.is_none() && !parsed.resume);
    }

    #[test]
    fn seed_parses_hex_and_decimal() {
        assert_eq!(parse_u64("0xD5_2018"), Some(0xD5_2018));
        assert_eq!(parse_u64("0Xff"), Some(255));
        assert_eq!(parse_u64("1234"), Some(1234));
        assert_eq!(parse_u64("12_34"), Some(1234));
        assert_eq!(parse_u64("0xZZ"), None);
        assert_eq!(parse_u64("nope"), None);

        let (_, parsed) = parse_test(&["matrix", "--seed", "0xBEEF"]).expect("hex seed");
        assert_eq!(parsed.seed, 0xBEEF);
        let (_, parsed) = parse_test(&["matrix", "--seed", "99"]).expect("decimal seed");
        assert_eq!(parsed.seed, 99);
    }

    #[test]
    fn missing_values_and_bad_numbers_are_errors() {
        assert!(parse_test(&["fig5", "--trials"]).is_err());
        assert!(parse_test(&["fig5", "--trials", "many"]).is_err());
        assert!(parse_test(&["fig5", "--seed", "0x"]).is_err());
        let e = parse_test(&["campaign", "x", "--seeds", "lots"]).expect_err("bad --seeds");
        assert!(
            e.starts_with("campaign: --seeds: cannot parse lots\n"),
            "{e}"
        );
    }

    #[test]
    fn every_flag_but_probe_only_stores_its_value() {
        let (_, defaults) = parse_test(&["matrix"]).expect("no flags");
        for (flag, placeholder) in FLAGS {
            let value = match placeholder {
                "HEX" => "0x5",
                "N" => "3",
                "P" => "0.9",
                _ => "0/2",
            };
            let mut args = defaults.clone();
            args.set(flag, value).expect(flag);
            let changed = format!("{args:?}") != format!("{defaults:?}");
            assert_eq!(changed, flag != "--probe-only", "{flag}");
        }
    }

    #[test]
    fn the_most_specific_entry_wins() {
        assert_eq!(parse_test(&["fig6"]).expect("alias").0, "figures");
        assert_eq!(parse_test(&["matrix"]).expect("plain").0, "matrix");
        let argv = ["matrix", "--state", "d", "--topo", "a,,b", "--resume"];
        let (help, parsed) = parse_test(&argv).expect("topo");
        assert_eq!((help, parsed.topo), ("topo matrix", strings(&["a", "b"])));
        let (help, parsed) = parse_test(&["campaign", "replay", "x", "y"]).expect("replay");
        assert_eq!((help, parsed.operands), ("replay", strings(&["x", "y"])));
        let (help, parsed) = parse_test(&["campaign", "hijack"]).expect("scenario");
        assert_eq!((help, parsed.operands), ("campaign", strings(&["hijack"])));
    }

    #[test]
    fn operands_are_counted() {
        for argv in [
            &["campaign"][..],
            &["campaign", "a", "b"],
            &["campaign", "replay"],
        ] {
            let e = parse_test(argv).expect_err("operand count");
            assert!(e.contains(": wrong number of operands\n"), "{e}");
        }
        assert!(parse_test(&["matrix", "x"]).is_err());
        let e = parse_test(&["nope"]).expect_err("unknown command");
        assert!(e.starts_with("unknown command nope\nusage: "), "{e}");
        assert_eq!(parse_test(&[]).expect_err("no command"), usage(TABLE));
    }

    #[test]
    fn resume_needs_state() {
        let e = parse_test(&["matrix", "--topo", "a", "--resume"]).expect_err("no --state");
        assert!(
            e.starts_with("matrix --topo: --resume needs --state DIR"),
            "{e}"
        );
    }

    #[test]
    fn synopsis_shows_placeholders() {
        let shown: Vec<String> = TABLE.iter().map(Command::synopsis).collect();
        assert_eq!(shown[0], "fig5|fig6 [--seed HEX] [--trials N]");
        assert_eq!(shown[2], "matrix --topo CSV [--state DIR] [--resume]");
    }
}
