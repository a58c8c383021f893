//! The binary run-log contract, pinned:
//!
//! 1. A log written by the [`bench::runlog::Writer`] sink during a live
//!    campaign reads back record-for-record, and replaying it through
//!    `aggregate_stream` reproduces the live report **byte for byte**.
//! 2. Shard logs merge into the unsharded canonical stream; duplicates
//!    and gaps are errors, not silently wrong aggregates.
//! 3. A damaged tail (partial final write) drops cleanly: the complete
//!    prefix survives, `truncated` is flagged, and `complete_cells`
//!    offers only cells whose full seed set is on disk.
//! 4. `resume` is the only campaign state: a log cut anywhere resumes to
//!    the uninterrupted report and log bytes, a missing or garbage log is
//!    a clean start, and a log written under other flags, or a campaign
//!    the runner would reject, leaves its bytes alone.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use bench::runlog::{self, RunLogHeader, Writer};
use tm_campaign::{
    aggregate_stream, run_campaign_with, Axis, CampaignSpec, Metrics, RecordingSink, Registry,
    Resume, Scenario, Shard,
};

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(Scenario::new(
        "rl",
        "run-log fixture",
        vec![Axis::new("a", &["p", "q"]), Axis::new("b", &["0", "1"])],
        |point, seed| {
            if point.get("a") == Some("q") && seed % 3 == 0 {
                panic!("q fails every third seed");
            }
            let b: f64 = point.get("b").and_then(|v| v.parse().ok()).unwrap_or(0.0);
            Metrics::new()
                .with("value", (seed % 50) as f64 + b)
                .with("flag", (seed % 2) as f64)
        },
    ))
    .expect("register");
    r
}

fn spec() -> CampaignSpec {
    let mut s = CampaignSpec::new("rl", 0x5EED);
    s.seeds = 4;
    s.workers = 2;
    s.quiet_panics = true;
    s
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-runlog-{tag}"));
    fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// Runs one shard, writing its run-log and recording the live stream.
fn run_shard(dir: &Path, shard: Shard) -> (tm_campaign::CampaignReport, RecordingSink, PathBuf) {
    let r = registry();
    let mut s = spec();
    s.shard = shard;
    let scenario = r.get("rl").expect("scenario");
    let header = RunLogHeader::for_spec(scenario, &s);
    let path = dir.join(format!("rl.shard{}of{}.runlog", shard.index, shard.count));
    let mut writer = Writer::create(&path, &header, &[]).expect("create log");
    let mut recorder = RecordingSink::default();
    let mut tee = tm_campaign::TeeSink {
        first: &mut writer,
        second: &mut recorder,
    };
    let report = run_campaign_with(&r, &s, &Resume::none(), &mut tee).expect("campaign");
    (report, recorder, path)
}

#[test]
fn log_round_trips_and_replays_byte_identically() {
    let dir = tmpdir("roundtrip");
    let (live, recorder, path) = run_shard(&dir, Shard::full());

    let log = runlog::read(&path).expect("read log");
    assert!(!log.truncated);
    assert_eq!(
        log.records, recorder.runs,
        "records survive the disk round trip"
    );
    assert_eq!(log.header.grid().len(), 4);

    let replayed =
        aggregate_stream(&log.header.meta, &log.header.grid(), log.records).expect("replay");
    assert_eq!(replayed.render(), live.render(), "replayed render");
    assert_eq!(replayed, live, "replayed report");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shard_logs_merge_into_the_unsharded_stream() {
    let dir = tmpdir("merge");
    let (whole, _, whole_path) = run_shard(&dir, Shard::full());
    let (_, _, p0) = run_shard(&dir, Shard { index: 0, count: 2 });
    let (_, _, p1) = run_shard(&dir, Shard { index: 1, count: 2 });

    let logs = vec![
        runlog::read(&p0).expect("shard 0"),
        runlog::read(&p1).expect("shard 1"),
    ];
    let (header, records) = runlog::merge(logs.clone()).expect("merge");
    assert!(
        header.meta.shard.is_full(),
        "complete merge is the unsharded campaign"
    );
    let merged = aggregate_stream(&header.meta, &header.grid(), records).expect("aggregate");
    assert_eq!(
        merged.render(),
        whole.render(),
        "merged replay vs single-shot"
    );
    assert_eq!(merged.cells, whole.cells);

    // Duplicates (same log twice) and gaps (one shard missing) are errors.
    let dup = vec![
        runlog::read(&p0).expect("shard 0"),
        runlog::read(&p0).expect("shard 0 again"),
    ];
    assert!(runlog::merge(dup).unwrap_err().contains("duplicate"));
    // A lone shard log still merges (partial replay keeps its shard label)…
    let (lone_header, _) = runlog::merge(logs[..1].to_vec()).expect("single log");
    assert_eq!(lone_header.meta.shard, Shard { index: 0, count: 2 });
    // …but a log with a run chopped out mid-cell reports the gap.
    let mut cut = runlog::read(&p0).expect("shard 0");
    cut.records.remove(1);
    assert!(runlog::merge(vec![cut]).unwrap_err().contains("of 4 runs"));
    // With gaps in two cells, the lower cell is named, whatever the order
    // the records arrive in.
    let mut gappy = runlog::read(&whole_path).expect("whole log");
    gappy.records.retain(|r| (r.cell, r.seed_index) != (3, 0));
    gappy.records.retain(|r| (r.cell, r.seed_index) != (1, 2));
    gappy.records.reverse();
    assert_eq!(
        runlog::merge(vec![gappy]).unwrap_err(),
        "cell 1 has 3 of 4 runs across the merged logs (missing shard or truncated log?)"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_logs_refuse_to_merge() {
    let dir = tmpdir("mismatch");
    let (_, _, path) = run_shard(&dir, Shard::full());
    let mut other = runlog::read(&path).expect("read");
    other.header.meta.base_seed ^= 1;
    let same = runlog::read(&path).expect("read again");
    assert!(runlog::merge(vec![same, other])
        .unwrap_err()
        .contains("disagree"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_tail_keeps_the_complete_prefix() {
    let dir = tmpdir("trunc");
    let (_, recorder, path) = run_shard(&dir, Shard::full());
    let full = fs::read(&path).expect("read bytes");

    // Any cut inside the record area yields a prefix of the records and
    // the truncated flag; never an error, never garbage records.
    let header_len = full.len()
        - recorder
            .runs
            .iter()
            .map(|r| runlog::encode_record(4, r).len())
            .sum::<usize>();
    for cut in [full.len() - 1, full.len() - 9, header_len + 3, header_len] {
        fs::write(&path, &full[..cut]).expect("truncate");
        let log = runlog::read(&path).expect("read truncated");
        if cut == header_len {
            assert!(!log.truncated, "a record-aligned cut is not damage");
            assert!(log.records.is_empty());
        } else {
            assert!(log.truncated, "cut={cut} must flag the damaged tail");
        }
        assert!(log.records.len() <= recorder.runs.len());
        assert_eq!(log.records.as_slice(), &recorder.runs[..log.records.len()]);
    }

    // complete_cells only offers cells whose whole seed set survived.
    fs::write(&path, &full[..full.len() - 5]).expect("truncate");
    let log = runlog::read(&path).expect("read");
    let complete = runlog::complete_cells(&log);
    assert!(
        complete.len() < 4,
        "the damaged last cell must not be offered"
    );
    for (cell, records) in &complete {
        assert_eq!(records.len(), 4);
        assert!(records
            .iter()
            .enumerate()
            .all(|(i, r)| r.seed_index == i && r.cell == *cell));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn writer_carries_kept_records_through_a_resume_rewrite() {
    let dir = tmpdir("resume");
    let (_, recorder, path) = run_shard(&dir, Shard::full());
    let log = runlog::read(&path).expect("read");

    // Pretend only cell 0 and 1 survived: rewrite keeping them, then
    // append the rest as a resumed campaign would.
    let keep: Vec<_> = recorder
        .runs
        .iter()
        .filter(|r| r.cell < 2)
        .cloned()
        .collect();
    let rest: Vec<_> = recorder
        .runs
        .iter()
        .filter(|r| r.cell >= 2)
        .cloned()
        .collect();
    let mut writer = Writer::create(&path, &log.header, &keep).expect("rewrite");
    use tm_campaign::RunSink;
    for record in &rest {
        writer.on_run(record).expect("append");
    }
    let bytes_reported = writer.bytes();
    drop(writer);

    let reread = runlog::read(&path).expect("reread");
    assert_eq!(
        reread.records, recorder.runs,
        "kept + appended = original stream"
    );
    assert!(!reread.truncated);
    assert_eq!(bytes_reported, fs::metadata(&path).expect("stat").len());
    let _ = fs::remove_dir_all(&dir);
}

/// The run-log header `run_shard` writes for `spec` with this shard.
fn header_for(shard: Shard) -> RunLogHeader {
    let r = registry();
    let mut s = spec();
    s.shard = shard;
    RunLogHeader::for_spec(r.get("rl").expect("scenario"), &s)
}

#[test]
fn resume_from_any_cut_reproduces_the_uninterrupted_run() {
    let dir = tmpdir("resume-cuts");
    let r = registry();
    for shard in [Shard::full(), Shard { index: 1, count: 2 }] {
        let (live, recorder, path) = run_shard(&dir, shard);
        let full = fs::read(&path).expect("read bytes");
        let records: usize = recorder
            .runs
            .iter()
            .map(|rec| runlog::encode_record(4, rec).len())
            .sum();
        let header = header_for(shard);
        let mut s = spec();
        s.shard = shard;

        // A crash can stop the append at any byte of the record area:
        // resuming from each cut must finish the same report and write
        // the same log as the uninterrupted run.
        for cut in full.len() - records..=full.len() {
            fs::write(&path, &full[..cut]).expect("truncate");
            let resume = runlog::resume(&path, &header).expect("resume");
            assert!(
                resume.records.chunks(4).all(|cell| cell
                    .iter()
                    .enumerate()
                    .all(|(i, r)| r.seed_index == i && r.cell == cell[0].cell)),
                "kept records are whole cells"
            );
            let mut writer = Writer::create(&path, &header, &resume.records).expect("rewrite");
            let resumed = run_campaign_with(&r, &s, &resume, &mut writer).expect("resumed run");
            drop(writer);
            assert_eq!(resumed.render(), live.render(), "{shard:?} cut={cut}");
            assert_eq!(resumed, live, "{shard:?} cut={cut}");
            assert_eq!(
                fs::read(&path).expect("reread"),
                full,
                "{shard:?} cut={cut}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_log_written_under_other_flags() {
    let dir = tmpdir("resume-mismatch");
    let (_, recorder, path) = run_shard(&dir, Shard::full());
    let bytes = fs::read(&path).expect("read bytes");
    let header = header_for(Shard::full());

    let mut other_seed = header.clone();
    other_seed.meta.base_seed ^= 1;
    let mut other_seeds = header.clone();
    other_seeds.meta.seeds = 9;
    let other_shard = header_for(Shard { index: 0, count: 2 });
    let mut other_axes = header.clone();
    other_axes.axes = vec![
        Axis::new("a", &["p", "q", "r"]),
        Axis::new("b", &["0", "1"]),
    ];
    for (want, field) in [
        (other_seed, "base seed"),
        (other_seeds, "seed count"),
        (other_shard, "shard"),
        (other_axes, "axes"),
    ] {
        let err = runlog::resume(&path, &want).expect_err(field);
        assert!(err.contains(field), "{field}: {err}");
        assert_eq!(fs::read(&path).expect("reread"), bytes, "{field}");
    }

    // A record whose stored seed is not its derived one is refused too.
    let mut forged = recorder.runs.clone();
    forged[0].seed ^= 1;
    drop(Writer::create(&path, &header, &forged).expect("forge"));
    let err = runlog::resume(&path, &header).expect_err("forged seed");
    assert!(err.contains("expected"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_or_garbage_log_resumes_nothing() {
    let dir = tmpdir("resume-clean");
    let header = header_for(Shard::full());
    let absent = runlog::resume(&dir.join("absent.runlog"), &header).expect("absent");
    assert!(absent.records.is_empty());
    let garbage = dir.join("garbage.runlog");
    fs::write(&garbage, b"not a run-log at all").expect("write");
    let garbled = runlog::resume(&garbage, &header).expect("garbage");
    assert!(garbled.records.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn experiments_resume_refuses_a_log_from_other_flags_and_keeps_it() {
    let dir = tmpdir("resume-cli");
    let state = dir.join("state");
    let _ = fs::remove_dir_all(&state);
    let campaign = |extra: &[&str]| {
        let mut args = vec!["campaign", "probe-overhead", "--shard", "0/2", "--state"];
        args.push(state.to_str().expect("utf-8 path"));
        args.extend_from_slice(extra);
        Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .output()
            .expect("run experiments")
    };
    assert!(campaign(&["--seeds", "2"]).status.success());
    let log = state.join("probe-overhead.shard0of2.runlog");
    let bytes = fs::read(&log).expect("read log");

    let out = campaign(&["--seeds", "3", "--resume"]);
    assert!(
        !out.status.success(),
        "a 2-seed log must not resume 3 seeds"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed count"), "{stderr}");
    assert_eq!(fs::read(&log).expect("reread"), bytes, "log left intact");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn experiments_rejects_a_bad_spec_before_touching_the_log() {
    let dir = tmpdir("reject-cli");
    let state = dir.join("state");
    let _ = fs::remove_dir_all(&state);
    let campaign = |extra: &[&str]| {
        let mut args = vec!["campaign", "probe-overhead", "--state"];
        args.push(state.to_str().expect("utf-8 path"));
        args.extend_from_slice(extra);
        Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .output()
            .expect("run experiments")
    };
    assert!(campaign(&["--seeds", "2"]).status.success());
    let log = state.join("probe-overhead.shard0of1.runlog");
    let bytes = fs::read(&log).expect("read log");

    for bad in [["--seeds", "0"], ["--workers", "0"], ["--confidence", "1"]] {
        let out = campaign(&bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(
            fs::read(&log).expect("reread") == bytes,
            "{bad:?}: log changed"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
