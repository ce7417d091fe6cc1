//! End-to-end CLI tests: drive the full `simulate -> construct -> index ->
//! map` pipeline through the same `dispatch` entry point the binary uses,
//! on real files in a temporary directory.

use std::fs;
use std::path::PathBuf;

use segram_cli::{dispatch, CliError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("segram-cli-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Result<String, CliError> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&owned)
}

#[test]
fn full_pipeline_simulate_construct_index_map() {
    let dir = TempDir::new("pipeline");
    let prefix = dir.path("bundle");

    // 1. simulate a small bundle.
    let report = run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "30000",
        "--reads",
        "12",
        "--read-len",
        "120",
        "--seed",
        "7",
    ])
    .expect("simulate");
    assert!(report.contains("wrote"), "{report}");
    for ext in ["fa", "vcf", "gfa", "fq"] {
        assert!(
            fs::metadata(format!("{prefix}.{ext}")).is_ok(),
            "missing {prefix}.{ext}"
        );
    }

    // 2. re-construct the graph from the FASTA + VCF the simulator wrote;
    //    it must match the simulator's own GFA node-for-node.
    let graph2 = dir.path("rebuilt.gfa");
    let report = run(&[
        "construct",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &format!("{prefix}.vcf"),
        "--output",
        &graph2,
    ])
    .expect("construct");
    assert!(report.contains("variants embedded"), "{report}");
    let original = fs::read_to_string(format!("{prefix}.gfa")).unwrap();
    let rebuilt = fs::read_to_string(&graph2).unwrap();
    assert_eq!(
        original, rebuilt,
        "construct must reproduce the simulated graph"
    );

    // 3. index the graph.
    let report = run(&["index", "--graph", &graph2, "--buckets", "14"]).expect("index");
    assert!(report.contains("level 1 (buckets)"), "{report}");
    assert!(report.contains("total:"), "{report}");

    // 4a. map to SAM.
    let sam_path = dir.path("out.sam");
    let report = run(&[
        "map",
        "--graph",
        &graph2,
        "--reads",
        &format!("{prefix}.fq"),
        "--format",
        "sam",
        "--output",
        &sam_path,
        "--both-strands",
    ])
    .expect("map sam");
    assert!(report.contains("mapped"), "{report}");
    let sam = fs::read_to_string(&sam_path).unwrap();
    assert!(
        sam.starts_with("@HD"),
        "SAM header missing: {}",
        &sam[..40.min(sam.len())]
    );
    let mapped_lines = sam.lines().filter(|l| !l.starts_with('@')).count();
    assert_eq!(mapped_lines, 12, "one record per read");

    // 4b. map to GAF with a prefilter.
    let gaf_path = dir.path("out.gaf");
    let report = run(&[
        "map",
        "--graph",
        &graph2,
        "--reads",
        &format!("{prefix}.fq"),
        "--format",
        "gaf",
        "--filter",
        "cascade",
        "--output",
        &gaf_path,
        "--both-strands",
    ])
    .expect("map gaf");
    assert!(report.contains("mapped"), "{report}");
    let gaf = fs::read_to_string(&gaf_path).unwrap();
    let records = segram_io::read_gaf(&gaf).expect("own GAF must re-parse");
    assert!(!records.is_empty());
    for rec in &records {
        assert_eq!(rec.qstart, 0);
        assert_eq!(rec.qend, rec.qlen);
        assert!(rec.pend <= rec.plen);
        assert!(!rec.cigar.is_empty());
    }
}

/// True end-to-end smoke test: runs the compiled `segram` binary (not the
/// in-process `dispatch`) over a tiny simulated dataset and checks exit
/// codes plus the shape of the SAM/GAF files it writes.
#[test]
fn built_binary_end_to_end_smoke() {
    use std::process::Command;

    let binary = env!("CARGO_BIN_EXE_segram");
    let dir = TempDir::new("binary");
    let prefix = dir.path("smoke");

    let simulate = Command::new(binary)
        .args([
            "simulate",
            "--out-prefix",
            &prefix,
            "--length",
            "20000",
            "--reads",
            "8",
            "--read-len",
            "100",
            "--seed",
            "11",
        ])
        .output()
        .expect("run segram simulate");
    assert!(
        simulate.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&simulate.stderr)
    );
    assert!(String::from_utf8_lossy(&simulate.stdout).contains("wrote"));

    // Map to SAM with the binary and validate the output document shape.
    let sam_path = dir.path("smoke.sam");
    let map = Command::new(binary)
        .args([
            "map",
            "--graph",
            &format!("{prefix}.gfa"),
            "--reads",
            &format!("{prefix}.fq"),
            "--format",
            "sam",
            "--output",
            &sam_path,
            "--both-strands",
        ])
        .output()
        .expect("run segram map (sam)");
    assert!(
        map.status.success(),
        "map failed: {}",
        String::from_utf8_lossy(&map.stderr)
    );
    let sam = fs::read_to_string(&sam_path).unwrap();
    assert!(
        sam.starts_with("@HD\t"),
        "missing SAM header: {}",
        &sam[..40.min(sam.len())]
    );
    assert!(
        sam.lines().any(|l| l.starts_with("@SQ\t")),
        "missing @SQ line"
    );
    let records = sam.lines().filter(|l| !l.starts_with('@')).count();
    assert_eq!(records, 8, "one SAM record per read:\n{sam}");
    for line in sam.lines().filter(|l| !l.starts_with('@')) {
        assert!(line.split('\t').count() >= 11, "short SAM line: {line}");
    }

    // Map to GAF and validate with the workspace's own parser.
    let gaf_path = dir.path("smoke.gaf");
    let map = Command::new(binary)
        .args([
            "map",
            "--graph",
            &format!("{prefix}.gfa"),
            "--reads",
            &format!("{prefix}.fq"),
            "--format",
            "gaf",
            "--output",
            &gaf_path,
            "--both-strands",
        ])
        .output()
        .expect("run segram map (gaf)");
    assert!(map.status.success());
    let gaf = segram_io::read_gaf(&fs::read_to_string(&gaf_path).unwrap())
        .expect("binary GAF output must re-parse");
    assert!(gaf.len() >= 6, "only {}/8 reads mapped", gaf.len());

    // Exit codes: 2 for usage errors, 1 for I/O errors, 0 for help.
    let usage = Command::new(binary).arg("frobnicate").output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let io_error = Command::new(binary)
        .args(["index", "--graph", &dir.path("missing.gfa")])
        .output()
        .unwrap();
    assert_eq!(io_error.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&io_error.stderr).contains("missing.gfa"));
    let help = Command::new(binary).arg("help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("COMMANDS"));
}

#[test]
fn help_is_available_everywhere() {
    assert!(run(&[]).unwrap().contains("USAGE"));
    assert!(run(&["help"]).unwrap().contains("COMMANDS"));
    for cmd in ["construct", "index", "map", "simulate"] {
        let text = run(&[cmd, "--help"]).unwrap();
        assert!(text.contains("OPTIONS"), "{cmd} help: {text}");
    }
    // `eval` hosts subcommands: bare, help, and per-subcommand help.
    assert!(run(&["eval"]).unwrap().contains("SUBCOMMANDS"));
    assert!(run(&["eval", "--help"]).unwrap().contains("compare"));
    let text = run(&["eval", "compare", "--help"]).unwrap();
    assert!(text.contains("--backends"), "{text}");
    let err = run(&["eval", "frobnicate"]).unwrap_err();
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn usage_errors_are_reported_with_exit_code_2() {
    let err = run(&["frobnicate"]).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    let err = run(&["map", "--graph", "x.gfa"]).unwrap_err(); // missing --reads
    assert_eq!(err.exit_code(), 2);
    let err = run(&["map", "--grap", "x.gfa", "--reads", "y.fq"]).unwrap_err(); // typo
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn request_values_are_checked_before_the_payload_or_the_socket_is_touched() {
    // The reads file does not exist and nothing listens on the address:
    // an unparsable value must still be the error the caller sees.
    let dir = TempDir::new("request-usage");
    let reads = dir.path("missing.fq");
    for flag in ["--cancel-after", "--deadline-ms"] {
        let args = [
            "request",
            "--addr",
            "127.0.0.1:9",
            "--reads",
            &reads,
            flag,
            "abc",
        ];
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{flag}: {err}");
        let expected = format!("{flag}: unparsable value");
        assert!(err.to_string().contains(&expected), "{flag}: {err}");
    }
}

/// Runs `construct` and `index build` over `two.fa` with the given VCF
/// and `--chrom`, returning both outcomes.
fn construct_and_build(
    dir: &TempDir,
    vcf: &str,
    chrom: Option<&str>,
) -> [Result<String, CliError>; 2] {
    let (fasta, vcf) = (dir.path("two.fa"), dir.path(vcf));
    let (gfa, sgi) = (dir.path("out.gfa"), dir.path("out.sgi"));
    let chrom: Vec<&str> = chrom.into_iter().flat_map(|c| ["--chrom", c]).collect();
    let common = ["--reference", &fasta, "--vcf", &vcf];
    [
        run(&[&["construct", "--output", &gfa], &common[..], &chrom[..]].concat()),
        run(&[
            &["index", "build", "--buckets", "8", "--output", &sgi],
            &common[..],
            &chrom[..],
        ]
        .concat()),
    ]
}

#[test]
fn vcf_rows_of_another_chrom_are_never_embedded_into_the_chosen_record() {
    let dir = TempDir::new("vcf-chrom");
    let chr_a = "ACGTTGCAGTCATGCAACGGTTACGATCCGTA".repeat(4);
    let chr_b = "TTGACCGTAGGCTAACGTCAGTCCATGGATCA".repeat(4);
    fs::write(
        dir.path("two.fa"),
        format!(">chrA\n{chr_a}\n>chrB\n{chr_b}\n"),
    )
    .unwrap();
    // POS is 1-based: REF must be the record's base there.
    let row = |chrom: &str, seq: &str, pos: usize| {
        let base = &seq[pos - 1..pos];
        let alt = if base == "A" { "C" } else { "A" };
        format!("{chrom}\t{pos}\t.\t{base}\t{alt}\t.\t.\t.\n")
    };
    let header = "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n";
    let write = |name: &str, rows: &[String]| {
        fs::write(dir.path(name), format!("{header}{}", rows.concat())).unwrap();
    };
    write("b.vcf", &[row("chrB", &chr_b, 20)]);
    write("ab.vcf", &[row("chrA", &chr_a, 9), row("chrB", &chr_b, 20)]);
    write("other.vcf", &[row("1", &chr_a, 9)]);
    write("others.vcf", &[row("1", &chr_a, 9), row("2", &chr_a, 40)]);

    // `--chrom chrA` with only chrB rows used to embed chrB's variant
    // into chrA and exit 0.
    for (vcf, chrom, listed) in [
        ("b.vcf", Some("chrA"), "chrB"),
        ("other.vcf", Some("chrA"), "1"),
        ("others.vcf", None, "1, 2"),
    ] {
        for outcome in construct_and_build(&dir, vcf, chrom) {
            let err = outcome.expect_err("foreign CHROM rows must not be embedded");
            assert_eq!(err.exit_code(), 2, "{vcf}: {err}");
            let message = err.to_string();
            assert!(message.contains("\"chrA\""), "{vcf}: {message}");
            assert!(message.contains(listed), "{vcf}: {message}");
        }
    }

    // A matching CHROM is used whatever else the VCF holds, with and
    // without `--chrom`; `--chrom chrB` picks the other record's row.
    for (vcf, chrom) in [
        ("ab.vcf", None),
        ("ab.vcf", Some("chrA")),
        ("ab.vcf", Some("chrB")),
        ("b.vcf", Some("chrB")),
    ] {
        for outcome in construct_and_build(&dir, vcf, chrom) {
            let report = outcome.unwrap_or_else(|e| panic!("{vcf} {chrom:?}: {e}"));
            assert!(report.contains("1 variants embedded"), "{report}");
            assert!(report.contains(chrom.unwrap_or("chrA")), "{report}");
        }
    }
    // The naming-mismatch convenience: one CHROM, no `--chrom`.
    for outcome in construct_and_build(&dir, "other.vcf", None) {
        let report = outcome.expect("a one-CHROM VCF names the default record");
        assert!(report.contains("1 variants embedded"), "{report}");
    }
}

#[test]
fn threads_option_is_validated_before_io() {
    // Both rejections are usage errors (exit 2), and they win over the
    // nonexistent input paths (which would be exit 1).
    for bad in ["0", "two", "-1", "1.5"] {
        let err = run(&[
            "map",
            "--graph",
            "x.gfa",
            "--reads",
            "y.fq",
            "--threads",
            bad,
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "--threads {bad} must be a usage error");
        assert!(err.to_string().contains("--threads"), "{err}");
    }
}

#[test]
fn failed_map_leaves_no_partial_output_file() {
    let dir = TempDir::new("partial");
    let prefix = dir.path("p");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "20000",
        "--reads",
        "4",
        "--read-len",
        "100",
        "--seed",
        "29",
    ])
    .expect("simulate");

    // A FASTQ whose second record is malformed (quality shorter than the
    // sequence): the streaming map must fail and must not leave a
    // truncated SAM behind.
    let good = fs::read_to_string(format!("{prefix}.fq")).unwrap();
    let bad_path = dir.path("bad.fq");
    fs::write(&bad_path, format!("{good}@broken\nACGT\n+\nII\n")).unwrap();
    let out = dir.path("partial.sam");
    let err = run(&[
        "map",
        "--graph",
        &format!("{prefix}.gfa"),
        "--reads",
        &bad_path,
        "--output",
        &out,
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("bad.fq"), "{err}");
    assert!(
        fs::metadata(&out).is_err(),
        "partial output file must be removed on failure"
    );
}

/// The cleanup guard removes what the run created, never what it was
/// handed: a failing run writing to a FIFO (or `/dev/null`, a tty, a
/// socket) must leave it in place, while its regular-file twin goes.
#[cfg(unix)]
#[test]
fn failed_map_unlinks_regular_outputs_but_never_a_fifo() {
    use std::os::unix::fs::FileTypeExt;

    let dir = TempDir::new("fifo");
    let prefix = dir.path("p");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "20000",
        "--reads",
        "4",
        "--read-len",
        "100",
        "--seed",
        "31",
    ])
    .expect("simulate");
    let good = fs::read_to_string(format!("{prefix}.fq")).unwrap();
    let bad_path = dir.path("bad.fq");
    fs::write(&bad_path, format!("{good}@broken\nACGT\n+\nII\n")).unwrap();

    let fifo = dir.path("pipe");
    match std::process::Command::new("mkfifo").arg(&fifo).status() {
        Ok(status) if status.success() => {}
        other => {
            eprintln!("skipping: mkfifo unavailable ({other:?})");
            return;
        }
    }
    let failing_map = |out: &str| {
        run(&[
            "map",
            "--graph",
            &format!("{prefix}.gfa"),
            "--reads",
            &bad_path,
            "--output",
            out,
        ])
        .unwrap_err()
    };

    // Opening a FIFO blocks until the other end shows up, so a reader
    // thread drains it for as long as the run holds the write end.
    let reader = {
        let fifo = fifo.clone();
        std::thread::spawn(move || fs::read(fifo).expect("drain the FIFO"))
    };
    let err = failing_map(&fifo);
    assert_eq!(err.exit_code(), 1, "{err}");
    assert!(err.to_string().contains("bad.fq"), "{err}");
    reader.join().expect("reader thread");
    let kept = fs::metadata(&fifo).expect("the FIFO must survive a failed run");
    assert!(
        kept.file_type().is_fifo(),
        "the FIFO was replaced: {kept:?}"
    );

    let regular = dir.path("twin.sam");
    let err = failing_map(&regular);
    assert_eq!(err.exit_code(), 1, "{err}");
    assert!(
        fs::metadata(&regular).is_err(),
        "a regular file the run created must be removed on failure"
    );
}

#[test]
fn decode_error_reporting_is_deterministic_across_threads() {
    // Two malformed records — one early, one late — through a
    // multi-threaded run: whatever the worker interleaving, the engine
    // settles in-flight decode results on cancellation, so the reported
    // error must always name the *first* malformed record, exactly as a
    // serial run does.
    let dir = TempDir::new("decode-det");
    let prefix = dir.path("d");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "20000",
        "--reads",
        "40",
        "--read-len",
        "100",
        "--seed",
        "31",
    ])
    .expect("simulate");

    let good = fs::read_to_string(format!("{prefix}.fq")).unwrap();
    let mut lines: Vec<String> = good.lines().map(str::to_owned).collect();
    assert!(lines.len() >= 4 * 40, "expected 40 four-line records");
    // Record i occupies lines 4i..4i+4; shorten the quality string of
    // records 4 and 24 so both fail to decode.
    lines[4 * 4 + 3].truncate(2);
    lines[4 * 24 + 3].truncate(2);
    let bad_path = dir.path("two-bad.fq");
    fs::write(&bad_path, lines.join("\n") + "\n").unwrap();

    let map_err = |threads: &str, out: &str| {
        run(&[
            "map",
            "--graph",
            &format!("{prefix}.gfa"),
            "--reads",
            &bad_path,
            "--threads",
            threads,
            "--output",
            &dir.path(out),
        ])
        .unwrap_err()
        .to_string()
    };
    // The serial run defines the expected message (it can only ever see
    // the first malformed record).
    let expected = map_err("1", "serial.sam");
    assert!(expected.contains("line"), "{expected}");
    for attempt in 0..5 {
        let got = map_err("4", &format!("parallel{attempt}.sam"));
        assert_eq!(
            got, expected,
            "attempt {attempt}: multi-threaded decode error must match the serial one"
        );
    }
}

#[test]
fn threads_choice_is_reported_and_output_is_thread_invariant() {
    let dir = TempDir::new("threads");
    let prefix = dir.path("t");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "25000",
        "--reads",
        "10",
        "--read-len",
        "110",
        "--seed",
        "17",
    ])
    .expect("simulate");

    let map_args = |threads: Option<&str>, format: &str, out: &str| {
        let mut args = vec![
            "map".to_owned(),
            "--graph".to_owned(),
            format!("{prefix}.gfa"),
            "--reads".to_owned(),
            format!("{prefix}.fq"),
            "--format".to_owned(),
            format.to_owned(),
            "--output".to_owned(),
            dir.path(out),
            "--both-strands".to_owned(),
        ];
        if let Some(n) = threads {
            args.push("--threads".to_owned());
            args.push(n.to_owned());
        }
        args
    };
    let run_owned = |args: &[String]| dispatch(args).expect("map");

    // Explicit --threads is echoed in the run report, as is the default.
    let report = run_owned(&map_args(Some("2"), "sam", "t2.sam"));
    assert!(report.contains("threads: 2"), "{report}");
    assert!(report.contains("stage times: seeding"), "{report}");
    // The overlapped path reports the producer's decode time and the
    // writer-side counters alongside the producer queue's.
    assert!(report.contains(", decode "), "{report}");
    assert!(report.contains("writer: max depth"), "{report}");
    let report = run_owned(&map_args(None, "sam", "tdefault.sam"));
    assert!(report.contains("threads: "), "{report}");

    // SAM and GAF bytes are identical across thread counts.
    for format in ["sam", "gaf"] {
        run_owned(&map_args(Some("1"), format, &format!("serial.{format}")));
        run_owned(&map_args(Some("4"), format, &format!("parallel.{format}")));
        let serial = fs::read(dir.path(&format!("serial.{format}"))).unwrap();
        let parallel = fs::read(dir.path(&format!("parallel.{format}"))).unwrap();
        assert_eq!(serial, parallel, "{format} output differs across threads");
    }
}

#[test]
fn sharded_mapping_is_reported_and_output_is_shard_invariant() {
    let dir = TempDir::new("shards");
    let prefix = dir.path("s");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "30000",
        "--reads",
        "12",
        "--read-len",
        "110",
        "--seed",
        "23",
    ])
    .expect("simulate");

    let map_args = |shards: Option<&str>, threads: &str, format: &str, out: &str| {
        let mut args = vec![
            "map".to_owned(),
            "--graph".to_owned(),
            format!("{prefix}.gfa"),
            "--reads".to_owned(),
            format!("{prefix}.fq"),
            "--format".to_owned(),
            format.to_owned(),
            "--threads".to_owned(),
            threads.to_owned(),
            "--output".to_owned(),
            dir.path(out),
            "--both-strands".to_owned(),
        ];
        if let Some(n) = shards {
            args.push("--shards".to_owned());
            args.push(n.to_owned());
        }
        args
    };
    let run_owned = |args: &[String]| dispatch(args).expect("map");

    // A sharded run reports the per-shard section.
    let report = run_owned(&map_args(Some("3"), "2", "sam", "sharded.sam"));
    assert!(report.contains("shards: 3 coordinate ranges"), "{report}");
    assert!(report.contains("shard 0 ["), "{report}");
    assert!(report.contains("queue: max depth"), "{report}");

    // SAM and GAF bytes are identical across shard counts, crossed with
    // thread counts (the in-process half of ci.sh's end-to-end gate).
    for format in ["sam", "gaf"] {
        run_owned(&map_args(None, "1", format, &format!("mono.{format}")));
        let mono = fs::read(dir.path(&format!("mono.{format}"))).unwrap();
        for (shards, threads) in [("2", "4"), ("4", "1"), ("4", "4")] {
            let out = format!("s{shards}t{threads}.{format}");
            run_owned(&map_args(Some(shards), threads, format, &out));
            let sharded = fs::read(dir.path(&out)).unwrap();
            assert_eq!(
                mono, sharded,
                "{format} output differs for --shards {shards} --threads {threads}"
            );
        }
    }

    // --shards is validated like --threads: usage errors before I/O.
    for bad in ["0", "many"] {
        let err = run(&[
            "map",
            "--graph",
            "missing.gfa",
            "--reads",
            "missing.fq",
            "--shards",
            bad,
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "--shards {bad} must be a usage error");
        assert!(err.to_string().contains("--shards"), "{err}");
    }
}

/// The `(B, S)` of a report's `threads: N (B batches of up to S reads)`.
fn reported_batches(report: &str) -> (usize, usize) {
    let line = report
        .lines()
        .find(|line| line.starts_with("threads: "))
        .unwrap_or_else(|| panic!("no threads line in {report}"));
    let numbers: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|word| word.parse().ok())
        .collect();
    (numbers[1], numbers[2])
}

#[test]
fn batches_are_counted_in_reads_on_plain_and_bgzf_input_alike() {
    let dir = TempDir::new("batches");
    let prefix = dir.path("b");
    const READS: usize = 70;
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "25000",
        "--reads",
        &READS.to_string(),
        "--read-len",
        "100",
        "--seed",
        "29",
    ])
    .expect("simulate");
    let (graph, plain) = (format!("{prefix}.gfa"), format!("{prefix}.fq"));
    // The default member size: the whole file is two members and the EOF
    // marker, far fewer members than reads per batch.
    let gz = dir.path("b.fq.gz");
    let report = run(&["bgzip", "--input", &plain, "--output", &gz]).expect("bgzip");
    assert!(
        report.contains("wrote 2 BGZF blocks + EOF marker"),
        "{report}"
    );

    let map = |reads: &str, out: &str, extra: &[&str]| {
        let out = dir.path(out);
        let mut args = vec!["map", "--graph", &graph, "--reads", reads, "--output", &out];
        args.extend_from_slice(extra);
        let report = run(&args).expect("map");
        (report, fs::read(&out).expect("output written"))
    };
    let (_, serial) = map(&plain, "serial.sam", &["--threads", "1"]);
    for size in [1usize, 16, 64] {
        let text = size.to_string();
        let extra = ["--threads", "2", "--batch-size", &text];
        let (plain_report, plain_sam) = map(&plain, "plain.sam", &extra);
        let (gz_report, gz_sam) = map(&gz, "gz.sam", &extra);
        let expected = (READS.div_ceil(size), size);
        assert_eq!(reported_batches(&plain_report), expected, "{plain_report}");
        assert_eq!(reported_batches(&gz_report), expected, "{gz_report}");
        assert_eq!(plain_sam, serial);
        assert_eq!(gz_sam, serial);
    }

    // The same file under the elastic schedule: accepted, same bytes, and
    // one-read batches route by their own shard, so both pools get some.
    let elastic = "--threads 2 --shards 4 --schedule elastic --batch-size 1";
    let extra: Vec<&str> = elastic.split(' ').collect();
    let (report, sam) = map(&gz, "elastic.sam", &extra);
    assert_eq!(sam, serial);
    assert_eq!(reported_batches(&report), (READS, 1), "{report}");
    let idle_pools = report
        .lines()
        .filter(|line| line.trim_start().starts_with("pool ") && line.contains(": 0 batches"))
        .count();
    assert!(report.contains("schedule: elastic — 2 pools"), "{report}");
    assert_eq!(idle_pools, 0, "{report}");
}

#[test]
fn elastic_pools_own_the_boot_placement_of_the_index() {
    // The placement is the paper's greedy size-balanced rule over the
    // shards' memory bytes, computed once: the report's groups are that
    // rule's answer for the same graph, whatever the workers did. One-read
    // batches make 200 route decisions, each a chance to move a shard.
    let dir = TempDir::new("placement");
    let prefix = dir.path("p");
    let args = "--length 100000 --reads 200 --read-len 100 --seed 3";
    let mut simulate = vec!["simulate", "--out-prefix", &prefix];
    simulate.extend(args.split(' '));
    run(&simulate).expect("simulate");
    let (gfa, fq) = (format!("{prefix}.gfa"), format!("{prefix}.fq"));
    let out = dir.path("out.sam");
    let elastic = "--schedule elastic --shards 4 --threads 2 --batch-size 1 --both-strands";
    let mut map = vec!["map", "--graph", &gfa, "--reads", &fq, "--output", &out];
    map.extend(elastic.split(' '));
    let report = run(&map).expect("map");
    let reported: Vec<&str> = report
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("pool "))
        .filter_map(|line| line.split_once(" -> shards ")?.1.split_once(" ("))
        .map(|(shards, _)| shards)
        .collect();

    let graph = segram_graph::gfa::from_gfa(&fs::read_to_string(&gfa).unwrap()).unwrap();
    let config = segram_core::SegramConfig::short_reads();
    let index = segram_core::ShardedIndex::build(graph, config, 4);
    let expected: Vec<String> = segram_core::balance_loads(&index.shard_loads(), 2)
        .into_iter()
        .map(|mut group| {
            group.sort_unstable();
            format!("{group:?}")
        })
        .collect();
    assert_eq!(reported, expected, "{report}");
}

/// Usage errors of the backend choice through the *built binary* (exit
/// codes + stderr), not just the in-process dispatch: `map` runs one mapper
/// and takes no `--backend`, and `eval compare`'s `--backends` list fails
/// fast with actionable messages.
#[test]
fn backend_errors_are_actionable_via_the_binary() {
    // Exit code and stderr of the built binary. The input paths do not
    // exist: every case must fail as a usage error before any I/O.
    let segram = |args: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_segram"))
            .args(args)
            .output()
            .expect("run segram");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.code(), stderr)
    };
    let files = ["--graph", "x.gfa", "--reads", "y.fq"];

    // `map --backend` is an unknown option like any other.
    let (code, stderr) = segram(&[&["map"], &files[..], &["--backend", "vg"]].concat());
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option --backend"), "{stderr}");

    // eval compare: --shards without a segram backend in the list is a
    // usage error, not a silent no-op.
    let compare = [&["eval", "compare"], &files[..]].concat();
    let (code, stderr) =
        segram(&[&compare[..], &["--backends", "vg,hga", "--shards", "4"]].concat());
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--backends does not include segram"),
        "{stderr}"
    );

    // An unknown name in the --backends list names the valid choices.
    let (code, stderr) = segram(&[&compare[..], &["--backends", "segram,nope"]].concat());
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown backend \"nope\""), "{stderr}");
    assert!(stderr.contains("graphaligner"), "lists choices: {stderr}");
}

/// Simulates the 8-read, 20 kbp data set the `eval compare` tests share
/// and returns its path prefix.
fn simulate_compare_set(dir: &TempDir) -> String {
    let prefix = dir.path("b");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "20000",
        "--reads",
        "8",
        "--read-len",
        "100",
        "--seed",
        "19",
    ])
    .expect("simulate");
    prefix
}

/// Runs `eval compare` over all four backends and returns its report.
fn compare_all(prefix: &str, reads: &str, threads: &str, json_path: &str) -> String {
    run(&[
        "eval",
        "compare",
        "--graph",
        &format!("{prefix}.gfa"),
        "--reads",
        reads,
        "--threads",
        threads,
        "--json",
        json_path,
    ])
    .expect("eval compare")
}

/// The per-backend `backend`, `mapped`, `correct` and `regions_aligned`
/// lines of an `eval compare --json` artifact: the counts that depend on
/// neither the thread count nor the input's container.
fn compare_counts(json_path: &str) -> Vec<String> {
    let keys = [
        "\"backend\"",
        "\"mapped\"",
        "\"correct\"",
        "\"regions_aligned\"",
    ];
    fs::read_to_string(json_path)
        .expect("compare JSON")
        .lines()
        .map(str::trim)
        .filter(|line| keys.iter().any(|key| line.starts_with(key)))
        .map(str::to_owned)
        .collect()
}

/// Acceptance path: the baselines run only behind `eval compare`. Over
/// all four backends it prints the table and writes the JSON artifact,
/// and every backend's counts are thread-invariant (the byte-level
/// property is `backend_props.rs`'s).
#[test]
fn baseline_backends_map_and_compare_end_to_end() {
    let dir = TempDir::new("backends");
    let prefix = simulate_compare_set(&dir);
    let reads = format!("{prefix}.fq");

    let json_path = dir.path("cmp4.json");
    let report = compare_all(&prefix, &reads, "4", &json_path);
    assert!(
        report.contains("compared 4 backends on 8 reads"),
        "{report}"
    );
    assert!(report.contains("8 with truth labels"), "{report}");
    for column in ["backend", "accuracy", "reads/s", "hw-makespan-us"] {
        assert!(report.contains(column), "missing column {column}: {report}");
    }
    let json = fs::read_to_string(&json_path).unwrap();
    for backend in ["segram", "graphaligner", "vg", "hga"] {
        assert!(
            json.contains(&format!("\"backend\": \"{backend}\"")),
            "{json}"
        );
    }
    assert!(json.contains("\"modeled_makespan_ns\""), "{json}");

    // Thread invariance holds for the baselines exactly as for the native
    // index (ci.sh's backend-matrix tier runs the same comparison).
    let serial_path = dir.path("cmp1.json");
    compare_all(&prefix, &reads, "1", &serial_path);
    let counts = compare_counts(&json_path);
    assert_eq!(counts.len(), 4 * 4, "{counts:?}");
    assert_eq!(compare_counts(&serial_path), counts);

    // A subset of the backends, in the order given.
    let report = run(&[
        "eval",
        "compare",
        "--graph",
        &format!("{prefix}.gfa"),
        "--reads",
        &reads,
        "--backends",
        "vg,segram",
        "--threads",
        "2",
    ])
    .expect("eval compare");
    assert!(
        report.contains("compared 2 backends on 8 reads"),
        "{report}"
    );
    let vg = report.find("  vg ").expect("vg row");
    assert!(
        vg < report.find("  segram ").expect("segram row"),
        "{report}"
    );
}

/// `eval compare` reads the BGZF FASTQ `map` accepts, fixed- and
/// stored-mode alike, into the same reads as the plain file.
#[test]
fn eval_compare_reads_bgzf_input_as_map_does() {
    let dir = TempDir::new("compare-bgzf");
    let prefix = simulate_compare_set(&dir);
    let plain_json = dir.path("plain.json");
    compare_all(&prefix, &format!("{prefix}.fq"), "2", &plain_json);
    let plain = compare_counts(&plain_json);
    assert_eq!(plain.len(), 4 * 4, "{plain:?}");
    for (mode, block) in [("fixed", "512"), ("stored", "97")] {
        let gz = dir.path(&format!("b-{mode}.fq.gz"));
        run(&[
            "bgzip",
            "--input",
            &format!("{prefix}.fq"),
            "--output",
            &gz,
            "--block-bytes",
            block,
            "--mode",
            mode,
        ])
        .expect("bgzip");
        let json = dir.path(&format!("{mode}.json"));
        let report = compare_all(&prefix, &gz, "2", &json);
        assert!(report.contains("8 with truth labels"), "{mode}: {report}");
        assert_eq!(compare_counts(&json), plain, "{mode}");
    }
}

#[test]
fn io_and_format_errors_are_reported_with_paths() {
    let dir = TempDir::new("errors");
    let err = run(&["index", "--graph", &dir.path("missing.gfa")]).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("missing.gfa"));

    let bad = dir.path("bad.fa");
    fs::write(&bad, ">x\nACGTN\n").unwrap();
    let err = run(&[
        "construct",
        "--reference",
        &bad,
        "--output",
        &dir.path("g.gfa"),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("bad.fa"), "{err}");
    assert!(err.to_string().contains("invalid base"), "{err}");

    // --lenient rescues the same input.
    run(&[
        "construct",
        "--reference",
        &bad,
        "--output",
        &dir.path("g.gfa"),
        "--lenient",
    ])
    .expect("lenient construct");
}

#[test]
fn map_results_land_near_simulated_truth() {
    let dir = TempDir::new("truth");
    let prefix = dir.path("t");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "40000",
        "--reads",
        "15",
        "--read-len",
        "150",
        "--seed",
        "21",
    ])
    .expect("simulate");

    let gaf_path = dir.path("t.gaf");
    run(&[
        "map",
        "--graph",
        &format!("{prefix}.gfa"),
        "--reads",
        &format!("{prefix}.fq"),
        "--format",
        "gaf",
        "--output",
        &gaf_path,
        "--both-strands",
    ])
    .expect("map");

    // Cross-check GAF mappings against the truth the simulator put in the
    // FASTQ descriptions.
    let fastq = segram_io::read_fastq(
        &fs::read_to_string(format!("{prefix}.fq")).unwrap(),
        segram_io::Ambiguity::Reject,
    )
    .unwrap();
    let gaf = segram_io::read_gaf(&fs::read_to_string(&gaf_path).unwrap()).unwrap();
    assert!(
        gaf.len() * 10 >= fastq.len() * 8,
        "expected >=80% of reads mapped, got {}/{}",
        gaf.len(),
        fastq.len()
    );
    let mut checked = 0;
    for rec in &gaf {
        let read = fastq
            .iter()
            .find(|r| r.id == rec.qname)
            .expect("known read");
        // identity should be high for 1%-error reads.
        assert!(
            rec.identity() > 0.9,
            "{}: identity {}",
            rec.qname,
            rec.identity()
        );
        let _ = read;
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn linear_reference_without_vcf_maps_as_s2s() {
    // `construct` without --vcf produces a linear (single-path) graph;
    // mapping against it is the paper's sequence-to-sequence special case.
    let dir = TempDir::new("s2s");
    let prefix = dir.path("lin");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "20000",
        "--reads",
        "8",
        "--read-len",
        "100",
        "--seed",
        "3",
    ])
    .expect("simulate");

    let linear_gfa = dir.path("linear.gfa");
    run(&[
        "construct",
        "--reference",
        &format!("{prefix}.fa"),
        "--output",
        &linear_gfa,
    ])
    .expect("construct without VCF");

    let out = dir.path("s2s.sam");
    let report = run(&[
        "map",
        "--graph",
        &linear_gfa,
        "--reads",
        &format!("{prefix}.fq"),
        "--output",
        &out,
        "--both-strands",
    ])
    .expect("map against linear graph");
    assert!(report.contains("mapped"), "{report}");
    let sam = fs::read_to_string(&out).unwrap();
    // Most 1%-error reads map even against the variant-free reference
    // (variants the simulator embedded just cost an edit or two).
    let mapped = sam
        .lines()
        .filter(|l| !l.starts_with('@'))
        .filter(|l| l.split('\t').nth(1) != Some("4"))
        .count();
    assert!(
        mapped >= 6,
        "only {mapped}/8 reads mapped in S2S mode:\n{sam}"
    );
}
