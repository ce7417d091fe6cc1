//! End-to-end tests for the compressed production-shaped IO path:
//! `segram bgzip` fixtures, BGZF auto-detection in `segram map` with
//! byte-parity against plain input, the corruption-class error matrix
//! (named [`segram_io::BgzfError`] per class, no panic, no orphaned
//! partial output), split SAM+GAF emission (plain and compressed), and
//! the `--batch-size` grammar.

use std::fs;
use std::path::PathBuf;

use segram_cli::{dispatch, CliError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("segram-bgzf-test-{tag}-{}", std::process::id()));
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

/// Simulates a bundle and returns its path prefix.
fn simulate(dir: &TempDir, reads: &str, seed: &str) -> String {
    let prefix = dir.path("bundle");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "25000",
        "--reads",
        reads,
        "--read-len",
        "110",
        "--seed",
        seed,
    ])
    .expect("simulate");
    prefix
}

#[test]
fn bgzip_compressed_map_is_byte_identical_to_plain() {
    let dir = TempDir::new("parity");
    let prefix = simulate(&dir, "14", "41");

    // Compress the simulated FASTQ with both in-tree DEFLATE modes; tiny
    // blocks force records to straddle member boundaries.
    for (mode, block) in [("fixed", "512"), ("stored", "97")] {
        let gz = dir.path(&format!("reads-{mode}.fq.gz"));
        let report = run(&[
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
        assert!(report.contains("BGZF blocks + EOF marker"), "{report}");

        for format in ["sam", "gaf"] {
            for threads in ["1", "4"] {
                let plain_out = dir.path(&format!("plain-{mode}-{format}-{threads}"));
                let gz_out = dir.path(&format!("gz-{mode}-{format}-{threads}"));
                let map = |reads: &str, out: &str| {
                    run(&[
                        "map",
                        "--graph",
                        &format!("{prefix}.gfa"),
                        "--reads",
                        reads,
                        "--format",
                        format,
                        "--threads",
                        threads,
                        "--output",
                        out,
                        "--both-strands",
                    ])
                    .expect("map")
                };
                map(&format!("{prefix}.fq"), &plain_out);
                let report = map(&gz, &gz_out);
                // The compressed run reports the transport stage's inflate time.
                assert!(report.contains("inflate:"), "{report}");
                assert_eq!(
                    fs::read(&plain_out).unwrap(),
                    fs::read(&gz_out).unwrap(),
                    "BGZF {format} output differs from plain ({mode}, {threads} threads)"
                );
            }
        }
    }
}

/// Parses the first member's BSIZE to find where the second one starts.
fn second_member_offset(bytes: &[u8]) -> usize {
    u16::from_le_bytes([bytes[16], bytes[17]]) as usize + 1
}

#[test]
fn every_corruption_class_yields_its_named_error_and_removes_output() {
    let dir = TempDir::new("corruption");
    let prefix = simulate(&dir, "12", "43");

    // A stored-mode fixture with many small members: the deflate header
    // and payload byte offsets below are those of `deflate_stored`.
    let gz = dir.path("reads.fq.gz");
    run(&[
        "bgzip",
        "--input",
        &format!("{prefix}.fq"),
        "--output",
        &gz,
        "--block-bytes",
        "256",
        "--mode",
        "stored",
    ])
    .expect("bgzip");
    let pristine = fs::read(&gz).unwrap();
    let off = second_member_offset(&pristine);
    assert!(
        off + 32 < pristine.len() - 28,
        "fixture must have at least two data members"
    );

    // One mutation per corruption class, all hitting the *second* member
    // so the failure lands mid-stream and must cancel a running engine.
    // The transport stage raises every class on the producer thread, in
    // file order: the message cannot depend on the worker count.
    type Mutate = fn(&mut Vec<u8>, usize);
    let classes: [(&str, &str, Mutate); 6] = [
        ("bad-magic", "bad magic", |b, off| b[off] = 0x2a),
        ("bad-extra", "not a BGZF member", |b, off| b[off + 3] = 0x00),
        // Member header is 18 bytes (12 + XLEN 6); the stored DEFLATE
        // block is 1 header byte + LEN/NLEN(4) + payload.
        ("crc-mismatch", "CRC32 mismatch", |b, off| {
            b[off + 18 + 5] ^= 0x20
        }),
        // BFINAL=1 with the reserved BTYPE=11.
        ("bad-deflate", "invalid DEFLATE payload", |b, off| {
            b[off + 18] = 0x07
        }),
        ("truncated", "truncated inside a BGZF block", |b, off| {
            b.truncate(off + 10)
        }),
        ("missing-eof", "without the BGZF EOF marker", |b, _| {
            let keep = b.len() - 28;
            b.truncate(keep)
        }),
    ];

    for (name, expected, mutate) in classes {
        let mut corrupt = pristine.clone();
        mutate(&mut corrupt, off);
        let bad_gz = dir.path(&format!("{name}.fq.gz"));
        fs::write(&bad_gz, &corrupt).unwrap();

        let mut shown_at_one_thread = None;
        for threads in ["1", "2", "8"] {
            let out = dir.path(&format!("{name}-{threads}.sam"));
            let err = run(&[
                "map",
                "--graph",
                &format!("{prefix}.gfa"),
                "--reads",
                &bad_gz,
                "--threads",
                threads,
                "--output",
                &out,
            ])
            .unwrap_err();
            assert_eq!(err.exit_code(), 1, "{name}: corruption is exit 1");
            let shown = err.to_string();
            assert!(
                shown.contains(expected),
                "{name} ({threads} threads): expected {expected:?} in {shown:?}"
            );
            assert!(
                shown.contains(&format!("{name}.fq.gz")),
                "{name}: error names the file: {shown}"
            );
            assert_eq!(
                shown_at_one_thread.get_or_insert(shown.clone()),
                &shown,
                "{name}: message differs at {threads} threads"
            );
            assert!(
                fs::metadata(&out).is_err(),
                "{name} ({threads} threads): partial output must be removed"
            );
        }
    }
}

#[test]
fn the_first_defect_in_file_order_is_named_by_every_schedule() {
    // The second record's quality line is one character short, inside the
    // first member; the second member's CRC32 is broken. Decode runs on
    // the producer, right behind the transport stage, so the malformed
    // record stops the stream before the second member is inflated —
    // under fanout and elastic alike, at any thread count.
    let dir = TempDir::new("first-defect");
    let prefix = simulate(&dir, "12", "47");
    let mut lines: Vec<String> = fs::read_to_string(format!("{prefix}.fq"))
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    lines[7].pop();
    let fastq = dir.path("defect.fq");
    fs::write(&fastq, lines.join("\n") + "\n").unwrap();
    let gz = dir.path("defect.fq.gz");
    run(&[
        "bgzip",
        "--input",
        &fastq,
        "--output",
        &gz,
        "--block-bytes",
        "1024",
        "--mode",
        "stored",
    ])
    .expect("bgzip");
    let mut bytes = fs::read(&gz).unwrap();
    let off = second_member_offset(&bytes);
    assert!(
        off > 4 * 110,
        "the defective record sits in the first member"
    );
    bytes[off + 18 + 5] ^= 0x20;
    fs::write(&gz, &bytes).unwrap();

    let gfa = format!("{prefix}.gfa");
    let mut messages = Vec::new();
    for schedule in [&[][..], &["--shards", "4", "--schedule", "elastic"][..]] {
        for threads in ["1", "2", "8"] {
            let out = dir.path(&format!("defect-{}-{threads}.sam", schedule.len()));
            let mut args = vec![
                "map",
                "--graph",
                &gfa,
                "--reads",
                &gz,
                "--threads",
                threads,
                "--output",
                &out,
            ];
            args.extend_from_slice(schedule);
            let err = run(&args).expect_err("a malformed record fails the run");
            assert_eq!(err.exit_code(), 1);
            assert!(
                fs::metadata(&out).is_err(),
                "{schedule:?} --threads {threads}: partial output must be removed"
            );
            messages.push((format!("{schedule:?} --threads {threads}"), err.to_string()));
        }
    }
    let (_, first) = &messages[0];
    assert!(
        first.contains("line 8") && first.contains("quality length"),
        "the malformed record is named by its line: {first}"
    );
    for (run, message) in &messages {
        assert_eq!(message, first, "{run} names another defect");
    }
}

#[test]
fn split_emission_matches_two_single_format_runs() {
    let dir = TempDir::new("split");
    let prefix = simulate(&dir, "12", "47");

    // Reference outputs: two single-format passes.
    for format in ["sam", "gaf"] {
        run(&[
            "map",
            "--graph",
            &format!("{prefix}.gfa"),
            "--reads",
            &format!("{prefix}.fq"),
            "--format",
            format,
            "--output",
            &dir.path(&format!("single.{format}")),
            "--both-strands",
        ])
        .expect("single-format map");
    }

    for threads in ["1", "4"] {
        let sam = dir.path(&format!("split-{threads}.sam"));
        let gaf = dir.path(&format!("split-{threads}.gaf"));
        let report = run(&[
            "map",
            "--graph",
            &format!("{prefix}.gfa"),
            "--reads",
            &format!("{prefix}.fq"),
            "--threads",
            threads,
            "--output-sam",
            &sam,
            "--output-gaf",
            &gaf,
            "--both-strands",
        ])
        .expect("split map");
        assert!(report.contains(&format!("wrote SAM to {sam}")), "{report}");
        assert!(report.contains(&format!("wrote GAF to {gaf}")), "{report}");
        assert_eq!(
            fs::read(dir.path("single.sam")).unwrap(),
            fs::read(&sam).unwrap(),
            "split SAM differs from the single-format run ({threads} threads)"
        );
        assert_eq!(
            fs::read(dir.path("single.gaf")).unwrap(),
            fs::read(&gaf).unwrap(),
            "split GAF differs from the single-format run ({threads} threads)"
        );
    }

    // One split option alone is a single-format run under another name.
    let solo = dir.path("solo.gaf");
    run(&[
        "map",
        "--graph",
        &format!("{prefix}.gfa"),
        "--reads",
        &format!("{prefix}.fq"),
        "--output-gaf",
        &solo,
        "--both-strands",
    ])
    .expect("solo --output-gaf map");
    assert_eq!(
        fs::read(dir.path("single.gaf")).unwrap(),
        fs::read(&solo).unwrap(),
        "--output-gaf alone must equal a --format gaf run"
    );
}

/// Inflates a BGZF document through the library reader, asserting the
/// clean-close EOF marker on the way.
fn inflate(path: &str) -> Vec<u8> {
    let compressed = fs::read(path).unwrap();
    assert!(
        compressed.ends_with(&segram_io::BGZF_EOF),
        "{path}: a clean close appends the BGZF EOF marker"
    );
    let mut plain = Vec::new();
    for block in segram_io::BgzfBlocks::new(&compressed[..]) {
        plain.extend(block.expect("well-formed").inflate().expect("verifies"));
    }
    plain
}

#[test]
fn compressed_split_emission_inflates_to_the_two_plain_documents() {
    let dir = TempDir::new("split-gz");
    // Enough reads that the SAM document spans more than one BGZF member,
    // so the hand-off to the deflate thread happens mid-run too.
    let prefix = simulate(&dir, "400", "61");
    let map = |extra: &[&str]| {
        let (graph, reads) = (format!("{prefix}.gfa"), format!("{prefix}.fq"));
        let mut args = vec!["map", "--graph", &graph, "--reads", &reads];
        args.extend_from_slice(extra);
        run(&args).expect("map")
    };
    for format in ["sam", "gaf"] {
        let out = dir.path(&format!("single.{format}"));
        map(&["--format", format, "--output", &out]);
    }
    let single_sam = fs::read(dir.path("single.sam")).unwrap();
    assert!(
        single_sam.len() > segram_io::BGZF_MAX_PLAIN,
        "fixture too small to cut a second member: {} bytes",
        single_sam.len()
    );
    for threads in ["1", "4"] {
        let sam = dir.path(&format!("split-{threads}.sam.gz"));
        let gaf = dir.path(&format!("split-{threads}.gaf.gz"));
        let report = map(&[
            "--threads",
            threads,
            "--output-sam",
            &sam,
            "--output-gaf",
            &gaf,
            "--compress-output",
        ]);
        assert!(
            report.contains(&format!("wrote SAM to {sam} (BGZF-compressed)")),
            "{report}"
        );
        assert!(
            report.contains(&format!("wrote GAF to {gaf} (BGZF-compressed)")),
            "{report}"
        );
        assert_eq!(
            inflate(&sam),
            single_sam,
            "compressed split SAM differs from the plain single run ({threads} threads)"
        );
        // Members are cut by offset on the deflate thread: the document is
        // the library compressor's, byte for byte.
        assert_eq!(
            fs::read(&sam).unwrap(),
            segram_io::bgzf_compress(
                &single_sam,
                segram_io::BGZF_MAX_PLAIN,
                segram_io::BgzfMode::Fixed
            ),
            "--compress-output must equal bgzf_compress of the plain document"
        );
        assert_eq!(
            inflate(&gaf),
            fs::read(dir.path("single.gaf")).unwrap(),
            "compressed split GAF differs from the plain single run ({threads} threads)"
        );
    }
}

#[test]
fn compressed_io_option_conflicts_are_usage_errors() {
    // All of these must fail before any input file is opened (the paths
    // do not exist), so exit code 2 proves validation order.
    let base = ["map", "--graph", "x.gfa", "--reads", "y.fq"];
    let usage = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{extra:?} must be a usage error");
        err.to_string()
    };

    // Split emission vs. the single-document options.
    let shown = usage(&["--output-sam", "a.sam", "--format", "gaf"]);
    assert!(shown.contains("--output-sam/--output-gaf"), "{shown}");
    let shown = usage(&["--output-gaf", "a.gaf", "--output", "b.gaf"]);
    assert!(shown.contains("mutually exclusive"), "{shown}");

    // Batch-size grammar: a read count of at least 1, nothing else.
    for bad in ["0", "abc", "auto"] {
        let shown = usage(&["--batch-size", bad]);
        assert!(
            shown.contains("--batch-size: expected a count of at least 1"),
            "{bad}: {shown}"
        );
    }
}

#[test]
fn bgzip_validates_options_and_roundtrips() {
    let dir = TempDir::new("bgzip");
    let input = dir.path("plain.txt");
    fs::write(&input, b"@r\nACGT\n+\nIIII\n".repeat(100)).unwrap();

    assert!(run(&["bgzip", "--help"]).unwrap().contains("OPTIONS"));
    let err = run(&[
        "bgzip", "--input", &input, "--output", "o.gz", "--mode", "zstd",
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("fixed|stored"), "{err}");
    let err = run(&[
        "bgzip",
        "--input",
        &input,
        "--output",
        "o.gz",
        "--block-bytes",
        "0",
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 2);
    let err = run(&["bgzip", "--input", &dir.path("absent"), "--output", "o.gz"]).unwrap_err();
    assert_eq!(err.exit_code(), 1, "missing input is an I/O error");

    // The compressed stream decodes back to the input via the library.
    let gz = dir.path("plain.txt.gz");
    run(&[
        "bgzip",
        "--input",
        &input,
        "--output",
        &gz,
        "--block-bytes",
        "64",
    ])
    .expect("bgzip");
    let compressed = fs::read(&gz).unwrap();
    let mut plain = Vec::new();
    for block in segram_io::BgzfBlocks::new(&compressed[..]) {
        plain.extend(block.expect("well-formed").inflate().expect("verifies"));
    }
    assert_eq!(plain, fs::read(&input).unwrap());
}
