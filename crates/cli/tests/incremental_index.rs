//! End-to-end tests for the versioned store lifecycle at the CLI:
//! `index build` -> split-VCF `index update` -> `index inspect`, with the
//! updated store proven payload-identical to a from-scratch build over
//! the combined VCF and byte-identical under `map`; plus the CLI faces
//! of the corruption-class matrix and the `--compress-output` round trip.

use std::fs;
use std::path::PathBuf;

use segram_cli::{dispatch, CliError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("segram-incr-test-{tag}-{}", std::process::id()));
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

/// Simulates a bundle and splits its VCF into a base half and a delta
/// half by position (data lines are position-sorted, so the halves do
/// not interleave). Returns the bundle prefix.
fn simulate_and_split(dir: &TempDir) -> String {
    let prefix = dir.path("bundle");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "25000",
        "--reads",
        "16",
        "--read-len",
        "110",
        "--seed",
        "7",
    ])
    .expect("simulate");

    let vcf = fs::read_to_string(format!("{prefix}.vcf")).expect("vcf exists");
    let header: Vec<&str> = vcf.lines().filter(|l| l.starts_with('#')).collect();
    let data: Vec<&str> = vcf.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        data.len() >= 4,
        "need enough variants to split: {}",
        data.len()
    );
    let mid = data.len() / 2;
    let stitch = |lines: &[&str]| {
        let mut text = header.join("\n");
        text.push('\n');
        text.push_str(&lines.join("\n"));
        text.push('\n');
        text
    };
    fs::write(dir.path("base.vcf"), stitch(&data[..mid])).expect("write base vcf");
    fs::write(dir.path("delta.vcf"), stitch(&data[mid..])).expect("write delta vcf");
    prefix
}

/// Extracts the stamped changelog identity from an `index inspect`
/// report — FNV-1a over the recorded GRAPH and INDEX section checksums,
/// i.e. byte-identity of everything mapping consumes.
fn inspect_identity(report: &str) -> String {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("changelog:"))
        .expect("inspect prints a changelog line");
    let tail = line.split("identity ").nth(1).expect("identity field");
    tail.split(',').next().expect("delimited").to_owned()
}

#[test]
fn index_update_matches_a_scratch_build_over_the_combined_vcf() {
    let dir = TempDir::new("update");
    let prefix = simulate_and_split(&dir);

    let v1 = dir.path("v1.sgi");
    let v2 = dir.path("v2.sgi");
    let scratch = dir.path("scratch.sgi");

    run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &dir.path("base.vcf"),
        "--output",
        &v1,
    ])
    .expect("index build v1");

    // The update works from the persisted store alone — no FASTA passed.
    let report = run(&[
        "index",
        "update",
        "--index",
        &v1,
        "--vcf",
        &dir.path("delta.vcf"),
        "--output",
        &v2,
    ])
    .expect("index update");
    assert!(report.contains("epoch 1"), "{report}");
    assert!(report.contains("locations carried"), "{report}");
    // Partial re-index: the report names the touched ranges and the
    // re-extracted character count, and the carried set dominates.
    let touched = report
        .lines()
        .find(|l| l.contains("touched") && l.contains("re-extracted"))
        .expect("update reports touched ranges");
    let re_extracted: u64 = touched
        .split_whitespace()
        .skip_while(|w| *w != "re-extracted")
        .nth(1)
        .and_then(|w| w.parse().ok())
        .expect("re-extracted count");
    let total: u64 = touched
        .split_whitespace()
        .skip_while(|w| *w != "of")
        .nth(1)
        .and_then(|w| w.parse().ok())
        .expect("total char count");
    assert!(
        re_extracted < total / 2,
        "re-extracted {re_extracted} of {total} chars — not a partial update"
    );

    run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &format!("{prefix}.vcf"),
        "--output",
        &scratch,
    ])
    .expect("index build scratch");

    // Payload identity: the updated store's graph + index bytes equal the
    // scratch build's, even though their changelogs/provenance differ.
    let inspect_v2 = run(&["index", "inspect", "--index", &v2]).expect("inspect v2");
    let inspect_scratch = run(&["index", "inspect", "--index", &scratch]).expect("inspect scratch");
    assert_eq!(
        inspect_identity(&inspect_v2),
        inspect_identity(&inspect_scratch),
        "updated store diverged from the scratch build\n-- v2 --\n{inspect_v2}\n-- scratch --\n{inspect_scratch}"
    );

    // And the proof that matters downstream: mapping through either store
    // produces the same bytes, sharded or not.
    let reads = format!("{prefix}.fq");
    for (tag, extra) in [("flat", &[][..]), ("sharded", &["--shards", "2"][..])] {
        let out_a = dir.path(&format!("{tag}-updated.sam"));
        let out_b = dir.path(&format!("{tag}-scratch.sam"));
        for (index, out) in [(&v2, &out_a), (&scratch, &out_b)] {
            let mut args = vec![
                "map", "--index", index, "--reads", &reads, "--format", "sam", "--output", out,
            ];
            args.extend_from_slice(extra);
            run(&args).expect("map");
        }
        assert_eq!(
            fs::read(&out_a).unwrap(),
            fs::read(&out_b).unwrap(),
            "{tag} SAM output diverged between updated and scratch stores"
        );
    }

    // The version chain is visible in inspect: two history entries, the
    // delta VCF recorded in provenance.
    assert!(inspect_v2.contains("changelog: epoch 1"), "{inspect_v2}");
    assert!(inspect_v2.contains("epoch 0:"), "{inspect_v2}");
    assert!(inspect_v2.contains("epoch 1:"), "{inspect_v2}");
    assert!(inspect_v2.contains("vcf[1]"), "{inspect_v2}");
    assert!(
        inspect_scratch.contains("changelog: epoch 0"),
        "{inspect_scratch}"
    );
}

/// `--output` equal to `--index` replaces the parent with its child: the
/// update walks the parent's index section off the file it is about to
/// replace, and the write lands only once the child is whole.
#[test]
fn an_in_place_update_equals_an_out_of_place_one() {
    let dir = TempDir::new("in-place");
    let prefix = simulate_and_split(&dir);
    let v1 = dir.path("v1.sgi");
    run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &dir.path("base.vcf"),
        "--output",
        &v1,
    ])
    .expect("index build v1");
    let in_place = dir.path("in-place.sgi");
    fs::copy(&v1, &in_place).expect("copy v1");

    let delta = dir.path("delta.vcf");
    let v2 = dir.path("v2.sgi");
    for (index, output) in [(&v1, &v2), (&in_place, &in_place)] {
        let report = run(&[
            "index", "update", "--index", index, "--vcf", &delta, "--output", output,
        ])
        .expect("index update");
        assert!(report.contains("epoch 1"), "{report}");
    }
    assert_eq!(
        fs::read(&in_place).unwrap(),
        fs::read(&v2).unwrap(),
        "the in-place update differs from the out-of-place one"
    );
    assert!(fs::metadata(dir.path("in-place.sgi.tmp")).is_err());
}

#[test]
fn corrupted_stores_error_cleanly_at_the_cli() {
    let dir = TempDir::new("corrupt");
    let prefix = simulate_and_split(&dir);
    let v1 = dir.path("v1.sgi");
    run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &dir.path("base.vcf"),
        "--output",
        &v1,
    ])
    .expect("index build");
    let bytes = fs::read(&v1).unwrap();

    // Truncations at the header, mid-file, and the final byte: every one
    // is a named error, never a panic, and never a partial output file.
    for cut in [10, bytes.len() / 2, bytes.len() - 1] {
        let broken = dir.path("broken.sgi");
        fs::write(&broken, &bytes[..cut]).unwrap();
        let out = dir.path("never.sgi");
        let err = run(&[
            "index",
            "update",
            "--index",
            &broken,
            "--vcf",
            &dir.path("delta.vcf"),
            "--output",
            &out,
        ])
        .expect_err("truncated store must not update");
        assert_eq!(err.exit_code(), 1, "cut at {cut}: {err}");
        assert!(
            fs::metadata(&out).is_err(),
            "cut at {cut} left a partial output file"
        );
        run(&["index", "inspect", "--index", &broken])
            .expect_err("truncated store must not inspect");
    }

    // A flipped payload byte trips the section checksum.
    let mut flipped = bytes.clone();
    let pos = bytes.len() - 40;
    flipped[pos] ^= 0x40;
    let broken = dir.path("flipped.sgi");
    fs::write(&broken, &flipped).unwrap();
    let err = run(&["index", "inspect", "--index", &broken]).expect_err("flip detected");
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn compress_output_round_trips_through_bgzf() {
    let dir = TempDir::new("compress");
    let prefix = simulate_and_split(&dir);
    let index = dir.path("v1.sgi");
    run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &format!("{prefix}.vcf"),
        "--output",
        &index,
    ])
    .expect("index build");

    let plain = dir.path("plain.sam");
    let packed = dir.path("packed.sam.gz");
    run(&[
        "map",
        "--index",
        &index,
        "--reads",
        &format!("{prefix}.fq"),
        "--format",
        "sam",
        "--output",
        &plain,
    ])
    .expect("plain map");
    let report = run(&[
        "map",
        "--index",
        &index,
        "--reads",
        &format!("{prefix}.fq"),
        "--format",
        "sam",
        "--output",
        &packed,
        "--compress-output",
    ])
    .expect("compressed map");
    assert!(report.contains("BGZF-compressed"), "{report}");

    let compressed = fs::read(&packed).unwrap();
    assert!(
        compressed.ends_with(&segram_io::BGZF_EOF),
        "clean close must append the 28-byte BGZF EOF marker"
    );
    let mut inflated = Vec::new();
    for block in segram_io::BgzfBlocks::new(&compressed[..]) {
        inflated.extend(block.expect("well-formed").inflate().expect("verifies"));
    }
    assert_eq!(
        inflated,
        fs::read(&plain).unwrap(),
        "BGZF output must inflate to the plain SAM bytes"
    );

    // --compress-output without a file target is a usage error.
    let err = run(&[
        "map",
        "--index",
        &index,
        "--reads",
        &format!("{prefix}.fq"),
        "--format",
        "sam",
        "--compress-output",
    ])
    .expect_err("stdout cannot be compressed");
    assert_eq!(err.exit_code(), 2, "{err}");
}
