//! Persistent-index and daemon tests: `index build` -> `map --index`
//! byte-parity against `map --graph`, named errors on corrupt `.sgi`
//! files, and a live `segram serve` daemon driven through `segram
//! request` — round trips, concurrency, mid-payload cancellation
//! isolation, stalled-client timeouts, and shutdown.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use segram_cli::{dispatch, serve_with_timeout, CliError, Options};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("segram-serve-test-{tag}-{}", std::process::id()));
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

/// Simulates a small bundle and builds its persistent index; returns
/// `(bundle prefix, .sgi path)`.
fn build_bundle(dir: &TempDir) -> (String, String) {
    build_bundle_with(dir, "bundle", "ref.sgi", 7)
}

/// [`build_bundle`] with an explicit name and simulation seed, so a test
/// can build two genuinely different indexes side by side (RELOAD tests).
fn build_bundle_with(dir: &TempDir, tag: &str, sgi_name: &str, seed: u64) -> (String, String) {
    let prefix = dir.path(tag);
    let seed = seed.to_string();
    run(&[
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
        &seed,
    ])
    .expect("simulate");
    let sgi = dir.path(sgi_name);
    let report = run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &format!("{prefix}.vcf"),
        "--output",
        &sgi,
    ])
    .expect("index build");
    assert!(report.contains("format v"), "{report}");
    assert!(report.contains("frequency threshold"), "{report}");
    (prefix, sgi)
}

/// Polls the daemon's `--addr-file` until it holds a complete address.
fn wait_for_addr(path: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            if text.ends_with('\n') && !text.trim().is_empty() {
                return text.trim().to_owned();
            }
        }
        assert!(Instant::now() < deadline, "server never wrote {path}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn map_index_matches_map_graph_byte_for_byte() {
    let dir = TempDir::new("parity");
    let (prefix, sgi) = build_bundle(&dir);
    let reads = format!("{prefix}.fq");
    let gfa = format!("{prefix}.gfa");

    for format in ["sam", "gaf"] {
        let from_graph = dir.path(&format!("graph.{format}"));
        let from_index = dir.path(&format!("index.{format}"));
        run(&[
            "map",
            "--graph",
            &gfa,
            "--reads",
            &reads,
            "--format",
            format,
            "--output",
            &from_graph,
        ])
        .expect("map --graph");
        let report = run(&[
            "map",
            "--index",
            &sgi,
            "--reads",
            &reads,
            "--format",
            format,
            "--output",
            &from_index,
        ])
        .expect("map --index");
        assert!(report.contains("loaded persistent index"), "{report}");
        assert_eq!(
            fs::read(&from_graph).unwrap(),
            fs::read(&from_index).unwrap(),
            "{format}: map --index must be byte-identical to map --graph"
        );
    }
}

#[test]
fn map_index_flag_conflicts_are_usage_errors() {
    let dir = TempDir::new("conflicts");
    let sgi = dir.path("ref.sgi");
    let gfa = dir.path("ref.gfa");
    let reads = dir.path("reads.fq");
    // The conflicts are rejected before any file is opened, so the paths
    // need not exist.
    let cases: &[(&[&str], &str)] = &[
        (
            &["map", "--graph", &gfa, "--index", &sgi, "--reads", &reads],
            "mutually exclusive",
        ),
        (&["map", "--reads", &reads], "one of --graph or --index"),
        (
            &[
                "map",
                "--index",
                &sgi,
                "--reads",
                &reads,
                "--compress-output",
            ],
            "--compress-output requires a file output",
        ),
    ];
    for (args, needle) in cases {
        let err = run(args).expect_err("conflict must be rejected");
        assert_eq!(err.exit_code(), 2, "{args:?}");
        assert!(err.to_string().contains(needle), "{args:?}: {err}");
    }
}

#[test]
fn corrupt_index_files_fail_with_named_errors() {
    let dir = TempDir::new("corrupt");
    let (prefix, sgi) = build_bundle(&dir);
    let reads = format!("{prefix}.fq");
    let bytes = fs::read(&sgi).unwrap();

    // Wrong magic: not a segram index at all.
    let bad = dir.path("bad.sgi");
    let mut mutated = bytes.clone();
    mutated[0] ^= 0xFF;
    fs::write(&bad, &mutated).unwrap();
    let err = run(&["map", "--index", &bad, "--reads", &reads]).expect_err("bad magic");
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("not a segram index file"), "{err}");

    // Truncated to half: the section table points past the end.
    let trunc = dir.path("trunc.sgi");
    fs::write(&trunc, &bytes[..bytes.len() / 2]).unwrap();
    let err = run(&["map", "--index", &trunc, "--reads", &reads]).expect_err("truncated");
    assert_eq!(err.exit_code(), 1);
    let message = err.to_string();
    assert!(
        message.contains("truncated")
            || message.contains("checksum")
            || message.contains("corrupt"),
        "{message}"
    );

    // One flipped payload byte: the section checksum catches it.
    let flipped = dir.path("flipped.sgi");
    let mut mutated = bytes.clone();
    let last = mutated.len() - 1;
    mutated[last] ^= 0xFF;
    fs::write(&flipped, &mutated).unwrap();
    let err = run(&["map", "--index", &flipped, "--reads", &reads]).expect_err("flipped byte");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");

    // Empty file.
    let empty = dir.path("empty.sgi");
    fs::write(&empty, b"").unwrap();
    let err = run(&["map", "--index", &empty, "--reads", &reads]).expect_err("empty file");
    assert!(err.to_string().contains("truncated"), "{err}");
}

#[test]
fn serve_daemon_round_trips_cancels_and_shuts_down() {
    let dir = TempDir::new("daemon");
    let (prefix, sgi) = build_bundle(&dir);
    let reads = format!("{prefix}.fq");

    // One-shot references the daemon's replies must match byte-for-byte.
    let want_sam = dir.path("want.sam");
    let want_gaf = dir.path("want.gaf");
    for (format, path) in [("sam", &want_sam), ("gaf", &want_gaf)] {
        run(&[
            "map", "--index", &sgi, "--reads", &reads, "--format", format, "--output", path,
        ])
        .expect("one-shot map --index");
    }

    let addr_file = dir.path("addr");
    let serve_args: Vec<String> = [
        "serve",
        "--index",
        &sgi,
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file,
        "--threads",
        "2",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || dispatch(&serve_args));
    let addr = wait_for_addr(&addr_file);

    // 1. Single round trip: reply bytes identical to the one-shot run.
    let got_sam = dir.path("got.sam");
    let report = run(&[
        "request", "--addr", &addr, "--reads", &reads, "--format", "sam", "--output", &got_sam,
    ])
    .expect("request sam");
    assert!(report.contains("reads=12"), "{report}");
    assert_eq!(
        fs::read(&want_sam).unwrap(),
        fs::read(&got_sam).unwrap(),
        "served SAM must match one-shot map --index"
    );

    // 2. Concurrent requests (sam + gaf) through the shared engine: both
    //    documents must come back unmixed and byte-identical.
    let concurrent_sam = dir.path("concurrent.sam");
    let concurrent_gaf = dir.path("concurrent.gaf");
    let mut workers = Vec::new();
    for (format, output) in [("sam", &concurrent_sam), ("gaf", &concurrent_gaf)] {
        let args: Vec<String> = [
            "request", "--addr", &addr, "--reads", &reads, "--format", format, "--output", output,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        workers.push(std::thread::spawn(move || dispatch(&args)));
    }
    for worker in workers {
        worker
            .join()
            .expect("request thread")
            .expect("concurrent request");
    }
    assert_eq!(
        fs::read(&want_sam).unwrap(),
        fs::read(&concurrent_sam).unwrap(),
        "concurrent SAM request must not interleave with the GAF one"
    );
    assert_eq!(
        fs::read(&want_gaf).unwrap(),
        fs::read(&concurrent_gaf).unwrap(),
        "concurrent GAF request must not interleave with the SAM one"
    );

    // 3. A client that disconnects mid-payload cancels only its own
    //    request; the next request is served normally.
    let report = run(&[
        "request",
        "--addr",
        &addr,
        "--reads",
        &reads,
        "--cancel-after",
        "100",
    ])
    .expect("cancel-after");
    assert!(report.contains("disconnected after 100"), "{report}");
    let after_cancel = dir.path("after-cancel.gaf");
    run(&[
        "request",
        "--addr",
        &addr,
        "--reads",
        &reads,
        "--format",
        "gaf",
        "--output",
        &after_cancel,
    ])
    .expect("request after cancellation");
    assert_eq!(
        fs::read(&want_gaf).unwrap(),
        fs::read(&after_cancel).unwrap(),
        "a cancelled request must not corrupt later ones"
    );

    // 4. A malformed payload earns an ERR reply, surfaced as a server
    //    error (exit code 1), and the daemon keeps running.
    let bad_reads = dir.path("bad.fq");
    fs::write(&bad_reads, "this is not fastq\n").unwrap();
    let err =
        run(&["request", "--addr", &addr, "--reads", &bad_reads]).expect_err("malformed payload");
    assert_eq!(err.exit_code(), 1);
    assert!(
        matches!(err, CliError::Server(_)),
        "expected a server error, got {err}"
    );

    // 5. Shutdown: QUIT is acknowledged, the daemon exits, and its report
    //    accounts for every request above.
    let report = run(&["request", "--addr", &addr, "--shutdown"]).expect("shutdown");
    assert!(report.contains("server acknowledged shutdown"), "{report}");
    let report = server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(
        report.contains("served 4 requests (2 cancelled by clients, 0 refused busy, 0 failed)"),
        "{report}"
    );
}

#[test]
fn a_long_request_on_a_one_batch_queue_renders_while_it_is_pushed() {
    // 1600 reads = 50 request batches through --queue-depth 1. The engine
    // holds a request's workers back once `queue_depth + threads` of its
    // batches wait for the reader, so the daemon must render the reply
    // while the payload is still being pushed: pushing it all first would
    // wedge this request.
    let dir = TempDir::new("long-request");
    let prefix = dir.path("long");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "30000",
        "--reads",
        "1600",
        "--read-len",
        "100",
        "--seed",
        "13",
    ])
    .expect("simulate");
    let sgi = dir.path("long.sgi");
    let (fa, vcf) = (format!("{prefix}.fa"), format!("{prefix}.vcf"));
    run(&[
        "index",
        "build",
        "--reference",
        &fa,
        "--vcf",
        &vcf,
        "--output",
        &sgi,
    ])
    .expect("index");
    let reads = format!("{prefix}.fq");
    let want = dir.path("want.sam");
    run(&["map", "--index", &sgi, "--reads", &reads, "--output", &want]).expect("one-shot map");

    let addr_file = dir.path("addr");
    let serve_args: Vec<String> = [
        "serve",
        "--index",
        &sgi,
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file,
        "--threads",
        "2",
        "--queue-depth",
        "1",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || dispatch(&serve_args));
    let addr = wait_for_addr(&addr_file);
    let got = dir.path("got.sam");
    let report = run(&[
        "request", "--addr", &addr, "--reads", &reads, "--output", &got,
    ])
    .expect("long request");
    assert!(report.contains("reads=1600"), "{report}");
    assert_eq!(
        fs::read(&want).unwrap(),
        fs::read(&got).unwrap(),
        "the long reply must match the one-shot run"
    );
    run(&["request", "--addr", &addr, "--shutdown"]).expect("shutdown");
    let report = server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(report.contains("served 1 requests"), "{report}");
}

/// Boots an elastic daemon over `sgi` re-sharded `shards` ways, sends one
/// request, and checks the reply is byte-identical to the monolithic
/// one-shot run: request batches are pre-routed to per-shard-group pools,
/// yet bytes must not move. Returns the daemon's exit report.
fn elastic_daemon_round_trip(dir: &TempDir, sgi: &str, reads: &str, shards: &str) -> String {
    let want_sam = dir.path("want.sam");
    run(&[
        "map", "--index", sgi, "--reads", reads, "--format", "sam", "--output", &want_sam,
    ])
    .expect("one-shot map --index");

    let addr_file = dir.path("addr");
    let serve_args: Vec<String> = [
        "serve",
        "--index",
        sgi,
        "--shards",
        shards,
        "--schedule",
        "elastic",
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file,
        "--threads",
        "4",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || dispatch(&serve_args));
    let addr = wait_for_addr(&addr_file);

    let got_sam = dir.path("got.sam");
    run(&[
        "request", "--addr", &addr, "--reads", reads, "--format", "sam", "--output", &got_sam,
    ])
    .expect("request sam");
    assert_eq!(
        fs::read(&want_sam).unwrap(),
        fs::read(&got_sam).unwrap(),
        "elastic daemon reply must match the one-shot monolithic run"
    );

    run(&["request", "--addr", &addr, "--shutdown"]).expect("shutdown");
    let report = server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(report.contains("served 1 requests"), "{report}");
    report
}

#[test]
fn elastic_daemon_replies_match_one_shot_and_reports_pools() {
    let dir = TempDir::new("elastic");
    let (prefix, sgi) = build_bundle(&dir);
    let report = elastic_daemon_round_trip(&dir, &sgi, &format!("{prefix}.fq"), "4");
    assert!(report.contains("elastic schedule: 4 pools"), "{report}");
}

#[test]
fn elastic_daemon_boots_when_shards_exceed_the_reference_length() {
    // A 300 bp store cannot hold 4096 coordinate ranges: the index clamps
    // to its non-empty ones, and the pool placement must be sized by what
    // the index kept — sizing it by the request panicked at boot.
    let dir = TempDir::new("elastic-oversize");
    let prefix = dir.path("tiny");
    run(&[
        "simulate",
        "--out-prefix",
        &prefix,
        "--length",
        "300",
        "--reads",
        "6",
        "--read-len",
        "100",
        "--seed",
        "5",
    ])
    .expect("simulate");
    let sgi = dir.path("tiny.sgi");
    run(&[
        "index",
        "build",
        "--reference",
        &format!("{prefix}.fa"),
        "--vcf",
        &format!("{prefix}.vcf"),
        "--output",
        &sgi,
    ])
    .expect("index build");
    let report = elastic_daemon_round_trip(&dir, &sgi, &format!("{prefix}.fq"), "4096");
    assert!(report.contains("elastic schedule: 4 pools"), "{report}");
}

/// Reads one full MAP reply (status, chunks, summary) off a raw socket.
fn read_reply(reader: &mut std::io::BufReader<std::net::TcpStream>) -> (Vec<u8>, String) {
    use std::io::{BufRead, Read};
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert_eq!(line.trim_end(), "OK", "request must be accepted");
    let mut document = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("reply line");
        let trimmed = line.trim_end();
        if let Some(len) = trimmed.strip_prefix("CHUNK ") {
            let len: usize = len.parse().expect("chunk length");
            let start = document.len();
            document.resize(start + len, 0);
            reader.read_exact(&mut document[start..]).expect("chunk");
        } else if let Some(summary) = trimmed.strip_prefix("END ") {
            return (document, summary.to_owned());
        } else {
            panic!("unexpected reply line {trimmed:?}");
        }
    }
}

#[test]
fn mid_flight_reload_is_zero_downtime_and_byte_identical() {
    use std::io::Write;

    let dir = TempDir::new("reload");
    let (prefix_a, sgi_a) = build_bundle_with(&dir, "bundle-a", "a.sgi", 7);
    let (prefix_b, sgi_b) = build_bundle_with(&dir, "bundle-b", "b.sgi", 8);
    let reads_a = format!("{prefix_a}.fq");
    let reads_b = format!("{prefix_b}.fq");

    // One-shot references: the in-flight request must match index A, the
    // post-reload request must match index B.
    let want_a = dir.path("want-a.sam");
    let want_b = dir.path("want-b.sam");
    run(&[
        "map", "--index", &sgi_a, "--reads", &reads_a, "--format", "sam", "--output", &want_a,
    ])
    .expect("one-shot A");
    run(&[
        "map", "--index", &sgi_b, "--reads", &reads_b, "--format", "sam", "--output", &want_b,
    ])
    .expect("one-shot B");

    let addr_file = dir.path("addr");
    let serve_args: Vec<String> = [
        "serve",
        "--index",
        &sgi_a,
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file,
        "--threads",
        "2",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || dispatch(&serve_args));
    let addr = wait_for_addr(&addr_file);

    // Open a v2 request against index A and send only half its payload:
    // the request is now in flight, pinned to the mapper it opened with.
    let payload = fs::read(&reads_a).unwrap();
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "MAP/2 {} fmt=sam prio=interactive", payload.len()).expect("header");
    let half = payload.len() / 2;
    writer.write_all(&payload[..half]).expect("first half");
    writer.flush().expect("flush");
    // The daemon pins a request when its connection thread has read the
    // header, and says nothing on the wire until the payload is complete.
    // Give that thread time to be scheduled before the swap is asked for:
    // on a loaded two-core box the RELOAD (a ~1 ms load of this store)
    // otherwise wins the race about one time in three.
    std::thread::sleep(std::time::Duration::from_millis(250));

    // Swap the index to B while that request is mid-payload.
    let report = run(&["request", "--addr", &addr, "--reload", &sgi_b]).expect("reload");
    assert!(report.contains("swapped its index"), "{report}");

    // Finish the payload: the reply must be byte-identical to the
    // pre-reload one-shot against A — the swap never touches it.
    writer.write_all(&payload[half..]).expect("second half");
    writer.flush().expect("flush");
    let (document, summary) = read_reply(&mut reader);
    assert_eq!(
        document,
        fs::read(&want_a).unwrap(),
        "in-flight request must keep mapping against the pre-reload index"
    );
    assert!(summary.contains("reads=12"), "{summary}");
    assert!(summary.contains("prio=interactive"), "{summary}");
    assert!(summary.contains("p95us="), "{summary}");
    drop(writer);
    drop(reader);

    // A request opened after the swap maps against index B.
    let got_b = dir.path("got-b.sam");
    run(&[
        "request", "--addr", &addr, "--reads", &reads_b, "--format", "sam", "--output", &got_b,
    ])
    .expect("post-reload request");
    assert_eq!(
        fs::read(&want_b).unwrap(),
        fs::read(&got_b).unwrap(),
        "post-reload request must map against the new index"
    );

    // A reload of a nonexistent path fails without touching the active
    // index or failing any request.
    let missing = dir.path("missing.sgi");
    let err = run(&["request", "--addr", &addr, "--reload", &missing])
        .expect_err("reload of a missing index");
    assert!(err.to_string().contains("reload failed"), "{err}");

    run(&["request", "--addr", &addr, "--shutdown"]).expect("shutdown");
    let report = server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(
        report.contains("served 2 requests (0 cancelled by clients, 0 refused busy, 0 failed)"),
        "{report}"
    );
    assert!(
        report.contains(&format!("reloads: 1, active index: {sgi_b}")),
        "{report}"
    );
    assert!(report.contains("queueing delay interactive:"), "{report}");
    assert!(report.contains("queueing delay normal:"), "{report}");
}

/// A client that stalls — mid request line or mid payload — is answered
/// `ERR` and dropped once the socket timeout passes, instead of holding
/// its connection thread for good; clients that behave are served while
/// the stalled ones are still waiting, and `QUIT` still ends the daemon.
#[test]
fn stalled_clients_are_dropped_after_the_timeout_while_others_are_served() {
    use std::io::{Read, Write};

    let dir = TempDir::new("stall");
    let (prefix, sgi) = build_bundle(&dir);
    let reads = format!("{prefix}.fq");
    let want = dir.path("want.sam");
    run(&[
        "map", "--index", &sgi, "--reads", &reads, "--format", "sam", "--output", &want,
    ])
    .expect("one-shot map --index");

    let addr_file = dir.path("addr");
    let serve_args: Vec<String> = [
        "--index",
        &sgi,
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file,
        "--threads",
        "2",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // The daemon `segram serve` runs, with its 30 s shortened.
    let timeout = Duration::from_millis(1500);
    let server = std::thread::spawn(move || {
        serve_with_timeout(&Options::parse(&serve_args).expect("options"), timeout)
    });
    let addr = wait_for_addr(&addr_file);

    let payload = fs::read(&reads).unwrap();
    let header = format!("MAP/2 {} fmt=sam\n", payload.len());
    let stalled_at = Instant::now();
    let mut mid_header = std::net::TcpStream::connect(&addr).expect("connect");
    mid_header
        .write_all(&header.as_bytes()[..header.len() / 2])
        .expect("half a request line");
    let mut mid_payload = std::net::TcpStream::connect(&addr).expect("connect");
    mid_payload.write_all(header.as_bytes()).expect("header");
    mid_payload
        .write_all(&payload[..payload.len() / 2])
        .expect("half a payload");

    // A well-behaved client is served meanwhile, byte-identically.
    let got = dir.path("got.sam");
    run(&[
        "request", "--addr", &addr, "--reads", &reads, "--format", "sam", "--output", &got,
    ])
    .expect("request beside the stalled clients");
    assert_eq!(fs::read(&want).unwrap(), fs::read(&got).unwrap());

    // Each stalled client gets its ERR line, then end of stream: the
    // daemon let go of the connection, and not before the timeout.
    let mut reply = String::new();
    mid_header.read_to_string(&mut reply).expect("reply");
    assert_eq!(reply, "ERR timed out waiting for the request line\n");
    reply.clear();
    mid_payload.read_to_string(&mut reply).expect("reply");
    assert!(
        reply.starts_with("ERR ") && reply.contains("timed out waiting for the payload"),
        "{reply:?}"
    );
    assert!(stalled_at.elapsed() >= timeout, "dropped early");

    run(&["request", "--addr", &addr, "--shutdown"]).expect("shutdown");
    let report = server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(
        report.contains("served 1 requests (1 cancelled by clients, 0 refused busy, 0 failed)"),
        "{report}"
    );
}

/// The committed store the last format-v1 binary wrote (`index build
/// --buckets 8` of the `ref.fa` + `base.vcf` beside it) is a first-class
/// store to this build: it inspects as v1, maps byte-identically to the
/// v2 store of the same inputs, updates into a v2 child that names it as
/// parent, and a sharded daemon booted on it delta-reloads that child.
#[test]
fn a_format_v1_store_maps_updates_and_delta_reloads() {
    let fixture = |name: &str| {
        format!(
            "{}/../../tests/fixtures/sgi_v1/{name}",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    let (v1, reads) = (fixture("v1.sgi"), fixture("reads.fq"));
    let dir = TempDir::new("v1-compat");

    let inspect_v1 = run(&["index", "inspect", "--index", &v1]).expect("inspect v1");
    assert!(inspect_v1.contains("format v1"), "{inspect_v1}");
    assert!(
        inspect_v1.contains("(graph): 684 bytes at 128, fnv1a64 "),
        "{inspect_v1}"
    );
    let v1_identity = "0xc05126ff82c963b6";
    assert!(
        inspect_v1.contains(&format!("changelog: epoch 0, identity {v1_identity}")),
        "{inspect_v1}"
    );

    let v2 = dir.path("v2.sgi");
    let built = run(&[
        "index",
        "build",
        "--reference",
        &fixture("ref.fa"),
        "--vcf",
        &fixture("base.vcf"),
        "--buckets",
        "8",
        "--output",
        &v2,
    ])
    .expect("index build v2");
    assert!(built.contains("format v2"), "{built}");
    let inspect_v2 = run(&["index", "inspect", "--index", &v2]).expect("inspect v2");
    assert!(
        inspect_v2.contains("(graph): 684 bytes at 128, xxh64 "),
        "{inspect_v2}"
    );

    let map = |index: &str, shards: &str, format: &str, name: &str| {
        let out = dir.path(name);
        run(&[
            "map",
            "--index",
            index,
            "--reads",
            &reads,
            "--both-strands",
            "--format",
            format,
            "--shards",
            shards,
            "--output",
            &out,
        ])
        .expect("map --index");
        fs::read(&out).unwrap()
    };
    for (shards, format) in [("1", "sam"), ("1", "gaf"), ("2", "sam")] {
        let from_v1 = map(&v1, shards, format, "from-v1");
        assert!(from_v1.len() > 800, "the fixture reads map");
        assert_eq!(
            from_v1,
            map(&v2, shards, format, "from-v2"),
            "{format} at --shards {shards} differs between the v1 and v2 stores"
        );
    }

    let child = dir.path("child.sgi");
    let updated = run(&[
        "index",
        "update",
        "--index",
        &v1,
        "--vcf",
        &fixture("delta.vcf"),
        "--output",
        &child,
    ])
    .expect("index update of a v1 store");
    assert!(
        updated.contains(&format!("(parent {v1_identity})")),
        "{updated}"
    );
    let inspect_child = run(&["index", "inspect", "--index", &child]).expect("inspect child");
    assert!(inspect_child.contains("format v2"), "{inspect_child}");
    assert!(
        inspect_child.contains(&format!("parent {v1_identity}")),
        "{inspect_child}"
    );
    // The child of the v2 twin holds the same payloads, so it maps alike.
    let twin_child = dir.path("twin-child.sgi");
    run(&[
        "index",
        "update",
        "--index",
        &v2,
        "--vcf",
        &fixture("delta.vcf"),
        "--output",
        &twin_child,
    ])
    .expect("index update of the v2 store");
    let want_child = map(&child, "2", "sam", "want-child");
    assert_eq!(want_child, map(&twin_child, "2", "sam", "want-twin-child"));

    let addr_file = dir.path("addr");
    let serve_args: Vec<String> = [
        "serve",
        "--index",
        &v1,
        "--shards",
        "2",
        "--both-strands",
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file,
        "--threads",
        "2",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || dispatch(&serve_args));
    let addr = wait_for_addr(&addr_file);
    let request = |name: &str| {
        let out = dir.path(name);
        run(&[
            "request", "--addr", &addr, "--reads", &reads, "--format", "sam", "--output", &out,
        ])
        .expect("request");
        fs::read(&out).unwrap()
    };
    assert_eq!(request("served-v1"), map(&v1, "2", "sam", "want-v1"));
    let reloaded = run(&["request", "--addr", &addr, "--reload", &child]).expect("reload");
    assert!(reloaded.contains("mode=delta epoch=1"), "{reloaded}");
    assert_eq!(request("served-child"), want_child);
    run(&["request", "--addr", &addr, "--shutdown"]).expect("shutdown");
    let report = server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(report.contains("1 delta, 0 full"), "{report}");
}

#[test]
fn new_commands_answer_help() {
    for args in [
        &["index", "build", "--help"][..],
        &["serve", "--help"][..],
        &["request", "--help"][..],
    ] {
        let text = run(args).expect("help");
        assert!(text.contains("OPTIONS"), "{args:?}: {text}");
    }
}
