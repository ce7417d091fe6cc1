#!/usr/bin/env bash
# Multi-stage CI gate for the SeGraM reproduction workspace.
#
# Fully offline by construction: every dependency is a workspace path
# dependency (see segram-testkit), so this script must succeed on a
# machine with no network access and no crates.io cache. `--locked`
# enforces that the committed Cargo.lock stays authoritative.
#
# Tiers (each timed; a failure names its tier):
#   1. build            cargo build --release --locked
#   2. test             cargo test -q --locked
#   3. fmt              cargo fmt --check
#   4. clippy           cargo clippy --all-targets -- -D warnings
#   5. ledger-tests     the perf ledger's own unit tests. `ledger/` (the
#                       harness behind BENCHMARK.json) is a package of its
#                       own, so tiers 1-4 never compile it; this tier makes
#                       a change under crates/* that breaks the API it is
#                       written against fail here, not in the benchmark
#   6. bench-smoke      engine + sharding + store + BitAlign kernel +
#                       graph substrate + seeding benches, 3 samples each,
#                       emitting the (gitignored) BENCH_smoke.json artifact
#   7. determinism      segram map output diffed across --threads 1 vs 4
#   8. shard-determinism  segram map output diffed across --shards 1 vs 4,
#                       crossed with --threads 1 vs 4; then `--shards 1`,
#                       `--shards 1 --schedule elastic`, `--shards 3` and
#                       `--shards 4` cmp'd against the flagless document,
#                       from the GFA and from a persistent store (no
#                       --shards *is* one shard; a store loads already
#                       split)
#   9. elastic-shards   `--schedule elastic` (per-shard-group worker pools
#                       over a boot-time placement, routed batches) diffed
#                       against the default fanout schedule across --shards
#                       1 vs 4 crossed with --threads 1 vs 4; the stealing
#                       leg run twice, its pool placement diffed; then an
#                       elastic daemon booted with more --shards than its
#                       reference has bases, one reply diffed against the
#                       one-shot run
#  10. backend-matrix   segram map SAM and GAF diffed across --threads 1
#                       vs 4; then all four mappers (segram/graphaligner/
#                       vg/hga) through `eval compare --json` at both
#                       thread counts, per-backend counts diffed (the
#                       binary writes documents for the native index only)
#  11. overlapped-io    the framer -> producer-decode -> writer-thread
#                       path: the same sweep at --threads 1 vs 8, the
#                       high-thread-count stress of the overlapped
#                       pipeline's ordering guarantee
#  12. compressed-io   BGZF input end to end: the FASTQ is re-compressed
#                      with `segram bgzip` (the in-tree DEFLATE encoder,
#                      both fixed and stored modes) and mapped x sam/gaf x
#                      --threads 1/8, each run diffed byte-for-byte
#                      against its plain-input twin; `eval compare` over
#                      both files must count what it counts on the plain
#                      one;
#                      then 400 reads in >= 64 members at --threads 2,
#                      fanout and --shards 4 --schedule elastic, cmp'd
#                      against the plain one-thread document with the
#                      batch count (reads, not members) checked;
#                      then BGZF output: single and split runs with
#                      --compress-output, `gzip -dc` of each diffed against
#                      the plain documents, EOF marker checked
#  13. persistent-serve `segram index build` -> `map --index` diffed against
#                       `map --graph`, then a live `segram serve` daemon:
#                       concurrent requests (one cancelled mid-payload)
#                       diffed against one-shot output, clean shutdown;
#                       then RELOAD of a child store: mode=full on a
#                       flagless (one-shard) daemon, mode=delta at --shards 4
#  14. serve-qos        QoS scheduling + hot reload under load: bulk
#                       requests saturate the workers while interactive
#                       requests overtake them (per-class queueing-delay
#                       ordering asserted from the exit report), a RELOAD
#                       swaps the index mid-run with zero failed requests,
#                       and every reply byte-diffs against its one-shot
#  15. incremental-index the versioned store lifecycle: `index build` v1 ->
#                       `index update` with a delta VCF (also in place,
#                       `cmp`-equal to the new-path child) -> payload identity
#                       against a scratch build over the combined VCF
#                       (inspect checksums + map byte-diff, flat and
#                       sharded; the identity again at --buckets 4 and
#                       20), then a live sharded daemon RELOADed onto
#                       the delta store: the swap must take the dirty-shard
#                       route (mode=delta, dirty < total), serve the new
#                       epoch byte-identically, and fail nothing; then the
#                       committed format-v1 store: inspects as v1, maps as
#                       the v2 store of the same inputs, updates to v2, and
#                       delta-reloads onto that child
set -euo pipefail
cd "$(dirname "$0")"

# Runs one named tier, reporting its duration; failures abort with the
# tier name so CI logs are diagnosable at a glance.
tier() {
    local name="$1"
    shift
    local start=$SECONDS
    echo "== tier: $name =="
    if ! "$@"; then
        echo "FAIL: tier '$name' failed after $((SECONDS - start))s"
        exit 1
    fi
    echo "-- tier '$name' OK in $((SECONDS - start))s"
}

tier build cargo build --release --locked
tier test cargo test -q --locked
tier fmt cargo fmt --check
tier clippy cargo clippy --all-targets --locked -- -D warnings
tier ledger-tests cargo test --release --locked --offline --manifest-path ledger/Cargo.toml

# ---------------------------------------------------------------------------
# Bench smoke: the benchmark binaries must still build and run. Three
# samples per benchmark (SEGRAM_BENCH_SAMPLES) keep this tier fast while
# giving the min-of-samples a little noise rejection; the per-benchmark
# results land in BENCH_smoke.json for CI artifact upload.
# ---------------------------------------------------------------------------
bench_smoke() {
    cargo build --release --locked -p segram-bench || return 1
    local jsonl="$GATE_DIR/bench.jsonl"
    rm -f "$jsonl" BENCH_smoke.json
    SEGRAM_BENCH_SAMPLES=3 SEGRAM_BENCH_JSON="$jsonl" \
        cargo bench -q -p segram-bench --locked \
        --bench engine --bench sharding --bench persist_serve \
        --bench index_update --bench bitalign --bench graph --bench minseed \
        || return 1
    [ -s "$jsonl" ] || { echo "bench run emitted no JSON lines"; return 1; }
    {
        echo '{"benches":['
        paste -sd, - < "$jsonl"
        echo ']}'
    } > BENCH_smoke.json
    echo "  wrote BENCH_smoke.json ($(wc -l < "$jsonl") benchmarks)"
}

GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$GATE_DIR"' EXIT
SEGRAM=target/release/segram

tier bench-smoke bench_smoke

# ---------------------------------------------------------------------------
# End-to-end determinism gates. The engine's one scheduler numbers
# batches on the producer and releases them to the writer thread in input
# order whichever worker (pool) mapped them, and the sharded
# path's seeding router merges per-shard hits back into the monolithic
# candidate order — so SAM/GAF bytes cannot depend on --threads, --shards
# or --schedule.
# ---------------------------------------------------------------------------
map_from() { # --graph|--index, its file, out-file, then extra flags
    local source="$1" file="$2" out="$3"
    shift 3
    "$SEGRAM" map "$source" "$file" --reads "$GATE_DIR/ds.fq" \
        --both-strands --output "$out" "$@" > /dev/null
}
map_once() { # out-file, then extra flags
    map_from --graph "$GATE_DIR/ds.gfa" "$@"
}

determinism_threads() {
    "$SEGRAM" simulate --out-prefix "$GATE_DIR/ds" \
        --length 30000 --reads 16 --read-len 120 --seed 5 > /dev/null || return 1
    local fmt
    for fmt in sam gaf; do
        map_once "$GATE_DIR/t1.$fmt" --format "$fmt" --threads 1 || return 1
        map_once "$GATE_DIR/t4.$fmt" --format "$fmt" --threads 4 || return 1
        diff "$GATE_DIR/t1.$fmt" "$GATE_DIR/t4.$fmt" \
            || { echo "$fmt output differs between --threads 1 and 4"; return 1; }
        echo "  $fmt: identical across --threads 1/4"
    done
}

determinism_shards() {
    # A larger simulated genome so 4 coordinate-range shards (the software
    # stand-ins for per-chromosome/per-channel slices) each hold a
    # non-trivial piece of the index, with reads landing in all of them.
    "$SEGRAM" simulate --out-prefix "$GATE_DIR/ds" \
        --length 60000 --reads 24 --read-len 120 --seed 11 > /dev/null || return 1
    local fmt threads
    for fmt in sam gaf; do
        map_once "$GATE_DIR/s1.$fmt" --format "$fmt" --threads 1 --shards 1 || return 1
        for threads in 1 4; do
            map_once "$GATE_DIR/s4t$threads.$fmt" \
                --format "$fmt" --threads "$threads" --shards 4 || return 1
            diff "$GATE_DIR/s1.$fmt" "$GATE_DIR/s4t$threads.$fmt" \
                || { echo "$fmt output differs for --shards 4 --threads $threads"; return 1; }
        done
        echo "  $fmt: identical across --shards 1/4 x --threads 1/4"
    done

    # No --shards is the one-shard index, not another mapper: spelling the
    # count out, and running it under the elastic schedule (one pool),
    # must write the flagless document — from the GFA and from a
    # persistent store alike. So must 3 and 4 shards, which a store loads
    # already split (two passes over its index section) and a GFA splits
    # in memory.
    "$SEGRAM" index build --reference "$GATE_DIR/ds.fa" --vcf "$GATE_DIR/ds.vcf" \
        --output "$GATE_DIR/ds.sgi" > /dev/null || return 1
    local src file leg
    for fmt in sam gaf; do
        for src in graph index; do
            file="$GATE_DIR/ds.gfa"
            [ "$src" = index ] && file="$GATE_DIR/ds.sgi"
            map_from "--$src" "$file" "$GATE_DIR/flagless.$fmt" \
                --format "$fmt" --threads 2 || return 1
            for leg in "--shards 1" "--shards 1 --schedule elastic" "--shards 3" "--shards 4"; do
                # shellcheck disable=SC2086 # $leg is a flag list
                map_from "--$src" "$file" "$GATE_DIR/one.$fmt" \
                    --format "$fmt" --threads 2 $leg || return 1
                cmp "$GATE_DIR/flagless.$fmt" "$GATE_DIR/one.$fmt" \
                    || { echo "$fmt from --$src: '$leg' differs from the flagless document"
                         return 1; }
            done
        done
        echo "  $fmt: --shards 1, 3, 4 and --shards 1 --schedule elastic identical to flagless (--graph, --index)"
    done
}

elastic_shards() {
    # Same 60 kb dataset as shard-determinism. The elastic schedule — a
    # routing policy on the same loop: per-shard-group worker pools over a
    # shard placement fixed at boot, batches routed by dominant shard
    # group — must produce bytes identical to the
    # default fanout schedule for every shards x threads combination, in
    # both output formats.
    "$SEGRAM" simulate --out-prefix "$GATE_DIR/ds" \
        --length 60000 --reads 24 --read-len 120 --seed 11 > /dev/null || return 1
    local fmt shards threads
    for fmt in sam gaf; do
        map_once "$GATE_DIR/fan.$fmt" --format "$fmt" --threads 1 || return 1
        for shards in 1 4; do
            for threads in 1 4; do
                map_once "$GATE_DIR/el-s$shards-t$threads.$fmt" \
                    --format "$fmt" --threads "$threads" --shards "$shards" \
                    --schedule elastic || return 1
                diff "$GATE_DIR/fan.$fmt" "$GATE_DIR/el-s$shards-t$threads.$fmt" \
                    || { echo "$fmt differs: --schedule elastic --shards $shards --threads $threads"
                         return 1; }
            done
        done
        echo "  $fmt: elastic identical to fanout across --shards 1/4 x --threads 1/4"
    done

    # Stealing: a worker with nothing tagged for its own pool maps another
    # pool's batch, so no pool sits idle. 25 batches over four one-worker
    # pools; the report counts the steals. Run twice: which pool owns
    # which shards is fixed at boot, so the `pool … -> shards` groups must
    # not depend on how the workers were timed.
    local r="$GATE_DIR/el-steal" run
    "$SEGRAM" simulate --out-prefix "$r" \
        --length 60000 --reads 400 --read-len 120 --seed 11 > /dev/null || return 1
    for run in 1 2; do
        "$SEGRAM" map --graph "$r.gfa" --reads "$r.fq" --threads 4 --shards 4 \
            --schedule elastic --output "$r.sam" > "$r.report$run" || return 1
        grep -q "stolen" "$r.report$run" \
            || { echo "elastic report prints no stolen count:"; cat "$r.report$run"; return 1; }
        if grep -Eq '^  pool [0-9]+ .*\): 0 batches' "$r.report$run"; then
            echo "an elastic pool mapped no batch:"; grep "pool" "$r.report$run"; return 1
        fi
        grep -Eo '^  pool [0-9]+ -> shards \[[0-9, ]*\]' "$r.report$run" > "$r.groups$run"
    done
    [ -s "$r.groups1" ] \
        || { echo "elastic report prints no pool placement:"; cat "$r.report1"; return 1; }
    diff "$r.groups1" "$r.groups2" \
        || { echo "the pool placement changed between two identical runs"; return 1; }
    echo "  stealing: every pool mapped batches, steals reported, placement stable"

    # An elastic daemon asked for more shards than its reference has
    # bases: the index clamps to its non-empty coordinate ranges, and the
    # pool placement has to be sized by what the index kept (sizing it by
    # the request panicked at boot). A 2 kb store of its own, because a
    # clamped run keeps one shard per base and each costs an index.
    local d="$GATE_DIR/el-over"
    "$SEGRAM" simulate --out-prefix "$d" \
        --length 2000 --reads 8 --read-len 120 --seed 11 > /dev/null || return 1
    "$SEGRAM" index build --reference "$d.fa" --vcf "$d.vcf" \
        --output "$d.sgi" > /dev/null || return 1
    "$SEGRAM" map --index "$d.sgi" --reads "$d.fq" \
        --output "$d-want.sam" > /dev/null || return 1
    "$SEGRAM" serve --index "$d.sgi" --shards 100000 --schedule elastic \
        --addr 127.0.0.1:0 --addr-file "$d.addr" --threads 2 --quiet \
        > "$d.serve.log" 2>&1 &
    local daemon=$!
    local addr="" i
    for i in $(seq 1 300); do
        [ -s "$d.addr" ] && { addr="$(tr -d '\n' < "$d.addr")"; break; }
        kill -0 "$daemon" 2> /dev/null || break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "elastic daemon with oversize --shards never came up:"
                        cat "$d.serve.log"
                        kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --reads "$d.fq" --format sam \
        --output "$d-got.sam" > /dev/null \
        || { echo "request to the oversize-shards daemon failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --shutdown > /dev/null \
        || { echo "shutdown request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$daemon" || { echo "daemon exited non-zero"; return 1; }
    diff "$d-want.sam" "$d-got.sam" \
        || { echo "oversize-shards elastic reply differs from one-shot map --index"; return 1; }
    grep -q "clamped to" "$d.serve.log" \
        || { echo "daemon did not warn that --shards was clamped"; return 1; }
    echo "  daemon: --shards 100000 on a 2 kb store boots, reply identical to one-shot"
}

tier determinism determinism_threads
tier shard-determinism determinism_shards
tier elastic-shards elastic_shards

# ---------------------------------------------------------------------------
# Backend matrix: `segram map` runs one mapper, the native index, and its
# output must be byte-identical across thread counts. The baselines run
# only behind `eval compare`, through the same engine: their per-backend
# counts must be thread-invariant too (their byte-level property is
# crates/core/tests/backend_props.rs's). Small dataset: the hga baseline
# runs whole-graph DP per read.
# ---------------------------------------------------------------------------
# Prints the per-backend `backend`, `mapped`, `correct` and
# `regions_aligned` lines of `eval compare --json` over all four mappers
# for graph $1 and reads $2 at --threads $3: the counts that depend on
# neither the thread count nor the input's container.
compare_counts() {
    "$SEGRAM" eval compare --graph "$1" --reads "$2" --threads "$3" \
        --json "$2.t$3.json" > /dev/null || return 1
    grep -E '^ *"(backend|mapped|correct|regions_aligned)":' "$2.t$3.json"
}

# Shared sweep over dataset prefix $1 at thread counts $2 and $3: `map`
# SAM and GAF diffed across the two, then the `eval compare` counts —
# used by both the backend-matrix and overlapped-io tiers so the two stay
# in sync.
backend_sweep() {
    local data="$1" lo="$2" hi="$3"
    local fmt threads
    for fmt in sam gaf; do
        for threads in "$lo" "$hi"; do
            "$SEGRAM" map --graph "$data.gfa" --reads "$data.fq" \
                --format "$fmt" --threads "$threads" \
                --output "$data-t$threads.$fmt" > /dev/null || return 1
        done
        diff "$data-t$lo.$fmt" "$data-t$hi.$fmt" \
            || { echo "map $fmt differs between --threads $lo and $hi"; return 1; }
    done
    echo "  map: sam+gaf identical across --threads $lo/$hi"
    for threads in "$lo" "$hi"; do
        compare_counts "$data.gfa" "$data.fq" "$threads" > "$data-cmp-t$threads" || return 1
    done
    diff "$data-cmp-t$lo" "$data-cmp-t$hi" \
        || { echo "eval compare counts differ between --threads $lo and $hi"; return 1; }
    echo "  eval compare: segram/graphaligner/vg/hga counts identical across --threads $lo/$hi"
}

backend_matrix() {
    "$SEGRAM" simulate --out-prefix "$GATE_DIR/bm" \
        --length 20000 --reads 10 --read-len 100 --seed 13 > /dev/null || return 1
    backend_sweep "$GATE_DIR/bm" 1 4
}

tier backend-matrix backend_matrix

# ---------------------------------------------------------------------------
# Overlapped-IO gate: `segram map` frames and decodes FASTQ on the
# producer, maps on the workers, and renders+writes on a dedicated writer
# thread fed by the request's ordered, bounded output. None of that may
# change a single output byte, at any thread count — 8
# threads (more workers than this dataset has batches on small runs) is
# the stress case for the reorder -> writer handoff.
# ---------------------------------------------------------------------------
overlapped_io() {
    "$SEGRAM" simulate --out-prefix "$GATE_DIR/ov" \
        --length 20000 --reads 12 --read-len 100 --seed 31 > /dev/null || return 1
    backend_sweep "$GATE_DIR/ov" 1 8
}

tier overlapped-io overlapped_io

# ---------------------------------------------------------------------------
# Compressed-IO gate: production-shaped input. The simulated FASTQ is
# BGZF-compressed with `segram bgzip` — the in-tree DEFLATE encoder, in
# both fixed-Huffman and stored modes, with small blocks so records
# straddle member boundaries — and `segram map` auto-detects the magic
# bytes and inflates in the producer-side transport stage, which hands the
# engine the records the plain framer would. Every format x thread-count
# run must produce bytes identical to its plain-input twin, `eval compare`
# must count the same on either, and a corrupted stream must fail with a
# named error and remove its output.
# ---------------------------------------------------------------------------
compressed_io() {
    local d="$GATE_DIR/cz"
    "$SEGRAM" simulate --out-prefix "$d" \
        --length 20000 --reads 12 --read-len 100 --seed 37 > /dev/null || return 1
    local mode fmt threads
    for mode in fixed stored; do
        "$SEGRAM" bgzip --input "$d.fq" --output "$d-$mode.fq.gz" \
            --block-bytes 512 --mode "$mode" > /dev/null || return 1
    done
    for fmt in sam gaf; do
        for threads in 1 8; do
            "$SEGRAM" map --graph "$d.gfa" --reads "$d.fq" \
                --format "$fmt" --threads "$threads" \
                --output "$d-plain.$fmt" > /dev/null || return 1
            for mode in fixed stored; do
                "$SEGRAM" map --graph "$d.gfa" --reads "$d-$mode.fq.gz" \
                    --format "$fmt" --threads "$threads" \
                    --output "$d-$mode.$fmt" > /dev/null || return 1
                diff "$d-plain.$fmt" "$d-$mode.$fmt" \
                    || { echo "map $fmt differs: BGZF($mode) vs plain at --threads $threads"
                         return 1; }
            done
        done
    done
    echo "  map: BGZF(fixed+stored) identical to plain, sam+gaf x --threads 1/8"
    compare_counts "$d.gfa" "$d.fq" 2 > "$d-plain.cmp" || return 1
    for mode in fixed stored; do
        compare_counts "$d.gfa" "$d-$mode.fq.gz" 2 > "$d-$mode.cmp" || return 1
        diff "$d-plain.cmp" "$d-$mode.cmp" \
            || { echo "eval compare counts differ: BGZF($mode) vs plain"; return 1; }
    done
    echo "  eval compare: BGZF(fixed+stored) counts identical to plain, all four backends"

    # Batch leg: the runs above map 12 reads, always one batch. Here 400
    # reads arrive in >= 64 members, so a run is 25 sixteen-read batches
    # over two workers (it was 16 *members* a batch), under the fanout and
    # the elastic schedule alike.
    local b="$GATE_DIR/czb" sched members
    "$SEGRAM" simulate --out-prefix "$b" \
        --length 20000 --reads 400 --read-len 100 --seed 39 > /dev/null || return 1
    "$SEGRAM" map --graph "$b.gfa" --reads "$b.fq" --threads 1 \
        --output "$b-plain.sam" > /dev/null || return 1
    for mode in fixed stored; do
        members="$("$SEGRAM" bgzip --input "$b.fq" --output "$b-$mode.fq.gz" \
            --block-bytes 1024 --mode "$mode" | sed -n 's/^wrote \([0-9]*\) BGZF blocks.*/\1/p')"
        [ "${members:-0}" -ge 64 ] \
            || { echo "batch leg: only ${members:-0} BGZF($mode) members"; return 1; }
        for sched in "" "--shards 4 --schedule elastic"; do
            # shellcheck disable=SC2086
            "$SEGRAM" map --graph "$b.gfa" --reads "$b-$mode.fq.gz" --threads 2 $sched \
                --output "$b-$mode.sam" > "$b-$mode.report" || return 1
            cmp "$b-plain.sam" "$b-$mode.sam" \
                || { echo "BGZF($mode) --threads 2 $sched differs from plain --threads 1"
                     return 1; }
            grep -q "(25 batches of up to 16 reads)" "$b-$mode.report" \
                || { echo "BGZF($mode) --threads 2 $sched: batches are not 16 reads:"
                     grep "^threads:" "$b-$mode.report"; return 1; }
        done
    done
    echo "  batches: 400 reads in >= 64 members = 25 batches, fanout + elastic identical to plain"

    # Corruption must fail mid-stream with the named class, exit 1, and
    # no partial output left behind.
    head -c 600 "$d-stored.fq.gz" > "$d-trunc.fq.gz"
    if "$SEGRAM" map --graph "$d.gfa" --reads "$d-trunc.fq.gz" \
        --output "$d-trunc.sam" > /dev/null 2> "$d-trunc.err"; then
        echo "truncated BGZF input mapped successfully"; return 1
    fi
    grep -q "truncated inside a BGZF block" "$d-trunc.err" \
        || { echo "truncation error not named:"; cat "$d-trunc.err"; return 1; }
    [ ! -e "$d-trunc.sam" ] \
        || { echo "partial output left behind after BGZF failure"; return 1; }
    echo "  corruption: named error, exit 1, no orphaned output"

    # Mixed defects: a malformed record (line 8, quality one short) in the
    # first member, a broken CRC32 in the second. Decode runs on the
    # producer right behind the transport stage, so the fanout and the
    # elastic schedule both name the record, the file's first defect.
    awk 'NR == 8 { print substr($0, 2); next } { print }' "$d.fq" > "$d-defect.fq"
    "$SEGRAM" bgzip --input "$d-defect.fq" --output "$d-defect.fq.gz" \
        --block-bytes 1024 --mode stored > /dev/null || return 1
    local bsize off byte
    bsize="$(od -An -tu2 -j16 -N2 "$d-defect.fq.gz" | tr -d ' ')"
    off=$((bsize + 1 + 18 + 5)) # a stored payload byte of the second member
    byte="$(od -An -tu1 -j"$off" -N1 "$d-defect.fq.gz" | tr -d ' ')"
    # shellcheck disable=SC2059 # the format is the escaped byte
    printf "\\x$(printf %02x $((byte ^ 0x20)))" \
        | dd of="$d-defect.fq.gz" bs=1 seek="$off" conv=notrunc status=none
    local leg=0
    for sched in "" "--shards 4 --schedule elastic"; do
        leg=$((leg + 1))
        # shellcheck disable=SC2086
        if "$SEGRAM" map --graph "$d.gfa" --reads "$d-defect.fq.gz" --threads 2 $sched \
            --output "$d-defect.sam" > /dev/null 2> "$d-defect.$leg.err"; then
            echo "mixed-defect input mapped successfully ($sched)"; return 1
        fi
        [ ! -e "$d-defect.sam" ] \
            || { echo "partial output left behind ($sched)"; return 1; }
    done
    cmp "$d-defect.1.err" "$d-defect.2.err" \
        || { echo "fanout and elastic name different defects:"; cat "$d-defect".*.err; return 1; }
    grep -q "line 8: quality length" "$d-defect.1.err" \
        || { echo "the malformed record is not named:"; cat "$d-defect.1.err"; return 1; }
    echo "  mixed defects: fanout and elastic both name the first one (line 8)"

    # Output leg: --compress-output moves deflate to a thread per document
    # and nothing else. BGZF is multi-member gzip, so stock `gzip -dc` must
    # give back the plain documents, single and split alike, and a clean
    # close ends on the canonical 28-byte EOF marker.
    if ! command -v gzip > /dev/null; then
        echo "  note: gzip not found, skipping the --compress-output leg"
        return 0
    fi
    # Enough reads that the SAM document spans more than one BGZF member.
    local o="$GATE_DIR/czo"
    "$SEGRAM" simulate --out-prefix "$o" \
        --length 20000 --reads 400 --read-len 100 --seed 41 > /dev/null || return 1
    local eof="1f8b08040000000000ff0600424302001b0003000000000000000000"
    for fmt in sam gaf; do
        "$SEGRAM" map --graph "$o.gfa" --reads "$o.fq" --format "$fmt" \
            --output "$o.$fmt" > /dev/null || return 1
        "$SEGRAM" map --graph "$o.gfa" --reads "$o.fq" --format "$fmt" \
            --output "$o-single.$fmt.gz" --compress-output > /dev/null || return 1
    done
    "$SEGRAM" map --graph "$o.gfa" --reads "$o.fq" --threads 4 \
        --output-sam "$o-split.sam.gz" --output-gaf "$o-split.gaf.gz" \
        --compress-output > /dev/null || return 1
    local run
    for fmt in sam gaf; do
        for run in single split; do
            gzip -dc "$o-$run.$fmt.gz" | diff "$o.$fmt" - > /dev/null \
                || { echo "$run $fmt: gzip -dc of the BGZF output differs from the plain document"
                     return 1; }
            [ "$(tail -c 28 "$o-$run.$fmt.gz" | od -An -v -tx1 | tr -d ' \n')" = "$eof" ] \
                || { echo "$run $fmt: BGZF output does not end on the EOF marker"; return 1; }
        done
    done
    echo "  output: --compress-output single+split gunzip to the plain sam+gaf, EOF marker present"
}

tier compressed-io compressed_io

# ---------------------------------------------------------------------------
# Persistent-index + serve gate: `segram index build` writes the graph and
# index to a .sgi once; `segram map --index` must produce bytes identical
# to `map --graph`; and a live `segram serve` daemon must answer
# concurrent requests with those same bytes while a third client
# disconnects mid-payload (cancelling only its own request), then shut
# down cleanly on QUIT.
# ---------------------------------------------------------------------------
# Splits the data lines of VCF $1 in half by position: the first half to
# $2 (an epoch-0 store's variants), the second to $3 (`index update`'s
# delta).
split_vcf() {
    awk -v base="$2" -v delta="$3" \
        '/^#/ { print > base; print > delta; next }
         { data[++n] = $0 }
         END { mid = int(n / 2)
               for (i = 1; i <= mid; i++) print data[i] > base
               for (i = mid + 1; i <= n; i++) print data[i] > delta }' \
        "$1" || return 1
    [ -s "$2" ] && [ -s "$3" ] \
        || { echo "VCF split produced an empty half"; return 1; }
}

# The payload identity `index inspect` prints for store $1.
store_identity() {
    "$SEGRAM" index inspect --index "$1" \
        | sed -n 's/.*changelog: epoch [0-9]*, identity \(0x[0-9a-f]*\),.*/\1/p'
}

serve_gate() {
    local d="$GATE_DIR/sv"
    "$SEGRAM" simulate --out-prefix "$d" \
        --length 30000 --reads 12 --read-len 120 --seed 17 > /dev/null || return 1
    "$SEGRAM" index build --reference "$d.fa" --vcf "$d.vcf" \
        --output "$d.sgi" > /dev/null || return 1

    local fmt
    for fmt in sam gaf; do
        "$SEGRAM" map --graph "$d.gfa" --reads "$d.fq" --format "$fmt" \
            --output "$d-graph.$fmt" > /dev/null || return 1
        "$SEGRAM" map --index "$d.sgi" --reads "$d.fq" --format "$fmt" \
            --output "$d-index.$fmt" > /dev/null || return 1
        diff "$d-graph.$fmt" "$d-index.$fmt" \
            || { echo "$fmt differs between map --graph and map --index"; return 1; }
        echo "  $fmt: map --index identical to map --graph"
    done

    "$SEGRAM" serve --index "$d.sgi" --addr 127.0.0.1:0 \
        --addr-file "$d.addr" --threads 2 --quiet > "$d.serve.log" 2>&1 &
    local daemon=$!
    local addr="" i
    for i in $(seq 1 300); do
        [ -s "$d.addr" ] && { addr="$(tr -d '\n' < "$d.addr")"; break; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "daemon never wrote $d.addr"
                        kill "$daemon" 2> /dev/null || true; return 1; }

    # Two full requests and one mid-payload disconnect, all in flight at
    # once: the survivors must still diff clean against the one-shot run.
    "$SEGRAM" request --addr "$addr" --reads "$d.fq" --format sam \
        --output "$d-serve.sam" > /dev/null &
    local req_sam=$!
    "$SEGRAM" request --addr "$addr" --reads "$d.fq" --format gaf \
        --output "$d-serve.gaf" > /dev/null &
    local req_gaf=$!
    "$SEGRAM" request --addr "$addr" --reads "$d.fq" --cancel-after 100 \
        > /dev/null \
        || { echo "cancel-after request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$req_sam" || { echo "concurrent sam request failed"
                         kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$req_gaf" || { echo "concurrent gaf request failed"
                         kill "$daemon" 2> /dev/null || true; return 1; }
    for fmt in sam gaf; do
        diff "$d-index.$fmt" "$d-serve.$fmt" \
            || { echo "served $fmt differs from one-shot map --index"
                 kill "$daemon" 2> /dev/null || true; return 1; }
        echo "  $fmt: served bytes identical to one-shot map --index"
    done

    "$SEGRAM" request --addr "$addr" --shutdown > /dev/null \
        || { echo "shutdown request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$daemon" || { echo "daemon exited non-zero"; return 1; }
    grep -q "served" "$d.serve.log" \
        || { echo "daemon report missing from $d.serve.log"; return 1; }
    echo "  daemon: $(grep 'served' "$d.serve.log")"

    # RELOAD reads its route off the active index. A child store (its
    # parent checksum names the active one) is swapped in shard by shard
    # when the index has more than one shard, and built whole when it has
    # one — which is what a daemon without --shards runs.
    split_vcf "$d.vcf" "$d-base.vcf" "$d-delta.vcf" || return 1
    "$SEGRAM" index build --reference "$d.fa" --vcf "$d-base.vcf" \
        --output "$d-v1.sgi" > /dev/null || return 1
    "$SEGRAM" index update --index "$d-v1.sgi" --vcf "$d-delta.vcf" \
        --output "$d-v2.sgi" > /dev/null || return 1
    local flags want
    for flags in "" "--shards 4"; do
        want=full
        [ -n "$flags" ] && want=delta
        rm -f "$d.addr"
        # shellcheck disable=SC2086 # $flags is a flag list
        "$SEGRAM" serve --index "$d-v1.sgi" --addr 127.0.0.1:0 \
            --addr-file "$d.addr" --threads 2 --quiet $flags > "$d.serve.log" 2>&1 &
        daemon=$!
        addr=""
        for i in $(seq 1 300); do
            [ -s "$d.addr" ] && { addr="$(tr -d '\n' < "$d.addr")"; break; }
            sleep 0.1
        done
        [ -n "$addr" ] || { echo "daemon never wrote $d.addr"
                            kill "$daemon" 2> /dev/null || true; return 1; }
        "$SEGRAM" request --addr "$addr" --reload "$d-v2.sgi" > "$d.reload.log" \
            || { echo "reload request failed"
                 kill "$daemon" 2> /dev/null || true; return 1; }
        "$SEGRAM" request --addr "$addr" --shutdown > /dev/null \
            || { echo "shutdown request failed"
                 kill "$daemon" 2> /dev/null || true; return 1; }
        wait "$daemon" || { echo "daemon exited non-zero"; return 1; }
        grep -q "mode=$want" "$d.reload.log" \
            || { echo "serve ${flags:-without --shards}: RELOAD of a child store is not mode=$want:"
                 cat "$d.reload.log"; return 1; }
        echo "  reload of a child store, serve ${flags:-without --shards}: mode=$want"
    done
}

tier persistent-serve serve_gate

# ---------------------------------------------------------------------------
# Serve QoS + hot-reload gate. Two bulk clients stack many batches on the
# daemon while interactive clients arrive late and must overtake them: the
# exit report's per-class queueing-delay percentiles have to show
# interactive p95 strictly below bulk p50. Mid-run a RELOAD swaps the
# index to a second bundle: requests opened before the swap (the bulk
# clients) must still byte-match the old index's one-shot, requests opened
# after it must byte-match the new one, and nothing may fail.
# ---------------------------------------------------------------------------
serve_qos() {
    local a="$GATE_DIR/qa" b="$GATE_DIR/qb"
    "$SEGRAM" simulate --out-prefix "$a" \
        --length 30000 --reads 12 --read-len 120 --seed 19 > /dev/null || return 1
    "$SEGRAM" simulate --out-prefix "$b" \
        --length 30000 --reads 12 --read-len 120 --seed 23 > /dev/null || return 1
    "$SEGRAM" index build --reference "$a.fa" --vcf "$a.vcf" \
        --output "$a.sgi" > /dev/null || return 1
    "$SEGRAM" index build --reference "$b.fa" --vcf "$b.vcf" \
        --output "$b.sgi" > /dev/null || return 1

    # Bulk payload: the A reads concatenated 32x (384 reads = 12 engine
    # batches per request), so bulk requests hold the queue long enough
    # for interactive clients to demonstrably jump ahead.
    local i
    for i in $(seq 1 32); do cat "$a.fq"; done > "$a-bulk.fq"
    "$SEGRAM" map --index "$a.sgi" --reads "$a-bulk.fq" --format sam \
        --output "$a-bulk-want.sam" > /dev/null || return 1
    "$SEGRAM" map --index "$a.sgi" --reads "$a.fq" --format sam \
        --output "$a-want.sam" > /dev/null || return 1
    "$SEGRAM" map --index "$b.sgi" --reads "$b.fq" --format sam \
        --output "$b-want.sam" > /dev/null || return 1

    "$SEGRAM" serve --index "$a.sgi" --addr 127.0.0.1:0 \
        --addr-file "$a.addr" --threads 2 --max-queued 64 --quiet \
        > "$a.serve.log" 2>&1 &
    local daemon=$!
    local addr=""
    for i in $(seq 1 300); do
        [ -s "$a.addr" ] && { addr="$(tr -d '\n' < "$a.addr")"; break; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "daemon never wrote $a.addr"
                        kill "$daemon" 2> /dev/null || true; return 1; }

    # Saturate the workers with two bulk-class clients, then send
    # interactive clients (one with a deadline hint) that must overtake
    # the queued bulk batches.
    "$SEGRAM" request --addr "$addr" --reads "$a-bulk.fq" --priority bulk \
        --output "$a-bulk1.sam" > /dev/null &
    local bulk1=$!
    "$SEGRAM" request --addr "$addr" --reads "$a-bulk.fq" --priority bulk \
        --output "$a-bulk2.sam" > /dev/null &
    local bulk2=$!
    sleep 0.3
    "$SEGRAM" request --addr "$addr" --reads "$a.fq" --priority interactive \
        --retry --output "$a-int1.sam" > /dev/null \
        || { echo "interactive request 1 failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --reads "$a.fq" --priority interactive \
        --deadline-ms 50 --output "$a-int2.sam" > /dev/null \
        || { echo "interactive request 2 failed"
             kill "$daemon" 2> /dev/null || true; return 1; }

    # Hot swap to bundle B while the bulk requests are still in flight.
    "$SEGRAM" request --addr "$addr" --reload "$b.sgi" > /dev/null \
        || { echo "reload request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --reads "$b.fq" --format sam \
        --output "$b-got.sam" > /dev/null \
        || { echo "post-reload request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }

    wait "$bulk1" || { echo "bulk request 1 failed"
                       kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$bulk2" || { echo "bulk request 2 failed"
                       kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --shutdown > /dev/null \
        || { echo "shutdown request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$daemon" || { echo "daemon exited non-zero"; return 1; }

    # Byte identity on both sides of the swap: bulk clients opened on A
    # and must match A's one-shot even though they finished after the
    # reload; the post-reload client must match B's one-shot.
    local out
    for out in "$a-bulk1.sam" "$a-bulk2.sam"; do
        diff "$a-bulk-want.sam" "$out" \
            || { echo "bulk reply differs from one-shot map --index"; return 1; }
    done
    for out in "$a-int1.sam" "$a-int2.sam"; do
        diff "$a-want.sam" "$out" \
            || { echo "interactive reply differs from one-shot map --index"; return 1; }
    done
    diff "$b-want.sam" "$b-got.sam" \
        || { echo "post-reload reply differs from new index's one-shot"; return 1; }
    echo "  byte identity holds across the swap (bulk on A, post-reload on B)"

    grep -q "(0 cancelled by clients, 0 refused busy, 0 failed)" "$a.serve.log" \
        || { echo "requests failed during the QoS run:"
             grep "served" "$a.serve.log"; return 1; }
    grep -q "reloads: 1, active index: $b.sgi" "$a.serve.log" \
        || { echo "reload not reflected in the daemon report:"
             grep "reloads" "$a.serve.log" || true; return 1; }

    # The QoS contract under load: interactive queueing delay p95 must sit
    # strictly below bulk p50.
    local int_p95 bulk_p50
    int_p95=$(sed -n 's/.*queueing delay interactive:.* p95us=\([0-9][0-9]*\).*/\1/p' \
        "$a.serve.log")
    bulk_p50=$(sed -n 's/.*queueing delay bulk: [^ ]* p50us=\([0-9][0-9]*\).*/\1/p' \
        "$a.serve.log")
    [ -n "$int_p95" ] && [ -n "$bulk_p50" ] \
        || { echo "per-class queueing-delay lines missing from the report:"
             grep "queueing delay" "$a.serve.log" || true; return 1; }
    [ "$int_p95" -lt "$bulk_p50" ] \
        || { echo "QoS ordering violated: interactive p95=${int_p95}us >= bulk p50=${bulk_p50}us"
             return 1; }
    echo "  interactive p95=${int_p95}us < bulk p50=${bulk_p50}us"
    echo "  daemon: $(grep 'served' "$a.serve.log")"
}

tier serve-qos serve_qos

# ---------------------------------------------------------------------------
# Incremental index gate. The simulated VCF is split in half by position:
# the first half seeds the epoch-0 store, the second half arrives later
# as `index update`'s delta. The updated store must carry the same
# payload identity as a from-scratch build over the full VCF (changelog
# checksums via `index inspect`, plus a map byte-diff both flat and
# sharded), and a live sharded daemon RELOADed onto it must take the
# dirty-shard delta route — swapping strictly fewer shards than it has —
# while every reply stays byte-identical to its one-shot twin.
# ---------------------------------------------------------------------------
incremental_index() {
    local d="$GATE_DIR/ii"
    "$SEGRAM" simulate --out-prefix "$d" \
        --length 30000 --reads 12 --read-len 120 --seed 29 > /dev/null || return 1
    split_vcf "$d.vcf" "$d-base.vcf" "$d-delta.vcf" || return 1

    "$SEGRAM" index build --reference "$d.fa" --vcf "$d-base.vcf" \
        --output "$d-v1.sgi" > /dev/null || return 1
    "$SEGRAM" index update --index "$d-v1.sgi" --vcf "$d-delta.vcf" \
        --output "$d-v2.sgi" > "$d.update.log" || return 1
    grep -q "epoch 1" "$d.update.log" \
        || { echo "update did not advance the epoch:"; cat "$d.update.log"; return 1; }
    grep -q "locations carried" "$d.update.log" \
        || { echo "update report lost its delta counters:"; cat "$d.update.log"; return 1; }
    echo "  $(grep 'touched' "$d.update.log")"

    # In place (--output equal to --index): the update reads the parent's
    # index section off the file it replaces, so the child must be the
    # out-of-place child byte for byte.
    cp "$d-v1.sgi" "$d-inplace.sgi" || return 1
    "$SEGRAM" index update --index "$d-inplace.sgi" --vcf "$d-delta.vcf" \
        --output "$d-inplace.sgi" > /dev/null || return 1
    cmp "$d-inplace.sgi" "$d-v2.sgi" \
        || { echo "the in-place update differs from the out-of-place one"; return 1; }
    echo "  in-place update == out-of-place update"

    # Payload identity against the scratch build over the combined VCF:
    # the changelog identity is FNV-1a over the two section checksums the
    # table records for the GRAPH and INDEX payloads, so equal identities
    # mean byte-equal mapping state.
    "$SEGRAM" index build --reference "$d.fa" --vcf "$d.vcf" \
        --output "$d-scratch.sgi" > /dev/null || return 1
    local id_v2 id_scratch
    id_v2=$(store_identity "$d-v2.sgi")
    id_scratch=$(store_identity "$d-scratch.sgi")
    [ -n "$id_v2" ] && [ "$id_v2" = "$id_scratch" ] \
        || { echo "updated store identity $id_v2 != scratch $id_scratch"; return 1; }
    echo "  payload identity $id_v2 matches the scratch build"

    # The same identity at a few large buckets and at mostly empty ones:
    # the edge cases of the build's bucket runs and of the update's
    # streamed merge.
    local bits
    for bits in 4 20; do
        "$SEGRAM" index build --reference "$d.fa" --vcf "$d-base.vcf" \
            --buckets "$bits" --output "$d-b$bits-v1.sgi" > /dev/null || return 1
        "$SEGRAM" index update --index "$d-b$bits-v1.sgi" --vcf "$d-delta.vcf" \
            --output "$d-b$bits-v2.sgi" > /dev/null || return 1
        "$SEGRAM" index build --reference "$d.fa" --vcf "$d.vcf" \
            --buckets "$bits" --output "$d-b$bits-scratch.sgi" > /dev/null || return 1
        id_v2=$(store_identity "$d-b$bits-v2.sgi")
        id_scratch=$(store_identity "$d-b$bits-scratch.sgi")
        [ -n "$id_v2" ] && [ "$id_v2" = "$id_scratch" ] \
            || { echo "--buckets $bits: updated $id_v2 != scratch $id_scratch"; return 1; }
    done
    echo "  update == scratch identity also at --buckets 4 and 20"

    # Mapping byte-identity, monolithic and re-sharded.
    local shards
    for shards in 1 4; do
        "$SEGRAM" map --index "$d-v2.sgi" --reads "$d.fq" --format sam \
            --shards "$shards" --output "$d-upd$shards.sam" > /dev/null || return 1
        "$SEGRAM" map --index "$d-scratch.sgi" --reads "$d.fq" --format sam \
            --shards "$shards" --output "$d-scr$shards.sam" > /dev/null || return 1
        diff "$d-upd$shards.sam" "$d-scr$shards.sam" \
            || { echo "updated store maps differently at --shards $shards"; return 1; }
    done

    # Live daemon on v1, sharded; RELOAD onto v2 must take the delta
    # route (v2's parent checksum names the active store) and swap only
    # the dirty shards.
    "$SEGRAM" map --index "$d-v1.sgi" --reads "$d.fq" --format sam \
        --output "$d-v1-want.sam" > /dev/null || return 1
    "$SEGRAM" serve --index "$d-v1.sgi" --addr 127.0.0.1:0 \
        --addr-file "$d.addr" --threads 2 --shards 4 --quiet \
        > "$d.serve.log" 2>&1 &
    local daemon=$! addr="" i
    for i in $(seq 1 300); do
        [ -s "$d.addr" ] && { addr="$(tr -d '\n' < "$d.addr")"; break; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "daemon never wrote $d.addr"
                        kill "$daemon" 2> /dev/null || true; return 1; }

    "$SEGRAM" request --addr "$addr" --reads "$d.fq" --format sam \
        --output "$d-pre.sam" > /dev/null \
        || { echo "pre-reload request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --reload "$d-v2.sgi" > "$d.reload.log" \
        || { echo "reload request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    grep -q "mode=delta" "$d.reload.log" \
        || { echo "reload did not take the delta route:"; cat "$d.reload.log"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --reads "$d.fq" --format sam \
        --output "$d-post.sam" > /dev/null \
        || { echo "post-reload request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --shutdown > /dev/null \
        || { echo "shutdown request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$daemon" || { echo "daemon exited non-zero"; return 1; }

    diff "$d-v1-want.sam" "$d-pre.sam" \
        || { echo "pre-reload reply differs from v1's one-shot"; return 1; }
    diff "$d-upd1.sam" "$d-post.sam" \
        || { echo "post-reload reply differs from v2's one-shot"; return 1; }
    grep -q "0 failed)" "$d.serve.log" \
        || { echo "requests failed across the delta reload:"
             grep "served" "$d.serve.log"; return 1; }
    grep -q "reloads: 1, active index: $d-v2.sgi" "$d.serve.log" \
        || { echo "reload not reflected in the daemon report:"
             grep "reloads" "$d.serve.log" || true; return 1; }
    local dirty
    dirty=$(sed -n 's/.*dirty shards swapped: \([0-9][0-9]*\).*/\1/p' "$d.serve.log")
    [ -n "$dirty" ] && [ "$dirty" -ge 1 ] && [ "$dirty" -lt 4 ] \
        || { echo "delta swap did not stay partial (dirty=$dirty of 4):"
             grep "reloads" "$d.serve.log" || true; return 1; }
    echo "  $(grep 'mode=delta' "$d.reload.log")"
    echo "  daemon: $(grep 'reloads:' "$d.serve.log")"
    format_v1_compat
}

# Format compatibility leg: tests/fixtures/sgi_v1/v1.sgi is `index build
# --buckets 8` of the ref.fa + base.vcf beside it, written by the last
# binary that wrote format v1 (FNV-1a section checksums). It must inspect
# as v1, map byte-identically to this build's v2 store of the same inputs,
# update into a v2 child, and a sharded daemon booted on it must take the
# delta route onto that child.
format_v1_compat() {
    local f=tests/fixtures/sgi_v1 c="$GATE_DIR/compat"
    "$SEGRAM" index inspect --index "$f/v1.sgi" > "$c.inspect1" || return 1
    grep -q "format v1" "$c.inspect1" && grep -q "fnv1a64" "$c.inspect1" \
        || { echo "the v1 fixture does not inspect as format v1:"; cat "$c.inspect1"; return 1; }
    "$SEGRAM" index build --reference "$f/ref.fa" --vcf "$f/base.vcf" --buckets 8 \
        --output "$c-v2.sgi" > /dev/null || return 1
    "$SEGRAM" map --index "$f/v1.sgi" --reads "$f/reads.fq" --both-strands --format sam \
        --output "$c-v1.sam" > /dev/null || return 1
    "$SEGRAM" map --index "$c-v2.sgi" --reads "$f/reads.fq" --both-strands --format sam \
        --output "$c-v2.sam" > /dev/null || return 1
    cmp "$c-v1.sam" "$c-v2.sam" \
        || { echo "the v1 store maps differently from the v2 store of the same inputs"; return 1; }
    "$SEGRAM" index update --index "$f/v1.sgi" --vcf "$f/delta.vcf" \
        --output "$c-child.sgi" > /dev/null || return 1
    "$SEGRAM" index inspect --index "$c-child.sgi" | grep -q "format v2" \
        || { echo "index update of a v1 store did not write format v2"; return 1; }

    "$SEGRAM" serve --index "$f/v1.sgi" --addr 127.0.0.1:0 --addr-file "$c.addr" \
        --threads 2 --shards 2 --quiet > "$c.serve.log" 2>&1 &
    local daemon=$! addr="" i
    for i in $(seq 1 300); do
        [ -s "$c.addr" ] && { addr="$(tr -d '\n' < "$c.addr")"; break; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "daemon never wrote $c.addr"
                        kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --reload "$c-child.sgi" > "$c.reload.log" \
        || { echo "reload of the v2 child failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    "$SEGRAM" request --addr "$addr" --shutdown > /dev/null \
        || { echo "shutdown request failed"
             kill "$daemon" 2> /dev/null || true; return 1; }
    wait "$daemon" || { echo "daemon exited non-zero"; return 1; }
    grep -q "mode=delta" "$c.reload.log" \
        || { echo "v1 parent -> v2 child did not take the delta route:"
             cat "$c.reload.log"; return 1; }
    echo "  format v1 fixture: maps as v2, updates to v2, $(grep -o 'mode=delta.*' "$c.reload.log")"
}

tier incremental-index incremental_index

echo "CI OK in ${SECONDS}s"
