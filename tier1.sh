#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, lint-clean
# workspace. CI and pre-merge checks run exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

# The bare root build only covers the facade lib; the smoke below runs
# the release binary, so build frac-cli explicitly too.
cargo build --release -p frac -p frac-cli
# Every package's unit, integration and doc tests. Among them, the suites
# below carry the guarantees the rest of this gate builds on:
# - fault isolation (frac-core fault_injection): fit + score survive
#   injected faults;
# - crash safety (frac-core crash_resume): resume after a kill at any
#   journal byte is bitwise identical to an uninterrupted run;
# - shard supervision (frac-core shard_supervision): crash-looping and
#   mid-run-killed workers neither lose nor double-count a target, and the
#   merged model is bitwise identical to a single-process run
#   (DESIGN.md §14);
# - telemetry (frac-core telemetry): well-nested span trees under injected
#   faults, and traced runs bit-identical to untraced ones;
# - Gram strategy (frac-learn gram_equivalence): the Gram dual loop matches
#   the primal fast path (objective ≤ 1e-8 relative; DESIGN.md §13);
# - serving (frac-core serve, serve_fuzz): daemon replies bit-identical to
#   `frac score`, malformed lines quarantined per-record, overload shed
#   with `busy`, hot reload validated off-path with rollback, drain on
#   shutdown — plus wire-protocol fuzzing (byte soup, oversized lines,
#   disconnects);
# - out of core (frac-dataset fcb_corruption, frac-core fcb_equivalence):
#   FCB round trips are bit-exact and any corruption (truncation, bit
#   flips, foreign bytes) is rejected without a panic (FORMATS.md §2);
#   models fitted from a memory-mapped FCB file score bit-identically to
#   TSV-fitted ones at any thread count.
cargo test -q --workspace
# Shard supervision once more in release: fast fits put many records in
# one journal flush window, which is where an abort-after fault must still
# kill a worker at exactly its record count. The debug build rarely gets
# there.
cargo test --release -q -p frac-core --test shard_supervision
# The worker pool's tests in release too: claims race only when items are
# fast, which the debug build rarely makes them.
cargo test --release -q -p rayon
cargo clippy --workspace --all-targets -- -D warnings
# frac-core and frac-learn deny unwrap/expect in non-test code via
# crate-root cfg_attr (flags passed here would leak into dependency
# builds); this run enforces those lints.
cargo clippy -p frac-core -p frac-learn --lib
# The workspace's only unsafe code is in frac-dataset — the SIMD kernel
# module (kernels.rs: the AVX2 kernels and the PCLMULQDQ CRC-32 fold) and
# the read-only file mapping (mmap.rs), each under
# #![deny(unsafe_op_in_unsafe_fn)] — in the serve daemon's signal hookup
# in frac-cli, and in vendor/rayon's worker pool (pool.rs: a posted job's
# lifetime erased while its caller blocks, under the crate's
# #![deny(unsafe_op_in_unsafe_fn)]); keep the hosting crates lint-clean on
# their own, independent of workspace-wide runs.
cargo clippy -p frac-dataset --lib -- -D warnings
cargo clippy -p frac-cli -- -D warnings
cargo clippy -p rayon -- -D warnings
# The documented surface is part of the gate: every public item has docs
# (frac-core/frac-learn deny missing_docs) and no doc link is broken.
# Library crates only — the vendored stubs are workspace members but not
# ours to lint, and the `frac` bin would collide with the facade's docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p frac -p frac-dataset -p frac-learn -p frac-projection -p frac-synth \
  -p frac-core -p frac-baselines -p frac-eval
# SIMD-tier guarantee: the fast/strict and Gram/primal equivalence suites
# must also pass with vectorization force-disabled — the portable unrolled
# tier is a first-class execution path, not just a fallback (DESIGN.md
# §12–13). Under it the CRC-32 suite streams through slice-by-8 alone.
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-dataset --test kernel_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-dataset --test crc_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-learn --test solver_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-core --test pool_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-learn --test gram_equivalence

# The counter gate's exact values live in tier1.pins, one `name<TAB>value`
# a line; `pin NAME` prints one, and an assignment from it stops the gate
# when the name is missing.
pin() {
  awk -F'\t' -v name="$1" '$1 == name { print $2; found = 1 } END { exit !found }' tier1.pins \
    || { echo "tier1.pins: no pin '$1'" >&2; return 1; }
}

# Deadline smoke: a 2s wall-clock budget on the SNP surrogate must exit 0
# within the budget plus slack, save a scored model, print a health
# summary that accounts for every planned target, and write an
# inspectable telemetry trace.
smoke_dir="$(mktemp -d)"
# Also reaps the serve daemons if a later assertion aborts the gate.
trap 'for pid in "${breast_pid:-}" "${serve_pid:-}"; do [ -z "$pid" ] || kill "$pid" 2>/dev/null || true; done; rm -rf "$smoke_dir"' EXIT
./target/release/frac generate --dataset autism --out "$smoke_dir"
timeout 60 ./target/release/frac train \
  --train "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism.frac" \
  --snp --deadline 2s --journal "$smoke_dir/autism.frj" \
  --telemetry "$smoke_dir/autism.trace.tsv" \
  2> "$smoke_dir/train.log"
test -f "$smoke_dir/autism.frac"
grep -q "health: " "$smoke_dir/train.log"
test -f "$smoke_dir/autism.trace.tsv"
./target/release/frac inspect-telemetry \
  --file "$smoke_dir/autism.trace.tsv" > "$smoke_dir/inspect.log"
grep -q "^wall" "$smoke_dir/inspect.log"

# Shard smoke: a 2-shard run whose second worker crash-loops must still
# exit 0 — the supervisor burns the retry budget, reclaims the dead
# shard in-process, and the merged model scores.
timeout 120 ./target/release/frac train \
  --train "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism-sharded.frac" \
  --snp --shards 2 --shard-fault crashloop:1 \
  --shard-retries 1 --shard-backoff 50ms --shard-heartbeat 30s \
  --journal "$smoke_dir/autism-sharded.frj" \
  2> "$smoke_dir/shard.log"
test -f "$smoke_dir/autism-sharded.frac"
grep -q "shards merged" "$smoke_dir/shard.log"
# The healthy worker must parse the argv the supervisor builds for it and
# finish its own shard: a worker that refused its flags would exit 2, be
# restarted and reclaimed in-process, and the merged model would still
# score. Only the crash-looper (exit 101) is restarted.
grep -qF "restarts per shard [0, 1]" "$smoke_dir/shard.log"
grep -qxF "shard 0: worker finished (exit 0)" "$smoke_dir/shard.log"
grep -qxF "shard 1: worker exited incomplete (exit 101)" "$smoke_dir/shard.log"
./target/release/frac score \
  --model "$smoke_dir/autism-sharded.frac" \
  --test "$smoke_dir/autism.test.tsv" \
  > "$smoke_dir/shard-score.tsv" 2> "$smoke_dir/shard-score.log"
grep -q "sharded run (2 shards)" "$smoke_dir/shard-score.log"
grep -q "^sample" "$smoke_dir/shard-score.tsv"

# FCB smoke: pack the surrogate to the binary column format, inspect it,
# train from the .fcb, and check the scores are byte-identical to a
# TSV-trained model's — out-of-core storage must not change a single bit.
./target/release/frac pack --data "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism.train.fcb" --chunk-rows 64
./target/release/frac info --data "$smoke_dir/autism.train.fcb" \
  > "$smoke_dir/fcb-info.log"
grep -q "^format	fcb v1" "$smoke_dir/fcb-info.log"
timeout 120 ./target/release/frac train \
  --train "$smoke_dir/autism.train.fcb" \
  --out "$smoke_dir/autism-fcb.frac" --snp 2> "$smoke_dir/fcb-train.log"
timeout 120 ./target/release/frac train \
  --train "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism-tsv.frac" --snp \
  --telemetry "$smoke_dir/autism-tsv.trace.tsv" 2> /dev/null
./target/release/frac score --model "$smoke_dir/autism-fcb.frac" \
  --test "$smoke_dir/autism.test.tsv" \
  > "$smoke_dir/score-fcb.tsv" 2> /dev/null
./target/release/frac score --model "$smoke_dir/autism-tsv.frac" \
  --test "$smoke_dir/autism.test.tsv" \
  > "$smoke_dir/score-tsv.tsv" 2> /dev/null
cmp "$smoke_dir/score-fcb.tsv" "$smoke_dir/score-tsv.tsv"
# A model has one byte image (model v6), so the two files are identical too.
cmp "$smoke_dir/autism-fcb.frac" "$smoke_dir/autism-tsv.frac"
# Split pin: trees use no kernel tier, so the TSV-trained model is the same
# file on every host. Its last four bytes are the v6 CRC-32 trailer. A
# change that moves a chosen split updates this checksum in tier1.pins and
# says why in CHANGES.md. The file's size is pinned beside it, so a change
# of layout shows as bytes, not only as a checksum.
model_crc="$(tail -c 4 "$smoke_dir/autism-tsv.frac" | od -An -tx1 | tr -d ' \n')"
want="$(pin autism_snp.crc)"
if [ "$model_crc" != "$want" ]; then
  echo "split pin: autism --snp model's crc trailer reads '$model_crc', want '$want'"; exit 1
fi
model_bytes="$(wc -c < "$smoke_dir/autism-tsv.frac" | tr -d ' ')"
want="$(pin autism_snp.model_bytes)"
if [ "$model_bytes" != "$want" ]; then
  echo "size pin: autism --snp model reads $model_bytes bytes, want $want"; exit 1
fi
# Exact counter gate, tree slice: the same fit's tree nodes, encoded cells
# and the row x block cells its classification count passes added up. Trees
# use no kernel tier, so these hold on every host; the trace above must not
# have moved a bit of the model (the cmp and split pin).
./target/release/frac inspect-telemetry --file "$smoke_dir/autism-tsv.trace.tsv" \
  > "$smoke_dir/autism-inspect.log"
for counter in tree_nodes encoded_cells tree_count_cells; do
  want="$counter	$(pin "autism_snp.$counter")"
  if ! grep -qxF "$want" "$smoke_dir/autism-inspect.log"; then
    echo "counter gate: autism --snp $(grep "^${want%%	*}	" "$smoke_dir/autism-inspect.log"), want $want"; exit 1
  fi
done

# Schema smoke: scoring a saved SNP model against an expression test file
# must be refused — exit 1 with the schema error on stderr, never a panic
# in the encoder.
./target/release/frac generate --dataset breast.basal --out "$smoke_dir"
mismatch_status=0
./target/release/frac score --model "$smoke_dir/autism-tsv.frac" \
  --test "$smoke_dir/breast.basal.test.tsv" \
  > /dev/null 2> "$smoke_dir/mismatch.log" || mismatch_status=$?
test "$mismatch_status" -eq 1
grep -q "does not match the schema" "$smoke_dir/mismatch.log"
if grep -q "panicked" "$smoke_dir/mismatch.log"; then
  echo "schema smoke: frac score panicked on a mismatched schema"; exit 1
fi

# Exact counter gate, SVR slice: fit the breast.basal surrogate above
# under the portable tier, so no host SIMD feature changes a bit. The
# model file and the fit's work counters are the same at any thread
# count, so they are pinned exactly. A change that moves one updates its
# pin in tier1.pins and says why in CHANGES.md; wall clocks stay
# report-only.
FRAC_KERNEL_TIER=unrolled ./target/release/frac train \
  --train "$smoke_dir/breast.basal.train.tsv" --out "$smoke_dir/breast.frac" \
  --telemetry "$smoke_dir/breast.trace.tsv" 2> "$smoke_dir/breast-train.log"
breast_model="$(tail -c 4 "$smoke_dir/breast.frac" | od -An -tx1 | tr -d ' \n') $(wc -c < "$smoke_dir/breast.frac" | tr -d ' ')"
want="$(pin breast_basal.crc_bytes)"
if [ "$breast_model" != "$want" ]; then
  echo "counter gate: breast.basal model reads crc and bytes '$breast_model', want '$want'"; exit 1
fi
./target/release/frac inspect-telemetry --file "$smoke_dir/breast.trace.tsv" \
  > "$smoke_dir/breast-inspect.log"
# gram_builds counts one Gram matrix per fit scope (DESIGN.md §13).
want="solver	$(pin breast_basal.solver)"
if ! grep -qxF "$want" "$smoke_dir/breast-inspect.log"; then
  echo "counter gate: breast.basal $(grep '^solver	' "$smoke_dir/breast-inspect.log"), want $want"; exit 1
fi
want="$(pin breast_basal.gflop)"
if ! grep -qF "(320 feature models, $want Gflop training)" "$smoke_dir/breast-train.log"; then
  echo "counter gate: breast.basal $(grep '^saved' "$smoke_dir/breast-train.log"), want $want Gflop"; exit 1
fi
# A deadline never changes a model: every fit takes the one budgeted
# training path, so the same fit under a one-hour deadline, journaled and
# traced, must save the same file. Its journal's size is the counter
# gate's journal slice (the records hold the model's feature sections).
FRAC_KERNEL_TIER=unrolled ./target/release/frac train \
  --train "$smoke_dir/breast.basal.train.tsv" --out "$smoke_dir/breast-deadline.frac" \
  --deadline 1h --journal "$smoke_dir/breast.frj" \
  --telemetry "$smoke_dir/breast-deadline.trace.tsv" 2> /dev/null
cmp "$smoke_dir/breast-deadline.frac" "$smoke_dir/breast.frac"
./target/release/frac inspect-telemetry --file "$smoke_dir/breast-deadline.trace.tsv" \
  > "$smoke_dir/breast-deadline-inspect.log"
want="journal_bytes	$(pin breast_basal.journal_bytes)"
if ! grep -qxF "$want" "$smoke_dir/breast-deadline-inspect.log"; then
  echo "counter gate: breast.basal $(grep '^journal_bytes	' "$smoke_dir/breast-deadline-inspect.log"), want $want"; exit 1
fi
# NS pin: the daemon's replies print each score at full precision (the
# shortest string that re-parses to the same bits), so these pin NS bits
# of the model above: for the whole test file, scored in whatever batches
# the pipe delivers, and for one record alone, which folds its SVRs in
# lanes (DESIGN.md §6). A change that moves one has changed a score.
./target/release/frac serve --model "$smoke_dir/breast.frac" \
  --schema "$smoke_dir/breast.basal.train.tsv" \
  < "$smoke_dir/breast.basal.test.tsv" > "$smoke_dir/breast-ns.out" 2> /dev/null
breast_ns="$(grep -c '^ns ' "$smoke_dir/breast-ns.out" || true) $(cksum < "$smoke_dir/breast-ns.out")"
want="$(pin breast_basal.ns_file)"
if [ "$breast_ns" != "$want" ]; then
  echo "NS pin: breast.basal test file's serve replies read ns lines and cksum '$breast_ns', want '$want'"; exit 1
fi
breast_ns1="$(head -2 "$smoke_dir/breast.basal.test.tsv" | ./target/release/frac serve \
  --model "$smoke_dir/breast.frac" --schema "$smoke_dir/breast.basal.train.tsv" 2> /dev/null)"
want="$(pin breast_basal.ns_first)"
if [ "$breast_ns1" != "$want" ]; then
  echo "NS pin: breast.basal's first test record reads '$breast_ns1', want '$want'"; exit 1
fi
# Batches of three or more records fold their SVRs eight records per SIMD
# pass, each record's sum with the bits of its one-row fold on every tier
# (DESIGN.md §6), so the same pin holds under the portable tier.
FRAC_KERNEL_TIER=unrolled ./target/release/frac serve --model "$smoke_dir/breast.frac" \
  --schema "$smoke_dir/breast.basal.train.tsv" \
  < "$smoke_dir/breast.basal.test.tsv" > "$smoke_dir/breast-ns-unrolled.out" 2> /dev/null
breast_ns="$(grep -c '^ns ' "$smoke_dir/breast-ns-unrolled.out" || true) $(cksum < "$smoke_dir/breast-ns-unrolled.out")"
want="$(pin breast_basal.ns_file)"
if [ "$breast_ns" != "$want" ]; then
  echo "NS pin: breast.basal test file's serve replies under the unrolled tier read ns lines and cksum '$breast_ns', want '$want'"; exit 1
fi
# The test file down a socket in one burst, which the daemon scores in
# batches: each score must equal the pinned pipe-mode reply, line for line.
./target/release/frac serve --model "$smoke_dir/breast.frac" \
  --schema "$smoke_dir/breast.basal.train.tsv" \
  --listen 127.0.0.1:0 2> "$smoke_dir/breast-serve.log" &
breast_pid=$!
for _ in $(seq 50); do
  grep -q "listening on" "$smoke_dir/breast-serve.log" && break
  sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$smoke_dir/breast-serve.log")
exec 4<>"/dev/tcp/127.0.0.1/$port"
burst_rows=$(( $(wc -l < "$smoke_dir/breast.basal.test.tsv") - 1 ))
tail -n +2 "$smoke_dir/breast.basal.test.tsv" >&4
for _ in $(seq "$burst_rows"); do
  read -t 10 -r reply <&4 || { echo "NS pin: a breast.basal burst reply is missing" >&2; exit 1; }
  printf '%s\n' "$reply"
done > "$smoke_dir/breast-burst.out"
exec 4>&-
kill -TERM "$breast_pid"
wait "$breast_pid"
breast_pid=
if ! cmp <(cut -d' ' -f3 "$smoke_dir/breast-burst.out") <(cut -d' ' -f3 "$smoke_dir/breast-ns.out"); then
  echo "NS pin: breast.basal socket burst scores differ from the pinned pipe-mode replies"; exit 1
fi

# Serve smoke: a release daemon on a loopback socket must score a piped
# TSV record, quarantine a malformed line without dropping the
# connection, hot-reload on SIGHUP, reject a corrupt reload candidate
# and keep serving the old model, answer a burst of the whole test file
# in order with the pipe mode's scores, and exit 0 on SIGTERM with its
# counters accounting for both reload outcomes. Uses the model the
# deadline smoke trained.
./target/release/frac serve \
  --model "$smoke_dir/autism.frac" \
  --schema "$smoke_dir/autism.train.tsv" \
  --listen 127.0.0.1:0 --drain-timeout 5s 2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do
  grep -q "listening on" "$smoke_dir/serve.log" && break
  sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$smoke_dir/serve.log")
exec 3<>"/dev/tcp/127.0.0.1/$port"
# A real record scores (seq 1)…
sed -n '2p' "$smoke_dir/autism.test.tsv" >&3
read -t 10 -r reply <&3
case "$reply" in "ns 1 "*) ;; *) echo "serve smoke: bad score reply: $reply"; exit 1;; esac
# …a malformed line is quarantined (seq 2) and the connection survives
# to answer a ping (seq 3).
printf 'definitely\tnot\ta\trecord\n' >&3
read -t 10 -r reply <&3
case "$reply" in "err 2 "*) ;; *) echo "serve smoke: malformed line not quarantined: $reply"; exit 1;; esac
printf 'cmd ping\n' >&3
read -t 10 -r reply <&3
case "$reply" in "ok 3 pong") ;; *) echo "serve smoke: daemon died after quarantine: $reply"; exit 1;; esac
# SIGHUP hot reload (same path on disk is a valid candidate); the daemon
# must log the reload and keep scoring.
kill -HUP "$serve_pid"
for _ in $(seq 50); do
  grep -q "SIGHUP: reloading" "$smoke_dir/serve.log" && break
  sleep 0.1
done
grep -q "SIGHUP: reloading" "$smoke_dir/serve.log"
sleep 0.3
sed -n '2p' "$smoke_dir/autism.test.tsv" >&3
read -t 10 -r reply <&3
case "$reply" in "ns 4 "*) ;; *) echo "serve smoke: no score after SIGHUP reload: $reply"; exit 1;; esac
# A truncated candidate must be rejected off-path and rolled back; the
# serving model keeps answering.
head -c "$(( $(wc -c < "$smoke_dir/autism.frac") / 2 ))" \
  "$smoke_dir/autism.frac" > "$smoke_dir/corrupt.frac"
printf 'cmd reload %s\n' "$smoke_dir/corrupt.frac" >&3
read -t 10 -r reply <&3
case "$reply" in "err 5 reload failed"*) ;; *) echo "serve smoke: corrupt reload not rejected: $reply"; exit 1;; esac
sed -n '2p' "$smoke_dir/autism.test.tsv" >&3
read -t 10 -r reply <&3
case "$reply" in "ns 6 "*) ;; *) echo "serve smoke: daemon lost the model after rollback: $reply"; exit 1;; esac
# Every data row of the test file in one burst: the daemon batches them
# and writes each batch's replies to the socket at once. One `ns` reply
# per row must come back, seqs ascending from 7, and each score must
# equal the pipe mode's reply to the same row, line for line.
burst_rows=$(( $(wc -l < "$smoke_dir/autism.test.tsv") - 1 ))
tail -n +2 "$smoke_dir/autism.test.tsv" >&3
for _ in $(seq "$burst_rows"); do
  read -t 10 -r reply <&3 || { echo "serve smoke: a burst reply is missing" >&2; exit 1; }
  printf '%s\n' "$reply"
done > "$smoke_dir/burst.out"
awk '$1 != "ns" || $2 != NR + 6 { print "serve smoke: burst reply " NR " out of order: " $0; bad = 1; exit } END { exit bad }' "$smoke_dir/burst.out"
./target/release/frac serve --model "$smoke_dir/autism.frac" \
  --schema "$smoke_dir/autism.train.tsv" \
  < "$smoke_dir/autism.test.tsv" > "$smoke_dir/pipe.out" 2> /dev/null
test "$(grep -c '^ns ' "$smoke_dir/pipe.out")" -eq "$burst_rows"
if ! cmp <(cut -d' ' -f3 "$smoke_dir/burst.out") <(cut -d' ' -f3 "$smoke_dir/pipe.out"); then
  echo "serve smoke: socket burst scores differ from pipe mode"; exit 1
fi
# SIGTERM drains and exits 0; the exit summary accounts for the one
# successful reload and the one rejected candidate.
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "reloads=1" "$smoke_dir/serve.log"
grep -q "reload_failures=1" "$smoke_dir/serve.log"
