#!/usr/bin/env sh
# CI gate for the pos reproduction. Offline by design: all dependencies are
# vendored path crates, so no step may touch the network.
#
#   sh scripts/ci.sh            # build + full test suite + crash matrix + bench smoke
#   POS_CI_SKIP_BENCH=1 sh …    # skip the bench smoke (fastest useful signal)
set -eu

cd "$(dirname "$0")/.."

# First-party crates only: vendor/* are offline registry stand-ins and are
# exempt from the style gates.
FIRST_PARTY="-p pos -p pos-core -p pos-testbed -p pos-simkernel -p pos-netsim \
 -p pos-packet -p pos-loadgen -p pos-eval -p pos-publish -p pos-bench -p pos-sched \
 -p pos-serve -p pos-dag"

echo "==> rustfmt (check, first-party crates)"
cargo fmt --check $FIRST_PARTY

echo "==> clippy (deny warnings, first-party crates)"
cargo clippy $FIRST_PARTY --all-targets -- -D warnings

echo "==> build (release, workspace)"
cargo build --release --workspace

echo "==> tests (workspace)"
cargo test -q --workspace

# Golden digests: the result trees and journals of reference campaigns
# (sequential pos/vpos, two lanes, chaos, and the commit-window ordering
# scenarios) must match bytes recorded before the drivers were
# pipelined. Run-twice identity alone cannot see a byte that moved.
echo "==> golden trees (tests/golden_trees.rs + tests/commit_window.rs)"
cargo test -q --test golden_trees
cargo test -q --test commit_window

# The fault-path gate for netsim's one TX path: faulty and unconnected
# ports resolve a transmission at submit like clean links, with fault
# draws keyed to the completion instant. The `chaos-link` digest above,
# `frame_conservation_under_random_faults`,
# `fault_draws_are_keyed_to_the_completion_instant` and
# `degraded_link_loses_packets_deterministically` (in the crates below)
# and the chaos scenarios of tests/recovery.rs hold it to the bytes of
# the former event-per-completion path.
echo "==> fault path (pos-netsim + pos-loadgen + tests/recovery.rs)"
cargo test -q -p pos-netsim -p pos-loadgen
cargo test -q --test recovery

# The crash matrix is the durability contract: kill the controller at every
# journal record boundary (cleanly and with torn tails), resume, and demand a
# byte-identical result tree. It runs as part of the workspace suite above;
# repeating it by name here keeps the gate loud if someone filters tests.
# Its tests build their trees concurrently under the default parallel
# harness; five passes make a reintroduced shared-directory race loud
# (the same holds for the disk-fault and DAG matrices below).
echo "==> crash matrix (tests/crash_matrix.rs, 5x)"
for _ in 1 2 3 4 5; do cargo test -q --test crash_matrix; done

# The failover half of that contract: kill the scheduler at every append in
# the failover record window (LaneRetired / RunRetry / RunQuarantined),
# resume, and demand byte-identity with an uninterrupted faulted campaign.
echo "==> failover crash matrix (tests/parallel_determinism.rs)"
cargo test -q --test parallel_determinism crash_mid_failover_resumes_to_identical_tree
cargo test -q --test parallel_determinism interrupted_failover_strands_run_and_fsck_flags_it

# The storage half: ENOSPC / torn writes / fsync failures at every journal
# boundary plus bit-flip rot, recovered to byte-identity via resume + scrub.
echo "==> disk-fault matrix (tests/disk_fault_matrix.rs, 5x)"
for _ in 1 2 3 4 5; do cargo test -q --test disk_fault_matrix; done

# The DAG half: the linux-router DAG executed at several lane counts and on
# both execution targets must leave byte-identical trees; a kill at every
# DAG-journal record boundary (clean + torn) followed by `resume_dag` must
# converge to that same tree with `fsck_dag` calling it clean.
echo "==> DAG crash matrix (tests/dag_determinism.rs, 5x)"
for _ in 1 2 3 4 5; do cargo test -q --test dag_determinism; done

# The daemon half: kill `pos serve` at every queue-ledger append boundary
# (and at campaign-journal boundaries) during a multi-user submission storm,
# restart, and demand byte-identical trees versus an uninterrupted daemon.
echo "==> serve restart matrix (tests/serve_restart_matrix.rs)"
cargo test -q --test serve_restart_matrix

# Scrub smoke, end to end through the CLI: corrupt one artifact of a real
# result tree with dd, demand that `pos scrub` detects it (nonzero exit),
# `pos scrub --repair` heals it, and the tree then scrubs and fscks clean.
echo "==> scrub smoke (pos scrub detect + repair)"
POS=target/release/pos
SCRUB_DIR=$(mktemp -d)
"$POS" init "$SCRUB_DIR/exp" >/dev/null
cat >"$SCRUB_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
pkt_sz:
- 64
- 1500
EOF
cat >"$SCRUB_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
"$POS" run "$SCRUB_DIR/exp" --results "$SCRUB_DIR/res" >/dev/null
TREE=$(dirname "$(find "$SCRUB_DIR/res" -name journal.log)")
printf 'X' | dd of="$TREE/run-0000/loadgen_measurement.log" \
    bs=1 count=1 conv=notrunc 2>/dev/null
if "$POS" scrub "$TREE" >/dev/null 2>&1; then
    echo "scrub smoke: corruption went undetected" >&2
    exit 1
fi
"$POS" scrub "$TREE" --repair >/dev/null
"$POS" scrub "$TREE" >/dev/null
"$POS" fsck "$TREE" >/dev/null
rm -rf "$SCRUB_DIR"

# One-driver smoke, end to end through the CLI: every campaign runs
# through the one lane driver, whose one-lane form is the controller, and
# every lane runs the campaign's own testbed. The same small sweep at one
# lane, at two lanes, at three lanes on a one-set site, and on vpos at one
# and two lanes must each leave a tree with a single journal (journal.log)
# that fscks clean and has nothing to resume. Journals excluded, the pos
# trees must hash equal, the vpos trees must hash equal, and the
# one-set site must say once that it plans fewer lanes than asked.
echo "==> one-driver smoke (pos run --lanes 1|2|3, --testbed vpos --lanes 1|2)"
ONE_DIR=$(mktemp -d)
"$POS" init "$ONE_DIR/exp" >/dev/null
cat >"$ONE_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
- 20000
pkt_sz:
- 64
EOF
cat >"$ONE_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
# Runs the sweep with the given flags, checks its tree, prints its hash.
one_driver_tree() {
    name=$1
    shift
    "$POS" run "$ONE_DIR/exp" --results "$ONE_DIR/$name" "$@" >"$ONE_DIR/$name.out"
    tree=$(dirname "$(find "$ONE_DIR/$name" -name journal.log)")
    journals=$(cd "$tree" && find . -maxdepth 1 -name 'journal*')
    if [ "$journals" != "./journal.log" ]; then
        echo "one-driver smoke ($name): journals besides journal.log: $journals" >&2
        exit 1
    fi
    "$POS" fsck "$tree" | grep -q 'status: clean' || {
        echo "one-driver smoke ($name): fsck not clean" >&2
        exit 1
    }
    if "$POS" resume "$tree" >/dev/null 2>"$ONE_DIR/resume.err" ||
        ! grep -q 'nothing to resume' "$ONE_DIR/resume.err"; then
        echo "one-driver smoke ($name): resume of a finished tree did not refuse" >&2
        exit 1
    fi
    (cd "$tree" && find . -type f ! -name 'journal*' | LC_ALL=C sort | xargs sha256sum) |
        sha256sum
}
ONE_LANE=$(one_driver_tree lanes1 --lanes 1)
TWO_LANES=$(one_driver_tree lanes2 --lanes 2)
CLAMPED=$(one_driver_tree clamped --lanes 3 --site-replicas 1)
VPOS=$(one_driver_tree vpos --testbed vpos)
VPOS_TWO=$(one_driver_tree vpos2 --testbed vpos --lanes 2)
if [ "$ONE_LANE" != "$TWO_LANES" ]; then
    echo "one-driver smoke: the trees at one and two lanes differ" >&2
    exit 1
fi
if [ "$ONE_LANE" != "$CLAMPED" ]; then
    echo "one-driver smoke: --lanes 3 on a one-set site differs from one lane" >&2
    exit 1
fi
if [ "$(grep -c 'exceeds the site' "$ONE_DIR/clamped.out")" != 1 ]; then
    echo "one-driver smoke: the lane clamp was not noted exactly once" >&2
    exit 1
fi
if [ "$VPOS" != "$VPOS_TWO" ]; then
    echo "one-driver smoke: the vpos trees at one and two lanes differ" >&2
    exit 1
fi
rm -rf "$ONE_DIR"

# DAG smoke, end to end through the CLI: scaffold the 3-stage case-study
# DAG, check `pos dag viz` golden lines in both formats, run it small at 2
# lanes on a non-default seed, viz + fsck the result tree, and resume with
# no flags (a complete tree must be a verified no-op fast-forward, not a
# rerun, on the seed its journal records).
echo "==> dag smoke (pos dag init + viz golden + run + fsck + resume)"
DAG_DIR=$(mktemp -d)
"$POS" dag init "$DAG_DIR/exp" >/dev/null
"$POS" dag viz "$DAG_DIR/exp" | grep -q 'scatter x' || {
    echo "dag smoke: ascii viz lost its scatter edge" >&2
    exit 1
}
"$POS" dag viz "$DAG_DIR/exp" | grep -q '==gather==>' || {
    echo "dag smoke: ascii viz lost its gather edge" >&2
    exit 1
}
"$POS" dag viz "$DAG_DIR/exp" --format dot | grep -q '^digraph ' || {
    echo "dag smoke: dot viz is not a digraph" >&2
    exit 1
}
"$POS" dag viz "$DAG_DIR/exp" --format dot | grep -q 'cluster_testbed' || {
    echo "dag smoke: dot viz lost the testbed cluster" >&2
    exit 1
}
cat >"$DAG_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
- 20000
pkt_sz:
- 64
- 1500
EOF
cat >"$DAG_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
"$POS" dag run "$DAG_DIR/exp" --results "$DAG_DIR/res" --lanes 2 --seed 5 >/dev/null
DAG_TREE=$(dirname "$(find "$DAG_DIR/res" -name dag.yml)")
test -s "$DAG_TREE/stage-eval/figures/eval.svg"
"$POS" dag viz "$DAG_TREE" | grep -q 'wave 0: \[setup setup\]' || {
    echo "dag smoke: result-tree viz lost its setup wave" >&2
    exit 1
}
"$POS" fsck "$DAG_TREE" >/dev/null
"$POS" dag resume "$DAG_TREE" | grep -q 'verified, skipped' || {
    echo "dag smoke: resume of a complete DAG re-ran instead of verifying" >&2
    exit 1
}
rm -rf "$DAG_DIR"

# Serve smoke, end to end through the real binary: start the daemon, submit
# over HTTP, kill -9 mid-service, restart on the same state dir, and demand
# that the acknowledged submission completes anyway (journal-before-ack).
# Then: token dedupe across the restart, a SIGTERM drain that must exit 0,
# and a ledger fsck of the state dir.
echo "==> serve smoke (kill -9 + restart + SIGTERM drain via pos serve)"
SERVE_DIR=$(mktemp -d)
"$POS" init "$SERVE_DIR/exp" >/dev/null
cat >"$SERVE_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
pkt_sz:
- 64
EOF
cat >"$SERVE_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
serve_wait_addr() {
    i=0
    while [ ! -s "$SERVE_DIR/state/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve smoke: daemon never published its address" >&2
            exit 1
        fi
        sleep 0.1
    done
    cat "$SERVE_DIR/state/addr"
}
"$POS" serve --state "$SERVE_DIR/state" --results "$SERVE_DIR/res" \
    >"$SERVE_DIR/serve1.log" 2>&1 &
SERVE_PID=$!
ADDR=$(serve_wait_addr)
"$POS" queue submit "$SERVE_DIR/exp" --daemon "$ADDR" --token smoke-1 >/dev/null
# The ack means the submission is durable in the ledger: a kill -9 right
# now — before, during, or after the campaign — must not lose it.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SERVE_DIR/state/addr"
"$POS" serve --state "$SERVE_DIR/state" --results "$SERVE_DIR/res" \
    >"$SERVE_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
ADDR=$(serve_wait_addr)
i=0
until "$POS" queue status --daemon "$ADDR" | grep -q '^completed: 1'; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "serve smoke: submission did not complete after restart" >&2
        "$POS" queue status --daemon "$ADDR" >&2 || true
        exit 1
    fi
    sleep 0.2
done
"$POS" queue submit "$SERVE_DIR/exp" --daemon "$ADDR" --token smoke-1 \
    | grep -q 'already queued' || {
    echo "serve smoke: idempotency token did not dedupe across restart" >&2
    exit 1
}
kill -TERM "$SERVE_PID"
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
if [ "$SERVE_EXIT" -ne 0 ]; then
    echo "serve smoke: drain of a completed daemon exited $SERVE_EXIT, want 0" >&2
    cat "$SERVE_DIR/serve2.log" >&2 || true
    exit 1
fi
"$POS" fsck "$SERVE_DIR/state" >/dev/null
rm -rf "$SERVE_DIR"

if [ "${POS_CI_SKIP_BENCH:-0}" != "1" ]; then
    echo "==> bench smoke: kernel (event churn + packet path, regression floors)"
    # Floors sit at ~25% of current dev-machine numbers (16M events/s,
    # 6.6M pkts/s @64B, 5.1M pkts/s @1500B) so slow CI hosts pass but a
    # return to the pre-wheel/pre-zero-copy kernel (9M / 1.25M / 0.9M)
    # trips loudly. The binary exits nonzero on a floor violation.
    POS_KERNEL_EVENTS=1000000 POS_KERNEL_RUN_SECS=0.2 \
        POS_KERNEL_FLOOR_EPS=4000000 \
        POS_KERNEL_FLOOR_PPS64=1600000 \
        POS_KERNEL_FLOOR_PPS1500=1300000 \
        cargo run --release -p pos-bench --bin kernel >/dev/null
    test -s BENCH_kernel.json
    rm -f BENCH_kernel.json
fi

echo "==> ci: OK"
