#!/bin/sh
# smoke_wfd.sh — the daemon's SIGKILL gauntlet.
#
# Builds race-enabled wfd and wfctl, runs one daemon to completion for a
# reference, then runs a journaling daemon over the same workload, kills
# it with SIGKILL mid-flight, restarts it over the same state dir, and
# asserts:
#
#   - the restarted daemon recovered every job, and the Unicorn job — the
#     searcher whose checkpoint refits its causal graph on restore —
#     resumed from its journal snapshot rather than restarting from
#     scratch;
#   - every job's canonical final report is byte-identical to the
#     uninterrupted reference run.
#
# This is the crash-restart guarantee from the package docs, exercised
# through real processes, real signals, and the real HTTP API.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
	[ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "smoke-wfd: building race-enabled binaries"
$GO build -race -o "$WORK/wfd" ./cmd/wfd
$GO build -race -o "$WORK/wfctl" ./cmd/wfctl

cat >"$WORK/job.yaml" <<'EOF'
name: smoke
os: linux
app: nginx
metric: throughput
maximize: true
iterations: 120
EOF

SOCK="$WORK/wfd.sock"

# wait_ready polls the daemon until its status endpoint answers. The
# budget is generous: after a crash, recovery restores every snapshotted
# session (replaying searcher state) before the socket opens, and the
# race-enabled binaries make that slow. $1 names the daemon log to dump
# if it never answers.
wait_ready() {
	i=0
	while ! "$WORK/wfctl" status -d "$SOCK" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 2400 ]; then
			echo "smoke-wfd: daemon never came up"
			[ -n "${1:-}" ] && [ -f "$WORK/$1" ] && cat "$WORK/$1"
			exit 1
		fi
		sleep 0.05
	done
}

# submit_workload submits the same four jobs (different searchers and
# seeds) and prints their ids. Submission order is fixed, so job ids are
# deterministic across runs: j000001 .. j000004. The Unicorn job is short
# (every observation refits its causal graph from scratch, slow under
# the race detector) but long enough to be in flight at the kill.
UNICORN=j000004
submit_workload() {
	"$WORK/wfctl" submit -d "$SOCK" -tenant alice -s random -seed 11 "$WORK/job.yaml"
	"$WORK/wfctl" submit -d "$SOCK" -tenant alice -s bayesian -seed 12 "$WORK/job.yaml"
	"$WORK/wfctl" submit -d "$SOCK" -tenant bob -s deeptune -seed 13 "$WORK/job.yaml"
	"$WORK/wfctl" submit -d "$SOCK" -tenant carol -s unicorn -seed 14 -l 24 "$WORK/job.yaml"
}

served_count() {
	"$WORK/wfctl" status -d "$SOCK" | sed -n 's/^served \([0-9]*\) observations.*/\1/p'
}

# observed_count prints how many observations job $1 has recorded.
observed_count() {
	"$WORK/wfctl" status -d "$SOCK" "$1" | sed -n 's/^  observed \([0-9]*\)\/.*/\1/p'
}

echo "smoke-wfd: reference run (uninterrupted)"
"$WORK/wfd" -listen "$SOCK" -state "$WORK/ref-state" -quantum 4 -journal-every 8 -quiet &
DAEMON_PID=$!
wait_ready
IDS=$(submit_workload)
mkdir -p "$WORK/ref"
for id in $IDS; do
	"$WORK/wfctl" report -d "$SOCK" -wait "$id" >"$WORK/ref/$id.json"
done
kill "$DAEMON_PID" && wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "smoke-wfd: gauntlet run (SIGKILL mid-flight)"
STATE="$WORK/state"
"$WORK/wfd" -listen "$SOCK" -state "$STATE" -quantum 4 -journal-every 8 \
	>"$WORK/wfd1.log" 2>&1 &
DAEMON_PID=$!
wait_ready wfd1.log
GIDS=$(submit_workload)
[ "$GIDS" = "$IDS" ] || { echo "smoke-wfd: job ids diverged: $GIDS vs $IDS"; exit 1; }

# Let the daemon serve roughly a third of the 384-observation demand, and
# the Unicorn job past its first journal snapshot (after 8 observations),
# then SIGKILL it: no drain, no shutdown snapshots — only the periodic
# journal survives.
i=0
while :; do
	served=$(served_count || echo 0)
	uni=$(observed_count "$UNICORN" || echo 0)
	[ "${served:-0}" -ge 128 ] && [ "${uni:-0}" -ge 12 ] && break
	i=$((i + 1))
	[ "$i" -gt 2400 ] && { echo "smoke-wfd: daemon never reached mid-flight (served=$served, unicorn=$uni)"; exit 1; }
	sleep 0.05
done
echo "smoke-wfd: kill -9 at $served/384 observations (unicorn at $uni/24)"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "smoke-wfd: restarting over the same state dir"
"$WORK/wfd" -listen "$SOCK" -state "$STATE" -quantum 4 -journal-every 8 \
	>"$WORK/wfd2.log" 2>&1 &
DAEMON_PID=$!
wait_ready wfd2.log

grep -q "$UNICORN resumed from snapshot" "$WORK/wfd2.log" || {
	echo "smoke-wfd: the unicorn job $UNICORN did not resume from its journal snapshot"
	cat "$WORK/wfd2.log"
	exit 1
}

status=$("$WORK/wfctl" status -d "$SOCK")
echo "$status" | grep -q "recovered 4" || {
	echo "smoke-wfd: expected 4 recovered jobs; status was:"
	echo "$status"
	exit 1
}

mkdir -p "$WORK/got"
for id in $IDS; do
	"$WORK/wfctl" report -d "$SOCK" -wait "$id" >"$WORK/got/$id.json"
	cmp "$WORK/ref/$id.json" "$WORK/got/$id.json" || {
		echo "smoke-wfd: $id: report after SIGKILL-restart differs from the uninterrupted run"
		exit 1
	}
	echo "smoke-wfd: $id byte-identical after crash-restart"
done

kill "$DAEMON_PID" && wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
echo "smoke-wfd: PASS"
