#!/usr/bin/env bash
# boot-smoke: the real mistserve binary in cluster mode, on loopback.
#
# Builds the binary once, starts three `-peers` nodes back to back and
# then a fourth with `-join` and `-advertise`, all probing and repairing
# every second. Within a few intervals every node's GET /cluster must
# list four ok members, and no node's GET /cluster/events may hold a
# member-suspect or member-down event: members that start within one
# probe interval of each other raise none. Binds 127.0.0.1 only (ports
# BOOT_SMOKE_PORT..+3, default 18181..18184); a trap kills every process
# it started on any exit.
#
# Run: make boot-smoke (or bash tools/boot-smoke.sh).
set -euo pipefail

GO=${GO:-go}
base=${BOOT_SMOKE_PORT:-18181}
dir=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT

fail() {
	echo "boot-smoke: $*" >&2
	for f in "$dir"/n*.log; do echo "--- $f" >&2; tail -n 20 "$f" >&2; done
	exit 1
}

addr() { echo "127.0.0.1:$((base + $1 - 1))"; }

wait_up() {
	for _ in $(seq 100); do
		curl -sf "http://$(addr "$1")/healthz" >/dev/null && return 0
		sleep 0.1
	done
	fail "n$1 never answered /healthz"
}

"$GO" build -o "$dir/mistserve" ./cmd/mistserve

loops=(-probe-interval 1s -rebalance-interval 1s)
peers="n1=http://$(addr 1),n2=http://$(addr 2),n3=http://$(addr 3)"
for i in 1 2 3; do
	"$dir/mistserve" -addr "$(addr "$i")" -node-id "n$i" -peers "$peers" "${loops[@]}" 2>"$dir/n$i.log" &
	pids+=($!)
done
for i in 1 2 3; do wait_up "$i"; done
"$dir/mistserve" -addr "$(addr 4)" -node-id n4 -join "http://$(addr 1)" \
	-advertise "http://$(addr 4)" "${loops[@]}" 2>"$dir/n4.log" &
pids+=($!)
wait_up 4

# Every node lists four members, each ok, within a few intervals.
converged() {
	for i in 1 2 3 4; do
		n=$(curl -sf "http://$(addr "$i")/cluster" |
			jq '[.members[] | select(.health == "ok")] | length') || return 1
		[ "$n" = 4 ] || return 1
	done
}
for try in $(seq 40); do
	converged && break
	[ "$try" = 40 ] && fail "nodes never all listed four ok members"
	sleep 0.25
done

# Two more probe rounds, then no node may have seen a peer fail.
sleep 2
for i in 1 2 3 4; do
	bad=$(curl -sf "http://$(addr "$i")/cluster/events" |
		jq -c '[.events[] | select(.type == "member-suspect" or .type == "member-down")]') ||
		fail "n$i: GET /cluster/events failed"
	[ "$bad" = "[]" ] || fail "n$i saw peers fail at boot: $bad"
done
echo "boot-smoke: 4 nodes (3 -peers, 1 -join) converged, no suspect or down events"
