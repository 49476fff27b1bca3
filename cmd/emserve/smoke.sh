#!/usr/bin/env bash
# Smoke test of the emserve binary's write contract. Run it from the
# repository root:
#
#   bash cmd/emserve/smoke.sh
#
# It builds emserve and emgen into a temporary directory, seeds a durable
# service from a small generated workload on 127.0.0.1:18097, and checks:
#   - a good delta answers 200 with its seq, a delta that fails
#     validation answers 422 to its submitter, and the next good delta
#     answers 200 at a higher seq;
#   - a body of maxApplyOps+1 ops answers 413 and the next good delta
#     answers 200 at the next seq;
#   - /readyz still answers 200;
#   - after SIGTERM, a restart on the same directory answers GET /seq
#     with the last acknowledged seq.
set -euo pipefail

addr=127.0.0.1:18097
work=$(mktemp -d)
pid=
cleanup() {
	if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/emserve" ./cmd/emserve
go build -o "$work/emgen" ./cmd/emgen
"$work/emgen" -dataset synthetic -scale 0.2 -seed 7 -out "$work/work" >/dev/null

fail() {
	echo "emserve smoke: $*" >&2
	cat "$work/emserve.log" >&2
	exit 1
}

start() {
	"$work/emserve" -keys "$work/work.keys" -graph "$work/work.graph" -wal "$work/wal" -addr "$addr" 2>>"$work/emserve.log" &
	pid=$!
	for _ in $(seq 1 100); do
		if curl -sf "http://$addr/readyz" >/dev/null; then return 0; fi
		sleep 0.1
	done
	fail "emserve did not become ready"
}

stop() {
	kill -TERM "$pid"
	wait "$pid" || fail "emserve exited with status $? after SIGTERM"
	pid=
}

# apply NAME WANT_STATUS BODY posts BODY to /apply, checks the status and
# leaves the answer in $answer.
apply() {
	local status
	status=$(curl -s -o "$work/answer.json" -w '%{http_code}' -H 'Content-Type: application/json' -d "$3" "http://$addr/apply")
	answer=$(cat "$work/answer.json")
	echo "POST /apply ($1): $status $answer"
	[ "$status" = "$2" ] || fail "$1 answered $status, want $2"
}

start
seq0=$(curl -sf "http://$addr/seq" | jq -r .seq)
echo "GET /seq: $seq0"

apply good 200 '{"deltas":[{"ops":[{"op":"add_entity","id":"smoke_1","type":"smoke"}]}]}'
seq1=$(jq -r '.deltas[0].seq' <<<"$answer")
[ "$seq1" -gt "$seq0" ] || fail "good delta acknowledged at seq $seq1, not above $seq0"

apply poison 422 '{"deltas":[{"ops":[{"op":"add_edge","s":"smoke_ghost","p":"knows","o":"smoke_1"}]}]}'
jq -e '.deltas[0].error | contains("unknown subject entity")' <<<"$answer" >/dev/null || fail "poison answer lacks the validation error"

apply good 200 '{"deltas":[{"ops":[{"op":"add_entity","id":"smoke_2","type":"smoke"},{"op":"add_edge","s":"smoke_2","p":"knows","o":"smoke_1"}]}]}'
seq2=$(jq -r .seq <<<"$answer")
[ "$seq2" -gt "$seq1" ] || fail "second good delta acknowledged at seq $seq2, not above $seq1"

# One delta of maxApplyOps+1 = 2^18+1 ops (internal/serve) is over the
# op cap, though its 8.7 MB are under the 16 MiB body cap.
{
	printf '{"deltas":[{"ops":['
	seq $(((1 << 18) + 1)) | sed 's/.*/{"op":"remove_entity","id":"x"}/' | paste -sd, -
	printf ']}]}'
} >"$work/opcap.json"
apply opcap 413 "@$work/opcap.json"
jq -e '.error | contains("262145 ops")' <<<"$answer" >/dev/null || fail "op-cap answer does not name the op count"

apply good 200 '{"deltas":[{"ops":[{"op":"add_entity","id":"smoke_3","type":"smoke"}]}]}'
seq3=$(jq -r .seq <<<"$answer")
[ "$seq3" = $((seq2 + 1)) ] || fail "good delta after the op cap acknowledged at seq $seq3, want $((seq2 + 1))"

status=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz")
echo "GET /readyz: $status"
[ "$status" = 200 ] || fail "/readyz answered $status after a rejected delta"

stop
echo "SIGTERM: emserve exited cleanly"
start
seq4=$(curl -sf "http://$addr/seq" | jq -r .seq)
echo "GET /seq after restart: $seq4"
[ "$seq4" = "$seq3" ] || fail "restart resumed at seq $seq4, want the last acknowledged $seq3"
stop
echo "emserve smoke: ok"
