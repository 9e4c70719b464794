#!/bin/sh
# jepod writes its JEPO_TRACE file once it has drained: start the daemon
# with tracing armed, profile one program through jepod_client, drain the
# daemon with SIGTERM, and parse the file as Chrome trace_event JSON.
#
#   jepod_trace_test.sh JEPOD JEPOD_CLIENT PROGRAM.mjava PYTHON3
set -u
jepod=$1
client=$2
program=$3
python=$4

dir=$(mktemp -d) || exit 1
pid=
cleanup() {
  [ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null
  rm -rf "$dir"
}
trap cleanup EXIT
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

sock=$dir/jepod.sock
trace=$dir/trace.json
JEPO_TRACE=$trace "$jepod" --socket="$sock" --threads=1 &
pid=$!
tries=0
while [ ! -S "$sock" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "jepod did not open $sock"
  kill -0 "$pid" 2>/dev/null || fail "jepod exited before serving"
  sleep 0.1
done

"$client" --socket="$sock" profile "$program" >/dev/null ||
  fail "profile job failed"
kill -TERM "$pid"
wait "$pid"
status=$?
pid=
[ "$status" -eq 0 ] || fail "jepod exited $status after SIGTERM"
[ -s "$trace" ] || fail "jepod wrote no trace file"

"$python" - "$trace" <<'PY' || fail "trace is not a trace_event JSON file"
import json
import sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
if not spans:
    sys.exit("no complete spans in the trace")
print(f"{len(spans)} spans")
PY
