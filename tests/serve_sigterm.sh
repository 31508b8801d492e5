#!/usr/bin/env bash
# `scoded serve` signalled the moment it prints its listening banner must
# still shut down cleanly: exit 0, "shut down cleanly" on stdout, and no
# crash report. The daemon has to install its SIGTERM handler before the
# banner can appear, or this SIGTERM takes the default action and kills it.
#
# Usage: serve_sigterm.sh <scoded binary> <work directory, recreated>
set -u
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$2
rm -rf "$work"
mkdir -p "$work" || exit 1
cd "$work" || exit 1

mkfifo stdout.fifo || exit 1
SCODED_CRASH_DIR="$work" "$bin" serve --port 0 > stdout.fifo 2> stderr.txt &
pid=$!
exec 3< stdout.fifo
if ! IFS= read -r banner <&3; then
  echo "no banner from scoded serve"; cat stderr.txt; exit 1
fi
kill -TERM "$pid"
rest=$(cat <&3)
wait "$pid"
rc=$?

status=0
case "$banner" in
  "scoded serve listening on 127.0.0.1:"*) ;;
  *) echo "unexpected banner: $banner"; status=1 ;;
esac
if [ "$rc" -ne 0 ]; then
  echo "scoded serve exited $rc after SIGTERM at the banner"; status=1
fi
case "$rest" in
  *"shut down cleanly"*) ;;
  *) echo "no clean-shutdown line; stdout after the banner: $rest"; status=1 ;;
esac
if ls scoded-crash-*.report > /dev/null 2>&1; then
  echo "crash report left behind:"; ls scoded-crash-*.report; status=1
fi
[ "$status" -eq 0 ] || cat stderr.txt
exit "$status"
