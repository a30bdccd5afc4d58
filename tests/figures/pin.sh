#!/bin/sh
# Byte pin of one bench run's stdout.
#
#   pin.sh EXPECTED [--file NAME WANT] BINARY [ARGS...]
#
# Runs BINARY ARGS in a fresh temporary directory and compares its
# stdout with the file EXPECTED. With --file, the file NAME that the
# run leaves in that directory must also equal the file WANT. Fails
# (printing `diff -u` of the stdout) on any difference or on a
# non-zero exit status.
set -u
expected=$1
shift
name=
want=
if [ "$1" = "--file" ]; then
    name=$2
    want=$3
    shift 3
fi
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

status=0
"$@" > stdout.txt
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "exit status $rc"
    status=1
fi
diff -u "$expected" stdout.txt || status=1
if [ -n "$name" ] && ! cmp "$want" "$name"; then
    diff -u "$want" "$name"
    status=1
fi
exit $status
