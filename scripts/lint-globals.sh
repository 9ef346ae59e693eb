#!/bin/sh
# Lint: top-level mutable state in lib/.
#
# Lists every module-level value in lib/**/*.ml created by ref, Bytes.create,
# Bytes.make, Array.make, Hashtbl.create or Buffer.create, as "FILE NAME".
# That covers values at column 0, values at the top of a top-level
# `module M = struct` (reported as M.NAME), and state captured by a
# top-level closure (`let f =` followed by `let c = ref 0 in`).
#
# Fails if the list differs from scripts/globals.allow in either direction:
# a new global must be reviewed and justified there, and an entry whose
# global is gone must be deleted. Usage: sh scripts/lint-globals.sh
set -e
cd "$(dirname "$0")/.."
allow=scripts/globals.allow

found=$(find lib -name '*.ml' | sort | xargs awk '
  BEGIN {
    ctor = "(ref[ (]|ref$|Bytes\\.create|Bytes\\.make|Array\\.make|Hashtbl\\.create|Buffer\\.create)"
    binder = "let [a-z_][A-Za-z0-9_]* *(:[^=]*)?="
  }
  FNR == 1 { modname = ""; pending = "" }
  /^module [A-Z][A-Za-z0-9_]* *= *struct *$/ { modname = $2 "."; next }
  modname != "" && /^end/ { modname = ""; next }
  {
    ind = (modname == "" ? "" : "  ")
    if (pending != "") {
      # first body line of a parameterless `let NAME =`
      if ($0 ~ ("^" ind "  (" binder " *)?" ctor)) print FILENAME, pending
      if ($0 !~ /^ *$/) pending = ""
    }
    if ($0 ~ ("^" ind binder)) {
      name = substr($0, length(ind) + 5)
      sub(/[ :=].*/, "", name)
      rhs = $0
      sub("^" ind binder " *", "", rhs)
      if (rhs ~ ("^" ctor)) print FILENAME, modname name
      else if (rhs ~ /^(\(\*.*\*\))? *$/) pending = modname name
    }
  }' | sort)

allowed=$(grep -v '^#' "$allow" | grep -v '^ *$' | awk '{ print $1, $2 }' | sort)

new=$(printf '%s\n' "$found" | grep -vxF "$allowed" || true)
stale=$(printf '%s\n' "$allowed" | grep -vxF "$found" || true)
if [ -n "$new" ] || [ -n "$stale" ]; then
  if [ -n "$new" ]; then
    echo "lint-globals: top-level mutable state missing from $allow:" >&2
    printf '%s\n' "$new" | sed 's/^/  /' >&2
  fi
  if [ -n "$stale" ]; then
    echo "lint-globals: $allow lists globals that no longer exist:" >&2
    printf '%s\n' "$stale" | sed 's/^/  /' >&2
  fi
  exit 1
fi
echo "lint-globals: $(printf '%s\n' "$found" | grep -c .) top-level mutables, all allowlisted"
