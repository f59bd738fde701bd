#!/bin/sh
# Net line delta of the Rust sources between two revisions.
#
# Usage: sh scripts/line_delta.sh BASE [HEAD]     (HEAD defaults to HEAD)
#
# Classifies every line of each `.rs` file that changed between BASE and
# HEAD, on both sides:
#   code      non-blank, non-comment lines before the file's first
#             `#[cfg(test)]`, in files outside `tests/` and `benches/`;
#   comments  comment lines in that same region;
#   tests     every other non-blank line: from the first `#[cfg(test)]`
#             on, and all of a file under `tests/` or `benches/`;
#   raw       every line, blank ones included.
# Prints, per crate and in total, the code lines of the changed files on
# each side and the change in every class. Uses only POSIX sh, awk and
# git.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE [HEAD]" >&2
    exit 2
fi
base=$1
head=${2:-HEAD}

# classify REV PATH TESTFILE: prints "code comments tests raw" for PATH
# at REV (all zero when the file does not exist there).
classify() {
    if git cat-file -e "$1:$2" 2>/dev/null; then
        git show "$1:$2"
    fi | awk -v test="$3" '
        BEGIN { code = comments = tests = raw = 0; block = 0 }
        {
            raw++
            line = $0
            sub(/^[ \t]+/, "", line)
            if (!test && line ~ /^#\[cfg\(test\)\]/) test = 1
            if (line == "") next
            if (test) { tests++; next }
            if (block) {
                comments++
                if (line ~ /\*\//) block = 0
                next
            }
            if (line ~ /^\/\//) { comments++; next }
            if (line ~ /^\/\*/) {
                comments++
                if (line !~ /\*\//) block = 1
                next
            }
            code++
        }
        END { print code, comments, tests, raw }'
}

# crate_of PATH: the workspace crate (or package) a path belongs to.
crate_of() {
    case $1 in
        crates/vendor/*) rest=${1#crates/vendor/}; echo "vendor/${rest%%/*}" ;;
        crates/*) rest=${1#crates/}; echo "${rest%%/*}" ;;
        benchmark/*) echo benchmark ;;
        *) echo root ;;
    esac
}

git diff --no-renames --name-only "$base" "$head" -- '*.rs' |
    while IFS= read -r path; do
        case /$path in
            */tests/* | */benches/*) testfile=1 ;;
            *) testfile=0 ;;
        esac
        echo "$(crate_of "$path") $(classify "$base" "$path" "$testfile")" \
            "$(classify "$head" "$path" "$testfile")"
    done |
    sort |
    awk '
        function row(name, v) {
            printf "%-16s %7d %7d %+7d %+9d %+7d %+7d\n", name, v[1], v[5],
                v[5] - v[1], v[6] - v[2], v[7] - v[3], v[8] - v[4]
        }
        BEGIN {
            printf "%-16s %7s %7s %7s %9s %7s %7s\n", "crate", "code", "code",
                "code", "comments", "tests", "raw"
            printf "%-16s %7s %7s %7s %9s %7s %7s\n", "", "base", "head",
                "delta", "delta", "delta", "delta"
        }
        $1 != name {
            if (name != "") row(name, cur)
            name = $1
            for (i = 1; i <= 8; i++) cur[i] = 0
        }
        {
            for (i = 1; i <= 8; i++) { cur[i] += $(i + 1); tot[i] += $(i + 1) }
        }
        END {
            if (name != "") row(name, cur)
            row("total", tot)
        }'
