#!/bin/sh
# surface.sh prints the module's surface report (SURFACE.md): per package,
# the non-test Go lines and the exported top-level identifiers (funcs, types,
# vars and consts, block members included; methods and fields are not top
# level). Every file counts whatever its build constraints, so the report
# does not depend on the platform that writes it. Run it through
# `make surface`; CI fails when the committed report is stale.
set -eu
GO=${GO:-go}
root=$($GO list -m -f '{{.Dir}}')

# measure DIR prints "<lines> <exported>" for the non-test Go files of DIR.
measure() {
	files=$(ls "$1"/*.go | grep -v '_test\.go$' || true)
	[ -n "$files" ] || { echo "0 0"; return; }
	# shellcheck disable=SC2086
	cat $files | awk '
		{ lines++ }
		/^func [A-Z]/ || /^(type|var|const) [A-Z]/ { n++ }
		/^(type|var|const) \($/ { block = 1; next }
		block && /^\)/ { block = 0 }
		block && /^\t[A-Z][A-Za-z0-9_]*/ { n++ }
		END { print lines + 0, n + 0 }'
}

echo "# SURFACE — non-test Go lines and exported identifiers per package"
echo
echo "Written by \`make surface\` (scripts/surface.sh); do not edit. The trend is"
echo "the point: a PR that subtracts shows up here as smaller numbers."
echo
echo "| package | non-test Go lines | exported identifiers |"
echo "|---|---:|---:|"
tl=0 te=0 ol=0 oe=0
for dir in $($GO list -f '{{.Dir}}' ./...); do
	pkg=${dir#"$root"}
	pkg=${pkg#/}
	set -- $(measure "$dir")
	case $pkg in
	internal/* | cmd/*) echo "| $pkg | $1 | $2 |" ;;
	*) ol=$((ol + $1)) oe=$((oe + $2)) ;;
	esac
	tl=$((tl + $1)) te=$((te + $2))
done
echo "| (root, benchmark, examples) | $ol | $oe |"
echo "| **module total** | **$tl** | **$te** |"
