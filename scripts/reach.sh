#!/bin/sh
# reach.sh lists every exported top-level identifier under internal/ (as
# surface.sh counts them) that no non-test Go code references outside its own
# definition: no `pkg.Name` in another package's non-test files under cmd/,
# examples/, benchmark/ or internal/, and no use of Name in its own package's
# non-test files apart from the declaration, comments and string literals.
# Methods are not top level and are not listed. The deliberate exceptions
# below are left out; the script prints every other such export and then
# fails, so an empty output and a zero exit mean every export has a non-test
# user or a stated reason.
set -eu
GO=${GO:-go}
exceptions='
internal/analysis: RunFixture    helper that other packages tests import
internal/dist: RunMesh           helper that other packages tests import
internal/leakcheck: Check        helper that other packages tests import
internal/nn: ParamsEqual         helper that other packages tests import
internal/tensor: TMatMulInto     reference the product tests compare against
internal/tensor: SumAxisInto     reference the reduction tests compare against
internal/tensor: SplitEqual      reference that cuts each rank chunk in the collective tests
internal/core: NewDistTokenizer  the paper baseline, waits on ROADMAP item 2
internal/parallel: NewFSDP       the FSDP axis, waits on ROADMAP item 5
'
root=$($GO list -m -f '{{.Dir}}')
cd "$root"
found=$(for dir in $($GO list -f '{{.Dir}}' ./internal/...); do
	rel=${dir#"$root"/}
	pkg=$($GO list -f '{{.Name}}' "$dir")
	own=$(ls "$dir"/*.go | grep -v '_test\.go$')
	# shellcheck disable=SC2086
	cat $own | awk '
		/^func [A-Z]/ { sub(/^func /, ""); sub(/[^A-Za-z0-9_].*/, ""); print }
		/^(type|var|const) [A-Z]/ { print $2 }
		/^(type|var|const) \($/ { block = 1; next }
		block && /^\)/ { block = 0 }
		block && /^\t[A-Z][A-Za-z0-9_]*/ { sub(/^\t/, ""); sub(/[^A-Za-z0-9_].*/, ""); print }' |
	while read -r id; do
		ext=$(grep -rw --include='*.go' --exclude='*_test.go' -e "$pkg\.$id" cmd examples benchmark internal |
			grep -v "^$rel/" | grep -vc '^[^:]*:[[:space:]]*//' || true)
		# shellcheck disable=SC2086
		int=$(sed -e 's/"[^"]*"/""/g' $own | grep -w -e "$id" | grep -v '^[[:space:]]*//' |
			grep -Evc "^(func|type|var|const) $id\b|^	$id\b" || true)
		if [ "$ext" -eq 0 ] && [ "$int" -eq 0 ] &&
			! printf '%s\n' "$exceptions" | grep -q "^$rel: $id "; then
			echo "$rel: $id"
		fi
	done
done)
if [ -n "$found" ]; then
	echo "$found"
	exit 1
fi
