#!/bin/sh
# reach.sh lists every exported top-level identifier under internal/ (as
# surface.sh counts them) that no non-test Go code references outside its own
# definition: no `pkg.Name` in another package's non-test files under cmd/,
# examples/, benchmark/ or internal/, and no use of Name in its own package's
# non-test files apart from the declaration, comments and string literals.
# Methods are not top level and are not listed. An empty output means every
# export has a non-test user; ROADMAP item 4 names the deliberate exceptions.
set -eu
GO=${GO:-go}
root=$($GO list -m -f '{{.Dir}}')
cd "$root"
for dir in $($GO list -f '{{.Dir}}' ./internal/...); do
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
		if [ "$ext" -eq 0 ] && [ "$int" -eq 0 ]; then
			echo "$rel: $id"
		fi
	done
done
