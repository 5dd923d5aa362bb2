#!/bin/sh
# reach.sh lists every export under internal/ that no non-test Go code
# reaches. Two rules by name, over non-test files under cmd/, examples/,
# benchmark/ and internal/, never under a testdata/ directory (analyzer
# fixtures compile against stub packages and call nothing real):
#
#   - an exported top-level identifier (as surface.sh counts them) is reached
#     by a `pkg.Name` in another package, or by a use of Name in its own
#     package apart from the declaration, comments and string literals;
#   - an exported method is reached when some file selects `.Name` — by
#     name, whatever the receiver type.
#
# and one by symbol: an exported function or method is reached when a
# binary of cmd/, examples/ or benchmark/ links it (see the rule below).
#
# The deliberate exceptions below are left out, each with its reason; the
# script prints every other unreached export (a method as Type.Name), and
# every exception no rule finds unreached any more, and then fails, so an
# empty output and a zero exit mean every export has a non-test user or a
# stated reason, and every stated reason is still needed.
set -eu
GO=${GO:-go}
exceptions='
internal/analysis: RunFixture                 helper that other packages tests import
internal/analysis: Loader.LoadOne             called only by RunFixture
internal/promtext: Families.Value             helper that other packages tests import
internal/promtext: Parse                      the strict scraper the serving /metrics tests parse with
internal/dist: RunMesh                        helper that other packages tests import
internal/leakcheck: Check                     helper that other packages tests import
internal/nn: ParamsEqual                      helper that other packages tests import
internal/tensor: EqualApprox                  called only by ParamsEqual
internal/tensor: KernelTier                   helper that other packages tests import
internal/tensor: WithGoTwins                  helper that other packages tests import
internal/tensor: WithPoisonedLends            helper that other packages tests import
internal/tensor: TMatMulInto                  reference the product tests compare against
internal/tensor: SumAxisInto                  reference the reduction tests compare against
internal/tensor: SplitEqual                   reference that cuts each rank chunk in the collective tests
internal/core: NewDistTokenizer               the paper baseline, waits on ROADMAP item 1
internal/core: DistTokenizer.Forward          the paper baseline, waits on ROADMAP item 1
internal/core: DistTokenizer.Backward         the paper baseline, waits on ROADMAP item 1
internal/core: DistTokenizer.Params           the paper baseline, waits on ROADMAP item 1
internal/parallel: NewFSDP                    the FSDP axis, waits on ROADMAP item 6
internal/parallel: FSDP.ZeroGrads             the FSDP axis, waits on ROADMAP item 6
internal/comm: Communicator.ReduceScatterSum  called only by FSDP
internal/dist: MeshError.Unwrap               called by errors.Is and errors.As
internal/analysis: importerFunc.Import        called by go/types through types.Importer
internal/comm: Traffic.BytesFor               probe the tests pin the paper traffic claims with
internal/comm: Traffic.CallsFor               probe the tests pin the paper traffic claims with
internal/dist: Mesh.IntraNodeBytes            probe the tests pin the paper traffic claims with
internal/dist: Mesh.InterNodeBytes            probe the tests pin the paper traffic claims with
internal/dist: Mesh.AxisCallsInPhase          probe the tests pin the paper traffic claims with
internal/dist: Mesh.InterNodeCallsInPhase     probe the tests pin the paper traffic claims with
internal/dist: Mesh.AxisWireSeconds           probe the tests pin the paper traffic claims with
internal/dist: Mesh.GroupIntraNode            called only by the traffic probes
internal/hw: Machine.WireTime                 called only by the traffic probes
internal/ckpt: Checkpoint.LogicalTensor       probe the tests pin exact restore with
internal/faultinject: Plan.KillBeforeOp       the fault matrix the elastic and dist tests drive
internal/faultinject: Plan.KillAfterOp        the fault matrix the elastic and dist tests drive
internal/faultinject: Plan.KillInCheckpoint   the fault matrix the elastic and dist tests drive
internal/faultinject: Plan.Fired              the fault matrix the elastic and dist tests drive
internal/hw: Machine.ContiguousPlacement      fixture the placement tests build groups with
internal/tensor: Tensor.Fill                  fixture the tests build tensors with
internal/dist: Mesh.FSDPComm                  the FSDP axis, waits on ROADMAP item 6
internal/parallel: FSDP.ShardParams           the FSDP axis, waits on ROADMAP item 6
internal/parallel: FSDP.GatherParams          the FSDP axis, waits on ROADMAP item 6
internal/parallel: FSDP.ReduceScatterGrads    the FSDP axis, waits on ROADMAP item 6
internal/parallel: FSDP.ShardBytes            the FSDP axis, waits on ROADMAP item 6
'
root=$($GO list -m -f '{{.Dir}}')
cd "$root"
# users prints the non-test, non-fixture Go lines matching the extended
# regular expression $1 that are not comment lines, as path:line.
users() {
	grep -rE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata -e "$1" cmd examples benchmark internal |
		grep -v '^[^:]*:[[:space:]]*//' || true
}
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
		ext=$(users "\\b$pkg\\.$id\\b" | grep -vc "^$rel/[^/]*:" || true)
		# shellcheck disable=SC2086
		int=$(sed -e 's/"[^"]*"/""/g' $own | grep -w -e "$id" | grep -v '^[[:space:]]*//' |
			grep -Evc "^(func|type|var|const) $id\b|^	$id\b" || true)
		if [ "$ext" -eq 0 ] && [ "$int" -eq 0 ]; then
			echo "$rel: $id"
		fi
	done
	# Methods: "func (r *T[P]) Name(" gives T.Name.
	# shellcheck disable=SC2086
	cat $own | sed -n 's/^func ([^)]*[ *]\([A-Za-z0-9_]*\)\(\[[^]]*\]\)\{0,1\}) \([A-Z][A-Za-z0-9_]*\).*/\1.\3/p' |
	while read -r m; do
		if [ -z "$(users "\\.${m#*.}\\b" | head -n 1)" ]; then
			echo "$rel: $m"
		fi
	done
done)
# Third rule, by receiver type through the linker: build every main package
# with inlining off and flag each exported function or method (declared in
# a file the build compiles) whose symbol — pkg.F, pkg.T.M or pkg.(*T).M —
# no binary keeps. The linker drops what no main reaches, so a method that
# only shares its name with a reached one shows here.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
$GO build -gcflags=all=-l -o "$bin/" ./cmd/... ./examples/... ./benchmark
for b in "$bin"/*; do
	$GO tool nm "$b"
done | sed -n 's/^.* T //p' | sort -u >"$bin/linked"
unlinked=$($GO list -f '{{.Dir}} {{.ImportPath}}{{range .GoFiles}} {{.}}{{end}}' ./internal/... |
	while read -r dir path files; do
		# shellcheck disable=SC2086
		(cd "$dir" && cat $files) | awk -v rel="${dir#"$root"/}:" -v path="$path." '
			/^func \(/ {
				recv = $0; sub(/^func \(/, "", recv); sub(/\).*/, "", recv)
				name = $0; sub(/^func \([^)]*\) /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
				if (name !~ /^[A-Z]/) next
				t = recv; sub(/^.*[ *]/, "", t)
				ptr = path "(*" t ")." name
				if (recv ~ /\*/) print rel, t "." name, ptr
				else print rel, t "." name, path t "." name, ptr
				next
			}
			/^func [A-Z]/ { name = $0; sub(/^func /, "", name); sub(/[^A-Za-z0-9_].*/, "", name); print rel, name, path name }'
	done |
	awk 'NR == FNR { linked[$0] = 1; next } { for (i = 3; i <= NF; i++) if ($i in linked) next; print $1, $2 }' "$bin/linked" - |
	while read -r rel id; do
		echo "$rel $id"
	done)
printf '%s\n%s\n' "$found" "$unlinked" | sed '/^$/d' | sort -u >"$bin/unreached"
printf '%s\n' "$exceptions" | sed -n 's/^\([^:]*: [^ ]*\) .*/\1/p' | sort -u >"$bin/excepted"
found=$(comm -23 "$bin/unreached" "$bin/excepted")
stale=$(comm -13 "$bin/unreached" "$bin/excepted" | sed 's/$/ (excepted, but reached)/')
if [ -n "$found$stale" ]; then
	printf '%s\n' "$found" "$stale" | sed '/^$/d'
	exit 1
fi
