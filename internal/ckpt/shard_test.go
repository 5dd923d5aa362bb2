package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// edgeBits are float64 bit patterns a byte-order or conversion slip would
// disturb: NaN payloads (quiet, signalling, negative), both zeros,
// subnormals, infinities and the extremes.
var edgeBits = []uint64{
	0x7ff8000000000001, 0x7ff0000000000001, 0xfff8deadbeef0001, 0x7fffffffffffffff,
	0x8000000000000000, 0x0000000000000000, 0x0000000000000001, 0x800fffffffffffff,
	0x7ff0000000000000, 0xfff0000000000000, 0x7fefffffffffffff, 0x0010000000000000,
}

func randomBuf(rng *rand.Rand, n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		if rng.Intn(3) == 0 {
			buf[i] = math.Float64frombits(edgeBits[rng.Intn(len(edgeBits))])
		} else {
			buf[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return buf
}

// randomTree builds a tree of whole and sharded leaves, some with moments
// and some without, whose payloads are random bits and edge patterns.
func randomTree(rng *rand.Rand) Tree {
	tree := Tree{Format: Format, OptStep: rng.Intn(1000) - 5}
	if rng.Intn(2) == 0 {
		tree.OptAlgo = "adamw"
	}
	for i := range 1 + rng.Intn(6) {
		shape := make([]int, 1+rng.Intn(3))
		for d := range shape {
			shape[d] = 1 + rng.Intn(5)
		}
		l := Leaf{Name: string(rune('a' + i)), Logical: "blocks." + string(rune('a'+i)), Shape: shape}
		if rng.Intn(2) == 0 {
			l.Axis = rng.Intn(len(shape))
			l.FullShape = append([]int(nil), shape...)
			l.Lo = rng.Intn(4)
			l.Hi = l.Lo + shape[l.Axis]
			l.FullShape[l.Axis] = l.Hi + rng.Intn(4)
		}
		n := numel(shape)
		l.Values = randomBuf(rng, n)
		if rng.Intn(2) == 0 {
			l.Opt = map[string][]float64{"m": randomBuf(rng, n), "v": randomBuf(rng, n)}
		}
		tree.Leaves = append(tree.Leaves, l)
	}
	return tree
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameTree fails unless got carries want's every field, payloads
// compared by their bits.
func requireSameTree(t *testing.T, got, want Tree) {
	t.Helper()
	if got.Format != want.Format || got.OptAlgo != want.OptAlgo || got.OptStep != want.OptStep || len(got.Leaves) != len(want.Leaves) {
		t.Fatalf("tree header %q %q %d with %d leaves, want %q %q %d with %d",
			got.Format, got.OptAlgo, got.OptStep, len(got.Leaves), want.Format, want.OptAlgo, want.OptStep, len(want.Leaves))
	}
	for i, w := range want.Leaves {
		g := got.Leaves[i]
		if g.Name != w.Name || g.Logical != w.Logical || g.Axis != w.Axis || g.Lo != w.Lo || g.Hi != w.Hi ||
			!sameInts(g.FullShape, w.FullShape) || (g.FullShape == nil) != (w.FullShape == nil) || !sameInts(g.Shape, w.Shape) {
			t.Fatalf("leaf %d annotation %+v, want %+v", i, g, w)
		}
		if !sameBits(g.Values, w.Values) {
			t.Fatalf("leaf %q values differ in their bits", w.Name)
		}
		if !sameKeys(g.optKeys(), w.optKeys()) {
			t.Fatalf("leaf %q moments %v, want %v", w.Name, g.optKeys(), w.optKeys())
		}
		for k, buf := range w.Opt {
			if !sameBits(g.Opt[k], buf) {
				t.Fatalf("leaf %q moment %q differs in its bits", w.Name, k)
			}
		}
	}
}

func encode(t *testing.T, tree Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardRoundTripBits: random trees survive encode → decode with every
// payload's bits, through memory and through a committed file.
func TestShardRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	dir := t.TempDir()
	for i := range 200 {
		tree := randomTree(rng)
		b := encode(t, tree)
		got, err := decodeTree(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		requireSameTree(t, got, tree)
		if i%20 == 0 {
			if err := WriteShard(dir, i, tree); err != nil {
				t.Fatal(err)
			}
			got, err := readShard(filepath.Join(dir, ShardFile(i)))
			if err != nil {
				t.Fatal(err)
			}
			requireSameTree(t, got, tree)
		}
	}
	// A payload longer than the stream buffer crosses its flushes and peeks.
	big := Tree{Format: Format, Leaves: []Leaf{{
		Name: "w", Logical: "w", Shape: []int{3, bufSize/8 + 5},
		Values: randomBuf(rng, 3*(bufSize/8+5)),
	}}}
	big.Leaves[0].Opt = map[string][]float64{"m": randomBuf(rng, len(big.Leaves[0].Values))}
	b := encode(t, big)
	got, err := decodeTree(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameTree(t, got, big)
}

// TestTruncatedShardRefused cuts a valid shard at every 8th byte, and adds
// a trailing byte: each is an error naming the shard, never a tree.
func TestTruncatedShardRefused(t *testing.T) {
	b := encode(t, randomTree(rand.New(rand.NewSource(5))))
	dir := t.TempDir()
	path := filepath.Join(dir, ShardFile(3))
	for n := 0; n < len(b); n += 8 {
		if err := os.WriteFile(path, b[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readShard(path); err == nil || !strings.Contains(err.Error(), ShardFile(3)) {
			t.Fatalf("shard cut to %d of %d bytes: err %v, want an error naming %s", n, len(b), err, ShardFile(3))
		}
	}
	if err := os.WriteFile(path, append(b, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readShard(path); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("shard with a trailing byte: err %v", err)
	}
}

// TestHostileCountsRefused: a header claiming 2^40 entries of any kind (a
// string's bytes, leaves, dimensions, moments) in a short file is an error
// before anything of that size is allocated.
func TestHostileCountsRefused(t *testing.T) {
	const huge = 1 << 40
	uv, v := binary.AppendUvarint, binary.AppendVarint
	str := func(b []byte, s string) []byte { return append(uv(b, uint64(len(s))), s...) }
	// head is a valid tree header up to the leaf count; leaf a valid whole
	// leaf "w" up to its shape.
	head := v(str(str([]byte(shardMagic), Format), ""), 0)
	leaf := v(v(uv(v(str(str(uv(bytes.Clone(head), 1), "w"), "w"), 0), 0), 0), 0)
	for name, b := range map[string][]byte{
		"format length": uv([]byte(shardMagic), huge),
		"leaf count":    uv(bytes.Clone(head), huge),
		"shape rank":    uv(bytes.Clone(leaf), huge),
		"moment count":  uv(v(uv(bytes.Clone(leaf), 1), 2), huge),
	} {
		b = append(b, make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeTree(bytes.NewReader(b), int64(len(b)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "remain") {
			t.Fatalf("%s: err %v, want a count refused against the bytes that remain", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: decoding %d bytes allocated %d", name, len(b), alloc)
		}
	}
}

// TestWriteShardRefusesMalformedLeaf: a leaf's value count is its shape's,
// so the writer refuses buffers that disagree instead of writing a file
// the reader would misparse.
func TestWriteShardRefusesMalformedLeaf(t *testing.T) {
	for _, l := range []Leaf{
		{Name: "short", Shape: []int{2, 3}, Values: make([]float64, 5)},
		{Name: "moment", Shape: []int{2}, Values: make([]float64, 2), Opt: map[string][]float64{"m": make([]float64, 3)}},
		{Name: "empty", Shape: []int{0}},
	} {
		dir := t.TempDir()
		err := WriteShard(dir, 0, Tree{Leaves: []Leaf{l}})
		if err == nil || !strings.Contains(err.Error(), l.Name) {
			t.Fatalf("leaf %q: err %v", l.Name, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("leaf %q: refused write left %d entries", l.Name, len(entries))
		}
	}
}

// TestBuildTreeAliasesCloneDoesNot: BuildTree's leaves are the live
// parameter and moment buffers; Clone shares none of them.
func TestBuildTreeAliasesCloneDoesNot(t *testing.T) {
	params := shardedParams(t, 2, 4, 3, fill)[1]
	opt := optim.NewAdamW(params, 0.1, 0)
	params[0].Grad.Fill(1)
	opt.Step()
	tree := BuildTree(params, opt)
	clone := tree.Clone()
	want := clone.Clone()

	params[0].W.Data[0] = 42
	params[0].Grad.Fill(-3)
	opt.Step()
	leaf := tree.Leaves[0]
	if leaf.Values[0] != params[0].W.Data[0] || leaf.Values[0] == want.Leaves[0].Values[0] {
		t.Fatalf("BuildTree leaf reads %v after the parameter moved to %v", leaf.Values[0], params[0].W.Data[0])
	}
	live := opt.ExportState().Moments["w"]
	for _, k := range []string{"m", "v"} {
		if &leaf.Opt[k][0] != &live[k][0] {
			t.Fatalf("BuildTree moment %q is not the optimizer's buffer", k)
		}
	}
	requireSameTree(t, clone, want)
	if sameBits(clone.Leaves[0].Values, leaf.Values) || sameBits(clone.Leaves[0].Opt["m"], leaf.Opt["m"]) {
		t.Fatal("Clone followed the live buffers")
	}
}

// TestSaveIntoWorkingDirectory: a save into "." stages its temp files in the
// working directory itself, not in os.TempDir — where the rename would
// cross filesystems and the directory sync would miss the target.
func TestSaveIntoWorkingDirectory(t *testing.T) {
	root := t.TempDir()
	t.Chdir(root)
	t.Setenv("TMPDIR", filepath.Join(root, "missing"))
	params := []*nn.Param{nn.NewParam("w", tensor.Full(2, 3, 2))}
	if err := WriteShard(".", 0, BuildTree(params, nil)); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(".", Manifest{World: 1}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != ManifestName+" "+ShardFile(0) {
		t.Fatalf("working directory holds %v", names)
	}
	ck, err := Open(".")
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := ck.LogicalTensor("w"); w.At(1, 1) != 2 {
		t.Fatalf("reopened w = %v", w.Data)
	}
}
