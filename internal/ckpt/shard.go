package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// The dchag-ckpt/v2 shard layout. Integers are encoding/binary varints:
// Uvarint for counts and lengths, Varint for signed values. Float payloads
// are raw little-endian IEEE 754 float64, eight bytes each.
//
//	shard  = magic  str(Format)  str(OptAlgo)  varint(OptStep)
//	         uvarint(#leaves)  leaf...
//	leaf   = str(Name)  str(Logical)  varint(Axis)  ints(FullShape)
//	         varint(Lo)  varint(Hi)  ints(Shape)
//	         uvarint(#moments)  str(key)...      (keys strictly ascending)
//	         values  moment...                   (numel(Shape) float64 each,
//	                                              moments in key order)
//	str    = uvarint(len)  bytes
//	ints   = uvarint(len)  varint...             (len 0: nil, a whole leaf)
//
// The value count is the shape's element count, so a leaf cannot disagree
// with its own shape; nothing follows the last leaf.
const shardMagic = "DCHAGSHD"

// bufSize is the one fixed buffer a shard is written and read through.
const bufSize = 64 << 10

// minLeafBytes is the fewest bytes a leaf occupies: eight one-byte varints
// and one float64 (no dimension is below one, so every leaf has a value).
const minLeafBytes = 8 + 8

// ShardFile returns the conventional shard file name for a rank.
func ShardFile(rank int) string { return fmt.Sprintf("shard-%04d.bin", rank) }

// WriteShard writes tree as dir's shard file for the given rank, creating
// the directory if needed. It streams every buffer straight from the tree
// (for a BuildTree view, from the live parameters and moments) through one
// fixed-size buffer, and commits durably (atomicWrite), so a crash never
// leaves a half-written shard file under its name. A re-save into a
// directory that already holds a committed checkpoint and dies after some
// renames leaves the old manifest over newer shards; Open rejects that mix
// by the shards' optimizer step.
func WriteShard(dir string, rank int, tree Tree) error {
	if tree.Format == "" {
		tree.Format = Format
	}
	if tree.Format != Format {
		return fmt.Errorf("ckpt: cannot write shard with format %q (want %q)", tree.Format, Format)
	}
	for _, l := range tree.Leaves {
		if err := l.encodable(); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: creating checkpoint directory: %w", err)
	}
	return atomicWrite(filepath.Join(dir, ShardFile(rank)), func(f *os.File) error {
		return encodeTree(f, tree)
	})
}

// encodable reports why a leaf cannot be written: its value count is implied
// by its shape, so every buffer must hold exactly numel(Shape) values.
func (l Leaf) encodable() error {
	n := numel(l.Shape)
	if n != len(l.Values) {
		return fmt.Errorf("ckpt: cannot write leaf %q: %d values for shape %v", l.Name, len(l.Values), l.Shape)
	}
	for k, buf := range l.Opt {
		if len(buf) != n {
			return fmt.Errorf("ckpt: cannot write leaf %q: moment %q has %d values, parameter has %d", l.Name, k, len(buf), n)
		}
	}
	return nil
}

// encoder writes the shard layout through a bufio.Writer, whose error is
// sticky: Flush reports the first one.
type encoder struct {
	w *bufio.Writer
	b [binary.MaxVarintLen64]byte
}

func encodeTree(w io.Writer, tree Tree) error {
	e := &encoder{w: bufio.NewWriterSize(w, bufSize)}
	e.w.WriteString(shardMagic)
	e.str(tree.Format)
	e.str(tree.OptAlgo)
	e.varint(tree.OptStep)
	e.uvarint(len(tree.Leaves))
	for _, l := range tree.Leaves {
		keys := l.optKeys()
		e.str(l.Name)
		e.str(l.Logical)
		e.varint(l.Axis)
		e.ints(l.FullShape)
		e.varint(l.Lo)
		e.varint(l.Hi)
		e.ints(l.Shape)
		e.uvarint(len(keys))
		for _, k := range keys {
			e.str(k)
		}
		e.floats(l.Values)
		for _, k := range keys {
			e.floats(l.Opt[k])
		}
	}
	return e.w.Flush()
}

func (e *encoder) uvarint(v int) { e.w.Write(binary.AppendUvarint(e.b[:0], uint64(v))) }

func (e *encoder) varint(v int) { e.w.Write(binary.AppendVarint(e.b[:0], int64(v))) }

func (e *encoder) str(s string) {
	e.uvarint(len(s))
	e.w.WriteString(s)
}

func (e *encoder) ints(xs []int) {
	e.uvarint(len(xs))
	for _, x := range xs {
		e.varint(x)
	}
}

// floats appends xs's raw bits in place into the writer's free buffer,
// flushing whenever fewer than eight bytes are free.
func (e *encoder) floats(xs []float64) {
	for len(xs) > 0 {
		if e.w.Available() < 8 {
			if e.w.Flush() != nil {
				return
			}
		}
		b := e.w.AvailableBuffer()
		n := min(len(xs), cap(b)/8)
		for _, x := range xs[:n] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		e.w.Write(b)
		xs = xs[n:]
	}
}

// readShard loads one shard file. Leaf consistency is Assemble's check
// (Leaf.validate); the decoder only refuses what it cannot read.
func readShard(path string) (Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return Tree{}, fmt.Errorf("ckpt: opening shard: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Tree{}, fmt.Errorf("ckpt: opening shard: %w", err)
	}
	tree, err := decodeTree(f, fi.Size())
	if err != nil {
		return Tree{}, fmt.Errorf("ckpt: decoding shard %s: %w", filepath.Base(path), err)
	}
	return tree, nil
}

// decoder reads the shard layout from a file of known size. Every count is
// checked against the bytes that remain before anything is allocated, so a
// hostile header costs an error, never more memory than a small multiple of
// the file's size. The first error is sticky; later reads return zeros.
type decoder struct {
	r    *bufio.Reader
	size int64
	left int64 // bytes not yet consumed
	err  error
}

func decodeTree(r io.Reader, size int64) (Tree, error) {
	d := &decoder{r: bufio.NewReaderSize(r, bufSize), size: size, left: size}
	var magic [len(shardMagic)]byte
	if d.full(magic[:]); d.err == nil && string(magic[:]) != shardMagic {
		return Tree{}, fmt.Errorf("not a %s shard file", Format)
	}
	tree := Tree{Format: d.str()}
	if d.err == nil && tree.Format != Format {
		return Tree{}, fmt.Errorf("format %q not supported (want %q)", tree.Format, Format)
	}
	tree.OptAlgo = d.str()
	tree.OptStep = d.int()
	n := d.count(minLeafBytes, "leaf")
	tree.Leaves = make([]Leaf, 0, n)
	for range n {
		l := d.leaf()
		if d.err != nil {
			break
		}
		tree.Leaves = append(tree.Leaves, l)
	}
	if d.err == nil && d.left != 0 {
		d.fail("%d trailing bytes", d.left)
	}
	if d.err != nil {
		return Tree{}, d.err
	}
	return tree, nil
}

func (d *decoder) leaf() Leaf {
	l := Leaf{Name: d.str(), Logical: d.str(), Axis: d.int(), FullShape: d.ints()}
	l.Lo, l.Hi = d.int(), d.int()
	l.Shape = d.ints()
	keys := make([]string, d.count(1, "moment"))
	for i := range keys {
		keys[i] = d.str()
		if d.err == nil && i > 0 && keys[i] <= keys[i-1] {
			d.fail("leaf %q moment keys %q, %q not strictly ascending", l.Name, keys[i-1], keys[i])
		}
	}
	if d.err != nil {
		return l
	}
	n := numel(l.Shape)
	if n < 0 {
		d.fail("leaf %q shape %v has an empty or overflowing dimension", l.Name, l.Shape)
		return l
	}
	if buffers := int64(1 + len(keys)); int64(n) > d.left/8/buffers {
		d.fail("leaf %q claims %d buffers of %d values, %d bytes remain", l.Name, buffers, n, d.left)
		return l
	}
	l.Values = d.floats(n)
	if len(keys) > 0 {
		l.Opt = make(map[string][]float64, len(keys))
		for _, k := range keys {
			l.Opt[k] = d.floats(n)
		}
	}
	return l
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("at byte %d: %s", d.size-d.left, fmt.Sprintf(format, args...))
	}
}

// ReadByte feeds binary.ReadUvarint, never past the file's size.
func (d *decoder) ReadByte() (byte, error) {
	if d.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	c, err := d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	d.left--
	return c, nil
}

// full fills p; the caller has checked that p fits in what remains.
func (d *decoder) full(p []byte) {
	if d.err != nil {
		return
	}
	if int64(len(p)) > d.left {
		d.fail("%d bytes needed, %d remain", len(p), d.left)
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail("%v", err)
		return
	}
	d.left -= int64(len(p))
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d)
	if err != nil {
		d.fail("%v", err)
	}
	return v
}

func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d)
	if err != nil {
		d.fail("%v", err)
		return 0
	}
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads a count of entries of at least size bytes each, refusing one
// that the rest of the file cannot hold.
func (d *decoder) count(size int64, what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.left/size) {
		d.fail("%d %s entries claimed, %d bytes remain", n, what, d.left)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	b := make([]byte, d.count(1, "string byte"))
	d.full(b)
	return string(b)
}

func (d *decoder) ints() []int {
	n := d.count(1, "dimension")
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = d.int()
	}
	return xs
}

// floats reads n float64s (n checked by the caller) straight out of the
// reader's buffer.
func (d *decoder) floats(n int) []float64 {
	xs := make([]float64, n)
	for out := xs; len(out) > 0 && d.err == nil; {
		k := min(len(out), bufSize/8)
		b, err := d.r.Peek(8 * k)
		if err != nil {
			d.fail("%d values unread: %v", len(out), err)
			break
		}
		for i := range out[:k] {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		d.r.Discard(8 * k) // cannot fail: the bytes were just peeked
		d.left -= int64(8 * k)
		out = out[k:]
	}
	return xs
}
