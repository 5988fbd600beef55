package snapio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

const testMagic = 0x54534554 // "TEST"

// testFrame writes a frame exercising every field kind; vals is long enough
// to cross the staging buffer's bound.
func testFrame(t testing.TB, vals []uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, 3)
	w.U64(math.MaxUint64 - 1)
	w.U32(uint32(len("name")))
	w.String("name")
	w.U64(uint64(len(vals)))
	w.U32s(vals)
	n, err := w.Close()
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Close = %d, %v; wrote %d bytes", n, err, buf.Len())
	}
	return buf.Bytes()
}

// readFrame decodes testFrame's layout.
func readFrame(data []byte) (r *Reader, magic, version uint32, seq uint64, name string, vals []uint32) {
	r = NewReader(bytes.NewReader(data))
	magic, version, seq = r.U32(), r.U32(), r.U64()
	name = r.String(uint64(r.U32()))
	vals = r.AppendU32s(nil, r.U64())
	r.Trailer()
	return
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint32, chunk/4*2+77)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	data := testFrame(t, vals)

	// The layout, spelled out: little-endian fields, then the CRC-32C of
	// every byte before the trailer.
	want := binary.LittleEndian.AppendUint32(nil, testMagic)
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = binary.LittleEndian.AppendUint64(want, math.MaxUint64-1)
	want = binary.LittleEndian.AppendUint32(want, 4)
	want = append(want, "name"...)
	want = binary.LittleEndian.AppendUint64(want, uint64(len(vals)))
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint32(want, v)
	}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
	if !bytes.Equal(data, want) {
		t.Fatal("frame bytes differ from the documented layout")
	}

	r, magic, version, seq, name, got := readFrame(data)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if magic != testMagic || version != 3 || seq != math.MaxUint64-1 || name != "name" {
		t.Fatalf("header decoded as %#x v%d seq %d name %q", magic, version, seq, name)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], vals[i])
		}
	}

	// A destination with room for every value is filled in place.
	r = NewReader(bytes.NewReader(data[32:])) // past the count
	dst := make([]uint32, len(vals))
	filled := r.AppendU32s(dst[:0], uint64(len(vals)))
	if r.Err() != nil || &filled[0] != &dst[0] || !slices.Equal(dst, vals) {
		t.Fatalf("filling in place: %v", r.Err())
	}
}

// TestFrameBitFlipsAndTruncations: no single-bit flip and no truncation of
// a frame gets past the trailer.
func TestFrameBitFlipsAndTruncations(t *testing.T) {
	data := testFrame(t, []uint32{0, 1, 1 << 31, math.MaxUint32})
	for i := range 8 * len(data) {
		bad := bytes.Clone(data)
		bad[i/8] ^= 1 << (i % 8)
		// A flip may turn a length into garbage; the frame must still fail.
		r := NewReader(bytes.NewReader(bad))
		r.U32()
		r.U32()
		r.U64()
		r.String(uint64(min(r.U32(), 64)))
		r.AppendU32s(nil, min(r.U64(), 64))
		r.Trailer()
		if r.Err() == nil {
			t.Fatalf("bit %d of byte %d flipped, frame accepted", i%8, i/8)
		}
	}
	for cut := range len(data) {
		r, _, _, _, _, _ := readFrame(data[:cut])
		if r.Err() == nil {
			t.Fatalf("truncation to %d bytes: %v", cut, r.Err())
		}
	}
}

// countingWriter records the largest single Write.
type countingWriter struct{ calls, largest int }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.calls++
	c.largest = max(c.largest, len(b))
	return len(b), nil
}

func TestWriterStagingIsBounded(t *testing.T) {
	var c countingWriter
	w := NewWriter(&c, testMagic, 1)
	w.U32s(make([]uint32, 1<<20))
	w.String(string(make([]byte, 3*chunk/2)))
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c.largest > chunk || c.calls < (4<<20)/chunk {
		t.Fatalf("%d writes, largest %d bytes (bound %d)", c.calls, c.largest, chunk)
	}
	// A small frame is one write: the log header relies on it.
	c = countingWriter{}
	w = NewWriter(&c, testMagic, 1)
	w.U64(7)
	if _, err := w.Close(); err != nil || c.calls != 1 || c.largest != 20 {
		t.Fatalf("header frame: %d writes, largest %d, %v", c.calls, c.largest, err)
	}
}

// TestFNVFrozen pins the frozen folds: version-1 files store their output,
// so a change here makes them fail to load.  FNVU32s is FNV-1a 64 over the
// little-endian bytes, as hash/fnv computes it.
func TestFNVFrozen(t *testing.T) {
	if got := FNVU32s(FNVSeed, []uint32{0, 1, 2, 255, 256, 0xdeadbeef, math.MaxUint32}); got != 0x129c1a788fd7a87c {
		t.Fatalf("FNVU32s drifted: %#x", got)
	}
	if got := FNVU32s(FNVString(FNVSeed, "k"), []uint32{7, 7, 1 << 31}); got != 0x1e56dff33a0714af {
		t.Fatalf("FNVU32s after FNVString drifted: %#x", got)
	}
	rng := rand.New(rand.NewSource(2))
	for n := range 40 {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		h := fnv.New64a()
		for _, v := range vals {
			h.Write(binary.LittleEndian.AppendUint32(nil, v))
		}
		if got := FNVU32s(FNVSeed, vals); got != h.Sum64() {
			t.Fatalf("n=%d: FNVU32s %#x, hash/fnv %#x", n, got, h.Sum64())
		}
	}
}

// allocSlack covers the Reader itself and the first array step.
const allocSlack = 16 << 10

// FuzzReader decodes arbitrary bytes as a frame whose lengths come from the
// input: it must never panic, never allocate more than a small multiple of
// the bytes it was given, and accept only frames it re-encodes bit for bit.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(testFrame(f, []uint32{1, 2, 3}))
	f.Add(testFrame(f, make([]uint32, 3000)))
	huge := binary.LittleEndian.AppendUint32(nil, testMagic)
	huge = binary.LittleEndian.AppendUint32(huge, 3)
	huge = binary.LittleEndian.AppendUint64(huge, 0)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62) // a hostile count
	f.Add(append(huge, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, magic, version, seq, name, vals := readFrame(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(8*len(data)+allocSlack) {
			t.Fatalf("%d input bytes allocated %d", len(data), got)
		}
		if r.Err() != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, magic, version)
		w.U64(seq)
		w.U32(uint32(len(name)))
		w.String(name)
		w.U64(uint64(len(vals)))
		w.U32s(vals)
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("accepted frame does not re-encode to its input")
		}
	})
}
