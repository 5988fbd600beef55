package mmdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cssidx/internal/failfs"
	"cssidx/internal/qcache"
	"cssidx/internal/wal"
	"cssidx/internal/workload"
)

func mustAppend(t *testing.T, d *DurableTable, cols map[string][]uint32) {
	t.Helper()
	if err := d.AppendRows(cols); err != nil {
		t.Fatal(err)
	}
}

func colVals(t *testing.T, tb *Table, name string) []uint32 {
	t.Helper()
	c, ok := tb.Column(name)
	if !ok {
		t.Fatalf("column %s missing", name)
	}
	out := make([]uint32, c.Len())
	for i := range out {
		out[i] = c.Value(i)
	}
	return out
}

func TestDurableTableRoundTrip(t *testing.T) {
	fsys := failfs.NewMem(1)
	d, err := OpenDurable(fsys, "db", "orders", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	// First batch on an empty table defines the schema.
	mustAppend(t, d, map[string][]uint32{"qty": {10, 20}, "sku": {7, 8}})
	mustAppend(t, d, map[string][]uint32{"qty": {30}, "sku": {9}})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(fsys, "db", "orders", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 3 {
		t.Fatalf("recovered %d rows, want 3", r.Rows())
	}
	wantCols := []string{"qty", "sku"} // sorted-name schema order
	gotCols := r.Columns()
	if len(gotCols) != 2 || gotCols[0] != wantCols[0] || gotCols[1] != wantCols[1] {
		t.Fatalf("recovered columns %v, want %v", gotCols, wantCols)
	}
	if got := colVals(t, r.Table, "qty"); !equalU32(got, []uint32{10, 20, 30}) {
		t.Fatalf("qty = %v", got)
	}
	if got := colVals(t, r.Table, "sku"); !equalU32(got, []uint32{7, 8, 9}) {
		t.Fatalf("sku = %v", got)
	}
	if r.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", r.LastSeq())
	}
}

func TestDurableTableCheckpoint(t *testing.T) {
	fsys := failfs.NewMem(2)
	d, err := OpenDurable(fsys, "db", "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, map[string][]uint32{"v": {1, 2, 3}})
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := d.LogSize()
	mustAppend(t, d, map[string][]uint32{"v": {4}})
	if d.LogSize() <= after {
		t.Fatal("post-checkpoint append did not grow the fresh log")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(fsys, "db", "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := colVals(t, r.Table, "v"); !equalU32(got, []uint32{1, 2, 3, 4}) {
		t.Fatalf("v = %v", got)
	}
	// Checkpoint again from the recovered table; a third open must see
	// the same rows with an empty log.
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if r.LogSize() != 20 { // bare header
		t.Fatalf("log not truncated: %d bytes", r.LogSize())
	}
}

func TestDurableTableRejectsBadBatches(t *testing.T) {
	fsys := failfs.NewMem(3)
	d, err := OpenDurable(fsys, "db", "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.AppendRows(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := d.AppendRows(map[string][]uint32{"a": {1}, "b": {1, 2}}); err == nil {
		t.Fatal("ragged schema batch accepted")
	}
	mustAppend(t, d, map[string][]uint32{"a": {1}})
	if err := d.AppendRows(map[string][]uint32{"b": {2}}); err == nil {
		t.Fatal("wrong-column batch accepted")
	}
	if err := d.AppendRows(map[string][]uint32{"a": {1}, "b": {2}}); err == nil {
		t.Fatal("extra-column batch accepted")
	}
	// None of the rejects may have hit the log.
	if d.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1", d.LastSeq())
	}
}

// openGolden copies testdata/durable's t.snap + t.wal pair — written by an
// earlier build: two appends, Checkpoint, two more appends — to a fresh
// directory and opens it.
func openGolden(t *testing.T) (*DurableTable, string) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"t.snap", "t.wal"} {
		b, err := os.ReadFile(filepath.Join("testdata/durable", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDurable(nil, dir, "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

// TestDurableTableGoldenFiles pins the on-disk formats (snapshot version 2
// and the batch record; version 1 is TestSnapshotCodecVersions'): the golden
// pair must keep recovering the same rows, and a Checkpoint of them must keep
// writing t.checkpoint.snap byte for byte.
func TestDurableTableGoldenFiles(t *testing.T) {
	d, dir := openGolden(t)
	if got := d.Columns(); !slices.Equal(got, []string{"k", "v"}) {
		t.Fatalf("columns %v", got)
	}
	if got := colVals(t, d.Table, "k"); !equalU32(got, []uint32{3, 1, 4, 1, 5, 9, 2, 6}) {
		t.Fatalf("k = %v", got)
	}
	if got := colVals(t, d.Table, "v"); !equalU32(got, []uint32{10, 20, 30, 40, 50, 60, 70, 80}) {
		t.Fatalf("v = %v", got)
	}
	if d.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", d.LastSeq())
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "t.snap"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/durable/t.checkpoint.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("checkpoint wrote %x, golden %x", got, golden)
	}
}

// TestDurableTableSweepsStaleTemps: an interrupted Checkpoint can leave a
// snapshot temp (t.snap.tmp*) and a log temp (t.wal.tmp*) behind on a real
// filesystem; the next open removes both.
func TestDurableTableSweepsStaleTemps(t *testing.T) {
	d, dir := openGolden(t)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, litter := range []string{"t.snap.tmp000001", "t.wal.tmp000002"} {
		if err := os.WriteFile(filepath.Join(dir, litter), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenDurable(nil, dir, "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 8 {
		t.Fatalf("recovered %d rows, want 8", r.Rows())
	}
	names, err := failfs.OS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"t.snap", "t.wal"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v after reopen, want %v", names, want)
	}
}

// FuzzOpenDurable feeds arbitrary snapshot and log bytes through
// OpenDurable's recovery: it must return an error or a consistent, writable
// table — never panic.  Seeded from the golden pair in testdata/durable.
func FuzzOpenDurable(f *testing.F) {
	var golden [3][]byte
	for i, name := range []string{"t.snap", "t.wal", "t.checkpoint.snap"} {
		b, err := os.ReadFile(filepath.Join("testdata/durable", name))
		if err != nil {
			f.Fatal(err)
		}
		golden[i] = b
	}
	f.Add(golden[0], golden[1])
	f.Add(golden[2], []byte{})
	f.Add([]byte{}, golden[1])
	f.Add(golden[0], []byte{})
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		fsys := failfs.NewMem(1)
		for name, data := range map[string][]byte{"db/t.snap": snap, "db/t.wal": log} {
			if len(data) == 0 {
				continue
			}
			f, err := fsys.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		d, err := OpenDurable(fsys, "db", "t", wal.None())
		if err != nil {
			return
		}
		defer d.Close()
		next := map[string][]uint32{}
		for _, name := range d.Columns() {
			if got := len(colVals(t, d.Table, name)); got != d.Rows() {
				t.Fatalf("column %s has %d values, table %d rows", name, got, d.Rows())
			}
			next[name] = []uint32{7}
		}
		if len(next) == 0 {
			next["k"] = []uint32{7}
		}
		rows := d.Rows()
		if err := d.AppendRows(next); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if d.Rows() != rows+1 {
			t.Fatalf("%d rows after one append to %d", d.Rows(), rows)
		}
	})
}

// TestAppendRowsRejectsUnknownColumn: a batch naming a column the table
// lacks is refused whole by the plain table too, not appended with the
// stray column dropped.
func TestAppendRowsRejectsUnknownColumn(t *testing.T) {
	tb := NewTable("t")
	if err := tb.AddColumn("k", []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRows(map[string][]uint32{"k": {2}, "typo": {3}}); err == nil {
		t.Fatal("batch with an unknown column accepted")
	}
	if tb.Rows() != 1 {
		t.Fatalf("table has %d rows after a rejected batch, want 1", tb.Rows())
	}
}

func TestDurableTableSnapshotChecksum(t *testing.T) {
	fsys := failfs.NewMem(4)
	d, err := OpenDurable(fsys, "db", "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, map[string][]uint32{"v": {1, 2, 3, 4, 5}})
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a value byte inside the snapshot; reopen must refuse it.
	data, err := failfs.ReadAll(fsys, "db/t.snap")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-12] ^= 0xFF
	f, err := fsys.Create("db/t.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(fsys, "db", "t", wal.Always()); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// snapshotV1 encodes t the way version 1 did: the same layout under a u64
// FNV-1a trailer over each column's name and values.  The writer only writes
// version 2; files like this one must keep loading.
func snapshotV1(t *Table, seq uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, snapMagic)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.order)))
	sum := uint64(qcache.HashSeed)
	for _, name := range t.order {
		raw := t.cols[name].raw
		b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(raw)))
		sum = qcache.HashString(sum, name)
		for _, v := range raw {
			b = binary.LittleEndian.AppendUint32(b, v)
			sum = qcache.HashU32(sum, v)
		}
	}
	return binary.LittleEndian.AppendUint64(b, sum)
}

// TestSnapshotCodecVersions: both snapshot versions load to the same table,
// and neither a bit flip, a truncation nor an unknown version gets past the
// decoder — it returns an error, never a panic and never a table.
func TestSnapshotCodecVersions(t *testing.T) {
	src := NewTable("t")
	for _, c := range []struct {
		name string
		vals []uint32
	}{{"k", []uint32{7, 0, 7, 1 << 31, 3}}, {"longer_name", []uint32{5, 4, 3, 2, 1}}} {
		if err := src.AddColumn(c.name, c.vals); err != nil {
			t.Fatal(err)
		}
	}
	var v2 bytes.Buffer
	if err := tableCodec("t").Save(&v2, src, 42); err != nil {
		t.Fatal(err)
	}
	// headerEnd is where the per-column section starts; version 1's checksum
	// never covered the header (a flipped walSeq got through).
	const headerEnd = 20
	for version, file := range map[uint32][]byte{1: snapshotV1(src, 42), 2: v2.Bytes()} {
		if got := binary.LittleEndian.Uint32(file[4:]); got != version {
			t.Fatalf("version field %d, want %d", got, version)
		}
		tb, seq, err := tableCodec("t").Load(bytes.NewReader(file))
		if err != nil || seq != 42 {
			t.Fatalf("v%d: clean decode: seq %d, err %v", version, seq, err)
		}
		for _, name := range src.order {
			if !equalU32(colVals(t, tb, name), src.cols[name].raw) || len(tb.order) != len(src.order) {
				t.Fatalf("v%d: column %s did not round-trip", version, name)
			}
		}
		for cut := 0; cut < len(file); cut++ {
			if _, _, err := tableCodec("t").Load(bytes.NewReader(file[:cut])); err == nil {
				t.Fatalf("v%d: truncation to %d of %d bytes accepted", version, cut, len(file))
			}
		}
		for i := range file {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(file)
				bad[i] ^= 1 << bit
				_, _, err := tableCodec("t").Load(bytes.NewReader(bad))
				if err == nil && (version == 2 || i >= headerEnd) {
					t.Fatalf("v%d: bit %d of byte %d flipped, snapshot accepted", version, bit, i)
				}
			}
		}
		for _, wrong := range []uint32{0, 3, 99, 1 << 31} {
			bad := bytes.Clone(file)
			binary.LittleEndian.PutUint32(bad[4:], wrong)
			if _, _, err := tableCodec("t").Load(bytes.NewReader(bad)); err == nil {
				t.Fatalf("v%d file relabelled version %d accepted", version, wrong)
			}
		}
		// Relabelled as the other known version, the trailer cannot check out.
		bad := bytes.Clone(file)
		binary.LittleEndian.PutUint32(bad[4:], 3-version)
		if _, _, err := tableCodec("t").Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("v%d file relabelled version %d accepted", version, 3-version)
		}
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	names := []string{"a", "bb", "ccc"}
	cols := map[string][]uint32{
		"a":   {1, 2, 3},
		"bb":  {4, 5, 6},
		"ccc": {7, 8, 9},
	}
	gotNames, gotCols, err := decodeBatch(encodeBatch(names, cols))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNames) != 3 {
		t.Fatalf("names = %v", gotNames)
	}
	for i, n := range names {
		if gotNames[i] != n || !equalU32(gotCols[n], cols[n]) {
			t.Fatalf("column %s mismatch: %v", n, gotCols[n])
		}
	}
}

func TestBatchCodecRejectsGarbage(t *testing.T) {
	good := encodeBatch([]string{"a"}, map[string][]uint32{"a": {1, 2}})
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodeBatch(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := decodeBatch(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkDurableAppend prices the write-ahead log against the bare
// in-memory append, per fsync policy.  Every leg appends the same 256-row
// batches of two columns — the end-to-end benchmark's durable append — to a
// table that starts empty and is replaced, untimed, every 64 batches, so
// table size and fold points repeat identically across legs and b.N.  off is
// a plain Table (nothing survives a crash); none, group and always are
// DurableTables on the real filesystem under wal.None, wal.GroupCommit(2ms)
// and wal.Always.  Compare each leg's appends/s with off's.
func BenchmarkDurableAppend(b *testing.B) {
	const stream = 64 // batches per table: 16,384 rows
	g := workload.New(6)
	dict := g.SortedUniform(4096)
	batches := make([]map[string][]uint32, stream)
	for i := range batches {
		batches[i] = map[string][]uint32{"k": g.Lookups(dict, scaleBatch), "v": g.Lookups(dict, scaleBatch)}
	}
	for _, leg := range []struct {
		name    string
		durable bool
		pol     wal.Policy
	}{
		{"off", false, wal.Policy{}},
		{"none", true, wal.None()},
		{"group", true, wal.GroupCommit(2 * time.Millisecond)},
		{"always", true, wal.Always()},
	} {
		b.Run(leg.name, func(b *testing.B) {
			dir := b.TempDir()
			var (
				appendRows func(map[string][]uint32) error
				closeTable func() error
			)
			// open starts a table on the stream's first batch, which defines
			// the schema on either kind of table.
			open := func() {
				if leg.durable {
					if err := os.RemoveAll(dir); err != nil {
						b.Fatal(err)
					}
					d, err := OpenDurable(failfs.OS, dir, "t", leg.pol)
					if err != nil {
						b.Fatal(err)
					}
					appendRows, closeTable = d.AppendRows, d.Close
				} else {
					tab := NewTable("t")
					appendRows = func(cols map[string][]uint32) error { return applyBatch(tab, []string{"k", "v"}, cols, len(cols["k"])) }
					closeTable = func() error { tab.Close(); return nil }
				}
				if err := appendRows(batches[0]); err != nil {
					b.Fatal(err)
				}
			}
			open()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := 1 + i%(stream-1)
				if j == 1 && i > 0 {
					b.StopTimer()
					if err := closeTable(); err != nil {
						b.Fatal(err)
					}
					open()
					b.StartTimer()
				}
				if err := appendRows(batches[j]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*scaleBatch)/b.Elapsed().Seconds(), "appends/s")
			if err := closeTable(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
