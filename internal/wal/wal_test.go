package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cssidx/internal/failfs"
	"cssidx/internal/snapio"
)

func mustOpen(t *testing.T, fsys failfs.FS, pol Policy) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(fsys, "db/wal", pol)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func payload(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestRoundTrip(t *testing.T) {
	for _, pol := range []Policy{Always(), GroupBytes(64), None()} {
		t.Run(pol.Mode.String(), func(t *testing.T) {
			m := failfs.NewMem(1)
			l, recs := mustOpen(t, m, pol)
			if len(recs) != 0 {
				t.Fatalf("fresh log replayed %d records", len(recs))
			}
			for i := 0; i < 10; i++ {
				seq, err := l.Append(payload(i))
				if err != nil {
					t.Fatal(err)
				}
				if seq != uint64(i+1) {
					t.Fatalf("seq %d, want %d", seq, i+1)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, recs := mustOpen(t, m, pol)
			defer l2.Close()
			if len(recs) != 10 {
				t.Fatalf("replayed %d records, want 10", len(recs))
			}
			for i, r := range recs {
				if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payload(i)) {
					t.Fatalf("record %d: seq %d payload %q", i, r.Seq, r.Payload)
				}
			}
			if l2.NextSeq() != 11 {
				t.Fatalf("NextSeq %d, want 11", l2.NextSeq())
			}
		})
	}
}

func TestAlwaysIsDurablePerAppend(t *testing.T) {
	m := failfs.NewMem(1)
	l, _ := mustOpen(t, m, Always())
	for i := 0; i < 5; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		if l.SyncedSeq() != uint64(i+1) {
			t.Fatalf("after append %d SyncedSeq=%d", i, l.SyncedSeq())
		}
	}
	// No Close, no extra sync: crash now, everything must replay.
	m.Crash()
	_, recs := mustOpen(t, m, Always())
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
}

func TestGroupBytesWatermark(t *testing.T) {
	m := failfs.NewMem(1)
	l, _ := mustOpen(t, m, GroupBytes(80)) // ~3 records per sync
	var acked []uint64
	for i := 0; i < 10; i++ {
		seq, err := l.Append(payload(i))
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, seq)
	}
	syncedAtCrash := l.SyncedSeq()
	if syncedAtCrash == 0 || syncedAtCrash == acked[len(acked)-1] {
		t.Fatalf("expected a partial watermark, got %d of %d", syncedAtCrash, acked[len(acked)-1])
	}
	m.Crash()
	_, recs := mustOpen(t, m, GroupBytes(80))
	if uint64(len(recs)) < syncedAtCrash {
		t.Fatalf("recovered %d records, watermark promised %d", len(recs), syncedAtCrash)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payload(i)) {
			t.Fatalf("recovered record %d wrong: seq %d %q", i, r.Seq, r.Payload)
		}
	}
}

func TestTornTailTruncatedOnEverySeed(t *testing.T) {
	// Whatever prefix of the unsynced tail survives — intact, torn,
	// corrupted — recovery must return a clean acknowledged prefix and
	// leave the log appendable.
	for seed := int64(0); seed < 30; seed++ {
		m := failfs.NewMem(seed)
		l, _ := mustOpen(t, m, None())
		for i := 0; i < 4; i++ {
			if _, err := l.Append(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 4; i < 8; i++ {
			if _, err := l.Append(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		m.Crash()
		l2, recs, err := Open(m, "db/wal", None())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(recs) < 4 || len(recs) > 8 {
			t.Fatalf("seed %d: recovered %d records", seed, len(recs))
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payload(i)) {
				t.Fatalf("seed %d: record %d corrupt: %q", seed, i, r.Payload)
			}
		}
		// The log must accept appends again, continuing the sequence.
		seq, err := l2.Append([]byte("after"))
		if err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		if seq != uint64(len(recs)+1) {
			t.Fatalf("seed %d: post-recovery seq %d, want %d", seed, seq, len(recs)+1)
		}
		l2.Close()
	}
}

func TestCheckpointTruncatesAndKeepsSequence(t *testing.T) {
	m := failfs.NewMem(1)
	l, _ := mustOpen(t, m, Always())
	for i := 0; i < 6; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := l.Size()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= sizeBefore {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", sizeBefore, l.Size())
	}
	if l.SyncedSeq() != 6 {
		t.Fatalf("SyncedSeq after checkpoint = %d, want 6", l.SyncedSeq())
	}
	seq, err := l.Append(payload(6))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("post-checkpoint seq %d, want 7", seq)
	}
	l.Close()
	_, recs := mustOpen(t, m, Always())
	if len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("replay after checkpoint: %d records, first seq %v", len(recs), recs)
	}
}

func TestCheckpointCrashSafety(t *testing.T) {
	// Crash at every operation inside Checkpoint: recovery must see
	// either the full old log or the clean truncated one — and the
	// sequence numbering must never regress.
	countOps := func() int {
		m := failfs.NewMem(1)
		l, _ := mustOpen(t, m, Always())
		for i := 0; i < 3; i++ {
			l.Append(payload(i))
		}
		pre := m.OpCount()
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return m.OpCount() - pre
	}
	ops := countOps()
	for k := 0; k < ops; k++ {
		m := failfs.NewMem(1)
		l, _ := mustOpen(t, m, Always())
		for i := 0; i < 3; i++ {
			l.Append(payload(i))
		}
		m.SetCrashAt(m.OpCount() + k)
		l.Checkpoint() // fails at some point
		m.Crash()
		l2, recs, err := Open(m, "db/wal", Always())
		if err != nil {
			t.Fatalf("crash at +%d: reopen: %v", k, err)
		}
		if n := len(recs); n != 0 && n != 3 {
			t.Fatalf("crash at +%d: %d records, want 0 or 3", k, n)
		}
		if got := l2.NextSeq(); got != 4 {
			t.Fatalf("crash at +%d: NextSeq %d, want 4", k, got)
		}
		l2.Close()
	}
}

func TestSyncFailurePoisonsLog(t *testing.T) {
	m := failfs.NewMem(1)
	l, _ := mustOpen(t, m, Always())
	if _, err := l.Append(payload(0)); err != nil {
		t.Fatal(err)
	}
	// Fail the next op (the sync inside Append).
	m.FailAt(m.OpCount()+1, nil)
	if _, err := l.Append(payload(1)); err == nil {
		t.Fatal("append with failed sync acknowledged")
	}
	if _, err := l.Append(payload(2)); err == nil {
		t.Fatal("poisoned log acknowledged an append")
	}
}

func TestWriteFailureRollsBack(t *testing.T) {
	m := failfs.NewMem(1)
	l, _ := mustOpen(t, m, Always())
	if _, err := l.Append(payload(0)); err != nil {
		t.Fatal(err)
	}
	m.ShortWriteAt(m.OpCount()) // the next write lands partially
	if _, err := l.Append(payload(1)); err == nil {
		t.Fatal("short write acknowledged")
	}
	// The log rolled back and stays usable.
	seq, err := l.Append(payload(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq after rollback %d, want 2", seq)
	}
	l.Close()
	_, recs := mustOpen(t, m, Always())
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}

func TestRefusesForeignFile(t *testing.T) {
	m := failfs.NewMem(1)
	f, _ := m.Create("db/wal")
	f.Write([]byte("this is definitely not a wal file, it is long enough to hold a header"))
	f.Sync()
	f.Close()
	m.SyncDir("db")
	if _, _, err := Open(m, "db/wal", Always()); err == nil {
		t.Fatal("foreign file accepted as a log")
	}
}

func TestOversizeRecordRefused(t *testing.T) {
	m := failfs.NewMem(1)
	l, _ := mustOpen(t, m, None())
	defer l.Close()
	if _, err := l.Append(make([]byte, maxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func FuzzReplay(f *testing.F) {
	// Seed with a valid two-record log and a few mutants.
	m := failfs.NewMem(1)
	l, _, err := Open(m, "db/wal", None())
	if err != nil {
		f.Fatal(err)
	}
	l.Append([]byte("alpha"))
	l.Append([]byte("beta"))
	l.Sync()
	l.Close()
	valid, _ := failfs.ReadAll(m, "db/wal")
	f.Add(valid)
	for i := 0; i < len(valid); i += 7 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := failfs.NewMem(1)
		w, err := fsys.Create("db/wal")
		if err != nil {
			t.Skip()
		}
		w.Write(data)
		w.Sync()
		w.Close()
		fsys.SyncDir("db")
		// Must never panic; may error (foreign magic) or recover.
		l, recs, err := Open(fsys, "db/wal", None())
		if err != nil {
			return
		}
		// Recovered records must be contiguous from the base.
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("non-contiguous replay: %d then %d", recs[i-1].Seq, recs[i].Seq)
			}
		}
		// And the log must accept a new append.
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatalf("recovered log rejects appends: %v", err)
		}
		l.Close()
	})
}

// headerBase parses data's log header, reporting its base sequence when the
// header is intact.
func headerBase(data []byte) (uint64, bool) {
	r := snapio.NewReader(bytes.NewReader(data))
	magic, version, base := r.U32(), r.U32(), r.U64()
	r.Trailer()
	if r.Err() != nil || magic != logMagic || version != logVersion {
		return 0, false
	}
	return max(base, 1), true
}

// FuzzLogOpen opens arbitrary log bytes.  Open must never panic; the
// records it returns must run contiguously from the header's base; and an
// Append after the open must come back as the last record of the next
// open, after exactly the records the first open returned — whatever stale
// or torn bytes lay past the live end.  Seeded with logs whose checkpoints
// left earlier epochs' records past the live ones.
func FuzzLogOpen(f *testing.F) {
	epochs := func(sizes ...[]int) []byte {
		m := failfs.NewMem(1)
		l, _, err := Open(m, "db/wal", None())
		if err != nil {
			f.Fatal(err)
		}
		for i, epoch := range sizes {
			if i > 0 {
				if err := l.Checkpoint(); err != nil {
					f.Fatal(err)
				}
			}
			for _, n := range epoch {
				if _, err := l.Append(bytes.Repeat([]byte{byte(n)}, n)); err != nil {
					f.Fatal(err)
				}
			}
		}
		l.Close()
		data, _ := failfs.ReadAll(m, "db/wal")
		return data
	}
	for _, data := range [][]byte{
		epochs([]int{8, 8, 8, 8}, []int{8}),             // one stale record, exactly covered
		epochs([]int{30, 5, 12}, []int{7, 7}),           // stale records, partly covered
		epochs([]int{9, 9, 9}, []int{9, 9}, []int{3}),   // two stale epochs
		epochs([]int{16, 16}, []int{}, []int{16, 1, 2}), // an empty epoch
	} {
		f.Add(data)
		torn := bytes.Clone(data)
		torn[12] ^= 0x5A // a torn base: the first record supplies it
		f.Add(torn)
		f.Add(data[:len(data)-3])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := failfs.NewMem(1)
		writeLog := func() error {
			w, err := fsys.Create("db/wal")
			if err != nil {
				return err
			}
			w.Write(data)
			w.Sync()
			w.Close()
			return fsys.SyncDir("db")
		}
		if writeLog() != nil {
			t.Skip()
		}
		l, recs, err := Open(fsys, "db/wal", None())
		if err != nil {
			return // a foreign or unsupported file
		}
		if base, ok := headerBase(data); ok && len(recs) > 0 && recs[0].Seq != base {
			t.Fatalf("first record %d, header base %d", recs[0].Seq, base)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("non-contiguous replay: %d then %d", recs[i-1].Seq, recs[i].Seq)
			}
		}
		seq, err := l.Append([]byte("after"))
		if err != nil {
			t.Fatalf("recovered log rejects appends: %v", err)
		}
		if len(recs) > 0 && seq != recs[len(recs)-1].Seq+1 {
			t.Fatalf("append took seq %d after record %d", seq, recs[len(recs)-1].Seq)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, again, err := Open(fsys, "db/wal", None())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		want := append(recs, Record{Seq: seq, Payload: []byte("after")})
		if len(again) != len(want) {
			t.Fatalf("reopen replayed %d records, want %d", len(again), len(want))
		}
		for i := range want {
			if again[i].Seq != want[i].Seq || !bytes.Equal(again[i].Payload, want[i].Payload) {
				t.Fatalf("reopen record %d: seq %d %q, want seq %d %q",
					i, again[i].Seq, again[i].Payload, want[i].Seq, want[i].Payload)
			}
		}
	})
}
