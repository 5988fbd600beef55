package failfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// write commits data to name on m with full durability (sync + dir sync).
func write(t *testing.T, m *Mem, name string, data []byte, durable bool) {
	t.Helper()
	f, err := m.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if durable {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if durable {
		if err := m.SyncDir(filepath.Dir(name)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemDurabilityModel(t *testing.T) {
	m := NewMem(1)
	write(t, m, "db/a", []byte("durable"), true)
	write(t, m, "db/b", []byte("volatile"), false)
	m.Crash()
	if got, err := ReadAll(m, "db/a"); err != nil || string(got) != "durable" {
		t.Fatalf("synced file lost: %q, %v", got, err)
	}
	if _, err := ReadAll(m, "db/b"); err == nil {
		t.Fatal("unsynced creation survived the crash")
	}
}

func TestMemTornTailStaysWithinUnsyncedSuffix(t *testing.T) {
	// The synced prefix must survive intact; the unsynced tail may
	// survive as any prefix, possibly corrupt in its final byte.
	for seed := int64(0); seed < 20; seed++ {
		m := NewMem(seed)
		write(t, m, "db/wal", []byte("SYNCED"), true)
		f, err := m.OpenAppend("db/wal")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("tail")); err != nil {
			t.Fatal(err)
		}
		m.Crash()
		got, err := ReadAll(m, "db/wal")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len("SYNCED") || len(got) > len("SYNCEDtail") {
			t.Fatalf("seed %d: impossible length %d", seed, len(got))
		}
		if string(got[:6]) != "SYNCED" {
			t.Fatalf("seed %d: synced prefix damaged: %q", seed, got)
		}
	}
}

func TestMemRenameDurability(t *testing.T) {
	m := NewMem(1)
	write(t, m, "db/old", []byte("x"), true)
	write(t, m, "db/new", []byte("tmpdata"), false)
	// Sync the new file's bytes but not the namespace change.
	f, err := m.OpenAppend("db/new")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("db/new", "db/old"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	// The rename was never dir-synced: db/old must still be the old file.
	if got, _ := ReadAll(m, "db/old"); string(got) != "x" {
		t.Fatalf("un-committed rename became visible: %q", got)
	}

	// Same again, with the dir sync: the rename must stick.
	m = NewMem(1)
	write(t, m, "db/old", []byte("x"), true)
	write(t, m, "db/new", []byte("tmpdata"), false)
	f, err = m.OpenAppend("db/new")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("db/new", "db/old"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("db"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got, _ := ReadAll(m, "db/old"); string(got) != "tmpdata" {
		t.Fatalf("committed rename lost: %q", got)
	}
}

func TestMemCrashAtFreezesEverything(t *testing.T) {
	m := NewMem(1)
	write(t, m, "db/a", []byte("one"), true)
	n := m.OpCount()
	m.SetCrashAt(n + 1) // the Write below
	f, err := m.Create("db/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	// Everything after the crash point is down too.
	if _, err := m.Open("db/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fs not down after crash: %v", err)
	}
	m.Crash()
	if got, err := ReadAll(m, "db/a"); err != nil || string(got) != "one" {
		t.Fatalf("pre-crash durable state lost: %q, %v", got, err)
	}
}

func TestMemStaleHandleAfterCrash(t *testing.T) {
	m := NewMem(1)
	f, err := m.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("pre-crash handle still writable: %v", err)
	}
}

func TestMemInjectedFaults(t *testing.T) {
	m := NewMem(1)
	m.FailAt(1, nil) // the Write below
	f, err := m.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	// One-shot: the retry succeeds.
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("fault was not one-shot: %v", err)
	}

	m2 := NewMem(7)
	m2.ShortWriteAt(1)
	f2, err := m2.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f2.Write([]byte("0123456789"))
	if err == nil || n >= 10 {
		t.Fatalf("short write applied %d bytes, err %v", n, err)
	}
}

func TestMemTraceDeterminism(t *testing.T) {
	run := func() []string {
		m := NewMem(3)
		write(t, m, "db/a", []byte("abc"), true)
		write(t, m, "db/b", []byte("def"), false)
		return m.Trace()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	f, err := OS.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(OS, name)
	if err != nil || string(got) != "hello" {
		t.Fatalf("%q, %v", got, err)
	}
	names, err := OS.List(dir)
	if err != nil || len(names) != 1 || names[0] != "f" {
		t.Fatalf("List: %v, %v", names, err)
	}
	ap, err := OS.OpenAppend(name)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := io.ReadAll(ap); err != nil || string(data) != "hello" {
		t.Fatalf("append-mode read: %q, %v", data, err)
	}
	if _, err := ap.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if sz, err := ap.Size(); err != nil || sz != 6 {
		t.Fatalf("Size: %d, %v", sz, err)
	}
	if err := ap.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(name); err != nil || st.Size() != 5 {
		t.Fatalf("truncate: %v, %v", st, err)
	}
}

// overwrite opens name (synced as old), writes p at off without syncing,
// crashes, and returns what survived.
func overwrite(t *testing.T, seed int64, old string, off int64, p string) string {
	t.Helper()
	m := NewMem(seed)
	write(t, m, "db/f", []byte(old), true)
	f, err := m.OpenAppend("db/f")
	if err != nil {
		t.Fatal(err)
	}
	f.SeekWrite(off)
	if _, err := f.Write([]byte(p)); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	got, err := ReadAll(m, "db/f")
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

func TestMemPositionalWriteSurvivesWholeTornOrNot(t *testing.T) {
	const old, off, p = "AAAAAAAAAA", 2, "BBBB"
	fates := map[string]int{}
	for seed := int64(0); seed < 60; seed++ {
		got := overwrite(t, seed, old, off, p)
		if len(got) != len(old) || got[:off] != old[:off] {
			t.Fatalf("seed %d: %q: bytes outside the write changed", seed, got)
		}
		// The written span holds a prefix of p (its last byte possibly
		// garbage), then the old bytes.
		k := 0
		for k < len(p) && got[off+k] == p[k] {
			k++
		}
		switch {
		case got == old:
			fates["lost"]++
		case k == len(p) && got[off+len(p):] == old[off+len(p):]:
			fates["whole"]++
		case got[off+k+1:] == old[off+k+1:]:
			fates["torn"]++
		default:
			t.Fatalf("seed %d: %q is no prefix of %q over %q", seed, got, p, old)
		}
	}
	for _, fate := range []string{"lost", "whole", "torn"} {
		if fates[fate] == 0 {
			t.Fatalf("no seed left the write %s: %v", fate, fates)
		}
	}
}

func TestMemLaterWriteOutlivesEarlierOne(t *testing.T) {
	// Two unsynced appends decide their fates independently: some seed
	// keeps the second whole and loses the first, leaving zeros under it.
	for seed := int64(0); seed < 200; seed++ {
		m := NewMem(seed)
		write(t, m, "db/f", []byte("S"), true)
		f, err := m.OpenAppend("db/f")
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("one"))
		f.Write([]byte("two"))
		m.Crash()
		got, _ := ReadAll(m, "db/f")
		if string(got) == "S\x00\x00\x00two" {
			return
		}
	}
	t.Fatal("no seed kept a later write over a lost earlier one")
}

func TestMemSyncAndTruncateSettlePendingWrites(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m := NewMem(seed)
		write(t, m, "db/f", []byte("0123456789"), true)
		f, _ := m.OpenAppend("db/f")
		f.SeekWrite(4)
		f.Write([]byte("abcdefgh")) // extends the file to 12 bytes
		if err := f.Truncate(6); err != nil {
			t.Fatal(err)
		}
		m.Crash()
		got, _ := ReadAll(m, "db/f")
		if len(got) > 6 || string(got[:4]) != "0123" {
			t.Fatalf("seed %d: %q survived a truncate to 6", seed, got)
		}
	}
	m := NewMem(1)
	write(t, m, "db/f", []byte("0123"), true)
	f, _ := m.OpenAppend("db/f")
	f.SeekWrite(0)
	f.Write([]byte("ab"))
	f.Sync()
	m.Crash()
	if got, _ := ReadAll(m, "db/f"); string(got) != "ab23" {
		t.Fatalf("synced overwrite: %q", got)
	}
}

func TestMemShortPositionalWrite(t *testing.T) {
	m := NewMem(7)
	write(t, m, "db/f", []byte("0123456789"), true)
	f, _ := m.OpenAppend("db/f")
	f.SeekWrite(2)
	m.ShortWriteAt(m.OpCount())
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjected) || n >= 6 {
		t.Fatalf("short write applied %d bytes, err %v", n, err)
	}
	f.Close()
	got, _ := ReadAll(m, "db/f")
	if want := "01" + "abcdef"[:n] + "0123456789"[2+n:]; string(got) != want {
		t.Fatalf("short positional write left %q, want %q", got, want)
	}
}

func TestMemExchangeDurability(t *testing.T) {
	for _, commit := range []bool{false, true} {
		m := NewMem(1)
		write(t, m, "db/a", []byte("A"), true)
		write(t, m, "db/b", []byte("B"), true)
		if err := m.Exchange("db/a", "db/b"); err != nil {
			t.Fatal(err)
		}
		if got, _ := ReadAll(m, "db/a"); string(got) != "B" {
			t.Fatalf("exchange not visible: a = %q", got)
		}
		if commit {
			if err := m.SyncDir("db"); err != nil {
				t.Fatal(err)
			}
		}
		m.Crash()
		a, _ := ReadAll(m, "db/a")
		b, _ := ReadAll(m, "db/b")
		if want := map[bool]string{false: "AB", true: "BA"}[commit]; string(a)+string(b) != want {
			t.Fatalf("dir synced %v: a, b = %q, %q", commit, a, b)
		}
	}
	m := NewMem(1)
	write(t, m, "db/a", []byte("A"), true)
	if err := m.Exchange("db/a", "db/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("exchange with a missing name: %v", err)
	}
}

func TestOSExchangeAndPositionalWrite(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	for name, data := range map[string]string{a: "AAAA", b: "B"} {
		if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := OS.OpenAppend(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+")); err != nil { // at the end
		t.Fatal(err)
	}
	f.SeekWrite(1)
	if _, err := f.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if data, err := io.ReadAll(f); err != nil || string(data) != "AxyA+" {
		t.Fatalf("read after positional writes: %q, %v", data, err)
	}
	f.Close()
	if err := OS.Exchange(a, filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("exchange with a missing name: %v", err)
	}
	switch err := OS.Exchange(a, b); {
	case errors.Is(err, errors.ErrUnsupported):
		t.Skipf("no exchange here: %v", err)
	case err != nil:
		t.Fatal(err)
	}
	ga, _ := os.ReadFile(a)
	gb, _ := os.ReadFile(b)
	if string(ga) != "B" || string(gb) != "AxyA+" {
		t.Fatalf("after exchange a, b = %q, %q", ga, gb)
	}
}
