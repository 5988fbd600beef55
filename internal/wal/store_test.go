package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"cssidx/internal/failfs"
	"cssidx/internal/snapio"
)

// sum is a minimal store state: the values appended so far.
type sum struct{ vals []uint64 }

func (*sum) Close() {}

// sumCodec frames a sum as one snapio frame, so a torn snapshot fails to
// load.
type sumCodec struct{}

func (sumCodec) Empty() *sum { return &sum{} }

func (sumCodec) Load(r io.Reader) (*sum, uint64, error) {
	sr := snapio.NewReader(r)
	sr.U32()
	sr.U32()
	seq, n := sr.U64(), sr.U64()
	s := &sum{}
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		s.vals = append(s.vals, sr.U64())
	}
	sr.Trailer()
	return s, seq, sr.Err()
}

func (sumCodec) Save(w io.Writer, s *sum, seq uint64) error {
	sw := snapio.NewWriter(w, 0x53554d31, 1)
	sw.U64(seq)
	sw.U64(uint64(len(s.vals)))
	for _, v := range s.vals {
		sw.U64(v)
	}
	_, err := sw.Close()
	return err
}

// Apply appends the payload's value; an empty payload clears the state.
func (sumCodec) Apply(s *sum, p []byte) error {
	if len(p) == 0 {
		s.vals = nil
		return nil
	}
	s.vals = append(s.vals, binary.LittleEndian.Uint64(p))
	return nil
}

func appendVal(s *Store[*sum], st *sum, v uint64) error {
	return Append(s, func() ([]byte, error) {
		return binary.LittleEndian.AppendUint64(nil, v), nil
	}, func() error {
		st.vals = append(st.vals, v)
		return nil
	})
}

func clearVals(s *Store[*sum], st *sum) error {
	return Append(s, func() ([]byte, error) { return []byte{}, nil }, func() error {
		st.vals = nil
		return nil
	})
}

// TestCheckpointShrinksSpare: a snapshot smaller than the spare's old one
// cuts the spare to length, and a crash at any point of that Checkpoint
// recovers a prefix of the acknowledged appends.
func TestCheckpointShrinksSpare(t *testing.T) {
	for k := 0; ; k++ {
		m := failfs.NewMem(int64(k))
		s, st, err := OpenStore(m, "db", "s", None(), Codec[*sum](sumCodec{}))
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(1); v <= 40; v++ {
			if err := appendVal(s, st, v); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ { // the spare now holds the 40-value snapshot
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := clearVals(s, st); err != nil {
			t.Fatal(err)
		}
		if err := appendVal(s, st, 7); err != nil {
			t.Fatal(err)
		}
		m.SetCrashAt(m.OpCount() + k)
		err = s.Checkpoint()
		done := err == nil && !m.Downed()
		if done {
			m.SetCrashAt(-1)
			if m.DurableLen("db/s.snap") != 8+8+8+8+4 { // frame, seq, count, value, crc
				t.Fatalf("snapshot of one value is %d bytes", m.DurableLen("db/s.snap"))
			}
			s.Close()
		} else {
			m.Crash()
		}
		r, got, err := OpenStore(m, "db", "s", None(), Codec[*sum](sumCodec{}))
		if err != nil {
			t.Fatalf("crash at checkpoint op %d: reopen: %v", k, err)
		}
		// Under None the clear and the 7 are durable only once the
		// checkpoint's snapshot is; before, any prefix of them may be.
		if v := fmt.Sprint(got.vals); v != "[7]" && (done || v != "[]" && len(got.vals) != 40) {
			t.Fatalf("crash at checkpoint op %d: recovered %s", k, v)
		}
		r.Close()
		if done {
			break
		}
	}
}

// failSwapCommit fails the first directory sync after an exchange.
type failSwapCommit struct{ swapped, done bool }

func (*failSwapCommit) Name() string { return "fail-swap-commit" }
func (f *failSwapCommit) Decide(op string, n int) failfs.Action {
	switch {
	case strings.HasPrefix(op, "exchange:"):
		f.swapped = true
	case f.swapped && !f.done && strings.HasPrefix(op, "sync-dir:"):
		f.done = true
		return failfs.Action{Err: failfs.ErrInjected}
	}
	return failfs.Action{}
}

// TestCheckpointAfterFailedSwapCommit: when the directory sync after an
// exchange fails, name.snap may still be the spare's file on disk, so the
// next Checkpoint must commit the swap before writing over the spare.  A
// crash anywhere in that Checkpoint must leave a loadable snapshot.
func TestCheckpointAfterFailedSwapCommit(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for k := 0; ; k++ {
			m := failfs.NewMem(seed)
			s, st, err := OpenStore(m, "db", "s", Always(), Codec[*sum](sumCodec{}))
			if err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v <= 3; v++ { // two clean checkpoints: the spare exists
				if err := appendVal(s, st, v); err != nil {
					t.Fatal(err)
				}
				if v < 3 {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.SetScenario(&failSwapCommit{})
			if err := s.Checkpoint(); err == nil {
				t.Fatal("checkpoint with a failed directory sync succeeded")
			}
			m.SetScenario(nil)
			if err := appendVal(s, st, 4); err != nil {
				t.Fatal(err)
			}
			pre := m.OpCount()
			m.SetCrashAt(pre + k)
			err = s.Checkpoint()
			if err == nil && !m.Downed() {
				s.Close()
				break // k ran past the checkpoint
			}
			m.Crash()
			r, got, err := OpenStore(m, "db", "s", Always(), Codec[*sum](sumCodec{}))
			if err != nil {
				t.Fatalf("seed %d, crash at checkpoint op %d: reopen: %v", seed, k, err)
			}
			if fmt.Sprint(got.vals) != "[1 2 3 4]" {
				t.Fatalf("seed %d, crash at checkpoint op %d: recovered %v", seed, k, got.vals)
			}
			r.Close()
		}
	}
}
