// Package crashtest proves the durability subsystem's crash guarantee by
// brute force: for a matrix of workloads × fsync policies it simulates a
// whole-process crash at EVERY filesystem operation the workload
// performs, reopens the store from the surviving bytes, and verifies the
// recovered state against an in-memory oracle.
//
// The verified invariants, at every crash point:
//
//   - every batch the durability policy promised (synced to the log or
//     covered by a completed checkpoint) is present;
//   - the recovered state is an exact prefix of the acknowledged batch
//     sequence — no partial batch, no reordering, no resurrection of
//     unacknowledged data beyond the single in-flight record;
//   - every query surface (point, range, IN, batch probes, join,
//     aggregate) answers bit-identically to a fresh oracle built from
//     that same prefix;
//   - the reopened store accepts and serves new writes.
//
// A workload that passes under the failfs crash model — nothing durable
// until synced, torn unsynced tails — recovers on any real filesystem
// that honors fsync.
//
// The sharded index's workload is an input of its op generator
// (shardops.go), which the shard and simidx tests share.
package crashtest

import (
	"errors"
	"fmt"

	"cssidx/internal/failfs"
	"cssidx/internal/wal"
)

// Policies is the fsync-policy axis of the matrix.  GroupBytes stands in
// for GroupCommit: the same ack-before-sync window, but byte-triggered,
// so the filesystem op schedule is deterministic (no timer goroutine).
func Policies() []wal.Policy {
	return []wal.Policy{wal.Always(), wal.GroupBytes(256), wal.None()}
}

// outcome is what a workload run reports for verification: batches are
// numbered 1..acked in log-sequence order.
type outcome struct {
	acked   uint64 // mutation batches acknowledged (== highest acked seq)
	durable uint64 // highest seq the store promised durable at any point
	// inFlight marks a crash in the middle of logging batch acked+1: it
	// was never acknowledged, but its record may have reached the log
	// whole, so recovery may legitimately include it.
	inFlight bool
}

// checkPrefix applies the prefix rule to the recovered batch count.
func checkPrefix(lastSeq uint64, out outcome) error {
	if lastSeq < out.durable {
		return fmt.Errorf("recovered through seq %d, durability floor is %d", lastSeq, out.durable)
	}
	max := out.acked
	if out.inFlight {
		max++
	}
	if lastSeq > max {
		return fmt.Errorf("recovered through seq %d, only %d batches were even started", lastSeq, max)
	}
	return nil
}

// script is one workload of the matrix; see opsScript and tableScript.
type script interface {
	// play runs the workload to completion or to the crash.
	play(fsys *failfs.Mem, pol wal.Policy) (outcome, error)
	// verify reopens the store after the crash and checks every
	// invariant against the acknowledged prefix.
	verify(fsys *failfs.Mem, pol wal.Policy, out outcome) error
}

// Run exhaustively crash-tests one script under one policy: a rehearsal
// run with no faults enumerates the op schedule, then the script is
// replayed with a crash at every stride-th filesystem op (stride 1 =
// every op), reopened and verified each time.  Returns the number of
// crash points exercised.
func Run(s script, pol wal.Policy, seed int64, stride int) (int, error) {
	// Rehearsal: no faults; counts the ops and checks the happy path.
	fsys := failfs.NewMem(seed)
	out, err := s.play(fsys, pol)
	if err != nil {
		return 0, fmt.Errorf("rehearsal: %w", err)
	}
	if err := s.verify(fsys, pol, out); err != nil {
		return 0, fmt.Errorf("rehearsal verify: %w", err)
	}
	total := fsys.OpCount()
	trace := fsys.Trace()

	points := 0
	for n := 0; n < total; n += stride {
		fsys := failfs.NewMem(seed + int64(n)*7919)
		fsys.SetCrashAt(n)
		out, err := s.play(fsys, pol)
		if err != nil && !errors.Is(err, failfs.ErrCrashed) {
			return points, fmt.Errorf("crash@%d (%s): workload failed with a non-crash error: %w", n, trace[n], err)
		}
		if err == nil && fsys.Downed() {
			return points, fmt.Errorf("crash@%d (%s): workload swallowed the crash", n, trace[n])
		}
		fsys.Crash()
		if err := s.verify(fsys, pol, out); err != nil {
			return points, fmt.Errorf("crash@%d (%s): %w", n, trace[n], err)
		}
		points++
	}
	return points, nil
}
