package shard_test

// The sharded index against a model of its multiset: each test is an input
// of crashtest's op generator pinned to one claim, with the fold schedules
// and the drained insert-and-delete batch reached through this package's
// hooks.

import (
	"fmt"
	"testing"

	"cssidx/internal/crashtest"
	"cssidx/internal/shard"
)

var hooks = crashtest.ShardHooks{Fold: shard.FoldSchedule, Drain: shard.EnqueueTogether, KeyOrdered: shard.KeyOrdered}

// TestInsertDeleteMatchesOracle: insert and delete batches over a base of
// distinct keys, four shards, the default schedule.
func TestInsertDeleteMatchesOracle(t *testing.T) {
	crashtest.ShardFocus{Rows: 3000, Span: 3, Shards: 4, Steps: 24, Batch: 64, Inserts: 1, Deletes: 1}.Run(t, 2, hooks, "absorb", "tombstones", "cancelled insert")
}

// TestDeltaDifferentialVsRebuilt: inserts colliding with resident keys,
// occasional deletes and Compacts, under every fold schedule: whatever the
// delta holds, the answers are a rebuild's.
func TestDeltaDifferentialVsRebuilt(t *testing.T) {
	for fold, need := range []string{"absorb", "fold", "compact with a delta", "fold"} {
		t.Run(fmt.Sprint("fold=", fold), func(t *testing.T) {
			crashtest.ShardFocus{Rows: 4000, Span: 2, Shards: 4, Fold: fold, Steps: 24, Batch: 64, Inserts: 6, Deletes: 1, Compacts: 1}.Run(t, 7, hooks, need)
		})
	}
}

// TestDeltaDisabledNeverAbsorbs: the every-batch schedule folds each batch
// and keeps no delta, and deletes of absent keys publish nothing.
func TestDeltaDisabledNeverAbsorbs(t *testing.T) {
	crashtest.ShardFocus{Rows: 480, Span: 3, Shards: 3, Fold: crashtest.FoldEveryBatch, Steps: 30, Batch: 2, Inserts: 1, Deletes: 2}.
		Run(t, 13, hooks, "fold", "absent deletes published nothing")
}

// TestDeleteAbsorbDifferential: deletes of keys inserted the step before and
// in the same drained batch, of resident keys once and more times than they
// occur, and of absent keys, each followed by an insert of the same keys
// with no Sync between, under the schedules that keep a delta.
func TestDeleteAbsorbDifferential(t *testing.T) {
	for _, fold := range []int{crashtest.FoldDefault, crashtest.FoldSmall, crashtest.FoldNever} {
		t.Run(fmt.Sprint("fold=", fold), func(t *testing.T) {
			f := crashtest.ShardFocus{Rows: 4000, Span: 1, Shards: 4, Fold: fold, Steps: 30,
				Inserts: 2, Deletes: 2, Drains: 3, Reinserts: 2, Compacts: 1}
			f.Run(t, 23, hooks, "tombstones", "cancelled insert", "drained batch", "over-delete", "delete then insert of a missing key")
		})
	}
}

// TestReadsMatchOracleAcrossShardCounts: one base of duplicated keys under
// every shard count, and a base of tens of thousands over 16 shards.
func TestReadsMatchOracleAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 3, 4, 8, 16} {
		crashtest.ShardFocus{Rows: 5000, Span: 2, Shards: shards, Steps: 3, Inserts: 1, Syncs: 1}.Run(t, 1, hooks)
	}
	crashtest.ShardFocus{Rows: 40960, Span: 3, Shards: 16, Steps: 4, Batch: 64, Inserts: 2, Deletes: 1, Reinserts: 1}.Run(t, 2, hooks)
}

// TestEmptyAndTiny: every adversarial set, across inserts, deletes, drained
// batches and Compacts.
func TestEmptyAndTiny(t *testing.T) {
	for set, name := range crashtest.SetNames() {
		t.Run(name, func(t *testing.T) {
			f := crashtest.ShardFocus{Set: set + 1, Span: 0, Shards: 4, Fold: crashtest.FoldSmall, Steps: 16, Batch: 8,
				Inserts: 2, Deletes: 2, Drains: 1, Compacts: 1}
			f.Run(t, int64(set), hooks)
		})
	}
}

// TestDuplicateBoundaryNeverStraddles: six values over four shards put a
// long run of one key at every equal-count cut; Check holds each run to one
// shard and EqualRange to the model.
func TestDuplicateBoundaryNeverStraddles(t *testing.T) {
	crashtest.ShardFocus{Rows: 1000, Shards: 4, Steps: 2, Inserts: 1}.Run(t, 3, hooks)
}

// TestRangeIterSubrange: Range walks from every probe, empty ones included,
// over runs and tombstones that never fold.
func TestRangeIterSubrange(t *testing.T) {
	crashtest.ShardFocus{Rows: 400, Span: 1, Shards: 3, Fold: crashtest.FoldNever, Steps: 8, Inserts: 1, Deletes: 1}.Run(t, 5, hooks, "tombstones")
}

// TestViewIsFrozen and TestViewBatchSingleEpoch: each check's Snapshot,
// checked again after the next step's updates, still answers — walked, and
// batched across the worker pool in both probe orders — what the model did.
func TestViewIsFrozen(t *testing.T) {
	crashtest.ShardFocus{Rows: 2000, Span: 3, Shards: 4, Steps: 6, Inserts: 2, Deletes: 1}.Run(t, 6, hooks, "frozen view")
}

func TestViewBatchSingleEpoch(t *testing.T) {
	crashtest.ShardFocus{Rows: 4000, Span: 2, Shards: 4, FanOut: true, Steps: 6, Inserts: 2, Deletes: 1, Drains: 1}.Run(t, 92, hooks, "frozen view")
}

// TestCloseFlushesPending: every in-memory input ends with a batch that
// only Close drains.
func TestCloseFlushesPending(t *testing.T) {
	crashtest.ShardFocus{Rows: 1000, Span: 3, Shards: 4, Steps: 1, Inserts: 1}.Run(t, 7, hooks, "close flushed")
}

// TestSaveLoadWithTombstones: a never-folding durable index checkpoints with
// both runs outstanding, and every recovery reloads that snapshot.
func TestSaveLoadWithTombstones(t *testing.T) {
	f := crashtest.ShardFocus{Rows: 2000, Span: 1, Shards: 4, Fold: crashtest.FoldNever, Leg: 1, Steps: 30,
		Inserts: 3, Deletes: 3, Checkpoints: 2, Crashes: 1}
	f.Run(t, 31, hooks, "checkpoint of both runs", "recovery")
}

// TestBatchMatchesOracle: the batch kernels at every shard count, with and
// without forced fan-out, under each probe-order mix, over bases from empty
// to thousands of keys.
func TestBatchMatchesOracle(t *testing.T) {
	for _, rows := range []int{0, 40, 160, 4000} {
		for _, shards := range []int{1, 3, 4, 8, 16} {
			for mix, fan := range []bool{false, true, true} {
				crashtest.ShardFocus{Rows: rows, Span: 2, Shards: shards, FanOut: fan, Mix: mix, Steps: 3, Inserts: 2, Deletes: 1}.Run(t, int64(rows+shards), hooks)
			}
		}
	}
}

// TestBatchPlansReached: the generator's batches run in both probe orders
// on one shard and on four, whichever plan the multi-shard rule takes for
// its distinct-probe batches.
func TestBatchPlansReached(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for mix := range 3 {
			crashtest.ShardFocus{Rows: 2000, Span: 2, Shards: shards, Mix: mix, Steps: 4, Inserts: 2, Deletes: 1}.
				Run(t, int64(shards), hooks, "input-order plan", "key-order plan")
		}
	}
}

// fuzzFoci are FuzzDeltaOps' seeds: small bases where runs, tombstones and
// cancellations collide constantly, one per fold schedule, the last on the
// durable leg with crashes.
var fuzzFoci = []crashtest.ShardFocus{
	{Rows: 400, Span: 0, Shards: 3, Fold: crashtest.FoldSmall, Steps: 8, Batch: 16, Inserts: 3, Deletes: 3, Drains: 2, Compacts: 1},
	{Set: 1, Shards: 3, Fold: crashtest.FoldNever, Steps: 8, Batch: 16, Inserts: 2, Deletes: 3, Drains: 2, Compacts: 1},
	{Rows: 200, Span: 1, Shards: 4, Fold: crashtest.FoldEveryBatch, FanOut: true, Mix: 1, Steps: 8, Batch: 16, Inserts: 2, Deletes: 2, Drains: 1},
	{Rows: 120, Span: 0, Shards: 1, Leg: 2, Steps: 8, Batch: 16, Inserts: 3, Deletes: 2, Drains: 1, Checkpoints: 1, Crashes: 1},
}

// FuzzDeltaOps explores the generator from fuzzFoci.
func FuzzDeltaOps(f *testing.F) {
	for i, focus := range fuzzFoci {
		f.Add(focus.Input(int64(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32 {
			t.Skip()
		}
		crashtest.FuzzShardOps(t, data, hooks)
	})
}
