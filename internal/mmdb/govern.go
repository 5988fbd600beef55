package mmdb

// Query governance: every table query surface (Table.SelectRange, SelectIn,
// SelectWhere, GroupAggregate, JoinWith) is its *Ctx form — the plain form is
// the same call with a background context — which threads a context.Context
// (cancellation, deadline, per-query byte budget via governor.WithBudget)
// through planning and execution, and a Table can attach a
// governor.Admission controller that gates cache-miss compute work under
// overload.  An index's own SelectEqual and SelectRange take no context: a
// governed question is asked through the table.
//
// The plumbing rules, each implemented once (query.go) so a new surface
// follows them by calling the helper:
//
//  1. enter builds the handle once (governor.For) and checks it before any
//     shared state is touched, so an already-dead context costs nothing and
//     serves nothing.
//  2. Admission is acquired at the execute stage, after the cache missed
//     (Table.compute): cache hits are served even under overload (the shed
//     policy's "serve cached lookups last"), and the grant is released when
//     the compute finishes or aborts.  Nested surfaces never re-acquire
//     (governor.Ctl.EnterAdmission).
//  3. Budgets are charged where result memory is allocated — scan
//     buffers, merge copies, aggregate tables, join pair buffers, and the
//     slices the cache's reuse paths assemble (env.fresh) — through a
//     per-goroutine governor.Checkpoint inside loops, so parallel workers
//     do not contend on the budget atomic per row.
//  4. Abort paths return BEFORE the cache admit stage (stage.abort), so a
//     cancelled query can never insert a poisoned qcache entry; and they
//     never interrupt a mutation mid-publish, so epochs and delta runs are
//     never torn.  Every abort surfaces as one of the four typed errors
//     and is counted once (governor.NoteAbort, in leave).
//
// An ungoverned call (background context, so every plain surface) resolves
// to a nil handle and pays a pointer test per checkpoint — the "one atomic
// load when disabled" contract, pinned by the governor bench experiment.

import (
	"cssidx/internal/governor"
)

// AttachGovernor attaches an admission controller to the table (build one
// with governor.NewAdmission; attach the same one to several tables to share
// one gate); nil detaches.  Attachment is not synchronized with in-flight
// queries: attach before the table starts serving.
func (t *Table) AttachGovernor(a *governor.Admission) { t.gov.Store(a) }

// admit gates one governed query's compute stage through the attached
// admission controller.  Ungoverned queries (nil ctl), tables without a
// controller, and nested surfaces of an already-admitted query pass for
// free.  The returned release is always safe to call.
func (t *Table) admit(ctl *governor.Ctl, class governor.Class, estBytes int64) (release func(), err error) {
	release = func() {}
	if ctl == nil {
		return release, nil
	}
	a := t.gov.Load()
	if a == nil || !ctl.EnterAdmission() {
		return release, nil
	}
	g, err := a.Acquire(ctl.Context(), class, estBytes)
	if err != nil {
		ctl.ExitAdmission()
		return release, err
	}
	return func() {
		g.Release()
		ctl.ExitAdmission()
	}, nil
}
