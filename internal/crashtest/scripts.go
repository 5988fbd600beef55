package crashtest

import (
	"fmt"
	"slices"

	"cssidx"
	"cssidx/internal/failfs"
	"cssidx/internal/mmdb"
	"cssidx/internal/wal"
)

// --- mmdb table workload -----------------------------------------------------

// tableScript drives a DurableTable: a schema-defining first batch, more
// appends (sized to cross the delta/fold thresholds both ways), three
// checkpoints, then verification across every read surface — column
// values, point/range/IN selects, an aggregate count and a join.  A
// record is 38+8n bytes for n rows; as in shardMatrixInput, the first record
// after the first checkpoint overwrites a stale one exactly and the next
// partly, and the last epoch is one-row records, as long as verify's
// post-recovery append.
type tableScript struct {
	batches []map[string][]uint32 // nil entry = checkpoint
}

func newTableScript() *tableScript {
	return &tableScript{batches: []map[string][]uint32{
		{"k": {3, 1, 4, 1, 5}, "v": {10, 20, 30, 40, 50}},
		{"k": {9, 2, 6}, "v": {60, 70, 80}},
		nil, // checkpoint
		{"k": {7, 0, 2, 8, 4}, "v": {90, 100, 110, 120, 130}}, // exactly over the first record
		{"k": {5}, "v": {140}},                                // partly over the second
		nil,
		{"k": {5, 3}, "v": {150, 160}},
		{"k": {8}, "v": {170}},
		nil,
		{"k": {7}, "v": {180}},
		{"k": {2}, "v": {190}},
		{"k": {6}, "v": {200}},
		{"k": {10}, "v": {210}},
		{"k": {1}, "v": {220}},
	}}
}

func (s *tableScript) play(fsys *failfs.Mem, pol wal.Policy) (outcome, error) {
	var out outcome
	d, err := mmdb.OpenDurable(fsys, "db", "t", pol)
	if err != nil {
		return out, err
	}
	for _, batch := range s.batches {
		if batch == nil {
			if err := d.Checkpoint(); err != nil {
				return out, err
			}
			if f := d.LastSeq(); f > out.durable {
				out.durable = f
			}
			continue
		}
		out.inFlight = true
		if err := d.AppendRows(batch); err != nil {
			return out, err
		}
		out.inFlight = false
		out.acked++
		if f := d.SyncedSeq(); f > out.durable {
			out.durable = f
		}
	}
	if err := d.Close(); err != nil {
		return out, err
	}
	out.durable = out.acked
	return out, nil
}

// oracleRows replays the first k batches into plain column slices.
func (s *tableScript) oracleRows(k uint64) (ks, vs []uint32) {
	var applied uint64
	for _, batch := range s.batches {
		if batch == nil {
			continue
		}
		if applied == k {
			break
		}
		applied++
		ks = append(ks, batch["k"]...)
		vs = append(vs, batch["v"]...)
	}
	return ks, vs
}

func (s *tableScript) verify(fsys *failfs.Mem, pol wal.Policy, out outcome) error {
	d, err := mmdb.OpenDurable(fsys, "db", "t", pol)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer d.Close()
	k := d.LastSeq()
	if err := checkPrefix(k, out); err != nil {
		return err
	}
	wantK, wantV := s.oracleRows(k)

	if d.Rows() != len(wantK) {
		return fmt.Errorf("recovered %d rows, oracle has %d", d.Rows(), len(wantK))
	}
	if k == 0 {
		// Nothing recovered; the store must still accept a schema batch.
		return appendAndReopen(d, fsys, pol, k)
	}
	for col, want := range map[string][]uint32{"k": wantK, "v": wantV} {
		c, ok := d.Column(col)
		if !ok {
			return fmt.Errorf("column %s missing", col)
		}
		for i, w := range want {
			if g := c.Value(i); g != w {
				return fmt.Errorf("%s[%d] = %d, oracle %d", col, i, g, w)
			}
		}
	}

	// Build the same index on both tables and compare every surface.
	oracle := mmdb.NewTable("t")
	if err := oracle.AddColumn("k", wantK); err != nil {
		return err
	}
	if err := oracle.AddColumn("v", wantV); err != nil {
		return err
	}
	gix, err := d.BuildIndex("k", cssidx.KindFullCSS, cssidx.Options{})
	if err != nil {
		return err
	}
	wix, err := oracle.BuildIndex("k", cssidx.KindFullCSS, cssidx.Options{})
	if err != nil {
		return err
	}
	for probe := uint32(0); probe <= 10; probe++ { // point
		if err := equalRIDs(
			fmt.Sprintf("SelectEqual(%d)", probe),
			gix.SelectEqual(probe), wix.SelectEqual(probe)); err != nil {
			return err
		}
	}
	for _, r := range [][2]uint32{{0, 4}, {2, 6}, {5, 5}, {7, 100}} { // range
		g, err := gix.SelectRange(r[0], r[1])
		if err != nil {
			return err
		}
		w, err := wix.SelectRange(r[0], r[1])
		if err != nil {
			return err
		}
		if err := equalRIDs(fmt.Sprintf("SelectRange(%d,%d)", r[0], r[1]), g, w); err != nil {
			return err
		}
	}
	// IN, through the table: the recovered table may hold unfolded rows the
	// oracle has folded, so the planners may pick different paths (probe
	// order vs row order) — compare the RID sets.
	in := []uint32{1, 3, 5, 9, 42}
	g, _, err := d.SelectIn("k", in)
	if err != nil {
		return err
	}
	w, _, err := oracle.SelectIn("k", in)
	if err != nil {
		return err
	}
	if err := equalRIDs("SelectIn", slices.Sorted(slices.Values(g)), slices.Sorted(slices.Values(w))); err != nil {
		return err
	}
	// Join the recovered table against the oracle's index and vice
	// versa: pair counts must agree with the oracle⋈oracle join.
	gj, err := mmdb.JoinWith(d.Table, "k", wix, mmdb.JoinOptions{}, nil)
	if err != nil {
		return err
	}
	wj, err := mmdb.JoinWith(oracle, "k", gix, mmdb.JoinOptions{}, nil)
	if err != nil {
		return err
	}
	if gj != wj {
		return fmt.Errorf("join pair count %d, oracle %d", gj, wj)
	}

	return appendAndReopen(d, fsys, pol, k)
}

// appendAndReopen appends one row to the recovered table d (through seq k),
// closes it and reopens: the store must hold exactly d's rows plus that
// one, so nothing recovery cut can come back behind it.
func appendAndReopen(d *mmdb.DurableTable, fsys *failfs.Mem, pol wal.Policy, k uint64) error {
	rows := d.Rows()
	if err := d.AppendRows(map[string][]uint32{"k": {123}, "v": {456}}); err != nil {
		return fmt.Errorf("post-recovery append: %w", err)
	}
	if err := lastRow(d, rows+1); err != nil {
		return fmt.Errorf("post-recovery append: %w", err)
	}
	if err := d.Close(); err != nil {
		return err
	}
	r, err := mmdb.OpenDurable(fsys, "db", "t", pol)
	if err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	defer r.Close()
	if r.LastSeq() != k+1 {
		return fmt.Errorf("second reopen: seq %d, want %d", r.LastSeq(), k+1)
	}
	if err := lastRow(r, rows+1); err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	return nil
}

// lastRow checks d has rows rows, the last of them verify's (123, 456).
func lastRow(d *mmdb.DurableTable, rows int) error {
	if d.Rows() != rows {
		return fmt.Errorf("%d rows, want %d", d.Rows(), rows)
	}
	k, _ := d.Column("k")
	v, _ := d.Column("v")
	if k.Value(rows-1) != 123 || v.Value(rows-1) != 456 {
		return fmt.Errorf("last row (%d, %d), want (123, 456)", k.Value(rows-1), v.Value(rows-1))
	}
	return nil
}

func equalRIDs(what string, got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rids, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: rid[%d] = %d, oracle %d", what, i, got[i], want[i])
		}
	}
	return nil
}
