package cssidx_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cssidx"
	"cssidx/internal/mmdb"
)

// settable lists the option values a caller can set on a struct type: one
// name per exported leaf field, the fields of a nested struct spelled
// prefix.Outer.Inner.
func settable(t reflect.Type, prefix string) []string {
	var out []string
	for i := range t.NumField() {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			out = append(out, settable(f.Type, prefix+f.Name+".")...)
		default:
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// setters lists the exported Set* methods of a type: a setter is a
// settable value too, whatever struct its parameter is.
func setters(t reflect.Type, name string) []string {
	var out []string
	for i := range t.NumMethod() {
		if m := t.Method(i); strings.HasPrefix(m.Name, "Set") {
			out = append(out, name+"."+m.Name)
		}
	}
	return out
}

type named struct {
	name string
	v    any
}

// TestSettableCensus pins every value a caller can set on the public
// options of cssidx and mmdb, and every Set* method on their public types.
// What the engine decides itself — node size of a shard, probe order,
// per-worker spans, fold thresholds, join chunking, cache stripes — is no
// option, and a new field or setter fails this test until the census below
// is updated on purpose.
//
// The one setter, SetParallel on a sharded index (promoted into
// DurableSharded), takes the internal parallel.Options: only code inside
// the module — tests and the benchmark harness — can call it.
func TestSettableCensus(t *testing.T) {
	census := []struct {
		pkg   string
		types []named
		want  []string
	}{
		{"cssidx", []named{{"Options", cssidx.Options{}}, {"ParallelOptions", cssidx.ParallelOptions{}}, {"ShardedOptions", cssidx.ShardedOptions[uint32]{}}}, []string{
			"Options.NodeBytes", "Options.HashDirSize", "ParallelOptions.Workers", "ShardedOptions.Shards",
		}},
		{"mmdb", []named{{"CacheOptions", mmdb.CacheOptions{}}, {"JoinOptions", mmdb.JoinOptions{}}}, []string{
			"CacheOptions.MaxBytes", "CacheOptions.MinCostNs",
		}},
	}
	for _, c := range census {
		var got []string
		for _, n := range c.types {
			got = append(got, settable(reflect.TypeOf(n.v), n.name+".")...)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s settable values = %v (%d), want %v (%d)", c.pkg, got, len(got), c.want, len(c.want))
		}
	}

	var got []string
	for _, n := range []named{
		{"ShardedIndex", (*cssidx.ShardedIndex[uint32])(nil)},
		{"ShardedView", (*cssidx.ShardedView)(nil)},
		{"DurableSharded", (*cssidx.DurableSharded)(nil)},
		{"SortedBatch", (*cssidx.SortedBatch)(nil)},
		{"DB", (*mmdb.DB)(nil)},
		{"Table", (*mmdb.Table)(nil)},
		{"DurableTable", (*mmdb.DurableTable)(nil)},
		{"Column", (*mmdb.Column)(nil)},
		{"SortedIndex", (*mmdb.SortedIndex)(nil)},
	} {
		got = append(got, setters(reflect.TypeOf(n.v), n.name)...)
	}
	if want := []string{"ShardedIndex.SetParallel", "DurableSharded.SetParallel"}; !slices.Equal(got, want) {
		t.Errorf("setters = %v, want %v", got, want)
	}
}

// TestExportedFuncCensus pins the exported top-level functions of package
// cssidx, read from its non-test source files: a new constructor, loader or
// helper fails this test until the list below is updated on purpose.
func TestExportedFuncCensus(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				got = append(got, fd.Name.Name)
			}
		}
	}
	slices.Sort(got)
	want := []string{
		"AsBatch", "AsBatchOrdered", "DefaultHashDirSize", "Kinds",
		"LoadSharded", "LoadShardedFile", "New", "NewBPlusTree", "NewBST",
		"NewBinarySearch", "NewFullCSS", "NewHash", "NewInterpolation",
		"NewLevelCSS", "NewParallel", "NewSharded", "NewSortedBatch",
		"NewTTree", "OpenWAL", "SaveSharded", "SaveShardedFile",
	}
	if !slices.Equal(got, want) {
		t.Errorf("exported functions = %v (%d), want %v (%d)", got, len(got), want, len(want))
	}
}

// TestMMDBSurfaceCensus pins the exported functions and methods of
// internal/mmdb, read from its non-test source files, methods spelled
// Type.Method (exported receiver types only).  Each question the engine
// answers has one entry point — the table surface, its *Ctx form, and an
// index's own SelectEqual and SelectRange — so a second way to ask one
// (a query twin, a paired setter, another stats reader) fails this test
// until the list below is updated on purpose.
func TestMMDBSurfaceCensus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("internal", "mmdb", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				got = append(got, fd.Name.Name)
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				got = append(got, id.Name+"."+fd.Name.Name)
			}
		}
	}
	slices.Sort(got)
	want := []string{
		"Column.Len", "Column.Value",
		"DB.Cache", "DB.CreateTable", "DB.Table",
		"DurableTable.AppendRows", "DurableTable.AppendRowsCtx", "DurableTable.Close",
		"GroupAggregate", "GroupAggregateCtx", "JoinWith", "JoinWithCtx",
		"NewDB", "NewTable", "OpenDurable",
		"SortedIndex.Close", "SortedIndex.Epoch", "SortedIndex.Kind", "SortedIndex.RIDs",
		"SortedIndex.SelectEqual", "SortedIndex.SelectRange", "SortedIndex.SpaceBytes",
		"Table.AddColumn", "Table.AppendRows", "Table.AppendRowsCtx", "Table.AttachGovernor",
		"Table.BaseRows", "Table.BuildIndex", "Table.BuildShardedIndex", "Table.Cache",
		"Table.Close", "Table.Column", "Table.Columns", "Table.Compact", "Table.DeltaRows",
		"Table.EnableCache", "Table.Generation", "Table.Index", "Table.Name",
		"Table.PlanIn", "Table.PlanRange", "Table.Rows",
		"Table.SelectIn", "Table.SelectInCtx", "Table.SelectRange", "Table.SelectRangeCtx",
		"Table.SelectWhere", "Table.SelectWhereCtx", "Table.ShardedIndex",
	}
	if !slices.Equal(got, want) {
		t.Errorf("mmdb exported functions and methods = %v (%d), want %v (%d)", got, len(got), want, len(want))
	}
}
