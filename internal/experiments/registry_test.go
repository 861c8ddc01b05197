package experiments

import (
	"context"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// renderAll joins a table list into the exact bytes o2kbench prints.
func renderAll(tables []*core.Table) string {
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func TestRegistryIndex(t *testing.T) {
	specs := List()
	if len(specs) != 15 {
		t.Fatalf("registry has %d specs, want 15", len(specs))
	}
	// Paper index order, each reachable by name and by alias.
	wantOrder := []string{"workloads", "mesh-speedup", "nbody-speedup", "breakdown",
		"loc", "memory", "latency-sweep", "loadbalance", "traffic",
		"regular-control", "page-migration", "machine-sweep", "hybrid", "cg", "verdicts"}
	for i, s := range specs {
		if s.Name != wantOrder[i] {
			t.Fatalf("spec %d = %q, want %q", i, s.Name, wantOrder[i])
		}
		if s.Title == "" || s.Build == nil {
			t.Fatalf("spec %q incomplete", s.Name)
		}
		for _, n := range append([]string{s.Name}, s.Aliases...) {
			got, ok := Lookup(n)
			if !ok || got.Name != s.Name {
				t.Fatalf("Lookup(%q) = %q, %v", n, got.Name, ok)
			}
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestAliasAndNameProduceSameTable(t *testing.T) {
	o := QuickOpts()
	o.Procs = []int{1, 2}
	byAlias, err1 := Run("fig2", o)
	byName, err2 := Run("mesh-speedup", o)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if renderAll(byAlias) != renderAll(byName) {
		t.Fatal("alias and canonical name produced different tables")
	}
}

// TestParallelSerialEquivalence is the headline determinism guarantee: the
// full suite renders byte-identically with a serial pool and a wide one.
func TestParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	o := QuickOpts()
	serial := renderAll(RunAllCtx(context.Background(), runner.New(1), o))
	parallel := renderAll(RunAllCtx(context.Background(), runner.New(8), o))
	if serial != parallel {
		t.Fatal("-jobs=1 and -jobs=8 table output differ")
	}
	if strings.Count(serial, "##") != 14 {
		t.Fatalf("expected 14 rendered tables, got %d", strings.Count(serial, "##"))
	}
}

// TestSharedEngineCacheRate asserts the cross-experiment sharing the runner
// exists for: over the whole suite, at least 30% of cell requests must be
// served from cache.
func TestSharedEngineCacheRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	e := runner.New(4)
	RunAllCtx(context.Background(), e, QuickOpts())
	r := e.Report()
	if rate := r.HitRate(); rate < 0.30 {
		t.Fatalf("shared-cache hit rate %.1f%% < 30%% (unique=%d requests=%d)",
			100*rate, r.Unique, r.Requests)
	}
}

// TestSecondRunAllCacheHits: repeating an experiment on the same engine
// must simulate nothing new and reproduce the bytes exactly.
func TestSecondRunAllCacheHits(t *testing.T) {
	o := QuickOpts()
	o.Procs = []int{1, 4}
	e := runner.New(2)
	first, err := RunOnCtx(context.Background(), e, "loadbalance", o)
	if err != nil {
		t.Fatal(err)
	}
	misses := e.Report().Unique
	second, err := RunOnCtx(context.Background(), e, "loadbalance", o)
	if err != nil {
		t.Fatal(err)
	}
	if r := e.Report(); r.Unique != misses {
		t.Fatalf("re-run simulated %d new cells, want 0", r.Unique-misses)
	}
	if renderAll(first) != renderAll(second) {
		t.Fatal("re-run produced different bytes")
	}
}

func TestRunUnknownName(t *testing.T) {
	if _, err := Run("nope", QuickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
