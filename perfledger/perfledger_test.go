package main

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"o2k/internal/experiments"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	for _, c := range []struct {
		q    float64
		n    int
		ok   bool
		want float64
	}{
		{0.50, 19, false, 0},
		{0.50, 20, true, 10},
		{0.90, 99, false, 0},
		{0.90, 100, true, 90},
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.99, 0, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimesTileOneWorker(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// b and c were submitted while a held the only slot, so their spans
	// include queue wait; d arrived after an idle gap. Input order is not
	// completion order.
	spans := []span{
		{at(3), at(20)},  // c: ran 15..20
		{at(0), at(10)},  // a: ran 0..10
		{at(25), at(30)}, // d: ran 25..30
		{at(2), at(15)},  // b: ran 10..15
	}
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTimingFSPassesErrorsThrough(t *testing.T) {
	dir := t.TempDir()
	fault := diskcache.NewFaultFS(nil)
	errRead, errWrite, errRename := errors.New("read"), errors.New("write"), errors.New("rename")
	fault.FailReads(errRead)
	fault.FailWrites(errWrite)
	fault.FailRenames(errRename)
	tfs := newTimingFS(fault)
	name := filepath.Join(dir, "ab", "abcd.cell")
	if _, err := tfs.ReadFile(name); err != errRead {
		t.Errorf("ReadFile error = %v, want %v", err, errRead)
	}
	if err := tfs.WriteFile(name, []byte("x"), 0o644); err != errWrite {
		t.Errorf("WriteFile error = %v, want %v", err, errWrite)
	}
	if err := tfs.Rename(name, name+".2"); err != errRename {
		t.Errorf("Rename error = %v, want %v", err, errRename)
	}
	// The cache tells an absent entry from a read error by fs.ErrNotExist.
	plain := newTimingFS(diskcache.OSFS{})
	if _, err := plain.ReadFile(name); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadFile of a missing entry = %v, want fs.ErrNotExist", err)
	}
	ops := tfs.snapshot()
	if len(ops) != 3 || ops[0].kind != fsRead || ops[1].kind != fsWrite || ops[2].kind != fsRename {
		t.Fatalf("recorded ops = %+v, want read, write, rename", ops)
	}
	for _, op := range ops {
		if op.key != "abcd" {
			t.Errorf("op key = %q, want abcd", op.key)
		}
	}
}

func TestSuiteDigestExcludesTableFive(t *testing.T) {
	outs := []rendered{{"workloads", "t1\n"}, {tableFiveName, "loc 100\n"}, {"mesh-speedup", "f2\n"}}
	base := suiteDigest(outs)
	if base != textDigest("t1\n\nf2\n") {
		t.Fatalf("digest does not hash the Render joining of the non-Table-5 outputs")
	}
	outs[1].text = "loc 101\n"
	if suiteDigest(outs) != base {
		t.Errorf("a Table 5 change moved the digest")
	}
	outs[2].text = "f2 changed\n"
	if suiteDigest(outs) == base {
		t.Errorf("a Figure 2 change left the digest unchanged")
	}
}

func TestParseLabel(t *testing.T) {
	for label, want := range map[string]cellID{
		"mesh structure":    {app: "mesh", tier: "structure"},
		"mesh plans P=4":    {app: "mesh", tier: "plans", procs: 4},
		"mesh CC-SAS P=64":  {app: "mesh", model: "sas", tier: "run", procs: 64},
		"mesh MP+SAS P=64":  {app: "mesh", model: "mp-sas", tier: "run", procs: 64},
		"n-body structure":  {app: "nbody", tier: "structure"},
		"n-body plans P=2":  {app: "nbody", tier: "plans", procs: 2},
		"n-body SHMEM P=8":  {app: "nbody", model: "shmem", tier: "run", procs: 8},
		"cg mesh":           {app: "cg", tier: "structure"},
		"cg plan P=16":      {app: "cg", tier: "plans", procs: 16},
		"stencil MP P=1":    {app: "stencil", model: "mp", tier: "run", procs: 1},
		"stencil MP P=x":    {},
		"loc":               {},
		"barnes MP P=1":     {},
		"mesh unknown P=1":  {},
		"mesh plans P=1 xx": {},
	} {
		got, ok := parseLabel(label)
		if ok != (want != cellID{}) || got != want {
			t.Errorf("parseLabel(%q) = %+v, %v; want %+v", label, got, ok, want)
		}
	}
}

// TestSubmissionOrderKeepsBytes is the seed check: two submission orders on
// a four-worker engine render identical bytes.
func TestSubmissionOrderKeepsBytes(t *testing.T) {
	o := experiments.QuickOpts()
	names := specNames()
	var digests [2][2]string
	for k, seed := range []int64{1, 2} {
		b := &bench{seed: seed}
		outs := runSuite(context.Background(), runner.New(4), o, names, b.order(0, len(names)))
		var suite []rendered
		for _, out := range outs {
			if hasFailedCell(out.text) {
				t.Fatalf("seed %d: %s has a FAILED cell", seed, out.name)
			}
			if out.name == "verdicts" {
				digests[k][1] = textDigest(out.text)
			} else {
				suite = append(suite, out)
			}
		}
		digests[k][0] = suiteDigest(suite)
	}
	if b1, b2 := (&bench{seed: 1}).order(0, 15), (&bench{seed: 2}).order(0, 15); slices.Equal(b1, b2) {
		t.Fatalf("seeds 1 and 2 give the same order %v", b1)
	}
	if digests[0] != digests[1] {
		t.Errorf("digests differ across submission orders: %v vs %v", digests[0], digests[1])
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := gold[w.Name]; !ok {
			t.Errorf("golden.json has no entry for workload %s", w.Name)
		}
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEndMetrics)
	}
	var layer []metricDef
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(layer, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's ledger:\n%v\n%v", layer, layerMetrics())
	}
}
