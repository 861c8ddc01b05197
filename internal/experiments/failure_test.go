package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
)

// poisonMeshMP pre-fails the mesh MP run cell at the given processor count
// by publishing an error under the exact key the typed helper would use —
// the engine then serves the cached failure to the experiment builder.
func poisonMeshMP(e *runner.Engine, o Opts, procs int, err error) {
	key := core.CellKey("mesh/run", core.MP, machine.Default(procs), o.MeshW)
	e.Do(context.Background(), key, "poisoned mesh MP", nil, func(context.Context) (any, error) { return nil, err })
}

func TestFailedCellRendersAsFailedEntry(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	e := runner.New(2)
	poisonMeshMP(e, o, maxP, errors.New("injected fault"))

	tabs, err := RunOnCtx(context.Background(), e, "mesh-speedup", o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] != "FAILED(injected fault)" {
		t.Fatalf("poisoned MP entry = %q, want FAILED(injected fault)", last[1])
	}
	if last[4] != "FAILED(injected fault)" {
		t.Fatalf("speedup derived from poisoned cell = %q, want FAILED", last[4])
	}
	// The other models' entries at the same P are untouched.
	if strings.Contains(last[2], "FAILED") || strings.Contains(last[3], "FAILED") {
		t.Fatalf("healthy entries corrupted: %v", last)
	}
	if r := e.Report(); r.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", r.Failures)
	}
}

func TestFailedRunIsByteStableAcrossJobs(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	render := func(jobs int) string {
		e := runner.New(jobs)
		poisonMeshMP(e, o, maxP, errors.New("injected fault"))
		tabs, err := RunOnCtx(context.Background(), e, "all", o)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tabs {
			b.WriteString(tb.String())
		}
		return b.String()
	}
	if a, b := render(1), render(8); a != b {
		t.Fatal("degraded output differs between -jobs 1 and -jobs 8")
	}
}

func TestVerdictsFlagFailedEvidence(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	e := runner.New(2)
	poisonMeshMP(e, o, maxP, errors.New("injected fault"))

	tb := buildVerdicts(context.Background(), e, o)
	if tb.Rows[0][0] != "V0" {
		t.Fatalf("first verdict is %q, want the V0 evidence gate", tb.Rows[0][0])
	}
	if tb.Rows[0][2] != "FAIL" {
		t.Fatalf("V0 = %s with a poisoned evidence cell, want FAIL", tb.Rows[0][2])
	}
	if !strings.Contains(tb.Rows[0][3], "FAILED(injected fault)") {
		t.Fatalf("V0 evidence %q does not name the failure", tb.Rows[0][3])
	}
}

// A workload with zero adaptation cycles / zero time steps yields empty plan
// sequences; Table 1 must degrade those rows to FAILED(...) instead of
// panicking on the len()-divisions in its averages.
func TestTable1EmptyPlansDegradeToFailedRows(t *testing.T) {
	o := QuickOpts()
	o.MeshW.Cycles = 0
	o.NBodyW.Steps = 0
	tb := buildTable1(context.Background(), runner.New(1), o)
	rows := map[string][]string{}
	for _, r := range tb.Rows {
		rows[r[0]] = r
	}
	for _, app := range []string{"adaptive mesh", "barnes-hut n-body"} {
		r, ok := rows[app]
		if !ok {
			t.Fatalf("table 1 lost the %q row: %v", app, tb.Rows)
		}
		if !strings.Contains(r[1], "FAILED(") || !strings.Contains(r[1], "empty plan sequence") {
			t.Fatalf("%s row = %q, want FAILED(empty plan sequence ...)", app, r[1])
		}
	}
	// The healthy rows still render normally.
	if r := rows["conjugate gradient"]; strings.Contains(r[1], "FAILED") {
		t.Fatalf("cg row degraded: %v", r)
	}
}

func TestBuildSafeRecoversBuilderPanic(t *testing.T) {
	s := Spec{Name: "boom", Title: "panicking builder",
		Build: func(context.Context, *runner.Engine, Opts) *core.Table { panic("kaboom") }}
	tb := buildSafe(context.Background(), s, runner.New(1), QuickOpts())
	if tb == nil || len(tb.Rows) != 1 || !strings.Contains(tb.Rows[0][0], "builder panic: kaboom") {
		t.Fatalf("buildSafe did not degrade the panic: %+v", tb)
	}
}
