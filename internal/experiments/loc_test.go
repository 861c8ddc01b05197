package experiments

import (
	"fmt"
	"testing"
)

// TestTable5Frozen pins Table 5's LoC counts. The table is computed from the
// working tree at runtime, which makes it the one part of the experiment
// output that can drift silently with unrelated source edits. The golden
// quick-suite SHA (golden_test.go) leaves Table 5 out, so this test is its
// only guard: any change to a counted file becomes an explicit diff of this
// table, while the golden hash proves the simulation itself did not move.
//
// The frozen values also carry the paper's Table 5 point: the programming
// effort ordering (CC-SAS ≤ SHMEM ≤ MP for the apps; the MP runtime's
// explicit message machinery vs. CC-SAS's thin load/store veneer).
func TestTable5Frozen(t *testing.T) {
	want := [][4]string{
		{"adaptive mesh app", "219", "254", "204"},
		{"n-body app", "139", "124", "121"},
		{"stencil app (control)", "72", "62", "55"},
		{"conjugate gradient app", "134", "134", "132"},
		{"model runtime", "289", "352", "128"},
	}
	tab := Table5()
	if len(tab.Rows) != len(want) {
		t.Fatalf("Table 5 has %d rows, want %d", len(tab.Rows), len(want))
	}
	var diffs []string
	for i, w := range want {
		got := tab.Rows[i]
		if len(got) != 4 || got[0] != w[0] || got[1] != w[1] || got[2] != w[2] || got[3] != w[3] {
			diffs = append(diffs, fmt.Sprintf("row %d: got %v, want %v", i, got, w[:]))
		}
	}
	if diffs != nil {
		t.Errorf("Table 5 LoC drifted from the frozen values:\n%s\n"+
			"If the source change is intentional, update this table.",
			joinLines(diffs))
	}
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n"
		}
		out += s
	}
	return out
}
