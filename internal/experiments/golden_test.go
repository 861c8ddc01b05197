package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// goldenQuickSHA256 pins the exact bytes of the full quick-scale experiment
// suite, rendered the way `o2kbench -quick -exp all` prints it, with Table 5
// (the `loc` experiment) left out. It is the regression net under the
// hot-path optimization work (DESIGN.md §5.4): any change to the simulator
// that alters a single character of any simulated table — virtual times,
// counters, speedups, verdicts — fails this test.
//
// Table 5 counts the lines of this repository's own model sources, so it is
// a property of the checkout, not of the simulation; TestTable5Frozen pins
// it separately. Leaving it out here means an edit to internal/{mp,shm,sas}
// cannot hide a simulation change behind an expected hash update. The
// perfledger benchmark's suite digest follows the same rule.
//
// If the test fails after an INTENTIONAL model or output change, update the
// constant to the hash printed in the failure message.
const goldenQuickSHA256 = "ae293ae3a27a147acf6bde654e29c0801eaa1370f20f0584da140450449d0514"

// tableFiveName is the experiment the golden hash leaves out.
const tableFiveName = "loc"

func TestGoldenQuickOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	out := renderSimulated(RunAllCtx(context.Background(), runner.New(0), QuickOpts()))
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	if got != goldenQuickSHA256 {
		if dir := os.Getenv("O2K_GOLDEN_DUMP"); dir != "" {
			_ = os.WriteFile(dir, []byte(out), 0o644)
		}
		t.Fatalf("quick-suite output hash changed:\n got %s\nwant %s\n"+
			"If the change is intentional, update goldenQuickSHA256 "+
			"(set O2K_GOLDEN_DUMP=<file> to dump the rendered bytes).", got, goldenQuickSHA256)
	}
}

// renderSimulated renders a RunAllCtx result the way o2kbench prints it,
// minus Table 5. RunAllCtx returns one table per non-standalone spec, in
// registry order.
func renderSimulated(tables []*core.Table) string {
	var keep []*core.Table
	i := 0
	for _, s := range List() {
		if s.Standalone {
			continue
		}
		if s.Name != tableFiveName {
			keep = append(keep, tables[i])
		}
		i++
	}
	return Render(keep)
}
