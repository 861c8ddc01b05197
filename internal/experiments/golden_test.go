package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"o2k/internal/runner"
)

// goldenQuickSHA256 pins the exact bytes of the full quick-scale experiment
// suite, rendered the way `o2kbench -quick -exp all` prints it. It is the
// regression net under the hot-path optimization work (DESIGN.md §5.4): any
// change to the simulator that alters a single character of any table —
// virtual times, counters, speedups, verdicts — fails this test.
//
// If the test fails after an INTENTIONAL model or output change, update the
// constant to the hash printed in the failure message. Note that Table 5
// measures this repository's own model-runtime sources (internal/mp, shm,
// sas), so edits to those files legitimately change the bytes too.
const goldenQuickSHA256 = "d90370fb8d7d18670f398affe2693bd24f19d685935217955570a14526cf27e8"

func TestGoldenQuickOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	out := renderAll(RunAllCtx(context.Background(), runner.New(0), QuickOpts()))
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
