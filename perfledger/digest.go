package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// tableFiveName is the experiment left out of every digest: Table 5 counts
// the lines of the source tree the binary was built from, so it is a
// property of the checkout rather than of the simulation, and
// experiments.TestTable5Frozen already pins it.
const tableFiveName = "loc"

// golden is the expected output of each workload, recorded at full scale.
type golden struct {
	// SuiteSHA256 is the SHA-256 of the rendered suite — every
	// non-standalone experiment in registry order, joined as
	// experiments.Render joins them — with Table 5 left out.
	SuiteSHA256 string `json:"suite_sha256"`
	// VerdictsSHA256 and VerdictsPass check the verdicts table, when the
	// workload runs it.
	VerdictsSHA256 string `json:"verdicts_sha256,omitempty"`
	VerdictsPass   int    `json:"verdicts_pass,omitempty"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// rendered is one experiment's output as experiments.Render prints it.
type rendered struct {
	name string
	text string
}

// suiteDigest hashes the outputs in order, joined by the blank line
// experiments.Render puts between tables, skipping Table 5.
func suiteDigest(outs []rendered) string {
	h := sha256.New()
	first := true
	for _, o := range outs {
		if o.name == tableFiveName {
			continue
		}
		if !first {
			h.Write([]byte{'\n'})
		}
		first = false
		h.Write([]byte(o.text))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// verdictPasses counts the verdict rows whose verdict column reads PASS.
func verdictPasses(text string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		for _, f := range strings.Fields(line) {
			if f == "PASS" {
				n++
				break
			}
		}
	}
	return n
}

// hasFailedCell reports whether a rendered table carries a FAILED(...) entry.
func hasFailedCell(text string) bool { return strings.Contains(text, "FAILED(") }
