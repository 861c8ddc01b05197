package main

import (
	"context"
	"fmt"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/machine"
	"o2k/internal/runner"
)

// cellRef names one default-machine simulation cell. model uses the ledger's
// spelling (mp, shmem, sas, mp-sas); mp-sas is the hybrid mesh run.
type cellRef struct {
	app, model string
	procs      int
}

var refModels = map[string]core.Model{"mp": core.MP, "shmem": core.SHMEM, "sas": core.SAS}

// get requests the cell from an engine.
func (c cellRef) get(ctx context.Context, e *runner.Engine, o experiments.Opts) runner.Res {
	cfg := machine.Default(c.procs)
	if c.model == "mp-sas" {
		return e.MeshHybrid(ctx, cfg, o.MeshW)
	}
	m := refModels[c.model]
	switch c.app {
	case "mesh":
		return e.Mesh(ctx, m, cfg, o.MeshW)
	case "nbody":
		return e.NBody(ctx, m, cfg, o.NBodyW)
	case "cg":
		return e.CG(ctx, m, cfg, o.CGW)
	default:
		return e.Stencil(ctx, m, cfg, o.StencilW)
	}
}

// path is the cell's GET /v1/cells resource.
func (c cellRef) path() string {
	if c.model == "mp-sas" {
		return fmt.Sprintf("/v1/cells/hybrid/mp+sas/%d", c.procs)
	}
	return fmt.Sprintf("/v1/cells/%s/%s/%d", c.app, c.model, c.procs)
}

// suiteCells lists the default-machine cells the full suite computes: the
// scaling sweeps of Figures 2, 3 and 14 (every model), Figure 10's stencil
// control (MP and CC-SAS) and Figure 13's hybrid run at the largest P. A
// cell outside the suite would make the warm daemon simulate, which
// warm-serve counts as a failure.
func suiteCells(procs []int) []cellRef {
	var cs []cellRef
	for _, p := range procs {
		for _, app := range []string{"mesh", "nbody", "cg"} {
			for _, m := range []string{"mp", "shmem", "sas"} {
				cs = append(cs, cellRef{app, m, p})
			}
		}
		cs = append(cs, cellRef{"stencil", "mp", p}, cellRef{"stencil", "sas", p})
	}
	return append(cs, cellRef{"mesh", "mp-sas", procs[len(procs)-1]})
}
