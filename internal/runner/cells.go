package runner

import (
	"context"
	"fmt"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mesh"
	"o2k/internal/planio"
)

// The typed cell helpers below are the whole vocabulary the experiments
// need: one run cell per (application, model, machine config, workload),
// plus the plan cells the run cells depend on. Plans are memoized
// separately because they are shared across the three models at a given
// processor count (and, for the mesh, across ablation variants that differ
// only in run-time knobs) — exactly the sharing the serial drivers used to
// arrange by hand with RunWithPlans.
//
// Plan construction itself splits into two tiers, both persisted:
//
//   - a *structure* cell per workload (the adaptation history, the N-body
//     reference simulation, the refined CG mesh) — independent of the
//     processor count, so every P of a scaling sweep shares one entry;
//   - a *plan* cell per (workload, P) storing only the partitioning
//     decisions; the full plans are re-derived from structure + decisions
//     on decode, which is cheap, keeps entries small, and makes a decoded
//     plan equal to a computed one by construction.
//
// Machine latency/bandwidth constants never enter a structure or plan key —
// only the processor count does — so machine presets that differ only in
// timing (fig12's four classes) share every plan-tier entry.
//
// Dependency discipline: every helper resolves its plan cell *before*
// entering Do, so a goroutine never holds a worker slot while waiting for
// another cell — the bounded pool cannot deadlock, even at -jobs=1. A plan
// cell's failure propagates to every run cell that depends on it without
// starting the run.

// Res is the outcome of one metrics cell: the run's metrics, or the error
// that kept them from being produced. Experiment builders render a failed
// Res as a FAILED(<reason>) table entry (see FailLabel) and keep going —
// one bad cell degrades one entry, never the whole run.
type Res struct {
	M   core.Metrics
	Err error
}

// Failed reports whether the cell produced an error instead of metrics.
func (r Res) Failed() bool { return r.Err != nil }

// metricsRes adapts a Do outcome to a Res.
func metricsRes(v any, err error) Res {
	if err != nil {
		return Res{Err: err}
	}
	return Res{M: v.(core.Metrics)}
}

// MetricsCodec persists metrics run cells in the on-disk cache: the strict
// lossless JSON codec from core (see core/codec.go for why the round-trip
// is exact).
var MetricsCodec = &Codec{
	Kind: "metrics",
	Encode: func(v any) ([]byte, error) {
		m, ok := v.(core.Metrics)
		if !ok {
			return nil, fmt.Errorf("runner: metrics cell holds %T", v)
		}
		return core.EncodeMetrics(m)
	},
	Decode: func(data []byte) (any, error) {
		m, err := core.DecodeMetrics(data)
		if err != nil {
			return nil, err
		}
		return m, nil
	},
}

// textCodec wraps a plan-tier text serialization (internal/planio format) as
// a cache Codec. Payload bytes are stored verbatim — the cache's value
// framing is format-agnostic, so the multi-megabyte plan text is read with
// zero re-encoding passes on warm runs.
func textCodec(enc func(v any) ([]byte, error), dec func(data []byte) (any, error)) *Codec {
	return &Codec{Kind: "plan", Encode: enc, Decode: dec}
}

// meshStructWorkload strips every workload field the adaptation sequence
// does not read — the run-time knobs (solver depth, auxiliary field count,
// the CC-SAS page-migration toggle) and NoRemap, which only affects the
// per-P partitioning. What remains — grid, refinement depth, cycles, fronts,
// StaticMesh — is exactly what changes the structure.
func meshStructWorkload(w adaptmesh.Workload) adaptmesh.Workload {
	w.SolveIters = 0
	w.AuxFields = 0
	w.SasPageMigrate = false
	w.NoRemap = false
	return w
}

// meshPlanWorkload strips the workload fields that BuildPlans does not read
// (solver depth, auxiliary field count, the CC-SAS page-migration knob), so
// ablation variants that differ only in those knobs share one plan cell.
// Structural fields — grid, refinement depth, cycles, fronts, StaticMesh,
// NoRemap — stay, because they change the plans.
func meshPlanWorkload(w adaptmesh.Workload) adaptmesh.Workload {
	w.SolveIters = 0
	w.AuxFields = 0
	w.SasPageMigrate = false
	return w
}

// Plan-tier cache keys. Each folds in the payload's schema string, so a
// format change retires old entries; none folds in machine timing constants.
func meshStructKey(w adaptmesh.Workload) string {
	return core.CellKey("mesh/structure", adaptmesh.StructureSchema, meshStructWorkload(w))
}

func meshPlanKey(w adaptmesh.Workload, procs int) string {
	return core.CellKey("mesh/plans", adaptmesh.PlanSchema, meshPlanWorkload(w), procs)
}

func nbodyStructKey(w barnes.Workload) string {
	return core.CellKey("nbody/structure", barnes.StructureSchema, w)
}

// cgStructWorkload strips the fields the CG plan does not depend on: the
// iteration count and the diagonal shift are pure run-time parameters.
func cgStructWorkload(w cg.Workload) cg.Workload {
	w.Iters = 0
	w.Sigma = 0
	return w
}

func cgMeshKey(w cg.Workload) string {
	return core.CellKey("cg/mesh", cg.MeshSchema, cgStructWorkload(w))
}

func cgPlanKey(w cg.Workload, procs int) string {
	return core.CellKey("cg/plan", cg.PlanSchema, cgStructWorkload(w), procs)
}

// meshStructure returns the memoized (and persisted) adaptation history for
// the mesh workload.
func (e *Engine) meshStructure(ctx context.Context, w adaptmesh.Workload) (*adaptmesh.Structure, error) {
	sw := meshStructWorkload(w)
	codec := textCodec(
		func(v any) ([]byte, error) { return adaptmesh.EncodeStructure(v.(*adaptmesh.Structure), sw), nil },
		func(data []byte) (any, error) { return adaptmesh.DecodeStructure(data, sw) },
	)
	v, err := e.Do(ctx, meshStructKey(w), "mesh structure", codec, func(context.Context) (any, error) {
		return adaptmesh.BuildStructure(sw), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*adaptmesh.Structure), nil
}

// MeshPlans returns the memoized cycle plans for the mesh workload at the
// given processor count. The structure cell is resolved first (never inside
// the plan cell's compute — see the Do discipline above); the plan cell then
// persists only the per-cycle partitioning decisions.
func (e *Engine) MeshPlans(ctx context.Context, w adaptmesh.Workload, procs int) ([]*adaptmesh.CyclePlan, error) {
	st, err := e.meshStructure(ctx, w)
	if err != nil {
		return nil, err
	}
	pw := meshPlanWorkload(w)
	codec := textCodec(
		func(v any) ([]byte, error) { return adaptmesh.EncodePlans(v.([]*adaptmesh.CyclePlan), procs), nil },
		func(data []byte) (any, error) { return st.DecodePlans(data, procs) },
	)
	v, err := e.Do(ctx, meshPlanKey(w, procs), fmt.Sprintf("mesh plans P=%d", procs), codec, func(context.Context) (any, error) {
		return st.Plans(procs, pw.NoRemap), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]*adaptmesh.CyclePlan), nil
}

// Mesh runs the adaptive-mesh application under one model on one machine
// configuration (cfg.Procs is the processor count), memoized.
func (e *Engine) Mesh(ctx context.Context, model core.Model, cfg machine.Config, w adaptmesh.Workload) Res {
	plans, err := e.MeshPlans(ctx, w, cfg.Procs)
	if err != nil {
		return Res{Err: fmt.Errorf("mesh plans: %w", err)}
	}
	key := core.CellKey("mesh/run", model, cfg, w)
	return metricsRes(e.Do(ctx, key, fmt.Sprintf("mesh %v P=%d", model, cfg.Procs), MetricsCodec, func(context.Context) (any, error) {
		return adaptmesh.RunWithPlans(model, machine.MustNew(cfg), w, plans), nil
	}))
}

// MeshModels runs the mesh application under all three models, in parallel
// where the pool allows, returning outcomes in core.AllModels order.
func (e *Engine) MeshModels(ctx context.Context, cfg machine.Config, w adaptmesh.Workload) [3]Res {
	var out [3]Res
	e.Warm(modelFns(func(i int, m core.Model) { out[i] = e.Mesh(ctx, m, cfg, w) })...)
	return out
}

// MeshHybrid runs the MP+SAS hybrid mesh extension: plans are built at the
// machine's node count (one MP rank per node board).
func (e *Engine) MeshHybrid(ctx context.Context, cfg machine.Config, w adaptmesh.Workload) Res {
	m, err := machine.New(cfg)
	if err != nil {
		return Res{Err: fmt.Errorf("machine: %w", err)}
	}
	plans, err := e.MeshPlans(ctx, w, m.Nodes())
	if err != nil {
		return Res{Err: fmt.Errorf("mesh plans: %w", err)}
	}
	key := core.CellKey("mesh/hybrid", cfg, w)
	return metricsRes(e.Do(ctx, key, fmt.Sprintf("mesh MP+SAS P=%d", cfg.Procs), MetricsCodec, func(context.Context) (any, error) {
		return adaptmesh.RunHybridWithPlans(m, w, plans), nil
	}))
}

// nbodyStructure returns the memoized (and persisted) reference-simulation
// record for the N-body workload — the force evaluations that dominate plan
// construction.
func (e *Engine) nbodyStructure(ctx context.Context, w barnes.Workload) (*barnes.Structure, error) {
	codec := textCodec(
		func(v any) ([]byte, error) { return barnes.EncodeStructure(v.(*barnes.Structure)), nil },
		func(data []byte) (any, error) { return barnes.DecodeStructure(data, w) },
	)
	v, err := e.Do(ctx, nbodyStructKey(w), "n-body structure", codec, func(context.Context) (any, error) {
		return barnes.BuildStructure(w), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*barnes.Structure), nil
}

// NBodyPlans returns the memoized per-step plans for the N-body workload.
// The per-P derivation (cost-zones over the captured positions) is cheap
// relative to the persisted structure, so the plan cells stay memory-only.
func (e *Engine) NBodyPlans(ctx context.Context, w barnes.Workload, procs int) ([]*barnes.StepPlan, error) {
	st, err := e.nbodyStructure(ctx, w)
	if err != nil {
		return nil, err
	}
	key := core.CellKey("nbody/plans", w, procs)
	v, err := e.Do(ctx, key, fmt.Sprintf("n-body plans P=%d", procs), nil, func(context.Context) (any, error) {
		return st.Plans(procs), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]*barnes.StepPlan), nil
}

// NBody runs the Barnes-Hut application under one model, memoized.
func (e *Engine) NBody(ctx context.Context, model core.Model, cfg machine.Config, w barnes.Workload) Res {
	plans, err := e.NBodyPlans(ctx, w, cfg.Procs)
	if err != nil {
		return Res{Err: fmt.Errorf("n-body plans: %w", err)}
	}
	key := core.CellKey("nbody/run", model, cfg, w)
	return metricsRes(e.Do(ctx, key, fmt.Sprintf("n-body %v P=%d", model, cfg.Procs), MetricsCodec, func(context.Context) (any, error) {
		return barnes.RunWithPlans(model, machine.MustNew(cfg), w, plans), nil
	}))
}

// NBodyModels runs the N-body application under all three models.
func (e *Engine) NBodyModels(ctx context.Context, cfg machine.Config, w barnes.Workload) [3]Res {
	var out [3]Res
	e.Warm(modelFns(func(i int, m core.Model) { out[i] = e.NBody(ctx, m, cfg, w) })...)
	return out
}

// cgMesh returns the memoized (and persisted) refined snapshot for the CG
// workload, serialized in the mesh v2 global-ID format.
func (e *Engine) cgMesh(ctx context.Context, w cg.Workload) (*mesh.Mesh, error) {
	codec := textCodec(
		func(v any) ([]byte, error) {
			var pw planio.Writer
			v.(*mesh.Mesh).AppendGlobal(&pw)
			return pw.Bytes(), nil
		},
		func(data []byte) (any, error) {
			s := planio.NewScanner(data)
			m, err := mesh.DecodeGlobalFrom(s)
			if err != nil {
				return nil, err
			}
			s.Done()
			if err := s.Err(); err != nil {
				return nil, err
			}
			return m, nil
		},
	)
	sw := cgStructWorkload(w)
	v, err := e.Do(ctx, cgMeshKey(w), "cg mesh", codec, func(context.Context) (any, error) {
		return cg.BuildMesh(sw), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mesh.Mesh), nil
}

// CGPlan returns the memoized static plan for the conjugate-gradient run.
// The mesh cell is resolved first; the plan cell persists the partitioning
// decision only.
func (e *Engine) CGPlan(ctx context.Context, w cg.Workload, procs int) (*cg.Plan, error) {
	m, err := e.cgMesh(ctx, w)
	if err != nil {
		return nil, err
	}
	sw := cgStructWorkload(w)
	codec := textCodec(
		func(v any) ([]byte, error) { return cg.EncodePlan(v.(*cg.Plan)), nil },
		func(data []byte) (any, error) { return cg.DecodePlan(data, sw, m, procs) },
	)
	v, err := e.Do(ctx, cgPlanKey(w, procs), fmt.Sprintf("cg plan P=%d", procs), codec, func(context.Context) (any, error) {
		return cg.PlanForMesh(sw, m, procs), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cg.Plan), nil
}

// CG runs the conjugate-gradient application under one model, memoized.
func (e *Engine) CG(ctx context.Context, model core.Model, cfg machine.Config, w cg.Workload) Res {
	plan, err := e.CGPlan(ctx, w, cfg.Procs)
	if err != nil {
		return Res{Err: fmt.Errorf("cg plan: %w", err)}
	}
	key := core.CellKey("cg/run", model, cfg, w)
	return metricsRes(e.Do(ctx, key, fmt.Sprintf("cg %v P=%d", model, cfg.Procs), MetricsCodec, func(context.Context) (any, error) {
		return cg.RunWithPlan(model, machine.MustNew(cfg), w, plan), nil
	}))
}

// CGModels runs the conjugate-gradient application under all three models.
func (e *Engine) CGModels(ctx context.Context, cfg machine.Config, w cg.Workload) [3]Res {
	var out [3]Res
	e.Warm(modelFns(func(i int, m core.Model) { out[i] = e.CG(ctx, m, cfg, w) })...)
	return out
}

// Stencil runs the regular Jacobi control application under one model;
// it has no plan stage.
func (e *Engine) Stencil(ctx context.Context, model core.Model, cfg machine.Config, w stencil.Workload) Res {
	key := core.CellKey("stencil/run", model, cfg, w)
	return metricsRes(e.Do(ctx, key, fmt.Sprintf("stencil %v P=%d", model, cfg.Procs), MetricsCodec, func(context.Context) (any, error) {
		return stencil.Run(model, machine.MustNew(cfg), w), nil
	}))
}

// modelFns adapts a per-model assignment to Warm's closure list.
func modelFns(f func(i int, m core.Model)) []func() {
	fns := make([]func(), 0, len(core.AllModels()))
	for i, m := range core.AllModels() {
		i, m := i, m
		fns = append(fns, func() { f(i, m) })
	}
	return fns
}
