package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// Spec declares one experiment: its canonical semantic name, the paper-
// artifact aliases it also answers to, a one-line description, and the
// builder that assembles its table from simulation cells on a shared
// engine. Experiments register themselves at init time; cmd/o2kbench and
// the All driver discover them through List and Lookup — there is no
// hand-maintained name switch anywhere.
type Spec struct {
	Name    string   // canonical semantic name, e.g. "mesh-speedup"
	Aliases []string // paper names, e.g. "fig2"
	Title   string   // one-line description for -list
	// Build assembles the experiment's table, requesting every simulation
	// through e so unique cells are computed once and shared. ctx scopes the
	// request: the CLI passes its signal context, the experiment server a
	// per-HTTP-request context (cancelling it aborts only this request's
	// uncommitted cells — DESIGN.md §5.11).
	Build func(ctx context.Context, e *runner.Engine, o Opts) *core.Table
	// Standalone experiments (the verdict checker) are excluded from "all".
	Standalone bool
}

var (
	regMu    sync.RWMutex
	registry []Spec
	byName   = make(map[string]*Spec)
)

// Register adds a spec to the registry. Name, Title, and Build are
// required; names and aliases are case-insensitive and must be unique
// across the registry. It panics on a bad spec — registration happens in
// package init, where a broken table of contents should stop the program.
func Register(s Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Name == "" || s.Title == "" || s.Build == nil {
		panic(fmt.Sprintf("experiments: incomplete spec %+v", s))
	}
	registry = append(registry, s)
	p := &registry[len(registry)-1]
	for _, n := range append([]string{s.Name}, s.Aliases...) {
		n = strings.ToLower(n)
		if n == "all" {
			panic(`experiments: "all" is reserved`)
		}
		if _, dup := byName[n]; dup {
			panic(fmt.Sprintf("experiments: duplicate experiment name %q", n))
		}
		byName[n] = p
	}
}

// List returns every registered spec in registration (paper index) order.
func List() []Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Spec(nil), registry...)
}

// Names returns every accepted experiment name — canonical names and
// aliases — sorted, for error messages.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ns := make([]string, 0, len(byName))
	for n := range byName {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Lookup resolves an experiment by canonical name or alias
// (case-insensitive).
func Lookup(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := byName[strings.ToLower(name)]
	if !ok {
		return Spec{}, false
	}
	return *p, true
}

// Run executes the named experiment (or "all") on a fresh engine sized from
// o.Jobs and returns its tables. Callers that run several experiments and
// want them to share the cell cache should create one runner.Engine and use
// RunOnCtx.
func Run(name string, o Opts) ([]*core.Table, error) {
	return RunOnCtx(context.Background(), runner.New(o.Jobs), name, o)
}

// Render joins a table list into the exact bytes o2kbench prints on stdout:
// tables separated by one blank line, each rendered by core.Table.String.
// The experiment server returns this rendering so its output can be compared
// byte-for-byte against the CLI.
func Render(tables []*core.Table) string {
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// RunOnCtx is Run on a caller-supplied engine, scoped to one request
// context. The name "all" produces every non-standalone experiment in index
// order, built concurrently over the shared cell cache. Builders receive ctx
// and thread it into every cell request, so cancelling ctx abandons this
// invocation without disturbing other users of the shared engine.
func RunOnCtx(ctx context.Context, e *runner.Engine, name string, o Opts) ([]*core.Table, error) {
	if strings.ToLower(name) == "all" {
		return RunAllCtx(ctx, e, o), nil
	}
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (run -list for the index)", name)
	}
	return []*core.Table{buildSafe(ctx, s, e, o)}, nil
}

// buildSafe runs one builder with panic recovery: cell failures are already
// values (runner.Res), so a builder panic is a bug in the assembly code
// itself — degrade it to a one-row error table rather than killing every
// other experiment of the run.
func buildSafe(ctx context.Context, s Spec, e *runner.Engine, o Opts) (t *core.Table) {
	defer func() {
		if r := recover(); r != nil {
			t = &core.Table{
				Title:  s.Title,
				Header: []string{"error"},
				Rows:   [][]string{{fmt.Sprintf("FAILED(builder panic: %v)", r)}},
			}
		}
	}()
	return s.Build(ctx, e, o)
}

// RunAllCtx builds every non-standalone experiment on the shared engine,
// scoped to one request context. Builders run concurrently — the engine's
// single-flight cache ensures each unique cell is still simulated exactly
// once — but results are returned in registration order, so the output is
// byte-identical at any parallelism.
func RunAllCtx(ctx context.Context, e *runner.Engine, o Opts) []*core.Table {
	specs := List()
	out := make([]*core.Table, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		if s.Standalone {
			continue
		}
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			out[i] = buildSafe(ctx, s, e, o)
		}(i, s)
	}
	wg.Wait()
	tables := make([]*core.Table, 0, len(specs))
	for _, t := range out {
		if t != nil {
			tables = append(tables, t)
		}
	}
	return tables
}
