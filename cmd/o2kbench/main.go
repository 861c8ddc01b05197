// Command o2kbench regenerates the study's tables and figures.
//
// Usage:
//
//	o2kbench [-exp name] [-quick] [-procs 1,2,4|preset] [-format text|json] [-list] [-version]
//	         [-engine event|goroutine] [-jobs N] [-timeout d] [-cellretries N]
//	         [-stalldeadline d] [-runreport[=text|json]]
//	         [-cache dir] [-cache-verify] [-cache-clear] [-leases]
//	         [-trace f] [-trace-exp name] [-trace-ascii] [-phasereport]
//	         [-cpuprofile f] [-memprofile f]
//	o2kbench serve [-addr :8080] [-cache dir] [-leases] [-inflight N] [-queue N] ...
//
// `o2kbench serve` runs the engine as a long-running HTTP daemon
// (internal/server, DESIGN.md §5.11): POST /v1/experiments streams per-cell
// NDJSON and finishes with the CLI's exact stdout bytes, GET /v1/cells/...
// answers single-cell queries, and /v1/report, /v1/cache, /healthz, and
// /metrics expose the run telemetry. See serve.go for its flag set.
//
// The flag surface reads as three sections (see -help): experiment
// selection and output, engine and execution, and observability and
// profiling.
//
// -engine selects the simulation engine (DESIGN.md §5.7): "event" (the
// default) runs each gang on a single-threaded virtual-time event scheduler
// built on continuations, "goroutine" runs the original one-OS-goroutine-
// per-proc gang. Both produce byte-identical tables; the goroutine engine is
// kept as the differential reference. -procs takes either an explicit
// comma-separated list or a named preset (paper, scale128, scale256,
// scale1024) for sweeps past the paper's 64-processor ceiling.
//
// The trace flags are the observability subsystem (DESIGN.md §5.6): they
// re-run one application cell with phase-timeline recording enabled —
// -trace-exp selects it ("mesh", "nbody", "stencil", "cg", or "hybrid",
// models narrowed like "mesh/mp"; hybrid is single-model) at
// the largest -procs count — and render it as Chrome trace-event JSON
// (-trace FILE, loadable in Perfetto), a terminal Gantt chart
// (-trace-ascii), or a per-phase min/max/mean/imbalance table
// (-phasereport, stderr). The trace file also carries host-side tracks of
// this invocation's cell lifecycle (compute / memo-hit / disk-hit / retry
// spans from the engine's event hook). Because tracing is a deliberate
// re-simulation outside the memoized engine, stdout of the experiment
// tables is byte-identical whether or not any trace flag is given.
//
// -cache DIR attaches a persistent, crash-safe cell cache (DESIGN.md §5.5):
// completed metrics cells are stored content-addressed under DIR and served
// to later invocations, making repeat runs near-instant. The cache is
// strictly an accelerator — any failure (unreadable directory, corrupt or
// stale entry, failed write) degrades to recomputation with a stderr
// warning and counters under -runreport; stdout bytes and the exit code
// never depend on cache state. -cache-verify scans and evicts bad entries,
// -cache-clear empties the cache; both exit without running experiments.
//
// -leases (DESIGN.md §5.10) lets processes that share one -cache directory
// (CLI runs and `o2kbench serve` daemons) coordinate through per-cell lease
// files, so each persisted cell is computed once per cache directory rather
// than once per process. A process that dies mid-cell leaves a lease that
// the others steal once it goes stale. Leases only save compute: stdout is
// byte-identical with or without them.
//
// -timeout and -stalldeadline bound different things: -timeout is a wall-
// clock deadline on a whole cell (a cell that is legitimately slow renders
// FAILED(timeout)); -stalldeadline is the simulator's per-proc watchdog,
// panicking a simulated proc that sits this long on one event with no
// virtual-time progress (a deadlock), which cell retries then surface as a
// FAILED(stall ...) entry. A slow cell trips -timeout; only a wedged one
// trips -stalldeadline.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the inputs to
// the hot-path work recorded in DESIGN.md §5.4); profiles go to separate
// files and never touch stdout.
//
// Experiments are resolved through the experiments registry: every
// experiment answers to its semantic name (mesh-speedup) and its paper
// alias (fig2); `-list` prints the full index, and `all` runs everything.
// Simulations execute on a shared parallel cell engine (-jobs slots,
// default GOMAXPROCS) that memoizes each unique (application, model,
// machine, workload, P) cell, so `-exp all` costs one simulation per
// unique cell, not one per experiment that mentions it. `-runreport`
// prints the engine's cell/cache statistics to stderr — bare it follows
// -format, `-runreport=json` forces the machine-readable document (report
// plus phase aggregates when tracing ran). stdout carries only the tables
// and stays byte-identical at any -jobs value and under either engine.
//
// Failure semantics (DESIGN.md §5.3): a cell that panics, exceeds the
// -timeout deadline, or is cancelled (SIGINT/SIGTERM) becomes a
// FAILED(<reason>) table entry; the run continues and every healthy entry
// keeps its exact bytes. Exit status: 0 all cells succeeded, 1 at least
// one cell failed (partial output), 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/obs"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
	"o2k/internal/sim"
)

// mainArgsEnv carries a whitespace-separated argv to the test binary: its
// TestMain runs the CLI with those arguments instead of the tests, so the
// subprocess tests see flag parsing, exit codes, and signals exactly as a
// shell user does.
const mainArgsEnv = "O2K_MAIN_ARGS"

// listTable renders the experiment index from the registry.
func listTable() *core.Table {
	t := &core.Table{
		Title:  "Experiments",
		Header: []string{"name", "aliases", "description"},
	}
	for _, s := range experiments.List() {
		t.AddRow(s.Name, strings.Join(s.Aliases, ","), s.Title)
	}
	t.AddRow("all", "", "every non-standalone experiment above, in index order")
	return t
}

// parseProcs parses the -procs value: either a named preset or a
// comma-separated processor-count list (shared with the serve subcommand
// through experiments.ParseProcs).
func parseProcs(s string) ([]int, error) {
	return experiments.ParseProcs(s)
}

// runReportFlag implements -runreport[=text|json]. The bare form means
// "auto": follow -format. An explicit =text or =json forces the mode.
type runReportFlag struct{ mode string }

func (f *runReportFlag) String() string { return f.mode }

// IsBoolFlag lets the flag package accept bare -runreport (parsed as
// Set("true")) while still allowing -runreport=json.
func (f *runReportFlag) IsBoolFlag() bool { return true }

func (f *runReportFlag) Set(s string) error {
	switch s {
	case "true":
		f.mode = "auto"
	case "false":
		f.mode = ""
	case "text", "json":
		f.mode = s
	default:
		return fmt.Errorf("must be text or json (bare -runreport follows -format)")
	}
	return nil
}

// resolve maps the auto mode to the concrete report format.
func (f *runReportFlag) resolve(format string) string {
	if f.mode == "auto" {
		if format == "json" {
			return "json"
		}
		return "text"
	}
	return f.mode
}

// flagGroups is the -help layout: every flag belongs to exactly one of
// three sections so the CLI surface reads as selection/output, engine and
// execution, and observability. usage() appends any unclaimed flag under
// "Other" so a new flag can never silently vanish from -help.
var flagGroups = []struct {
	title string
	names []string
}{
	{"Experiment selection and output", []string{
		"exp", "list", "quick", "procs", "format", "version"}},
	{"Engine and execution", []string{
		"engine", "jobs", "timeout", "cellretries", "stalldeadline", "runreport",
		"cache", "cache-verify", "cache-clear", "leases"}},
	{"Observability and profiling", []string{
		"trace", "trace-exp", "trace-ascii", "phasereport",
		"cpuprofile", "memprofile"}},
}

func printFlag(out io.Writer, f *flag.Flag) {
	if f == nil {
		return
	}
	arg, usage := flag.UnquoteUsage(f)
	line := "  -" + f.Name
	if arg != "" {
		line += " " + arg
	}
	fmt.Fprintf(out, "%s\n    \t%s", line, strings.ReplaceAll(usage, "\n", "\n    \t"))
	if f.DefValue != "" && f.DefValue != "false" {
		fmt.Fprintf(out, " (default %s)", f.DefValue)
	}
	fmt.Fprintln(out)
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprint(out, "Usage: o2kbench [flags]\n")
	fmt.Fprint(out, "       o2kbench serve [flags]   (experiment-serving daemon; serve -h for its flags)\n")
	fmt.Fprint(out, "\nRegenerates the study's tables and figures; -list prints the experiment index.\n")
	seen := map[string]bool{}
	for _, g := range flagGroups {
		fmt.Fprintf(out, "\n%s:\n", g.title)
		for _, name := range g.names {
			printFlag(out, flag.Lookup(name))
			seen[name] = true
		}
	}
	var orphans []*flag.Flag
	flag.VisitAll(func(f *flag.Flag) {
		// The test binary registers the testing package's test.* flags on
		// the same FlagSet; they are not part of the CLI surface.
		if !seen[f.Name] && !strings.HasPrefix(f.Name, "test.") {
			orphans = append(orphans, f)
		}
	})
	if len(orphans) > 0 {
		fmt.Fprint(out, "\nOther:\n")
		for _, f := range orphans {
			printFlag(out, f)
		}
	}
}

// cacheMaintenance performs the standalone -cache-clear / -cache-verify
// operations: clear wins when both are given. Exit status: 0 clean, 1 the
// cache had bad entries (verify) or could not be maintained.
func cacheMaintenance(dir string, clear, verify bool) int {
	dc, err := diskcache.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 1
	}
	if clear {
		n, err := dc.Clear()
		if err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "o2kbench: cleared %d cache entries from %s\n", n, dir)
		return 0
	}
	st, err := dc.Verify()
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "o2kbench: verified %d cache entries: %d bad (%d stale), bad entries evicted; swept %d orphaned tmp file(s)\n",
		st.Checked, st.Bad, st.Stale, st.Tmp)
	// Leases are sidecars, not entries: stale ones (dead processes') are swept
	// on the lease subsystem's own judgement, and live ones never affect the
	// exit status — only bad entries do.
	if st.Leases > 0 {
		ls, lerr := lease.Sweep(dir, nil, 0)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", lerr)
		} else {
			fmt.Fprintf(os.Stderr, "o2kbench: swept %d stale lease(s), %d live lease(s) left\n", ls.Swept, ls.Live)
		}
	}
	if st.Bad > 0 {
		return 1
	}
	return 0
}

// writeTrace assembles the Chrome trace file: one virtual-time process per
// traced model run plus the host-side runner track of this invocation.
func writeTrace(path string, traced []experiments.TracedRun, col *obs.Collector) error {
	b := obs.NewBuilder()
	for _, tr := range traced {
		b.AddTimeline(tr.Label, tr.Group)
	}
	b.AddRunnerTrack(col.Events())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "o2kbench: wrote trace %s (%d timeline(s), %d runner events)\n",
		path, len(traced), col.Len())
	return nil
}

// writeRunReport emits the engine report to stderr: as a text table, or —
// with -runreport=json — as one machine-readable document that also
// carries the phase aggregates when a traced run produced them.
func writeRunReport(mode string, report *runner.Report, phases []obs.RunPhases) error {
	if mode != "json" {
		fmt.Fprint(os.Stderr, "\n"+report.Table().String())
		return nil
	}
	doc := struct {
		*runner.Report
		Phases []obs.RunPhases `json:"phases,omitempty"`
	}{report, phases}
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// main delegates to run so that deferred profile writers fire before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(run())
}

// version prints the build identity: the binary's module/VCS stamp and the
// cache version fence (schema + fingerprint). Two binaries that print the
// same fingerprint share disk-cache entries; differing fingerprints fence
// each other's entries off as stale.
func printVersion() {
	rev, modified := "", ""
	mod := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			mod = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Printf("o2kbench %s\n", mod)
	if rev != "" {
		dirty := ""
		if modified == "true" {
			dirty = " (modified)"
		}
		fmt.Printf("vcs: %s%s\n", rev, dirty)
	}
	fmt.Printf("go: %s\n", runtime.Version())
	fmt.Printf("cache schema: %s\n", diskcache.Schema)
	fmt.Printf("cache fingerprint: %s\n", diskcache.Fingerprint())
}

func run() int {
	// Subcommand dispatch: `o2kbench serve` is the daemon mode (serve.go);
	// everything else is the classic flag-driven one-shot run.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		return runServe(os.Args[2:])
	}

	exp := flag.String("exp", "all", "experiment to run (-list for the index; 'all' runs everything)")
	quick := flag.Bool("quick", false, "reduced workloads and processor counts")
	procs := flag.String("procs", "", "processor counts: a comma-separated list, or a preset name\n("+strings.Join(experiments.ProcsPresetNames(), ", ")+")")
	format := flag.String("format", "text", "output format: text or json")
	engine := flag.String("engine", "event", "simulation engine: event (virtual-time scheduler) or goroutine (reference gang)")
	jobs := flag.Int("jobs", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-cell compute deadline (0 = none); expired cells render FAILED(timeout)")
	retries := flag.Int("cellretries", 0, "retry budget for cells that fail with a transient error")
	stallDeadline := flag.Duration("stalldeadline", sim.DefaultStallDeadline,
		"simulation stall watchdog: panic a proc blocked this long with no virtual-time\nprogress (0 = off). Catches deadlocks; -timeout bounds a whole cell's wall time")
	var runreport runReportFlag
	flag.Var(&runreport, "runreport", "print the cell cache/timing report to stderr; =text or =json forces the\nformat, bare follows -format")
	cacheDir := flag.String("cache", "", "persistent cell-cache directory (created if missing); cache failures degrade to recompute")
	cacheVerify := flag.Bool("cache-verify", false, "with -cache: validate every entry, evict bad ones, sweep orphaned temp and\nstale lease files, and exit (1 if any entries were bad)")
	cacheClear := flag.Bool("cache-clear", false, "with -cache: remove every entry and exit")
	leasesOn := flag.Bool("leases", false, "with -cache: coordinate with other processes on the same cache directory\nthrough per-cell lease files")
	list := flag.Bool("list", false, "list every experiment name, its aliases, and its description")
	version := flag.Bool("version", false, "print the build identity and cache version fence, then exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
	traceExp := flag.String("trace-exp", "mesh", "what the trace flags re-run with tracing on:\nmesh, nbody, stencil, or cg (each optionally /MODEL), or hybrid")
	traceASCII := flag.Bool("trace-ascii", false, "print the traced run's phase timeline as a text Gantt chart")
	phaseReport := flag.Bool("phasereport", false, "print per-phase min/max/mean/imbalance of the traced run to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile to this file at exit")
	flag.Usage = usage
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "o2kbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "o2kbench:", err)
			}
		}()
	}

	if *version {
		printVersion()
		return 0
	}
	if *list {
		fmt.Print(listTable().String())
		return 0
	}

	se, err := sim.EngineByName(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 2
	}
	sim.SetDefaultEngine(se)

	o := experiments.DefaultOpts()
	if *quick {
		o = experiments.QuickOpts()
	}
	if *procs != "" {
		ps, err := parseProcs(*procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 2
		}
		o.Procs = ps
	}
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "o2kbench: -cellretries must be >= 0")
		return 2
	}
	o.Jobs = *jobs
	sim.SetStallDeadline(*stallDeadline)

	if *leasesOn && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "o2kbench: -leases requires -cache DIR (the cache directory is the coordination substrate)")
		return 2
	}

	if (*cacheVerify || *cacheClear) && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "o2kbench: -cache-verify/-cache-clear require -cache DIR")
		return 2
	}
	if *cacheVerify || *cacheClear {
		return cacheMaintenance(*cacheDir, *cacheClear, *cacheVerify)
	}

	// Tracing (DESIGN.md §5.6) re-runs one cell with phase recording on, so
	// the memoized/cached path — and the bytes it produces — stay untouched.
	// Validate the target before paying for the experiment suite.
	tracing := *traceFile != "" || *traceASCII || *phaseReport
	if tracing {
		if err := experiments.CheckTraceTarget(*traceExp); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 2
		}
	}

	// SIGINT/SIGTERM cancel the engine: blocked cell requesters unblock with
	// FAILED(cancelled) entries and the run drains instead of being killed
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := runner.NewWithPolicy(ctx, o.Jobs, runner.Policy{
		CellTimeout: *timeout,
		Retries:     *retries,
	})
	if *cacheDir != "" {
		// A cache that cannot even be opened is a warning, not a failure:
		// the run proceeds memory-only with identical output.
		if dc, err := diskcache.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench: cache disabled:", err)
		} else {
			eng.SetCache(dc)
			if *leasesOn {
				eng.SetLeases(lease.New(lease.Config{Dir: *cacheDir}))
			}
		}
	}
	var collector *obs.Collector
	if *traceFile != "" {
		// The trace file carries host-side tracks of this run's cell
		// lifecycle alongside the simulated timelines.
		collector = &obs.Collector{}
		eng.SetHook(collector.Hook())
	}
	// The engine already carries the signal context; the request needs none.
	tables, err := experiments.RunOnCtx(context.Background(), eng, *exp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 2
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 1
		}
	case "text":
		for i, t := range tables {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(t.String())
		}
	default:
		fmt.Fprintf(os.Stderr, "o2kbench: unknown format %q\n", *format)
		return 2
	}

	report := eng.Report()
	var phases []obs.RunPhases
	if tracing {
		traced, terr := experiments.Trace(*traceExp, o)
		if terr != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", terr)
			return 2
		}
		phases = make([]obs.RunPhases, len(traced))
		for i, tr := range traced {
			phases[i] = obs.NewRunPhases(tr.Label, tr.Group)
		}
		if *traceASCII {
			for _, tr := range traced {
				fmt.Printf("=== %s ===\n", tr.Label)
				fmt.Print(sim.RenderTimeline(tr.Group, 100))
			}
		}
		if *phaseReport {
			fmt.Fprint(os.Stderr, "\n"+obs.PhaseTable(phases).String())
		}
		if *traceFile != "" {
			if err := writeTrace(*traceFile, traced, collector); err != nil {
				fmt.Fprintln(os.Stderr, "o2kbench:", err)
				return 1
			}
		}
	}
	if mode := runreport.resolve(*format); mode != "" {
		if err := writeRunReport(mode, report, phases); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 1
		}
	}
	if report.Failures > 0 {
		fmt.Fprintf(os.Stderr, "o2kbench: %d cell(s) failed; output is partial (rerun with -runreport for details)\n",
			report.Failures)
		return 1
	}
	return 0
}
