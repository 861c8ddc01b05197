package main

// The serve subcommand: `o2kbench serve -addr :8080` runs the experiment
// engine as a long-running HTTP daemon (internal/server, DESIGN.md §5.11)
// instead of a one-shot table regeneration. It reuses the CLI's engine,
// cache, and lease setup verbatim, so daemons and CLI runs started with
// -leases on one -cache directory coordinate through the same lease files.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
	"o2k/internal/server"
	"o2k/internal/sim"
)

// Connection timeouts of the daemon's http.Server. A client gets
// readHeaderTimeout to finish its request headers and idleTimeout between
// keep-alive requests; past either, the connection is closed, so a client
// that stalls mid-header cannot hold a connection open forever. Neither
// bounds a request's body or its streamed response: a full-scale experiment
// streams for minutes.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func runServe(args []string) int {
	fs := flag.NewFlagSet("o2kbench serve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	cacheDir := fs.String("cache", "", "persistent cell-cache directory, shareable with CLI runs and other daemons")
	leasesOn := fs.Bool("leases", false, "with -cache: coordinate with other processes on the same cache directory\nthrough per-cell lease files")
	engine := fs.String("engine", "event", "simulation engine: event or goroutine")
	jobs := fs.Int("jobs", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-cell compute deadline (0 = none)")
	retries := fs.Int("cellretries", 0, "retry budget for cells that fail with a transient error")
	stallDeadline := fs.Duration("stalldeadline", sim.DefaultStallDeadline,
		"simulation stall watchdog (0 = off)")
	inflight := fs.Int("inflight", 4, "concurrently running experiment requests")
	queue := fs.Int("queue", 16, "requests allowed to wait for a run slot; beyond inflight+queue, 429")
	drainTimeout := fs.Duration("drain-timeout", time.Minute,
		"on SIGINT/SIGTERM: how long to wait for in-flight requests before closing connections")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "o2kbench serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *leasesOn && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "o2kbench serve: -leases requires -cache DIR")
		return 2
	}
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "o2kbench serve: -cellretries must be >= 0")
		return 2
	}
	se, err := sim.EngineByName(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench serve:", err)
		return 2
	}
	sim.SetDefaultEngine(se)
	sim.SetStallDeadline(*stallDeadline)

	// The engine lives on the *process's* context, not the signal context:
	// a drain must let admitted requests finish and commit their cells, so
	// shutdown stops the listener, never the engine.
	eng := runner.NewWithPolicy(context.Background(), *jobs, runner.Policy{
		CellTimeout: *timeout,
		Retries:     *retries,
	})
	var dc *diskcache.Cache
	if *cacheDir != "" {
		if dc, err = diskcache.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench serve: cache disabled:", err)
			dc = nil
		} else {
			eng.SetCache(dc)
			if *leasesOn {
				eng.SetLeases(lease.New(lease.Config{Dir: *cacheDir}))
			}
		}
	}
	srv := server.New(server.Config{
		Engine:      eng,
		Cache:       dc,
		MaxInflight: *inflight,
		MaxQueue:    *queue,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench serve:", err)
		return 1
	}
	// The concrete address goes to stderr so scripts (and the drain test)
	// can discover a :0-assigned port.
	fmt.Fprintf(os.Stderr, "o2kbench: serving on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "o2kbench serve:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain: refuse new work, let in-flight requests stream to completion
	// (their cells commit to the cache on the way), then report and exit.
	srv.Drain()
	code := 0
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	fmt.Fprintln(os.Stderr, "o2kbench: draining")
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench serve: drain:", err)
		hs.Close()
		code = 1
	}
	fmt.Fprint(os.Stderr, "\n"+eng.Report().Table().String())
	return code
}
