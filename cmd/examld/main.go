// Command examld is the inference daemon: it keeps a warm pool of
// worker processes and serves phylogenetic inference jobs over an
// HTTP/JSON API, multiplexing concurrent multi-rank searches across
// the pool and migrating jobs off dead ranks via checkpoint shipping.
//
// Daemon mode (the default) spawns -workers copies of itself in worker
// mode and listens on -http:
//
//	examld -http 127.0.0.1:8441 -workers 4
//
// Worker mode hosts one rank of one job at a time and is normally
// spawned by the daemon, but extra capacity can be attached from any
// reachable machine:
//
//	examld -worker -pool <daemon-pool-addr>
//
// The daemon also serves a live observability plane (on by default):
// GET /metrics exposes Prometheus text-format metrics — scheduler queue
// depth, pool strength, job latency histograms, migration counters —
// and /debug/pprof/ serves the standard Go profiles of the daemon
// process. Inference runs in the worker processes, so the daemon's page
// holds no kernel or transport series; workers are profiled through the
// control protocol: GET /api/v1/pool/{id}/profile?name=heap. See
// docs/OBSERVABILITY.md.
//
// See docs/SERVICE.md for the API and operational behavior.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/metrics"
	"repro/internal/service"
)

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8441", "HTTP API listen address")
		poolAddr = flag.String("pool", "127.0.0.1:0", "worker-pool listen address (daemon) or daemon pool address to join (-worker)")
		workers  = flag.Int("workers", 4, "warm worker processes the daemon spawns and maintains")
		worker   = flag.Bool("worker", false, "run as a pool worker instead of the daemon")
		addrFile = flag.String("addr-file", "", "write the bound HTTP address to this file (for scripts; useful with -http :0)")

		hbInterval  = flag.Duration("hb-interval", 0, fmt.Sprintf("rank-mesh heartbeat interval (0 = %v)", service.DefaultHeartbeatInterval))
		hbTimeout   = flag.Duration("hb-timeout", 0, fmt.Sprintf("rank-mesh heartbeat timeout, the failure detection latency (0 = %v)", service.DefaultHeartbeatTimeout))
		recoveryWin = flag.Duration("recovery-window", 0, "recovery membership window (default 2x hb-timeout)")
		withMetrics = flag.Bool("metrics", true, "serve Prometheus metrics at /metrics")
		withPprof   = flag.Bool("pprof", true, "serve net/http/pprof at /debug/pprof/")
		quiet       = flag.Bool("quiet", false, "suppress operational logging")
		versionOnly = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *versionOnly {
		fmt.Println("examld (examl-go inference service)")
		return
	}

	if *worker {
		pool := *poolAddr
		if flag.NArg() > 0 {
			// The daemon spawns workers with the pool address appended
			// as a positional argument.
			pool = flag.Arg(0)
		}
		if err := service.RunWorker(pool); err != nil {
			log.Fatal(err)
		}
		return
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	srv, err := service.New(service.Options{
		PoolAddr:          *poolAddr,
		Workers:           *workers,
		WorkerArgv:        []string{self, "-worker", "-pool"},
		HeartbeatInterval: *hbInterval,
		HeartbeatTimeout:  *hbTimeout,
		RecoveryWindow:    *recoveryWin,
		Logf:              logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Fatalf("examld: HTTP listener: %v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("examld: writing -addr-file: %v", err)
		}
	}
	logf("examld: API on http://%s, worker pool on %s (%d warm workers)",
		ln.Addr(), srv.PoolAddr(), *workers)

	hs := &http.Server{Handler: newMux(srv, *withMetrics, *withPprof)}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logf("examld: shutting down")
		hs.Close()
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// newMux mounts the API and, beside it, the observability plane
// (docs/OBSERVABILITY.md): /metrics serves the server's own registry
// (queue, pool, job latency) and nothing else, because inference runs
// in the worker processes and no kernel or transport series moves in
// this one; /debug/pprof profiles the daemon itself — worker processes
// are profiled through GET /api/v1/pool/{id}/profile instead.
func newMux(srv *service.Server, withMetrics, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	var regs []*metrics.Registry
	if withMetrics {
		regs = []*metrics.Registry{srv.Metrics()}
	}
	metrics.Mount(mux, regs, withPprof)
	return mux
}
