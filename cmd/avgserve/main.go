// Command avgserve is a long-running HTTP measurement service over the
// scenario layer: it lists the graph/algorithm registry, runs declarative
// scenario specs synchronously or as polled jobs, and serves cached reports.
// Identical scenario submissions are answered from the result cache with
// byte-identical JSON.
//
// Usage:
//
//	avgserve -addr :8080 -workers 4 -parallelism 2 -cache-size 1024 -cache-dir /var/cache/avgserve
//	avgserve -addr :8080 -fleet            # + avgworker -coordinator http://host:8080
//
// In -fleet mode the server additionally mounts the internal/fleet
// coordinator under /fleet/v1/ and transparently dispatches /v1/run and
// /v1/campaigns executions across attached avgworker processes, falling
// back to local execution while none are attached. Responses are
// byte-identical either way (see internal/fleet).
//
// Endpoints:
//
//	GET  /healthz                 liveness + cache statistics
//	GET  /v1/metrics              cache hit/miss counters, in-flight jobs, run totals (JSON)
//	GET  /metrics                 the same counters in Prometheus text format
//	GET  /debug/pprof/*           net/http/pprof (-pprof mode)
//	GET  /v1/registry             graph families and algorithms, JSON
//	POST /v1/run                  run a scenario spec synchronously
//	POST /v1/campaigns            run up to 32 scenarios (hypotheses optional) as
//	                              /v1/run jobs; streams scenario completions
//	                              (campaign order) then the verdict report
//	POST /v1/jobs                 submit a scenario, returns a job id
//	GET  /v1/jobs/{id}            poll job status
//	GET  /v1/jobs/{id}/result     fetch a finished job's report
//	GET  /v1/reports/{key}        fetch a cached report by scenario key
//	POST /fleet/v1/*              worker protocol (-fleet mode; see internal/fleet)
//	GET  /fleet/v1/stats          coordinator queue/worker snapshot (-fleet mode)
//
// Example:
//
//	curl -s localhost:8080/v1/run -d '{"graph":"regular","params":{"n":1024,"d":6},"algorithm":"mis/luby","trials":5,"seed":1}'
//	curl -sN localhost:8080/v1/campaigns -d @campaigns/paper.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"avgloc/internal/fleet"
	"avgloc/internal/graphstore"
	"avgloc/internal/resultstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avgserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "concurrent scenario executions")
	parallelism := flag.Int("parallelism", 1, "per-scenario worker budget over sweep rows and trials (bit-identical at any level)")
	cacheSize := flag.Int("cache-size", 1024, "in-memory result cache entries")
	cacheDir := flag.String("cache-dir", "", "optional directory for persistent result cache")
	graphCacheDir := flag.String("graph-cache-dir", "", "optional directory for persistent graph artifacts (content-addressed CSR files; a warm dir reruns sweeps with zero generator invocations)")
	graphCacheMB := flag.Int("graph-cache-mb", 256, "in-memory graph store budget in MiB")
	fleetMode := flag.Bool("fleet", false, "mount the fleet coordinator and dispatch runs across attached avgworkers")
	chunkTrials := flag.Int("fleet-chunk-trials", fleet.DefaultChunkTrials, "trials per dispatched chunk (stable sharding; chunk-cache keys depend on it)")
	heartbeat := flag.Duration("fleet-heartbeat", fleet.DefaultHeartbeatTimeout, "lease expiry without a worker heartbeat; silent workers deregister after twice this")
	stealAfter := flag.Duration("fleet-steal-after", fleet.DefaultStealAfter, "lease age before an idle worker may duplicate a straggling chunk")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request execution deadline, queue wait included (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight requests on SIGTERM/SIGINT")
	traceDir := flag.String("trace-dir", "", "write a flight-recorder trace artifact per executed run into this directory (read with avgtrace)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	store, err := resultstore.New(*cacheSize, *cacheDir)
	if err != nil {
		return err
	}
	graphs, err := graphstore.New(int64(*graphCacheMB)<<20, *graphCacheDir)
	if err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("creating -trace-dir: %w", err)
		}
	}
	cfg := serverConfig{
		store:          store,
		graphs:         graphs,
		workers:        *workers,
		par:            *parallelism,
		requestTimeout: *requestTimeout,
		traceDir:       *traceDir,
		pprof:          *pprofFlag,
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if *fleetMode {
		cfg.coord = fleet.NewCoordinator(fleet.Config{
			ChunkTrials:      *chunkTrials,
			HeartbeatTimeout: *heartbeat,
			StealAfter:       *stealAfter,
			Store:            store,
			Logf:             log.Printf,
		})
	}
	srv := newServerCfg(cfg)
	log.Printf("avgserve: listening on %s (workers=%d parallelism=%d cache=%d dir=%q graph-dir=%q fleet=%v timeout=%v trace=%q pprof=%v)",
		*addr, *workers, *parallelism, *cacheSize, *cacheDir, *graphCacheDir, *fleetMode, *requestTimeout, *traceDir, *pprofFlag)

	// Graceful drain on SIGTERM/SIGINT: stop accepting, let in-flight
	// requests (and their fleet chunks) finish within -drain-timeout, then
	// exit. A second signal aborts immediately.
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills the process
		log.Printf("avgserve: draining (bound %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		log.Printf("avgserve: drained cleanly")
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
