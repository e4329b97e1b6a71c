// Command avgcampaign runs a declarative experiment campaign — named
// scenario specs with hypothesis blocks (internal/campaign) — and renders
// the verdict table judging the paper's asymptotic claims against the
// measured sweeps.
//
// Usage:
//
//	avgcampaign [flags] campaign.json
//	avgcampaign -json campaigns/paper.json
//	avgcampaign -server http://localhost:8080 campaigns/paper.json
//
// By default the campaign executes in-process under -parallelism workers,
// optionally fronted by a persistent result cache (-cache-dir, shared with
// avgserve's on-disk format). With -server the campaign is submitted to a
// running avgserve's POST /v1/campaigns instead: per-scenario completions
// stream to stderr as they arrive and the final verdict renders the same
// way, so both modes produce identical stdout for identical data. With
// -fleet-listen the in-process run serves the internal/fleet worker
// protocol on the given address and dispatches every scenario across
// attached avgworker processes — one shared fleet budget for the whole
// campaign — falling back to local execution while none are attached;
// fleet execution is byte-identical, so all three modes agree.
//
// Exit status: 0 on success, 1 on execution errors; with -strict also 1
// when any hypothesis is REJECTED or INCONCLUSIVE (for CI gates).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	goruntime "runtime"
	"strings"
	"syscall"

	"avgloc/internal/campaign"
	"avgloc/internal/fleet"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/resultstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avgcampaign:", err)
		os.Exit(1)
	}
}

func run() error {
	parallelism := flag.Int("parallelism", 0, "worker budget over scenarios, rows and trials (0 = GOMAXPROCS); verdicts are bit-identical at any level")
	jsonOut := flag.Bool("json", false, "print the full campaign report as JSON instead of the verdict table")
	server := flag.String("server", "", "submit to a running avgserve (POST /v1/campaigns) instead of executing in-process")
	fleetListen := flag.String("fleet-listen", "", "serve the fleet worker protocol on this address and dispatch scenarios across attached avgworkers (in-process mode)")
	cacheDir := flag.String("cache-dir", "", "optional persistent result cache directory (in-process mode)")
	cacheSize := flag.Int("cache-size", 256, "in-memory result cache entries (in-process mode)")
	graphCacheDir := flag.String("graph-cache-dir", "", "optional persistent graph artifact directory (in-process mode; a warm dir reruns the campaign with zero generator invocations)")
	strict := flag.Bool("strict", false, "exit non-zero when any hypothesis is REJECTED or INCONCLUSIVE")
	tracePath := flag.String("trace", "", "write a flight-recorder trace artifact (NDJSON, read with avgtrace) for the in-process run")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: avgcampaign [flags] campaign.json")
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancels the in-process run at row granularity:
	// finished scenarios keep their verdicts, the rest report the context
	// error. A second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// The flight recorder brackets the whole invocation; spans nest under
	// this root via the context (campaign.run -> scenario rows or fleet
	// chunks). Tracing never alters the report bytes.
	var tracer *obs.Tracer
	if *tracePath != "" && *server == "" {
		if tracer, err = obs.Create(*tracePath, "avgcampaign", obs.A("file", flag.Arg(0))); err != nil {
			return err
		}
	}

	var rep *campaign.Report
	if *server != "" {
		rep, err = runRemote(*server, data)
	} else {
		root := tracer.Span(nil, "request", obs.A("parallelism", *parallelism))
		rep, err = runLocal(obs.With(ctx, root), data, *parallelism, *cacheDir, *cacheSize, *graphCacheDir, *fleetListen)
		if err != nil {
			root.End(obs.A("error", err.Error()))
		} else {
			root.End()
		}
		if cerr := tracer.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if tracer != nil {
			fmt.Fprintf(os.Stderr, "trace: %d lines -> %s (inspect: avgtrace %s)\n", tracer.Lines(), *tracePath, *tracePath)
		}
	}
	if err != nil {
		return err
	}

	if *jsonOut {
		out, err := rep.MarshalStable()
		if err != nil {
			return err
		}
		os.Stdout.Write(out)
	} else {
		fmt.Print(rep.String())
	}
	if *strict && rep.Rejected+rep.Inconclusive > 0 {
		return fmt.Errorf("%d rejected, %d inconclusive", rep.Rejected, rep.Inconclusive)
	}
	return nil
}

func runLocal(ctx context.Context, data []byte, parallelism int, cacheDir string, cacheSize int, graphCacheDir string, fleetListen string) (*campaign.Report, error) {
	c, err := campaign.Parse(data)
	if err != nil {
		return nil, err
	}
	var store *resultstore.Store
	if cacheDir != "" {
		if store, err = resultstore.New(cacheSize, cacheDir); err != nil {
			return nil, err
		}
	}
	var graphs *graphstore.Store
	if graphCacheDir != "" {
		if graphs, err = graphstore.New(0, graphCacheDir); err != nil {
			return nil, err
		}
	}
	if parallelism <= 0 {
		parallelism = goruntime.GOMAXPROCS(0)
	}
	opts := campaign.Options{
		Parallelism: parallelism,
		Store:       store,
		Graphs:      graphs,
		Ctx:         ctx,
		OnScenario: func(r campaign.ScenarioRun) {
			status := "done"
			if r.Err != "" {
				status = "error: " + r.Err
			} else if r.Cached {
				status = "done (cached)"
			}
			fmt.Fprintf(os.Stderr, "scenario %s: %s\n", r.Name, status)
		},
	}
	if fleetListen != "" {
		// One coordinator for the whole campaign: every scenario's chunks
		// share its queue, workers and (with -cache-dir) chunk cache.
		coord := fleet.NewCoordinator(fleet.Config{
			Store: store,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		ln, err := net.Listen("tcp", fleetListen)
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: coord.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fleet: worker protocol on %s (attach: avgworker -coordinator http://<host>:<port>)\n", ln.Addr())
		opts.Execute = coord.Execute
	}
	return campaign.Run(c, opts)
}

// event is one NDJSON line of the server's campaign stream.
type event struct {
	Type   string           `json:"type"`
	Name   string           `json:"name,omitempty"`
	Status string           `json:"status,omitempty"`
	Cached bool             `json:"cached,omitempty"`
	Error  string           `json:"error,omitempty"`
	Report *campaign.Report `json:"report,omitempty"`
}

func runRemote(server string, data []byte) (*campaign.Report, error) {
	url := strings.TrimSuffix(server, "/") + "/v1/campaigns"
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return nil, fmt.Errorf("server returned %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var rep *campaign.Report
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("parsing stream: %w", err)
		}
		switch ev.Type {
		case "scenario":
			status := ev.Status
			if ev.Error != "" {
				status = "error: " + ev.Error
			} else if ev.Cached {
				status += " (cached)"
			}
			fmt.Fprintf(os.Stderr, "scenario %s: %s\n", ev.Name, status)
		case "verdict":
			rep = ev.Report
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("stream ended without a verdict")
	}
	return rep, nil
}
